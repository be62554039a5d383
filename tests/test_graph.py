"""Graph construction, queries, and structural validation."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massgraph import (
    AddEdge,
    AddNode,
    DiagonalError,
    DuplicateEdgeError,
    EdgeRecord,
    GraphState,
    InputError,
    KernelParams,
    MassGraphError,
    NodeLookupError,
    NodeRecord,
    ParameterError,
    Prune,
    new_graph,
    run_script,
    script_document,
    settle_phase_one,
    validate_state,
)
from massgraph.graph import above_one, initial_inputs, node_id, node_label
from massgraph.kernel import as_float, as_int


@pytest.fixture
def two_nodes():
    return new_graph([2, 2], [(1, 2, 2)])


class TestConstruction:
    def test_echoes_inputs(self, two_nodes):
        assert two_nodes.phase == 0
        assert two_nodes.node_ids() == [1, 2]
        assert two_nodes.mass(1) == 2.0
        assert two_nodes.mass(2) == 2.0
        assert two_nodes.weight(1, 2) == 2.0
        assert len(two_nodes.edges) == 1
        assert two_nodes.next_id == 3

    def test_self_edge_rejected(self):
        with pytest.raises(DiagonalError):
            new_graph([2, 2], [(1, 1, 2)])

    def test_low_mass_names_the_node(self):
        with pytest.raises(InputError, match="node 2"):
            new_graph([2, 0.5], [])

    def test_low_weight_names_the_edge(self):
        with pytest.raises(InputError, match=r"\(1, 2\)"):
            new_graph([2, 2], [(1, 2, 1.0)])

    def test_duplicate_pair_rejected_in_either_orientation(self):
        with pytest.raises(DuplicateEdgeError):
            new_graph([2, 2], [(1, 2, 3), (2, 1, 4)])

    def test_out_of_range_endpoint(self):
        with pytest.raises(NodeLookupError):
            new_graph([2, 2], [(1, 3, 2)])

    @pytest.mark.parametrize("params", ["x", {"mu": 0}, (0.0, 1.0)], ids=["str", "dict", "tuple"])
    def test_params_must_be_kernel_params(self, params):
        with pytest.raises(ParameterError, match="params"):
            new_graph([2, 2], [(1, 2, 2)], params=params)

    @pytest.mark.parametrize("bad_id", [1.0, True])
    def test_edge_ids_must_be_int(self, bad_id):
        with pytest.raises(NodeLookupError):
            new_graph([2, 2], [(bad_id, 2, 2)])
        with pytest.raises(NodeLookupError):
            new_graph([2, 2], [(2, bad_id, 2)])

    def test_empty_graph_is_fine(self):
        state = new_graph([], [])
        assert state.node_ids() == []
        assert state.next_id == 1


class TestQueries:
    def test_symmetry(self, two_nodes):
        assert two_nodes.weight(1, 2) == two_nodes.weight(2, 1) == 2.0

    def test_zero_diagonal(self, two_nodes):
        assert two_nodes.weight(1, 1) == 0.0

    def test_absent_pair_reads_zero(self):
        state = new_graph([2, 2, 2], [(1, 2, 2)])
        assert state.weight(1, 3) == 0.0
        assert not state.has_edge(1, 3)

    @pytest.mark.parametrize("bad", [1.0, True, "a", 0, 7],
                             ids=["float", "bool", "str", "zero", "unknown"])
    @pytest.mark.parametrize("read", [
        lambda s, i: s.mass(i), lambda s, i: s.alive(i), lambda s, i: s.label(i),
        lambda s, i: s.weight(i, 2), lambda s, i: s.weight(1, i),
        lambda s, i: s.has_edge(i, 2), lambda s, i: s.has_edge(1, i),
    ], ids=["mass", "alive", "label", "weight-i", "weight-j", "has_edge-i", "has_edge-j"])
    def test_accessors_refuse_what_is_no_node_id(self, two_nodes, read, bad):
        # 1.0 and True hash like node 1, so a bare dict lookup would take them
        with pytest.raises(NodeLookupError):
            read(two_nodes, bad)

    def test_edges_are_sorted(self):
        state = new_graph([2, 2, 2], [(2, 3, 4), (1, 3, 3), (1, 2, 2)])
        assert list(state.edges) == [(1, 2), (1, 3), (2, 3)]

    def test_total_mass(self, two_nodes):
        assert two_nodes.total_mass() == 4.0


class TestValidate:
    def test_fresh_state_is_clean(self, two_nodes):
        assert validate_state(two_nodes) == []

    def test_corrupted_mass_is_named(self, two_nodes):
        bad_nodes = dict(two_nodes.nodes)
        bad_nodes[2] = replace(bad_nodes[2], mass=0.5)
        violations = validate_state(replace(two_nodes, nodes=bad_nodes))
        assert len(violations) == 1
        assert "node 2" in violations[0]

    @pytest.mark.parametrize("mass", [math.nan, 0.5, "2.5"], ids=["nan", "half", "str"])
    def test_dead_node_mass_obeys_the_mass_rule(self, mass):
        # a dead node keeps its last mass, which is > 1; held as "2.5", it
        # would digest like the float 2.5 of an unequal state
        state = GraphState(0, {1: NodeRecord(2.0), 2: NodeRecord(mass, alive=False)}, {})
        problems = validate_state(state)
        assert len(problems) == 1 and "node 2" in problems[0] and "mass" in problems[0]

    def test_edge_to_dead_node_is_named(self, two_nodes):
        bad_nodes = dict(two_nodes.nodes)
        bad_nodes[2] = replace(bad_nodes[2], alive=False)
        violations = validate_state(replace(two_nodes, nodes=bad_nodes))
        assert len(violations) == 1
        assert "(1, 2)" in violations[0] and "dead" in violations[0]

    def test_non_string_label_is_caught(self):
        # refused before the run, not by export_dot at the end of it
        state = GraphState(0, {1: NodeRecord(2.0, label=5), 2: NodeRecord(3.0)},
                           {(1, 2): EdgeRecord(2.0)})
        problems = validate_state(state)
        assert len(problems) == 1 and "node 1" in problems[0] and "label" in problems[0]
        with pytest.raises(InputError, match="label"):
            run_script(state, [])

    @pytest.mark.parametrize("alive", [1, 1.0, "yes"])
    def test_non_bool_liveness_is_caught(self, alive):
        # 1 == True, so a script document would take node 1 for a live one
        state = GraphState(0, {1: NodeRecord(2.0, alive=alive), 2: NodeRecord(3.0)},
                           {(1, 2): EdgeRecord(2.0)})
        problems = validate_state(state)
        assert len(problems) == 1 and "node 1" in problems[0] and "bool" in problems[0]
        with pytest.raises(InputError, match="bool"):
            run_script(state, [])

    @pytest.mark.parametrize("weight", ["2.5", True, EdgeRecord(math.nan),
                                        EdgeRecord(math.inf), EdgeRecord(-math.inf)],
                             ids=["str", "bool", "nan", "inf", "-inf"])
    def test_edge_value_that_is_not_a_finite_number_is_caught(self, weight):
        state = GraphState(0, {1: NodeRecord(2.0), 2: NodeRecord(3.0)}, {(1, 2): weight})
        problems = validate_state(state)
        assert len(problems) == 1 and problems[0].startswith("weight of edge (1, 2)")
        with pytest.raises(InputError, match="weight of edge"):
            run_script(state, [])

    def test_unnormalized_edge_key_is_caught(self):
        state = GraphState(
            phase=0,
            nodes={1: NodeRecord(2.0), 2: NodeRecord(2.0)},
            edges={(2, 1): EdgeRecord(2.0)},
        )
        assert any("canonical" in v for v in validate_state(state))

    def test_edge_to_unknown_node_is_caught(self):
        state = GraphState(
            phase=1,
            nodes={1: NodeRecord(2.0)},
            edges={(1, 9): EdgeRecord(2.0)},
        )
        assert any("unknown node 9" in v for v in validate_state(state))


    @pytest.mark.parametrize("nodes,edges", [
        ({1.0: NodeRecord(2.0), 2: NodeRecord(2.0)}, {}),
        ({1: NodeRecord(2.0), 2: NodeRecord(2.0)}, {(1.0, 2): EdgeRecord(2.0)}),
        ({1: NodeRecord(2.0), 2: NodeRecord(2.0)}, {(True, 2): EdgeRecord(2.0)}),
        ({1: NodeRecord(2.0), "a": NodeRecord(2.0)}, {}),  # ids that do not order
        ({1: NodeRecord(2.0), 2: NodeRecord(2.0)}, {(1, "a"): EdgeRecord(2.0)}),
    ], ids=["node-key", "edge-key-float", "edge-key-bool", "node-key-str", "edge-key-str"])
    def test_non_integer_id_is_caught(self, nodes, edges):
        problems = validate_state(GraphState(phase=1, nodes=nodes, edges=edges))
        assert len(problems) == 1 and "integer" in problems[0]

    def test_ids_that_skip_a_number_are_caught_once(self):
        # every state a transition makes numbers its nodes 1 to n, so a gap
        # would let a node event reuse an id
        state = GraphState(phase=1, nodes={1: NodeRecord(2.0), 3: NodeRecord(2.0)},
                           edges={(1, 3): EdgeRecord(2.0)})
        problems = validate_state(state)
        assert len(problems) == 1 and "1 to 2" in problems[0]

    def test_id_below_one_is_caught(self):
        # ids start at 1: a hand-built state holding node 0 must not run,
        # only to be refused when its script is exported
        state = GraphState(phase=0, nodes={0: NodeRecord(2.0), 1: NodeRecord(2.0)},
                           edges={(0, 1): EdgeRecord(2.0)})
        problems = validate_state(state)
        assert len(problems) == 2 and all(">= 1" in p for p in problems)
        with pytest.raises(InputError):
            run_script(state, [])

    @pytest.mark.parametrize("params", ["x", {"mu": 0}, None], ids=["str", "dict", "none"])
    def test_params_that_are_not_kernel_params_are_caught(self, params):
        # the kernel reads params.mu and params.sigma: refused before the run
        for edges in ({}, {(1, 2): EdgeRecord(2.0)}):
            state = GraphState(0, {1: NodeRecord(2.0), 2: NodeRecord(3.0)}, edges, params)
            problems = validate_state(state)
            assert len(problems) == 1 and problems[0].startswith("params must be")
            with pytest.raises(InputError, match="params"):
                run_script(state, [])

    @pytest.mark.parametrize("phase", [-1, 0.0, True, None, "x"])
    def test_phase_is_an_integer_from_zero(self, phase):
        state = GraphState(phase=phase, nodes={1: NodeRecord(2.0)})
        problems = validate_state(state)
        assert len(problems) == 1 and problems[0].startswith("phase must be")
        with pytest.raises(InputError):
            run_script(state, [])

    @pytest.mark.parametrize("nodes,edges,named", [
        ({1: 2.0, 2: NodeRecord(3.0)}, {}, "node 1: record must be a NodeRecord, got 2.0"),
        ({1: NodeRecord(2.0), 2: NodeRecord(3.0)}, {5: EdgeRecord(2.0)},
         "edge key 5 is not an (i, j) pair"),
        ({1: NodeRecord(2.0), 2: NodeRecord(3.0)}, {(1, 2, 3): EdgeRecord(2.0)},
         "edge key (1, 2, 3) is not an (i, j) pair"),
    ], ids=["node-value-not-a-record", "edge-key-not-a-tuple", "edge-key-of-three"])
    def test_malformed_entries_are_reported_not_raised(self, nodes, edges, named):
        state = GraphState(0, nodes, edges)
        assert validate_state(state) == [named]
        for refuses in (lambda: run_script(state, []), lambda: settle_phase_one(state),
                        lambda: script_document(state, [])):
            with pytest.raises(InputError, match=re.escape(named)):
                refuses()


class TestRefusalsNameTheirInput:
    """A model rule's error names what it refuses in ``path``."""

    @pytest.mark.parametrize("build,error,path", [
        (lambda: AddEdge(1, 1.5, 2.0), NodeLookupError, "l"),
        (lambda: AddEdge(0, 2, 2.0), NodeLookupError, "k"),
        (lambda: AddEdge(1, 1, 2.0), DiagonalError, None),
        (lambda: AddEdge(1, 2, 1), InputError, "initial_weight"),
        (lambda: AddNode(0.5), InputError, "initial_mass"),
        (lambda: AddNode(2.0, label=3), InputError, "label"),
        (lambda: Prune(math.nan), InputError, "threshold"),
        (lambda: new_graph([2.0, 1.0], []), InputError, "masses[1]"),
        (lambda: new_graph([2.0, 2.0], [(1, 2, 3.0), (2, 1, 4.0)]), DuplicateEdgeError,
         "edges[1]"),
        (lambda: new_graph([2.0, 2.0], [(1, 2)]), InputError, "edges[0]"),
        (lambda: new_graph([2.0, 2.0], [5]), InputError, "edges[0]"),
        (lambda: new_graph([2.0, 2.0], [(2, 2, 3.0)]), DiagonalError, "edges[0]"),
        (lambda: new_graph([2.0, 2.0], [(1, 2.0, 3.0)]), NodeLookupError, "edges[0][1]"),
        (lambda: new_graph([2.0, 2.0], [(3, 1, 3.0)]), NodeLookupError, "edges[0][0]"),
        (lambda: new_graph([2.0, 2.0], [(1, 2, 1.0)]), InputError, "edges[0][2]"),
        (lambda: KernelParams(0, -1), ParameterError, "sigma"),
        (lambda: KernelParams(math.inf), ParameterError, "mu"),
    ])
    def test_the_error_names_the_refused_input(self, build, error, path):
        with pytest.raises(error) as excinfo:
            build()
        assert excinfo.value.path == path


class TestFastPathBoundary:
    """``new_graph`` takes a float mass, and an entry of int ids, low then
    high, and a float weight, with one check; every other input takes the
    rules' path, and either gives what the rules give."""

    def test_an_int_mass_is_stored_as_a_float(self):
        state = new_graph([2, 2.5], [])
        assert [type(state.mass(i)) for i in (1, 2)] == [float, float]
        assert state.mass(1) == 2.0

    @pytest.mark.parametrize("masses,weights,error,path", [
        ([2.0, 2.0], [(1, 2, 1.0)], InputError, "edges[0][2]"),
        ([2.0, 2.0], [(1, 2, math.inf)], InputError, "edges[0][2]"),
        ([1.0, 2.0], [], InputError, "masses[0]"),
        ([2.0, math.inf], [], InputError, "masses[1]"),
        ([2.0, True], [], InputError, "masses[1]"),
        ([2.0, 2.0], [(True, 2, 3.0)], NodeLookupError, "edges[0][0]"),
        ([2.0, 2.0], [(1, True, 3.0)], NodeLookupError, "edges[0][1]"),
        ([2.0, 2.0], [(0, 2, 3.0)], NodeLookupError, "edges[0][0]"),
        ([2.0, 2.0], [(1, 3, 3.0)], NodeLookupError, "edges[0][1]"),
        ([2.0, 2.0], [(2, 1, 3.0), (1, 2, 4.0)], DuplicateEdgeError, "edges[1]"),
        ([2.0, 2.0], [(1, 2, 3.0), (2, 1, 4.0)], DuplicateEdgeError, "edges[1]"),
        ([2.0, 2.0], [(1, 2, 3.0), [1, 2, 4.0]], DuplicateEdgeError, "edges[1]"),
        ([2.0, 2.0], [(1, 2, 3.0, 4.0)], InputError, "edges[0]"),
    ])
    def test_refusals_keep_their_errors_and_paths(self, masses, weights, error, path):
        with pytest.raises(error) as excinfo:
            new_graph(masses, weights)
        assert type(excinfo.value) is error and excinfo.value.path == path

    def test_a_reversed_pair_is_stored_by_its_canonical_key(self):
        state = new_graph([2.0, 2.0, 2.0], [(3, 1, 3.0), [1, 2, 4.0]])
        assert list(state.edges) == [(1, 2), (1, 3)]
        assert state.weight(1, 3) == 3.0 and state.weight(1, 2) == 4.0

    def test_a_weight_of_one_is_refused_and_just_above_is_taken(self):
        above = math.nextafter(1.0, 2.0)
        assert new_graph([2.0, 2.0], [(1, 2, above)]).weight(1, 2) == above
        assert new_graph([above], []).mass(1) == above
        with pytest.raises(InputError, match=r"\(1, 2\) must be > 1"):
            new_graph([2.0, 2.0], [(1, 2, 1.0)])

    @given(st.lists(st.sampled_from([2.0, 2, 1.0, 1.5, math.inf, math.nan, True, "2"]),
                    max_size=4),
           st.lists(st.tuples(st.sampled_from([1, 2, 3, 0, True, 1.0]),
                              st.sampled_from([1, 2, 3, 0, True, 2.0]),
                              st.sampled_from([3.0, 3, 1.0, 2.5, math.inf, None])),
                    max_size=5),
           st.booleans())
    def test_the_fast_path_gives_what_the_rules_give(self, masses, entries, as_lists):
        # a float subclass, and a tuple subclass, take the rules' path
        class Slow(tuple):
            pass

        class Real(float):
            pass

        weights = [list(e) if as_lists else e for e in entries]
        slow = ([Real(m) if type(m) is float else m for m in masses],
                [Slow((i, j, Real(w) if type(w) is float else w)) for i, j, w in entries])
        outcomes = []
        for args in ((masses, weights), slow):
            try:
                state = new_graph(*args)
            except MassGraphError as err:
                outcomes.append((type(err), str(err), err.path))
            else:
                nodes = [(i, type(rec.mass), rec) for i, rec in state.nodes.items()]
                edges = [(key, type(w), float(w)) for key, w in state.edges.items()]
                outcomes.append((nodes, edges))
        assert outcomes[0] == outcomes[1]


def full_validate_state(state):
    """``validate_state`` with every record through the rules: the oracle
    for its one-check path."""
    problems = []
    ids = True
    try:
        as_int(state.phase, "phase", InputError, 0)
    except InputError as err:
        problems.append(str(err))
    if not isinstance(state.params, KernelParams):
        problems.append(f"params must be KernelParams, got {state.params!r}")
    for i, rec in state.nodes.items():
        try:
            node_id(i)
        except NodeLookupError as err:
            problems.append(f"node key {i!r}: {err}")
            ids = False
        if not isinstance(rec, NodeRecord):
            problems.append(f"node {i!r}: record must be a NodeRecord, got {rec!r}")
            continue
        try:
            node_label(rec.label)
        except InputError as err:
            problems.append(f"node {i}: {err}")
        if type(rec.alive) is not bool:
            problems.append(f"node {i}: alive must be a bool, got {rec.alive!r}")
        try:
            above_one(rec.mass, "mass")
        except InputError as err:
            problems.append(f"node {i}: {err}")
    n = len(state.nodes)
    if ids and max(state.nodes, default=0) != n:
        problems.append(f"nodes must be numbered 1 to {n}")
    for key, weight in state.edges.items():
        if not isinstance(key, tuple) or len(key) != 2:
            problems.append(f"edge key {key!r} is not an (i, j) pair")
            continue
        a, b = key
        try:
            node_id(a), node_id(b)
        except NodeLookupError as err:
            problems.append(f"edge key {key!r}: {err}")
            continue
        if a == b:
            problems.append(f"edge {key} sits on the diagonal")
            continue
        if a > b:
            problems.append(f"edge keyed {key} is not stored in canonical (low, high) form")
        for endpoint in (a, b):
            rec = state.nodes.get(endpoint)
            if rec is None:
                problems.append(f"edge {key} references unknown node {endpoint}")
            elif isinstance(rec, NodeRecord) and not rec.alive:
                problems.append(f"edge {key} touches dead node {endpoint}")
        try:
            as_float(weight, "value")
        except InputError as err:
            problems.append(f"weight of edge {key}: {err}")
    return problems


def full_initial_inputs(state):
    """``initial_inputs`` on :func:`full_validate_state`, with its own
    checks of every record."""
    problems = full_validate_state(state)
    if state.phase != 0:
        problems.append(f"a run starts at phase 0, got phase {state.phase!r}")
    problems += [f"node {i}: phase-0 nodes are alive and unlabelled"
                 for i, rec in state.nodes.items()
                 if isinstance(rec, NodeRecord) and (not rec.alive or rec.label is not None)]
    problems += [f"initial weight of edge {key} must be > 1, got {w}"
                 for key, w in state.edges.items() if isinstance(w, (int, float)) and w <= 1]
    if problems:
        raise InputError("invalid phase-0 state: " + "; ".join(problems))
    return ([float(state.nodes[i].mass) for i in range(1, len(state.nodes) + 1)],
            [(a, b, float(w)) for (a, b), w in sorted(state.edges.items())])


class Real(float):
    pass


class Pair(tuple):
    pass


class Record(NodeRecord):
    __slots__ = ()


def node_change(change):
    return lambda nodes, edges, at: nodes and change(nodes, edges, list(nodes)[at % len(nodes)])


def edge_change(change):
    return lambda nodes, edges, at: edges and change(nodes, edges, list(edges)[at % len(edges)])


# each changes, adds or removes one record of a phase-0 state's dicts: the
# node i, or the edge key, that the index ``at`` picks
CORRUPTIONS = [
    *(node_change(lambda nodes, edges, i, m=m: nodes.__setitem__(i, NodeRecord(m)))
      for m in (1.0, 2, math.nan, math.inf, True, Real(2.0), math.nextafter(1.0, 2.0))),
    *(node_change(lambda nodes, edges, i, rec=rec: nodes.__setitem__(i, rec))
      for rec in (NodeRecord(2.0, "x"), NodeRecord(2.0, 5), NodeRecord(2.0, None, False),
                  NodeRecord(2.0, None, 1), Record(2.0), 2.0)),
    *(node_change(lambda nodes, edges, i, k=k: nodes.__setitem__(k, nodes.pop(i)))
      for k in (0, True, 1.0, -1, "a", 99)),
    node_change(lambda nodes, edges, i: nodes.pop(i)),
    node_change(lambda nodes, edges, i: edges.__setitem__((i, len(nodes) + 1), 3.0)),
    lambda nodes, edges, at: nodes.__setitem__(len(nodes) + 2, NodeRecord(2.0)),
    *(edge_change(lambda nodes, edges, key, w=w: edges.__setitem__(key, w))
      for w in (1.0, 0.5, 3, math.nan, math.inf, True, "w", Real(3.0), EdgeRecord(1.0),
                EdgeRecord(math.nan), math.nextafter(1.0, 2.0))),
    *(edge_change(lambda nodes, edges, key, k=k: type(key) is tuple and len(key) == 2
                  and edges.__setitem__(k(*key), edges.pop(key)))
      for k in (lambda a, b: (b, a), lambda a, b: (a, a), lambda a, b: (a, 99),
                lambda a, b: (0, b), lambda a, b: (True, b), lambda a, b: (float(a), b),
                lambda a, b: (a, b, 1), lambda a, b: f"{a}-{b}", lambda a, b: Pair((a, b)))),
]


@st.composite
def graph_inputs(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    masses = draw(st.lists(st.floats(min_value=1.01, max_value=100),
                           min_size=n, max_size=n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = [
        (i, j, draw(st.floats(min_value=1.01, max_value=100)))
        for i, j in chosen
    ]
    return masses, weights


@settings(max_examples=400)
@given(graph_inputs(),
       st.lists(st.tuples(st.sampled_from(CORRUPTIONS), st.integers(0, 20)), max_size=3),
       st.sampled_from([0, 0, 1]), st.booleans())
def test_validation_gives_what_the_full_rules_give(inputs, corruptions, phase, records):
    # valid phase-0 states, with EdgeRecord or float weights, and the same
    # with up to three records corrupted, at phase 0 or 1
    masses, weights = inputs
    state = new_graph(masses, weights)
    nodes = dict(state.nodes)
    edges = {key: w if records else float(w) for key, w in state.edges.items()}
    for change, at in corruptions:
        change(nodes, edges, at)
    state = GraphState(phase, nodes, edges, state.params)
    assert validate_state(state) == full_validate_state(state)
    outcomes = []
    for check in (initial_inputs, full_initial_inputs):
        try:
            outcomes.append(check(state))
        except InputError as err:
            outcomes.append(str(err))
    assert outcomes[0] == outcomes[1]


@given(graph_inputs())
def test_construction_round_trips_inputs(inputs):
    """Building then querying returns every input exactly and validates clean."""
    masses, weights = inputs
    state = new_graph(masses, weights, KernelParams())
    assert validate_state(state) == []
    for idx, m in enumerate(masses):
        assert state.mass(idx + 1) == m
        assert state.alive(idx + 1)
    for i, j, w in weights:
        assert state.weight(i, j) == w
        assert state.weight(j, i) == w
    connected = {(min(i, j), max(i, j)) for i, j, _ in weights}
    n = len(masses)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and (min(i, j), max(i, j)) not in connected:
                assert state.weight(i, j) == 0.0
