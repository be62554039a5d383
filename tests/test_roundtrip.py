"""Write -> read round trips: scripts and histories come back exactly.

A script document must parse back to the same phase-0 state and events,
and an exported history must load back to states with the same
``state_digest`` at every phase. Loading replays the embedded script, so
a history whose numbers its script did not make does not load. A state
whose edges sit in another insertion order reads the same to every reader.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massgraph import (
    AddEdge,
    AddNode,
    EdgeRecord,
    GraphState,
    InputError,
    KernelParams,
    MassGraphError,
    NodeRecord,
    Prune,
    ScriptError,
    apply_event,
    canonical_json_bytes,
    export_dot,
    export_history_json,
    generate_scenario,
    load_history,
    metrics,
    new_graph,
    parse_script,
    run_script,
    script_document,
    state_digest,
    validate_state,
)
from massgraph.engine import prune_delta
from massgraph.graph import above_one, edge_key, initial_inputs, node_id, node_label
from massgraph.io import _compact, _history_pieces, _SnapshotWriter
from massgraph.kernel import as_float

from support import biting, configs, reconnecting


def assert_history_round_trips(initial, events, with_source=True):
    source = script_document(initial, events) if with_source else None
    history = run_script(initial, events, source=source)
    exported = export_history_json(history)
    loaded = load_history(exported)
    assert [state_digest(s) for s in loaded.snapshots] == \
           [state_digest(s) for s in history.snapshots]
    assert loaded.events == history.events
    assert loaded.prune_reports == history.prune_reports
    assert export_history_json(loaded) == exported


def test_worked_trace_history_round_trips():
    assert_history_round_trips(new_graph([2, 2], [(1, 2, 2)]),
                               [AddNode(3.0), AddEdge(1, 3, 2.0), Prune(3.6)])


def test_history_without_source_round_trips_its_kernel():
    assert_history_round_trips(new_graph([2, 2], [(1, 2, 2)], KernelParams(mu=0.5, sigma=2.0)),
                               [AddNode(3.0), AddEdge(1, 3, 2.0), Prune(3.6)],
                               with_source=False)


def masses_and_weights(doc) -> list[tuple[str, list | dict, int | str]]:
    """Where each mass and weight of a history document sits: the path of
    its snapshot or prune report, its container, and its key there."""
    places = []
    for p, snapshot in enumerate(doc["snapshots"]):
        places += [(f"snapshots[{p}]", node, "mass") for node in snapshot["nodes"]]
        places += [(f"snapshots[{p}]", edge, 2) for edge in snapshot["edges"]]
    for i, report in enumerate(doc["prune_reports"]):
        places += [(f"prune_reports[{i}]", edge, 2) for edge in report["removed_edges"]]
    return places


@settings(max_examples=60, deadline=None)
@given(configs, st.data())
def test_history_loads_only_as_its_script_made_it(config, data):
    exported = export_history_json(run_script(*generate_scenario(config)))
    assert export_history_json(load_history(exported)) == exported
    doc = json.loads(exported)
    places = masses_and_weights(doc)
    if not places:
        return
    path, container, key = data.draw(st.sampled_from(places))
    change = data.draw(st.sampled_from([lambda v: math.nextafter(v, math.inf),
                                        lambda v: math.nextafter(v, -math.inf),
                                        lambda v: v + 1.0]))
    container[key] = change(container[key])
    for text in (canonical_json_bytes(doc), json.dumps(doc, indent=1).encode()):
        with pytest.raises(ScriptError) as excinfo:
            load_history(text)
        assert excinfo.value.path == path


@settings(max_examples=60, deadline=None)
@given(configs)
def test_script_round_trips(config):
    initial, events = generate_scenario(config)
    parsed, parsed_events, params = parse_script(
        canonical_json_bytes(script_document(initial, events)))
    assert parsed_events == events
    assert params == initial.params
    assert state_digest(parsed) == state_digest(initial)


# fields as a caller may hand them over: mostly values the model takes, and
# ints for floats, bools, NaN, infinities, huge ints, strings and None
fields = st.one_of(
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.5, max_value=5.0),
    st.sampled_from([0, 5, 2**53 + 1, 10**400, 1.0, -0.0, math.nan, math.inf, -math.inf,
                     True, False, None, "5"]),
    st.floats(),
)
# an event kind and the fields a caller may build it from
any_fields = st.one_of(
    st.tuples(st.just(AddEdge), st.tuples(fields, fields, fields)),
    st.tuples(st.just(AddNode), st.tuples(fields, st.one_of(st.none(), st.text(max_size=2),
                                                            fields))),
    st.tuples(st.just(Prune), st.tuples(fields)),
)
any_events = st.lists(any_fields, max_size=4)


def as_the_model_takes(kind, *values):
    """An event of ``kind`` with ``values`` as the model's rules take them;
    raises what they raise for a value they refuse."""
    if kind is AddEdge:
        k, l, w = values
        k, l = node_id(k), node_id(l)
        edge_key(k, l)
        return AddEdge(k, l, above_one(w, "edge weight"))
    if kind is AddNode:
        mass, label = values
        return AddNode(above_one(mass, "node mass"), node_label(label))
    (threshold,) = values
    return Prune(as_float(threshold, "prune threshold"))


VALID = {AddEdge: AddEdge(1, 2, 2.0), AddNode: AddNode(2.0), Prune: Prune(2.0)}


@settings(max_examples=500, deadline=None)
@given(any_fields)
def test_an_event_checks_its_fields_where_it_is_built(drawn):
    # built directly or by replacing a valid event's fields, an event
    # refuses what the rules refuse, with their error, and holds what they
    # return
    kind, values = drawn
    changes = {field.name: value for field, value in zip(dataclasses.fields(kind), values)}
    builds = (lambda: kind(*values), lambda: dataclasses.replace(VALID[kind], **changes))
    try:
        expected = as_the_model_takes(kind, *values)
    except MassGraphError as err:
        for build in builds:
            with pytest.raises(MassGraphError) as excinfo:
                build()
            assert (type(excinfo.value), str(excinfo.value)) == (type(err), str(err))
        return
    for build in builds:
        assert repr(build()) == repr(expected)  # so 5 and 5.0, or 0.0 and -0.0, differ


@settings(max_examples=200, deadline=None)
@given(fields, fields, fields, any_events)
def test_a_script_document_reads_back_exactly_or_is_refused(mass1, mass2, weight, drawn):
    initial = GraphState(0, {1: NodeRecord(mass1), 2: NodeRecord(mass2)}, {(1, 2): weight})
    # the events that build; the rest are refused where they are built
    events, expected = [], []
    for kind, values in drawn:
        try:
            expected.append(as_the_model_takes(kind, *values))
        except MassGraphError as err:
            with pytest.raises(type(err)):
                kind(*values)
        else:
            events.append(kind(*values))
    try:
        expected_initial = new_graph([mass1, mass2], [(1, 2, weight)])
    except MassGraphError:
        with pytest.raises(InputError):
            script_document(initial, events)
        return
    data = canonical_json_bytes(script_document(initial, events))  # no ValueError either
    parsed_initial, parsed, _ = parse_script(data)
    assert parsed_initial == expected_initial
    assert repr(parsed_initial.nodes) == repr(expected_initial.nodes)
    assert parsed == expected
    assert repr(parsed) == repr(expected)  # so 5 and 5.0, or 0.0 and -0.0, differ


# each event kind's class and its fields' names in a script document
KINDS = {"add_edge": (AddEdge, "k", "l", "w"), "add_node": (AddNode, "mass", "label"),
         "prune": (Prune, "threshold")}


def built(record: dict):
    """The event a script document's ``record`` names, built from its fields
    as they are."""
    kind, *names = KINDS[record["type"]]
    return kind(*(record.get(name) for name in names))


@pytest.mark.parametrize("initial,events,where", [
    (new_graph([2, 2], []), [{"type": "add_node", "mass": 3.0, "label": 5}], "events[0]"),
    (new_graph([2, 2], []), [{"type": "add_edge", "k": True, "l": 2, "w": 5.0}], "events[0]"),
    (new_graph([2, 2], []), [{"type": "add_edge", "k": 1, "l": 1, "w": 5.0}], "events[0]"),
    (new_graph([2, 2], []), [{"type": "add_edge", "k": 1, "l": 2, "w": 0.5}], "events[0]"),
    (new_graph([2, 2], []), [{"type": "add_node", "mass": 3.0},
                             {"type": "add_edge", "k": 1, "l": 2, "w": math.nan}], "events[1]"),
    (new_graph([2, 2], []), [{"type": "prune", "threshold": math.inf}], "events[0]"),
    (new_graph([2, 2], []), [{"type": "add_edge", "k": 1, "l": 2, "w": "5"}], "events[0]"),
    (GraphState(0, {1: NodeRecord(0.5), 2: NodeRecord(3.0)}), [], "phase-0 state"),
    (GraphState(0, {1: NodeRecord(2.0), 2: NodeRecord(3.0)}, {(2, 1): 2.0}), [],
     "phase-0 state: edge keyed (2, 1) is not stored in canonical (low, high) form"),
])
def test_a_script_document_refuses_what_parse_script_refuses(initial, events, where):
    # an event refuses a field where it is built, and script_document a
    # phase-0 state; parse_script refuses each at the same place
    made = []
    with pytest.raises(MassGraphError) as excinfo:
        for record in events:
            made.append(built(record))
        script_document(initial, made)
    if not events:
        assert isinstance(excinfo.value, InputError) and where in str(excinfo.value)
        return
    assert where == f"events[{len(made)}]"
    with pytest.raises(ScriptError) as parsed:
        parse_script(json.dumps({**script_document(initial, []), "events": events}).encode())
    assert re.match(re.escape(where) + r"(\.|$)", parsed.value.path)


# phase-0 states as a caller may build them by hand: masses and weights near
# 1 (ints included), and now and then a flaw or two: an id that is a bool, a
# float or out of 1..n, a label, a dead node, alive=1, an edge keyed (high,
# low), or a later phase
near_one = st.one_of(st.sampled_from([0.5, 1, 1.0, math.nextafter(1.0, 2.0), 2, 5.0]),
                     st.floats(min_value=1.0, max_value=3.0))


@st.composite
def hand_built_states(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    nodes = {i: NodeRecord(draw(near_one)) for i in range(1, n + 1)}
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(nodes, 2))),
                          unique=True)) if n > 1 else []
    edges = {pair: draw(st.one_of(near_one, st.builds(EdgeRecord, near_one))) for pair in pairs}
    phase, params = 0, KernelParams()
    for flaw in draw(st.sets(st.sampled_from(["id", "label", "dead", "alive", "key", "phase",
                                              "params"]), max_size=2)):
        if flaw == "phase":
            phase = 1
        elif flaw == "params":
            params = draw(st.sampled_from(["x", {"mu": 0}, None]))
        elif flaw == "key" and edges:
            (a, b), w = edges.popitem()
            edges[b, a] = w
        elif nodes:
            i = draw(st.sampled_from(sorted(nodes)))
            if flaw == "id":
                new = draw(st.sampled_from([True, 1.0, 2.0, 0, n + 1]))
                nodes = {new if j == i else j: rec for j, rec in nodes.items()}
            elif flaw == "label":
                nodes[i] = NodeRecord(nodes[i].mass, label="x")
            else:
                nodes[i] = NodeRecord(nodes[i].mass, alive=False if flaw == "dead" else 1)
    return GraphState(phase, nodes, edges, params)


def refuses(call, *args) -> bool:
    try:
        call(*args)
    except InputError:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(hand_built_states())
def test_a_run_and_a_script_document_refuse_the_same_phase_0_states(state):
    refused = refuses(run_script, state, [])
    assert refuses(script_document, state, []) == refused
    if not refused:
        assert new_graph(*initial_inputs(state), state.params) == state
        assert parse_script(canonical_json_bytes(script_document(state, [])))[0] == state


@pytest.mark.parametrize("nodes", [
    {1: NodeRecord(2.0, label="x"), 2: NodeRecord(3.0)},
    {1: NodeRecord(2.0), 2: NodeRecord(3.0, alive=False)},
    {1: NodeRecord(2.0), 3: NodeRecord(3.0)},
], ids=["labelled", "dead", "ids-1-and-3"])
def test_a_run_refuses_a_state_no_script_can_hold(nodes):
    # such a run used to go ahead, and only its export refused it
    with pytest.raises(InputError, match="invalid phase-0 state"):
        run_script(GraphState(0, nodes), [])


@pytest.mark.parametrize("nodes", [
    {True: NodeRecord(2.0), 2: NodeRecord(3.0)},
    {1: NodeRecord(2.0, alive=1), 2: NodeRecord(3.0)},
], ids=["bool-id", "alive-as-1"])
def test_a_script_document_refuses_a_state_no_run_starts_from(nodes):
    state = GraphState(0, nodes)
    with pytest.raises(InputError):
        run_script(state, [])
    with pytest.raises(InputError, match="invalid phase-0 state"):
        script_document(state, [])


def test_a_run_refuses_a_phase_0_weight_of_at_most_one_before_settlement():
    state = GraphState(0, {1: NodeRecord(2.0), 2: NodeRecord(3.0)}, {(1, 2): EdgeRecord(0.5)})
    for call in (run_script, script_document):
        with pytest.raises(InputError, match=re.escape("edge (1, 2) must be > 1, got 0.5")):
            call(state, [])


def test_a_script_document_writes_each_number_as_parsing_reads_it():
    initial = GraphState(0, {1: NodeRecord(2), 2: NodeRecord(3.0)}, {(1, 2): 4})
    events = [AddEdge(1, 2, 5), AddNode(3, label="x"), Prune(2)]
    doc = script_document(initial, events)
    assert doc["initial"] == {"masses": [2.0, 3.0], "edges": [[1, 2, 4.0]]}
    assert canonical_json_bytes(doc["events"]) == \
        b'[{"k":1,"l":2,"type":"add_edge","w":5.0},{"label":"x","mass":3.0,"type":"add_node"},' \
        b'{"threshold":2.0,"type":"prune"}]\n'
    state, parsed, _ = parse_script(canonical_json_bytes(doc))
    assert repr(parsed) == repr([AddEdge(1, 2, 5.0), AddNode(3.0, label="x"), Prune(2.0)])
    assert state == new_graph([2.0, 3.0], [(1, 2, 4.0)])


@settings(max_examples=60, deadline=None)
@given(biting)
def test_no_reader_depends_on_the_order_of_the_edge_dict(config):
    # a prune leaves its survivors in place, unsorted: every reader that
    # needs ascending pairs must sort for itself
    history = run_script(*generate_scenario(config))
    prune = Prune(config.prune_threshold)
    for state in history.snapshots:
        flipped = GraphState(state.phase, state.nodes, dict(reversed(state.edges.items())),
                             state.params)
        assert state_digest(flipped) == state_digest(state)
        assert export_dot(flipped) == export_dot(state)
        assert metrics(flipped, 3) == metrics(state, 3)
        assert validate_state(flipped) == validate_state(state) == []
        assert prune_delta(flipped, prune) == prune_delta(state, prune)
        free = [pair for pair in itertools.combinations(state.alive_ids(), 2)
                if pair not in state.edges]
        if state.phase >= 1 and free:
            event = AddEdge(*free[len(free) // 2], 2.5)
            after, _ = apply_event(state, event)
            flipped_after, _ = apply_event(flipped, event)
            assert flipped_after == after
            assert state_digest(flipped_after) == state_digest(after)


@st.composite
def labelled(draw):
    """A biting scenario whose added nodes carry drawn labels."""
    initial, events = generate_scenario(draw(biting))
    return initial, [AddNode(event.initial_mass, label=draw(st.none() | st.text()))
                     if isinstance(event, AddNode) else event for event in events]


def snapshot_dict(state) -> dict:
    """A snapshot as the dict whose compact encoding its text must be."""
    nodes = []
    for i in sorted(state.nodes):
        rec = state.nodes[i]
        entry = {"id": i, "mass": float(rec.mass), "alive": rec.alive}
        if rec.label is not None:
            entry["label"] = rec.label
        nodes.append(entry)
    edges = [[a, b, float(edge.weight)] for (a, b), edge in sorted(state.edges.items())]
    return {"phase": state.phase, "nodes": nodes, "edges": edges}


def dict_layout(history) -> bytes:
    """The history document built as dicts, then encoded whole: the layout
    the text writer must reproduce byte for byte."""
    return canonical_json_bytes({
        "script": script_document(history.snapshots[0], history.events),
        "snapshots": [snapshot_dict(state) for state in history.snapshots],
        "prune_reports": [{"threshold": float(report.threshold),
                           "removed_edges": [[a, b, float(w)]
                                             for (a, b), w in report.removed_edges],
                           "removed_nodes": list(report.removed_nodes)}
                          for report in history.prune_reports],
    })


def reversed_keys(value):
    if isinstance(value, dict):
        return {name: reversed_keys(value[name]) for name in reversed(value)}
    if isinstance(value, list):
        return [reversed_keys(item) for item in value]
    return value


@settings(max_examples=60, deadline=None)
@given(labelled(), st.data())
def test_the_text_writer_reproduces_the_dict_layout(scenario, data):
    history = run_script(*scenario)
    exported = export_history_json(history)
    assert exported == dict_layout(history)
    digests = [state_digest(state) for state in history.snapshots]
    doc = json.loads(exported)
    # value-equal but not canonical: each is decoded and its re-encoding compared
    for variant in (json.dumps(doc, indent=1).encode(),
                    exported + b" ",
                    exported.replace(b',"phase":', b',"phase": ', 1),
                    json.dumps(reversed_keys(doc), separators=(",", ":")).encode()):
        assert [state_digest(state) for state in load_history(variant).snapshots] == digests
    places = [place for place in masses_and_weights(doc) if place[0].startswith("snapshots")]
    if not places:
        return
    path, container, key = data.draw(st.sampled_from(places))
    container[key] = math.nextafter(container[key], data.draw(st.sampled_from([-1, 1])) * math.inf)
    with pytest.raises(ScriptError) as excinfo:
        load_history(canonical_json_bytes(doc))
    assert excinfo.value.path == path


def reconnects_a_pruned_pair(history) -> bool:
    """Whether an edge event connects a pair that an earlier prune removed."""
    pruned, reports = set(), iter(history.prune_reports)
    for event in history.events:
        if isinstance(event, Prune):
            pruned.update(key for key, _ in next(reports).removed_edges)
        elif isinstance(event, AddEdge) and edge_key(event.k, event.l) in pruned:
            return True
    return False


def with_reconnection(scenario) -> tuple:
    """``scenario``, then a tail that connects a pruned pair again: three
    new nodes a, b and c, a light edge a-b, heavy edges a-c and b-c, a prune
    between their weights (about 5.9 against above 52 once the tail's
    shifts are in), which removes a-b and keeps a and b alive, then a-b."""
    initial, events = scenario
    a = len(initial.nodes) + sum(isinstance(event, AddNode) for event in events) + 1
    b, c = a + 1, a + 2
    return initial, [*events, AddNode(2.0), AddNode(2.0), AddNode(2.0), AddEdge(a, b, 1.5),
                     AddEdge(a, c, 50.0), AddEdge(b, c, 50.0), Prune(20.0), AddEdge(a, b, 1.5)]


def written_snapshots(history) -> list[bytes]:
    """Each snapshot's text as the history's own writer gives it."""
    return [piece.lstrip(b",") for path, piece in _history_pieces(history)
            if path.startswith("snapshots[")]


@settings(max_examples=60, deadline=None)
@given(reconnecting.map(generate_scenario).map(with_reconnection))
def test_the_writer_rewrites_what_each_phase_wrote_through_prunes_and_reconnections(scenario):
    # the writer keeps each array's keys in order across phases: a pair a
    # prune removed must leave it, and rejoin it in its place when it is
    # connected again; the run starts from a phase-0 state whose dicts run
    # in descending order, which must still write ascending arrays
    initial, events = scenario
    descending = GraphState(0, dict(reversed(initial.nodes.items())),
                            dict(reversed(initial.edges.items())), initial.params)
    assert list(descending.nodes) == sorted(initial.nodes, reverse=True)
    history = run_script(descending, events)
    assert reconnects_a_pruned_pair(history)
    states = list(history.states())
    texts = written_snapshots(history)
    assert texts == [_compact(snapshot_dict(state)) for state in states]
    assert texts == [_SnapshotWriter().text(state) for state in states]  # each alone
    params = f"[{initial.params.mu!r},{initial.params.sigma!r}]".encode()
    digests = [hashlib.sha256(text + params).hexdigest() for text in texts]
    assert [state_digest(state) for state in states] == digests
    exported = export_history_json(history)
    assert exported == export_history_json(run_script(initial, events))
    assert [state_digest(state) for state in history.snapshots] == digests
    assert export_history_json(history) == exported  # by the records, once the list is built


def test_a_number_that_is_not_finite_hashes_but_does_not_export():
    history = run_script(new_graph([2, 2], [(1, 2, 2)]), [])
    settled = history.snapshots[1]
    broken = GraphState(1, settled.nodes, {(1, 2): EdgeRecord(math.inf)}, settled.params)
    history.snapshots[1] = broken
    with pytest.raises(ValueError):
        export_history_json(history)
    assert re.fullmatch("[0-9a-f]{64}", state_digest(broken))


@settings(max_examples=60, deadline=None)
@given(biting, st.integers(min_value=0, max_value=30))
def test_states_yields_the_snapshots_and_keeps_what_it_yielded(config, stop):
    history = run_script(*generate_scenario(config))
    yielded, digests = [], []
    for state in history.states():
        yielded.append(state)
        digests.append(state_digest(state))  # as it was when yielded
    assert [state_digest(s) for s in yielded] == digests
    assert list(history.states()) == yielded  # a second pass folds afresh
    assert [s.phase for s in yielded] == list(range(history.final.phase + 1))
    assert yielded[-1] is history.final
    # a pass under way when the list is built goes on as it began
    partway = history.states()
    head = [next(partway) for _ in range(min(stop, len(yielded)))]
    assert history.snapshots == yielded
    assert head + list(partway) == yielded
    assert all(a is b for a, b in zip(history.states(), history.snapshots))
