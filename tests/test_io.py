"""Script parsing, canonical export, history round-trips, DOT rendering.

Golden files under tests/golden/ were pinned after the underlying values
had been verified against the independent dense-matrix reference; these
tests assert byte equality so any formatting drift is caught.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

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
    PhaseHistory,
    Prune,
    ScenarioConfig,
    ScriptError,
    apply_event,
    canonical_json_bytes,
    export_dot,
    export_history_json,
    generate_scenario,
    load_history,
    new_graph,
    parse_script,
    run_script,
    script_document,
    settle_phase_one,
    state_digest,
)
from massgraph.engine import EdgeStep, _written
from massgraph.io import _history_pieces, _parse_event, _SnapshotWriter

GOLDEN = Path(__file__).parent / "golden"

MINIMAL = {
    "version": 1,
    "kernel": {"mu": 0, "sigma": 1},
    "initial": {"masses": [2, 2], "edges": [[1, 2, 2]]},
    "events": [],
}


def doc_bytes(doc) -> bytes:
    return json.dumps(doc).encode("utf-8")


def seed42_history_bytes() -> bytes:
    config = ScenarioConfig(seed=42, n_initial=5, n_phases=22,
                            event_mix=(0.7, 0.25, 0.05))
    initial, events = generate_scenario(config)
    history = run_script(initial, events, source=script_document(initial, events))
    return export_history_json(history)


class TestParseScript:
    def test_minimal_document(self):
        state, events, params = parse_script(doc_bytes(MINIMAL))
        assert state.phase == 0
        assert state.node_ids() == [1, 2]
        assert state.weight(1, 2) == 2.0
        assert events == []
        assert params == KernelParams(mu=0.0, sigma=1.0)

    def test_all_event_kinds(self):
        doc = dict(MINIMAL)
        doc["events"] = [
            {"type": "add_node", "mass": 3.0, "label": "x"},
            {"type": "add_edge", "k": 1, "l": 3, "w": 2.0},
            {"type": "prune", "threshold": 3.6},
        ]
        _, events, _ = parse_script(doc_bytes(doc))
        assert events == [AddNode(3.0, label="x"), AddEdge(1, 3, 2.0), Prune(3.6)]

    def test_diagonal_initial_edge_has_path(self):
        doc = dict(MINIMAL)
        doc["initial"] = {"masses": [2, 2], "edges": [[1, 1, 2]]}
        with pytest.raises(ScriptError) as excinfo:
            parse_script(doc_bytes(doc))
        assert excinfo.value.path == "initial.edges[0]"

    def test_low_event_weight_has_path(self):
        doc = dict(MINIMAL)
        doc["events"] = [{"type": "add_edge", "k": 1, "l": 2, "w": 0.5}]
        with pytest.raises(ScriptError) as excinfo:
            parse_script(doc_bytes(doc))
        assert excinfo.value.path == "events[0].w"

    def test_low_mass_has_path(self):
        doc = dict(MINIMAL)
        doc["initial"] = {"masses": [2, 1], "edges": []}
        with pytest.raises(ScriptError) as excinfo:
            parse_script(doc_bytes(doc))
        assert excinfo.value.path == "initial.masses[1]"

    def test_unknown_field_rejected(self):
        doc = dict(MINIMAL)
        doc["extra"] = 1
        with pytest.raises(ScriptError) as excinfo:
            parse_script(doc_bytes(doc))
        assert excinfo.value.path == "$.extra"

    def test_unknown_event_field_rejected(self):
        doc = dict(MINIMAL)
        doc["events"] = [{"type": "prune", "threshold": 1.0, "thresold": 2.0}]
        with pytest.raises(ScriptError) as excinfo:
            parse_script(doc_bytes(doc))
        assert excinfo.value.path == "events[0].thresold"

    def test_unknown_event_type(self):
        doc = dict(MINIMAL)
        doc["events"] = [{"type": "add_hyperedge"}]
        with pytest.raises(ScriptError) as excinfo:
            parse_script(doc_bytes(doc))
        assert excinfo.value.path == "events[0].type"

    def test_wrong_version(self):
        doc = dict(MINIMAL)
        doc["version"] = 2
        with pytest.raises(ScriptError) as excinfo:
            parse_script(doc_bytes(doc))
        assert excinfo.value.path == "version"

    def test_bad_json_reports_position(self):
        with pytest.raises(ScriptError) as excinfo:
            parse_script(b'{"version": 1,,}')
        assert excinfo.value.line == 1
        assert excinfo.value.column is not None

    def test_not_utf8(self):
        with pytest.raises(ScriptError, match="UTF-8"):
            parse_script(b"\xff\xfe{}")

    @pytest.mark.parametrize("entry", [parse_script, load_history])
    def test_text_is_not_a_document(self, entry):
        with pytest.raises(ScriptError, match="got str"):
            entry("{}")

    @pytest.mark.parametrize("entry", [parse_script, load_history])
    def test_nesting_beyond_the_recursion_limit(self, entry):
        with pytest.raises(ScriptError, match="invalid JSON: maximum recursion depth"):
            entry(b"[" * 100000)

    def test_integer_literal_beyond_the_digit_limit(self):
        with pytest.raises(ScriptError, match="invalid JSON"):
            parse_script(b"[" + b"1" * 5000 + b"]")

    def test_booleans_are_not_numbers(self):
        doc = dict(MINIMAL)
        doc["initial"] = {"masses": [2, True], "edges": []}
        with pytest.raises(ScriptError) as excinfo:
            parse_script(doc_bytes(doc))
        assert excinfo.value.path == "initial.masses[1]"

    def test_duplicate_initial_pair(self):
        doc = dict(MINIMAL)
        doc["initial"] = {"masses": [2, 2], "edges": [[1, 2, 2], [2, 1, 3]]}
        with pytest.raises(ScriptError) as excinfo:
            parse_script(doc_bytes(doc))
        assert excinfo.value.path == "initial.edges[1]"

    def test_sigma_constraint_has_path(self):
        doc = dict(MINIMAL)
        doc["kernel"] = {"mu": 0, "sigma": 0}
        with pytest.raises(ScriptError) as excinfo:
            parse_script(doc_bytes(doc))
        assert excinfo.value.path == "kernel.sigma"

    @pytest.mark.parametrize("initial,events,path", [
        ({"masses": [2, 10**400], "edges": []}, [], "initial.masses[1]"),
        ({"masses": [2, 2], "edges": [[1, 2, 1]]}, [], "initial.edges[0][2]"),
        ({"masses": [2, 2], "edges": [[1, 3, 2]]}, [], "initial.edges[0][1]"),
        ({"masses": [2, 2], "edges": []},
         [{"type": "add_edge", "k": 2, "l": 2, "w": 2}], "events[0]"),
        ({"masses": [2, 2], "edges": []},
         [{"type": "add_node", "mass": 10**400}], "events[0].mass"),
        # json.dumps writes NaN, Infinity and -Infinity, which json.loads reads
        ({"masses": [2, 2], "edges": [[1, 2, math.inf]]}, [], "initial.edges[0][2]"),
        ({"masses": [2, 2], "edges": []},
         [{"type": "add_edge", "k": 1, "l": 2, "w": -math.inf}], "events[0].w"),
        ({"masses": [2, 2], "edges": []},
         [{"type": "prune", "threshold": math.nan}], "events[0].threshold"),
        ({"masses": [2, 2], "edges": []},
         [{"type": "add_edge", "k": True, "l": 2, "w": 2}], "events[0].k"),
        ({"masses": [2, 2], "edges": [[1.0, 2, 2]]}, [], "initial.edges[0][0]"),
    ])
    def test_model_rules_carry_their_path(self, initial, events, path):
        doc = {**MINIMAL, "initial": initial, "events": events}
        with pytest.raises(ScriptError) as excinfo:
            parse_script(doc_bytes(doc))
        assert excinfo.value.path == path

    @pytest.mark.parametrize("changes,path", [
        ({"kernel": {"mu": math.nan, "sigma": 1}}, "kernel.mu"),
        ({"kernel": {"mu": 0, "sigma": math.inf}}, "kernel.sigma"),
        ({"version": 1.0}, "version"),
    ])
    def test_header_numbers_carry_their_path(self, changes, path):
        with pytest.raises(ScriptError) as excinfo:
            parse_script(doc_bytes({**MINIMAL, **changes}))
        assert excinfo.value.path == path

    def test_out_of_range_endpoint_names_the_pair(self):
        doc = {**MINIMAL, "initial": {"masses": [2, 2], "edges": [[1, 3, 2]]}}
        with pytest.raises(ScriptError, match=r"edge \(1, 3\) references node 3"):
            parse_script(doc_bytes(doc))


class CheckedOnly(dict):
    """An event object that parsing's shortcut declines, since it admits
    objects whose type is exactly dict: it takes the checked path."""


# JSON values for an event's fields: ints for floats, bools, NaN,
# infinities, huge ints, strings and null, besides values the model takes
json_values = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.5, max_value=4.0),
    st.sampled_from([1.0, -0.0, math.nan, math.inf, -math.inf, 10**400, -10**400, True, False,
                     None, "2", "", [1]]),
    st.integers(),
    st.floats(),
    st.text(max_size=2),
)


def field_values(valid, near):
    """``valid`` five times in eight, ``near`` misses twice, and any of
    ``json_values`` once."""
    return st.integers(min_value=0, max_value=7).flatmap(
        lambda pick: json_values if pick == 0 else near if pick < 3 else valid)


ids = field_values(st.integers(min_value=1, max_value=3),
                   st.sampled_from([0, -1, 1.0, 2.0, True, 10**400, "1", None]))
numbers = field_values(st.floats(min_value=1.0, max_value=4.0), st.one_of(
    st.integers(min_value=-1, max_value=5),
    st.sampled_from([1.0, -0.0, math.nan, math.inf, -math.inf, 10**400, True, "2", None])))
labels = field_values(st.text(max_size=2), st.sampled_from([None, 1, True]))
EVENT_FIELDS = {"add_edge": {"k": ids, "l": ids, "w": numbers},
                "add_node": {"mass": numbers, "label": labels},
                "prune": {"threshold": numbers}}


@st.composite
def event_objects(draw):
    """An event object of each kind that may miss a field or carry one more,
    or a JSON value of another shape."""
    kind = draw(st.sampled_from([*EVENT_FIELDS, None]))
    if kind is None:
        return draw(st.one_of(json_values, st.dictionaries(
            st.sampled_from(["type", "k", "l", "w", "mass"]), json_values, max_size=4)))
    raw = {"type": kind}
    for name, values in EVENT_FIELDS[kind].items():
        if draw(st.integers(min_value=0, max_value=7)):  # one in eight is missing
            raw[name] = draw(values)
    if not draw(st.integers(min_value=0, max_value=3)):  # one in four has one more
        others = [name for name in ("k", "w", "mass", "label", "threshold", "thresold")
                  if name not in EVENT_FIELDS[kind]]
        raw[draw(st.sampled_from(others))] = draw(json_values)
    return raw


@settings(max_examples=1000, deadline=None)
@given(event_objects())
def test_the_shortcut_agrees_with_the_checked_path(raw):
    data = doc_bytes({**MINIMAL, "events": [raw]})
    raw = json.loads(data)["events"][0]  # as parsing decodes it
    try:
        checked = _parse_event(CheckedOnly(raw) if isinstance(raw, dict) else raw, 0)
    except ScriptError as err:
        with pytest.raises(ScriptError) as excinfo:
            parse_script(data)
        assert (excinfo.value.path, str(excinfo.value)) == (err.path, str(err))
    else:
        _, events, _ = parse_script(data)
        assert events == [checked]
        assert repr(events) == repr([checked])  # so 5 and 5.0, or 0.0 and -0.0, differ


@st.composite
def initial_objects(draw):
    """An ``initial`` object whose masses and edges are arrays of JSON values,
    mostly near the model's: masses that are all valid half the time, and
    edge entries of two ids and a weight, of another length, or of another
    shape."""
    masses = st.one_of(st.lists(st.floats(min_value=1.5, max_value=4.0), max_size=4),
                       st.lists(numbers, max_size=4))
    entries = field_values(st.tuples(ids, ids, numbers).map(list),
                           st.lists(st.one_of(ids, numbers), max_size=4))
    return {"masses": draw(masses), "edges": draw(st.lists(entries, max_size=4))}


@settings(max_examples=1000, deadline=None)
@given(initial_objects())
def test_the_initial_state_is_refused_where_new_graph_refuses_it(initial):
    data = doc_bytes({**MINIMAL, "initial": initial})
    decoded = json.loads(data)["initial"]  # as parsing decodes it
    try:
        built = new_graph(decoded["masses"], decoded["edges"])
    except MassGraphError as err:
        with pytest.raises(ScriptError) as excinfo:
            parse_script(data)
        path = f"initial.{err.path}"
        assert (excinfo.value.path, str(excinfo.value)) == (path, f"{path}: {err}")
    else:
        state, _, _ = parse_script(data)
        assert state == built
        assert repr(state) == repr(built)


class TestRenderRoundTrip:
    def test_parse_of_render_is_identity(self):
        state = new_graph([2.5, 3.25, 7.0], [(1, 2, 2.5), (2, 3, 99.0)],
                          KernelParams(mu=0.25, sigma=1.5))
        events = [AddNode(3.0, label="x"), AddEdge(1, 4, 2.0), Prune(0.5)]
        doc = script_document(state, events)
        state2, events2, params2 = parse_script(canonical_json_bytes(doc))
        assert state2 == state
        assert events2 == events
        assert params2 == state.params

    def test_generated_scenario_round_trips(self):
        config = ScenarioConfig(seed=9, n_initial=4, n_phases=9,
                                event_mix=(0.5, 0.3, 0.2), prune_threshold=2.5)
        initial, events = generate_scenario(config)
        doc = script_document(initial, events)
        state2, events2, _ = parse_script(canonical_json_bytes(doc))
        assert state2 == initial
        assert events2 == events

    def test_rejects_settled_state(self):
        state = settle_phase_one(new_graph([2, 2], []))
        with pytest.raises(InputError):
            script_document(state, [])

    @pytest.mark.parametrize("record", [NodeRecord(2.0, label="x"),
                                        NodeRecord(2.0, alive=False)])
    def test_rejects_nodes_a_script_cannot_hold(self, record):
        with pytest.raises(InputError):
            script_document(GraphState(phase=0, nodes={1: record}), [])


class TestHistoryExport:
    def test_canonical_bytes_are_stable(self):
        state, events, _ = parse_script(doc_bytes(MINIMAL))
        a = export_history_json(run_script(state, events, source=MINIMAL))
        b = export_history_json(run_script(state, events, source=MINIMAL))
        assert a == b

    def test_golden_empty_events(self):
        state, events, _ = parse_script(doc_bytes(MINIMAL))
        doc = script_document(state, events)
        data = export_history_json(run_script(state, events, source=doc))
        assert data == (GOLDEN / "history_empty_events.json").read_bytes()

    def test_golden_worked_trace(self):
        state, _, _ = parse_script(doc_bytes(MINIMAL))
        events = [AddNode(3.0), AddEdge(1, 3, 2.0), Prune(3.6)]
        doc = script_document(state, events)
        data = export_history_json(run_script(state, events, source=doc))
        assert data == (GOLDEN / "history_worked_trace.json").read_bytes()

    def test_golden_seed42_scenario(self):
        assert seed42_history_bytes() == (GOLDEN / "history_seed42.json").read_bytes()

    def test_load_round_trip(self):
        state, _, _ = parse_script(doc_bytes(MINIMAL))
        events = [AddNode(3.0), AddEdge(1, 3, 2.0), Prune(3.6)]
        doc = script_document(state, events)
        exported = export_history_json(run_script(state, events, source=doc))
        loaded = load_history(exported)
        assert [s.phase for s in loaded.snapshots] == [0, 1, 2, 3, 4]
        assert loaded.events == events
        assert loaded.prune_reports[0].removed_nodes == (2,)
        final = loaded.snapshots[-1]
        assert final.alive_ids() == [1, 3]
        # masses and weights survive the round trip bit-for-bit
        original = run_script(state, events).final
        for i in original.node_ids():
            assert final.mass(i) == original.mass(i)
        for key, edge in original.edges.items():
            assert final.edges[key].weight == edge.weight
        assert export_history_json(loaded) == exported

    def test_a_run_of_an_event_iterator_round_trips(self):
        state, _, _ = parse_script(doc_bytes(MINIMAL))
        events = [AddNode(3.0), AddEdge(1, 3, 2.0), Prune(3.6)]
        history = run_script(state, iter(events))
        assert history.events == events
        exported = export_history_json(history)
        assert exported == export_history_json(run_script(state, events))
        assert load_history(exported).events == events

    def test_load_rejects_misnumbered_phases(self):
        state, events, _ = parse_script(doc_bytes(MINIMAL))
        exported = export_history_json(run_script(state, events))
        doc = json.loads(exported)
        doc["snapshots"][1]["phase"] = 5
        with pytest.raises(ScriptError) as excinfo:
            load_history(canonical_json_bytes(doc))
        assert excinfo.value.path == "snapshots[1]"

    def test_load_refuses_bytes_after_a_canonical_export(self):
        state, events, _ = parse_script(doc_bytes(MINIMAL))
        exported = export_history_json(run_script(state, events))
        with pytest.raises(ScriptError) as excinfo:
            load_history(exported + b"]")
        assert excinfo.value.line == 2

    def test_export_rejects_a_foreign_source(self):
        # refused by the run, before settlement, not later by the export
        state, events, _ = parse_script(doc_bytes(MINIMAL))
        other = {**MINIMAL, "kernel": {"mu": 0.5, "sigma": 1}}
        with pytest.raises(InputError, match="source"):
            run_script(state, events, source=other)

    def test_digest_covers_non_finite_states(self):
        nodes = {1: NodeRecord(2.0), 2: NodeRecord(2.0)}
        finite = GraphState(phase=1, nodes=nodes, edges={(1, 2): EdgeRecord(2.0)})
        broken = GraphState(phase=1, nodes=nodes, edges={(1, 2): EdgeRecord(math.inf)})
        assert len(state_digest(broken)) == 64
        assert state_digest(broken) != state_digest(finite)

    @pytest.mark.parametrize("corrupt,path", [
        (lambda doc: doc.update(script=None), "script"),
        (lambda doc: doc["snapshots"].pop(), "snapshots[4]"),
        (lambda doc: doc["snapshots"][0]["nodes"][0].update(mass=2.5), "snapshots[0]"),
        (lambda doc: doc["prune_reports"].clear(), "prune_reports[0]"),
        # an extra entry: the array's tail is not where the run ends it
        pytest.param(lambda doc: doc["snapshots"].append(doc["snapshots"][-1]), "snapshots",
                     id="snapshot-appended"),
        pytest.param(lambda doc: doc["prune_reports"].append(doc["prune_reports"][0]),
                     "prune_reports", id="report-appended"),
        # the first entry that differs in file order
        pytest.param(lambda doc: (doc["snapshots"][1].update(phase=5),
                                  doc["prune_reports"][0].update(threshold=99.0)),
                     "prune_reports[0]", id="report-and-snapshot-changed"),
        pytest.param(lambda doc: doc["snapshots"][3]["nodes"][0].update(
            mass=doc["snapshots"][3]["nodes"][0]["mass"] + 1), "snapshots[3]", id="mass-raised"),
        pytest.param(lambda doc: doc["prune_reports"][0].update(threshold=99.0, removed_nodes=[1]),
                     "prune_reports[0]", id="prune-report-rewritten"),
        pytest.param(lambda doc: doc["snapshots"][4].update(nodes=[], edges=[]),
                     "snapshots[4]", id="final-snapshot-emptied"),
        # nodes 1 and 2 are connected since phase 0, so the script's run fails
        pytest.param(lambda doc: doc["script"]["events"][1].update(l=2), "script",
                     id="script-run-fails"),
        # values the writer never writes, equal to its own only in Python
        pytest.param(lambda doc: doc["snapshots"][1]["nodes"][0].update(alive=1),
                     "snapshots[1]", id="alive-as-1"),
        pytest.param(lambda doc: doc["snapshots"][2]["nodes"][0].update(id=1.0),
                     "snapshots[2]", id="id-as-1.0"),
        pytest.param(lambda doc: doc["script"]["kernel"].update(sigma=1), "script",
                     id="sigma-as-int"),
    ])
    def test_load_rejects_a_history_its_script_did_not_make(self, corrupt, path):
        state, _, _ = parse_script(doc_bytes(MINIMAL))
        events = [AddNode(3.0), AddEdge(1, 3, 2.0), Prune(3.6)]
        doc = json.loads(export_history_json(run_script(state, events)))
        corrupt(doc)
        with pytest.raises(ScriptError) as excinfo:
            load_history(canonical_json_bytes(doc))
        assert excinfo.value.path == path

    def test_a_failing_load_folds_the_run_once_per_compare(self, monkeypatch):
        # the compare that fails names the path: no further pass over the states
        state, _, _ = parse_script(doc_bytes(MINIMAL))
        events = [AddNode(3.0), AddEdge(1, 3, 2.0), Prune(3.6)]
        doc = json.loads(export_history_json(run_script(state, events)))
        doc["snapshots"][3]["nodes"][0]["mass"] += 1
        tampered = canonical_json_bytes(doc)
        real = PhaseHistory._folds
        calls = []

        def counted(history, *args):
            calls.append(history)
            return real(history, *args)

        monkeypatch.setattr(PhaseHistory, "_folds", counted)
        files = {  # each with its count of folds: one per compare
            "canonical": (tampered, 1),
            "indented": (json.dumps(doc, indent=1).encode(), 1),
            "spaced": (tampered[:-2] + b" }\n", 2),  # its bytes, then its re-encoding
        }
        for name, (text, folds) in files.items():
            calls.clear()
            with pytest.raises(ScriptError) as excinfo:
                load_history(text)
            assert excinfo.value.path == "snapshots[3]", name
            assert len(calls) == folds, name

    def test_each_phase_renders_only_what_its_delta_wrote(self, monkeypatch):
        # a count, not a time: after phase 0, a phase renders the node ids
        # and the distinct edge keys its delta wrote, as the engine names
        # them (an edge step's keys checked here against the state's own
        # edges, not the index it holds), never the other N + E records
        config = ScenarioConfig(seed=5, n_initial=20, mass_range=(1.5, 4.0),
                                weight_range=(1.5, 4.0), initial_edge_density=0.3,
                                n_phases=300, event_mix=(0.6, 0.25, 0.15), prune_threshold=5.0)
        history = run_script(*generate_scenario(config))
        assert any(report.removed_edges for report in history.prune_reports)
        rendered = []

        def counted(real):
            def render(writer, key, rec):
                rendered.append(key)
                return real(writer, key, rec)
            return render

        for name in ("_node", "_edge"):
            monkeypatch.setattr(_SnapshotWriter, name, counted(getattr(_SnapshotWriter, name)))
        expected, sizes = [], []
        for state, delta in history._steps():
            sizes.append(len(state.nodes) + len(state.edges))
            if delta is None:
                expected.append(sizes[-1])
            else:
                ids, edges = _written(state, delta)
                if type(delta) is EdgeStep:  # its key's ids, at which its new key is
                    own = GraphState(state.phase, state.nodes, state.edges).incident
                    assert set(edges) == {key for i in delta.key for key in own[i]}
                    assert delta.key in edges
                expected.append(len(ids) + len(edges))

        counts = []
        for path, _ in _history_pieces(history):
            if path.startswith("snapshots["):
                counts.append(len(rendered))
                rendered.clear()
        assert len(counts) == 301
        assert counts == expected
        assert sum(counts[2:]) * 10 < sum(sizes[2:])

    def test_load_rejects_structurally_broken_snapshots(self):
        state, events, _ = parse_script(doc_bytes(MINIMAL))
        exported = export_history_json(run_script(state, events))
        doc = json.loads(exported)
        doc["snapshots"][1]["nodes"][0]["alive"] = False  # edge now touches a dead node
        with pytest.raises(ScriptError) as excinfo:
            load_history(canonical_json_bytes(doc))
        assert excinfo.value.path == "snapshots[1]"


class TestDotExport:
    def test_golden_settled_pair(self):
        state = settle_phase_one(new_graph([2, 2], [(1, 2, 2)]))
        assert export_dot(state) == (GOLDEN / "state_phase1.dot").read_bytes()

    def test_empty_graph_is_header_only(self):
        dot = export_dot(new_graph([], [])).decode()
        assert dot == "graph memory {\n  node [shape=circle fixedsize=true];\n}\n"

    def test_dead_nodes_are_omitted(self):
        state, _, _ = parse_script(doc_bytes(MINIMAL))
        events = [AddNode(3.0), AddEdge(1, 3, 2.0), Prune(3.6)]
        dot = export_dot(run_script(state, events).final).decode()
        assert "  2 [" not in dot
        assert "  1 [" in dot and "  3 [" in dot
        assert "1 -- 3" in dot
        assert "1 -- 2" not in dot

    def test_scales_follow_logs(self):
        state = settle_phase_one(new_graph([2, 2], [(1, 2, 2)]))
        dot = export_dot(state).decode()
        width = 0.3 + 0.15 * math.log(state.mass(1))
        pen = 1.0 + 0.75 * math.log(state.weight(1, 2))
        assert f"width={width:.4f}" in dot
        assert f"penwidth={pen:.4f}" in dot

    def test_labels_are_escaped(self):
        state = settle_phase_one(new_graph([2], []))
        state = apply_event(state, AddNode(2.5, label='say "hi" \\ bye'))[0]
        dot = export_dot(state).decode()
        assert 'label="say \\"hi\\" \\\\ bye"' in dot
