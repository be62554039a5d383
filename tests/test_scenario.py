"""Scripted runs, seeded generation, history capture, and metrics."""

from __future__ import annotations

import copy
import gc
import hashlib
import itertools
import json
import math
import pickle
import random
import struct
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings

from massgraph import (
    AddEdge,
    AddNode,
    EdgeRecord,
    GenerationError,
    GraphState,
    InputError,
    KernelDraw,
    KernelParams,
    MassGraphError,
    NodeLookupError,
    NodeRecord,
    ParameterError,
    Prune,
    ScenarioConfig,
    SimulationError,
    apply_event,
    canonical_json_bytes,
    cli_main,
    edge_key,
    export_dot,
    export_history_json,
    generate_scenario,
    load_history,
    metrics,
    new_graph,
    reinforcement,
    run_script,
    script_document,
    state_digest,
    validate_kernel_params,
    validate_state,
)
from massgraph import engine, scenario
from support import added, configs, rebuilt

GOLDEN = Path(__file__).parent / "golden"
TRACE_EVENTS = [AddNode(3.0), AddEdge(1, 3, 2.0), Prune(3.6)]
BIG = sys.float_info.max

# frozen from the 50-digit trace of the worked example
POST_PRUNE_TOTAL = 7.4019541947575695
POST_PRUNE_TOP1 = 0.51346594402655622


@pytest.fixture
def phase0():
    return new_graph([2, 2], [(1, 2, 2)])


class TestRunScript:
    def test_worked_trace_history(self, phase0):
        history = run_script(phase0, TRACE_EVENTS)
        assert [s.phase for s in history.snapshots] == [0, 1, 2, 3, 4]
        assert history.events == TRACE_EVENTS
        assert len(history.prune_reports) == 1
        assert history.prune_reports[0].removed_nodes == (2,)
        assert history.final.alive_ids() == [1, 3]
        assert history.final.total_mass() == pytest.approx(POST_PRUNE_TOTAL, abs=1e-12)

    def test_empty_event_list(self, phase0):
        history = run_script(phase0, [])
        assert [s.phase for s in history.snapshots] == [0, 1]
        assert history.prune_reports == []

    def test_error_carries_phase_and_event(self, phase0):
        events = [AddNode(3.0), AddEdge(1, 3, 2.0), Prune(3.6),
                  AddEdge(2, 3, 5.0)]  # node 2 is dead by now
        with pytest.raises(SimulationError) as excinfo:
            run_script(phase0, events)
        assert excinfo.value.phase == 5
        assert excinfo.value.event == AddEdge(2, 3, 5.0)

    def test_rejects_settled_initial(self, phase0):
        history = run_script(phase0, [])
        with pytest.raises(InputError, match="phase 0"):
            run_script(history.final, [])

    def test_snapshots_are_immutable(self, phase0):
        history = run_script(phase0, TRACE_EVENTS)
        digests = [state_digest(s) for s in history.snapshots]
        # keep simulating from the final state; earlier snapshots must not move
        follow_on = apply_event(history.final, AddNode(9.0))[0]
        apply_event(follow_on, AddEdge(1, 4, 3.0))
        assert [state_digest(s) for s in history.snapshots] == digests

    @pytest.mark.parametrize("edges,events,phase", [
        ([(1, 2, 2.0)], [], 1),                # settlement
        ([], [AddEdge(1, 2, 2.0)], 2),         # edge event
    ])
    def test_overflow_fails_at_its_phase(self, edges, events, phase):
        with pytest.raises(SimulationError) as excinfo:
            run_script(new_graph([BIG / 2, BIG * 0.75], edges), events)
        assert excinfo.value.phase == phase

    @pytest.mark.parametrize("density,mix,phase,kind", [
        (1.0, (1.0, 0.0, 0.0), 1, type(None)),  # settlement
        (0.0, (1.0, 0.0, 0.0), 2, AddEdge),     # the first drawn event
    ])
    def test_generated_overflow_fails_at_its_phase(self, density, mix, phase, kind):
        # the generator folds its events in run_script's loop, so it fails
        # as a run of the same scenario would
        config = ScenarioConfig(seed=1, n_initial=3, n_phases=3, mass_range=(1e308, 1.5e308),
                                initial_edge_density=density, event_mix=mix)
        with pytest.raises(SimulationError) as excinfo:
            generate_scenario(config)
        assert excinfo.value.phase == phase
        assert type(excinfo.value.event) is kind

    @pytest.mark.parametrize("event", [
        (AddNode, ("x",), InputError), (AddNode, (3.0, 5), InputError),
        (AddEdge, (1.0, 2, 3.0), NodeLookupError), (AddEdge, (True, 2, 3.0), NodeLookupError),
        (AddEdge, (1, 2, "x"), InputError), (Prune, ("x",), InputError),
        (Prune, (math.nan,), InputError), (Prune, (math.inf,), InputError),
    ])
    def test_undefined_event_input_fails_at_its_phase(self, event):
        # input the model does not define fails where the event is built,
        # with its rule's error, so no run reaches the event's phase
        kind, values, error = event
        with pytest.raises(MassGraphError) as excinfo:
            kind(*values)
        assert type(excinfo.value) is error

    @staticmethod
    def counted_run(initial, events):
        """``run_script(initial, events)`` with the engine's record builds
        counted: the history, after settlement and after each fold the
        records built so far, and the edge records built once the last fold
        is done."""
        built = Counter()

        def counted(record):
            def build(*args, **kwargs):
                built[record] += 1
                return record(*args, **kwargs)
            return build

        def no_copy(*args):
            raise AssertionError("a run copied its state")

        real, real_settle = scenario.advance, scenario._settle
        steps = []  # after each step: records built so far, and the dicts folded into

        def step(state, delta):
            real(state, delta)
            steps.append((built[EdgeRecord], built[NodeRecord], state.nodes, state.edges))

        def settle(initial):
            state = real_settle(initial)
            steps.append((built[EdgeRecord], built[NodeRecord], state.nodes, state.edges))
            return state

        with patch.object(engine, "EdgeRecord", counted(EdgeRecord)), \
                patch.object(engine, "NodeRecord", counted(NodeRecord)), \
                patch.object(engine, "folded", no_copy), \
                patch.object(scenario, "folded", no_copy), \
                patch.object(scenario, "advance", step), \
                patch.object(scenario, "_settle", settle):
            history = run_script(initial, events)
            final = history.final
        assert all(nodes is final.nodes and edges is final.edges
                   for _, _, nodes, edges in steps)
        return history, steps, built[EdgeRecord] - steps[-1][0]

    def test_an_event_builds_only_the_records_it_touches(self):
        # an edge event builds its endpoints' two records and no edge record,
        # whatever deg(k) + deg(l) is: its step leaves its new weight and the
        # shifted ones floats, which the run's end makes records
        config = ScenarioConfig(seed=3, n_initial=10, n_phases=80,
                                event_mix=(0.6, 0.2, 0.2), prune_threshold=20.0)
        initial, events = generate_scenario(config)
        history, steps, at_end = self.counted_run(rebuilt(initial), events)
        kinds = Counter(type(event) for event in events)
        assert kinds[AddEdge] > 20 and kinds[AddNode] > 5 and kinds[Prune] > 5
        shifted = 0
        for p, event in enumerate(events, start=1):
            before = history.snapshots[p]
            edge_records = steps[p][0] - steps[p - 1][0]
            node_records = steps[p][1] - steps[p - 1][1]
            if isinstance(event, AddEdge):
                shifted += len(before.incident[event.k]) + len(before.incident[event.l])
                assert (edge_records, node_records) == (0, 2)
            elif isinstance(event, AddNode):
                assert (edge_records, node_records) == (0, 1)
            else:
                dead = len(before.alive_ids()) - len(history.snapshots[p + 1].alive_ids())
                assert (edge_records, node_records) == (0, dead)
        assert shifted > 0
        assert at_end <= len(history.final.edges)

    def test_an_edge_event_builds_one_record_whatever_its_degrees(self):
        # two hubs, of degree 9 -> 39 and 1 -> 31: each event shifts every
        # edge at its endpoints, and builds its endpoints' two records and no
        # edge record, not even its new edge's: the run's end builds them once
        initial = new_graph([3.0] * 40, [(1, j, 3.0) for j in range(2, 11)])
        events = [AddEdge(hub, j, 3.0) for hub in (1, 2) for j in range(11, 41)]
        history, steps, at_end = self.counted_run(initial, events)
        before = history.snapshots[1]
        assert len(before.incident[1]) == 9
        assert [len(history.final.incident[hub]) for hub in (1, 2)] == [39, 31]
        assert [(after[0] - prior[0], after[1] - prior[1])
                for prior, after in zip(steps, steps[1:])] == [(0, 2)] * len(events)
        assert 0 < at_end <= len(history.final.edges)
        assert all(type(edge) is EdgeRecord for edge in history.final.edges.values())

    def test_a_run_keeps_one_edge_record_per_edge_event(self):
        # two hubs, of degree 9 -> 39 and 1 -> 31: an event shifts every edge
        # at its endpoints; the run keeps the shift, not the shifted records
        initial = new_graph([3.0] * 40, [(1, j, 3.0) for j in range(2, 11)])
        events = [AddEdge(hub, j, 3.0) for hub in (1, 2) for j in range(11, 41)]
        history = run_script(initial, events)
        kinds = (dict, list, tuple, bytearray, GraphState, NodeRecord, EdgeRecord)
        seen, todo = {}, [history]
        while todo:  # what the run keeps before its snapshots are read
            obj = todo.pop()
            if id(obj) not in seen:
                seen[id(obj)] = obj
                todo += [o for o in gc.get_referents(obj) if isinstance(o, kinds)]
        kept = list(seen.values())
        # four doubles per edge event: no event's delta, and no state but
        # phase 0 and final, as each walk settles phase 0 again
        assert [o for o in kept if isinstance(o, GraphState)] in \
            ([history._initial, history.final], [history.final, history._initial])
        (packed,) = [o for o in kept if isinstance(o, bytearray)]
        numbers = struct.unpack(f"{4 * len(events)}d", packed)
        keys = history._log[1]
        steps = history._folds()
        next(steps), next(steps)  # phases 0 and 1
        before = history.snapshots[1]
        touched = 0
        for (p, event), (state, delta) in zip(enumerate(events, start=2), steps):
            # each fold's step is its log row: the run's key and four doubles
            assert type(delta) is engine.EdgeStep and delta.key is keys[p - 2]
            assert delta == (edge_key(event.k, event.l), *numbers[4 * (p - 2):4 * (p - 1)])
            low, high = delta.key
            assert (delta.mass_low, delta.mass_high, delta.weight) == \
                (state.nodes[low].mass, state.nodes[high].mass, state.edges[delta.key])
            assert state == history.snapshots[p]
            touched += len(before.incident[event.k]) + len(before.incident[event.l])
            before = history.snapshots[p]
        assert touched > 15 * len(events)
        records = sum(isinstance(o, EdgeRecord) for o in kept)
        assert records <= 2 * len(initial.edges) + len(history.final.edges)
        records = sum(isinstance(o, NodeRecord) for o in kept)
        assert records <= 2 * len(initial.nodes) + len(history.final.nodes)

    def test_a_run_keeps_at_most_64_bytes_per_edge_event(self):
        # preferential attachment, as in the benchmark's growth scripts: each
        # new node links to two partners drawn in proportion to degree, so
        # hubs form; weights >= 3 keep every shift positive and every prune
        # at 3.0 removes nothing. Net of its events list and the final state,
        # the history keeps a run's log: four floats and a key per edge event
        rng = random.Random(1)
        initial = new_graph([rng.uniform(2.0, 50.0) for _ in range(3)],
                            [(1, 2, 3.0), (1, 3, 3.0), (2, 3, 3.0)])
        ends, events = [1, 2, 1, 3, 2, 3], []
        for i in range(4, 304):
            events.append(AddNode(rng.uniform(2.0, 50.0)))
            partners = set()
            while len(partners) < 2:
                partners.add(ends[rng.randrange(len(ends))])
            for j in sorted(partners):
                events.append(AddEdge(j, i, rng.uniform(3.0, 30.0)))
                ends += [i, j]
            if i % 50 == 0:
                events.append(Prune(3.0))
        n_edge_events = sum(isinstance(event, AddEdge) for event in events)
        assert n_edge_events >= 500
        gc.collect()
        tracemalloc.start()
        try:
            history = run_script(initial, events)
            gc.collect()  # as below, which also empties the free lists
            with_history = tracemalloc.get_traced_memory()[0]
            final, listed = history.final, sys.getsizeof(history.events)
            del history
            gc.collect()
            with_final = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert max(len(final.incident[i]) for i in final.nodes) > 30  # a hub
        assert with_history - with_final - listed <= 64 * n_edge_events

    def test_a_prune_neither_copies_nor_sorts_the_edges(self):
        # the forgetting regime: prunes follow edge events, which add pairs
        # last, and about half of them remove edges
        config = ScenarioConfig(seed=7, n_initial=10, n_phases=60, event_mix=(0.6, 0.2, 0.2),
                                prune_threshold=20.0, initial_edge_density=0.3)
        initial, events = generate_scenario(config)
        history = run_script(initial, events)
        shared = biting = unsorted = 0
        for p, event in enumerate(events, start=1):
            if not isinstance(event, Prune):
                continue
            before, after = history.snapshots[p], history.snapshots[p + 1]
            removed = {pair for pair in before.edges if pair not in after.edges}
            if removed:
                biting += 1
                assert list(after.edges) == [k for k in before.edges if k not in removed]
                unsorted += list(after.edges) != sorted(after.edges)
            else:
                shared += 1
                assert after.edges is before.edges
        assert (shared, biting) == (7, 6)
        assert unsorted > 0  # survivors a sort would have moved

    def test_weakening_and_hub_runs_export_their_pinned_digests(self):
        # beyond the dense oracle's 1e-9: the sha256 of each history's export
        # pins every float bit for bit, on a run where most edge events weaken
        # and prunes bite, and on a run whose hubs exceed degree 30
        runs = {"weakening": run_script(*generate_scenario(WEAKENING)),
                "hub": run_script(*hub_script())}
        shifts = struct.unpack(f"{len(runs['weakening']._log[0]) // 8}d",
                               runs["weakening"]._log[0])[3::4]
        assert (len(shifts), sum(shift < 0 for shift in shifts)) == (172, 131)
        assert sum(len(r.removed_edges) for r in runs["weakening"].prune_reports) == 170
        assert max(len(ids) for ids in runs["hub"].final.incident.values()) > 30
        pinned = dict(line.split() for line in
                      (GOLDEN / "digests_weakening.txt").read_text().splitlines())
        assert {name: hashlib.sha256(export_history_json(history)).hexdigest()
                for name, history in runs.items()} == pinned


# mostly weakening edge events (weights and masses near 1 give gains below
# 1) and prunes that remove edges
WEAKENING = ScenarioConfig(seed=1, n_initial=30, n_phases=300, mass_range=(1.1, 3.0),
                           weight_range=(1.1, 3.0), prune_threshold=3.0,
                           event_mix=(0.6, 0.2, 0.2), initial_edge_density=0.2)


def hub_script():
    """The preferential-attachment script of
    ``test_a_run_keeps_at_most_64_bytes_per_edge_event``: its phase-0 state
    and events."""
    rng = random.Random(1)
    initial = new_graph([rng.uniform(2.0, 50.0) for _ in range(3)],
                        [(1, 2, 3.0), (1, 3, 3.0), (2, 3, 3.0)])
    ends, events = [1, 2, 1, 3, 2, 3], []
    for i in range(4, 304):
        events.append(AddNode(rng.uniform(2.0, 50.0)))
        partners = set()
        while len(partners) < 2:
            partners.add(ends[rng.randrange(len(ends))])
        for j in sorted(partners):
            events.append(AddEdge(j, i, rng.uniform(3.0, 30.0)))
            ends += [i, j]
        if i % 50 == 0:
            events.append(Prune(3.0))
    return initial, events


# CI's forgetting config: about half of its prunes remove edges
FORGETTING = ScenarioConfig(seed=7, n_initial=10, n_phases=60, event_mix=(0.6, 0.2, 0.2),
                            prune_threshold=20.0, initial_edge_density=0.3)


def folds_of(call):
    """``call()``'s result, and how many times it settled and how many
    deltas it folded into a working state."""
    real, real_settle, folds, settles = scenario.advance, scenario._settle, [], []

    def counted(state, delta):
        folds.append(state.phase)
        real(state, delta)

    def settle(state):
        settles.append(state.phase)
        return real_settle(state)

    with patch.object(scenario, "advance", counted), patch.object(scenario, "_settle", settle):
        result = call()
    return result, (len(settles), len(folds))


def assert_same_history(history, fresh):
    assert export_history_json(history) == export_history_json(fresh)
    assert history.prune_reports == fresh.prune_reports
    assert list(history.states()) == list(fresh.states())
    final, other = history.final, fresh.final
    assert (final.phase, final.params) == (other.phase, other.params)
    assert list(final.nodes.items()) == list(other.nodes.items())
    assert list(final.edges.items()) == list(other.edges.items())
    assert history.snapshots == fresh.snapshots


class TestHandoff:
    """``run_script`` of a scenario exactly as ``generate_scenario`` returned
    it takes the generator's run, once; any other run folds every event."""

    def test_a_non_event_is_refused_before_settlement(self):
        def settle(state):
            raise AssertionError("settled before refusing")

        with patch.object(scenario, "_settle", settle), \
                pytest.raises(TypeError, match=r"events\[1\]"):
            run_script(new_graph([2.0, 3.0], [(1, 2, 2.5)]), [AddNode(2.0), 42])

    def test_a_non_event_is_refused_before_the_handoff(self):
        initial, events = generate_scenario(FORGETTING)
        with pytest.raises(TypeError, match=r"events\[3\]"):
            run_script(initial, events[:3] + ["prune"] + events[3:])
        history, folds = folds_of(lambda: run_script(initial, events))
        assert folds == (0, 0)  # the refusal left the run for the next call

    @settings(max_examples=60, deadline=None)
    @given(configs)
    def test_the_handed_off_history_is_a_fresh_runs(self, config):
        initial, events = generate_scenario(config)
        history, folds = folds_of(lambda: run_script(initial, events))
        assert folds == (0, 0)
        assert_same_history(history, run_script(rebuilt(initial), events))

    def test_forgetting_config_runs_to_its_golden_history(self):
        history = run_script(*generate_scenario(FORGETTING))
        assert any(report.removed_edges for report in history.prune_reports)
        assert export_history_json(history) == (GOLDEN / "history_forgetting.json").read_bytes()

    @pytest.mark.parametrize("edit", [
        lambda events: events.append(AddNode(5.0)),
        lambda events: events.pop(),
        lambda events: events.__setitem__(-1, AddNode(5.0)),
    ], ids=["appended", "truncated", "replaced"])
    def test_an_edited_event_list_folds_afresh(self, edit):
        initial, events = generate_scenario(FORGETTING)
        edit(events)
        history, folds = folds_of(lambda: run_script(initial, events))
        assert folds == (1, len(events))
        assert_same_history(history, run_script(rebuilt(initial), events))

    @pytest.mark.parametrize("edit", [
        lambda s: s.nodes.__setitem__(2, NodeRecord(s.nodes[2].mass + 1.0)),
        lambda s: s.nodes.__setitem__(2, NodeRecord(s.nodes[2].mass)),  # equal, not the same
        lambda s: s.edges.__setitem__(next(iter(s.edges)), EdgeRecord(50.0)),
    ], ids=["node-mass", "node-record", "edge-weight"])
    def test_an_edited_initial_folds_afresh(self, edit):
        initial, events = generate_scenario(FORGETTING)
        edit(initial)
        history, folds = folds_of(lambda: run_script(initial, events))
        assert folds == (1, len(events))
        assert_same_history(history, run_script(rebuilt(initial), events))

    def test_only_the_first_run_takes_the_generated_one(self):
        initial, events = generate_scenario(FORGETTING)
        first, folds = folds_of(lambda: run_script(initial, events))
        assert folds == (0, 0)
        second, folds = folds_of(lambda: run_script(initial, events))
        assert folds == (1, len(events))
        assert_same_history(first, second)
        assert second.final is not first.final
        assert second._log is not first._log
        assert not any(a is b for a, b in zip(first._log, second._log))
        assert not any(a is b for a, b in zip(first.prune_reports, second.prune_reports))

    @pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
                             ids=["deepcopy", "pickle"])
    def test_a_duplicate_holds_nothing_beside_its_value(self, duplicate):
        # a generated phase-0 state, a folded state and final, each copied
        # while it holds an index and a histogram (read here, if need be),
        # and the generated state its run too
        initial, events = generate_scenario(FORGETTING)
        initial.degree_histogram
        twin = duplicate(initial)
        history = run_script(rebuilt(initial), events)
        states = history.states()  # phase 5 holds its index until 6 is drawn
        middle = next(itertools.islice(states, 5, None))
        final = history.final
        final.degree_histogram
        for state, copied in [(initial, twin), (middle, duplicate(middle)),
                              (final, duplicate(final))]:
            held = state._derived
            assert held.incident is not None and held.histogram is not None
            assert copied == state
            assert (copied._derived.incident, copied._derived.histogram,
                    copied._derived.run) == (None, None, None)
        assert initial._derived.run is not None
        assert export_history_json(run_script(twin, events)) == \
            (GOLDEN / "history_forgetting.json").read_bytes()

    def test_a_shallow_copy_shares_the_run(self):
        initial, events = generate_scenario(FORGETTING)
        twin = copy.copy(initial)
        assert twin._derived is initial._derived
        _, folds = folds_of(lambda: run_script(twin, events))
        assert folds == (0, 0)
        _, folds = folds_of(lambda: run_script(initial, events))
        assert folds == (1, len(events))

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                           lambda s: pickle.loads(pickle.dumps(s))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_a_copied_initial_runs_to_an_equal_history(self, duplicate):
        initial, events = generate_scenario(FORGETTING)
        twin = duplicate(initial)
        fresh = run_script(rebuilt(initial), events)
        from_twin = run_script(twin, events)
        from_initial = run_script(initial, events)
        assert_same_history(from_twin, fresh)
        assert_same_history(from_initial, fresh)
        assert from_twin.final is not from_initial.final  # taken once between them

    def test_a_wrong_source_is_refused_before_the_handoff(self):
        initial, events = generate_scenario(FORGETTING)
        with pytest.raises(InputError, match="source"):
            run_script(initial, events, source=script_document(initial, events[:-1]))
        history, folds = folds_of(
            lambda: run_script(initial, events, source=script_document(initial, events)))
        assert folds == (0, 0)
        assert_same_history(history, run_script(rebuilt(initial), events))


class TestWalks:
    """A walk over a history's states settles phase 0 once, and a history
    with no events settles nothing: its ``final`` is its phase 1."""

    @pytest.mark.parametrize("events", [[], [AddEdge(1, 3, 2.0)]], ids=["no-event", "one-event"])
    def test_a_walk_settles_at_most_once(self, events, tmp_path, capsys):
        history = run_script(new_graph([2.0, 3.0, 4.0], [(1, 2, 2.5)]), events)
        walk = len(events)  # the settlements of one walk
        path = tmp_path / "h.json"
        path.write_bytes(export_history_json(history))
        for call in (lambda: list(history.states()), lambda: export_history_json(history)):
            for _ in range(2):  # each walk settles afresh
                assert folds_of(call)[1] == (walk, 0)
        # a load or stats replays the script, which settles and folds each
        # event once, then walks its export
        for call in (lambda: load_history(path.read_bytes()),
                     lambda: cli_main(["stats", "--history", str(path)])):
            assert folds_of(call)[1] == (1 + walk, len(events))
        assert len(json.loads(capsys.readouterr().out)) == len(events) + 2

    def test_the_handed_off_run_settles_nothing(self):
        initial, events = generate_scenario(FORGETTING)
        assert folds_of(lambda: run_script(initial, events))[1] == (0, 0)


class TestConfig:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            ScenarioConfig(seed=1, n_initial=3, event_mix=(0.5, 0.2, 0.2))

    def test_mass_range_must_exceed_one(self):
        with pytest.raises(ParameterError):
            ScenarioConfig(seed=1, n_initial=3, mass_range=(0.5, 10.0))

    def test_density_bounds(self):
        with pytest.raises(ParameterError):
            ScenarioConfig(seed=1, n_initial=3, initial_edge_density=1.5)

    @pytest.mark.parametrize("changes", [
        {"event_mix": (math.nan, 0.5, 0.5)}, {"n_initial": 2.5}, {"n_phases": 3.5},
        {"n_initial": True}, {"n_phases": True},
        # a seed must fix the scenario: None would draw from OS entropy
        {"seed": None}, {"seed": 1.5}, {"seed": "x"}, {"seed": True},
        # ranges are two numbers and the mix three, not some other shape
        {"mass_range": (2.0,)}, {"weight_range": (2, 3, 4)}, {"mass_range": 5},
        {"event_mix": 5}, {"kernel": "x"},
    ])
    def test_numbers_the_model_does_not_define(self, changes):
        with pytest.raises(ParameterError):
            ScenarioConfig(**{"seed": 1, "n_initial": 3, **changes})

    def test_kernel_draw_validation(self):
        with pytest.raises(ParameterError):
            KernelDraw(mu_range=(0, 1), sigma_range=(0.0, 1.0))

    @pytest.mark.parametrize("ranges", [
        {"mu_range": (1.0,), "sigma_range": (1.0, 2.0)},
        {"mu_range": (0.0, 1.0), "sigma_range": 2.0},
        {"mu_range": (0.0, math.nan), "sigma_range": (1.0, 2.0)},
    ])
    def test_kernel_draw_ranges_are_two_finite_numbers(self, ranges):
        with pytest.raises(ParameterError):
            KernelDraw(**ranges)


HUGE = 10**400  # an int that no float can hold


@pytest.mark.parametrize("call", [
    lambda: KernelParams(mu=HUGE),
    lambda: KernelDraw(mu_range=(0.0, HUGE), sigma_range=(1.0, 2.0)),
    lambda: KernelDraw(mu_range=(0.0, 1.0), sigma_range=(1.0, HUGE)),
    lambda: ScenarioConfig(seed=1, n_initial=3, mass_range=(2.0, HUGE)),
    lambda: ScenarioConfig(seed=1, n_initial=3, weight_range=(2.0, HUGE)),
    lambda: ScenarioConfig(seed=1, n_initial=3, prune_threshold=HUGE),
    lambda: ScenarioConfig(seed=1, n_initial=3, event_mix=(HUGE, 0.0, 0.0)),
    lambda: validate_kernel_params(KernelParams(), 2.0, HUGE, 10),
], ids=["mu", "mu_range", "sigma_range", "mass_range", "weight_range", "prune_threshold",
        "event_mix", "grid_hi"])
def test_integer_too_large_for_a_float_is_a_domain_error(call):
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize("nodes,edges", [
    ({1: NodeRecord(HUGE), 2: NodeRecord(2.0)}, {}),
    # EdgeRecord(HUGE) overflows as it is built, so the edge holds the int
    ({1: NodeRecord(2.0), 2: NodeRecord(2.0)}, {(1, 2): HUGE}),
], ids=["mass", "weight"])
def test_validate_state_reports_an_integer_too_large_for_a_float(nodes, edges):
    problems = validate_state(GraphState(phase=1, nodes=nodes, edges=edges))
    assert len(problems) == 1 and "too large for a float" in problems[0]


@pytest.mark.parametrize("call,error", [
    (lambda: KernelParams(mu=True), ParameterError),
    (lambda: KernelParams(sigma=True), ParameterError),
    (lambda: KernelDraw(mu_range=(False, True), sigma_range=(1.0, 2.0)), ParameterError),
    (lambda: ScenarioConfig(seed=1, n_initial=3, prune_threshold=True), ParameterError),
    (lambda: ScenarioConfig(seed=1, n_initial=3, initial_edge_density=True), ParameterError),
    (lambda: ScenarioConfig(seed=1, n_initial=3, event_mix=(True, False, False)), ParameterError),
    (lambda: apply_event(new_graph([2, 2], [(1, 2, 2)]), Prune(True)), InputError),
], ids=["mu", "sigma", "mu_range", "prune_threshold", "initial_edge_density", "event_mix",
        "apply_prune"])
def test_booleans_are_not_numbers(call, error):
    with pytest.raises(error):
        call()


class TestGeneration:
    CONFIG = ScenarioConfig(
        seed=42, n_initial=5, initial_edge_density=0.3, n_phases=12,
        event_mix=(0.6, 0.3, 0.1), prune_threshold=3.0,
    )

    def test_deterministic_in_seed(self):
        a_initial, a_events = generate_scenario(self.CONFIG)
        b_initial, b_events = generate_scenario(self.CONFIG)
        assert a_initial == b_initial
        assert a_events == b_events

    def test_replay_determinism(self):
        initial, events = generate_scenario(self.CONFIG)
        first = run_script(initial, events)
        second = run_script(initial, events)
        assert [state_digest(s) for s in first.snapshots] == \
               [state_digest(s) for s in second.snapshots]

    def test_reaches_requested_phase(self):
        initial, events = generate_scenario(self.CONFIG)
        history = run_script(initial, events)
        assert len(history.snapshots) == self.CONFIG.n_phases + 1
        assert history.final.phase == self.CONFIG.n_phases

    def test_every_phase_validates_clean(self):
        initial, events = generate_scenario(self.CONFIG)
        for state in run_script(initial, events).snapshots:
            assert validate_state(state) == []

    def test_masses_and_weights_respect_ranges(self):
        initial, events = generate_scenario(self.CONFIG)
        lo, hi = self.CONFIG.mass_range
        for i in initial.node_ids():
            assert lo <= initial.mass(i) <= hi
        wlo, whi = self.CONFIG.weight_range
        for edge in initial.edges.values():
            assert wlo <= edge.weight <= whi
        for ev in events:
            if isinstance(ev, AddEdge):
                assert wlo <= ev.initial_weight <= whi
            elif isinstance(ev, AddNode):
                assert lo <= ev.initial_mass <= hi
            else:
                assert ev.threshold == self.CONFIG.prune_threshold

    def test_add_edge_targets_unconnected_alive_pairs(self):
        initial, events = generate_scenario(self.CONFIG)
        state = run_script(initial, []).final
        for ev in events:
            if isinstance(ev, AddEdge):
                assert state.alive(ev.k) and state.alive(ev.l)
                assert not state.has_edge(ev.k, ev.l)
            state, _ = apply_event(state, ev)

    def test_scripts_are_unchanged_and_pick_the_listed_free_pair(self):
        # the configs benchmarks/workloads.py builds for sweep and archive
        def sweep(seed):
            rng = random.Random(seed)
            return [ScenarioConfig(seed=rng.randrange(2**31), n_initial=30, n_phases=phases,
                                   event_mix=(0.6, 0.2, 0.2), prune_threshold=20.0,
                                   initial_edge_density=0.2,
                                   kernel=KernelDraw(mu_range=(-1.0, 1.0),
                                                     sigma_range=(0.5, 2.0)))
                    for phases in (100, 141, 200, 283, 400) for _ in range(6)]

        def archive(seed):
            rng = random.Random(seed)
            return [ScenarioConfig(seed=rng.randrange(2**31), n_initial=12, n_phases=phases,
                                   event_mix=(0.7, 0.25, 0.05), prune_threshold=3.0,
                                   initial_edge_density=0.1)
                    for phases in (40, 57, 80, 113, 160) for _ in range(3)]

        configs = [c for seed in (1, 2) for c in sweep(seed) + archive(seed)]
        # what the generator wrote before it kept its own neighbour counts
        written = "4923a7fcbac99baa639cb1b3ba8a06cc66e8e8a76a1d01a41abc82c20ec30b9f"
        assert scripts_digest(configs) == written
        with patch.object(scenario, "_free_pair", listed_free_pair):
            assert scripts_digest(configs) == written

    def test_drawn_kernel_is_deterministic_and_in_range(self):
        config = ScenarioConfig(
            seed=7, n_initial=3, n_phases=4, event_mix=(0.5, 0.5, 0.0),
            kernel=KernelDraw(mu_range=(-1.0, 1.0), sigma_range=(0.5, 2.0)),
        )
        first, _ = generate_scenario(config)
        second, _ = generate_scenario(config)
        assert first.params == second.params
        assert -1.0 <= first.params.mu <= 1.0
        assert 0.5 <= first.params.sigma <= 2.0

    def test_exhausted_pairs_raise_generation_error(self):
        config = ScenarioConfig(
            seed=3, n_initial=2, initial_edge_density=1.0, n_phases=2,
            event_mix=(1.0, 0.0, 0.0),
        )
        with pytest.raises(GenerationError):
            generate_scenario(config)

    def test_one_phase_yields_settlement_only_and_zero_is_refused(self):
        # a run reaches phase 1 whatever it is asked, so 0 is no final phase
        with pytest.raises(ParameterError, match="n_phases"):
            ScenarioConfig(seed=5, n_initial=2, initial_edge_density=0.0, n_phases=0)
        config = ScenarioConfig(seed=5, n_initial=2, initial_edge_density=0.0, n_phases=1)
        initial, events = generate_scenario(config)
        assert events == [] and run_script(initial, events).final.phase == 1


def scripts_digest(configs) -> str:
    digest = hashlib.sha256()
    for config in configs:
        digest.update(canonical_json_bytes(script_document(*generate_scenario(config))))
    return digest.hexdigest()


def listed_free_pair(alive, later, edges, r):
    """``scenario._free_pair`` by brute force: list every unconnected alive pair."""
    return [(a, b) for a, b in itertools.combinations(alive, 2) if (a, b) not in edges][r]


@settings(max_examples=60, deadline=None)
@given(configs)
def test_generation_picks_the_listed_free_pair(config):
    digest = scripts_digest([config])
    with patch.object(scenario, "_free_pair", listed_free_pair):
        assert scripts_digest([config]) == digest


class TestMetrics:
    def test_equal_pair(self):
        state = new_graph([2.8, 2.8], [])
        report = metrics(state, k=1)
        assert report.top_k_mass_share == pytest.approx(0.5)
        assert report.alive_nodes == 2
        assert report.total_mass == pytest.approx(5.6)

    def test_empty_graph_convention(self):
        report = metrics(new_graph([], []), k=3)
        assert report.alive_nodes == 0
        assert report.alive_edges == 0
        assert report.total_mass == 0.0
        assert report.max_mass_node is None
        assert report.top_k_mass_share == 1.0
        assert report.degree_histogram == ()

    def test_post_prune_trace(self, phase0):
        final = run_script(phase0, TRACE_EVENTS).final
        report = metrics(final, k=1)
        assert report.alive_nodes == 2
        assert report.alive_edges == 1
        assert report.total_mass == pytest.approx(POST_PRUNE_TOTAL, abs=1e-12)
        assert report.max_mass_node[0] == 3
        assert report.top_k_mass_share == pytest.approx(POST_PRUNE_TOP1, abs=1e-12)
        assert report.degree_histogram == (0, 2)

    def test_share_is_one_when_k_covers_everyone(self):
        state = new_graph([2.5, 3.5], [])
        assert metrics(state, k=2).top_k_mass_share == 1.0
        assert metrics(state, k=9).top_k_mass_share == 1.0

    @pytest.mark.parametrize("k", [1.5, True])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(ParameterError):
            metrics(new_graph([2], []), k=k)

    def test_k_must_be_positive(self):
        with pytest.raises(ParameterError):
            metrics(new_graph([2], []), k=0)

    def test_masses_sum_left_to_right(self):
        # added left to right, ten masses of 1.1 make 10.999999999999998;
        # with each addition's rounding compensated, as sum() adds floats
        # from Python 3.12 on, they make 11.0
        masses = [1.1] * 10
        total, top = added(masses), added(masses[:3])
        assert total == 10.999999999999998 != math.fsum(masses)
        state = new_graph(masses, [])
        report = metrics(state, 3)
        assert report.total_mass == state.total_mass() == total
        assert report.top_k_mass_share == top / total

    def test_a_total_mass_beyond_the_float_range_names_the_phase(self):
        # each mass is finite, their sum is not: no total or share to report
        state = new_graph([1e308, 1.5e308], [])
        with pytest.raises(InputError, match="phase 0: the total mass of the alive nodes"):
            metrics(state)
        history = run_script(state, [AddNode(2.0)])
        with pytest.raises(InputError, match="phase 2: the total mass"):
            metrics(history.final)


class TestConservation:
    def test_along_a_generated_run(self):
        config = ScenarioConfig(seed=11, n_initial=4, initial_edge_density=0.4,
                                n_phases=15, event_mix=(0.6, 0.2, 0.2),
                                prune_threshold=4.0)
        initial, events = generate_scenario(config)
        history = run_script(initial, events)
        for prev, cur, ev in zip(history.snapshots[1:], history.snapshots[2:], events):
            before = prev.total_mass()
            after = cur.total_mass()
            if isinstance(ev, AddEdge):
                gain = reinforcement(ev.initial_weight, prev.params)
                assert after == pytest.approx(before + 2 * gain, abs=1e-9)
            elif isinstance(ev, AddNode):
                assert after == pytest.approx(before + ev.initial_mass, abs=1e-9)
            else:
                dead = {i for i in prev.alive_ids() if not cur.alive(i)}
                lost = sum(prev.mass(i) for i in sorted(dead))
                assert after == pytest.approx(before - lost, abs=1e-9)

    def test_degree_histogram_counts_alive_only(self, phase0):
        final = run_script(phase0, TRACE_EVENTS).final
        assert sum(metrics(final, 1).degree_histogram) == len(final.alive_ids())


def test_the_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # README's "Library use" block, run as a reader would paste it
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(block, scope)
    final = run_script(new_graph([2, 2], [(1, 2, 2)]), TRACE_EVENTS).final
    assert capsys.readouterr().out == f"{metrics(final, k=1)}\n"
    assert (tmp_path / "final.dot").read_bytes() == export_dot(final)
    assert scope["pruned"].phase == 2 and scope["report"].threshold == 3.0
