"""The incidence index (node id -> keys of its edges), the degree
histogram, the alive ids and the weight floor: derived from a state's
nodes and edges and held beside its value. ``advance`` is the one step
that keeps them: it folds a delta into a state's index in place and steps
a held histogram in O(touched), a held alive tuple on node events and node
removals, and a held floor by one compare. A run's working state holds a
histogram only once it is read; the settled state is a working copy of
phase 0, which keeps its own index, and a folded state takes its
predecessor's index, which then holds none and builds another if read, and
its predecessor's histogram, alive tuple and floor. The next node id is not
held: every state numbers its nodes 1 to n, so it is n + 1. That every
held field is exact on every path is checked in ``test_state_paths.py``;
the tests here pin which state holds what, and what a step reads."""

from __future__ import annotations

import copy
import operator
import sys
from dataclasses import replace
from unittest.mock import patch

from massgraph import (
    AddEdge,
    AddNode,
    EdgeRecord,
    GraphState,
    NodeRecord,
    Prune,
    ScenarioConfig,
    apply_event,
    generate_scenario,
    metrics,
    new_graph,
    run_script,
    settle_phase_one,
)
from massgraph import engine, scenario
from massgraph.engine import advance, event_delta, folded, node_delta, prune_delta, working_copy
from massgraph.io import _history_pieces
from support import assert_held_is_exact, assert_index_matches_edges, rebuilt


def holds_index(state) -> bool:
    return state._derived.incident is not None


def test_only_the_state_before_final_keeps_an_index():
    config = ScenarioConfig(seed=3, n_initial=10, n_phases=80, event_mix=(0.6, 0.2, 0.2),
                            prune_threshold=20.0)
    initial, events = generate_scenario(config)
    history = run_script(rebuilt(initial), events)
    final = history.final
    snapshots = history.snapshots
    assert snapshots[-1] is final
    assert history.final is final
    # phase 0 keeps its index, which the settled state copies; each fold
    # moves its predecessor's index on: only the state final follows still
    # holds one; each fold holds phase 0's histogram and alive ids, stepped
    assert holds_index(snapshots[0])
    assert_index_matches_edges(snapshots[0])
    assert not any(holds_index(s) for s in snapshots[1:-2])
    assert holds_index(snapshots[-2])
    assert_index_matches_edges(snapshots[-2])
    assert all(None not in (s._derived.histogram, s._derived.alive) for s in snapshots[:-1])
    # a snapshot without an index builds one and gives the same successor
    for p, event in enumerate(events, start=1):
        assert apply_event(history.snapshots[p], event)[0] == history.snapshots[p + 1]
    replacement = copy.copy(final)
    history.snapshots[-1] = replacement
    assert history.final is replacement


def test_phase_zero_keeps_its_held_fields_through_every_walk():
    # settlement copies phase 0's index, so no walk takes it from phase 0:
    # every walk after the run's reads phase 0's own index, histogram and
    # alive ids, the very ones the first walk found, and builds none
    config = ScenarioConfig(seed=3, n_initial=10, n_phases=80, event_mix=(0.6, 0.2, 0.2),
                            prune_threshold=20.0)
    initial, events = generate_scenario(config)
    initial = rebuilt(initial)
    history = run_script(initial, events)
    list(history.states())
    held = initial._derived
    fields = held.incident, held.histogram, held.alive
    assert None not in fields

    for walk in (lambda: list(history.states()), lambda: list(_history_pieces(history, metrics)),
                 lambda: list(history.states())):
        walk()
        # the same objects, so none was built again, and each exact
        assert all(map(operator.is_, (held.incident, held.histogram, held.alive), fields))
        assert_held_is_exact(initial)
    assert history.snapshots[0] is initial


def test_a_state_whose_ids_run_out_of_order_holds_exact_fields():
    # ids out of ascending order in the dict, and a dead one among them
    state = GraphState(1, {3: NodeRecord(4.0), 1: NodeRecord(3.0), 2: NodeRecord(2.0, None, False),
                           4: NodeRecord(5.0)},
                       {(3, 4): EdgeRecord(3.1), (1, 3): EdgeRecord(2.5)})
    assert state._alive == (1, 3, 4) and state._floor == 2.5
    steps = [(AddNode(2.0), (1, 3, 4, 5), 2.5),
             (Prune(3.0), (3, 4), 3.0),  # (1, 3) goes, so 1 and 5 die
             (AddNode(3.0), (3, 4, 6), 3.0),
             (AddEdge(4, 6, 1.5), (3, 4, 6), None)]  # its shift takes (3, 4) below 3
    for event, alive, floor in steps:
        state = apply_event(state, event)[0]
        assert state._derived.alive == alive
        assert state._derived.floor == (state.edges[3, 4] if floor is None else floor)
        assert_held_is_exact(state)


class Watched(dict):
    """A dict that records each key read through it, and ``all`` for a scan."""

    def __init__(self, data):
        super().__init__(data)
        self.read = []

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.append(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.append(key)
        return super().__contains__(key)

    def _scan(name):
        def scan(self):
            self.read.append(all)
            return getattr(super(Watched, self), name)()
        return scan

    __iter__, keys, values, items = map(_scan, ("__iter__", "keys", "values", "items"))


def test_a_prune_at_or_below_every_weight_reads_no_weight_and_no_dead_id():
    # sweep's forgetting regime, where most prunes find nothing below the
    # threshold: given the floor a run's working state holds, such a prune
    # reads no edge and no node record (the alive ids and the index find the
    # ones it kills), and its delta is the one a state that holds nothing
    # scans for
    config = ScenarioConfig(seed=1, n_initial=30, n_phases=200, event_mix=(0.6, 0.2, 0.2),
                            prune_threshold=20.0, initial_edge_density=0.2)
    initial, events = generate_scenario(config)
    state = settle_phase_one(initial)
    below = cheap = 0
    for event in events:
        if isinstance(event, Prune) and event.threshold <= min(state.edges.values()):
            below += 1
            if event.threshold <= state._floor:  # held from the first prune on
                nodes, edges = Watched(state.nodes), Watched(state.edges)
                watched = GraphState(state.phase, nodes, edges, state.params)
                derived = watched._derived
                derived.incident, derived.alive, derived.floor = \
                    state.incident, state._alive, state._floor
                delta = prune_delta(watched, event)
                assert edges.read == []
                assert nodes.read == []  # no dead id
                assert set(delta.removed_nodes) <= set(state._alive)
                assert delta == prune_delta(replace(state), event)
                cheap += 1
        state = apply_event(state, event)[0]
    assert cheap == below == 44
    assert sum(isinstance(event, Prune) for event in events) == 53  # 9 remove edges


def test_edge_and_node_events_hand_on_the_index():
    # and so do settlement and prunes: every transition hands one on
    state = settle_phase_one(new_graph([2, 2, 3], [(1, 2, 2)]))
    assert holds_index(state)
    assert_index_matches_edges(state)
    state = apply_event(state, AddEdge(1, 3, 2.0))[0]
    assert holds_index(state)
    assert_index_matches_edges(state)
    state = apply_event(state, AddNode(4.0))[0]
    assert holds_index(state)
    assert state.incident == {1: ((1, 2), (1, 3)), 2: ((1, 2),), 3: ((1, 3),), 4: ()}
    # edge (1, 2) weighs 3.50 and (1, 3) 4.00: the prune isolates nodes 2 and 4
    state, report = apply_event(state, Prune(3.75))
    assert [key for key, _ in report.removed_edges] == [(1, 2)]
    assert report.removed_nodes == (2, 4)
    assert holds_index(state)
    assert_index_matches_edges(state)


def test_a_run_builds_the_index_once():
    config = ScenarioConfig(seed=3, n_initial=10, n_phases=80, event_mix=(0.6, 0.2, 0.2),
                            prune_threshold=20.0)
    initial, events = generate_scenario(config)
    assert sum(isinstance(event, Prune) for event in events) == 21
    read = GraphState.incident.fget
    built = []

    def counted(state):
        if not holds_index(state):
            built.append(state.phase)
        return read(state)

    with patch.object(GraphState, "incident", property(counted)):
        history = run_script(initial, events)  # reuses the index generation left
        assert_index_matches_edges(history.final)  # the working index
        assert len(history.snapshots) == len(events) + 2  # built without one
        assert built == []
        run_script(replace(initial), events)  # an equal initial without an index
        assert built == [0]


def test_a_run_builds_edge_keys_only_for_its_edge_events():
    # the fold reaches the edges it shifts or re-filters by the keys the
    # index holds; only edge_delta builds one, for its new pair
    config = ScenarioConfig(seed=1, n_initial=8, mass_range=(1.5, 4.0),
                            weight_range=(1.5, 4.0), initial_edge_density=0.5, n_phases=30,
                            event_mix=(0.5, 0.2, 0.3), prune_threshold=5.0)
    initial, events = generate_scenario(config)
    initial = rebuilt(initial)
    real = engine.edge_key
    callers = []

    def counted(i, j):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(i, j)

    with patch.object(engine, "edge_key", counted):
        history = run_script(initial, events)
        assert len(history.snapshots) == len(events) + 2
    assert sum(len(report.removed_edges) for report in history.prune_reports) == 10
    assert callers == ["edge_delta"] * sum(isinstance(event, AddEdge) for event in events)


def test_a_copy_keeps_a_correct_index_after_the_original_advances():
    state = settle_phase_one(new_graph([2, 2, 3], [(1, 2, 2)]))
    assert state.incident == {1: ((1, 2),), 2: ((1, 2),), 3: ()}
    twin = copy.copy(state)
    apply_event(state, AddEdge(1, 3, 2.0))[0]
    assert holds_index(state) and state.incident == {1: ((1, 2),), 2: ((1, 2),), 3: ()}
    assert twin.incident == {1: ((1, 2),), 2: ((1, 2),), 3: ()}
    assert apply_event(twin, AddEdge(2, 3, 2.0))[0].incident == \
        {1: ((1, 2),), 2: ((1, 2), (2, 3)), 3: ((2, 3),)}


def test_a_working_state_keeps_its_histogram_as_it_advances():
    # once read, a working state's histogram is stepped with each delta and
    # never counted again: the property that counts it fails on every read
    state = working_copy(settle_phase_one(new_graph([2, 2, 3], [(1, 2, 2)])))
    assert state.degree_histogram == (1, 2)
    steps = [(AddEdge(1, 3, 2.0), (0, 2, 1)), (AddNode(4.0), (1, 2, 1)),
             (Prune(3.75), (0, 2))]  # edge (1, 2) weighs 3.50: 2 and 4 die

    def no_count(state):
        raise AssertionError("the histogram was counted again")

    with patch.object(GraphState, "degree_histogram", property(no_count)):
        for event, hist in steps:
            advance(state, event_delta(state, event))
            assert state._derived.histogram == hist
    assert hist == replace(state).degree_histogram


def test_a_run_holds_no_histogram_until_metrics_reads_one():
    # the generator's and the run's working states step no histogram, and
    # neither final holds one: only a read counts it
    config = ScenarioConfig(seed=3, n_initial=10, n_phases=80, event_mix=(0.6, 0.2, 0.2),
                            prune_threshold=20.0)
    real, real_settle = scenario.advance, scenario._settle
    held = []

    def checked(state, delta):
        real(state, delta)
        held.append(state._derived.histogram)

    def settle(initial):
        state = real_settle(initial)
        held.append(state._derived.histogram)
        return state

    with patch.object(scenario, "advance", checked), patch.object(scenario, "_settle", settle):
        initial, events = generate_scenario(config)
        generated = initial._derived.run[-1]
        history = run_script(rebuilt(initial), events)
    assert held == [None] * 2 * (len(events) + 1)
    assert generated._derived.alive is not None  # the draw reads it, so each step keeps it
    for final in (generated, history.final):
        assert final._derived.histogram is None
        report = metrics(final)
        assert final._derived.histogram is not None
        assert report.degree_histogram == final._derived.histogram


def test_the_writers_pass_counts_a_histogram_only_if_its_hook_reads_one():
    # export's pass folds every state and reads no histogram, so none is
    # held; a hook that reads metrics, as stats does, counts phase 0's and
    # each fold hands it on
    config = ScenarioConfig(seed=3, n_initial=10, n_phases=80, event_mix=(0.6, 0.2, 0.2),
                            prune_threshold=20.0)
    history = run_script(*generate_scenario(config))
    n = len(history.events)
    held = []
    list(_history_pieces(history, lambda state: held.append(state._derived.histogram)))
    assert held == [None] * (n + 2)

    def read(state):
        held.append(state._derived.histogram is not None)
        metrics(state)

    held.clear()
    list(_history_pieces(history, read))
    assert held == [False] + [True] * n + [False]  # final counts its own


def test_a_fold_derives_its_histogram_from_its_predecessors():
    initial = new_graph([2, 2, 3], [(1, 2, 2)])
    hist = initial.degree_histogram
    states = run_script(initial, [AddNode(4.0)]).states()
    next(states)
    settled = next(states)
    assert settled.degree_histogram is hist  # settling changes no degree
    grown = folded(settled, node_delta(settled, AddNode(4.0)))
    assert grown._derived.histogram == (2, 2)  # held, not counted on read
    assert grown.degree_histogram == replace(grown).degree_histogram
