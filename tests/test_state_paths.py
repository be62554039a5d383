"""Every path to a state agrees with the others and with the dense oracle.

Five paths make the state at each phase: a run's working state
(``_settle``, then ``event_delta`` and ``advance``), the ``folded``
chain behind ``states()``, the writer's in-place walk, the copying
``settle_phase_one`` and ``apply_event``, and ``load_history`` of the
export. One state machine steps the working state, the folded chain and
the applied chain side by side with the dense oracle, on valid events
from phase-0 graphs of 0 to 6 nodes, whose masses and weights lie near 1,
so that shifts go negative, or in the generator's default range, so that
they go positive, and whose thresholds lie among the weights, so that
prunes forget edges and nodes. After each step it checks one invariant per
held field; at its end it runs the script and checks the other two paths
against the chain. A new held field or path adds one invariant here.
``generate_scenario`` hands ``run_script`` its own run, the one path the
machine does not step: the last test checks that it is the machine's."""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from dense_oracle import DenseOracle
from massgraph import (AddEdge, AddNode, EdgeRecord, GraphState, KernelParams, MetricsReport,
                       Prune, ScenarioConfig, apply_event, generate_scenario,
                       export_history_json, load_history, metrics, new_graph, run_script,
                       settle_phase_one)
from massgraph import scenario
from massgraph.engine import _settle, _written, advance, event_delta, folded
from massgraph.graph import initial_inputs
from support import assert_held_is_exact, assert_state_matches, rebuilt, replay_oracle

# gains below 1 for most weights near 1, so most shifts there are negative,
# and above 1 for most in the generator's default range (2, 100)
values = st.floats(min_value=1.05, max_value=3.0) | st.floats(min_value=2.0, max_value=100.0)


@st.composite
def phase_zero(draw) -> GraphState:
    n = draw(st.integers(min_value=0, max_value=6))
    pairs = list(combinations(range(1, n + 1), 2))
    pairs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    params = draw(st.builds(KernelParams, mu=st.floats(min_value=-1.0, max_value=2.0),
                            sigma=st.floats(min_value=0.2, max_value=3.0)))
    return new_graph(draw(st.lists(values, min_size=n, max_size=n)),
                     [(a, b, draw(values)) for a, b in pairs], params)


def counted_metrics(state: GraphState, k: int) -> MetricsReport:
    """``metrics`` counted from the dicts alone, with no held field: the
    reference of its reads of the held alive ids and histogram."""
    alive = sorted(i for i, rec in state.nodes.items() if rec.alive)
    if not alive:
        return MetricsReport(state.phase, 0.0, 0, 0, None, 1.0, ())
    masses = [state.nodes[i].mass for i in alive]
    best = max(zip(masses, [-i for i in alive]))  # the lowest id of equal masses
    degrees = Counter(i for key in state.edges for i in key)
    hist = Counter(degrees[i] for i in alive)
    share = sum(sorted(masses, reverse=True)[:k]) / sum(masses) if len(alive) > k else 1.0
    return MetricsReport(state.phase, sum(masses), len(alive), len(state.edges),
                         (-best[1], best[0]), share, tuple(hist[d] for d in range(max(hist) + 1)))


def assert_same(state: GraphState, other: GraphState) -> None:
    """Equal phases, node records and float weights, in the same dict order."""
    assert state.phase == other.phase
    assert list(state.nodes.items()) == list(other.nodes.items())
    assert list(state.edges.items()) == list(other.edges.items())


class StatePaths(RuleBasedStateMachine):
    """Its preconditions keep edge events frequent: a node event waits while
    two nodes are isolated, and a prune while one edge is left, which no cut
    may remove."""

    @initialize(initial=phase_zero())
    def settle(self, initial):
        initial.degree_histogram, initial._alive, initial._floor  # held, so each path steps them
        self.initial, self.events, self.delta = initial, [], None  # phase 1 has no delta
        self.working, settled = _settle(initial), _settle(initial)
        for state in (self.working, settled):  # a working copy takes no histogram: phase 0's
            state._derived.histogram = initial.degree_histogram
        self.chain = [initial, settled]
        self.applied = [settle_phase_one(initial)]
        self.oracle = DenseOracle(*initial_inputs(initial), initial.params.mu,
                                  initial.params.sigma)
        self.oracle.settle()

    def step(self, event) -> None:
        self.delta = event_delta(self.working, event)
        advance(self.working, self.delta)
        self.chain.append(folded(self.chain[-1], self.delta))
        self.applied.append(apply_event(self.applied[-1], event)[0])
        replay_oracle(self.oracle, event)
        self.events.append(event)

    def free_pairs(self) -> list:
        return [pair for pair in combinations(self.working._alive, 2)
                if pair not in self.working.edges]

    @precondition(free_pairs)
    @rule(data=st.data(), weight=values)
    def add_edge(self, data, weight):
        self.step(AddEdge(*data.draw(st.sampled_from(self.free_pairs())), weight))

    @precondition(lambda self: self.working.degree_histogram[:1] < (2,))
    @rule(mass=values)
    def add_node(self, mass):
        self.step(AddNode(mass))

    @precondition(lambda self: len(self.working.edges) > 1)
    @rule(data=st.data())
    def prune(self, data):
        # below every weight or between two, never within 1e-6 of one, where
        # the oracle's rounding could decide; the heaviest edge stays, so the
        # graph keeps an edge and two alive nodes
        weights = sorted({float(w) for w in self.working.edges.values()})
        cuts = [weights[0] - 1]
        cuts += [(a + b) / 2 for a, b in zip(weights, weights[1:]) if b - a > 2e-6]
        self.step(Prune(data.draw(st.sampled_from(cuts))))

    @invariant()
    def paths_agree(self):
        state, (before, after), applied = self.working, self.chain[-2:], self.applied[-1]
        for other in (after, applied):
            assert_same(other, state)
            for (a, b), edge in other.edges.items():
                assert type(edge) is EdgeRecord and type(edge.weight) is float
                assert edge.weight == edge and type(other.weight(a, b)) is float
        assert_state_matches(state, self.oracle)
        for other in (state, after, applied):
            assert list(other.nodes) == list(range(1, len(other.nodes) + 1))  # ids run 1 to n
            assert other.next_id == len(other.nodes) + 1
            assert_held_is_exact(other)
        k = len(self.events) % 4 + 1  # each k from 1 to 4 in turn
        assert metrics(state, k) == counted_metrics(state, k)
        if self.delta is None:  # the writer finds phase 1's records by identity
            assert list(before.nodes) == list(after.nodes)
            assert list(before.edges) == list(after.edges)
            return
        # the writer rewrites only what _written names, and finds what it names
        ids, keys = _written(after, self.delta)
        assert set(ids) <= after.nodes.keys() and set(keys) <= after.edges.keys()
        assert {i for i, rec in after.nodes.items() if before.nodes.get(i) != rec} <= set(ids)
        assert {key for key, w in after.edges.items() if before.edges.get(key) != w} <= set(keys)

    def teardown(self):
        history = run_script(rebuilt(self.initial), self.events)
        assert_same(history.final, self.working)
        assert all(type(w) is EdgeRecord for w in history.final.edges.values())
        # a folded state that shares a dict its successor changes differs here
        assert list(history.states()) == self.chain == self.chain[:1] + self.applied
        for (walked, _), other in zip(history._folds(in_place=True), history.states(),
                                      strict=True):
            assert_same(walked, other)
            assert walked._alive == other._alive
            assert_held_is_exact(walked)
        exported = export_history_json(history)
        loaded = load_history(exported)
        states = list(loaded.states())
        assert states == self.chain
        assert (loaded.events, loaded.prune_reports) == (history.events, history.prune_reports)
        for state in states:  # equal to the chain, as records, with exact held fields
            assert all(type(w) is EdgeRecord for w in state.edges.values())
            assert_held_is_exact(state)
        for report in history.prune_reports + loaded.prune_reports:
            assert all(type(w) is float for _, w in report.removed_edges)
        assert export_history_json(loaded) == exported


StatePaths.TestCase.settings = settings(max_examples=30, stateful_step_count=30, deadline=None)
test_state_paths = StatePaths.TestCase


@pytest.mark.parametrize("config", [
    ScenarioConfig(seed=1, n_initial=0, n_phases=20, event_mix=(0.5, 0.4, 0.1),
                   prune_threshold=30.0),
    ScenarioConfig(seed=2, n_initial=6, initial_edge_density=0.5, n_phases=30,
                   event_mix=(0.6, 0.3, 0.1), prune_threshold=8.0),
    ScenarioConfig(seed=3, n_initial=5, initial_edge_density=0.6, n_phases=20,
                   mass_range=(1.5, 4.0), weight_range=(1.5, 4.0), event_mix=(0.0, 0.5, 0.5),
                   prune_threshold=4.0),
    ScenarioConfig(seed=4, n_initial=6, initial_edge_density=0.6, n_phases=30,
                   mass_range=(1.5, 4.0), weight_range=(1.5, 4.0), event_mix=(0.5, 0.2, 0.3),
                   prune_threshold=5.0),
    ScenarioConfig(seed=5, n_initial=6, initial_edge_density=0.6, n_phases=30,
                   mass_range=(1.1, 3.0), weight_range=(1.1, 3.0), event_mix=(0.6, 0.2, 0.2),
                   prune_threshold=3.0),
], ids=["empty", "default-ranges", "no-edge-events", "biting", "near-one"])
def test_a_generated_run_is_the_run_of_its_script(config):
    # run_script of generate_scenario's output takes over the generator's
    # run, whose working state the draw steps with its alive ids held: its
    # history is the one a fresh run of the script makes, which the machine
    # checks, state by state and byte for byte
    real, real_settle, stepped = scenario.advance, scenario._settle, []

    def checked(state, delta=None):
        if delta is None:
            state = real_settle(state)
        else:
            real(state, delta)
        assert list(state.nodes) == list(range(1, len(state.nodes) + 1))
        assert_held_is_exact(state)
        stepped.append(state.phase)
        return state

    with patch.object(scenario, "advance", checked), patch.object(scenario, "_settle", checked):
        initial, events = generate_scenario(config)
        history = run_script(initial, events)
    assert stepped == list(range(1, len(events) + 2))  # one run, not folded again
    fresh = run_script(rebuilt(initial), events)
    assert_same(history.final, fresh.final)
    assert all(type(w) is EdgeRecord for w in history.final.edges.values())
    assert list(history.states()) == list(fresh.states())
    assert export_history_json(history) == export_history_json(fresh)
