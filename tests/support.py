"""Glue between engine states and the dense oracle, and the scenario
strategies and helpers that several test modules share."""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import strategies as st

from dense_oracle import DenseOracle
from massgraph import (AddEdge, AddNode, GraphState, KernelParams, Prune, ScenarioConfig,
                       apply_event, new_graph, settle_phase_one)
from massgraph.graph import initial_inputs

# light masses and weights, so that most prunes remove edges and isolate nodes
biting = st.builds(
    ScenarioConfig,
    seed=st.integers(min_value=0, max_value=2**32),
    n_initial=st.integers(min_value=2, max_value=8),
    mass_range=st.just((1.5, 4.0)),
    weight_range=st.just((1.5, 4.0)),
    initial_edge_density=st.floats(min_value=0.2, max_value=1.0),
    n_phases=st.integers(min_value=2, max_value=30),
    event_mix=st.just((0.5, 0.2, 0.3)),
    prune_threshold=st.floats(min_value=3.0, max_value=7.0),
)

# the default ranges keep weights far above any threshold drawn here, so
# without biting no prune would remove an edge
configs = st.one_of(st.builds(
    ScenarioConfig,
    seed=st.integers(min_value=0, max_value=2**32),
    n_initial=st.integers(min_value=0, max_value=6),
    initial_edge_density=st.floats(min_value=0.0, max_value=1.0),
    n_phases=st.integers(min_value=1, max_value=15),
    # add_node always has weight, so generation never runs out of events
    event_mix=st.sampled_from([(0.6, 0.3, 0.1), (0.4, 0.2, 0.4), (0.0, 0.5, 0.5)]),
    prune_threshold=st.floats(min_value=-5.0, max_value=8.0),
    kernel=st.builds(KernelParams, mu=st.floats(min_value=-1.0, max_value=2.0),
                     sigma=st.floats(min_value=0.2, max_value=3.0)),
), biting)

# forgetting runs with room to connect a pruned pair again: fewer nodes and
# more phases than biting
reconnecting = st.builds(
    ScenarioConfig,
    seed=st.integers(min_value=0, max_value=2**32),
    n_initial=st.integers(min_value=3, max_value=6),
    mass_range=st.just((1.5, 4.0)),
    weight_range=st.just((1.5, 4.0)),
    initial_edge_density=st.floats(min_value=0.2, max_value=1.0),
    n_phases=st.integers(min_value=15, max_value=40),
    event_mix=st.just((0.5, 0.2, 0.3)),
    prune_threshold=st.floats(min_value=3.0, max_value=7.0),
)


def added(values: list[float]) -> float:
    """``values`` added left to right, as ``metrics`` and ``total_mass``
    add masses on every Python version; the builtin ``sum`` compensates
    the rounding of float additions from 3.12 on."""
    total = 0
    for value in values:
        total += value
    return total


def rebuilt(initial):
    """A phase-0 state equal to ``initial`` that holds no generated run, so
    ``run_script`` of it settles and folds every event."""
    return new_graph(*initial_inputs(initial), initial.params)


def dense_weights(state: GraphState, n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=np.float64)
    for (a, b), w in state.edges.items():  # a record, or a working state's bare float
        out[a - 1, b - 1] = out[b - 1, a - 1] = float(w)
    return out


def assert_index_matches_edges(state: GraphState) -> None:
    # every node has an entry, and each edge key sits exactly once in each
    # of its endpoints' tuples and nowhere else, as the edge dict's own key
    index = state.incident
    assert index.keys() == state.nodes.keys()
    placed = Counter((i, key) for i, keys in index.items() for key in keys)
    assert placed == Counter((i, key) for key in state.edges for i in key)
    held = {key: key for key in state.edges}
    assert all(held[key] is key for keys in index.values() for key in keys)


def assert_held_is_exact(state: GraphState) -> None:
    """Each derived field ``state`` holds equals a recount from its dicts;
    a held floor is at most every weight."""
    held = state._derived
    if held.incident is not None:
        assert_index_matches_edges(state)
    assert held.histogram in (None, GraphState(state.phase, state.nodes,
                                               state.edges).degree_histogram)
    assert held.alive in (None, tuple(sorted(i for i, rec in state.nodes.items() if rec.alive)))
    assert held.floor is None or all(held.floor <= w for w in state.edges.values())


def assert_state_matches(state: GraphState, oracle: DenseOracle, atol: float = 1e-9) -> None:
    assert state.phase == oracle.phase
    assert state.node_ids() == list(range(1, oracle.n + 1))
    for i in range(1, oracle.n + 1):
        assert state.alive(i) == bool(oracle.alive[i - 1]), f"aliveness differs at node {i}"
    engine_mass = np.array([state.mass(i) for i in range(1, oracle.n + 1)])
    for got, want in ((engine_mass, oracle.mass), (dense_weights(state, oracle.n), oracle.weight)):
        # the cheap test first: assert_allclose costs ten times as much, so
        # it runs only where it may fail, to say where
        if got.shape != want.shape or not (np.abs(got - want) <= atol).all():
            np.testing.assert_allclose(got, want, atol=atol, rtol=0)


def replay_oracle(oracle: DenseOracle, event) -> None:
    if isinstance(event, AddEdge):
        oracle.add_edge(event.k, event.l, event.initial_weight)
    elif isinstance(event, AddNode):
        oracle.add_node(event.initial_mass)
    elif isinstance(event, Prune):
        oracle.prune(event.threshold)
    else:
        raise TypeError(event)


def run_both(initial: GraphState, events, atol: float = 1e-9) -> GraphState:
    """Replay the same scenario through engine and oracle, comparing
    every phase; returns the engine's final state."""
    masses = [initial.nodes[i].mass for i in initial.node_ids()]
    triples = [(a, b, float(w)) for (a, b), w in sorted(initial.edges.items())]
    oracle = DenseOracle(masses, triples, initial.params.mu, initial.params.sigma)
    state = settle_phase_one(initial)
    oracle.settle()
    assert_state_matches(state, oracle, atol)
    for event in events:
        state, _ = apply_event(state, event)
        replay_oracle(oracle, event)
        assert_state_matches(state, oracle, atol)
    return state
