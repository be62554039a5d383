"""The neighbour index: derived from the edges, never mutated, handed from
each state to its successor, and dropped by the predecessor."""

from __future__ import annotations

import copy
from unittest.mock import patch

from hypothesis import given, settings

from massgraph import (
    apply_edge_event,
    apply_event,
    apply_node_event,
    apply_prune,
    generate_scenario,
    new_graph,
    run_script,
    settle_phase_one,
)
from massgraph import scenario
from test_roundtrip import configs


def holds_index(state) -> bool:
    return "neighbours" in vars(state)


def assert_index_matches_edges(state):
    rebuilt = {i: set() for i in state.nodes}
    for a, b in state.edges:
        rebuilt[a].add(b)
        rebuilt[b].add(a)
    index = state.neighbours
    assert {i: set(ids) for i, ids in index.items()} == rebuilt
    assert all(len(ids) == len(set(ids)) for ids in index.values())


@settings(max_examples=60, deadline=None)
@given(configs)
def test_runs_hand_on_an_exact_index_and_keep_none_behind(config):
    initial, events = generate_scenario(config)
    real = scenario.apply_event

    def checked(state, event):
        if holds_index(state):  # the index the previous transition handed on
            assert_index_matches_edges(state)
        return real(state, event)

    with patch.object(scenario, "apply_event", checked):
        history = run_script(initial, events)
    assert_index_matches_edges(history.final)
    assert not any(holds_index(s) for s in history.snapshots[:-1])
    # a snapshot without an index builds one and gives the same successor
    for p, event in enumerate(events, start=1):
        assert apply_event(history.snapshots[p], event)[0] == history.snapshots[p + 1]


def test_edge_and_node_events_hand_on_the_index():
    state = settle_phase_one(new_graph([2, 2, 3], [(1, 2, 2)]))
    assert not holds_index(state)
    state = apply_edge_event(state, 1, 3, 2.0)
    assert holds_index(state)
    state = apply_node_event(state, 4.0)
    assert state.neighbours == {1: (2, 3), 2: (1,), 3: (1,), 4: ()}
    state, _ = apply_prune(state, 0.0)
    assert not holds_index(state)


def test_a_copy_keeps_a_correct_index_after_the_original_advances():
    state = settle_phase_one(new_graph([2, 2, 3], [(1, 2, 2)]))
    assert state.neighbours == {1: (2,), 2: (1,), 3: ()}
    twin = copy.copy(state)
    apply_edge_event(state, 1, 3, 2.0)
    assert not holds_index(state)
    assert twin.neighbours == {1: (2,), 2: (1,), 3: ()}
    assert apply_edge_event(twin, 2, 3, 2.0).neighbours == {1: (2,), 2: (1, 3), 3: (2,)}
