"""Write -> read round trips: scripts and histories come back exactly.

A script document must parse back to the same phase-0 state and events,
and an exported history must load back to states with the same
``state_digest`` at every phase.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from massgraph import (
    AddEdge,
    AddNode,
    KernelParams,
    Prune,
    ScenarioConfig,
    canonical_json_bytes,
    export_history_json,
    generate_scenario,
    load_history,
    new_graph,
    parse_script,
    run_script,
    script_document,
    state_digest,
)

configs = st.builds(
    ScenarioConfig,
    seed=st.integers(min_value=0, max_value=2**32),
    n_initial=st.integers(min_value=0, max_value=6),
    initial_edge_density=st.floats(min_value=0.0, max_value=1.0),
    n_phases=st.integers(min_value=0, max_value=15),
    # add_node always has weight, so generation never runs out of events
    event_mix=st.sampled_from([(0.6, 0.3, 0.1), (0.4, 0.2, 0.4), (0.0, 0.5, 0.5)]),
    prune_threshold=st.floats(min_value=-5.0, max_value=8.0),
    kernel=st.builds(KernelParams, mu=st.floats(min_value=-1.0, max_value=2.0),
                     sigma=st.floats(min_value=0.2, max_value=3.0)),
)


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


@settings(max_examples=60, deadline=None)
@given(configs)
def test_history_round_trips(config):
    assert_history_round_trips(*generate_scenario(config))


@settings(max_examples=60, deadline=None)
@given(configs)
def test_script_round_trips(config):
    initial, events = generate_scenario(config)
    parsed, parsed_events, params = parse_script(
        canonical_json_bytes(script_document(initial, events)))
    assert parsed_events == events
    assert params == initial.params
    assert state_digest(parsed) == state_digest(initial)
