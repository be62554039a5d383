"""Correctness checks, run outside every timed region.

Final states are compared against the repository's dense-matrix oracle
(``tests/dense_oracle.py`` via ``tests/support.py``, imported read-only),
which shares no code with the package.
"""

from __future__ import annotations

import massgraph as mg
from dense_oracle import DenseOracle
from support import assert_state_matches, replay_oracle

ATOL = 1e-9


def state_fields(state: mg.GraphState) -> tuple:
    """Everything a state exposes as data: phase, node records, edge weights."""
    nodes = tuple((i, state.mass(i), state.label(i), state.alive(i)) for i in state.node_ids())
    edges = tuple(sorted((key, edge.weight) for key, edge in state.edges.items()))
    return state.phase, nodes, edges


def final_state_problems(initial: mg.GraphState, events: list, final: mg.GraphState) -> list[str]:
    """``final`` must match the oracle's replay of the events at ``ATOL``
    and pass :func:`massgraph.validate_state`."""
    problems = [f"validate_state: {p}" for p in mg.validate_state(final)]
    masses = [initial.mass(i) for i in initial.node_ids()]
    triples = [(a, b, edge.weight) for (a, b), edge in sorted(initial.edges.items())]
    oracle = DenseOracle(masses, triples, initial.params.mu, initial.params.sigma)
    oracle.settle()
    for event in events:
        replay_oracle(oracle, event)
    try:
        assert_state_matches(final, oracle, ATOL)
    except AssertionError as err:
        detail = str(err).strip()[:200] or "phase, node ids or aliveness"
        problems.append(f"differs from the dense oracle: {detail}")
    return problems
