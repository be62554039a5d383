"""Counted work: what one event reads and writes of a state's dicts, on a
ladder of graph sizes with the same touched set at every rung. Counts are
exact where timings drift, so a step whose work grows with the graph
counts more on a larger rung. This covers the edge event: its step reads
and writes its endpoints, their incident edges and the two index entries,
and nothing that grows with the node or edge count."""

from __future__ import annotations

from unittest.mock import patch

from massgraph import (AddEdge, GraphState, KernelParams, apply_event, new_graph, reinforcement,
                       settle_phase_one)
from massgraph import engine
from massgraph.engine import advance, edge_delta, event_delta, folded

RUNGS = (50, 200, 800)
EVENT = AddEdge(1, 2, 1.5)  # a gain below 1: the shift weakens, and the floor reads it


class Counted(dict):
    """A dict that counts the keys read and written through it; a scan
    reads every key."""

    def __init__(self, data=()):
        super().__init__(data)
        self.reads = self.writes = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.reads += 1
        return super().__contains__(key)

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self.writes += 1
        super().__delitem__(key)

    def update(self, other=(), **more):
        other = dict(other, **more)
        self.writes += len(other)
        super().update(other)

    def _scan(name):
        def scan(self):
            self.reads += len(self)
            return getattr(super(Counted, self), name)()
        return scan

    __iter__, keys, values, items = map(_scan, ("__iter__", "keys", "values", "items"))


def settled(n: int) -> GraphState:
    """A settled state of ``n`` alive nodes: nodes 1 and 2 have three
    neighbours each, and nodes 9 to n lie on a path, so the edge count
    grows with n while the event's touched set stays the same."""
    edges = [(1, j, 1.5) for j in (3, 4, 5)] + [(2, j, 1.5) for j in (6, 7, 8)]
    edges += [(i, i + 1, 1.5) for i in range(9, n)]
    state = settle_phase_one(new_graph([1.5] * n, edges))
    assert len(state._alive) == n and len(state.edges) == n - 3
    return state


def holding(state: GraphState, nodes, edges) -> GraphState:
    """``state`` with the given dicts, a counted copy of its index, and its
    degree histogram, alive ids and floor held, so that each is stepped."""
    copy = GraphState(state.phase, nodes, edges, state.params)
    derived = copy._derived
    derived.incident = Counted(state.incident)
    derived.histogram, derived.alive, derived.floor = \
        state.degree_histogram, state._alive, state._floor
    return copy


def tally(state: GraphState) -> tuple:
    return tuple((d.reads, d.writes) for d in (state.nodes, state.edges, state.incident))


def test_an_edge_event_touches_the_same_keys_on_every_rung():
    assert reinforcement(EVENT.initial_weight, KernelParams()) < 1
    stepped, folds = [], []
    for n in RUNGS:
        state = settled(n)
        expected = apply_event(state, EVENT)[0]
        assert {key for key in state.edges if expected.edges[key] != state.edges[key]} == \
            {(1, 3), (1, 4), (1, 5), (2, 6), (2, 7), (2, 8)}  # the same shifted edges
        # in place, as a run steps its working state
        work = holding(state, Counted(state.nodes), Counted(state.edges))
        advance(work, event_delta(work, EVENT))
        assert work == expected
        stepped.append(tally(work))
        # onto copies, as a history's fold does: the copies count, and the
        # successor takes the counted index; the copying itself is not counted
        before = holding(state, dict(state.nodes), dict(state.edges))
        step = edge_delta(before, EVENT)
        with patch.object(engine, "dict", Counted, create=True):
            successor = folded(before, step)
        assert successor == expected and type(successor.edges) is Counted
        folds.append(tally(successor))
    assert stepped == [stepped[0]] * len(RUNGS)
    assert folds == [folds[0]] * len(RUNGS)
    assert all(reads + writes for reads, writes in stepped[0] + folds[0])

