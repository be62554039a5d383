"""Counted work: what one event reads and writes of a state's dicts, on a
ladder of graph sizes with the same touched set at every rung. Counts are
exact where timings drift, so a step whose work grows with the graph
counts more on a larger rung. An edge event's step reads and writes its
endpoints, their incident edges and the two index entries; a node event,
one node and one index entry; a prune that removes two edges, those edges,
their endpoints and their entries; none of them anything that grows with
the node or edge count. A prune at or below the floor reads no edge and no
node record, only the index entry of each alive id. At each event's
phase, the history writer renders only the records the event wrote. Drawing
a generated edge event reads, of ``later`` and ``edges``, one key per
alive id: linear in the alive count, pinned as the code meets it."""

from __future__ import annotations

import math
from unittest.mock import patch

from massgraph import (AddEdge, AddNode, GraphState, KernelParams, Prune, ScenarioConfig,
                       apply_event, generate_scenario, new_graph, reinforcement, run_script,
                       settle_phase_one)
from massgraph import engine, scenario
from massgraph.engine import advance, edge_delta, event_delta, folded
from massgraph.io import _history_pieces, _SnapshotWriter

RUNGS = (50, 200, 800)
EVENT = AddEdge(1, 2, 1.5)  # a gain below 1: the shift weakens, and the floor reads it
GAIN = reinforcement(1.5, KernelParams())
# between the settled weights: the path's two end edges, of mass sum 3 + 3g,
# fall below it, and every other edge, of 3 + 4g, stays
CUT = Prune(1.5 + math.log(3 + 3.5 * GAIN))


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


def phase_zero(n: int) -> GraphState:
    """A phase-0 state of ``n`` nodes: nodes 1 and 2 have three neighbours
    each, and nodes 9 to n lie on a path, so the edge count grows with n
    while the event's touched set stays the same."""
    edges = [(1, j, 1.5) for j in (3, 4, 5)] + [(2, j, 1.5) for j in (6, 7, 8)]
    edges += [(i, i + 1, 1.5) for i in range(9, n)]
    return new_graph([1.5] * n, edges)


def settled(n: int) -> GraphState:
    """:func:`phase_zero`'s settled state, with all ``n`` nodes alive."""
    state = settle_phase_one(phase_zero(n))
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


def counted_runs(state: GraphState, event, report=None) -> tuple:
    """The tallies of ``event`` on ``state``: through ``event_delta`` and
    ``advance`` on a counted working state, and through ``folded`` of the
    delta taken uncounted, where the copies count and a dict left alone
    is the counted one it shares; each ends equal to ``apply_event``'s. A
    prune's ``report``, when given, is its delta, and only the folds count."""
    expected = apply_event(state, event)[0]
    work = holding(state, Counted(state.nodes), Counted(state.edges))
    advance(work, event_delta(work, event) if report is None else report)
    delta = event_delta(state, event) if report is None else report
    before = holding(state, Counted(state.nodes), Counted(state.edges))
    with patch.object(engine, "dict", Counted, create=True):
        successor = folded(before, delta)
    counts = tally(work), tally(successor)  # before the checks below read them
    for stepped in (work, successor):
        assert stepped == expected
        assert stepped._derived.histogram == expected.degree_histogram
    return counts


def test_a_node_event_touches_the_same_keys_on_every_rung():
    counts = [counted_runs(settled(n), AddNode(2.0)) for n in RUNGS]
    assert counts == [counts[0]] * len(RUNGS)
    stepped, fold = counts[0]
    assert stepped[1] == fold[1] == (0, 0)  # no edge
    assert stepped[0][1] == stepped[2][1] == 1  # its record and its index entry


def test_a_prune_that_removes_two_edges_touches_the_same_keys_on_every_rung():
    # its report comes from a scan of every edge, as the threshold is above
    # the floor: only advance, which folds the report, is counted here
    counts = []
    for n in RUNGS:
        state = settled(n)
        report = apply_event(state, CUT)[1]
        assert [key for key, _ in report.removed_edges] == [(9, 10), (n - 1, n)]
        assert report.removed_nodes == (9, n)
        counts.append(counted_runs(state, CUT, report))
    assert counts == [counts[0]] * len(RUNGS)
    stepped, _ = counts[0]
    assert stepped[1][1] == 2 and stepped[2][1] == 4  # two deletes, four entries


def test_a_prune_at_or_below_the_floor_reads_no_edge_and_no_dead_id():
    # after CUT, nodes 9 and n are dead and the floor is CUT's threshold
    for n in RUNGS:
        state = apply_event(settled(n), CUT)[0]
        assert len(state._alive) == n - 2
        stepped, fold = counted_runs(state, Prune(state._floor))
        # no node record and no edge; of the index, one read per alive id
        assert stepped == ((0, 0), (0, 0), (n - 2, 0))
        assert fold == ((0, 0), (0, 0), (0, 0))


def rendered(n: int, event) -> tuple[int, int]:
    """The node and edge records the history writer renders at ``event``'s
    phase, on the in-place walk of a run of ``event`` and a node event after
    it, so that the event's state is the walk's working copy."""
    history = run_script(phase_zero(n), [event, AddNode(2.0)])
    counts = []
    with patch.object(_SnapshotWriter, "_node", autospec=True,
                      side_effect=_SnapshotWriter._node) as node, \
            patch.object(_SnapshotWriter, "_edge", autospec=True,
                         side_effect=_SnapshotWriter._edge) as edge:
        for _ in _history_pieces(history, lambda state: counts.append((node.call_count,
                                                                       edge.call_count))):
            pass
    (nodes, edges), (more_nodes, more_edges) = counts[2:4]  # before phases 2 and 3
    return more_nodes - nodes, more_edges - edges


def test_the_writer_renders_the_same_records_on_every_rung():
    # what _written names: an edge event's endpoints and the seven edges at
    # them, its own among them; a node event's record; a prune's two dead
    # nodes, and none of the edges it removed
    for event, expected in ((EVENT, (2, 7)), (AddNode(2.0), (1, 0)), (CUT, (2, 0))):
        assert [rendered(n, event) for n in RUNGS] == [expected] * len(RUNGS)


def drawn(n: int) -> tuple[int, int, int]:
    """The reads of ``later`` and ``edges`` that drawing the one edge event
    of a generated scenario of ``n`` nodes takes in ``_free_pair``, through
    counted copies of both, and the alive count it drew from."""
    real, calls = scenario._free_pair, []

    def counting(alive, later, edges, r):
        later, edges = Counted(later), Counted(edges)
        pair = real(alive, later, edges, r)
        calls.append((later.reads, edges.reads, len(alive)))
        return pair

    config = ScenarioConfig(seed=5, n_initial=n, n_phases=2, event_mix=(1.0, 0.0, 0.0),
                            initial_edge_density=0.05)
    with patch.object(scenario, "_free_pair", counting):
        _, events = generate_scenario(config)
    assert [type(event) for event in events] == [AddEdge] and len(calls) == 1
    return calls[0]


def test_drawing_an_edge_event_reads_each_alive_id_once():
    # _free_pair counts each node's free later partners up to the drawn
    # pair's low end a, then lists a's free partners above it: one read of
    # later per id up to a, one of edges per id above a, so the draw is
    # linear in the alive count, whatever the rank and the edge count
    for n in RUNGS:
        later_reads, edge_reads, alive = drawn(n)
        assert alive == n and later_reads > 0 and edge_reads > 0
        assert later_reads + edge_reads == n
