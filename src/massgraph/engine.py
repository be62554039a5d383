"""Phase transitions: settlement, edge and node arrivals, threshold pruning.

An event checks its own fields where it is built: :class:`AddEdge`,
:class:`AddNode` and :class:`Prune` apply the model's number rules from
graph and kernel (ids >= 1 that differ, masses and weights > 1, a finite
threshold, a string label) and store each number as the float they
return, so every event that exists is one the model defines. Valid fields
of the exact type cost one check; a refusal names its field in ``path``.

Each transition first computes its :class:`PhaseDelta` from a state it only
reads (:func:`settle_delta`, :func:`edge_delta`, :func:`node_delta`,
:func:`prune_delta`); a state's checks run there, before anything changes, and
the model's rules are documented there. A run owns one :func:`working_copy`
of its phase-0 state and folds each delta into it with :func:`advance`, so
an event costs what it touches (its endpoints and their incident edges),
not a copy of every node and edge. The pure API, :func:`settle_phase_one`
and :func:`apply_event`, takes the same two steps on a fresh working copy
and leaves the old state's fields as they were. Every reader that needs an
order sorts for itself (ascending ids / ascending endpoint pairs); a dict's
own order is still a fixed function of the script (phase-0 pairs ascending,
each added pair last, survivors of a prune in their places), so identical
inputs reproduce bit-identical states.

An edge event's delta keeps the rule, not its result: the two grown node
records, the new edge's weight and ``shift = ln(gain)``, which :func:`fold`
adds to every weight at the two endpoints. So a kept delta costs O(1) per
edge event, whatever the endpoints' degrees.

The incidence index (:attr:`GraphState.incident`, node id -> keys of its
edges) is derived from a state's edges; :func:`fold` reads it to find the
edges at an edge event's endpoints, so the event's cost follows their
degrees, not the edge count, and it builds no key to reach them; a fold
keeps the index exact, and :func:`folded` moves it on to the successor. A
node event costs O(1): ids run 1 to n, so the new node's id is n + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DuplicateEdgeError, InputError, NodeLookupError, SequencingError, named
from .graph import (EdgeRecord, GraphState, NodeRecord, above_one, edge_key, initial_inputs,
                    node_id, node_label)
from .kernel import as_float, reinforcement


@dataclass(frozen=True, slots=True)
class AddEdge:
    """Dynamic input: connect nodes k and l with a fresh initial weight > 1."""

    k: int
    l: int
    initial_weight: float

    def __post_init__(self):
        k, l, w = self.k, self.l, self.initial_weight
        if type(k) is int and type(l) is int and type(w) is float and 0 < k != l > 0 \
                and 1 < w < math.inf:
            return  # the rules below would take these unchanged
        edge_key(named("k", node_id, k), named("l", node_id, l))
        object.__setattr__(self, "initial_weight",
                           named("initial_weight", above_one, w, "edge weight"))


@dataclass(frozen=True, slots=True)
class AddNode:
    """Static expansion: a new node with an initial mass > 1."""

    initial_mass: float
    label: str | None = None

    def __post_init__(self):
        m, label = self.initial_mass, self.label
        if type(m) is float and 1 < m < math.inf and (label is None or type(label) is str):
            return
        object.__setattr__(self, "initial_mass", named("initial_mass", above_one, m, "node mass"))
        named("label", node_label, label)


@dataclass(frozen=True, slots=True)
class Prune:
    """Forgetting: drop edges below the threshold, then delete isolated nodes."""

    threshold: float

    def __post_init__(self):
        t = self.threshold
        if type(t) is not float or not -math.inf < t < math.inf:
            object.__setattr__(self, "threshold",
                               named("threshold", as_float, t, "prune threshold"))


Event = AddEdge | AddNode | Prune


@dataclass(frozen=True)
class PruneReport:
    """What one prune removed: edges with their last weights, then node ids."""

    threshold: float
    removed_edges: tuple[tuple[tuple[int, int], float], ...]
    removed_nodes: tuple[int, ...]


class PhaseDelta(NamedTuple):
    """What one transition changes: the node records it changes or adds, the
    edge weights it changes or adds, and, for a prune, its report, whose
    edges it removes.

    An edge event's delta holds its one new edge weight and ``shift``,
    ln(gain): the endpoints are that edge's key, and :func:`fold` adds
    ``shift`` to the weight of every edge at them that existed before.
    ``shift`` is None for every other transition."""

    nodes: dict[int, NodeRecord]
    edges: dict[tuple[int, int], EdgeRecord]
    report: PruneReport | None = None
    shift: float | None = None


def fold(delta: PhaseDelta, state: GraphState) -> None:
    """Apply ``delta`` to ``state``'s dicts and index, in place. A changed
    record keeps its key's place, an added one goes last, a prune's
    survivors keep theirs, and a changed index entry gets a new tuple.

    An edge event's shift reaches the edges at its endpoints through the
    index, before the new key joins it, so the new edge is not shifted."""
    nodes, edges, incident = state.nodes, state.edges, state.incident
    for i in delta.nodes:
        if i not in incident:
            incident[i] = ()
    nodes.update(delta.nodes)
    edges.update(delta.edges)
    shift = delta.shift
    if shift is not None:
        (new,) = delta.edges
        a, b = new
        for key in incident[a] + incident[b]:
            edges[key] = EdgeRecord(edges[key] + shift)
        incident[a] += (new,)
        incident[b] += (new,)
    if delta.report is None:
        return
    removed = [key for key, _ in delta.report.removed_edges]
    for key in removed:
        del edges[key]
    for i in {i for key in removed for i in key}:
        incident[i] = tuple(key for key in incident[i] if key in edges)


def folded(state: GraphState, delta: PhaseDelta) -> GraphState:
    """``state``'s successor, with ``delta`` folded onto copies of the dicts
    it changes; a dict it leaves alone (the edges, for a node event or a
    prune that removes no edge) is shared. ``state``'s index moves on to
    the successor, and ``state`` builds another if it is read again.

    The successor gets its :attr:`~GraphState.degree_histogram` from
    ``state``'s in O(touched): each node the delta touches leaves its old
    degree's count if it was alive and joins its new one if it is alive
    now. A delta that changes no count shares the tuple. So ``metrics`` of
    the successor counts no edges; only a ``state`` that holds no histogram
    counts its own, once."""
    nodes = dict(state.nodes) if delta.nodes else state.nodes
    changes_edges = delta.edges or (delta.report and delta.report.removed_edges)
    edges = dict(state.edges) if changes_edges else state.edges
    hist, incident = state.degree_histogram, state.incident
    touched = {*delta.nodes, *(i for pair in delta.edges for i in pair)}
    if delta.report is not None:
        touched.update(i for pair, _ in delta.report.removed_edges for i in pair)
    counts = list(hist)
    for i in touched:
        rec = state.nodes.get(i)
        if rec is not None and rec.alive:
            counts[len(incident[i])] -= 1
    successor = GraphState(state.phase + 1, nodes, edges, state.params)
    successor._derived.incident, state._derived.incident = incident, None
    fold(delta, successor)
    for i in touched:
        if nodes[i].alive:
            d = len(incident[i])
            if d >= len(counts):
                counts += [0] * (d + 1 - len(counts))
            counts[d] += 1
    while counts and not counts[-1]:
        counts.pop()
    counted = tuple(counts)
    successor._derived.histogram = hist if counted == hist else counted
    return successor


def working_copy(state: GraphState) -> GraphState:
    """A copy of ``state`` that owns its dicts and a copy of its incidence
    index, for :func:`advance`; ``state`` keeps its own. The index's tuples
    are shared, and a fold replaces an entry's tuple rather than changing
    it, so ``state``'s index stays exact."""
    copy = GraphState(state.phase, dict(state.nodes), dict(state.edges), state.params)
    copy._derived.incident = dict(state.incident)
    return copy


def advance(state: GraphState, delta: PhaseDelta) -> None:
    """Fold ``delta`` into ``state``'s own dicts and index, drop its degree
    histogram and move its phase on by one. ``state`` must be a
    :func:`working_copy`, which no other state shares a dict with.
    ``metrics`` of a working state counts its edges afresh, in O(E)."""
    fold(delta, state)
    state._derived.histogram = None
    object.__setattr__(state, "phase", state.phase + 1)


def _new_edge(key: tuple[int, int], weight: float) -> EdgeRecord:
    """A weight built from ln(mass sum), which is inf if the sum overflows."""
    if not math.isfinite(weight):
        raise InputError(f"weight of edge {key} overflows the float range: {weight}")
    return EdgeRecord(weight)


def settle_delta(state: GraphState) -> PhaseDelta:
    """Settlement: turn the raw phase-0 inputs into the settled phase-1 state.

    Every node's mass grows by the summed reinforcement of its incident
    initial weights (absent pairs contribute nothing); afterwards every
    existing edge is re-weighted by ln of its endpoints' new mass sum.
    Pairs without an initial edge stay unconnected. A weight that
    overflows raises :class:`InputError`.
    """
    if state.phase != 0:
        raise SequencingError(
            f"settlement applies to a phase-0 state, got phase {state.phase}"
        )
    edges = sorted(state.edges.items())
    # ascending pairs hand each node its gains in ascending neighbour order
    gains = dict.fromkeys(state.nodes, 0.0)
    for (a, b), weight in edges:
        gain = reinforcement(weight, state.params)
        gains[a] += gain
        gains[b] += gain
    grown: dict[int, NodeRecord] = {}
    for i in sorted(state.nodes):
        if gains[i]:
            rec = state.nodes[i]
            grown[i] = NodeRecord(rec.mass + gains[i], rec.label, rec.alive)
    nodes = {**state.nodes, **grown}
    lifted: dict[tuple[int, int], EdgeRecord] = {}
    for key, weight in edges:
        a, b = key
        lifted[key] = _new_edge(key, weight + math.log(nodes[a].mass + nodes[b].mass))
    return PhaseDelta(grown, lifted)


def settle_phase_one(state: GraphState) -> GraphState:
    """The settled phase-1 state (see :func:`settle_delta`); ``state``
    keeps its fields. A phase-0 state must be one a run may start from,
    which :func:`~massgraph.graph.initial_inputs` decides."""
    if state.phase == 0:
        initial_inputs(state)
    delta = settle_delta(state)
    successor = working_copy(state)
    advance(successor, delta)
    return successor


def edge_delta(state: GraphState, event: AddEdge) -> PhaseDelta:
    """A dynamic edge input, in this fixed order.

    1. Both endpoint masses grow by the reinforcement of the initial
       weight; every other mass is untouched.
    2. The new edge's weight is the initial weight plus ln of the
       endpoints' *new* mass sum; if that overflows, InputError.
    3. Every pre-existing edge incident to either endpoint gains
       ln(mass increase) -- which is negative whenever the increase is
       below 1, so incident weights can shrink. Edges between other
       nodes are untouched. Each shift is independent of the others, so
       the visiting order does not matter; :func:`fold` finds the edges
       through the incidence index, never by scanning all edges.
    4. The phase advances by one.

    Both endpoints must be alive nodes. The pair must not currently be
    connected; a pair whose edge was pruned earlier may be reconnected.
    The delta holds two node records, the new edge's weight and the shift
    of step 3, whatever deg(k) + deg(l) is; it reads no incidence index.
    """
    k, l, w = event.k, event.l, event.initial_weight
    nodes = state.nodes
    for i in (k, l):
        rec = nodes.get(i)
        if rec is None:
            raise NodeLookupError(f"unknown node id {i}")
        if not rec.alive:
            raise NodeLookupError(f"node {i} has been deleted")
    key = edge_key(k, l)
    if key in state.edges:
        raise DuplicateEdgeError(
            f"nodes {k} and {l} are already connected; only one edge per pair"
        )
    gain = reinforcement(w, state.params)
    mass_k = nodes[k].mass + gain
    mass_l = nodes[l].mass + gain
    grown = {k: NodeRecord(mass_k, nodes[k].label), l: NodeRecord(mass_l, nodes[l].label)}
    shift = math.log(gain)
    added = {key: _new_edge(key, w + math.log(mass_k + mass_l))}
    return PhaseDelta(grown, added, None, shift)


def node_delta(state: GraphState, event: AddNode) -> PhaseDelta:
    """A static expansion: a fresh node with the next id; no existing mass
    or weight changes. The delta holds one node record. A state whose ids
    do not run 1 to n, which :func:`~massgraph.graph.validate_state`
    refuses, may already hold that id, and raises :class:`InputError`."""
    i = state.next_id
    if i in state.nodes:
        raise InputError(f"nodes must be numbered 1 to {i - 1}, but node {i} exists")
    return PhaseDelta({i: NodeRecord(event.initial_mass, event.label)}, {})


def prune_delta(state: GraphState, event: Prune) -> PhaseDelta:
    """Forgetting: remove every edge weighing less than the threshold, then
    every isolated alive node (including nodes that were already isolated).

    Deleted nodes keep their id and last mass but are marked dead; they
    never reappear and their masses stop counting toward totals. The
    delta holds a dead record per removed node and the report.
    """
    thr = event.threshold
    removed_edges = sorted((key, float(w)) for key, w in state.edges.items() if w < thr)
    lost: dict[int, int] = {}
    for pair, _ in removed_edges:
        for i in pair:
            lost[i] = lost.get(i, 0) + 1
    incident = state.incident
    # the nodes that were isolated, and those that lose every edge
    isolated = [i for i, keys in incident.items() if not keys]
    isolated += [i for i, n in lost.items() if len(incident[i]) == n]
    removed_nodes = tuple(sorted(i for i in isolated if state.nodes[i].alive))
    dead = {i: NodeRecord(state.nodes[i].mass, state.nodes[i].label, alive=False)
            for i in removed_nodes}
    report = PruneReport(threshold=thr, removed_edges=tuple(removed_edges),
                         removed_nodes=removed_nodes)
    return PhaseDelta(dead, {}, report)


def event_delta(state: GraphState, event: Event) -> PhaseDelta:
    """Dispatch one event to its delta; every event needs a settled state."""
    if state.phase < 1:
        raise SequencingError(
            f"events require a settled state (phase >= 1), got phase {state.phase}"
        )
    if isinstance(event, AddEdge):
        return edge_delta(state, event)
    if isinstance(event, AddNode):
        return node_delta(state, event)
    if isinstance(event, Prune):
        return prune_delta(state, event)
    raise TypeError(f"not an event: {event!r}")


def apply_event(state: GraphState, event: Event) -> tuple[GraphState, PruneReport | None]:
    """The state after one event, and a prune's report; ``state`` keeps its
    fields."""
    delta = event_delta(state, event)
    successor = working_copy(state)
    advance(successor, delta)
    return successor, delta.report
