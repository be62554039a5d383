"""Phase transitions: settlement, edge and node arrivals, threshold pruning.

An event checks its own fields where it is built: :class:`AddEdge`,
:class:`AddNode` and :class:`Prune` apply the model's number rules from
graph and kernel (ids >= 1 that differ, masses and weights > 1, a finite
threshold, a string label) and store each number as the float they
return, so every event that exists is one the model defines. Valid fields
of the exact type cost one check; a refusal names its field in ``path``.

Each transition first computes its delta from a state it only reads
(:func:`settle_delta`, :func:`edge_delta`, :func:`node_delta`,
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

Each event's delta is the row a run's log (see
:class:`~massgraph.scenario.PhaseHistory`) keeps of it, and settlement's is
a :class:`PhaseDelta`. An edge event's is its step, an :class:`EdgeStep`:
the rule, not its result, as its key, the endpoints' grown masses, the new
weight and ``shift = ln(gain)``, which :func:`advance` adds to every weight
at the two endpoints as a bare float, as it leaves the new weight; only a
working state keeps those (a run's, until it ends, and the history
writer's), and no state handed out holds one. So a step costs O(1),
whatever the endpoints' degrees, and builds no record. A node event's delta
is its new :class:`~massgraph.graph.NodeRecord`, and a prune's is its
:class:`PruneReport`, from which :func:`advance` makes the dead records.

:func:`advance` is the one step that changes a state: its dicts, and the
incidence index (:attr:`GraphState.incident`, node id -> keys of its
edges), degree histogram, alive ids and weight floor it holds beside
them, each kept exact (the floor: at most every weight). It reads the
index to find the edges at an edge event's endpoints, so the event's cost
follows their degrees, not the edge count, and it builds no key to reach
them. :func:`folded` hands each on to the successor it steps. A node
event costs O(1): ids run 1 to n, so the new node's id is n + 1. A prune
whose threshold is at most the floor reads no weight, and every prune
reads the alive ids, not the dead ones.
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
    """Settlement's delta: the node records it grows and every edge's
    lifted weight. Each event's delta is its row of a run's log instead: an
    edge event's, its :class:`EdgeStep`; a node event's, its new
    :class:`~massgraph.graph.NodeRecord`; a prune's, its
    :class:`PruneReport`."""

    nodes: dict[int, NodeRecord]
    edges: dict[tuple[int, int], EdgeRecord]


class EdgeStep(NamedTuple):
    """An edge event's delta, which is one row of a run's log: its new
    pair's key, the grown masses of the key's low and high endpoints, the
    new edge's weight and ``shift``, ln(gain), which :func:`advance` adds to
    the weight of every edge at the endpoints that existed before."""

    key: tuple[int, int]
    mass_low: float
    mass_high: float
    weight: float
    shift: float


def folded(state: GraphState, delta: PhaseDelta | EdgeStep | NodeRecord | PruneReport
           ) -> GraphState:
    """``state``'s successor, with ``delta`` folded onto copies of the dicts
    its kind changes; a dict it leaves alone (the edges, for a node event or
    a prune that removes no edge) is shared. The successor takes ``state``'s
    index, so ``state`` builds another if it is read again, and shares its
    degree histogram, alive tuple and floor, and :func:`advance` steps
    each; the weights an edge step leaves as floats become records."""
    kind = type(delta)
    if kind is PruneReport:
        copies = delta.removed_nodes, delta.removed_edges
    elif kind is PhaseDelta:
        copies = delta.nodes, delta.edges
    else:  # an edge step writes both dicts, a node event's record the nodes
        copies = True, kind is EdgeStep
    nodes = dict(state.nodes) if copies[0] else state.nodes
    edges = dict(state.edges) if copies[1] else state.edges
    successor = GraphState(state.phase, nodes, edges, state.params)
    derived, held = successor._derived, state._derived
    derived.incident, held.incident = state.incident, None
    derived.histogram, derived.alive, derived.floor = held.histogram, held.alive, held.floor
    advance(successor, delta)
    if kind is EdgeStep:
        a, b = delta.key
        _records(successor.edges, successor.incident[a] + successor.incident[b])
    return successor


def working_copy(state: GraphState) -> GraphState:
    """A copy of ``state`` that owns its dicts and a copy of its incidence
    index, for :func:`advance`, and shares any alive tuple and floor it
    holds; ``state`` keeps its own. The index's tuples are shared, and
    :func:`advance` replaces an entry's tuple rather than changing it, so
    ``state``'s index stays exact."""
    copy = GraphState(state.phase, dict(state.nodes), dict(state.edges), state.params)
    derived, held = copy._derived, state._derived
    derived.incident = dict(state.incident)
    derived.alive, derived.floor = held.alive, held.floor
    return copy


def advance(state: GraphState, delta: PhaseDelta | EdgeStep | NodeRecord | PruneReport) -> None:
    """Fold ``delta`` into ``state``'s dicts, held index and held degree
    histogram, in place, and move its phase on by one; ``state`` shares no
    dict with another state. Each kind takes its own branch. An edge step
    writes in O(deg(k) + deg(l)): its shift reaches the edges at its
    endpoints through the index, before its key joins their entries, and
    leaves each, like its new weight, a bare float, which only a working
    state keeps; its masses replace its endpoints' records in their places.
    Settlement's records replace theirs in their places and change no
    degree, no liveness and, as it only raises weights (by ln of a mass sum
    above 2), no floor. A node event's record goes last, under the next id,
    with an empty index entry and a count of degree 0. A prune deletes its
    report's edges, gives their endpoints' entries new tuples, replaces
    each removed node's record in its place by a dead one, and raises the
    floor to its threshold, which every weight left is at least. A held
    histogram stays exact in O(touched), and is kept if no count changes; a
    held alive tuple changes only when a node is added (it goes last, as
    ids grow) or a prune removes nodes; a held floor drops to the new weight
    of an edge event, and to its shifted weights only when the shift is
    negative."""
    nodes, edges, incident = state.nodes, state.edges, state.incident
    derived = state._derived
    hist, alive, floor = derived.histogram, derived.alive, derived.floor
    kind = type(delta)
    if kind is EdgeStep:
        new, mass_a, mass_b, weight, shift = delta
        a, b = new
        at_a, at_b = incident[a], incident[b]
        nodes[a] = NodeRecord(mass_a, nodes[a].label)
        nodes[b] = NodeRecord(mass_b, nodes[b].label)
        shifted = at_a + at_b
        for key in shifted:
            edges[key] = edges[key] + shift
        edges[new] = weight
        incident[a], incident[b] = at_a + (new,), at_b + (new,)
        if floor is not None:
            low = min([weight, *map(edges.__getitem__, shifted)]) if shift < 0 else weight
            derived.floor = low if low < floor else floor
        if hist is not None:  # a last 0, for a new highest degree
            counts = [*hist, 0]
            for d in (len(at_a), len(at_b)):
                counts[d] -= 1
                counts[d + 1] += 1
            derived.histogram = tuple(counts if counts[-1] else counts[:-1])
    elif kind is PruneReport:
        ends = {i for key, _ in delta.removed_edges for i in key}
        if hist is not None:  # a removed node lost its last edge here or had none
            touched = ends.union(delta.removed_nodes)
            counts = list(hist)
            for i in touched:
                counts[len(incident[i])] -= 1
        for key, _ in delta.removed_edges:
            del edges[key]
        for i in ends:
            incident[i] = tuple(key for key in incident[i] if key in edges)
        for i in delta.removed_nodes:
            rec = nodes[i]
            nodes[i] = NodeRecord(rec.mass, rec.label, alive=False)
        if floor is not None:
            derived.floor = max(floor, delta.threshold)
        if alive is not None and delta.removed_nodes:
            dead = set(delta.removed_nodes)
            derived.alive = tuple(i for i in alive if i not in dead)
        if hist is not None:
            for i in touched:
                if nodes[i].alive:
                    counts[len(incident[i])] += 1
            while counts and not counts[-1]:
                counts.pop()
            counted = tuple(counts)
            derived.histogram = hist if counted == hist else counted
    elif kind is PhaseDelta:
        nodes.update(delta.nodes)
        edges.update(delta.edges)
    else:  # a node event's record, under the next id
        i = len(nodes) + 1
        nodes[i] = delta
        incident[i] = ()
        if alive is not None:
            derived.alive = alive + (i,)
        if hist is not None:
            derived.histogram = (hist[0] + 1, *hist[1:]) if hist else (1,)
    object.__setattr__(state, "phase", state.phase + 1)


def _records(edges: dict, keys) -> None:
    """Make each value of ``edges`` among ``keys`` that is a bare float, as
    :func:`advance` leaves an edge step's weights, an :class:`EdgeRecord`."""
    for key in keys:
        if type(w := edges[key]) is float:
            edges[key] = EdgeRecord(w)


def _finite(key: tuple[int, int], weight: float) -> float:
    """A weight built from ln(mass sum), which is inf if the sum overflows."""
    if not math.isfinite(weight):
        raise InputError(f"weight of edge {key} overflows the float range: {weight}")
    return weight


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
        lifted[key] = EdgeRecord(_finite(key, weight + math.log(nodes[a].mass + nodes[b].mass)))
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


def edge_delta(state: GraphState, event: AddEdge) -> EdgeStep:
    """A dynamic edge input, in this fixed order.

    1. Both endpoint masses grow by the reinforcement of the initial
       weight; every other mass is untouched.
    2. The new edge's weight is the initial weight plus ln of the
       endpoints' *new* mass sum; if that overflows, InputError.
    3. Every pre-existing edge incident to either endpoint gains
       ln(mass increase) -- which is negative whenever the increase is
       below 1, so incident weights can shrink. Edges between other
       nodes are untouched. Each shift is independent of the others, so
       the visiting order does not matter; :func:`advance` finds the edges
       through the incidence index, never by scanning all edges.
    4. The phase advances by one.

    Both endpoints must be alive nodes. The pair must not currently be
    connected; a pair whose edge was pruned earlier may be reconnected.
    The delta is the event's :class:`EdgeStep`: its key, the grown masses,
    the new edge's weight and the shift of step 3, whatever deg(k) + deg(l)
    is; it builds no record and reads no incidence index.
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
    low, high = key
    mass_low = nodes[low].mass + gain
    mass_high = nodes[high].mass + gain
    shift = math.log(gain)
    weight = _finite(key, w + math.log(mass_low + mass_high))
    return EdgeStep(key, mass_low, mass_high, weight, shift)


def node_delta(state: GraphState, event: AddNode) -> NodeRecord:
    """A static expansion: a fresh node with the next id; no existing mass
    or weight changes. The delta is the new node's record, which
    :func:`advance` files under the next id. A state whose ids do not run 1
    to n, which :func:`~massgraph.graph.validate_state` refuses, may already
    hold that id, and raises :class:`InputError`."""
    i = state.next_id
    if i in state.nodes:
        raise InputError(f"nodes must be numbered 1 to {i - 1}, but node {i} exists")
    return NodeRecord(event.initial_mass, event.label)


def prune_delta(state: GraphState, event: Prune) -> PruneReport:
    """Forgetting: remove every edge weighing less than the threshold, then
    every isolated alive node (including nodes that were already isolated).

    Deleted nodes keep their id and last mass but are marked dead; they
    never reappear and their masses stop counting toward totals. The
    delta is the prune's report, from which :func:`advance` makes each
    removed node's record a dead one. A threshold at or below the state's
    floor reads no weight and no node record, and the scan for isolated
    nodes reads only the alive ids.
    """
    thr = event.threshold
    removed_edges = [] if thr <= state._floor else \
        sorted((key, float(w)) for key, w in state.edges.items() if w < thr)
    lost: dict[int, int] = {}
    for pair, _ in removed_edges:
        for i in pair:
            lost[i] = lost.get(i, 0) + 1
    nodes, incident = state.nodes, state.incident
    # the alive nodes that were isolated, and those that lose every edge
    isolated = [i for i in state._alive if not incident[i]]
    isolated += [i for i, n in lost.items() if len(incident[i]) == n and nodes[i].alive]
    return PruneReport(threshold=thr, removed_edges=tuple(removed_edges),
                       removed_nodes=tuple(sorted(isolated)))


def event_delta(state: GraphState, event: Event) -> EdgeStep | NodeRecord | PruneReport:
    """Dispatch one event to its delta, the row a run's log keeps of it
    (see :class:`PhaseDelta`); every event needs a settled state."""
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
    """The state after one event, and a prune's report, which is its delta;
    ``state`` keeps its fields. The successor holds records, never an edge
    step's bare float."""
    delta = event_delta(state, event)
    successor = working_copy(state)
    advance(successor, delta)
    if type(delta) is EdgeStep:
        a, b = delta.key  # as in folded
        _records(successor.edges, successor.incident[a] + successor.incident[b])
    return successor, delta if type(delta) is PruneReport else None


def _written(state: GraphState, delta: PhaseDelta | EdgeStep | NodeRecord | PruneReport) -> tuple:
    """The node ids and the edge keys that ``delta`` wrote when it was
    folded into ``state``, the state after it: an edge step's endpoints and
    the keys at them, its own among them; settlement's records; a node
    event's id, the last, and no key; a prune's dead ids and no key, as the
    keys it removed are gone."""
    kind = type(delta)
    if kind is EdgeStep:
        return delta.key, {key for i in delta.key for key in state.incident[i]}
    if kind is PruneReport:
        return delta.removed_nodes, ()
    if kind is PhaseDelta:
        return delta.nodes, delta.edges
    return (len(state.nodes),), ()  # a node event's record, filed last
