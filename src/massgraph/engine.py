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
records, the new edge's weight and ``shift = ln(gain)``, which
:func:`advance` adds to every weight at the two endpoints as a bare float;
only a run's working state keeps those until it ends, and no state handed
out holds one. So a delta costs O(1) per edge event, whatever the
endpoints' degrees. A run keeps less: its log (see
:class:`~massgraph.scenario.PhaseHistory`) holds an edge event's four
numbers and its new pair's key, from which :func:`_edge_change` rebuilds
the delta, and a prune's report, from which :func:`_prune_change` does; a
node event's delta is :func:`node_delta`'s, which reads only the next id.

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
    """What one transition changes: the node records it changes or adds, the
    edge weights it changes or adds, and, for a prune, its report, whose
    edges it removes.

    An edge event's delta holds its one new edge weight and ``shift``,
    ln(gain): the endpoints are that edge's key, and :func:`advance` adds
    ``shift`` to the weight of every edge at them that existed before.
    ``shift`` is None for every other transition."""

    nodes: dict[int, NodeRecord]
    edges: dict[tuple[int, int], EdgeRecord]
    report: PruneReport | None = None
    shift: float | None = None


def folded(state: GraphState, delta: PhaseDelta) -> GraphState:
    """``state``'s successor, with ``delta`` folded onto copies of the dicts
    it changes; a dict it leaves alone (the edges, for a node event or a
    prune that removes no edge) is shared. The successor takes ``state``'s
    index, so ``state`` builds another if it is read again, and shares its
    degree histogram, alive tuple and floor, and :func:`advance` steps
    each; the weights its shift leaves as floats become records."""
    nodes = dict(state.nodes) if delta.nodes else state.nodes
    changes_edges = delta.edges or (delta.report and delta.report.removed_edges)
    edges = dict(state.edges) if changes_edges else state.edges
    successor = GraphState(state.phase, nodes, edges, state.params)
    derived, held = successor._derived, state._derived
    derived.incident, held.incident = state.incident, None
    derived.histogram, derived.alive, derived.floor = held.histogram, held.alive, held.floor
    advance(successor, delta)
    if delta.shift is not None:  # the shift left bare floats at the endpoints
        ((a, b),) = delta.edges
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


def advance(state: GraphState, delta: PhaseDelta) -> None:
    """Fold ``delta`` into ``state``'s dicts, held index and held degree
    histogram, in place, and move its phase on by one; ``state`` shares no
    dict with another state. A changed record keeps its key's place, an
    added one goes last, a prune's survivors keep theirs, and a changed
    index entry gets a new tuple. An edge event's shift reaches the edges at
    its endpoints through the index, before the new key joins it, and leaves
    each a bare float, which only a run's working state keeps. A held
    histogram stays exact in O(touched), and is kept if no count changes:
    each touched node leaves its old degree's count if it was alive and
    joins its new one if it is alive now. A held alive tuple changes only
    when a node is added (it goes last, as ids grow) or a prune removes
    nodes. A held floor drops to the new weight of an edge event, and to its
    shifted weights only when the shift is negative; settlement only raises
    weights, by ln of a mass sum above 2, so it keeps the floor; after a
    prune every weight is at least its threshold, so the floor rises to it."""
    nodes, edges, incident = state.nodes, state.edges, state.incident
    derived, report = state._derived, delta.report
    hist, alive, floor = derived.histogram, derived.alive, derived.floor
    if hist is not None:
        touched = set(delta.nodes)
        for key in delta.edges:
            touched.update(key)
        if report is not None:
            for key, _ in report.removed_edges:
                touched.update(key)
        counts = list(hist)
        for i in touched:
            rec = nodes.get(i)
            if rec is not None and rec.alive:
                counts[len(incident[i])] -= 1
    for i, rec in delta.nodes.items():
        if i not in incident:
            incident[i] = ()
            if alive is not None and rec.alive:
                alive += (i,)
    nodes.update(delta.nodes)
    edges.update(delta.edges)
    shift = delta.shift
    if shift is not None:
        (new,) = delta.edges
        a, b = new
        shifted = incident[a] + incident[b]
        for key in shifted:
            edges[key] = edges[key] + shift
        incident[a] += (new,)
        incident[b] += (new,)
        if floor is not None:
            if edges[new] < floor:
                floor = edges[new]
            if shift < 0 and shifted:
                floor = min(floor, min(map(edges.__getitem__, shifted)))
    if report is not None:
        removed = [key for key, _ in report.removed_edges]
        for key in removed:
            del edges[key]
        for i in {i for key in removed for i in key}:
            incident[i] = tuple(key for key in incident[i] if key in edges)
        if floor is not None and floor < report.threshold:
            floor = report.threshold
        if alive is not None and report.removed_nodes:
            dead = set(report.removed_nodes)
            alive = tuple(i for i in alive if i not in dead)
    derived.alive, derived.floor = alive, floor
    if hist is not None:
        for i in touched:
            if nodes[i].alive:
                d = len(incident[i])
                if d >= len(counts):
                    counts += [0] * (d + 1 - len(counts))
                counts[d] += 1
        while counts and not counts[-1]:
            counts.pop()
        counted = tuple(counts)
        derived.histogram = hist if counted == hist else counted
    object.__setattr__(state, "phase", state.phase + 1)


def _records(edges: dict, keys) -> None:
    """Make each value of ``edges`` among ``keys`` that is a bare float, as
    :func:`advance`'s shift leaves it, an :class:`EdgeRecord`."""
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
       the visiting order does not matter; :func:`advance` finds the edges
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
    shift = math.log(gain)
    weight = _finite(key, w + math.log(mass_k + mass_l))
    return _edge_change(state, event, key, (mass_k, mass_l, weight, shift))


def _edge_change(state: GraphState, event: AddEdge, key: tuple[int, int],
                 numbers: tuple) -> PhaseDelta:
    """The delta of an edge event on ``state`` from its new pair's key and
    its four numbers: k's and l's grown masses, the new weight and the
    shift. The endpoints' labels are ``state``'s."""
    k, l = event.k, event.l
    mass_k, mass_l, weight, shift = numbers
    nodes = state.nodes
    grown = {k: NodeRecord(mass_k, nodes[k].label), l: NodeRecord(mass_l, nodes[l].label)}
    return PhaseDelta(grown, {key: EdgeRecord(weight)}, None, shift)


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
    delta holds a dead record per removed node and the report. A
    threshold at or below the state's floor reads no weight, and the scan
    for isolated nodes reads only the alive ids.
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
    removed_nodes = tuple(sorted(isolated))
    return _prune_change(state, PruneReport(threshold=thr, removed_edges=tuple(removed_edges),
                                            removed_nodes=removed_nodes))


def _prune_change(state: GraphState, report: PruneReport) -> PhaseDelta:
    """The delta of a prune on ``state`` from its report: a dead record per
    removed node."""
    nodes = state.nodes
    dead = {i: NodeRecord(nodes[i].mass, nodes[i].label, alive=False)
            for i in report.removed_nodes}
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
    fields. The successor holds records, never a shifted bare float."""
    delta = event_delta(state, event)
    successor = working_copy(state)
    advance(successor, delta)
    if delta.shift is not None:  # as in folded
        ((a, b),) = delta.edges
        _records(successor.edges, successor.incident[a] + successor.incident[b])
    return successor, delta.report
