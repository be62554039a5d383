"""Phase transitions: settlement, edge and node arrivals, threshold pruning.

Each transition is a pure function from one :class:`GraphState` to the
next; the phase counter advances by exactly one per applied event. All
iteration orders are fixed (ascending ids / ascending endpoint pairs) so
that identical inputs reproduce bit-identical states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DuplicateEdgeError, InputError, NodeLookupError, ParameterError, SequencingError
from .graph import EdgeRecord, GraphState, NodeRecord, above_one, as_float, edge_key
from .kernel import reinforcement


@dataclass(frozen=True)
class AddEdge:
    """Dynamic input: connect nodes k and l with a fresh initial weight > 1."""

    k: int
    l: int
    initial_weight: float


@dataclass(frozen=True)
class AddNode:
    """Static expansion: a new node with an initial mass > 1."""

    initial_mass: float
    label: str | None = None


@dataclass(frozen=True)
class Prune:
    """Forgetting: drop edges below the threshold, then delete isolated nodes."""

    threshold: float


Event = AddEdge | AddNode | Prune


@dataclass(frozen=True)
class PruneReport:
    """What one prune removed: edges with their last weights, then node ids."""

    threshold: float
    removed_edges: tuple[tuple[tuple[int, int], float], ...]
    removed_nodes: tuple[int, ...]


def _new_edge(key: tuple[int, int], weight: float) -> EdgeRecord:
    """A weight built from ln(mass sum), which is inf if the sum overflows."""
    if not math.isfinite(weight):
        raise InputError(f"weight of edge {key} overflows the float range: {weight}")
    return EdgeRecord(weight)


def settle_phase_one(state: GraphState) -> GraphState:
    """Turn the raw phase-0 inputs into the settled phase-1 state.

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
    for (a, b), edge in edges:
        gain = reinforcement(edge.weight, state.params)
        gains[a] += gain
        gains[b] += gain
    new_nodes: dict[int, NodeRecord] = {}
    for i in sorted(state.nodes):
        rec = state.nodes[i]
        new_nodes[i] = replace(rec, mass=rec.mass + gains[i]) if gains[i] else rec
    new_edges: dict[tuple[int, int], EdgeRecord] = {}
    for key, edge in edges:
        a, b = key
        lifted = edge.weight + math.log(new_nodes[a].mass + new_nodes[b].mass)
        new_edges[key] = _new_edge(key, lifted)
    return replace(state, phase=1, nodes=new_nodes, edges=new_edges)


def apply_edge_event(state: GraphState, k: int, l: int,
                     initial_weight: float) -> GraphState:
    """Apply one dynamic edge input, in this fixed order.

    1. Both endpoint masses grow by the reinforcement of the initial
       weight; every other mass is untouched.
    2. The new edge's weight is the initial weight plus ln of the
       endpoints' *new* mass sum; if that overflows, InputError.
    3. Every pre-existing edge incident to either endpoint gains
       ln(mass increase) -- which is negative whenever the increase is
       below 1, so incident weights can shrink. Edges between other
       nodes are untouched. Each shift is independent of the others, so
       the visiting order does not matter.
    4. The phase advances by one.

    The pair must not currently be connected; a pair whose edge was pruned
    earlier may be reconnected.
    """
    if state.phase < 1:
        raise SequencingError(
            f"edge events require a settled state (phase >= 1), got phase {state.phase}"
        )
    for i in (k, l):
        # 1.0 and True hash like 1, so a dict lookup alone would accept them
        if isinstance(i, bool) or not isinstance(i, int):
            raise NodeLookupError(f"node ids are integers, got {i!r}")
        rec = state.nodes.get(i)
        if rec is None:
            raise NodeLookupError(f"unknown node id {i}")
        if not rec.alive:
            raise NodeLookupError(f"node {i} has been deleted")
    key = edge_key(k, l)
    if key in state.edges:
        raise DuplicateEdgeError(
            f"nodes {k} and {l} are already connected; only one edge per pair"
        )
    w = above_one(initial_weight, "dynamic edge weight")

    gain = reinforcement(w, state.params)
    new_nodes = dict(state.nodes)
    new_nodes[k] = replace(state.nodes[k], mass=state.nodes[k].mass + gain)
    new_nodes[l] = replace(state.nodes[l], mass=state.nodes[l].mass + gain)

    delta = math.log(gain)
    new_edges = dict(state.edges)
    for (a, b), edge in state.edges.items():
        if a == k or a == l or b == k or b == l:
            new_edges[a, b] = EdgeRecord(edge.weight + delta)
    new_edges[key] = _new_edge(key, w + math.log(new_nodes[k].mass + new_nodes[l].mass))
    return replace(state, phase=state.phase + 1, nodes=new_nodes, edges=new_edges)


def apply_node_event(state: GraphState, initial_mass: float,
                     label: str | None = None) -> GraphState:
    """Add a fresh node with the next id; no existing mass or weight changes."""
    m = above_one(initial_mass, "initial mass of a new node")
    if label is not None and not isinstance(label, str):
        raise InputError(f"node labels are strings, got {label!r}")
    new_nodes = dict(state.nodes)
    new_nodes[state.next_id] = NodeRecord(mass=m, label=label)
    return replace(state, phase=state.phase + 1, nodes=new_nodes)


def apply_prune(state: GraphState, threshold: float) -> tuple[GraphState, PruneReport]:
    """Remove every edge weighing less than the threshold, then every
    isolated alive node (including nodes that were already isolated).

    Deleted nodes keep their id and last mass but are marked dead; they
    never reappear and their masses stop counting toward totals.
    """
    thr = as_float(threshold, "prune threshold")
    if not math.isfinite(thr):
        raise ParameterError(f"prune threshold must be finite, got {threshold}")
    removed_edges: list[tuple[tuple[int, int], float]] = []
    kept: dict[tuple[int, int], EdgeRecord] = {}
    for key in sorted(state.edges):
        edge = state.edges[key]
        if edge.weight < thr:
            removed_edges.append((key, edge.weight))
        else:
            kept[key] = edge
    degree = {i: 0 for i, rec in state.nodes.items() if rec.alive}
    for a, b in kept:
        degree[a] += 1
        degree[b] += 1
    removed_nodes = tuple(i for i in sorted(degree) if degree[i] == 0)
    new_nodes = dict(state.nodes)
    for i in removed_nodes:
        new_nodes[i] = replace(state.nodes[i], alive=False)
    report = PruneReport(threshold=thr, removed_edges=tuple(removed_edges),
                         removed_nodes=removed_nodes)
    next_state = replace(state, phase=state.phase + 1, nodes=new_nodes, edges=kept)
    return next_state, report


def apply_event(state: GraphState, event: Event) -> tuple[GraphState, PruneReport | None]:
    """Dispatch one event to its transition; prunes also return their report."""
    if isinstance(event, AddEdge):
        return apply_edge_event(state, event.k, event.l, event.initial_weight), None
    if isinstance(event, AddNode):
        return apply_node_event(state, event.initial_mass, event.label), None
    if isinstance(event, Prune):
        return apply_prune(state, event.threshold)
    raise TypeError(f"not an event: {event!r}")
