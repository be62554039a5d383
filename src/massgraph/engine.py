"""Phase transitions: settlement, edge and node arrivals, threshold pruning.

Each transition is a pure function from one :class:`GraphState` to the
next; the phase counter advances by exactly one per applied event. All
iteration orders are fixed (ascending ids / ascending endpoint pairs) so
that identical inputs reproduce bit-identical states.

The neighbour index (:attr:`GraphState.neighbours`) is derived from a
state's edges and never mutated. An edge event reads it to find the edges
at its endpoints, so its cost follows their degrees, not the edge count.
Every transition hands its successor an index: settlement, which keeps the
edge set, hands on its predecessor's; the others a copy-on-write update (a
new outer dict, new tuples only for the nodes that changed). Only a state no
transition produced builds one, on first use. Every transition drops its
predecessor's index, so of a chain of states only the newest holds one and
kept snapshots do not grow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DuplicateEdgeError, InputError, NodeLookupError, SequencingError
from .graph import EdgeRecord, GraphState, NodeRecord, above_one, edge_key, node_id
from .kernel import as_float, reinforcement


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


def _successor(state: GraphState, phase: int, nodes: dict, edges: dict,
               neighbours: dict) -> GraphState:
    """The state after ``state``, holding ``neighbours`` as its index;
    ``state`` drops its own."""
    successor = GraphState(phase, nodes, edges, state.params)
    vars(state).pop("neighbours", None)
    vars(successor)["neighbours"] = neighbours
    return successor


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
        new_nodes[i] = NodeRecord(rec.mass + gains[i], rec.label, rec.alive) if gains[i] else rec
    new_edges: dict[tuple[int, int], EdgeRecord] = {}
    for key, edge in edges:
        a, b = key
        lifted = edge.weight + math.log(new_nodes[a].mass + new_nodes[b].mass)
        new_edges[key] = _new_edge(key, lifted)
    return _successor(state, 1, new_nodes, new_edges, state.neighbours)


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
       the visiting order does not matter; the edges are found through
       the neighbour index, never by scanning all edges.
    4. The phase advances by one.

    The pair must not currently be connected; a pair whose edge was pruned
    earlier may be reconnected.
    """
    if state.phase < 1:
        raise SequencingError(
            f"edge events require a settled state (phase >= 1), got phase {state.phase}"
        )
    for i in (k, l):
        rec = state.nodes.get(node_id(i))
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
    mass_k = state.nodes[k].mass + gain
    mass_l = state.nodes[l].mass + gain
    new_nodes[k] = NodeRecord(mass_k, state.nodes[k].label)
    new_nodes[l] = NodeRecord(mass_l, state.nodes[l].label)

    delta = math.log(gain)
    edges = state.edges
    new_edges = dict(edges)
    neighbours = state.neighbours
    for i in (k, l):
        for j in neighbours[i]:
            pair = (i, j) if i < j else (j, i)
            new_edges[pair] = EdgeRecord(edges[pair].weight + delta)
    new_edges[key] = _new_edge(key, w + math.log(mass_k + mass_l))
    handed = dict(neighbours)
    handed[k] = neighbours[k] + (l,)
    handed[l] = neighbours[l] + (k,)
    return _successor(state, state.phase + 1, new_nodes, new_edges, handed)


def apply_node_event(state: GraphState, initial_mass: float,
                     label: str | None = None) -> GraphState:
    """Add a fresh node with the next id; no existing mass or weight changes."""
    m = above_one(initial_mass, "initial mass of a new node")
    if label is not None and not isinstance(label, str):
        raise InputError(f"node labels are strings, got {label!r}")
    new_id = state.next_id
    new_nodes = dict(state.nodes)
    new_nodes[new_id] = NodeRecord(m, label)
    return _successor(state, state.phase + 1, new_nodes, state.edges,
                      {**state.neighbours, new_id: ()})


def apply_prune(state: GraphState, threshold: float) -> tuple[GraphState, PruneReport]:
    """Remove every edge weighing less than the threshold, then every
    isolated alive node (including nodes that were already isolated).

    Deleted nodes keep their id and last mass but are marked dead; they
    never reappear and their masses stop counting toward totals. A
    threshold that is not a finite number raises :class:`InputError`.
    """
    thr = as_float(threshold, "prune threshold")
    removed_edges: list[tuple[tuple[int, int], float]] = []
    kept: dict[tuple[int, int], EdgeRecord] = {}
    for key in sorted(state.edges):
        edge = state.edges[key]
        if edge.weight < thr:
            removed_edges.append((key, edge.weight))
        else:
            kept[key] = edge
    handed = dict(state.neighbours)
    for i in {i for key, _ in removed_edges for i in key}:
        handed[i] = tuple(j for j in handed[i] if edge_key(i, j) in kept)
    removed_nodes = tuple(i for i, rec in sorted(state.nodes.items()) if rec.alive and not handed[i])
    new_nodes = dict(state.nodes)
    for i in removed_nodes:
        new_nodes[i] = NodeRecord(state.nodes[i].mass, state.nodes[i].label, alive=False)
    report = PruneReport(threshold=thr, removed_edges=tuple(removed_edges),
                         removed_nodes=removed_nodes)
    return _successor(state, state.phase + 1, new_nodes, kept, handed), report


def apply_event(state: GraphState, event: Event) -> tuple[GraphState, PruneReport | None]:
    """Dispatch one event to its transition; prunes also return their report."""
    if isinstance(event, AddEdge):
        return apply_edge_event(state, event.k, event.l, event.initial_weight), None
    if isinstance(event, AddNode):
        return apply_node_event(state, event.initial_mass, event.label), None
    if isinstance(event, Prune):
        return apply_prune(state, event.threshold)
    raise TypeError(f"not an event: {event!r}")
