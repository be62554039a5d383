"""Seeded script author for the ``replay`` workload.

Scripts grow by preferential attachment: a new node is linked first, and
otherwise one endpoint is uniform among alive nodes while the other is
drawn in proportion to its degree, so hubs form and most edge events touch
a small share of the edges. Every initial and dynamic weight is >= 3:
then f(w) = ln w + g(w) > ln 3 > 1, so ln f(w) > 0 and every incident
shift is positive, settlement adds ln(mass sum) > 0, and every weight
stays >= 3. With ``Prune(3.0)`` no edge is ever pruned; a prune only
deletes the nodes that are isolated at that moment, which the author
tracks, so its alive set and edge set are exact and it never names a
dead node or an already-connected pair.
"""

from __future__ import annotations

import json
import random

import massgraph as mg

PRUNE_THRESHOLD = 3.0
WEIGHT_RANGE = (3.0, 30.0)
MASS_RANGE = (2.0, 50.0)
SEED_CLIQUE = 5
P_NODE = 0.2
P_PRUNE = 0.02


def author_script(rng: random.Random, n_edges: int) -> bytes:
    """A version-1 script whose final state has exactly ``n_edges`` edges."""
    masses = [rng.uniform(*MASS_RANGE) for _ in range(SEED_CLIQUE)]
    initial_edges = [[i, j, rng.uniform(*WEIGHT_RANGE)]
                     for i in range(1, SEED_CLIQUE + 1)
                     for j in range(i + 1, SEED_CLIQUE + 1)]
    neighbours = {i: set() for i in range(1, SEED_CLIQUE + 1)}
    ends: list[int] = []  # each node once per incident edge: a degree-weighted urn
    for i, j, _ in initial_edges:
        neighbours[i].add(j)
        neighbours[j].add(i)
        ends += [i, j]
    alive = sorted(neighbours)
    isolated: list[int] = []
    next_id = SEED_CLIQUE + 1
    n_current = len(initial_edges)
    events: list[dict] = []
    while n_current < n_edges:
        u = rng.random()
        if P_NODE <= u < P_NODE + P_PRUNE:
            events.append({"type": "prune", "threshold": PRUNE_THRESHOLD})
            dead = set(isolated)
            alive = [i for i in alive if i not in dead]
            isolated = []
            continue
        l = None
        if u >= P_NODE + P_PRUNE:
            k = isolated[0] if isolated else alive[rng.randrange(len(alive))]
            l = _attach_target(rng, k, ends, alive, neighbours[k])
        if l is None:  # a node event: drawn, or k has no free partner
            events.append({"type": "add_node", "mass": rng.uniform(*MASS_RANGE)})
            neighbours[next_id] = set()
            alive.append(next_id)
            isolated.append(next_id)
            next_id += 1
            continue
        if isolated and isolated[0] == k:
            isolated.pop(0)
        events.append({"type": "add_edge", "k": k, "l": l, "w": rng.uniform(*WEIGHT_RANGE)})
        neighbours[k].add(l)
        neighbours[l].add(k)
        ends += [k, l]
        n_current += 1
    doc = {"version": 1,
           "kernel": {"mu": rng.uniform(-1.0, 1.0), "sigma": rng.uniform(0.5, 2.0)},
           "initial": {"masses": masses, "edges": initial_edges},
           "events": events}
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _attach_target(rng: random.Random, k: int, ends: list[int], alive: list[int],
                   linked: set[int]) -> int | None:
    """A partner for ``k`` drawn in proportion to degree; None when ``k`` is
    already linked to every alive node (the author then adds a node)."""
    # Urn entries are never dead: a node enters the urn only when linked,
    # and no edge is ever pruned, so linked nodes never become isolated.
    for _ in range(32):
        l = ends[rng.randrange(len(ends))]
        if l != k and l not in linked:
            return l
    free = [i for i in alive if i != k and i not in linked]
    return free[rng.randrange(len(free))] if free else None


def authored_scripts(seed: int, rungs: tuple[int, ...], per_rung: int) -> list[bytes]:
    """``per_rung`` scripts for each edge count in ``rungs``, checked: the
    package parses each one, and no event names a dead node or a pair
    that is already connected."""
    rng = random.Random(seed)
    scripts = [author_script(rng, n_edges) for n_edges in rungs for _ in range(per_rung)]
    for index, data in enumerate(scripts):
        initial, events, _ = mg.parse_script(data)
        problems = script_problems(initial, events)
        if problems:
            raise ValueError(f"authored script {index}: {problems[0]}")
    return scripts


def script_problems(initial: mg.GraphState, events: list[mg.Event]) -> list[str]:
    """Walk the events and name any that touch a dead node or a pair that
    is already connected, tracking liveness the way prune defines it (with
    no edge ever pruned, exactly the isolated nodes die)."""
    degree = {i: 0 for i in initial.node_ids()}
    pairs = set(initial.edges)
    for a, b in pairs:
        degree[a] += 1
        degree[b] += 1
    next_id = initial.next_id
    problems = []
    for index, event in enumerate(events):
        if isinstance(event, mg.AddNode):
            degree[next_id] = 0
            next_id += 1
        elif isinstance(event, mg.Prune):
            degree = {i: d for i, d in degree.items() if d > 0}
        else:
            key = mg.edge_key(event.k, event.l)
            if event.k not in degree or event.l not in degree:
                problems.append(f"events[{index}] names a dead or unknown node")
            elif key in pairs:
                problems.append(f"events[{index}] reconnects pair {key}")
            else:
                pairs.add(key)
                degree[event.k] += 1
                degree[event.l] += 1
    return problems
