"""Graph state: node masses, a sparse symmetric weight structure, and a
phase counter.

A state holds only what the model defines: per node its mass, optional
label and liveness; per connected pair its weight, a float; the phase;
and the kernel parameters. Ids live only in the dict keys -- records never
copy them -- and the next node id is derived from them, not stored.

Every transition in :mod:`massgraph.engine` folds its change into a
working copy of its predecessor and never changes an old state's fields,
so snapshots can be kept and compared across phases; the dicts are not
write-protected (see :class:`GraphState`). The one state that changes is a
run's working state: the one loop of ``run_script`` and
``generate_scenario`` folds each event into one copy it owns, which shares
no dict with any other state and is handed out only when the run is over. Derived data and a generated
run are held beside the value. Node ids run 1 to n and are permanent:
deletion marks a node dead instead of renumbering, ids are never reused,
and :func:`validate_state` reports any other numbering.

A run and a script both start from a phase-0 state, and
:func:`initial_inputs` is the one rule for which states those are: the
ones :func:`new_graph` builds, with masses and weights > 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (DiagonalError, DuplicateEdgeError, InputError, MassGraphError,
                     NodeLookupError, ParameterError, named)
from .kernel import KernelParams, as_float, as_int


@dataclass(frozen=True, slots=True)
class NodeRecord:
    """One node: current mass, optional label, liveness."""

    mass: float
    label: str | None = None
    alive: bool = True


class EdgeRecord(float):
    """One undirected edge's weight, as its value (``weight`` is the exact
    float); its endpoints are the dict key. ``EdgeRecord(x)`` converts like
    ``float(x)``: the model's number rule applies where weights enter. Only
    a run's working state holds bare floats instead, until the run ends."""

    __slots__ = ()
    weight = property(float.__float__)


def above_one(value, what: str) -> float:
    """``value`` as a float, if :func:`as_float` takes it and it is greater than 1.

    Masses and weights obey this rule wherever they enter the model (the
    logarithmic kernel is undefined at or below 1).
    """
    v = as_float(value, what)
    if not v > 1:
        raise InputError(f"{what} must be > 1, got {value}")
    return v


def node_id(value) -> int:
    """``value`` as a node id, if it is an int >= 1 and not a bool: 1.0 and
    True hash like 1, so a dict lookup alone would accept them and a state
    would store them as keys."""
    return as_int(value, "node id", NodeLookupError, 1)


def node_label(value) -> str | None:
    """``value`` as a node label, if it is None or a string."""
    if value is not None and not isinstance(value, str):
        raise InputError(f"node labels are strings, got {value!r}")
    return value


def edge_key(i: int, j: int) -> tuple[int, int]:
    """Canonical dictionary key for the unordered pair {i, j}."""
    if i == j:
        raise DiagonalError(f"self-edge on node {i} is not allowed")
    return (i, j) if i < j else (j, i)


class _Derived:
    """What a :class:`GraphState` holds beside its value; a pickle or deep
    copy of it is an empty one."""

    __slots__ = ("incident", "histogram", "alive", "floor", "run")

    def __init__(self):
        self.incident = self.histogram = self.alive = self.floor = self.run = None

    def __reduce__(self):
        return _Derived, ()


@dataclass(frozen=True)
class GraphState:
    """Snapshot of the graph at one phase. The package never changes a
    state it has handed out, but ``nodes`` and ``edges`` are plain dicts,
    not write-protected: a caller's write reaches every state that shares
    the dict and leaves their derived data stale.

    ``edges`` is keyed by the canonical (low, high) pair, so symmetry and
    the zero diagonal hold by construction; an absent pair reads as
    weight 0. Its values are :class:`EdgeRecord` objects in every state but
    a run's working state, which no caller sees before the run ends.

    :attr:`incident` (node id -> keys of its edges),
    :attr:`degree_histogram`, the alive ids in ascending order (a tuple,
    which :meth:`alive_ids` lists) and a floor, a lower bound on every edge
    weight, are derived from ``nodes`` and ``edges``, and a generated
    phase-0 state holds its run for the first ``run_script`` of it. They
    sit in one private holder beside the value: it takes no part in
    equality, a pickle or deep copy holds an empty one, and a shallow copy
    shares it. A held index, histogram or alive tuple is exact, and a held
    floor is at most every weight, since only
    :func:`~massgraph.engine.advance` changes one, with the dicts; a state
    that holds none builds its own on first read.
    """

    phase: int
    nodes: dict[int, NodeRecord] = field(default_factory=dict)
    edges: dict[tuple[int, int], EdgeRecord] = field(default_factory=dict)
    params: KernelParams = field(default_factory=KernelParams)
    _derived: _Derived = field(default_factory=_Derived, init=False, compare=False, repr=False)

    @property
    def incident(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Every node id mapped to the keys of its edges, as ``edges`` holds them."""
        if self._derived.incident is None:
            index: dict[int, list[tuple[int, int]]] = {i: [] for i in self.nodes}
            for key in self.edges:
                for i in key:
                    index.setdefault(i, []).append(key)
            self._derived.incident = {i: tuple(keys) for i, keys in index.items()}
        return self._derived.incident

    @property
    def degree_histogram(self) -> tuple[int, ...]:
        """``h[d]`` is the number of alive nodes of degree ``d``, up to the
        highest degree; ``()`` when no node is alive."""
        if self._derived.histogram is None:
            degrees = {i: 0 for i, rec in self.nodes.items() if rec.alive}
            for a, b in self.edges:
                degrees[a] += 1
                degrees[b] += 1
            hist = [0] * (max(degrees.values(), default=-1) + 1)
            for d in degrees.values():
                hist[d] += 1
            self._derived.histogram = tuple(hist)
        return self._derived.histogram

    @property
    def _alive(self) -> tuple[int, ...]:
        """The alive ids, ascending."""
        if self._derived.alive is None:
            self._derived.alive = tuple(sorted(i for i, rec in self.nodes.items() if rec.alive))
        return self._derived.alive

    @property
    def _floor(self) -> float:
        """A lower bound on every edge weight: their least when first read,
        ``inf`` with no edge."""
        if self._derived.floor is None:
            self._derived.floor = min(self.edges.values(), default=math.inf)
        return self._derived.floor

    @property
    def next_id(self) -> int:
        """The id the next added node will receive: ids run 1 to n."""
        return len(self.nodes) + 1

    def _record(self, i: int) -> NodeRecord:
        try:
            return self.nodes[node_id(i)]
        except KeyError:
            raise NodeLookupError(f"unknown node id {i}") from None

    def mass(self, i: int) -> float:
        return self._record(i).mass

    def alive(self, i: int) -> bool:
        return self._record(i).alive

    def label(self, i: int) -> str | None:
        return self._record(i).label

    def weight(self, i: int, j: int) -> float:
        """Weight of the pair {i, j}; 0 for the diagonal and for absent edges."""
        self._record(i)
        self._record(j)
        if i == j:
            return 0.0
        return float(self.edges.get(edge_key(i, j), 0.0))

    def has_edge(self, i: int, j: int) -> bool:
        self._record(i)
        self._record(j)
        return i != j and edge_key(i, j) in self.edges

    def node_ids(self) -> list[int]:
        return sorted(self.nodes)

    def alive_ids(self) -> list[int]:
        return list(self._alive)

    def total_mass(self) -> float:
        """Sum of the masses of alive nodes, in ascending id order."""
        return sum(self.nodes[i].mass for i in self._alive)


def new_graph(masses: list[float], weights: list[tuple[int, int, float]],
              params: KernelParams | None = None) -> GraphState:
    """Build the phase-0 state from raw inputs.

    ``masses[i]`` seeds node i+1; ``weights`` lists (i, j, w) lists or
    tuples for the initially connected pairs. Every mass and weight must be
    strictly greater than 1 (the logarithmic kernel is undefined below
    that), pairs must be distinct and off-diagonal, and indices must be in
    1..n. ``params`` is None or a :class:`KernelParams`. An error's ``path``
    is ``masses[i]``, or ``edges[i]`` and the element at fault (``[2]``).
    A float mass, and an entry of two int ids, low then high, and a float
    weight, that the rules would take unchanged cost one check.
    """
    if params is None:
        params = KernelParams()
    elif not isinstance(params, KernelParams):
        raise ParameterError(f"params must be KernelParams, got {params!r}")
    n = len(masses)
    nodes: dict[int, NodeRecord] = {}
    for idx, raw in enumerate(masses):
        if type(raw) is not float or not 1 < raw < math.inf:
            raw = named(f"masses[{idx}]", above_one, raw, f"initial mass of node {idx + 1}")
        nodes[idx + 1] = NodeRecord(raw)
    edges: dict[tuple[int, int], EdgeRecord] = {}
    for idx, entry in enumerate(weights):
        if (type(entry) is tuple or type(entry) is list) and len(entry) == 3:
            i, j, w = entry
            if type(i) is int and type(j) is int and type(w) is float and 0 < i < j <= n \
                    and 1 < w < math.inf and (i, j) not in edges:
                edges[i, j] = EdgeRecord(w)
                continue
        try:  # the rules below name an element of the entry, if one is at fault
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise InputError(f"an initial edge is an (i, j, w) list or tuple, got {entry!r}")
            i, j = named("[0]", node_id, entry[0]), named("[1]", node_id, entry[1])
            key = edge_key(i, j)
            for at, endpoint in enumerate((i, j)):
                if endpoint > n:
                    raise NodeLookupError(
                        f"edge ({i}, {j}) references node {endpoint}, but only 1..{n} exist",
                        path=f"[{at}]")
            if key in edges:
                raise DuplicateEdgeError(f"duplicate initial edge for pair {key}")
            edges[key] = EdgeRecord(named("[2]", above_one, entry[2],
                                          f"initial weight of edge {key}"))
        except MassGraphError as err:
            err.path = f"edges[{idx}]{err.path or ''}"
            raise
    return GraphState(phase=0, nodes=nodes, edges=dict(sorted(edges.items())),
                      params=params)


def validate_state(state: GraphState) -> list[str]:
    """Check every structural invariant; returns one message per violation.

    Violations are data, not exceptions, whatever the dicts hold: a freshly
    built or engine-produced state must always come back clean, and tests
    corrupt states on purpose to see them named here.
    """
    return _problems(state)[0]


def _problems(state: GraphState) -> tuple[list[str], bool]:
    """:func:`validate_state`'s problems, and whether every record is one
    that :func:`new_graph` builds, which then cost one check each: a node
    keyed by an int id > 0, a :class:`NodeRecord` of a float mass in (1,
    inf) with no label and ``alive`` True, and, once such nodes are
    numbered 1 to n, an edge keyed by ints ``0 < a < b <= n`` with a float
    or :class:`EdgeRecord` weight in (1, inf). The rules would find nothing
    in such a record, nor :func:`initial_inputs`' own checks; every other
    record takes the rules."""
    problems: list[str] = []
    ids = plain = True
    try:
        as_int(state.phase, "phase", InputError, 0)
    except InputError as err:
        problems.append(str(err))
    if not isinstance(state.params, KernelParams):  # the kernel reads its fields
        problems.append(f"params must be KernelParams, got {state.params!r}")
    for i, rec in state.nodes.items():
        if type(i) is int and i > 0 and type(rec) is NodeRecord and type(rec.mass) is float \
                and 1 < rec.mass < math.inf and rec.label is None and rec.alive is True:
            continue
        plain = False
        try:
            node_id(i)
        except NodeLookupError as err:
            problems.append(f"node key {i!r}: {err}")
            ids = False
        if not isinstance(rec, NodeRecord):
            problems.append(f"node {i!r}: record must be a NodeRecord, got {rec!r}")
            continue
        try:
            node_label(rec.label)
        except InputError as err:
            problems.append(f"node {i}: {err}")
        if type(rec.alive) is not bool:  # 1 == True, but exports would differ
            problems.append(f"node {i}: alive must be a bool, got {rec.alive!r}")
        try:  # a dead node keeps its last mass, which obeys the rule too
            above_one(rec.mass, "mass")
        except InputError as err:
            problems.append(f"node {i}: {err}")
    n = len(state.nodes)
    if ids and max(state.nodes, default=0) != n:  # only ids: a bad key is named once
        problems.append(f"nodes must be numbered 1 to {n}")
        plain = False
    numbered = plain  # every id from 1 to n is an alive node's
    for key, weight in state.edges.items():
        if numbered and type(key) is tuple and len(key) == 2:
            a, b = key
            if type(a) is int and type(b) is int and 0 < a < b <= n \
                    and (type(weight) is float or type(weight) is EdgeRecord) \
                    and 1 < weight < math.inf:
                continue
        plain = False
        if not isinstance(key, tuple) or len(key) != 2:
            problems.append(f"edge key {key!r} is not an (i, j) pair")
            continue
        a, b = key
        try:
            node_id(a), node_id(b)
        except NodeLookupError as err:
            problems.append(f"edge key {key!r}: {err}")
            continue
        if a == b:
            problems.append(f"edge {key} sits on the diagonal")
            continue
        if a > b:
            problems.append(
                f"edge keyed {key} is not stored in canonical (low, high) form"
            )
        for endpoint in (a, b):
            rec = state.nodes.get(endpoint)
            if rec is None:
                problems.append(f"edge {key} references unknown node {endpoint}")
            elif isinstance(rec, NodeRecord) and not rec.alive:
                problems.append(f"edge {key} touches dead node {endpoint}")
        try:
            as_float(weight, "value")
        except InputError as err:
            problems.append(f"weight of edge {key}: {err}")
    return problems, plain


def initial_inputs(state: GraphState) -> tuple[list[float], list[tuple[int, int, float]]]:
    """The masses and ``(low, high, weight)`` triples, as floats, from which
    :func:`new_graph` rebuilds ``state``, if ``state`` is one a run may
    start from and a script can hold: :func:`validate_state` finds nothing,
    the phase is 0, the nodes are alive and unlabelled, and each weight is
    above 1. Otherwise one :class:`InputError` lists every problem. A state
    that :func:`new_graph` builds costs one check per record.
    """
    problems, plain = _problems(state)
    if state.phase != 0:
        problems.append(f"a run starts at phase 0, got phase {state.phase!r}")
    if not plain:
        problems += [f"node {i}: phase-0 nodes are alive and unlabelled"
                     for i, rec in state.nodes.items()
                     if isinstance(rec, NodeRecord) and (not rec.alive or rec.label is not None)]
        problems += [f"initial weight of edge {key} must be > 1, got {w}"
                     for key, w in state.edges.items() if isinstance(w, (int, float)) and w <= 1]
    if problems:
        raise InputError("invalid phase-0 state: " + "; ".join(problems))
    return ([float(state.nodes[i].mass) for i in range(1, len(state.nodes) + 1)],
            [(a, b, float(w)) for (a, b), w in sorted(state.edges.items())])
