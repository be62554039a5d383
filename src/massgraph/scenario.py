"""Scenario execution: scripted runs, seeded random generation, metrics.

A scenario is a phase-0 state plus an ordered event list. Replay is fully
deterministic: the generator owns a single seeded RNG and consumes it in a
fixed order, and every transition computes the same delta from the same
state, so the same config always produces the same history byte for byte.
A run and the generator share one loop, which folds each event into one
working state (see :mod:`massgraph.engine`), so an event costs what it
touches, and keeps a log of numbers from which each phase's delta is
rebuilt when the states are read (see :class:`PhaseHistory`); the
generator draws each event there, and its phase-0 state holds that run,
which a run of the scenario exactly as generated takes instead.
"""

from __future__ import annotations

import math
import operator
import random
import struct
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property

from .engine import (
    AddEdge,
    AddNode,
    EdgeStep,
    Event,
    Prune,
    PruneReport,
    _records,
    _settle,
    advance,
    event_delta,
    folded,
)
from .errors import (GenerationError, InputError, MassGraphError, ParameterError,
                     SimulationError)
from .graph import GraphState, NodeRecord, initial_inputs, new_graph
from .kernel import KernelParams, as_float, as_int

_MAX_REDRAWS = 1000
_FOUR = struct.Struct("4d")  # an edge event's numbers, as a run's log holds them


def _numbers(name: str, values, count: int) -> list[float]:
    """``values`` as ``count`` floats, if it is a tuple or list of that many
    numbers that :func:`as_float` takes."""
    if not isinstance(values, (tuple, list)) or len(values) != count:
        raise ParameterError(f"{name} needs {count} numbers, got {values!r}")
    return [as_float(v, name, ParameterError) for v in values]


@dataclass(frozen=True)
class KernelDraw:
    """Ask the generator to draw kernel parameters once, from the seed."""

    mu_range: tuple[float, float]
    sigma_range: tuple[float, float]

    def __post_init__(self):
        mu_lo, mu_hi = _numbers("mu_range", self.mu_range, 2)
        sig_lo, sig_hi = _numbers("sigma_range", self.sigma_range, 2)
        if not mu_lo <= mu_hi:
            raise ParameterError(f"mu_range must be ordered, got {self.mu_range}")
        if not 0 < sig_lo <= sig_hi:
            raise ParameterError(f"sigma_range must satisfy 0 < lo <= hi, got {self.sigma_range}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a seeded random scenario needs.

    ``event_mix`` gives (add_edge, add_node, prune) probabilities summing
    to 1; ``n_phases`` is the final phase index the run should reach, at
    least 1, so the generator emits n_phases - 1 events (settlement owns
    phase 1).
    """

    seed: int
    n_initial: int
    mass_range: tuple[float, float] = (2.0, 100.0)
    weight_range: tuple[float, float] = (2.0, 100.0)
    initial_edge_density: float = 0.25
    n_phases: int = 1
    event_mix: tuple[float, float, float] = (1.0, 0.0, 0.0)
    prune_threshold: float = 0.0
    kernel: KernelParams | KernelDraw = field(default_factory=KernelParams)

    def __post_init__(self):
        # a seed of None would draw from OS entropy: a different scenario each call
        as_int(self.seed, "seed", ParameterError)
        as_int(self.n_initial, "n_initial", ParameterError, 0)
        as_int(self.n_phases, "n_phases", ParameterError, 1)  # a run reaches phase 1
        for name in ("mass_range", "weight_range"):
            values = getattr(self, name)
            lo, hi = _numbers(name, values, 2)
            if not 1 < lo <= hi:
                raise ParameterError(f"{name} must satisfy 1 < lo <= hi, got {values}")
        if not 0 <= as_float(self.initial_edge_density, "initial_edge_density",
                             ParameterError) <= 1:
            raise ParameterError(
                f"initial_edge_density must lie in [0, 1], got {self.initial_edge_density}"
            )
        mix = _numbers("event_mix", self.event_mix, 3)
        if min(mix) < 0:
            raise ParameterError(f"event_mix needs three probabilities >= 0, got {self.event_mix}")
        if abs(sum(mix) - 1.0) > 1e-12:
            raise ParameterError(f"event_mix must sum to 1, got {self.event_mix}")
        as_float(self.prune_threshold, "prune_threshold", ParameterError)
        if not isinstance(self.kernel, (KernelParams, KernelDraw)):
            raise ParameterError(f"kernel must be KernelParams or KernelDraw, got {self.kernel!r}")


class PhaseHistory:
    """Ordered record of one run: its states, the events that made them,
    and every prune's report.

    A run keeps only the phase-0 state, its events, a log of numbers and
    its working final state. The log holds, for each edge event, its
    delta, an :class:`~massgraph.engine.EdgeStep`, as the key of its new
    pair and four doubles packed in one bytearray (the key's low and high
    endpoints' grown masses, its new weight and ``shift``, the ln(gain)
    that :func:`~massgraph.engine.advance` adds to every weight at the
    endpoints); and each prune's report. Each walk settles the phase-0
    state again, into a working copy of it, so phase 0 keeps its own
    index, and a node event needs nothing beyond itself: its id is the
    next one. So the log grows with the changes, not with the weights
    a shift changes. Each phase's delta, its row of the log (a node
    event's record is built from the event alone), is folded onto copies
    (:func:`~massgraph.engine.folded`): a folded state shares each dict
    its delta leaves alone with its predecessor (the edges, after a node
    event or a prune that removes no edge), and takes its predecessor's
    incidence index and any degree histogram, alive ids and floor it
    holds, which :func:`~massgraph.engine.advance` keeps exact; the last
    state is the final state itself, which counts its own on first use.
    The numbers are the ones the run computed, so each record a fold builds
    equals the run's. Each fold reads ``events``, the run's own list, and
    the phase-0 state's dicts, which the package never changes; a caller
    that changes either changes what the folds rebuild.

    :meth:`states` yields the states in phase order and keeps none of
    them, so a reader that takes one phase at a time holds one state; it
    reads phase 0's histogram and alive ids, so :func:`metrics` of each
    reads no edge and no dead id.
    The history's writer folds the same deltas into one working copy of
    phase 0 in place instead, as the run did, rewrites only what each wrote,
    and hands that state, whose shifted weights are bare floats, to a hook.
    ``prune_reports`` are the log's reports, in order. ``snapshots`` is the
    list of the states, ``snapshots[i]`` the state at phase i, for callers
    that index or keep states: it is built on first read, and is then a
    plain, writable list.

    ``final`` is the state at the last phase, the run's working state, which
    the package never changes after :func:`run_script` returns (nor any
    other state); the run made the bare floats its steps left records when
    it ended, so ``final``, like every state that :meth:`states` and
    ``snapshots`` hold, holds only records. For a
    scenario from :func:`generate_scenario`, whose phase-0 state holds the
    generator's run until ``run_script`` takes it or the state is dropped,
    the log and ``final`` can be that run's. Once ``snapshots`` is built,
    ``final`` is ``snapshots[-1]``, so what is assigned there is what
    ``final`` returns. Reading only ``final`` never folds a delta.
    """

    def __init__(self, initial: GraphState, log: tuple, final: GraphState, events: list[Event]):
        self.events = events
        self.prune_reports = list(log[-1])
        self._initial = initial
        self._log = log
        self._final = final

    def _folds(self, in_place: bool = False) -> Iterator[tuple]:
        """Every state in phase order with its phase's delta: phase 0, then
        the settled phase-1 state, each with None, then each event's delta,
        taken from the log, or for a node event built from the event, and
        folded onto the state before it, which no delta reads; last comes
        ``final``. A history with no events settles nothing: ``final`` is
        its phase 1. The settled state, a working copy of phase 0, takes
        phase 0's histogram; ``in_place`` steps it in place and yields it
        at each phase between, valid until the next."""
        numbers, keys, reports = self._log
        keys, numbers, reports = iter(keys), _FOUR.iter_unpack(numbers), iter(reports)
        state = initial = self._initial
        delta = None
        yield state, delta
        for event in self.events:
            if state is initial:
                state = _settle(initial)
                state._derived.histogram = initial._derived.histogram
            elif in_place:
                advance(state, delta)
            else:
                state = folded(state, delta)
            yield state, delta
            if isinstance(event, AddEdge):
                delta = EdgeStep(next(keys), *next(numbers))
            elif isinstance(event, AddNode):
                delta = NodeRecord(event.initial_mass, event.label)
            else:
                delta = next(reports)
        yield self._final, delta

    def _steps(self, in_place: bool = False) -> Iterator[tuple]:
        """:meth:`_folds` afresh, or the built ``snapshots`` with no deltas."""
        built = vars(self).get("snapshots")
        if built is not None:
            return ((state, None) for state in built)
        return self._folds(in_place)

    def states(self) -> Iterator[GraphState]:
        """The states at phases 0 to the last, in order, as ``snapshots``
        holds them.

        Each call rebuilds and folds the deltas afresh and keeps no state it
        has yielded, so the calls are independent of each other and of
        ``snapshots``; once ``snapshots`` is built, it yields that list's
        entries instead.
        """
        self._initial.degree_histogram, self._initial._alive  # so that each fold hands them on
        return (state for state, _ in self._steps())

    @cached_property
    def snapshots(self) -> list[GraphState]:
        self._initial.degree_histogram, self._initial._alive  # as states() reads them
        return [state for state, _ in self._folds()]

    @property
    def final(self) -> GraphState:
        built = vars(self).get("snapshots")
        return self._final if built is None else built[-1]


def run_script(initial: GraphState, events: Iterable[Event], *,
               source: dict | None = None) -> PhaseHistory:
    """Settle the initial state, then apply the events in order.

    The events fold in place into one working copy of ``initial``; the
    returned history keeps ``initial``, the events and the run's log of
    numbers (see :class:`PhaseHistory`), and rebuilds and folds each
    phase's delta only when the states are read. ``initial`` must be a state
    a script can hold, which :func:`~massgraph.graph.initial_inputs`
    decides, and ``source``, when given, its script with ``events``; either
    failing raises :class:`InputError`, and an entry of ``events`` that is
    no event raises :class:`TypeError` naming its index, all before
    settlement. Any transition failure aborts the run with the phase index
    and offending event attached.

    A phase-0 state from :func:`generate_scenario` holds the generator's
    run until the first ``run_script`` of it takes it: if ``events`` and
    the state's nodes and edges are still the generated ones, that run's
    log and working state are the history's, computed once, in the loop
    this function runs. Otherwise, and on every later call, the events
    fold afresh.
    """
    events = list(events)  # an iterator is read once, here
    initial_inputs(initial)
    for i, event in enumerate(events):
        if not isinstance(event, Event):
            raise TypeError(f"events[{i}] is not an event: {event!r}")
    if source is not None:
        from .io import script_document  # here: io imports this module
        if source != script_document(initial, events):
            raise InputError("source is not the script of this run")
    kept, initial._derived.run = initial._derived.run, None
    if kept is not None:
        kept_events, nodes, edges, log, final = kept
        if events == kept_events and _holds(initial.nodes, nodes) \
                and _holds(initial.edges, edges):
            return PhaseHistory(initial, log, final, events)
    return PhaseHistory(initial, *_run(initial, lambda state, reports: events))


def _run(initial: GraphState,
         draw: Callable[[GraphState, list[PruneReport]], Iterable[Event]]) -> tuple:
    """The one loop of a run: settle ``initial`` and fold each event of
    ``draw(state, reports)``, read once the one before is folded, into one
    working copy, ``state``; ``reports`` are the prunes' reports so far.
    Returns the run's log (the edge events' steps, each packed as is, and
    the prunes' deltas, their reports; see
    :class:`PhaseHistory`), ``state``, whose weights the steps wrote stay
    bare floats until the loop's end makes them records, and the events; a
    failing transition raises :class:`SimulationError` with its phase."""
    try:
        state = _settle(initial)
    except MassGraphError as err:
        raise SimulationError(f"settlement failed: {err}", phase=1) from err
    numbers, keys, reports, events = bytearray(), [], [], []
    for event in draw(state, reports):
        try:
            delta = event_delta(state, event)
        except MassGraphError as err:
            raise SimulationError(
                f"phase {state.phase + 1} event {event!r} failed: {err}",
                phase=state.phase + 1, event=event,
            ) from err
        advance(state, delta)
        kind = type(delta)
        if kind is EdgeStep:  # its key and four numbers
            keys.append(delta.key)
            numbers += _FOUR.pack(*delta[1:])
        elif kind is PruneReport:  # the prune's report
            reports.append(delta)
        events.append(event)
    _records(state.edges, state.edges)  # once per run, O(E): the steps left floats
    return (numbers, keys, reports), state, events


def _holds(d: dict, kept: dict) -> bool:
    """Whether ``d`` holds the very records of ``kept``, in its order."""
    return list(d) == list(kept) and all(map(operator.is_, d.values(), kept.values()))


def _draw_kind(rng: random.Random, kinds: list[tuple[float, str]]) -> str:
    """One kind from the mix's (probability, kind) pairs with p > 0, by one
    ``rng.random()`` draw."""
    u = rng.random()
    acc = 0.0
    for p, kind in kinds[:-1]:
        acc += p
        if u < acc:
            return kind
    return kinds[-1][1]


def _free_pair(alive: tuple[int, ...], later: dict[int, int], edges: dict,
               r: int) -> tuple[int, int]:
    """The r-th (from 0) unconnected pair of the ascending ``alive`` ids, in
    ascending (low, high) order, found by counting each node's free later
    partners -- ``later[a]`` is how many of a's neighbours lie above a --
    instead of listing every free pair; b > a, so ``(a, b)`` is its key."""
    for idx, a in enumerate(alive):
        free = len(alive) - idx - 1 - later[a]
        if r < free:
            return a, [b for b in alive[idx + 1:] if (a, b) not in edges][r]
        r -= free
    raise IndexError("fewer free pairs than the rank asked for")


def generate_scenario(config: ScenarioConfig) -> tuple[GraphState, list[Event]]:
    """Draw a reproducible scenario from the config's seed.

    Draw order is fixed: kernel parameters (if requested), then initial
    masses, then one inclusion coin plus weight per candidate pair in
    ascending order, then the events. Edge events pick uniformly among the
    currently unconnected alive pairs; when none exist the event kind is
    redrawn, and generation fails after a bounded number of redraws.

    Drawing each event needs the state it follows, so the events are drawn
    inside :func:`run_script`'s loop, from its working state, and a failing
    transition raises :class:`SimulationError` with its phase, as there.
    The returned phase-0 state holds that run, with its own copy of the
    events and of the state's nodes and edges, until :func:`run_script`
    takes it or the state is dropped.
    """
    rng = random.Random(config.seed)
    if isinstance(config.kernel, KernelDraw):
        mu = rng.uniform(*config.kernel.mu_range)
        sigma = rng.uniform(*config.kernel.sigma_range)
        params = KernelParams(mu=mu, sigma=sigma)
    else:
        params = config.kernel
    masses = [rng.uniform(*config.mass_range) for _ in range(config.n_initial)]
    edges = []
    for i in range(1, config.n_initial + 1):
        for j in range(i + 1, config.n_initial + 1):
            if rng.random() < config.initial_edge_density:
                edges.append((i, j, rng.uniform(*config.weight_range)))
    initial = new_graph(masses, edges, params)

    kinds = [(p, kind) for p, kind in zip(config.event_mix, ("add_edge", "add_node", "prune"))
             if p > 0]

    def draw(state: GraphState, reports: list[PruneReport]) -> Iterator[Event]:
        # beside the working state, which holds its alive ids: each node's
        # count of neighbours above it, kept from each event and report
        later = dict.fromkeys(state.nodes, 0)
        for a, _ in state.edges:
            later[a] += 1
        for _ in range(config.n_phases - 1):
            for _attempt in range(_MAX_REDRAWS):
                kind = _draw_kind(rng, kinds)
                if kind == "add_edge":
                    alive = state._alive
                    n = len(alive)
                    free = n * (n - 1) // 2 - len(state.edges)
                    if not free:
                        continue
                    k, l = _free_pair(alive, later, state.edges, rng.randrange(free))
                    event = AddEdge(k=k, l=l, initial_weight=rng.uniform(*config.weight_range))
                elif kind == "add_node":
                    event = AddNode(initial_mass=rng.uniform(*config.mass_range))
                else:
                    event = Prune(threshold=config.prune_threshold)
                break
            else:
                raise GenerationError(
                    f"phase {state.phase + 1}: no unconnected alive pair is available "
                    f"and the event mix offers no alternative"
                )
            yield event
            if isinstance(event, AddEdge):
                later[event.k] += 1  # _free_pair gives k < l
            elif isinstance(event, AddNode):
                later[state.next_id - 1] = 0
            else:
                for (a, _), _ in reports[-1].removed_edges:
                    later[a] -= 1

    log, state, events = _run(initial, draw)
    initial._derived.run = (list(events), dict(initial.nodes), dict(initial.edges), log, state)
    return initial, events


@dataclass(frozen=True)
class MetricsReport:
    """Summary statistics of one snapshot, for analysis and export."""

    phase: int
    total_mass: float
    alive_nodes: int
    alive_edges: int
    max_mass_node: tuple[int, float] | None
    top_k_mass_share: float
    degree_histogram: tuple[int, ...]


def metrics(state: GraphState, k: int = 1) -> MetricsReport:
    """Mass and degree summary; the top-k share is 1 for graphs with at
    most k alive nodes (and for the empty graph, by convention).

    The alive ids and the degree histogram are those the state holds: a
    state that :class:`PhaseHistory` folds carries both, so its metrics
    cost O(A log A) in its A alive nodes and read no dead id and no edge;
    any other state (phase 0, ``final``, a hand-built one) scans its nodes
    and counts its edges once, in O(N + E). A total mass beyond the float
    range raises :class:`InputError` naming the phase."""
    as_int(k, "k", ParameterError, 1)
    alive = state._alive
    nodes = state.nodes
    masses = [nodes[i].mass for i in alive]
    total = sum(masses)
    if not math.isfinite(total):
        raise InputError(f"phase {state.phase}: the total mass of the alive nodes "
                         f"overflows the float range")
    if not alive:
        return MetricsReport(phase=state.phase, total_mass=0.0, alive_nodes=0,
                             alive_edges=0, max_mass_node=None,
                             top_k_mass_share=1.0, degree_histogram=())
    best_mass = max(masses)  # the first of equal masses, so the lowest id
    share = sum(sorted(masses, reverse=True)[:k]) / total if len(alive) > k else 1.0
    return MetricsReport(phase=state.phase, total_mass=total, alive_nodes=len(alive),
                         alive_edges=len(state.edges),
                         max_mass_node=(alive[masses.index(best_mass)], best_mass),
                         top_k_mass_share=share, degree_histogram=state.degree_histogram)
