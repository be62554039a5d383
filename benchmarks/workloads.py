"""The three workloads: seeded inputs, the timed job, and what runs untimed
around it (the outcome compared on every job, the correctness gate, and
the traced probe).

A job calls the package only through its public functions and wraps each
call in ``span(name)``; see :mod:`spans`. Every workload's ``build(seed)``
returns a fixed pool of inputs that the timed pass cycles through, so each
cycle runs the same mix of job sizes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import massgraph as mg

import author
from gate import final_state_problems, state_fields

OUT = Path(__file__).resolve().parent / "out"  # spans and scratch files, inside the checkout


@dataclass
class Result:
    phases: int  # simulated phases: settlement plus one per event
    initial: mg.GraphState | None
    events: list | None
    final: mg.GraphState | None
    output: object  # what the job reports back to its caller


@dataclass
class EngineCounts:
    """Counts computed from the states the traced probe sees; they repeat exactly."""

    touched: int = 0  # pre-existing edges at either endpoint, summed over edge events
    alive_edges: int = 0  # alive edges before each edge event, summed
    alive_pairs: int = 0  # unconnected alive pairs before each edge event, summed
    edges_removed: int = 0
    nodes_removed: int = 0
    parsed_bytes: int = 0
    history_bytes: int = 0
    changed_records: int = 0
    output_bytes: int = 0
    weights: list = field(default_factory=list)  # dynamic edge weights, for the kernel timing
    edge_sizes: list = field(default_factory=list)  # alive edges per edge event, in span order


def replay_engine(initial: mg.GraphState, events: list, span,
                  counts: EngineCounts) -> mg.GraphState:
    """Apply the events again through ``settle_phase_one``/``apply_event``,
    one span per call, counting what each call touched."""
    degree = dict.fromkeys(initial.node_ids(), 0)
    for a, b in initial.edges:
        degree[a] += 1
        degree[b] += 1
    alive = len(initial.alive_ids())
    with span("engine.settle"):
        state = mg.settle_phase_one(initial)
    for event in events:
        if isinstance(event, mg.AddEdge):
            n_edges = len(state.edges)
            counts.touched += degree[event.k] + degree[event.l]
            counts.alive_edges += n_edges
            counts.alive_pairs += alive * (alive - 1) // 2 - n_edges
            counts.edge_sizes.append(n_edges)
            counts.weights.append(event.initial_weight)
            with span("engine.edge_event"):
                state, _ = mg.apply_event(state, event)
            degree[event.k] += 1
            degree[event.l] += 1
        elif isinstance(event, mg.AddNode):
            with span("engine.node_event"):
                state, _ = mg.apply_event(state, event)
            degree[state.next_id - 1] = 0
            alive += 1
        else:
            with span("engine.prune"):
                state, report = mg.apply_event(state, event)
            for (a, b), _ in report.removed_edges:
                degree[a] -= 1
                degree[b] -= 1
            counts.edges_removed += len(report.removed_edges)
            counts.nodes_removed += len(report.removed_nodes)
            alive -= len(report.removed_nodes)
    return state


def _check_replay(final: mg.GraphState, replayed: mg.GraphState) -> None:
    if state_fields(final) != state_fields(replayed):
        raise RuntimeError("the traced engine replay diverged from the job's own run")


class Workload:
    """Defaults for workloads whose jobs return their final state."""

    def outcome(self, inp, result: Result):
        return state_fields(result.final), result.output

    def check(self, inp, result: Result, outcome) -> list[str]:
        return final_state_problems(result.initial, result.events, result.final)

    def probe(self, inp, result: Result, span, counts: EngineCounts) -> None:
        _check_replay(result.final, replay_engine(result.initial, result.events, span, counts))

    def close(self) -> None:
        pass


class Sweep(Workload):
    """The paper's experiment loop in the forgetting regime: each job
    generates a scenario from a drawn kernel, runs it, and computes
    ``metrics(k=3)`` on every snapshot. Nothing is written."""

    name = "sweep"
    MIX = (0.6, 0.2, 0.2)
    # Edge weights start in [2, 100]; a threshold of 20 prunes many of them,
    # and with a prune every fifth phase more than half of all nodes die.
    PRUNE_THRESHOLD = 20.0
    # Run lengths, equally often: the median and p90 job then fall in the
    # middle of a length class, not in the tail of one.
    RUNGS = (100, 141, 200, 283, 400)

    def __init__(self, rungs: tuple[int, ...] = RUNGS, per_rung: int = 6, nodes: int = 30):
        self.rungs, self.per_rung, self.nodes = rungs, per_rung, nodes

    def build(self, seed: int) -> list[mg.ScenarioConfig]:
        rng = random.Random(seed)
        return [mg.ScenarioConfig(seed=rng.randrange(2**31), n_initial=self.nodes,
                                  n_phases=phases, event_mix=self.MIX,
                                  prune_threshold=self.PRUNE_THRESHOLD,
                                  initial_edge_density=0.2,
                                  kernel=mg.KernelDraw(mu_range=(-1.0, 1.0),
                                                       sigma_range=(0.5, 2.0)))
                for phases in self.rungs for _ in range(self.per_rung)]

    def job(self, config: mg.ScenarioConfig, span) -> Result:
        with span("scenario.generate"):
            initial, events = mg.generate_scenario(config)
        with span("scenario.run_script"):
            history = mg.run_script(initial, events)
        with span("scenario.metrics", calls=len(history.snapshots)):
            reports = [mg.metrics(state, 3) for state in history.snapshots]
        return Result(1 + len(events), initial, events, history.final, reports)

    def check(self, inp, result: Result, outcome) -> list[str]:
        problems = super().check(inp, result, outcome)
        if len(result.output) != result.phases + 1:
            problems.append(f"{len(result.output)} metrics rows for {result.phases + 1} snapshots")
        return problems


class Replay(Workload):
    """The growth regime on scripts the benchmark authors itself (see
    :mod:`author`): each job parses a script, runs it, and computes
    ``metrics`` on the final state. ``generate_scenario`` is never called."""

    name = "replay"
    RUNGS = (100, 178, 316, 562, 1000)  # final edge counts: one order of magnitude

    def __init__(self, rungs: tuple[int, ...] = RUNGS, per_rung: int = 3):
        self.rungs, self.per_rung = rungs, per_rung

    def build(self, seed: int) -> list[bytes]:
        return author.authored_scripts(seed, self.rungs, self.per_rung)

    def job(self, data: bytes, span) -> Result:
        with span("io.parse_script"):
            initial, events, _ = mg.parse_script(data)
        with span("scenario.run_script"):
            history = mg.run_script(initial, events)
        with span("scenario.metrics"):
            report = mg.metrics(history.final, 3)
        return Result(1 + len(events), initial, events, history.final, report)

    def probe(self, data: bytes, result: Result, span, counts: EngineCounts) -> None:
        counts.parsed_bytes += len(data)
        super().probe(data, result, span, counts)


def changed_records(snapshots) -> int:
    """Node and edge records that differ from the previous snapshot (every
    record of the first snapshot counts), summed over the history."""
    total, prev_nodes, prev_edges = 0, {}, {}
    for state in snapshots:
        _, nodes, edges = state_fields(state)
        nodes = {rec[0]: rec for rec in nodes}
        edges = dict(edges)
        total += sum(1 for i, rec in nodes.items() if prev_nodes.get(i) != rec)
        total += sum(1 for key, w in edges.items() if prev_edges.get(key) != w)
        total += sum(1 for key in prev_edges if key not in edges)
        prev_nodes, prev_edges = nodes, edges
    return total


class Archive(Workload):
    """The README's command-line session, in process: ``gen``, then
    ``run --out --dot-every``, then ``stats``, on small scenarios with the
    default event mix, writing into a temporary directory."""

    name = "archive"
    TOP_K = 3
    RUNGS = (40, 57, 80, 113, 160)  # run lengths, equally often (see Sweep.RUNGS)

    def __init__(self, rungs: tuple[int, ...] = RUNGS, per_rung: int = 3, nodes: int = 12,
                 dot_every: int = 10, workdir: Path = OUT):
        self.rungs, self.per_rung, self.nodes, self.dot_every = rungs, per_rung, nodes, dot_every
        workdir.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="archive-", dir=workdir))
        self.script = self.dir / "scenario.json"
        self.history = self.dir / "history.json"

    def close(self) -> None:
        shutil.rmtree(self.dir)

    def build(self, seed: int) -> list[tuple[int, int]]:
        """(generator seed, phases) pairs."""
        rng = random.Random(seed)
        return [(rng.randrange(2**31), phases)
                for phases in self.rungs for _ in range(self.per_rung)]

    def config(self, inp: tuple[int, int]) -> mg.ScenarioConfig:
        """The scenario the ``gen`` command line below asks for."""
        gen_seed, phases = inp
        return mg.ScenarioConfig(seed=gen_seed, n_initial=self.nodes, n_phases=phases,
                                 event_mix=(0.7, 0.25, 0.05), prune_threshold=3.0,
                                 initial_edge_density=0.1)

    def job(self, inp: tuple[int, int], span) -> Result:
        gen_seed, phases = inp
        gen = ["gen", "--seed", str(gen_seed), "--nodes", str(self.nodes),
               "--phases", str(phases), "--mix", "0.7,0.25,0.05",
               "--prune-threshold", "3", "--density", "0.1", "--out", str(self.script)]
        run = ["run", "--script", str(self.script), "--out", str(self.history),
               "--dot-every", str(self.dot_every)]
        stats = ["stats", "--history", str(self.history), "--top-k", str(self.TOP_K)]
        printed = io.StringIO()
        with span("cli.gen"):
            codes = [mg.cli_main(gen)]
        with span("cli.run"):
            codes.append(mg.cli_main(run))
        with span("cli.stats"), contextlib.redirect_stdout(printed):
            codes.append(mg.cli_main(stats))
        if codes != [0, 0, 0]:
            raise RuntimeError(f"exit codes {codes} for gen, run, stats")
        return Result(phases, None, None, None, printed.getvalue())

    def outcome(self, inp, result: Result):
        """The printed stats and every file the job wrote; the files are
        removed so that the next job must write them again."""
        files = {}
        for path in sorted(self.dir.iterdir()):
            files[path.name] = path.read_bytes()
            path.unlink()
        return result.output, files

    def check(self, inp: tuple[int, int], result: Result, outcome) -> list[str]:
        printed, files = outcome
        problems = []
        initial, events = mg.generate_scenario(self.config(inp))
        s_initial, s_events, _ = mg.parse_script(files[self.script.name])
        if s_events != events or state_fields(s_initial) != state_fields(initial):
            problems.append("the script file does not re-parse to the generated scenario")
        history = mg.run_script(s_initial, s_events)
        loaded = mg.load_history(files[self.history.name])
        if [state_fields(s) for s in loaded.snapshots] != [state_fields(s) for s in history.snapshots]:
            problems.append("snapshots loaded back differ from the in-memory run")
        rows = [asdict(mg.metrics(s, self.TOP_K)) for s in loaded.snapshots]
        if json.loads(printed) != json.loads(json.dumps(rows)):
            problems.append("stats rows differ from metrics of the loaded snapshots")
        dots = {f"{self.history.stem}.phase{s.phase:04d}.dot": mg.export_dot(s)
                for s in history.snapshots if s.phase % self.dot_every == 0}
        if {name: files.get(name) for name in dots} != dots:
            problems.append("DOT files differ from export_dot of the snapshots")
        return problems + final_state_problems(s_initial, s_events, history.final)

    def probe(self, inp: tuple[int, int], result: Result, span, counts: EngineCounts) -> None:
        """The calls the three commands make, one span per call, then the
        engine replay."""
        with span("scenario.generate"):
            initial, events = mg.generate_scenario(self.config(inp))
        with span("io.script_document"):
            document = mg.script_document(initial, events)
        data = mg.canonical_json_bytes(document)
        with span("io.parse_script"):
            initial, events, _ = mg.parse_script(data)
        with span("io.script_document"):
            document = mg.script_document(initial, events)
        with span("scenario.run_script"):
            history = mg.run_script(initial, events, source=document)
        with span("io.export_history_json"):
            blob = mg.export_history_json(history)
        dot_states = [s for s in history.snapshots if s.phase % self.dot_every == 0]
        with span("io.export_dot", calls=len(dot_states)):
            dots = [mg.export_dot(state) for state in dot_states]
        with span("io.load_history"):
            loaded = mg.load_history(blob)
        with span("graph.validate_state", calls=len(loaded.snapshots)):
            for state in loaded.snapshots:
                mg.validate_state(state)
        with span("scenario.metrics", calls=len(loaded.snapshots)):
            for state in loaded.snapshots:
                mg.metrics(state, self.TOP_K)
        counts.parsed_bytes += len(data)
        counts.history_bytes += len(blob)
        counts.output_bytes += len(data) + len(blob) + sum(map(len, dots))
        counts.changed_records += changed_records(history.snapshots)
        _check_replay(history.final, replay_engine(initial, events, span, counts))


WORKLOADS = {w.name: w for w in (Sweep, Replay, Archive)}
