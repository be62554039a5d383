"""Benchmark of the massgraph simulator: one workload per run.

Run from the repository root::

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 20 --trace 0

A run sets up (a fresh-interpreter ``import massgraph`` plus building the
workload's inputs from ``--seed``, several times), runs the correctness
gate once per input, then the timed pass: it cycles through the inputs in
one process, one job at a time (a closed loop with one client), until the
jobs have run for ``--seconds`` and at least ``MIN_JOBS`` jobs are done.
Every timed job's outcome is compared with the gate's, outside the timed
region. An untimed ``tracemalloc`` pass follows. With ``--trace 1`` a
traced pass runs last and the per-layer metrics are reported instead of
the end-to-end ones. The last line of standard output is one JSON object;
the lines before it list every metric with its unit and the sample counts.
The exit code is 0 only when every job passed the gate. Reported times are
scaled to a reference machine speed; see ``REFERENCE_S`` and README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from reference import reference_s
from spans import MemProbe, Tracer, nospan

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REQUIRED = (SRC / "massgraph" / "__init__.py", ROOT / "tests" / "dense_oracle.py",
            ROOT / "tests" / "support.py")
SETUP_REPEATS = 11
MIN_JOBS = 100  # so that at least ten jobs lie beyond p90
MB = 1e6
# Every reported time is scaled to the machine speed at which the fixed
# workload in reference.py takes this long. A shared 2-vCPU virtual machine
# drifted by up to 2x within minutes; the reference, timed before every
# job, drifts with it, and the package cannot move it.
REFERENCE_S = 0.003
REFERENCE_WINDOW = 11
TIME_UNITS = {"s": 1, "us": 1, "ns": 1, "MB/s": -1}  # power of the speed factor

END_TO_END = {
    "phases_per_s": "phases/s",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "peak_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "engine.edge_event.calls": "count",
    "engine.edge_event.busy_s": "s",
    "engine.edge_event.us_p50": "us",
    "engine.edge_event.us_p90": "us",
    "engine.edge_event.touched_share": "ratio",
    "engine.edge_event.exp_edges": "exponent",
    "engine.settle.calls": "count",
    "engine.settle.busy_s": "s",
    "engine.node_event.calls": "count",
    "engine.node_event.busy_s": "s",
    "engine.prune.calls": "count",
    "engine.prune.busy_s": "s",
    "engine.prune.edges_removed": "count",
    "engine.prune.nodes_removed": "count",
    "scenario.generate.busy_s": "s",
    "scenario.generate.self_s": "s",
    "scenario.generate.alive_pairs": "count",
    "scenario.run_script.busy_s": "s",
    "scenario.run_script.self_s": "s",
    "scenario.run_script.peak_mb": "MB",
    "scenario.metrics.calls": "count",
    "scenario.metrics.busy_s": "s",
    "io.parse_script.busy_s": "s",
    "io.parse_script.mb_per_s": "MB/s",
    "io.export_history_json.busy_s": "s",
    "io.export_history_json.mb": "MB",
    "io.export_history_json.peak_mb": "MB",
    "io.export_history_json.bytes_per_change": "B",
    "io.load_history.busy_s": "s",
    "io.load_history.mb_per_s": "MB/s",
    "io.load_history.peak_mb": "MB",
    "graph.validate_state.busy_s": "s",
    "io.export_dot.calls": "count",
    "io.export_dot.busy_s": "s",
    "io.script_document.busy_s": "s",
    "cli.gen.busy_s": "s",
    "cli.run.busy_s": "s",
    "cli.stats.busy_s": "s",
    "cli.import_s": "s",
    "kernel.reinforcement.ns_per_call": "ns",
    "trace.overhead_frac": "ratio",
    "output_mb": "MB",
    "failed_frac": "ratio",
}
ENGINE = ("engine.settle", "engine.edge_event", "engine.node_event", "engine.prune")


def fresh_import_s() -> float:
    """Seconds a new interpreter spends in its first ``import massgraph``."""
    code = ("import sys, time; sys.path.insert(0, {!r}); t = time.perf_counter(); "
            "import massgraph; print(time.perf_counter() - t)").format(str(SRC))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    return float(done.stdout)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def speed_factor(reference_times: list[float]) -> float:
    """What to multiply a time measured alongside these reference times by."""
    return REFERENCE_S / statistics.median(reference_times)


def setup(workload, seed: int):
    """Build the inputs ``SETUP_REPEATS`` times, each after a fresh import;
    returns the inputs and the scaled medians of set-up and import time."""
    imports, totals = [], []
    for _ in range(SETUP_REPEATS):
        factor = speed_factor([reference_s() for _ in range(3)])
        import_s = fresh_import_s()
        start = time.perf_counter()
        inputs = workload.build(seed)
        totals.append((import_s + time.perf_counter() - start) * factor)
        imports.append(import_s * factor)
    return inputs, statistics.median(totals), statistics.median(imports)


def gate(workload, inputs):
    """Run each input once, untimed; return the outcomes every timed job
    must reproduce, the problems found per input, and the phases per job."""
    expected, problems, phases = [], [], []
    for inp in inputs:
        try:
            result = workload.job(inp, nospan)
            outcome = workload.outcome(inp, result)
            problems.append(workload.check(inp, result, outcome))
            expected.append(outcome)
            phases.append(result.phases)
        except Exception as err:  # a failing job is counted, not fatal
            problems.append([f"{type(err).__name__}: {err}"])
            expected.append(None)
            phases.append(0)
    return expected, problems, phases


def timed_pass(workload, inputs, expected, problems, phases, seconds: float):
    """Cycle through the inputs until the jobs have run ``seconds`` and
    ``MIN_JOBS`` are done. Returns scaled job times per input, scaled
    per-cycle throughput, the speed factors, and the failure count.

    The reference is timed before every job. A job's time is scaled by the
    factor from the median of the ``REFERENCE_WINDOW`` reference times
    around it, which follows the machine's slow spells while smoothing the
    noise of single reference times."""
    raw, refs = [], []
    failed = 0
    gc.collect()
    while sum(raw) < seconds or len(raw) < MIN_JOBS:
        for index, inp in enumerate(inputs):
            refs.append(reference_s())
            start = time.perf_counter()
            try:
                result = workload.job(inp, nospan)
            except Exception:
                result = None
            raw.append(time.perf_counter() - start)
            if (result is None or problems[index]
                    or workload.outcome(inp, result) != expected[index]):
                failed += 1
    half = REFERENCE_WINDOW // 2
    factors = [speed_factor(refs[max(0, j - half):j + half + 1]) for j in range(len(raw))]
    scaled = [t * f for t, f in zip(raw, factors)]
    n = len(inputs)
    times = [scaled[index::n] for index in range(n)]
    cycle_rates = [sum(phases) / sum(scaled[c:c + n]) for c in range(0, len(scaled), n)]
    return times, cycle_rates, factors, failed


def memory_pass(workload, inputs, with_probe: bool):
    """Each input once under ``tracemalloc``; per span name, the largest
    extra memory a call held. Only inputs that passed the gate are given."""
    from workloads import EngineCounts
    probe = MemProbe()
    for inp in inputs:
        gc.collect()
        tracemalloc.start()
        try:
            with probe.span("job"):
                result = workload.job(inp, probe.span)
            if with_probe:
                workload.probe(inp, result, probe.span, EngineCounts())
        finally:
            tracemalloc.stop()
        workload.outcome(inp, result)
    return probe.peak_bytes


def traced_pass(workload, inputs):
    """Each input once with spans on, then its probe under the same job id;
    returns the spans, the counts and each job's speed factor (from the
    reference timed just before it). Only inputs that passed the gate are
    given."""
    from workloads import EngineCounts
    tracer, counts, factors = Tracer(), EngineCounts(), []
    gc.collect()
    for index, inp in enumerate(inputs):
        tracer.job = index
        factors.append(speed_factor([reference_s()]))
        with tracer.span("job"):
            result = workload.job(inp, tracer.span)
        workload.outcome(inp, result)
        with tracer.span("probe"):
            workload.probe(inp, result, tracer.span, counts)
    return tracer, counts, factors


def kernel_ns_per_call(weights: list[float], rounds: int = 5) -> float:
    """Median over ``rounds`` of ~50k ``reinforcement`` calls on ``weights``."""
    import massgraph as mg
    if not weights:
        return 0.0
    params = mg.KernelParams()
    reps = max(1, 50_000 // len(weights))
    samples = []
    for _ in range(rounds):
        start = time.perf_counter_ns()
        for _ in range(reps):
            for w in weights:
                mg.reinforcement(w, params)
        samples.append((time.perf_counter_ns() - start) / (reps * len(weights)))
    return statistics.median(samples)


def edge_exponent(tracer, counts, factors) -> float:
    """Slope of log per-event time against log alive edges, one point per
    job: the medians over its last half of edge events, the time scaled by
    the job's speed factor. 0 unless the jobs' edge counts span at least a
    factor of 4 (a size ladder)."""
    by_job: dict[int, list] = {}
    for span, n_edges in zip(tracer.named("engine.edge_event"), counts.edge_sizes):
        by_job.setdefault(span.job, []).append((max(n_edges, 1), span.seconds))
    xs, ys = [], []
    for job, pairs in by_job.items():
        tail = pairs[len(pairs) // 2:]
        xs.append(math.log(statistics.median(e for e, _ in tail)))
        ys.append(math.log(statistics.median(t for _, t in tail) * factors[job]))
    if len(xs) < 2 or max(xs) - min(xs) < math.log(4):
        return 0.0
    return statistics.linear_regression(xs, ys).slope


def layer_metrics(tracer, counts, factors, peaks, times, import_s, failed_frac) -> dict:
    """Per-layer metrics from the traced pass; its times are scaled by the
    median of the jobs' ``factors``, and ``times`` and ``import_s`` come
    scaled already."""
    factor = statistics.median(factors)
    m: dict[str, float] = {}
    for name in ENGINE + ("scenario.generate", "scenario.run_script", "scenario.metrics",
                          "io.parse_script", "io.export_history_json", "io.load_history",
                          "graph.validate_state", "io.export_dot", "io.script_document",
                          "cli.gen", "cli.run", "cli.stats"):
        m[f"{name}.calls"] = tracer.calls(name)
        m[f"{name}.busy_s"] = tracer.busy_s(name)
    edge_us = [s.seconds * 1e6 for s in tracer.named("engine.edge_event")]
    m["engine.edge_event.us_p50"] = statistics.median(edge_us) if edge_us else 0.0
    m["engine.edge_event.us_p90"] = p90(edge_us) if len(edge_us) > 1 else 0.0
    m["engine.edge_event.touched_share"] = _ratio(counts.touched, counts.alive_edges)
    m["engine.edge_event.exp_edges"] = edge_exponent(tracer, counts, factors)
    m["engine.prune.edges_removed"] = counts.edges_removed
    m["engine.prune.nodes_removed"] = counts.nodes_removed
    engine_s = sum(m[f"{name}.busy_s"] for name in ENGINE)
    generates = m["scenario.generate.calls"] > 0
    m["scenario.generate.self_s"] = m["scenario.generate.busy_s"] - engine_s if generates else 0.0
    m["scenario.generate.alive_pairs"] = counts.alive_pairs if generates else 0
    m["scenario.run_script.self_s"] = m["scenario.run_script.busy_s"] - engine_s
    m["scenario.run_script.peak_mb"] = peaks["scenario.run_script"] / MB
    m["io.parse_script.mb_per_s"] = _ratio(counts.parsed_bytes / MB, m["io.parse_script.busy_s"])
    jobs = len(times)
    m["io.export_history_json.mb"] = _ratio(counts.history_bytes / MB, jobs)
    m["io.export_history_json.peak_mb"] = peaks["io.export_history_json"] / MB
    m["io.export_history_json.bytes_per_change"] = _ratio(counts.history_bytes,
                                                          counts.changed_records)
    m["io.load_history.mb_per_s"] = _ratio(counts.history_bytes / MB, m["io.load_history.busy_s"])
    m["io.load_history.peak_mb"] = peaks["io.load_history"] / MB
    m["kernel.reinforcement.ns_per_call"] = kernel_ns_per_call(counts.weights)
    traced = sum(s.seconds * factors[s.job] for s in tracer.named("job"))
    m["trace.overhead_frac"] = _ratio(traced, sum(statistics.median(t) for t in times)) - 1
    m["output_mb"] = _ratio(counts.output_bytes / MB, jobs)
    m["failed_frac"] = failed_frac
    for name, value in m.items():
        power = TIME_UNITS.get(PER_LAYER.get(name), 0)
        if power:
            m[name] = value * factor ** power
    m["cli.import_s"] = import_s  # scaled at set-up
    return {name: m[name] for name in PER_LAYER}


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Every pass for one workload; returns the result object (with the
    sample counts under ``samples``) and the end-to-end and per-layer
    metrics."""
    inputs, setup_s, import_s = setup(workload, seed)
    expected, problems, phases = gate(workload, inputs)
    times, cycle_rates, factors, failed = timed_pass(workload, inputs, expected, problems,
                                                     phases, seconds)
    passed = [index for index, found in enumerate(problems) if not found]
    peaks = memory_pass(workload, [inputs[i] for i in passed], with_probe=trace)
    flat = [t for per_input in times for t in per_input]
    job_p90 = p90(flat)
    end_to_end = {
        "phases_per_s": statistics.median(cycle_rates),
        "job_s_p50": statistics.median(flat),
        "job_s_p90": job_p90,
        "peak_mb": peaks["job"] / MB,
        "setup_s": setup_s,
    }
    per_layer = {}
    tracer = None
    if trace:
        tracer, counts, factors = traced_pass(workload, [inputs[i] for i in passed])
        per_layer = layer_metrics(tracer, counts, factors, peaks, [times[i] for i in passed],
                                  import_s, failed / len(flat))
    samples = {"inputs": len(inputs), "jobs": len(flat), "cycles": len(cycle_rates),
               "jobs_beyond_p90": sum(t > job_p90 for t in flat),
               "setup_repeats": SETUP_REPEATS, "failed": failed,
               "speed_factor": round(statistics.median(factors), 4),
               "gate_problems": sorted({p for ps in problems for p in ps})[:5]}
    return {"end_to_end": end_to_end, "per_layer": per_layer, "samples": samples,
            "tracer": tracer}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "replay", "archive"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: run from a massgraph checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [p for p in (str(SRC), str(ROOT / "tests")) if p not in sys.path]
    from workloads import OUT, WORKLOADS

    workload = WORKLOADS[args.workload]()
    try:
        run = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    finally:
        workload.close()
    samples = run["samples"]
    if run["tracer"] is not None:
        OUT.mkdir(exist_ok=True)
        run["tracer"].write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    print(f"workload {args.workload}  seed {args.seed}  python {platform.python_version()}")
    print("samples " + " ".join(f"{k}={v}" for k, v in samples.items()))
    for group, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        for name, value in run[group].items():
            print(f"  {name:42s} {value:>16.6g} {units[name]}")
    reported, units = ((run["per_layer"], PER_LAYER) if args.trace
                       else (run["end_to_end"], END_TO_END))
    print(json.dumps({
        "correct": samples["failed"] == 0,
        "attempted": samples["jobs"],
        "failed": samples["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in reported.items()},
    }))
    return 0 if samples["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
