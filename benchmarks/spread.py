"""Run the benchmark on several seeds and summarise each metric.

From the repository root::

    python3 benchmarks/spread.py --workloads sweep,replay,archive --seeds 1-10 \
        --out benchmarks/baseline.json

Each run is a separate ``benchmarks/run.py`` process, one at a time. For
every metric the summary gives the median and the quartiles of the runs
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median; the record also keeps each run's sample counts, the Python
version and the git commit the runs measured.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["samples"] = next(line for line in lines if line.startswith("samples "))[8:]
    return result


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else None, "values": values}


def git_commit() -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="sweep,replay,archive")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, help="write the record here as JSON")
    args = parser.parse_args()
    record = {"python": platform.python_version(), "commit": git_commit(),
              "seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [one_run(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        metrics = {name: summary([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        record["workloads"][workload] = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "samples": [r["samples"] for r in runs],
            "metrics": metrics,
        }
        for name, s in metrics.items():
            spread = "" if s["iqr_share"] is None else f"  iqr/median {s['iqr_share']:.4f}"
            print(f"{workload:8s} {name:42s} median {s['median']:.6g}{spread}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
