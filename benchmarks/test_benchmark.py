"""Tests of the benchmark itself, at tiny sizes.

Kept outside the repository's ``testpaths``; run them with::

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

sys.path[:0] = [str(run.SRC), str(run.ROOT / "tests")]

import massgraph as mg  # noqa: E402
import workloads  # noqa: E402
from author import script_problems  # noqa: E402
from gate import final_state_problems  # noqa: E402
from spans import nospan  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, workdir: Path):
    return {
        "sweep": lambda: workloads.Sweep(rungs=(20, 40), per_rung=1, nodes=6),
        "replay": lambda: workloads.Replay(rungs=(12, 40, 120), per_rung=1),
        "archive": lambda: workloads.Archive(rungs=(10, 20), per_rung=1, nodes=5, dot_every=5,
                                             workdir=workdir),
    }[name]


def run_main(monkeypatch, capsys, tmp_path, name: str, trace: int):
    monkeypatch.setitem(workloads.WORKLOADS, name, tiny(name, tmp_path))
    monkeypatch.setattr(workloads, "OUT", tmp_path)
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def perturb_final(history):
    """Shift one alive mass of the final snapshot by 1e-6, far above the gate's 1e-9."""
    final = history.snapshots[-1]
    i = final.alive_ids()[0]
    nodes = dict(final.nodes)
    nodes[i] = replace(nodes[i], mass=nodes[i].mass + 1e-6)
    history.snapshots[-1] = replace(final, nodes=nodes)
    return history


def test_spec_lists_the_workloads_and_metrics_the_runner_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in SPEC[key]} == units


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(monkeypatch, capsys, tmp_path, name, trace):
    code, result = run_main(monkeypatch, capsys, tmp_path, name, trace)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.MIN_JOBS
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_the_workloads_own_layers(monkeypatch, capsys, tmp_path, name):
    _, result = run_main(monkeypatch, capsys, tmp_path, name, 1)
    values = {key: m["value"] for key, m in result["metrics"].items()}
    own = {
        "sweep": ["scenario.generate.self_s", "scenario.generate.alive_pairs",
                  "engine.prune.nodes_removed", "scenario.metrics.calls"],
        "replay": ["engine.edge_event.touched_share", "engine.edge_event.exp_edges",
                   "io.parse_script.mb_per_s"],
        "archive": ["io.export_history_json.bytes_per_change", "io.load_history.peak_mb",
                    "graph.validate_state.busy_s", "io.export_dot.calls", "cli.stats.busy_s",
                    "output_mb"],
    }[name]
    assert all(values[key] != 0 for key in own), {key: values[key] for key in own}
    if name == "replay":
        assert values["scenario.generate.busy_s"] == 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_for_a_seed_are_byte_identical(tmp_path, name):
    workload = tiny(name, tmp_path)()
    try:
        first, again, other = workload.build(7), workload.build(7), workload.build(8)
    finally:
        workload.close()
    assert first == again and first != other
    if name == "sweep":
        scripts = [mg.canonical_json_bytes(mg.script_document(*mg.generate_scenario(c)))
                   for c in first + again]
        assert scripts[:len(first)] == scripts[len(first):]


def test_archive_jobs_write_identical_files(tmp_path):
    workload = tiny("archive", tmp_path)()
    try:
        inp = workload.build(7)[0]
        outcomes = [workload.outcome(inp, workload.job(inp, nospan))
                    for _ in range(2)]
    finally:
        workload.close()
    assert outcomes[0] == outcomes[1]
    assert {"scenario.json", "history.json"} <= set(outcomes[0][1])


def test_authored_scripts_hit_their_rungs_and_never_lose_an_edge():
    rungs = (12, 24, 48)
    scripts = workloads.Replay(rungs=rungs, per_rung=2).build(5)
    for n_edges, data in zip([r for r in rungs for _ in range(2)], scripts):
        initial, events, _ = mg.parse_script(data)
        history = mg.run_script(initial, events)
        assert len(history.final.edges) == n_edges
        assert all(not report.removed_edges for report in history.prune_reports)


def test_script_check_names_a_reconnected_pair():
    initial, events, _ = mg.parse_script(workloads.Replay(rungs=(12,), per_rung=1).build(5)[0])
    edge = next(e for e in events if isinstance(e, mg.AddEdge))
    assert script_problems(initial, events) == []
    assert script_problems(initial, events + [edge]) == [
        f"events[{len(events)}] reconnects pair {mg.edge_key(edge.k, edge.l)}"]


def test_gate_catches_a_perturbed_final_state():
    config = workloads.Sweep(rungs=(20,), per_rung=1, nodes=6).build(1)[0]
    initial, events = mg.generate_scenario(config)
    history = mg.run_script(initial, events)
    assert final_state_problems(initial, events, history.final) == []
    problems = final_state_problems(initial, events, perturb_final(history).final)
    assert problems and "dense oracle" in problems[0]


@pytest.mark.parametrize("name,target", [("sweep", mg), ("replay", mg),
                                         ("archive", mg.cli)])
def test_perturbed_results_count_as_failed(monkeypatch, capsys, tmp_path, name, target):
    real = mg.run_script
    monkeypatch.setattr(target, "run_script", lambda *a, **k: perturb_final(real(*a, **k)))
    code, result = run_main(monkeypatch, capsys, tmp_path, name, 0)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
