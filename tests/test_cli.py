"""CLI behaviour: subcommands, exit codes, byte-level determinism."""

from __future__ import annotations

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from massgraph import (
    AddEdge,
    AddNode,
    GraphState,
    MetricsReport,
    PhaseHistory,
    Prune,
    ScenarioConfig,
    ScriptError,
    canonical_json_bytes,
    cli_main,
    export_dot,
    export_history_json,
    generate_scenario,
    load_history,
    metrics,
    parse_script,
    run_script,
    script_document,
    state_digest,
)
from massgraph import scenario
from massgraph.cli import _rows_json

GOLDEN = Path(__file__).parent / "golden"

MINIMAL = {
    "version": 1,
    "kernel": {"mu": 0, "sigma": 1},
    "initial": {"masses": [2, 2], "edges": [[1, 2, 2]]},
    "events": [],
}

GEN42 = ["gen", "--seed", "42", "--nodes", "5", "--phases", "22"]

# the forgetting regime: 13 prunes, 6 of which remove edges that edge events shifted
FORGETTING = ["gen", "--seed", "7", "--nodes", "10", "--phases", "60",
              "--mix", "0.6,0.2,0.2", "--prune-threshold", "20", "--density", "0.3"]


def write_trace_script(path: Path) -> None:
    state, _, _ = parse_script(json.dumps(MINIMAL).encode())
    doc = script_document(state, [AddNode(3.0), AddEdge(1, 3, 2.0), Prune(3.6)])
    path.write_bytes(canonical_json_bytes(doc))


class TestRun:
    def test_reproduces_golden_history(self, tmp_path):
        script = tmp_path / "trace.json"
        out = tmp_path / "history.json"
        write_trace_script(script)
        assert cli_main(["run", "--script", str(script), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "history_worked_trace.json").read_bytes()

    def test_writes_to_stdout_by_default(self, tmp_path, capsysbinary):
        script = tmp_path / "trace.json"
        write_trace_script(script)
        assert cli_main(["run", "--script", str(script)]) == 0
        assert capsysbinary.readouterr().out == \
            (GOLDEN / "history_worked_trace.json").read_bytes()

    def test_dot_every_writes_snapshots(self, tmp_path):
        script = tmp_path / "trace.json"
        out = tmp_path / "history.json"
        write_trace_script(script)
        assert cli_main(["run", "--script", str(script), "--out", str(out),
                         "--dot-every", "2"]) == 0
        produced = sorted(p.name for p in tmp_path.glob("*.dot"))
        assert produced == ["history.phase0000.dot", "history.phase0002.dot",
                            "history.phase0004.dot"]
        for name in produced:
            text = (tmp_path / name).read_text()
            assert text.startswith("graph memory {")
            assert text.rstrip().endswith("}")

    def test_a_failed_run_leaves_no_history_file(self, tmp_path, capsys):
        # the DOT file of phase 2 cannot be written once phases 0 and 1
        # have streamed to --out
        script = tmp_path / "trace.json"
        out = tmp_path / "history.json"
        write_trace_script(script)
        (tmp_path / "history.phase0002.dot").mkdir()
        assert cli_main(["run", "--script", str(script), "--out", str(out),
                         "--dot-every", "2"]) == 1
        assert not out.exists()
        assert "history.phase0002.dot" in capsys.readouterr().err
        assert not (tmp_path / "history.phase0000.dot").exists()

    def test_a_failed_run_leaves_none_of_its_dot_files(self, tmp_path, capsys):
        # the CLI smoke's blocked case: phases 0 and 10 are written, then
        # phase 20's DOT path is a directory, which stays as it was
        out = tmp_path / "h.json"
        blocked = tmp_path / "h.phase0020.dot"
        blocked.mkdir()
        assert cli_main(["run", "--script", str(GOLDEN / "script_forgetting.json"),
                         "--out", str(out), "--dot-every", "10"]) == 1
        assert "h.phase0020.dot" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "h.phase0000.dot").exists()
        assert not (tmp_path / "h.phase0010.dot").exists()
        assert blocked.is_dir()
        assert [p.name for p in tmp_path.iterdir()] == ["h.phase0020.dot"]

    def test_dot_every_requires_out(self, tmp_path, capsys):
        script = tmp_path / "trace.json"
        write_trace_script(script)
        assert cli_main(["run", "--script", str(script), "--dot-every", "2"]) == 2

    def test_missing_file_is_domain_error(self, tmp_path):
        assert cli_main(["run", "--script", str(tmp_path / "nope.json")]) == 1

    def test_bad_script_is_domain_error(self, tmp_path, capsys):
        script = tmp_path / "bad.json"
        script.write_text('{"version": 1}')
        assert cli_main(["run", "--script", str(script)]) == 1
        assert "error" in capsys.readouterr().err

    def test_overflow_is_domain_error(self, tmp_path, capsys):
        big = sys.float_info.max
        script = tmp_path / "big.json"
        script.write_text(json.dumps({**MINIMAL, "initial": {
            "masses": [big / 2, big * 0.75], "edges": [[1, 2, 2]]}}))
        assert cli_main(["run", "--script", str(script)]) == 1
        assert "overflows" in capsys.readouterr().err


class TestGen:
    def test_same_seed_twice_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert cli_main(GEN42 + ["--out", str(a)]) == 0
        assert cli_main(GEN42 + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() == (GOLDEN / "script_seed42.json").read_bytes()

    def test_generated_script_runs_to_golden_history(self, tmp_path):
        script = tmp_path / "s.json"
        out = tmp_path / "h.json"
        assert cli_main(GEN42 + ["--out", str(script)]) == 0
        assert cli_main(["run", "--script", str(script), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "history_seed42.json").read_bytes()

    def test_forgetting_script_matches_golden(self, tmp_path):
        script = tmp_path / "s.json"
        assert cli_main(FORGETTING + ["--out", str(script)]) == 0
        assert script.read_bytes() == (GOLDEN / "script_forgetting.json").read_bytes()

    def test_forgetting_script_runs_to_golden_history(self, tmp_path):
        out = tmp_path / "h.json"
        assert cli_main(["run", "--script", str(GOLDEN / "script_forgetting.json"),
                         "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "history_forgetting.json").read_bytes()
        reports = json.loads(out.read_bytes())["prune_reports"]
        assert sum(bool(report["removed_edges"]) for report in reports) == 6

    def test_different_seed_differs(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert cli_main(GEN42 + ["--out", str(a)]) == 0
        assert cli_main(["gen", "--seed", "43", "--nodes", "5", "--phases", "22",
                         "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_drawn_kernel(self, tmp_path, capsysbinary):
        assert cli_main(["gen", "--seed", "1", "--nodes", "3", "--phases", "4",
                         "--mix", "0.5,0.5,0", "--draw-kernel=-1,1,0.5,2"]) == 0
        doc = json.loads(capsysbinary.readouterr().out)
        assert -1 <= doc["kernel"]["mu"] <= 1
        assert 0.5 <= doc["kernel"]["sigma"] <= 2

    @pytest.mark.parametrize("given", [["--mu", "5"], ["--sigma", "3"],
                                       ["--mu", "0", "--sigma", "1"]])
    def test_drawn_kernel_refuses_mu_and_sigma(self, given, capsysbinary):
        # the drawn kernel would silently replace what was given
        assert cli_main(["gen", "--seed", "1", "--nodes", "3", "--phases", "2",
                         "--draw-kernel", "0,1,1,2", *given]) == 2
        captured = capsysbinary.readouterr()
        assert captured.out == b"" and b"--draw-kernel" in captured.err

    @pytest.mark.parametrize("given,kernel", [
        ([], {"mu": 0.0, "sigma": 1.0}),
        (["--mu", "5"], {"mu": 5.0, "sigma": 1.0}),
        (["--sigma", "3"], {"mu": 0.0, "sigma": 3.0}),
    ])
    def test_mu_and_sigma_default_to_zero_and_one(self, given, kernel, capsysbinary):
        assert cli_main(["gen", "--seed", "1", "--nodes", "3", "--phases", "2", *given]) == 0
        assert json.loads(capsysbinary.readouterr().out)["kernel"] == kernel

    def test_infeasible_mix_is_domain_error(self, capsys):
        # the only pair is connected at density 1; edge-only mix cannot proceed
        assert cli_main(["gen", "--seed", "3", "--nodes", "2", "--phases", "2",
                         "--mix", "1,0,0", "--density", "1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_mix_must_sum_to_one(self, tmp_path, capsys):
        # ScenarioConfig holds the mix rule, so every undefined mix is a domain error
        for mix in ("0.5,0.2,0.2", "1.5,-0.3,-0.2"):
            assert cli_main(["gen", "--seed", "1", "--nodes", "3", "--phases", "4",
                             "--mix", mix]) == 1
            assert "event_mix" in capsys.readouterr().err

    def test_zero_phases_is_domain_error(self, capsys):
        # a run reaches phase 1 whatever it is asked, so 0 is no final phase
        assert cli_main(["gen", "--seed", "1", "--nodes", "3", "--phases", "0"]) == 1
        assert "n_phases" in capsys.readouterr().err


class TestValidate:
    def test_valid_script(self, tmp_path, capsys):
        script = tmp_path / "trace.json"
        write_trace_script(script)
        assert cli_main(["validate", "--script", str(script)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_script(self, tmp_path, capsys):
        script = tmp_path / "bad.json"
        script.write_text(json.dumps({**MINIMAL, "initial": {
            "masses": [2, 2], "edges": [[1, 1, 2]]}}))
        assert cli_main(["validate", "--script", str(script)]) == 1
        assert "initial.edges[0]" in capsys.readouterr().err

    def test_integer_too_large_for_a_float(self, tmp_path, capsys):
        script = tmp_path / "huge.json"
        script.write_text(json.dumps({**MINIMAL, "initial": {
            "masses": [2, 10**400], "edges": []}}))
        assert cli_main(["validate", "--script", str(script)]) == 1
        assert "initial.masses[1]" in capsys.readouterr().err


class TestStats:
    def test_worked_trace_metrics(self, tmp_path, capsys):
        history = tmp_path / "h.json"
        history.write_bytes((GOLDEN / "history_worked_trace.json").read_bytes())
        assert cli_main(["stats", "--history", str(history), "--top-k", "1"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["phase"] for r in rows] == [0, 1, 2, 3, 4]
        assert rows[-1]["alive_nodes"] == 2
        assert rows[-1]["max_mass_node"][0] == 3
        assert rows[-1]["top_k_mass_share"] == pytest.approx(0.51346594402655622)

    def test_worked_trace_output_matches_golden(self, capsysbinary):
        history = GOLDEN / "history_worked_trace.json"
        assert cli_main(["stats", "--history", str(history), "--top-k", "1"]) == 0
        assert capsysbinary.readouterr().out == \
            (GOLDEN / "stats_worked_trace.txt").read_bytes()

    def test_forgetting_output_matches_golden(self, capsysbinary):
        # 6 of the history's prunes remove edges, and nodes die
        history = GOLDEN / "history_forgetting.json"
        assert cli_main(["stats", "--history", str(history), "--top-k", "3"]) == 0
        assert capsysbinary.readouterr().out == \
            (GOLDEN / "stats_forgetting.txt").read_bytes()

    def test_top_k_is_checked_before_the_file_is_read(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert cli_main(["stats", "--history", str(missing), "--top-k", "0"]) == 1
        assert capsys.readouterr().err == "error: k must be >= 1, got 0\n"

    def test_a_total_mass_beyond_the_float_range_is_a_domain_error(self, tmp_path, capsys):
        # the history holds finite masses, but no row can hold their sum
        script, history = tmp_path / "s.json", tmp_path / "h.json"
        assert cli_main(["gen", "--seed", "1", "--nodes", "3", "--phases", "3",
                         "--mass-range", "1e308,1.5e308", "--density", "0", "--mix", "0,1,0",
                         "--out", str(script)]) == 0
        assert cli_main(["run", "--script", str(script), "--out", str(history)]) == 0
        capsys.readouterr()
        assert cli_main(["stats", "--history", str(history)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: phase 0: the total mass")

    def test_bad_history_is_domain_error(self, tmp_path):
        history = tmp_path / "h.json"
        history.write_text("{}")
        assert cli_main(["stats", "--history", str(history)]) == 1


# every number json writes as it is: -0.0, subnormals and the largest finite
# float among the floats, and ints beyond 64 bits
numbers = st.floats(allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=0) | st.integers(min_value=2**64, max_value=2**200)
reports = st.builds(MetricsReport, phase=counts, total_mass=numbers, alive_nodes=counts,
                    alive_edges=counts, max_mass_node=st.none() | st.tuples(counts, numbers),
                    top_k_mass_share=numbers,
                    degree_histogram=st.lists(counts, max_size=5).map(tuple))


@given(st.lists(reports, max_size=4))
@example([])
@example([MetricsReport(0, -0.0, 0, 0, None, 1.0, ()),
          MetricsReport(2**70, sys.float_info.max, 1, 0, (1, 5e-324), 2.2250738585072014e-308,
                        (1,))])
def test_the_rows_print_as_json_writes_them(rows):
    assert _rows_json(rows) == json.dumps([vars(r) for r in rows], indent=2, sort_keys=True)


def refuse_snapshots(monkeypatch) -> None:
    def refuse(history):
        raise AssertionError("a streamed reader built history.snapshots")
    monkeypatch.setattr(PhaseHistory, "snapshots", property(refuse))


class TestStreamedReaders:
    """Export, load, ``run`` and ``stats`` read a history one state at a
    time, never as the list of snapshots, and write what the list gave."""

    SCRIPT = GOLDEN / "script_forgetting.json"
    HISTORY = GOLDEN / "history_forgetting.json"

    @pytest.fixture
    def snapshots(self):
        """The forgetting run's snapshots, built before the list is refused."""
        initial, events, _ = parse_script(self.SCRIPT.read_bytes())
        return run_script(initial, events).snapshots

    @staticmethod
    def stats_text(snapshots) -> str:
        return json.dumps([vars(metrics(s, 1)) for s in snapshots], indent=2,
                          sort_keys=True) + "\n"

    def test_export_and_load(self, snapshots, monkeypatch):
        initial, events, _ = parse_script(self.SCRIPT.read_bytes())
        data = self.HISTORY.read_bytes()
        pretty = json.dumps(json.loads(data), indent=1).encode()
        refuse_snapshots(monkeypatch)
        assert export_history_json(run_script(initial, events)) == data
        for text in (data, pretty):
            loaded = load_history(text)
            assert [state_digest(s) for s in loaded.states()] == \
                [state_digest(s) for s in snapshots]

    def test_run_writes_the_history_and_its_dot_files(self, snapshots, tmp_path,
                                                      monkeypatch):
        refuse_snapshots(monkeypatch)
        out = tmp_path / "h.json"
        assert cli_main(["run", "--script", str(self.SCRIPT), "--out", str(out),
                         "--dot-every", "7"]) == 0
        assert out.read_bytes() == self.HISTORY.read_bytes()
        dots = {f"h.phase{s.phase:04d}.dot": export_dot(s) for s in snapshots
                if s.phase % 7 == 0}
        assert {p.name: p.read_bytes() for p in tmp_path.glob("*.dot")} == dots

    def test_stats_prints_each_row_once(self, snapshots, tmp_path, capsys, monkeypatch):
        refuse_snapshots(monkeypatch)
        data = self.HISTORY.read_bytes()
        files = {
            "canonical": data,
            "re-indented": json.dumps(json.loads(data), indent=1).encode(),
            # canonical but for a space before the closing brace: the compare
            # of the bytes fails after every row was made, that of their
            # re-encoding passes
            "spaced": data[:-2] + b" }\n",
        }
        for name, text in files.items():
            path = tmp_path / f"{name}.json"
            path.write_bytes(text)
            assert cli_main(["stats", "--history", str(path)]) == 0
            assert capsys.readouterr().out == self.stats_text(snapshots), name
        golden = GOLDEN / "history_worked_trace.json"
        assert cli_main(["stats", "--history", str(golden), "--top-k", "1"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "stats_worked_trace.txt").read_text()

    def test_stats_prints_nothing_for_a_tampered_history(self, tmp_path, capsys,
                                                         monkeypatch):
        refuse_snapshots(monkeypatch)
        doc = json.loads(self.HISTORY.read_bytes())
        doc["snapshots"][-1]["nodes"][0]["mass"] += 1
        path = tmp_path / "h.json"
        path.write_bytes(canonical_json_bytes(doc))
        assert cli_main(["stats", "--history", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"snapshots[{len(doc['snapshots']) - 1}]" in captured.err

    def test_run_and_stats_each_fold_the_run_once(self, tmp_path, capsys, monkeypatch):
        # the DOT files and the rows come from the pass that writes or
        # checks the history, not from a second fold
        real = PhaseHistory._folds
        calls = []

        def counted(history, *args):
            calls.append(history)
            return real(history, *args)

        monkeypatch.setattr(PhaseHistory, "_folds", counted)
        out = tmp_path / "h.json"
        assert cli_main(["run", "--script", str(self.SCRIPT), "--out", str(out),
                         "--dot-every", "7"]) == 0
        assert out.read_bytes() == self.HISTORY.read_bytes()
        assert len(list(tmp_path.glob("h.phase*.dot"))) == 9
        assert len(calls) == 1
        calls.clear()
        assert cli_main(["stats", "--history", str(self.HISTORY)]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 61
        assert len(calls) == 1

    def test_export_run_and_stats_step_one_state_whatever_the_phase_count(
            self, tmp_path, capsys, monkeypatch):
        # a count, not a time: the writer's pass folds no copy of a state,
        # and the states built by export, run and stats do not grow with
        # the phases
        folds, built = [], []
        real_folded, real_init = scenario.folded, GraphState.__init__

        def counted_folded(*args):
            folds.append(args)
            return real_folded(*args)

        def counted_init(state, *args, **kwargs):
            built.append(state)
            real_init(state, *args, **kwargs)

        def counts(n_phases):
            config = ScenarioConfig(seed=5, n_initial=20, mass_range=(1.5, 4.0),
                                    weight_range=(1.5, 4.0), initial_edge_density=0.3,
                                    n_phases=n_phases, event_mix=(0.6, 0.25, 0.15),
                                    prune_threshold=5.0)
            initial, events = generate_scenario(config)
            script, out = tmp_path / f"s{n_phases}.json", tmp_path / f"h{n_phases}.json"
            script.write_bytes(canonical_json_bytes(script_document(initial, events)))
            history = run_script(initial, events)
            assert any(report.removed_edges for report in history.prune_reports)
            with monkeypatch.context() as patched:
                patched.setattr(scenario, "folded", counted_folded)
                patched.setattr(GraphState, "__init__", counted_init)
                made = []
                for command in (lambda: export_history_json(history),
                                lambda: cli_main(["run", "--script", str(script), "--out",
                                                  str(out), "--dot-every", "50"]),
                                lambda: cli_main(["stats", "--history", str(out)])):
                    built.clear()
                    command()
                    made.append(len(built))
            assert len(json.loads(capsys.readouterr().out)) == n_phases + 1
            assert out.read_bytes() == export_history_json(history)
            return made

        few, many = counts(30), counts(300)
        assert few == many
        assert max(many) <= 3
        assert folds == []

    def test_each_load_replays_the_script_once(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return run_script(*args, **kwargs)

        monkeypatch.setattr("massgraph.io.run_script", counted)
        data = self.HISTORY.read_bytes()
        tampered, with_nan = json.loads(data), json.loads(data)
        tampered["snapshots"][-1]["nodes"][0]["mass"] += 1
        with_nan["snapshots"][2]["nodes"][0]["mass"] = math.nan
        files = {  # each with the path of the error it raises, if any
            "canonical": (data, None),
            "re-indented": (json.dumps(json.loads(data), indent=1).encode(), None),
            "spaced": (data[:-2] + b" }\n", None),
            "tampered": (canonical_json_bytes(tampered),
                         f"snapshots[{len(tampered['snapshots']) - 1}]"),
            # no canonical encoding exists: the re-encoding writes NaN, which
            # differs from the run's number there
            "re-indented-nan": (json.dumps(with_nan, indent=1).encode(), "snapshots[2]"),
        }
        for name, (text, path) in files.items():
            file = tmp_path / f"{name}.json"
            file.write_bytes(text)
            calls.clear()
            if path is None:
                load_history(text)
            else:
                with pytest.raises(ScriptError) as excinfo:
                    load_history(text)
                assert excinfo.value.path == path, name
            assert cli_main(["stats", "--history", str(file)]) == (0 if path is None else 1), name
            assert len(calls) == 2, name
            capsys.readouterr()


class TestKernelCheck:
    def test_monotone_params_exit_zero(self, capsys):
        assert cli_main(["kernel-check", "--mu", "0", "--sigma", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["monotone"] is True
        assert report["violation_x"] is None

    def test_non_monotone_params_exit_one(self, capsys):
        assert cli_main(["kernel-check", "--mu", "0", "--sigma", "0.05"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["monotone"] is False
        assert report["violation_x"] == pytest.approx(1.0016916742546273, abs=1e-9)

    def test_bad_grid_is_domain_error(self, capsys):
        assert cli_main(["kernel-check", "--mu", "0", "--sigma", "1",
                         "--grid-lo", "2", "--grid-hi", "2"]) == 1


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        assert cli_main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert cli_main(["run"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the package from this checkout."""
    path = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


@pytest.mark.parametrize("command", [["validate", "--script"], ["stats", "--history"]])
def test_nesting_beyond_the_recursion_limit_is_an_error(tmp_path, command):
    deep = tmp_path / "deep.json"
    deep.write_bytes(b"[" * 100000)
    done = run_python("-m", "massgraph.cli", *command, str(deep))
    assert done.returncode == 1
    assert done.stderr.startswith("error: invalid JSON: maximum recursion depth")
    assert "Traceback" not in done.stderr


def test_module_entry_point_runs_without_warnings():
    done = run_python("-W", "error", "-m", "massgraph.cli",
                      "gen", "--seed", "1", "--nodes", "4", "--phases", "5")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_importing_the_package_does_not_load_hashlib():
    # state_digest imports it on first use
    done = run_python("-c", "import sys, massgraph; print('hashlib' in sys.modules)")
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def test_every_public_name_resolves_and_star_imports():
    import massgraph

    assert len(set(massgraph.__all__)) == len(massgraph.__all__)
    namespace: dict = {}
    exec("from massgraph import *", namespace)  # an unbound name raises here
    assert set(namespace) - {"__builtins__"} == set(massgraph.__all__)
    for name in massgraph.__all__:
        assert namespace[name] is getattr(massgraph, name)
    assert namespace["cli_main"] is cli_main  # bound through the lazy __getattr__


def test_the_package_imports_only_the_standard_library():
    # massgraph is stdlib-only: pyproject.toml declares no dependency
    sources = sorted((Path(__file__).parents[1] / "src" / "massgraph").glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # not an import, or a relative one
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []
