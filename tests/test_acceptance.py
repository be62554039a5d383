"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one PASS line when it succeeds (visible with -s / -rA);
a failure shows up as the usual pytest failure for that criterion.
"""

from __future__ import annotations

import json
import math
import random
import time
from pathlib import Path

import pytest

from dense_oracle import DenseOracle
from support import assert_state_matches, replay_oracle, run_both
from massgraph import (
    AddEdge,
    AddNode,
    KernelDraw,
    KernelParams,
    Prune,
    ScenarioConfig,
    apply_event,
    cli_main,
    export_dot,
    export_history_json,
    generate_scenario,
    log_cauchy_pdf,
    parse_script,
    reinforcement,
    run_script,
    script_document,
    settle_phase_one,
    validate_kernel_params,
    validate_state,
)

GOLDEN = Path(__file__).parent / "golden"
STANDARD = KernelParams(mu=0.0, sigma=1.0)

MINIMAL = {
    "version": 1,
    "kernel": {"mu": 0, "sigma": 1},
    "initial": {"masses": [2, 2], "edges": [[1, 2, 2]]},
    "events": [],
}


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE criterion {n}: PASS -- {text}")


def test_criterion_1_worked_trace_matches_brute_force():
    """Four-phase worked example vs the dense reference, <= 1e-9 per entry,
    including the incident-edge weight decrease."""
    initial, _, _ = parse_script(json.dumps(MINIMAL).encode())
    events = [AddNode(3.0), AddEdge(1, 3, 2.0), Prune(3.6)]

    masses = [initial.nodes[i].mass for i in initial.node_ids()]
    triples = [(a, b, e.weight) for (a, b), e in sorted(initial.edges.items())]
    oracle = DenseOracle(masses, triples, 0.0, 1.0)

    state = settle_phase_one(initial)
    oracle.settle()
    assert_state_matches(state, oracle, atol=1e-9)
    w12_settled = state.weight(1, 2)

    w12_after_edge = None
    for event in events:
        state, _ = apply_event(state, event)
        replay_oracle(oracle, event)
        assert_state_matches(state, oracle, atol=1e-9)
        if isinstance(event, AddEdge):
            w12_after_edge = state.weight(1, 2)

    assert w12_settled == pytest.approx(3.7229992129171396, abs=1e-9)
    assert w12_after_edge == pytest.approx(3.5006695780986699, abs=1e-9)
    assert w12_after_edge < w12_settled  # the negative incident increment
    assert state.alive_ids() == [1, 3]
    report(1, "worked trace matches dense brute force to 1e-9, "
              f"incident weight fell {w12_settled:.6f} -> {w12_after_edge:.6f}")


def test_criterion_2_randomized_oracle_equivalence():
    """200 seeded scenarios (small n, <= 12 events) match the dense
    reference to <= 1e-9 per mass/weight entry at every phase."""
    mixes = [(0.6, 0.2, 0.2), (0.5, 0.3, 0.2), (0.7, 0.15, 0.15),
             (0.34, 0.33, 0.33)]
    thresholds = [0.0, 3.0, 5.0, 8.0]
    kernels = [KernelParams(0.0, 1.0), KernelParams(0.5, 2.0),
               KernelDraw(mu_range=(-0.5, 0.5), sigma_range=(0.5, 2.0))]
    started = time.monotonic()
    total_events = 0
    for seed in range(200):
        config = ScenarioConfig(
            seed=seed,
            n_initial=2 + seed % 5,
            initial_edge_density=(seed % 4) / 4,
            n_phases=2 + seed % 12,          # 1..12 events
            event_mix=mixes[seed % len(mixes)],
            prune_threshold=thresholds[seed % len(thresholds)],
            kernel=kernels[seed % len(kernels)],
        )
        initial, events = generate_scenario(config)
        assert len(events) <= 12
        run_both(initial, events, atol=1e-9)
        total_events += len(events)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(2, f"200 scenarios / {total_events} events equal the dense "
              f"reference to 1e-9 in {elapsed:.2f}s")


def test_criterion_3_invariants_over_long_run():
    """1000-event seeded run at up-to-200-node scale: structure, mass
    monotonicity, locality, conservation (1e-9), prune idempotence."""
    config = ScenarioConfig(
        seed=1234,
        n_initial=160,
        initial_edge_density=0.04,
        n_phases=1001,                       # settlement + 1000 events
        event_mix=(0.82, 0.08, 0.10),
        prune_threshold=6.0,
    )
    started = time.monotonic()
    initial, events = generate_scenario(config)
    assert len(events) == 1000

    state = settle_phase_one(initial)
    assert validate_state(state) == []
    max_alive = len(state.alive_ids())
    counts = {"add_edge": 0, "add_node": 0, "prune": 0}
    for event in events:
        prev = state
        state, prune_report = apply_event(state, event)

        assert validate_state(state) == []  # symmetry, diagonal, dead edges

        if isinstance(event, AddEdge):
            counts["add_edge"] += 1
            gain = reinforcement(event.initial_weight, prev.params)
            for i in prev.node_ids():
                if i == event.k or i == event.l:
                    assert state.mass(i) > prev.mass(i)
                else:
                    assert state.nodes[i] is prev.nodes[i]  # bit-identical
            incident = {key for key in prev.edges
                        if event.k in key or event.l in key}
            for key in prev.edges:
                if key not in incident:
                    assert state.edges[key] is prev.edges[key]
            new_key = (min(event.k, event.l), max(event.k, event.l))
            assert state.edges[new_key].weight > event.initial_weight + math.log(2)
            assert state.total_mass() == pytest.approx(
                prev.total_mass() + 2 * gain, abs=1e-9)
        elif isinstance(event, AddNode):
            counts["add_node"] += 1
            assert state.total_mass() == pytest.approx(
                prev.total_mass() + event.initial_mass, abs=1e-9)
        else:
            counts["prune"] += 1
            lost = sum(prev.mass(i) for i in prune_report.removed_nodes)
            assert state.total_mass() == pytest.approx(
                prev.total_mass() - lost, abs=1e-9)
            _, again = apply_event(state, Prune(event.threshold))
            assert again.removed_edges == ()
            assert again.removed_nodes == ()

        max_alive = max(max_alive, len(state.alive_ids()))

    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(3, f"1000 events ({counts['add_edge']} edges, {counts['add_node']} nodes, "
              f"{counts['prune']} prunes), peak {max_alive} alive nodes, "
              f"all invariants held in {elapsed:.2f}s")


def test_criterion_4_kernel_checks():
    """Exact zero at 0; kernel dominates ln on 10^4 samples; closed-form
    density at x = e^mu to 1e-12 for 100 parameter pairs; monotonicity
    verdicts on the standard grid."""
    assert reinforcement(0, STANDARD) == 0.0

    rng = random.Random(20260810)
    for _ in range(10_000):
        x = 1000.0 ** max(rng.random(), 1e-12)  # log-uniform in (1, 1000]
        assert reinforcement(x, STANDARD) > math.log(x)

    worst = 0.0
    for _ in range(100):
        mu = rng.uniform(0.05, 3.0)             # e^mu must stay above 1
        sigma = rng.uniform(0.05, 4.0)
        x = math.exp(mu)
        got = log_cauchy_pdf(x, KernelParams(mu=mu, sigma=sigma))
        expected = 1.0 / (x * math.pi * sigma)
        worst = max(worst, abs(got - expected))
    assert worst <= 1e-12

    assert validate_kernel_params(STANDARD, 1.001, 1000.0, 10000).monotone
    spike = validate_kernel_params(KernelParams(0.0, 0.05), 1.001, 1000.0, 10000)
    assert not spike.monotone
    report(4, f"f(0)=0 exact, f>ln on 10^4 samples, closed form off by "
              f"{worst:.2e} <= 1e-12, monotone verdicts true/false as required")


def test_criterion_5_repetition_suppression_shape():
    """Marginal gain f(x+1) - f(x) strictly decreases across [3, 100]."""
    xs = [3.0 + 0.01 * i for i in range(9701)]
    gains = [reinforcement(x + 1.0, STANDARD) - reinforcement(x, STANDARD)
             for x in xs]
    for i in range(len(gains) - 1):
        assert gains[i + 1] < gains[i], f"gain rose at x={xs[i + 1]:.2f}"
    report(5, f"marginal gain falls monotonically over {len(xs)} samples "
              f"({gains[0]:.6f} at x=3 down to {gains[-1]:.6f} at x=100)")


def test_criterion_6_byte_level_determinism(tmp_path):
    """gen+run twice byte-identical; all pinned golden exports reproduced."""
    gen = ["gen", "--seed", "42", "--nodes", "5", "--phases", "22"]
    outputs = []
    for tag in ("a", "b"):
        script = tmp_path / f"script_{tag}.json"
        history = tmp_path / f"history_{tag}.json"
        assert cli_main(gen + ["--out", str(script)]) == 0
        assert cli_main(["run", "--script", str(script),
                         "--out", str(history)]) == 0
        outputs.append((script.read_bytes(), history.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == (GOLDEN / "script_seed42.json").read_bytes()
    assert outputs[0][1] == (GOLDEN / "history_seed42.json").read_bytes()

    for name in ("history_empty_events.json", "history_worked_trace.json",
                 "history_seed42.json"):
        assert (GOLDEN / name).exists()
    initial, _, _ = parse_script(json.dumps(MINIMAL).encode())
    doc = script_document(initial, [])
    regenerated = export_history_json(run_script(initial, [], source=doc))
    assert regenerated == (GOLDEN / "history_empty_events.json").read_bytes()
    trace_events = [AddNode(3.0), AddEdge(1, 3, 2.0), Prune(3.6)]
    doc = script_document(initial, trace_events)
    regenerated = export_history_json(
        run_script(initial, trace_events, source=doc))
    assert regenerated == (GOLDEN / "history_worked_trace.json").read_bytes()
    report(6, "gen+run reproducible byte-for-byte; all three golden history "
              "exports match exactly")


def test_criterion_7_figure_scale_smoke_runs():
    """22-phase and 100-phase random scenarios finish cleanly and export
    well-formed DOT at every snapshot scale."""
    shapes = [
        ScenarioConfig(seed=42, n_initial=5, n_phases=22,
                       event_mix=(0.7, 0.25, 0.05)),
        ScenarioConfig(seed=100, n_initial=10, n_phases=100,
                       event_mix=(0.65, 0.25, 0.10), prune_threshold=5.0,
                       initial_edge_density=0.2),
    ]
    for config in shapes:
        initial, events = generate_scenario(config)
        history = run_script(initial, events)
        assert history.final.phase == config.n_phases
        for state in history.snapshots:
            assert validate_state(state) == []
        dot = export_dot(history.final).decode()
        assert dot.startswith("graph memory {")
        assert dot.count("{") == dot.count("}")
        assert dot.rstrip().endswith("}")
        for i in history.final.alive_ids():
            assert f"  {i} [" in dot
        for a, b in history.final.edges:
            assert f"  {a} -- {b} [" in dot
    report(7, "22-phase and 100-phase scenarios ran clean and exported valid DOT")
