"""Command-line driver.

Subcommands: ``run`` a script, ``gen``erate a seeded random script,
``validate`` a script, print ``stats`` for a history, and ``kernel-check``
kernel parameters for monotonicity. Exit codes: 0 success, 1 domain
error (including a failed kernel check), 2 usage error. All randomness
flows from ``--seed``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Iterable
from pathlib import Path

from .errors import MassGraphError, ParameterError
from .io import (
    _checked_run,
    _history_pieces,
    canonical_json_bytes,
    export_dot,
    parse_script,
    script_document,
)
from .kernel import KernelParams, as_int, validate_kernel_params
from .scenario import (KernelDraw, MetricsReport, ScenarioConfig, generate_scenario, metrics,
                       run_script)


def _floats(count: int, flag: str):
    def parse(text: str) -> tuple[float, ...]:
        parts = text.split(",")
        if len(parts) != count:
            raise argparse.ArgumentTypeError(
                f"{flag} needs {count} comma-separated numbers, got {text!r}"
            )
        try:
            return tuple(float(p) for p in parts)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{flag}: {text!r} is not numeric") from None
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process and shared."""
    parser = argparse.ArgumentParser(
        prog="massgraph",
        description="Deterministic mass-based graph memory simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a script and export its history")
    run.add_argument("--script", required=True, type=Path, help="script JSON file")
    run.add_argument("--out", type=Path, help="history JSON output (default: stdout)")
    run.add_argument("--dot-every", type=int, metavar="N",
                     help="also write a DOT snapshot every N phases (requires --out)")

    gen = sub.add_parser("gen", help="generate a seeded random script")
    gen.add_argument("--seed", required=True, type=int, help="RNG seed; sole source of randomness")
    gen.add_argument("--nodes", required=True, type=int, help="initial node count")
    gen.add_argument("--phases", required=True, type=int, help="final phase index to reach (>= 1)")
    gen.add_argument("--mix", type=_floats(3, "--mix"), default=(0.7, 0.25, 0.05),
                     help="add_edge,add_node,prune probabilities (default 0.7,0.25,0.05)")
    gen.add_argument("--density", type=float, default=0.25,
                     help="initial edge density in [0,1] (default 0.25)")
    gen.add_argument("--mass-range", type=_floats(2, "--mass-range"), default=(2.0, 100.0),
                     metavar="LO,HI", help="initial mass range (default 2,100)")
    gen.add_argument("--weight-range", type=_floats(2, "--weight-range"), default=(2.0, 100.0),
                     metavar="LO,HI", help="initial weight range (default 2,100)")
    gen.add_argument("--prune-threshold", type=float, default=0.0,
                     help="threshold used by generated prune events (default 0)")
    # absent unless given: KernelParams' defaults apply, and --draw-kernel refuses them
    gen.add_argument("--mu", type=float, default=argparse.SUPPRESS,
                     help="kernel location (default 0)")
    gen.add_argument("--sigma", type=float, default=argparse.SUPPRESS,
                     help="kernel scale (default 1)")
    gen.add_argument("--draw-kernel", type=_floats(4, "--draw-kernel"),
                     metavar="MULO,MUHI,SIGLO,SIGHI",
                     help="draw mu and sigma from these ranges (excludes --mu and --sigma)")
    gen.add_argument("--out", type=Path, help="script JSON output (default: stdout)")

    val = sub.add_parser("validate", help="check a script without running it")
    val.add_argument("--script", required=True, type=Path)

    stats = sub.add_parser("stats", help="print per-phase metrics of a history")
    stats.add_argument("--history", required=True, type=Path)
    stats.add_argument("--top-k", type=int, default=1,
                       help="k for the top-k mass share (default 1)")

    check = sub.add_parser("kernel-check",
                           help="scan the kernel for strict monotonicity")
    check.add_argument("--mu", required=True, type=float)
    check.add_argument("--sigma", required=True, type=float)
    check.add_argument("--grid-lo", type=float, default=1.001)
    check.add_argument("--grid-hi", type=float, default=1000.0)
    check.add_argument("--steps", type=int, default=10000)
    return parser


def _emit(pieces: Iterable[bytes], out: Path | None) -> None:
    """Write ``pieces`` in order to the file ``out``, or to stdout. If a
    piece fails, ``out`` is deleted before the error propagates, so no
    truncated file is left behind."""
    if out is None:
        sys.stdout.buffer.writelines(pieces)
        sys.stdout.buffer.flush()
        return
    file = out.open("wb")
    try:
        with file:
            file.writelines(pieces)
    except BaseException:
        out.unlink(missing_ok=True)
        raise


def _cmd_run(args) -> int:
    if args.dot_every is not None:
        if args.dot_every < 1:
            print("error: --dot-every must be >= 1", file=sys.stderr)
            return 2
        if args.out is None:
            print("error: --dot-every requires --out", file=sys.stderr)
            return 2
    initial, events, _ = parse_script(args.script.read_bytes())
    history = run_script(initial, events)
    written: list[Path] = []

    def write_dot(state) -> None:
        if state.phase % args.dot_every == 0:
            dot_path = args.out.with_name(f"{args.out.stem}.phase{state.phase:04d}.dot")
            dot_path.write_bytes(export_dot(state))
            written.append(dot_path)

    each = None if args.dot_every is None else write_dot
    try:  # the history and the DOT files, in one fold
        _emit((piece for _, piece in _history_pieces(history, each)), args.out)
    except BaseException:
        for path in written:  # as _emit deletes the history
            path.unlink(missing_ok=True)
        raise
    return 0


def _cmd_gen(args) -> int:
    given = {name: value for name, value in vars(args).items() if name in ("mu", "sigma")}
    if args.draw_kernel is not None:
        if given:
            print("error: --draw-kernel draws mu and sigma, so it excludes --mu and --sigma",
                  file=sys.stderr)
            return 2
        mu_lo, mu_hi, sig_lo, sig_hi = args.draw_kernel
        kernel = KernelDraw(mu_range=(mu_lo, mu_hi), sigma_range=(sig_lo, sig_hi))
    else:
        kernel = KernelParams(**given)
    config = ScenarioConfig(
        seed=args.seed,
        n_initial=args.nodes,
        mass_range=args.mass_range,
        weight_range=args.weight_range,
        initial_edge_density=args.density,
        n_phases=args.phases,
        event_mix=args.mix,
        prune_threshold=args.prune_threshold,
        kernel=kernel,
    )
    initial, events = generate_scenario(config)
    _emit([canonical_json_bytes(script_document(initial, events))], args.out)
    return 0


def _cmd_validate(args) -> int:
    initial, events, _ = parse_script(args.script.read_bytes())
    print(f"ok: {len(initial.nodes)} nodes, {len(initial.edges)} edges, "
          f"{len(events)} events")
    return 0


# a report's fields, in sorted order, as json.dumps(indent=2) nests them in a list
_ROW = ('  {{\n    "alive_edges": {!r},\n    "alive_nodes": {!r},\n    "degree_histogram": {},\n'
        '    "max_mass_node": {},\n    "phase": {!r},\n    "top_k_mass_share": {!r},\n'
        '    "total_mass": {!r}\n  }}')


def _numbers_json(values) -> str:
    """A tuple of numbers as a field of :data:`_ROW` holds it."""
    return "[\n      " + ",\n      ".join(map(repr, values)) + "\n    ]" if values else "[]"


def _rows_json(rows: list[MetricsReport]) -> str:
    """``json.dumps([vars(r) for r in rows], indent=2, sort_keys=True)``,
    written in the one layout a report's seven fields take: ints, floats,
    tuples of them and None, each number as json writes it (``repr``).
    Every number is finite, since :func:`metrics` refuses a total mass that
    overflows, so no row holds ``NaN`` or ``Infinity``."""
    return "[\n" + ",\n".join(
        _ROW.format(r.alive_edges, r.alive_nodes, _numbers_json(r.degree_histogram),
                    "null" if r.max_mass_node is None else _numbers_json(r.max_mass_node),
                    r.phase, r.top_k_mass_share, r.total_mass)
        for r in rows) + "\n]" if rows else "[]"


def _cmd_stats(args) -> int:
    as_int(args.top_k, "k", ParameterError, 1)  # metrics' rule, checked before the read
    # the rows are made in the pass that checks the history, and printed
    # only once the whole file is checked
    _, rows = _checked_run(args.history.read_bytes(), lambda state: metrics(state, args.top_k))
    print(_rows_json(rows))
    return 0


def _cmd_kernel_check(args) -> int:
    report = validate_kernel_params(KernelParams(mu=args.mu, sigma=args.sigma),
                                    args.grid_lo, args.grid_hi, args.steps)
    print(json.dumps({
        "mu": args.mu,
        "sigma": args.sigma,
        "grid": [args.grid_lo, args.grid_hi],
        "steps": args.steps,
        "monotone": report.monotone,
        "violation_x": report.violation_x,
    }, sort_keys=True))
    return 0 if report.monotone else 1


_COMMANDS = {
    "run": _cmd_run,
    "gen": _cmd_gen,
    "validate": _cmd_validate,
    "stats": _cmd_stats,
    "kernel-check": _cmd_kernel_check,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse handles --help (0) and usage errors (2)
        return int(exit_.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (MassGraphError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
