"""Command-line interface.

Subcommands map onto the verification surfaces: run, sweep, bohm-check,
acoustic-test, euler-test, rate-fit.  Each subparser names its handler
(set_defaults(handler=...)), and main calls it inside the one map from
exception to exit code: 0 success, 2 config error, 3 numerical abort or
a FAIL verdict, 4 IO error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .checks import acoustic_check, bohm_form_check, euler_check
from .diagnostics import rate_fit
from .harness import ConfigError, parse_config, run_single, run_sweep
from .qnsio import SnapshotError, read_csv_columns
from .spectral import SpectralError, check_grid_size

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _load_config(args):
    if not args.config:
        raise ConfigError("missing --config")
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise IOError(f"cannot read config {args.config}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{args.config} is not UTF-8 text: {exc}") from exc
    cfg = parse_config(text)
    if args.output:
        cfg.output_dir = args.output
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg.output_dir)
    res = run_single(cfg, csv_path=out / "diagnostics.csv")
    if res.aborted:
        print(f"ABORTED: {res.aborted}")
        print(f"partial diagnostics in {out / 'diagnostics.csv'}")
        return EXIT_NUMERICAL
    last = res.reports[-1]
    print(f"run complete: t = {last.t:g}, {len(res.reports)} reports, "
          f"{res.wall_seconds:.2f} s")
    print(f"  steps by the limit that set dt: {res.dt_limits_line}")
    print(f"  terminal relative entropy = {last.rel_entropy:.6e}")
    print(f"  energy inequality: {'PASS' if res.energy_ok else 'FAIL'} "
          f"(max E+D-E0 = {res.ledger.max_violation():.3e})")
    print(f"diagnostics written to {out / 'diagnostics.csv'}")
    return EXIT_OK if res.energy_ok else EXIT_NUMERICAL


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    result = run_sweep(cfg, synthetic=args.synthetic)
    print(f"summary written to {Path(cfg.output_dir) / 'sweep_summary.csv'}")
    return _print_battery("sweep", result.passed, result.lines())


def _print_battery(name, passed, lines) -> int:
    print(f"{name}:")
    for line in lines:
        print(line)
    print(f"{name}: {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_NUMERICAL


def _cmd_bohm_check(args) -> int:
    if args.fields < 1 or args.seed < 0:
        raise ConfigError(f"bohm-check needs --fields >= 1, an even --grid-n >= 8 and "
                          f"--seed >= 0, got {args.fields}, {args.grid_n}, {args.seed}")
    try:
        check_grid_size(args.grid_n, "--grid-n")
    except SpectralError as exc:
        raise ConfigError(str(exc)) from exc
    passed, lines = bohm_form_check(n_fields=args.fields, grid_n=args.grid_n, seed=args.seed)
    return _print_battery("bohm-check", passed, lines)


def _cmd_rate_fit(args) -> int:
    try:
        header, cols = read_csv_columns(args.csv)
    except (OSError, ValueError) as exc:
        raise IOError(f"cannot read {args.csv}: {exc}") from exc
    if not header or "epsilon" not in header[0]:
        raise ConfigError(f"{args.csv}: first column must be epsilon, got {header[:1]}")
    eps = cols[header[0]]
    printed = False
    for name in header[1:]:
        vals = cols[name]
        if len(vals) != len(eps) or len(eps) < 3 or not all(
                math.isfinite(v) and v > 0 for v in vals):
            print(f"  {name:12s}: skipped (needs >= 3 finite positive values)")
            continue
        try:
            fit = rate_fit(eps, vals)
        except ValueError as exc:
            raise ConfigError(f"{args.csv}: {exc}") from exc
        print(f"  {name:12s}: slope = {fit.slope:+.4f}, intercept = {fit.intercept:+.4f}, "
              f"log-residual = {fit.residual:.3e}")
        printed = True
    if not printed:
        raise ConfigError(f"{args.csv}: no fittable columns")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnslab",
        description="Quantum Navier-Stokes limit laboratory on the 2-torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--output", help="override the configured output directory")

    p_run = sub.add_parser("run", help="single run with diagnostics CSV")
    add_common(p_run)
    p_run.set_defaults(handler=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="epsilon-ladder rate study")
    add_common(p_sweep)
    p_sweep.add_argument("--synthetic", action="store_true",
                         help="bypass the solver; exercise fit/report plumbing")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_bohm = sub.add_parser("bohm-check", help="quantum-force form equivalence battery")
    p_bohm.add_argument("--fields", type=int, default=20)
    p_bohm.add_argument("--grid-n", type=int, default=128)
    p_bohm.add_argument("--seed", type=int, default=0)
    p_bohm.set_defaults(handler=_cmd_bohm_check)

    sub.add_parser("acoustic-test", help="acoustic conservation and oracle battery").set_defaults(
        handler=lambda args: _print_battery("acoustic-test", *acoustic_check()))
    sub.add_parser("euler-test", help="Euler reference validity battery").set_defaults(
        handler=lambda args: _print_battery("euler-test", *euler_check()))

    p_fit = sub.add_parser("rate-fit", help="log-log slopes of a sweep summary CSV")
    p_fit.add_argument("csv", help="CSV whose first column is epsilon")
    p_fit.set_defaults(handler=_cmd_rate_fit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SnapshotError, IOError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
