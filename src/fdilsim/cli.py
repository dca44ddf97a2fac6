"""Command-line entry points.

Subcommands::

    fdilsim run <config> [--out DIR]   (prints a run line and a bound summary)
    fdilsim sweep <config> --lambda 0,0.25,0.5 [--out DIR]   (all sub-runs or none)
    fdilsim verify <run-dir>   (K from the config snapshot)
    fdilsim compare <run-dir-a> <run-dir-b>

``run`` and ``sweep`` publish all their files at once: a failed write
leaves every earlier file as it was (see ``runio._publish``).

Exit codes: 0 success, 1 usage/config error (a run too large for the
memory it can get included; no run directory is written for it), 2 invariant
violation (verify failures or compare differences), 3 I/O error, 4 training
diverged to a non-finite update or model (no run directory is written for it).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .client import DivergenceError
from .config import ConfigError, parse_config_text, read_config_text, serialize_config, with_lambda
from .datagen import DataOverflowError
from .experiment import run_experiment
from .runio import acc_bwt, compare_runlogs, emit_runlog, emit_sweep, fmt, verify_runlog
from .theory import ProbeScaleError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_IO = 3
EXIT_DIVERGED = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fdilsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a full experiment")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="override [io] output_dir")

    p_sweep = sub.add_parser("sweep", help="run the config once per lambda value")
    p_sweep.add_argument("config")
    p_sweep.add_argument(
        "--lambda", dest="lambdas", required=True, help="comma-separated lambda grid"
    )
    p_sweep.add_argument("--out", default=None, help="override [io] output_dir")

    p_verify = sub.add_parser("verify", help="recompute metrics and bounds of a run")
    p_verify.add_argument("run_dir")

    p_compare = sub.add_parser("compare", help="bit-level diff of two run directories")
    p_compare.add_argument("run_dir_a")
    p_compare.add_argument("run_dir_b")
    return parser


def _experiment(text: str):
    """``run_experiment`` with numpy's floating-point warnings silenced.

    A diverging run overflows on its way to :class:`DivergenceError`; its one
    line on stderr is the ``diverged:`` message.
    """
    with np.errstate(all="ignore"):
        return run_experiment(text)


def _cmd_run(args) -> int:
    text = read_config_text(args.config)
    artifacts = _experiment(text)
    out_dir = args.out if args.out else artifacts.config.output_dir
    emit_runlog(artifacts, out_dir)
    acc_text, bwt_text = acc_bwt(artifacts.log.accuracy)
    print(f"run complete: {out_dir} acc={acc_text}" + (f" bwt={bwt_text}" if bwt_text else ""))
    reports = artifacts.reports
    violated = [r.name for r in reports if r.violated]
    print(
        f"bounds: {len(reports) - len(violated)}/{len(reports)} satisfied; "
        f"violated: {', '.join(violated) or 'none'}"
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    text = read_config_text(args.config)
    base = parse_config_text(text)
    try:
        grid = [float(v) for v in args.lambdas.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise _UsageError(f"bad --lambda list: {exc}") from exc
    if not grid:
        raise _UsageError("empty --lambda list")
    if not all(math.isfinite(lam) and lam >= 0 for lam in grid):
        raise _UsageError("lambda values must be finite and >= 0")
    # Compared as floats, so -0 repeats 0; each value names one sub-run.
    for j, lam in enumerate(grid):
        if lam in grid[:j]:
            raise _UsageError(f"lambda value {fmt(lam + 0.0)} repeated in --lambda list")
    grid = [lam + 0.0 for lam in grid]  # -0.0 runs and is written as 0.0

    root = args.out if args.out else base.output_dir
    # Every value runs before anything is written, so a run that diverges
    # leaves no files behind.
    runs, lines, printed = [], ["lambda,acc,bwt"], []
    for lam in grid:
        sub_dir = os.path.join(root, f"lambda_{fmt(lam)}")
        artifacts = _experiment(serialize_config(with_lambda(base, lam, sub_dir)))
        runs.append((sub_dir, artifacts))
        acc_text, bwt_text = acc_bwt(artifacts.log.accuracy)
        lines.append(f"{fmt(lam)},{acc_text},{bwt_text}")
        printed.append(f"lambda={fmt(lam)}: acc={acc_text} bwt={bwt_text}")
    emit_sweep(root, runs, "\n".join(lines) + "\n")
    print("\n".join(printed))
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        violations = verify_runlog(args.run_dir)
    except (ValueError, KeyError, IndexError) as exc:
        # Malformed or tampered run files are invariant violations, not crashes.
        print(f"VIOLATION: run files unreadable as a valid log: {exc}")
        return EXIT_VIOLATION
    if violations:
        for violation in violations:
            print(f"VIOLATION: {violation}")
        return EXIT_VIOLATION
    print("verify ok")
    return EXIT_OK


def _cmd_compare(args) -> int:
    differing = compare_runlogs(args.run_dir_a, args.run_dir_b)
    if differing:
        for name in differing:
            print(f"DIFFERS: {name}")
        return EXIT_VIOLATION
    print("identical")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_compare(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, DataOverflowError, ProbeScaleError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
