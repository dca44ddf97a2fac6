"""Run-log persistence, verification, and bit-level comparison.

A run directory holds five files:

* ``rounds.csv``      -- one row per communication round
* ``accuracy_matrix.csv`` -- the lower-triangular accuracy entries
* ``metrics_summary.csv`` -- ACC/BWT, model checksums, constants, stats
* ``bound_report.csv``    -- one row per evaluated bound
* ``config.ini``          -- byte-for-byte snapshot of the input config

All floats are written with 17 significant digits, which round-trips 64-bit
values exactly, so identical runs produce identical bytes and everything in
the directory can be recomputed from the directory alone.  ``compare``
diffs the four output tables (the config snapshot is excluded so runs of
equivalent configurations can be checked for equality).
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from dataclasses import dataclass

import numpy as np

from .config import parse_config_text
from .experiment import RunArtifacts, build_bound_reports, effective_lambda
from .metrics import AccuracyMatrix, acc, bwt
from .server import RoundRecord, RunStats
from .theory import BoundReport, ConstantEstimates, drift_bound

ROUNDS_FILE = "rounds.csv"
MATRIX_FILE = "accuracy_matrix.csv"
SUMMARY_FILE = "metrics_summary.csv"
BOUNDS_FILE = "bound_report.csv"
CONFIG_FILE = "config.ini"
OUTPUT_FILES = (ROUNDS_FILE, MATRIX_FILE, SUMMARY_FILE, BOUNDS_FILE)
ALL_FILES = OUTPUT_FILES + (CONFIG_FILE,)


def fmt(value: float | None) -> str:
    """17-significant-digit formatting; empty string for missing values."""
    if value is None:
        return ""
    return format(float(value), ".17g")


def _parse_float(text: str) -> float | None:
    return None if text == "" else float(text)


def params_checksum(params: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(params, dtype=np.float64).tobytes()).hexdigest()


def emit_runlog(artifacts: RunArtifacts, out_dir) -> None:
    """Write the five run files into ``out_dir`` (created if needed).

    The files appear together: if writing any of them fails, none of them
    is created or replaced.
    """
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    log = artifacts.log
    k = artifacts.config.shift.num_tasks

    header = (
        "task,round,selected,delta_norm,drift_sq,joint_grad_sq,prev_task_loss,"
        "grad_norm_max,grad_sq_mean,"
        + ",".join(f"acc_task_{j}" for j in range(1, k + 1))
    )
    lines = [header]
    for r in log.records:
        accs = [""] * k if r.accuracies is None else [fmt(a) for a in r.accuracies]
        lines.append(
            ",".join(
                [
                    str(r.task),
                    str(r.round),
                    "+".join(str(c) for c in r.selected),
                    fmt(r.delta_norm),
                    fmt(r.drift_sq),
                    fmt(r.joint_grad_sq),
                    fmt(r.prev_task_loss),
                    fmt(r.grad_norm_max),
                    fmt(r.grad_sq_mean),
                ]
                + accs
            )
        )
    files[ROUNDS_FILE] = "\n".join(lines) + "\n"

    lines = ["after_task,eval_task,accuracy"]
    for i, j, value in log.accuracy.entries():
        lines.append(f"{i},{j},{fmt(value)}")
    files[MATRIX_FILE] = "\n".join(lines) + "\n"

    lines = ["key,value"]
    lines.append(f"num_tasks,{k}")
    lines.append(f"acc,{fmt(acc(log.accuracy))}")
    lines.append(f"bwt,{fmt(bwt(log.accuracy)) if k >= 2 else ''}")
    lines.append(f"checksum_init,{params_checksum(log.initial_params)}")
    for i, params in enumerate(log.task_params, start=1):
        lines.append(f"checksum_task_{i},{params_checksum(params)}")
    stats = log.stats
    lines.append(f"grad_norm_prev_sq,{fmt(stats.grad_norm_prev_sq)}")
    lines.append(f"f_prev_start,{fmt(stats.f_prev_start)}")
    lines.append(f"f_joint_start,{fmt(stats.f_joint_start)}")
    lines.append(f"best_joint_loss,{fmt(stats.best_joint_loss)}")
    c = artifacts.constants
    lines.append(f"const_B,{fmt(c.B)}")
    lines.append(f"const_L,{fmt(c.L)}")
    lines.append(f"const_sigma_l,{fmt(c.sigma_l)}")
    lines.append(f"const_sigma_g,{fmt(c.sigma_g)}")
    lines.append(f"const_sigma_t,{fmt(c.sigma_t)}")
    lines.append(f"const_eps_bkt,{fmt(c.eps_bkt)}")
    lines.append(f"const_eps_corr,{fmt(c.eps_corr)}")
    lines.append(f"probe_points,{c.num_probe_points}")
    lines.append(f"minibatch_draws,{c.num_minibatch_draws}")
    files[SUMMARY_FILE] = "\n".join(lines) + "\n"

    lines = ["name,analytical,empirical,satisfied,inputs"]
    for report in artifacts.reports:
        lines.append(
            ",".join(
                [
                    report.name,
                    fmt(report.analytical),
                    fmt(report.empirical),
                    "true" if report.satisfied else "false",
                    report.inputs,
                ]
            )
        )
    files[BOUNDS_FILE] = "\n".join(lines) + "\n"

    files[CONFIG_FILE] = artifacts.config_text
    _write_all(out_dir, files)


def _write_all(out_dir, files: dict[str, str]) -> None:
    """Write every file under a temporary name, then rename them all into place.

    A failure while writing leaves no new run file in ``out_dir``, and no
    temporary file survives the call.
    """
    temps = []
    try:
        for name, text in files.items():
            temps.append(os.path.join(out_dir, f".{name}.tmp"))
            _write(temps[-1], text)
        for temp, name in zip(temps, files):
            os.replace(temp, os.path.join(out_dir, name))
    finally:
        for temp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)


def _write(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


@dataclass
class LoadedRun:
    """Parsed contents of a run directory."""

    config_text: str
    records: list[RoundRecord]
    accuracy: AccuracyMatrix
    summary: dict[str, str]
    reports: list[BoundReport]


def load_runlog(run_dir) -> LoadedRun:
    """Parse a run directory back into structured form."""
    for name in ALL_FILES:
        if not os.path.exists(os.path.join(run_dir, name)):
            raise FileNotFoundError(f"missing run file: {os.path.join(run_dir, name)}")

    with open(os.path.join(run_dir, CONFIG_FILE), encoding="utf-8") as fh:
        config_text = fh.read()

    records = []
    rounds_lines = _read(run_dir, ROUNDS_FILE)
    for line in rounds_lines[1:]:
        parts = line.split(",")
        accs = parts[9:]
        has_acc = any(a != "" for a in accs)
        records.append(
            RoundRecord(
                task=int(parts[0]),
                round=int(parts[1]),
                selected=tuple(int(v) for v in parts[2].split("+")),
                delta_norm=float(parts[3]),
                drift_sq=float(parts[4]),
                joint_grad_sq=_parse_float(parts[5]),
                prev_task_loss=_parse_float(parts[6]),
                grad_norm_max=float(parts[7]),
                grad_sq_mean=float(parts[8]),
                accuracies=tuple(float(a) for a in accs) if has_acc else None,
            )
        )

    summary: dict[str, str] = {}
    for line in _read(run_dir, SUMMARY_FILE)[1:]:
        key, _, value = line.partition(",")
        summary[key] = value

    k = int(summary["num_tasks"])
    matrix = AccuracyMatrix(k)
    for line in _read(run_dir, MATRIX_FILE)[1:]:
        i, j, value = line.split(",")
        matrix.set(int(i), int(j), float(value))

    reports = []
    for line in _read(run_dir, BOUNDS_FILE)[1:]:
        name, analytical, empirical, satisfied, inputs = line.split(",", maxsplit=4)
        reports.append(
            BoundReport(
                name=name,
                analytical=_parse_float(analytical),
                empirical=_parse_float(empirical),
                satisfied=satisfied == "true",
                inputs=inputs,
            )
        )
    return LoadedRun(
        config_text=config_text,
        records=records,
        accuracy=matrix,
        summary=summary,
        reports=reports,
    )


def _read(run_dir, name: str) -> list[str]:
    with open(os.path.join(run_dir, name), encoding="utf-8") as fh:
        return fh.read().splitlines()


def _summary_constants(summary: dict[str, str]) -> ConstantEstimates:
    return ConstantEstimates(
        B=float(summary["const_B"]),
        L=float(summary["const_L"]),
        sigma_l=float(summary["const_sigma_l"]),
        sigma_g=float(summary["const_sigma_g"]),
        sigma_t=float(summary["const_sigma_t"]),
        eps_bkt=float(summary["const_eps_bkt"]),
        eps_corr=float(summary["const_eps_corr"]),
        num_probe_points=int(summary["probe_points"]),
        num_minibatch_draws=int(summary["minibatch_draws"]),
    )


def _summary_stats(summary: dict[str, str]) -> RunStats:
    return RunStats(
        grad_norm_prev_sq=float(summary["grad_norm_prev_sq"]),
        f_prev_start=float(summary["f_prev_start"]),
        f_joint_start=float(summary["f_joint_start"]),
        best_joint_loss=_parse_float(summary["best_joint_loss"]),
    )


def verify_runlog(run_dir) -> list[str]:
    """Recompute every invariant from the files; returns violations found.

    Pure function of the directory contents: no RNG, no inputs beyond the
    config snapshot and the emitted tables.
    """
    violations: list[str] = []
    run = load_runlog(run_dir)
    config = parse_config_text(run.config_text)
    hp = config.hyper
    k = config.shift.num_tasks

    if int(run.summary["num_tasks"]) != k:
        violations.append("summary num_tasks disagrees with the config snapshot")

    expected = k * hp.rounds_per_task
    if len(run.records) != expected:
        violations.append(
            f"round count {len(run.records)} != num_tasks * rounds_per_task = {expected}"
        )
    position = 0
    for i in range(1, k + 1):
        for t in range(hp.rounds_per_task):
            if position >= len(run.records):
                break
            r = run.records[position]
            if (r.task, r.round) != (i, t):
                violations.append(f"record {position} is ({r.task},{r.round}), expected ({i},{t})")
            position += 1

    for r in run.records:
        if len(r.selected) != hp.participants_per_round:
            violations.append(f"task {r.task} round {r.round}: |selected| != N")
        if list(r.selected) != sorted(set(r.selected)):
            violations.append(f"task {r.task} round {r.round}: ids not strictly increasing")
        if r.selected and (r.selected[0] < 0 or r.selected[-1] >= hp.num_clients):
            violations.append(f"task {r.task} round {r.round}: client id out of range")

    try:
        for i in range(1, k + 1):
            for j in range(1, i + 1):
                run.accuracy.get(i, j)
    except ValueError as exc:
        violations.append(str(exc))

    recomputed_acc = fmt(acc(run.accuracy))
    if run.summary.get("acc") != recomputed_acc:
        violations.append(
            f"summary acc {run.summary.get('acc')} != recomputed {recomputed_acc}"
        )
    if k >= 2:
        recomputed_bwt = fmt(bwt(run.accuracy))
        if run.summary.get("bwt") != recomputed_bwt:
            violations.append(
                f"summary bwt {run.summary.get('bwt')} != recomputed {recomputed_bwt}"
            )

    lam = effective_lambda(hp)
    if lam > 0:
        for i in range(2, k + 1):
            task_records = [r for r in run.records if r.task == i]
            if not task_records:
                continue
            b_hat = max(r.grad_norm_max for r in task_records)
            cap = drift_bound(hp.gamma_g(i), hp.local_lr, hp.local_epochs, b_hat, lam)
            for r in task_records:
                if r.drift_sq > cap:
                    violations.append(
                        f"task {i} round {r.round}: drift {fmt(r.drift_sq)} exceeds "
                        f"anchored cap {fmt(cap)}"
                    )

    for i in range(1, k + 1):
        if f"checksum_task_{i}" not in run.summary:
            violations.append(f"summary missing checksum_task_{i}")

    rebuilt = build_bound_reports(
        config.model, hp, k, run.records, _summary_constants(run.summary),
        _summary_stats(run.summary),
    )
    if len(rebuilt) != len(run.reports):
        violations.append(
            f"bound report row count {len(run.reports)} != recomputed {len(rebuilt)}"
        )
    else:
        for mine, theirs in zip(rebuilt, run.reports):
            same = (
                mine.name == theirs.name
                and fmt(mine.analytical) == fmt(theirs.analytical)
                and fmt(mine.empirical) == fmt(theirs.empirical)
                and mine.satisfied == theirs.satisfied
                and mine.inputs == theirs.inputs
            )
            if not same:
                violations.append(f"bound report row {mine.name} does not recompute")
    return violations


def compare_runlogs(dir_a, dir_b) -> list[str]:
    """Names of output files whose bytes differ (config snapshot excluded)."""
    differing = []
    for name in OUTPUT_FILES:
        path_a, path_b = os.path.join(dir_a, name), os.path.join(dir_b, name)
        if not os.path.exists(path_a) or not os.path.exists(path_b):
            raise FileNotFoundError(f"missing run file {name}")
        with open(path_a, "rb") as fh:
            bytes_a = fh.read()
        with open(path_b, "rb") as fh:
            bytes_b = fh.read()
        if bytes_a != bytes_b:
            differing.append(name)
    return differing
