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

Each column of ``rounds.csv`` and ``bound_report.csv``, and each
``RunStats``/``ConstantEstimates`` row of ``metrics_summary.csv``, is
declared once, in a table: ``ROUND_COLUMNS`` and ``BOUND_COLUMNS`` hold
``(field, codec)`` pairs in the field order of ``Rounds`` (its
``accuracies`` excepted) and ``BoundReport``, and ``STATS_ROWS`` and
``CONSTANT_ROWS`` hold ``(key, field, codec)`` triples.  A codec is a
``(write, read)`` pair that turns a whole column of values into its texts
and back.  The trajectory is already a table of columns, a
:class:`fdilsim.server.Rounds`: ``emit_runlog`` writes each of its columns
through its codec, and ``load_runlog`` builds one from the columns it
reads.  The headers are made from the tables, ``load_runlog`` rejects a
rounds or bound table whose header or row widths differ from what emit
writes, and ``verify_runlog`` checks the count and ``(task, round)`` order
of the rounds before it rebuilds the bound rows from them, and compares
each recomputed bound row with the loaded one as both would be written.
The accuracy matrix and the checksums are written by hand; the ACC/BWT
texts of the summary, of ``verify`` and of the ``run``/``sweep`` lines all
come from ``acc_bwt``.

``emit_runlog`` and ``emit_sweep`` write through one ``_publish``: every
file of the run, or of the whole sweep, appears at once, or none is created
or replaced and no directory the call made is left behind.
``load_runlog`` takes the number of tasks from the config snapshot, not
from the summary it checks, and reads every file through one ``_read``.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from operator import attrgetter

import numpy as np

from .config import ExperimentConfig, parse_config_text
from .experiment import RunArtifacts
from .metrics import AccuracyMatrix, acc, bwt
from .server import Rounds, RunStats
from .theory import DRIFT_ROW, BoundReport, ConstantEstimates, build_bound_reports

ROUNDS_FILE = "rounds.csv"
MATRIX_FILE = "accuracy_matrix.csv"
SUMMARY_FILE = "metrics_summary.csv"
BOUNDS_FILE = "bound_report.csv"
CONFIG_FILE = "config.ini"
OUTPUT_FILES = (ROUNDS_FILE, MATRIX_FILE, SUMMARY_FILE, BOUNDS_FILE)
SWEEP_SUMMARY_FILE = "sweep_summary.csv"


def fmt(value: float | None) -> str:
    """17-significant-digit formatting; empty string for missing values."""
    if value is None:
        return ""
    return format(float(value), ".17g")


# A codec is the (write, read) pair of one column.  write takes the column's
# values in row order and returns their texts; read takes the texts and
# returns the values.  A whole column goes through one call, so no value
# costs a Python call of its own.  The float writes give fmt's text, as
# format() gives an int or a Python or numpy float the text of its float.
INT = (partial(map, str), partial(map, int))
FLOAT = (lambda values: map(format, values, repeat(".17g")), partial(map, float))
OPTIONAL_FLOAT = (
    lambda values: ["" if value is None else format(value, ".17g") for value in values],
    lambda texts: [float(text) if text else None for text in texts],
)
TEXT = (tuple, tuple)  # a column of text passes through
BOOL = (partial(map, {False: "false", True: "true"}.__getitem__), partial(map, "true".__eq__))
CLIENT_IDS = (
    lambda values: [("%d+" * len(ids) % ids)[:-1] for ids in values],  # ids joined by "+"
    lambda texts: [tuple(map(int, text.split("+"))) for text in texts],
)

# (field, codec), in the field order of Rounds, ``accuracies`` excepted: one
# acc_task_<j> column per task follows them.
ROUND_COLUMNS = (
    ("task", INT),
    ("round", INT),
    ("selected", CLIENT_IDS),
    ("delta_norm", FLOAT),
    ("drift_sq", FLOAT),
    ("joint_grad_sq", OPTIONAL_FLOAT),
    ("prev_task_loss", OPTIONAL_FLOAT),
    ("grad_norm_max", FLOAT),
    ("grad_sq_mean", FLOAT),
)
# (field, codec), in the field order of BoundReport.
BOUND_COLUMNS = (
    ("name", TEXT),
    ("analytical", OPTIONAL_FLOAT),
    ("empirical", OPTIONAL_FLOAT),
    ("satisfied", BOOL),
    ("inputs", TEXT),
)
# (key, field, codec) of the metrics_summary.csv rows, in field order.  A
# RunStats row is keyed by its field name.
STATS_ROWS = (
    ("grad_norm_prev_sq", "grad_norm_prev_sq", FLOAT),
    ("f_prev_start", "f_prev_start", FLOAT),
    ("f_joint_start", "f_joint_start", FLOAT),
    ("best_joint_loss", "best_joint_loss", OPTIONAL_FLOAT),
)
CONSTANT_ROWS = (
    ("const_B", "B", FLOAT),
    ("const_L", "L", FLOAT),
    ("const_sigma_l", "sigma_l", FLOAT),
    ("const_sigma_g", "sigma_g", FLOAT),
    ("const_sigma_t", "sigma_t", FLOAT),
    ("const_eps_bkt", "eps_bkt", FLOAT),
    ("const_eps_corr", "eps_corr", FLOAT),
    ("probe_points", "num_probe_points", INT),
    ("minibatch_draws", "num_minibatch_draws", INT),
)
_BOUNDS_HEADER = ",".join(field for field, _ in BOUND_COLUMNS)


def _rounds_header(num_tasks: int) -> str:
    accuracies = [f"acc_task_{j}" for j in range(1, num_tasks + 1)]
    return ",".join([field for field, _ in ROUND_COLUMNS] + accuracies)


def _write_rows(records, columns) -> list[str]:
    """One line per record: its fields written through ``columns``.

    Column by column: each codec's write takes one field of every record.
    """
    values = zip(*map(attrgetter(*[field for field, _ in columns]), records))
    texts = [write(column) for (_, (write, _)), column in zip(columns, values)]
    return list(map(",".join, zip(*texts)))


def _read_rows(lines: list[str], header: str, name: str, columns, maxsplit: int = -1) -> list:
    """The fields of a table's rows, column by column, read through ``columns``.

    Columns past ``columns`` stay text.  A table that does not start with
    ``header``, or has a row of another width, raises ``ValueError``.
    """
    rows = [line.split(",", maxsplit) for line in lines[1:]]
    width = header.count(",") + 1
    if lines[:1] != [header] or any(len(row) != width for row in rows):
        raise ValueError(f"{name} is not a table of {width} columns under the header {header}")
    texts = list(zip(*rows)) or [()] * width
    return [read(text) for (_, (_, read)), text in zip(columns, texts)] + texts[len(columns) :]


def _read_accuracies(texts: tuple[str, ...]) -> tuple[float, ...] | None:
    return tuple(map(float, texts)) if any(texts) else None


def params_checksum(params: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(params, dtype=np.float64).tobytes()).hexdigest()


def acc_bwt(matrix: AccuracyMatrix) -> tuple[str, str]:
    """The ACC and BWT texts of ``matrix`` as every output writes them; BWT is empty for one task."""
    return fmt(acc(matrix)), fmt(bwt(matrix)) if matrix.num_tasks >= 2 else ""


def _run_files(artifacts: RunArtifacts, out_dir) -> dict[str, str]:
    """The five run files of ``artifacts`` in ``out_dir``, as ``{path: text}``."""
    files = {}
    log = artifacts.log
    k = artifacts.config.shift.num_tasks

    rounds, no_accuracies = log.rounds, "," * (k - 1)
    accuracies = [no_accuracies if a is None else ",".join(map(fmt, a)) for a in rounds.accuracies]
    texts = [write(getattr(rounds, field)) for field, (write, _) in ROUND_COLUMNS]
    lines = [_rounds_header(k), *map(",".join, zip(*texts, accuracies))]
    files[ROUNDS_FILE] = "\n".join(lines) + "\n"

    lines = ["after_task,eval_task,accuracy"]
    for i, j, value in log.accuracy.entries():
        lines.append(f"{i},{j},{fmt(value)}")
    files[MATRIX_FILE] = "\n".join(lines) + "\n"

    acc_text, bwt_text = acc_bwt(log.accuracy)
    lines = ["key,value", f"num_tasks,{k}", f"acc,{acc_text}", f"bwt,{bwt_text}"]
    lines.append(f"checksum_init,{params_checksum(log.initial_params)}")
    for i, params in enumerate(log.task_params, start=1):
        lines.append(f"checksum_task_{i},{params_checksum(params)}")
    for obj, rows in ((log.stats, STATS_ROWS), (artifacts.constants, CONSTANT_ROWS)):
        lines += [f"{key},{text}" for key, field, (write, _) in rows for text in write((getattr(obj, field),))]
    files[SUMMARY_FILE] = "\n".join(lines) + "\n"

    lines = [_BOUNDS_HEADER, *_write_rows(artifacts.reports, BOUND_COLUMNS)]
    files[BOUNDS_FILE] = "\n".join(lines) + "\n"

    files[CONFIG_FILE] = artifacts.config_text
    return {os.path.join(out_dir, name): text for name, text in files.items()}


def emit_runlog(artifacts: RunArtifacts, out_dir) -> None:
    """Publish the five run files into ``out_dir``: all of them, or none (see :func:`_publish`)."""
    _publish(_run_files(artifacts, out_dir))


def emit_sweep(root, runs: list[tuple[str, RunArtifacts]], summary: str) -> None:
    """Publish each ``(sub_dir, artifacts)`` run and ``summary`` as the sweep summary in ``root``.

    Every file appears, or none is created or replaced (see :func:`_publish`).
    """
    files = {}
    for sub_dir, artifacts in runs:
        files.update(_run_files(artifacts, sub_dir))
    files[os.path.join(root, SWEEP_SUMMARY_FILE)] = summary
    _publish(files)


def _publish(files: dict[str, str]) -> None:
    """Write ``{path: text}`` so that every file appears, or none is created or replaced.

    Missing directories are made first.  Each file is written under a
    temporary name beside its target, and only then are they all renamed
    into place.  If a write fails, the temporary files and every directory
    the call made, parents included, are removed, and the error propagates.
    """
    made, temps = [], []
    try:
        for path in files:
            _make_dirs(os.path.dirname(path), made)
        for path in files:
            head, name = os.path.split(path)
            temps.append(os.path.join(head, f".{name}.tmp"))
            _write(temps[-1], files[path])
        for temp, path in zip(temps, files):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)
        for path in reversed(made):
            shutil.rmtree(path, ignore_errors=True)
        raise


def _make_dirs(path: str, made: list[str]) -> None:
    """Make ``path`` and its missing parents, outermost first, appending each one made to ``made``."""
    missing = []
    while path and not os.path.isdir(path):
        missing.append(path)
        path = os.path.dirname(path)
    for path in reversed(missing):
        try:
            os.mkdir(path)
        except FileExistsError:
            if not os.path.isdir(path):  # a file is in the way
                raise
        else:
            made.append(path)


def _write(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


@dataclass
class LoadedRun:
    """Parsed contents of a run directory."""

    config: ExperimentConfig
    rounds: Rounds
    accuracy: AccuracyMatrix
    summary: dict[str, str]
    stats: RunStats
    constants: ConstantEstimates
    reports: list[BoundReport]


def load_runlog(run_dir) -> LoadedRun:
    """Parse a run directory back into structured form.

    The number of tasks K, which sizes the accuracy matrix and the rounds
    header, is the config snapshot's, and the matrix file must hold its
    K(K+1)/2 entries.  A missing file raises ``FileNotFoundError``; a matrix
    of another size, or a rounds or bound table whose header is not the one
    ``emit_runlog`` writes or with a row of another width, raises
    ``ValueError``.
    """
    config = parse_config_text(_read(run_dir, CONFIG_FILE).decode("utf-8"))
    k = config.shift.num_tasks
    summary: dict[str, str] = {}
    for line in _lines(run_dir, SUMMARY_FILE)[1:]:
        key, _, value = line.partition(",")
        summary[key] = value

    # A run writes every entry of the lower triangle, so this count ties K
    # to the file's size before anything is sized by K.
    entries, expected = _lines(run_dir, MATRIX_FILE)[1:], k * (k + 1) // 2
    if len(entries) != expected:
        raise ValueError(f"{MATRIX_FILE} holds {len(entries)} entries, not the {expected} of {k} tasks")
    matrix = AccuracyMatrix(k)
    for line in entries:
        i, j, value = line.split(",")
        matrix.set(int(i), int(j), float(value))

    n = len(ROUND_COLUMNS)
    values = _read_rows(_lines(run_dir, ROUNDS_FILE), _rounds_header(k), ROUNDS_FILE, ROUND_COLUMNS)
    rounds = Rounds(*map(list, values[:n]), list(map(_read_accuracies, zip(*values[n:]))))
    bounds = _read_rows(_lines(run_dir, BOUNDS_FILE), _BOUNDS_HEADER, BOUNDS_FILE, BOUND_COLUMNS, 4)
    return LoadedRun(
        config=config,
        rounds=rounds,
        accuracy=matrix,
        summary=summary,
        stats=RunStats(*[v for key, _, (_, read) in STATS_ROWS for v in read((summary[key],))]),
        constants=ConstantEstimates(*[v for key, _, (_, read) in CONSTANT_ROWS for v in read((summary[key],))]),
        reports=list(map(BoundReport, *bounds)),
    )


def _read(run_dir, name: str) -> bytes:
    """The bytes of one run file; a missing file raises ``FileNotFoundError`` naming its path."""
    with open(os.path.join(run_dir, name), "rb") as fh:
        return fh.read()


def _lines(run_dir, name: str) -> list[str]:
    return _read(run_dir, name).decode("utf-8").splitlines()


def verify_runlog(run_dir) -> list[str]:
    """Recompute every invariant from the files; returns violations found.

    Pure function of the directory contents: no RNG, no inputs beyond the
    config snapshot and the emitted tables.  The round count and the
    ``(task, round)`` order are checked first: if either is off, those
    violations are returned alone, as the bound rows need every task's
    rounds.
    """
    violations: list[str] = []
    run = load_runlog(run_dir)
    rounds, hp = run.rounds, run.config.hyper
    k = run.config.shift.num_tasks

    expected = k * hp.rounds_per_task
    if len(rounds.task) != expected:
        violations.append(f"round count {len(rounds.task)} != num_tasks * rounds_per_task = {expected}")
    order = ((i, t) for i in range(1, k + 1) for t in range(hp.rounds_per_task))
    for position, (task, r, (i, t)) in enumerate(zip(rounds.task, rounds.round, order)):
        if (task, r) != (i, t):
            violations.append(f"record {position} is ({task},{r}), expected ({i},{t})")
    if violations:
        return violations

    if int(run.summary["num_tasks"]) != k:
        violations.append("summary num_tasks disagrees with the config snapshot")

    for task, r, ids in zip(rounds.task, rounds.round, rounds.selected):
        if len(ids) != hp.participants_per_round:
            violations.append(f"task {task} round {r}: |selected| != N")
        if list(ids) != sorted(set(ids)):
            violations.append(f"task {task} round {r}: ids not strictly increasing")
        if ids and (ids[0] < 0 or ids[-1] >= hp.num_clients):
            violations.append(f"task {task} round {r}: client id out of range")

    try:
        for i in range(1, k + 1):
            for j in range(1, i + 1):
                run.accuracy.get(i, j)
    except ValueError as exc:
        violations.append(str(exc))

    for key, recomputed in zip(("acc", "bwt"), acc_bwt(run.accuracy)):
        if run.summary.get(key) != recomputed:
            violations.append(f"summary {key} {run.summary.get(key)} != recomputed {recomputed}")

    # A task's rounds are held to the cap of its drift row where that row is violated.
    rebuilt = build_bound_reports(run.config.model, hp, k, rounds, run.constants, run.stats)
    rows = {report.name: report for report in rebuilt}
    for i in range(2, k + 1):
        row, task = rows[DRIFT_ROW.format(i=i)], rounds.of_task(i)
        if row.violated:
            violations += [
                f"task {i} round {r}: drift {fmt(drift)} exceeds anchored cap {fmt(row.analytical)}"
                for r, drift in zip(task.round, task.drift_sq)
                if drift > row.analytical
            ]

    for i in range(1, k + 1):
        if f"checksum_task_{i}" not in run.summary:
            violations.append(f"summary missing checksum_task_{i}")

    if len(rebuilt) != len(run.reports):
        violations.append(
            f"bound report row count {len(run.reports)} != recomputed {len(rebuilt)}"
        )
    else:
        # Each row is compared as written, so a float by its 17-digit text.
        rows = zip(rebuilt, _write_rows(rebuilt, BOUND_COLUMNS), _write_rows(run.reports, BOUND_COLUMNS))
        violations += [f"bound report row {r.name} does not recompute" for r, a, b in rows if a != b]
    return violations


def compare_runlogs(dir_a, dir_b) -> list[str]:
    """Names of output files whose bytes differ (config snapshot excluded)."""
    return [name for name in OUTPUT_FILES if _read(dir_a, name) != _read(dir_b, name)]
