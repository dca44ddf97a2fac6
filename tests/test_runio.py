import functools
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdilsim import BoundReport, ConstantEstimates, Rounds, run_experiment, runio
from fdilsim.metrics import AccuracyMatrix, acc, bwt
from fdilsim.server import RunStats
from fdilsim.runio import (
    BOUNDS_FILE,
    CONFIG_FILE,
    MATRIX_FILE,
    ROUNDS_FILE,
    SUMMARY_FILE,
    compare_runlogs,
    emit_runlog,
    fmt,
    load_runlog,
    verify_runlog,
)
from conftest import fail_write, small_config, tree


def run_and_emit(text, out_dir):
    artifacts = run_experiment(text)
    emit_runlog(artifacts, out_dir)
    return artifacts


def test_emit_writes_all_files(tmp_path, small_config_text):
    run_and_emit(small_config_text, tmp_path / "run")
    for name in (ROUNDS_FILE, MATRIX_FILE, SUMMARY_FILE, BOUNDS_FILE, CONFIG_FILE):
        assert (tmp_path / "run" / name).exists()


def test_failed_emit_leaves_no_new_or_temporary_files(tmp_path, small_config_text, monkeypatch):
    artifacts = run_experiment(small_config_text)
    out = tmp_path / "run"
    out.mkdir()
    (out / "notes.txt").write_text("kept", encoding="utf-8")
    real_write = runio._write
    writes = []

    def failing_write(path, text):
        writes.append(path)
        if len(writes) == 4:
            raise OSError("disk full")
        real_write(path, text)

    monkeypatch.setattr(runio, "_write", failing_write)
    with pytest.raises(OSError, match="disk full"):
        emit_runlog(artifacts, out)
    assert len(writes) == 4
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]

    monkeypatch.setattr(runio, "_write", real_write)
    emit_runlog(artifacts, out)
    names = (ROUNDS_FILE, MATRIX_FILE, SUMMARY_FILE, BOUNDS_FILE, CONFIG_FILE)
    assert sorted(p.name for p in out.iterdir()) == sorted(names + ("notes.txt",))


@pytest.mark.parametrize("target", ["old/run", "new/run"], ids=["over_a_run", "new_parent_and_dir"])
def test_failed_emit_changes_nothing(tmp_path, monkeypatch, target):
    # old/run holds a complete run of another seed; new/ and new/run/ are made
    # by the call.  Either way a failed third write leaves the tree as it was.
    emit_runlog(small_artifacts(), tmp_path / "old" / "run")
    before = tree(tmp_path)
    writes = fail_write(monkeypatch, 3)
    with pytest.raises(OSError, match="disk full"):
        emit_runlog(run_experiment(small_config(seed=3)), tmp_path / target)
    assert len(writes) == 3
    assert tree(tmp_path) == before


def test_identical_runs_are_byte_identical(tmp_path, small_config_text):
    run_and_emit(small_config_text, tmp_path / "a")
    run_and_emit(small_config_text, tmp_path / "b")
    assert compare_runlogs(tmp_path / "a", tmp_path / "b") == []
    for name in (ROUNDS_FILE, MATRIX_FILE, SUMMARY_FILE, BOUNDS_FILE, CONFIG_FILE):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_config_snapshot_byte_equals_input(tmp_path, small_config_text):
    run_and_emit(small_config_text, tmp_path / "run")
    snapshot = (tmp_path / "run" / CONFIG_FILE).read_text(encoding="utf-8")
    assert snapshot == small_config_text


def test_metrics_recompute_from_emitted_matrix(tmp_path, small_config_text):
    artifacts = run_and_emit(small_config_text, tmp_path / "run")
    loaded = load_runlog(tmp_path / "run")
    assert loaded.summary["acc"] == fmt(acc(loaded.accuracy))
    assert loaded.summary["bwt"] == fmt(bwt(loaded.accuracy))
    assert fmt(acc(artifacts.log.accuracy)) == loaded.summary["acc"]


def test_roundtrip_preserves_records(tmp_path):
    # Every column, accuracy cells included, loads as the run logged it.
    artifacts = run_and_emit(small_config(eval_every=3), tmp_path / "run")
    loaded = load_runlog(tmp_path / "run")
    rounds = artifacts.log.rounds
    assert any(a is not None for a in rounds.accuracies) and None in rounds.accuracies
    assert None in rounds.prev_task_loss and any(v is not None for v in rounds.prev_task_loss)
    assert loaded.rounds == rounds
    assert loaded.reports == artifacts.reports


def test_verify_passes_on_clean_run(tmp_path, small_config_text):
    run_and_emit(small_config_text, tmp_path / "run")
    assert verify_runlog(tmp_path / "run") == []


def test_verify_detects_tampered_drift(tmp_path, small_config_text):
    run_and_emit(small_config_text, tmp_path / "run")
    rounds = (tmp_path / "run" / ROUNDS_FILE).read_text(encoding="utf-8").splitlines()
    header, rows = rounds[0], rounds[1:]
    # Push a task-2 drift entry far above the anchored cap.
    drift_col = header.split(",").index("drift_sq")
    for idx, row in enumerate(rows):
        parts = row.split(",")
        if parts[0] == "2":
            parts[drift_col] = "1e12"
            rows[idx] = ",".join(parts)
            break
    (tmp_path / "run" / ROUNDS_FILE).write_text(
        "\n".join([header] + rows) + "\n", encoding="utf-8"
    )
    violations = verify_runlog(tmp_path / "run")
    assert any("exceeds" in v for v in violations)


def test_verify_detects_tampered_summary(tmp_path, small_config_text):
    run_and_emit(small_config_text, tmp_path / "run")
    summary_path = tmp_path / "run" / SUMMARY_FILE
    text = summary_path.read_text(encoding="utf-8")
    lines = text.splitlines()
    for idx, line in enumerate(lines):
        if line.startswith("acc,"):
            lines[idx] = "acc,0.123"
    summary_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    violations = verify_runlog(tmp_path / "run")
    assert any("acc" in v for v in violations)


@pytest.mark.parametrize(
    "name, old, new, error",
    [
        (SUMMARY_FILE, "num_tasks,2\n", "num_tasks,4\n", None),
        (SUMMARY_FILE, "num_tasks,2\n", "num_tasks,100000\n", None),
        (CONFIG_FILE, "num_tasks = 2\n", "num_tasks = 100000\n", "accuracy_matrix.csv holds 3 entries, not the"),
    ],
    ids=["summary_4", "summary_100000", "config_100000"],
)
def test_verify_sizes_nothing_by_an_edited_task_count(tmp_path, small_config_text, monkeypatch, name, old, new, error):
    # K comes from the config snapshot; the summary's num_tasks is only
    # checked against it.  A K that the matrix file's size does not bear out
    # is refused before a K x K matrix is made.
    run_and_emit(small_config_text, tmp_path / "run")
    path = tmp_path / "run" / name
    path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    sizes = []

    def spy(num_tasks):
        sizes.append(num_tasks)
        assert num_tasks == 2, "a matrix sized by the edited count would be allocated"
        return AccuracyMatrix(num_tasks)

    monkeypatch.setattr(runio, "AccuracyMatrix", spy)
    if error is None:
        assert verify_runlog(tmp_path / "run") == ["summary num_tasks disagrees with the config snapshot"]
        assert sizes == [2]
    else:
        with pytest.raises(ValueError, match=error):
            verify_runlog(tmp_path / "run")
        assert sizes == []


def test_verify_detects_dropped_round(tmp_path, small_config_text):
    # The last row, then every row of the last task.  Without its rows the
    # last task has no drift row to rebuild, so the count check must come
    # first and be reported.
    run_and_emit(small_config_text, tmp_path / "run")
    rounds_path = tmp_path / "run" / ROUNDS_FILE
    lines = rounds_path.read_text(encoding="utf-8").splitlines()
    for kept in (lines[:-1], [line for line in lines if not line.startswith("2,")]):
        rounds_path.write_text("\n".join(kept) + "\n", encoding="utf-8")
        violations = verify_runlog(tmp_path / "run")
        assert any("round count" in v for v in violations), violations


@pytest.mark.parametrize(
    "name, tamper",
    [
        (ROUNDS_FILE, lambda lines: [lines[0] + ",acc_task_3"] + lines[1:]),
        (ROUNDS_FILE, lambda lines: lines[:1] + [lines[1] + ",0.5"] + lines[2:]),
        (ROUNDS_FILE, lambda lines: lines[:1] + [lines[1].rsplit(",", 1)[0]] + lines[2:]),
        (BOUNDS_FILE, lambda lines: ["name,cap,empirical,satisfied,inputs"] + lines[1:]),
        (BOUNDS_FILE, lambda lines: lines[:1] + [lines[1].rsplit(",", 2)[0]] + lines[2:]),
    ],
    ids=["rounds_header", "rounds_wide_row", "rounds_short_row", "bounds_header", "bounds_short_row"],
)
def test_load_rejects_a_table_unlike_the_one_emitted(tmp_path, small_config_text, name, tamper):
    # A row of another width used to load (extra fields as accuracies) or
    # raise IndexError, and a header was never read.
    run_and_emit(small_config_text, tmp_path / "run")
    path = tmp_path / "run" / name
    lines = tamper(path.read_text(encoding="utf-8").splitlines())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"{name} is not a table of"):
        load_runlog(tmp_path / "run")


def test_compare_detects_changed_metrics(tmp_path):
    run_and_emit(small_config(), tmp_path / "a")
    run_and_emit(small_config(seed=26), tmp_path / "b")
    assert ROUNDS_FILE in compare_runlogs(tmp_path / "a", tmp_path / "b")


def test_compare_ignores_config_snapshot(tmp_path):
    run_and_emit(small_config(algorithm="special", prox_lambda=0.0), tmp_path / "a")
    run_and_emit(small_config(algorithm="fedavg", prox_lambda=0.0), tmp_path / "b")
    # Different snapshots, identical outputs.
    assert (tmp_path / "a" / CONFIG_FILE).read_bytes() != (tmp_path / "b" / CONFIG_FILE).read_bytes()
    assert compare_runlogs(tmp_path / "a", tmp_path / "b") == []


def test_compare_missing_dir_raises(tmp_path, small_config_text):
    run_and_emit(small_config_text, tmp_path / "a")
    with pytest.raises(FileNotFoundError):
        compare_runlogs(tmp_path / "a", tmp_path / "missing")


def test_single_task_run_emits_and_verifies(tmp_path):
    run_and_emit(small_config(num_tasks=1), tmp_path / "k1")
    loaded = load_runlog(tmp_path / "k1")
    assert loaded.summary["bwt"] == ""
    assert verify_runlog(tmp_path / "k1") == []


def test_client_prox_run_emits_and_verifies(tmp_path):
    run_and_emit(small_config(algorithm="special_c", prox_lambda=0.5), tmp_path / "sc")
    assert verify_runlog(tmp_path / "sc") == []


def test_relu_model_flags_smoothness(tmp_path):
    text = small_config().replace(
        "kind = logreg", "kind = mlp1\nhidden_dim = 6\nactivation = relu"
    )
    artifacts = run_and_emit(text, tmp_path / "relu")
    assert any(r.name == "smoothness_model_flag" for r in artifacts.reports)
    assert verify_runlog(tmp_path / "relu") == []


def test_float_formatting_roundtrips():
    import math

    for value in (1.0 / 3.0, 1e-17, 123456.789, math.pi, 0.1 + 0.2):
        assert float(fmt(value)) == value
    assert fmt(None) == ""
    assert fmt(float("inf")) == "inf"


def test_tables_declare_each_field_once_in_field_order():
    # load_runlog builds each object from its table positionally.
    round_fields = [f.name for f in fields(Rounds)]
    assert round_fields[-1] == "accuracies"
    assert [field for field, _ in runio.ROUND_COLUMNS] == round_fields[:-1]
    assert [field for field, _ in runio.BOUND_COLUMNS] == [f.name for f in fields(BoundReport)]
    assert [field for _, field, _ in runio.STATS_ROWS] == [f.name for f in fields(RunStats)]
    assert [field for _, field, _ in runio.CONSTANT_ROWS] == [f.name for f in fields(ConstantEstimates)]
    keys = [key for key, _, _ in runio.STATS_ROWS + runio.CONSTANT_ROWS]
    assert len(set(keys)) == len(keys)


@functools.lru_cache(maxsize=1)
def small_artifacts():
    return run_experiment(small_config())


# Every float a run can hold: None where optional, +-inf, nan, -0.0 and
# subnormals included.
FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
OPTIONAL = st.none() | FLOATS
COUNTS = st.integers(0, 2**70)  # above 2**53, where a float would round
# One line of text: no line break of any kind, and no comma in a name.
TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12)


@st.composite
def run_values(draw):
    """Rounds, stats, constants and reports of a two-task run."""
    n = draw(st.integers(1, 6))
    column = functools.partial(st.lists, min_size=n, max_size=n)
    rounds = st.builds(
        Rounds, column(COUNTS), column(COUNTS), column(st.lists(COUNTS, min_size=1, max_size=4).map(tuple)),
        column(FLOATS), column(FLOATS), column(OPTIONAL), column(OPTIONAL), column(FLOATS), column(FLOATS),
        column(st.none() | st.tuples(FLOATS, FLOATS)),
    )
    report = st.builds(
        BoundReport, TEXT.filter(lambda text: "," not in text), OPTIONAL, OPTIONAL,
        st.booleans(), TEXT,
    )
    return (
        draw(rounds),
        draw(st.builds(RunStats, FLOATS, FLOATS, FLOATS, OPTIONAL)),
        draw(st.builds(ConstantEstimates, *[FLOATS] * 7, COUNTS, COUNTS)),
        draw(st.lists(report, max_size=4)),
    )


@settings(max_examples=60, deadline=None)
@given(values=run_values())
def test_emit_load_emit_round_trips_every_byte(values):
    rounds, stats, constants, reports = values
    base = small_artifacts()
    artifacts = replace(
        base, log=replace(base.log, rounds=rounds, stats=stats), constants=constants,
        reports=reports,
    )
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        emit_runlog(artifacts, first)
        loaded = load_runlog(first)
        for name in ("joint_grad_sq", "prev_task_loss", "accuracies"):  # None is not NaN
            assert [v is None for v in getattr(loaded.rounds, name)] == [v is None for v in getattr(rounds, name)]
        emit_runlog(
            replace(
                artifacts, log=replace(artifacts.log, rounds=loaded.rounds, stats=loaded.stats),
                constants=loaded.constants, reports=loaded.reports,
            ),
            second,
        )
        for name in (ROUNDS_FILE, MATRIX_FILE, SUMMARY_FILE, BOUNDS_FILE, CONFIG_FILE):
            assert (first / name).read_bytes() == (second / name).read_bytes()
