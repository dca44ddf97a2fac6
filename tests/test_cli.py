import contextlib
import io
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdilsim import cli, run_experiment
from fdilsim.cli import main
from fdilsim.client import DivergenceError
from fdilsim.runio import CONFIG_FILE, OUTPUT_FILES, ROUNDS_FILE, SUMMARY_FILE
from conftest import fail_write, small_config, tree


def _limit_address_space():
    # A size check that fails to fire must not take the machine's memory.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


# For each fdilsim subprocess of a test: 1 GiB of address space, 2 minutes.
LIMITS = dict(preexec_fn=_limit_address_space, timeout=120)


def write_config(tmp_path, name="config.ini", **overrides):
    path = tmp_path / name
    path.write_text(small_config(**overrides), encoding="utf-8")
    return path


def test_run_and_verify_roundtrip(tmp_path, capsys):
    config = write_config(tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["run", str(config)]) == 0
    assert (tmp_path / "out" / ROUNDS_FILE).exists()
    assert main(["verify", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "verify ok" in out


def test_run_out_override(tmp_path):
    config = write_config(tmp_path)
    assert main(["run", str(config), "--out", str(tmp_path / "elsewhere")]) == 0
    assert (tmp_path / "elsewhere" / SUMMARY_FILE).exists()


def test_verify_tampered_run_exits_2(tmp_path):
    config = write_config(tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["run", str(config)]) == 0
    rounds = tmp_path / "out" / ROUNDS_FILE
    lines = rounds.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    drift_col = header.index("drift_sq")
    for idx in range(1, len(lines)):
        parts = lines[idx].split(",")
        if parts[0] == "2":
            parts[drift_col] = "9e9"
            lines[idx] = ",".join(parts)
            break
    rounds.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", str(tmp_path / "out")]) == 2


def test_verify_corrupted_matrix_exits_2(tmp_path):
    config = write_config(tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["run", str(config)]) == 0
    matrix = tmp_path / "out" / "accuracy_matrix.csv"
    lines = matrix.read_text(encoding="utf-8").splitlines()
    parts = lines[1].split(",")
    parts[2] = "1.5"
    lines[1] = ",".join(parts)
    matrix.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", str(tmp_path / "out")]) == 2


MALFORMED = "is not a [section] or a key = value under one"


def test_verify_malformed_config_snapshot_prints_one_violation_line(tmp_path, capsys):
    # configparser's own message lists the bad lines over several lines.
    config = write_config(tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["run", str(config)]) == 0
    snapshot = tmp_path / "out" / CONFIG_FILE
    snapshot.write_text("kind = logreg\n" + snapshot.read_text(encoding="utf-8"), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "out")]) == 2
    message = f"malformed config: line 1 {MALFORMED}"
    assert capsys.readouterr().out == f"VIOLATION: run files unreadable as a valid log: {message}\n"


def test_compare_equivalence_and_difference(tmp_path):
    cfg_special = write_config(
        tmp_path, "special.ini", algorithm="special", prox_lambda=0.0,
        output_dir=str(tmp_path / "special"),
    )
    cfg_fedavg = write_config(
        tmp_path, "fedavg.ini", algorithm="fedavg", prox_lambda=0.0,
        output_dir=str(tmp_path / "fedavg"),
    )
    assert main(["run", str(cfg_special)]) == 0
    assert main(["run", str(cfg_fedavg)]) == 0
    assert main(["compare", str(tmp_path / "special"), str(tmp_path / "fedavg")]) == 0

    cfg_other = write_config(
        tmp_path, "other.ini", seed=99, output_dir=str(tmp_path / "other")
    )
    assert main(["run", str(cfg_other)]) == 0
    assert main(["compare", str(tmp_path / "special"), str(tmp_path / "other")]) == 2


def test_sweep_writes_summary_and_subruns(tmp_path):
    config = write_config(tmp_path, output_dir=str(tmp_path / "sweep"))
    assert main(["sweep", str(config), "--lambda", "0,0.5"]) == 0
    summary = (tmp_path / "sweep" / "sweep_summary.csv").read_text(encoding="utf-8")
    lines = summary.splitlines()
    assert lines[0] == "lambda,acc,bwt"
    assert len(lines) == 3
    assert (tmp_path / "sweep" / "lambda_0" / ROUNDS_FILE).exists()
    assert (tmp_path / "sweep" / "lambda_0.5" / ROUNDS_FILE).exists()
    # Each sub-run verifies against its own effective config snapshot.
    assert main(["verify", str(tmp_path / "sweep" / "lambda_0.5")]) == 0


def test_sweep_that_cannot_write_a_subrun_leaves_nothing_it_created(tmp_path, capsys):
    # A file in the way of the second sub-run once left a complete lambda_0/
    # and no summary behind.
    config = write_config(tmp_path, output_dir=str(tmp_path / "sweep"))
    (tmp_path / "sweep").mkdir()
    (tmp_path / "sweep" / "lambda_0.25").touch()
    assert main(["sweep", str(config), "--lambda", "0,0.25"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("io error: ")
    assert [p.name for p in (tmp_path / "sweep").iterdir()] == ["lambda_0.25"]
    # With nothing in the way, the same sweep completes.
    (tmp_path / "sweep" / "lambda_0.25").unlink()
    assert main(["sweep", str(config), "--lambda", "0,0.25"]) == 0
    written = sorted(p.name for p in (tmp_path / "sweep").iterdir())
    assert written == ["lambda_0", "lambda_0.25", "sweep_summary.csv"]


def test_sweep_that_diverges_at_a_later_lambda_writes_nothing(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path, output_dir=str(tmp_path / "sweep"))
    calls = []

    def diverge_on_second(text):
        calls.append(text)
        if len(calls) == 2:
            raise DivergenceError("non-finite parameter values")
        return run_experiment(text)

    monkeypatch.setattr(cli, "run_experiment", diverge_on_second)
    assert main(["sweep", str(config), "--lambda", "0,0.5,1"]) == 4
    out, err = capsys.readouterr()
    assert len(calls) == 2 and out == ""
    assert err == "diverged: non-finite parameter values\n"
    assert not (tmp_path / "sweep").exists()


def test_failed_sweep_leaves_every_earlier_file_as_it_was(tmp_path, capsys):
    # A file in the way of lambda_0.25/ once let the rerun replace lambda_0/
    # under the old sweep_summary.csv.
    config = write_config(tmp_path, output_dir=str(tmp_path / "sweep"))
    assert main(["sweep", str(config), "--lambda", "0,0.25"]) == 0
    shutil.rmtree(tmp_path / "sweep" / "lambda_0.25")
    (tmp_path / "sweep" / "lambda_0.25").touch()
    rerun = write_config(tmp_path, "seed3.ini", output_dir=str(tmp_path / "sweep"), seed=3)
    before = tree(tmp_path)
    capsys.readouterr()
    assert main(["sweep", str(rerun), "--lambda", "0,0.25"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("io error: ")
    assert tree(tmp_path) == before


@pytest.mark.parametrize("failing", [1, 7, 16], ids=["first_subrun", "second_subrun", "summary"])
def test_sweep_whose_write_fails_changes_nothing(tmp_path, monkeypatch, capsys, failing):
    # 16 writes: five files for each of three sub-runs, then the summary.
    # lambda_0.5/ is new; the other two sub-runs and the summary exist.
    config = write_config(tmp_path, output_dir=str(tmp_path / "sweep"))
    assert main(["sweep", str(config), "--lambda", "0,0.25"]) == 0
    rerun = write_config(tmp_path, "seed3.ini", output_dir=str(tmp_path / "sweep"), seed=3)
    before = tree(tmp_path)
    writes = fail_write(monkeypatch, failing)
    capsys.readouterr()
    assert main(["sweep", str(rerun), "--lambda", "0,0.25,0.5"]) == 3
    assert capsys.readouterr() == ("", "io error: disk full\n")
    assert len(writes) == failing
    assert tree(tmp_path) == before


def test_sweep_subruns_equal_independent_runs(tmp_path, capsys):
    config = write_config(tmp_path, output_dir=str(tmp_path / "sweep"))
    assert main(["sweep", str(config), "--lambda", "0,0.5,1e6"]) == 0
    for sub in ("lambda_0", "lambda_0.5", "lambda_1000000"):
        sub_dir, alone = tmp_path / "sweep" / sub, tmp_path / "alone" / sub
        assert main(["run", str(sub_dir / CONFIG_FILE), "--out", str(alone)]) == 0
        for name in OUTPUT_FILES:
            assert (alone / name).read_bytes() == (sub_dir / name).read_bytes()
        capsys.readouterr()
        assert main(["compare", str(sub_dir), str(alone)]) == 0
        assert capsys.readouterr().out == "identical\n"


def test_usage_errors_exit_1(tmp_path):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    config = write_config(tmp_path)
    assert main(["sweep", str(config), "--lambda", "abc"]) == 1
    assert main(["sweep", str(config), "--lambda", "-1"]) == 1
    bad = tmp_path / "bad.ini"
    bad.write_text(small_config().replace("prox_lambda = 0.25", "prox_lambda = -1"), encoding="utf-8")
    assert main(["run", str(bad)]) == 1


def test_config_not_utf8_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(b"\xff" + small_config().encode("utf-8"))
    out = tmp_path / "out"
    for argv in (["run", str(bad), "--out", str(out)], ["sweep", str(bad), "--lambda", "0", "--out", str(out)]):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ") and str(bad) in err
        assert not out.exists()


def test_sweep_rejects_bad_grid_before_any_subrun(tmp_path):
    for grid, out in (("0.5,-1", "negative"), ("0.5,nan", "nan"), ("0.5,inf", "inf")):
        config = write_config(tmp_path, f"{out}.ini", output_dir=str(tmp_path / out))
        assert main(["sweep", str(config), "--lambda", grid]) == 1
        assert not (tmp_path / out).exists()


def test_sweep_rejects_repeated_lambda_values(tmp_path, capsys):
    # Compared as floats: -0 repeats 0.0, and 0,0 repeats 0.
    for grid, out in (("-0,0.0", "signed"), ("0,0", "plain"), ("0.5,0.50", "spelled")):
        config = write_config(tmp_path, f"{out}.ini", output_dir=str(tmp_path / out))
        capsys.readouterr()
        assert main(["sweep", str(config), f"--lambda={grid}"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "repeated" in err and "Traceback" not in err
        assert not (tmp_path / out).exists()


def test_sweep_writes_negative_zero_lambda_as_zero(tmp_path, capsys):
    config = write_config(tmp_path, output_dir=str(tmp_path / "sweep"))
    assert main(["sweep", str(config), "--lambda=-0"]) == 0
    assert "lambda=0:" in capsys.readouterr().out
    written = sorted(p.name for p in (tmp_path / "sweep").iterdir())
    assert written == ["lambda_0", "sweep_summary.csv"]
    snapshot = (tmp_path / "sweep" / "lambda_0" / "config.ini").read_text(encoding="utf-8")
    assert "prox_lambda = 0.0\n" in snapshot
    summary = (tmp_path / "sweep" / "sweep_summary.csv").read_text(encoding="utf-8").splitlines()
    assert len(summary) == 2 and summary[1].startswith("0,")


def test_io_errors_exit_3(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.ini")]) == 3
    assert main(["compare", str(tmp_path / "nope_a"), str(tmp_path / "nope_b")]) == 3
    assert main(["verify", str(tmp_path / "nope")]) == 3
    # Each one-line message names the path that could not be read.
    lines = capsys.readouterr().err.splitlines()
    assert [line.startswith("io error: ") for line in lines] == [True] * 3
    assert str(tmp_path / "missing.ini") in lines[0]
    assert str(tmp_path / "nope_a" / ROUNDS_FILE) in lines[1]
    assert str(tmp_path / "nope" / CONFIG_FILE) in lines[2]


def test_shipped_default_profile_runs(tmp_path):
    profile = Path(__file__).resolve().parent.parent / "profiles" / "default.ini"
    assert main(["run", str(profile), "--out", str(tmp_path / "default")]) == 0
    assert (tmp_path / "default" / ROUNDS_FILE).exists()
    assert main(["verify", str(tmp_path / "default")]) == 0


def test_overflowing_local_lr_runs_and_verifies_without_traceback(tmp_path):
    # Bound formulas that overflow a float report inf instead of raising.
    root = Path(__file__).resolve().parent.parent
    text = (root / "profiles" / "default.ini").read_text(encoding="utf-8")
    config = tmp_path / "huge_lr.ini"
    config.write_text(text.replace("local_lr = 0.001", "local_lr = 1e300"), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = tmp_path / "run"
    codes = []
    for argv in (["run", str(config), "--out", str(out)], ["verify", str(out)]):
        proc = subprocess.run(
            [sys.executable, "-m", "fdilsim", *argv], capture_output=True, text=True, env=env
        )
        codes.append(proc.returncode)
        assert "Traceback" not in proc.stdout + proc.stderr
    assert codes[0] == 0 and codes[1] in (0, 2)  # documented exit codes
    report = (out / "bound_report.csv").read_text(encoding="utf-8")
    assert "drift_cap_task_2,inf," in report


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("probe_scale = 1.0", "probe_scale = 1e308", "probe.probe_scale: 1e+308 overflows random probe point 3"),
        ("class_cov_scale = 0.6", "class_cov_scale = nan", "data.class_cov_scale must be finite"),
        ("mean_drift = 0.1", "mean_drift = inf", "data.mean_drift must be finite"),
        ("dirichlet_alpha = 0.1", "dirichlet_alpha = inf", "partition.dirichlet_alpha must be finite"),
        (
            "class_cov_scale = 0.6",
            "class_cov_scale = 1e308",
            "data.class_cov_scale: 1e+308 overflows the generated inputs",
        ),
        ("mean_drift = 0.1", "mean_drift = 1e308", "data.mean_drift: 1e+308 overflows the class means of task 3"),
    ],
)
def test_non_finite_values_exit_1_with_one_line_and_no_run_dir(tmp_path, old, new, message):
    # Each used to end in a traceback: the probe scale from the estimator's
    # parameter check, the others from data generation (the finite 1e308
    # settings overflow the generated data).
    assert_one_line_config_error(tmp_path, old, new, message)


@pytest.mark.parametrize(
    "old, new, line", [("[model]\n", "", 3), ("kind = logreg", "kind", 4)], ids=["no-section-header", "bare-key"]
)
def test_malformed_config_exits_1_with_one_line_naming_the_bad_line(tmp_path, old, new, line):
    # A key above every section header printed 3 lines, a bare key 2.
    assert_one_line_config_error(tmp_path, old, new, f"malformed config: line {line} {MALFORMED}")


def test_oversized_integer_exits_1_with_one_line_and_no_run_dir(tmp_path):
    # Used to end in an OverflowError traceback from numpy during data generation.
    huge = "1" + "0" * 400
    assert_one_line_config_error(
        tmp_path,
        "train_samples_per_task = 480",
        f"train_samples_per_task = {huge}",
        "data.train_samples_per_task must be below 2**63",
    )


HUGE = 2**62


@pytest.mark.parametrize(
    "old, new, message",
    [
        (
            "train_samples_per_task = 480",
            f"train_samples_per_task = {HUGE}",
            f"data.train_samples_per_task: {HUGE} needs an array of {HUGE * 3} values, more than numpy can hold",
        ),
        (
            "test_samples_per_task = 240",
            f"test_samples_per_task = {HUGE}",
            f"data.test_samples_per_task: {HUGE} needs an array of {HUGE * 3} values, more than numpy can hold",
        ),
        (
            "kind = logreg",
            f"kind = mlp1\nhidden_dim = {HUGE}",
            f"model.hidden_dim: {HUGE} needs an array of {HUGE * 6 + 3} values, more than numpy can hold",
        ),
        (
            "local_epochs = 5",
            f"local_epochs = {HUGE}",
            # E x 4 sampled clients x 32 rows (batch 32 < 480 / 8) x 3 values.
            f"federation.local_epochs: {HUGE} needs an array of {HUGE * 4 * 32 * 3} values, "
            "more than numpy can hold",
        ),
        (
            "num_clients = 8",
            f"num_clients = {HUGE}",
            "data.train_samples_per_task: train pool 480 cannot satisfy "
            f"num_clients * min_samples_per_client = {HUGE * 4}",
        ),
        (
            "num_random_probes = 8",
            f"num_random_probes = {HUGE}",
            # The random probes and K + 1 = 4 checkpoints, d = 9 values each.
            f"probe.num_random_probes: {HUGE} needs an array of {(HUGE + 4) * 9} values, "
            "more than numpy can hold",
        ),
        (
            # One probe's draws: the task with the most drawing shards has 5,
            # each drawing draws x 32 rows (the batch is wider than d = 9).
            "minibatch_draws = 4",
            f"minibatch_draws = {HUGE}",
            f"probe.minibatch_draws: {HUGE} needs an array of {5 * HUGE * 32} values, "
            "more than numpy can hold",
        ),
        (
            # Above ceil(480 / 8) rows no shard must draw, but up to 4 of a task do.
            "minibatch_draws = 4\nbatch_size = 32",
            f"minibatch_draws = {HUGE}\nbatch_size = 64",
            f"probe.minibatch_draws: {HUGE} needs an array of {4 * HUGE * 64} values, "
            "more than numpy can hold",
        ),
        (
            # One shard's draws x 32 rows fit numpy's size limit; those of the 5
            # shards that one probe draws at once do not.
            "minibatch_draws = 4",
            f"minibatch_draws = {2**54}",
            f"probe.minibatch_draws: {2**54} needs an array of {5 * 2**54 * 32} values, "
            "more than numpy can hold",
        ),
    ],
    ids=[
        "train_samples", "test_samples", "hidden_dim", "local_epochs", "num_clients",
        "random_probes", "minibatch_draws", "minibatch_draws_batch64", "minibatch_draws_all_shards",
    ],
)
def test_sizes_numpy_refuses_exit_1_with_one_line_and_no_run_dir(tmp_path, old, new, message):
    # Each used to end in a traceback (numpy's ``array is too big`` or
    # ``Maximum allowed dimension exceeded``) during data generation,
    # initialisation, the first round or the probe draws, except the random
    # probes, which never finished.  numpy refuses these sizes before
    # allocating anything, so the run allocates nothing large either way.
    assert_one_line_config_error(tmp_path, old, new, message)


def test_huge_probe_draws_complete_when_no_shard_draws(tmp_path):
    # A probe batch of the whole train pool uses every shard whole: nothing draws.
    root = Path(__file__).resolve().parent.parent
    text = (root / "profiles" / "default.ini").read_text(encoding="utf-8")
    old = "minibatch_draws = 4\nbatch_size = 32"
    assert old in text
    text = text.replace(old, f"minibatch_draws = {HUGE}\nbatch_size = 480")
    out, _ = run_and_verify(tmp_path, "huge_draws", text)
    summary = (out / "metrics_summary.csv").read_text(encoding="utf-8")
    # 12 probe points x 3 tasks x 8 clients x the draws.
    assert f"minibatch_draws,{12 * 3 * 8 * HUGE}" in summary.splitlines()


def test_unallocatable_size_exits_1_with_one_line_and_no_run_dir(tmp_path):
    # numpy accepts 2**50 draws of 32 rows, but not under a 1 GiB address
    # space: the allocation raised MemoryError, which used to end in a traceback.
    root = Path(__file__).resolve().parent.parent
    text = (root / "profiles" / "default.ini").read_text(encoding="utf-8")
    config = tmp_path / "huge_draws.ini"
    config.write_text(text.replace("minibatch_draws = 4", f"minibatch_draws = {2**50}"), encoding="utf-8")
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "fdilsim", "run", str(config), "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(root / "src")),
        **LIMITS,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("out of memory: Unable to allocate ")
    assert not out.exists()


def assert_one_line_config_error(tmp_path, old, new, message):
    """``fdilsim run`` on default.ini with ``old`` replaced: exit 1, one stderr line, no run dir."""
    root = Path(__file__).resolve().parent.parent
    text = (root / "profiles" / "default.ini").read_text(encoding="utf-8")
    assert old in text
    config = tmp_path / "bad.ini"
    config.write_text(text.replace(old, new), encoding="utf-8")
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "fdilsim", "run", str(config), "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(root / "src")),
        **LIMITS,
    )
    assert proc.returncode == 1
    assert (proc.stdout, proc.stderr) == ("", f"config error: {message}\n")
    assert not out.exists()


def run_and_verify(tmp_path, name, config_text):
    """``fdilsim run`` then ``verify`` in subprocesses, each exit 0 without a traceback.

    Returns the run directory and its bound-report rows by name.
    """
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    config = tmp_path / f"{name}.ini"
    config.write_text(config_text, encoding="utf-8")
    out = tmp_path / name
    for argv in (["run", str(config), "--out", str(out)], ["verify", str(out)]):
        proc = subprocess.run(
            [sys.executable, "-m", "fdilsim", *argv],
            capture_output=True, text=True, env=env, **LIMITS,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "Traceback" not in proc.stdout + proc.stderr
    rows = {
        line.split(",")[0]: line
        for line in (out / "bound_report.csv").read_text(encoding="utf-8").splitlines()
    }
    return out, rows


def test_overflowing_lambda_flags_vacuous_caps_and_verifies(tmp_path):
    # Only lambda ** 2 overflows at lambda = 1e300: the caps are inf because
    # the evaluation overflowed, and their rows say so.
    root = Path(__file__).resolve().parent.parent
    text = (root / "profiles" / "default.ini").read_text(encoding="utf-8")
    text = text.replace("prox_lambda = 0.25", "prox_lambda = 1e300")

    out, rows = run_and_verify(tmp_path, "huge_lambda", text)
    for name in ("drift_cap_task_2", "drift_cap_task_3", "stationarity_residual"):
        assert rows[name].split(",")[1] == "inf"
        assert rows[name].endswith(";vacuous=overflow")
    # Task 1 has no anchor: its cap is inf by design, not by overflow.
    assert rows["drift_cap_task_1"].split(",")[1] == "inf"
    assert "vacuous=overflow" not in rows["drift_cap_task_1"]

    # verify recomputes the inputs text too.
    report = out / "bound_report.csv"
    report.write_text(
        report.read_text(encoding="utf-8").replace(";vacuous=overflow", "", 1), encoding="utf-8"
    )
    assert main(["verify", str(out)]) == 2

    # Without a shift the alignment premise holds, so the retention
    # local-rate cap is evaluated, and it overflows too.
    unshifted = text.replace("rotation_angle = 0.5235987755982988", "rotation_angle = 0")
    unshifted = unshifted.replace("mean_drift = 0.1", "mean_drift = 0")
    _, rows = run_and_verify(tmp_path, "huge_lambda_unshifted", unshifted)
    assert rows["stepsize_bkt_gamma_l"].split(",")[1] == "inf"
    assert rows["stepsize_bkt_gamma_l"].endswith(";first_violating_round=none;vacuous=overflow")


def test_client_prox_at_a_lambda_whose_double_overflows_runs_and_verifies(tmp_path):
    # 2 * lambda is inf above about 8.99e307: the client-side proximal map
    # used to turn it into NaN, and the run exited 4 as diverged.
    root = Path(__file__).resolve().parent.parent
    text = (root / "profiles" / "default.ini").read_text(encoding="utf-8")
    text = text.replace("algorithm = special\n", "algorithm = special_c\n")
    text = text.replace("prox_lambda = 0.25", "prox_lambda = 9e307")
    run_and_verify(tmp_path, "huge_client_lambda", text)


def test_client_prox_where_two_lambda_times_the_anchor_overflows_runs_and_verifies(tmp_path):
    # At 8.9e307, 2 * lambda is finite, but 2 * lambda * anchor overflows
    # once an anchor entry passes about 1.01 in magnitude, which local_lr =
    # 0.2 brings about: the map's -inf made the run exit 4 as diverged.
    root = Path(__file__).resolve().parent.parent
    text = (root / "profiles" / "default.ini").read_text(encoding="utf-8")
    text = text.replace("algorithm = special\n", "algorithm = special_c\n")
    text = text.replace("prox_lambda = 0.25", "prox_lambda = 8.9e307")
    text = text.replace("local_lr = 0.001", "local_lr = 0.2")
    run_and_verify(tmp_path, "huge_client_lambda_anchor", text)


@pytest.mark.parametrize("lam", ["1e-160", "1e-200", "5e-324"])
def test_tiny_lambda_flags_vacuous_caps_and_verifies(tmp_path, lam):
    # lambda ** 2 underflows to 0 at 1e-200 and 5e-324, and dividing by it
    # used to end run and verify in a ZeroDivisionError traceback.  At 1e-160
    # it is subnormal, and the quotients became inf without a flag.  The caps
    # that divide by it are inf because their evaluation overflowed.
    root = Path(__file__).resolve().parent.parent
    text = (root / "profiles" / "default.ini").read_text(encoding="utf-8")
    text = text.replace("prox_lambda = 0.25", f"prox_lambda = {lam}")
    _, rows = run_and_verify(tmp_path, "tiny_lambda", text)
    for name in ("drift_cap_task_2", "drift_cap_task_3", "stationarity_residual"):
        assert rows[name].split(",")[1] == "inf"
        assert rows[name].endswith(";vacuous=overflow")
    assert "vacuous=overflow" not in rows["drift_cap_task_1"]


@pytest.mark.parametrize("lr", ["1e-300", "5e-324"])
def test_tiny_local_rate_flags_underflowed_caps_and_verifies(tmp_path, capsys, lr):
    # gamma_l ** 2 underflows to 0, so the anchored drift caps read 0 and are
    # flagged.  The local steps do not move the model and the blend maps the
    # anchor to itself, so the drift is exactly 0 and the caps hold.  At
    # 5e-324 the stationarity cap's divisor underflows to 0 too, which ended
    # run in a traceback.
    root = Path(__file__).resolve().parent.parent
    text = (root / "profiles" / "default.ini").read_text(encoding="utf-8")
    config = tmp_path / "tiny_rate.ini"
    config.write_text(text.replace("local_lr = 0.001", f"local_lr = {lr}"), encoding="utf-8")
    out = tmp_path / "tiny_rate"
    assert main(["run", str(config), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("run complete: ")
    assert lines[1].startswith("bounds: ") and "drift_cap" not in lines[1]
    assert main(["verify", str(out)]) == 0
    rows = {
        line.split(",")[0]: line
        for line in (out / "bound_report.csv").read_text(encoding="utf-8").splitlines()
    }
    for name in ("drift_cap_task_2", "drift_cap_task_3"):
        assert rows[name].split(",")[1] == "0"
        assert rows[name].endswith(";vacuous=underflow")
    assert rows["drift_cap_task_2"].split(",")[3] == "true"
    assert anchored_drifts(out) == {"0"}
    stationarity = rows["stationarity_residual"]
    assert stationarity.endswith(";vacuous=overflow") == (lr == "5e-324")


def anchored_drifts(out):
    """The set of ``drift_sq`` texts that tasks 2 and on log in the run's rounds file."""
    lines = (out / ROUNDS_FILE).read_text(encoding="utf-8").splitlines()
    column = lines[0].split(",").index("drift_sq")
    return {row.split(",")[column] for row in lines[1:] if row.split(",")[0] != "1"}


def test_small_representable_drift_cap_is_not_flagged(tmp_path, capsys):
    # At local_lr = 1e-20 the drift cap of task 2 is about 4e-38: representable,
    # so it carries no flag.  The local steps do not move the model and the
    # blend maps the anchor to itself, so the drift is exactly 0 and the cap
    # holds (the old blend's rounding left a drift near 6e-36 and broke it).
    root = Path(__file__).resolve().parent.parent
    text = (root / "profiles" / "default.ini").read_text(encoding="utf-8")
    config = tmp_path / "small_rate.ini"
    config.write_text(text.replace("local_lr = 0.001", "local_lr = 1e-20"), encoding="utf-8")
    out = tmp_path / "small_rate"
    assert main(["run", str(config), "--out", str(out)]) == 0
    assert "drift_cap_task_2" not in capsys.readouterr().out.splitlines()[1]
    assert main(["verify", str(out)]) == 0
    rows = {
        line.split(",")[0]: line
        for line in (out / "bound_report.csv").read_text(encoding="utf-8").splitlines()
    }
    fields = rows["drift_cap_task_2"].split(",")
    assert 0.0 < float(fields[1]) < 1e-37 and fields[3] == "true"
    assert ";vacuous=" not in rows["drift_cap_task_2"]
    assert anchored_drifts(out) == {"0"}


@pytest.mark.xfail(strict=True, reason="open defect: a drift cap finer than the model's float resolution")
def test_drift_cap_finer_than_the_models_float_resolution_verifies(tmp_path, capsys):
    # At lambda = 1e14 one step of one client moves the blended model by
    # about one ulp of its coordinates, so the stored model cannot land
    # inside the exact-arithmetic cap: task 2 logs a drift of 3.07e-34
    # against a cap of 2.72e-34, and verify exits 2 on a run that did what
    # it should.
    config = write_config(
        tmp_path, train=13, test=3, alpha=0.05, num_clients=5, participants=1, rounds=2,
        epochs=1, batch=1, local_lr=0.001, schedule="constant", prox_lambda=1e14, seed=0,
        probes=0, draws=1, joint_grad_every=0,
    )
    assert main(["run", str(config), "--out", str(tmp_path / "run")]) == 0
    assert main(["verify", str(tmp_path / "run")]) == 0


def test_run_prints_bound_summary(tmp_path, capsys):
    profile = Path(__file__).resolve().parent.parent / "profiles" / "default.ini"
    assert main(["run", str(profile), "--out", str(tmp_path / "default")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("run complete: ")
    rows = (tmp_path / "default" / "bound_report.csv").read_text(encoding="utf-8").splitlines()[1:]
    violated = [row.split(",")[0] for row in rows if row.split(",")[3] == "false"]
    assert violated  # default.ini breaks the retention step-size caps
    assert lines[1] == (
        f"bounds: {len(rows) - len(violated)}/{len(rows)} satisfied; "
        f"violated: {', '.join(violated)}"
    )


def test_diverging_run_exits_4_without_traceback_or_run_dir(tmp_path):
    root = Path(__file__).resolve().parent.parent
    text = (root / "profiles" / "default.ini").read_text(encoding="utf-8")
    text = text.replace("kind = logreg", "kind = mlp1\nhidden_dim = 8\nactivation = relu")
    config = tmp_path / "diverge.ini"
    config.write_text(text.replace("local_lr = 0.001", "local_lr = 1e3"), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for command, out in (("run", tmp_path / "run"), ("sweep", tmp_path / "sweep")):
        argv = [command, str(config), "--out", str(out)]
        if command == "sweep":
            argv += ["--lambda", "0.25"]
        proc = subprocess.run(
            [sys.executable, "-m", "fdilsim", *argv], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("diverged: ")
        assert not out.exists()


@st.composite
def small_configs(draw, activations=("", "tanh", "relu")) -> str:
    """A small config, valid or near it: tiny and huge rates and lambdas included.

    The model is logreg for an activation of ``""``, else mlp1 with it.
    """
    num_clients = draw(st.integers(1, 6))
    text = small_config(
        num_tasks=draw(st.integers(1, 3)),
        train=draw(st.integers(4, 80)),
        test=draw(st.integers(3, 30)),
        alpha=draw(st.sampled_from([0.05, 0.5, 5.0])),
        min_samples=draw(st.integers(1, 3)),
        num_clients=num_clients,
        participants=draw(st.integers(1, num_clients)),
        rounds=draw(st.integers(1, 3)),
        epochs=draw(st.integers(1, 3)),
        batch=draw(st.integers(1, 20)),
        local_lr=draw(st.sampled_from([5e-324, 1e-300, 1e-20, 1e-3, 0.05, 1.0, 1e3, 1e300])),
        schedule=draw(st.sampled_from(["constant", "task_decay"])),
        algorithm=draw(st.sampled_from(["fedavg", "special", "special_c"])),
        prox_lambda=draw(st.sampled_from([0.0, 1e-200, 1e-160, 0.25, 2.0, 1e300])),
        seed=draw(st.integers(0, 2**32)),
        probes=draw(st.integers(0, 3)),
        draws=draw(st.integers(1, 2)),
        eval_every=draw(st.integers(0, 2)),
        joint_grad_every=draw(st.integers(0, 2)),
    )
    model = draw(st.sampled_from(activations))
    if model:
        text = text.replace("kind = logreg", f"kind = mlp1\nhidden_dim = 3\nactivation = {model}")
    return text


def quietly(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)`` with its exit code, stdout and stderr; a warning raises."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(text=small_configs())
def test_a_small_config_fails_in_one_line_or_runs_and_verifies(text):
    with tempfile.TemporaryDirectory() as tmp:
        config, run_dir = Path(tmp) / "config.ini", Path(tmp) / "run"
        config.write_text(text, encoding="utf-8")
        code, out, err = quietly(["run", str(config), "--out", str(run_dir)])
        if code != 0:
            assert code in (1, 4) and out == "" and err.count("\n") == 1
            assert not run_dir.exists()
            return
        assert err == ""
        assert quietly(["verify", str(run_dir)]) == (0, "verify ok\n", "")
        assert quietly(["compare", str(run_dir), str(run_dir)]) == (0, "identical\n", "")
