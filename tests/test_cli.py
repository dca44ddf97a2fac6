import os
import subprocess
import sys
from pathlib import Path

from fdilsim.cli import main
from fdilsim.runio import ROUNDS_FILE, SUMMARY_FILE
from conftest import small_config


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


def test_usage_errors_exit_1(tmp_path):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    config = write_config(tmp_path)
    assert main(["sweep", str(config), "--lambda", "abc"]) == 1
    assert main(["sweep", str(config), "--lambda", "-1"]) == 1
    bad = tmp_path / "bad.ini"
    bad.write_text(small_config().replace("prox_lambda = 0.25", "prox_lambda = -1"), encoding="utf-8")
    assert main(["run", str(bad)]) == 1


def test_sweep_rejects_bad_grid_before_any_subrun(tmp_path):
    for grid, out in (("0.5,-1", "negative"), ("0.5,nan", "nan"), ("0.5,inf", "inf")):
        config = write_config(tmp_path, f"{out}.ini", output_dir=str(tmp_path / out))
        assert main(["sweep", str(config), "--lambda", grid]) == 1
        assert not (tmp_path / out).exists()


def test_io_errors_exit_3(tmp_path):
    assert main(["run", str(tmp_path / "missing.ini")]) == 3
    assert main(["compare", str(tmp_path / "nope_a"), str(tmp_path / "nope_b")]) == 3


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


def test_overflowing_lambda_flags_vacuous_caps_and_verifies(tmp_path):
    # Only lambda ** 2 overflows at lambda = 1e300: the caps are inf because
    # the evaluation overflowed, and their rows say so.
    root = Path(__file__).resolve().parent.parent
    text = (root / "profiles" / "default.ini").read_text(encoding="utf-8")
    text = text.replace("prox_lambda = 0.25", "prox_lambda = 1e300")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run_and_verify(name, config_text):
        config = tmp_path / f"{name}.ini"
        config.write_text(config_text, encoding="utf-8")
        out = tmp_path / name
        for argv in (["run", str(config), "--out", str(out)], ["verify", str(out)]):
            proc = subprocess.run(
                [sys.executable, "-m", "fdilsim", *argv], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
        rows = {
            line.split(",")[0]: line
            for line in (out / "bound_report.csv").read_text(encoding="utf-8").splitlines()
        }
        return out, rows

    out, rows = run_and_verify("huge_lambda", text)
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
    _, rows = run_and_verify("huge_lambda_unshifted", unshifted)
    assert rows["stepsize_bkt_gamma_l"].split(",")[1] == "inf"
    assert rows["stepsize_bkt_gamma_l"].endswith(";first_violating_round=none;vacuous=overflow")


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
