"""Self-test of the benchmark: repeatable counters, additive self times,
tolerance of missing functions, and refusal to run without the sources.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_benchmark.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import tracing  # noqa: E402


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def traced_result(seed: int) -> dict:
    proc = run_bench("--workload", "desk-sweep", "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counters_repeat_and_self_times_add_up():
    first, second = traced_result(1), traced_result(2)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
        assert set(metrics) == {m.name for m in tracing.METRICS} | {"trace.overhead_ratio"}
        modules = sum(metrics[f"{m}.self_s"] for m in tracing.MODULES)
        assert modules + metrics["trace.unattributed_s"] == pytest.approx(metrics["trace.wall_s"])
        assert metrics["trace.unattributed_s"] >= 0.0
    counts = {
        name: (first["metrics"][name]["value"], second["metrics"][name]["value"])
        for name in (m.name for m in tracing.METRICS if m.exact)
    }
    assert all(a == b for a, b in counts.values()), counts
    assert counts["models.loss_and_grad.calls"][0] > 0


def test_missing_function_is_reported_absent(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import fdilsim
    import fdilsim.metrics

    # As if a refactor had removed these two from their owning module.
    monkeypatch.delattr(fdilsim.metrics, "joint_objective_grad")
    monkeypatch.delattr(fdilsim.metrics, "client_objective_grad")
    with open(os.path.join(BENCH_DIR, "workloads", "desk-sweep.ini"), encoding="utf-8") as fh:
        text = fh.read()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fdilsim.parse_config_text(text)
    finally:
        tracer.uninstall()
    metrics, absent, _ = tracing.combine([tracer.reduce(1.0)])
    assert {"metrics.joint_objective.calls", "metrics.full_grad.rows", "theory.full_grad.s"} <= set(absent)
    assert metrics["models.loss_and_grad.calls"]["value"] == 0
    assert metrics["config.self_s"]["value"] > 0.0
    assert not hasattr(fdilsim.parse_config_text, "__wrapped__")  # wrappers removed


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "desk-sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
