"""The benchmark's per-layer metrics find fdilsim functions by module and name.

A target that is renamed or removed is not wrapped, and every metric that
needs it is reported absent.  This test reads ``benchmarks/tracing.py``
as it is and fails on such a rename instead.
"""

import importlib
import sys
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"
# Targets the tracer lists that fdilsim no longer has and no metric needs.
EXEMPT = {"metrics.joint_loss", "metrics.joint_grad_norm_sq"}


def load_tracing(monkeypatch):
    module = types.ModuleType("benchmark_tracing")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_target_is_callable(monkeypatch):
    tracing = load_tracing(monkeypatch)
    needed = {need for metric in tracing.METRICS for need in metric.needs}
    assert not EXEMPT & needed
    for target in tracing.INDEX:
        if target in EXEMPT:
            continue
        module, name = target.split(".")
        assert callable(getattr(importlib.import_module(f"fdilsim.{module}"), name, None)), target
