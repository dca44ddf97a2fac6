"""Per-layer tracing for the fdilsim benchmark.

Only ``--trace 1`` runs import this module.  ``Tracer.install`` wraps the
public fdilsim functions listed in ``TARGETS`` wherever a fdilsim module
holds a reference to them (``from .models import loss_and_grad`` in
``client`` included), so calls between modules pass through the wrappers
without any change under ``src/``.  Each call records a span (target, start,
end, parent span) in memory; a few wrappers also add to work counters.
``reduce`` turns the spans of one batch into per-layer metrics.  Each span
belongs to the module that owns its function, and a span's self time is its
duration minus that of its direct children, so the module self times plus an
unattributed remainder add up to the batch's wall time.

A target that a refactor renamed or removed is not wrapped; every metric that
needs it is reported absent rather than zero, and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

MODULES = (
    "models", "client", "server", "metrics", "theory",
    "rng", "datagen", "config", "experiment", "runio",
)

TARGETS = (
    ("models", "loss_and_grad"),
    ("models", "accuracy"),
    ("client", "local_update"),
    ("client", "draw_batch"),
    ("server", "run_sequence"),
    ("server", "sample_clients"),
    ("server", "aggregate"),
    ("server", "proximal_blend"),
    ("metrics", "joint_objective_grad"),
    ("metrics", "joint_loss"),
    ("metrics", "joint_grad_norm_sq"),
    ("metrics", "client_objective_grad"),
    ("theory", "estimate_constants"),
    ("rng", "derive_stream"),
    ("datagen", "generate_sequence"),
    ("datagen", "partition_sequence"),
    ("config", "parse_config_text"),
    ("experiment", "run_experiment"),
    ("experiment", "build_bound_reports"),
    ("runio", "emit_runlog"),
    ("runio", "verify_runlog"),
    ("runio", "compare_runlogs"),
)
INDEX = {f"{module}.{name}": i for i, (module, name) in enumerate(TARGETS)}
JOINT = ("metrics.joint_objective_grad", "metrics.joint_loss", "metrics.joint_grad_norm_sq")

_HOOK_ERRORS = (AttributeError, IndexError, KeyError, TypeError, OSError)


def _batch_rows(args, kwargs):
    batch = kwargs["batch"] if "batch" in kwargs else args[2]
    return batch.inputs.shape[0]


def _run_bytes(args, kwargs, result):
    out_dir = kwargs["out_dir"] if "out_dir" in kwargs else args[1]
    return (sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file()),)


# Per-span counters taken from the arguments before the call.
PRE_HOOKS: dict[str, Callable] = {"models.loss_and_grad": _batch_rows}
# Run counters taken from the result after the call: (names, fn -> values).
POST_HOOKS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "client.local_update": (("client.local_steps",), lambda a, k, r: (r.steps_taken,)),
    "theory.estimate_constants": (
        ("theory.probe_points", "theory.minibatch_draws"),
        lambda a, k, r: (r.num_probe_points, r.num_minibatch_draws),
    ),
    "runio.emit_runlog": (("runio.bytes_written",), _run_bytes),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    needs: tuple[str, ...]  # targets or counters; absent if any is missing
    value: Callable  # (Aggregate) -> float | None; None means absent
    exact: bool = False  # a work count that must repeat exactly


class Aggregate:
    """Sums over one batch's spans, indexed by target."""

    def __init__(self, spans: list, counters: dict, wall: float):
        n_targets = len(TARGETS)
        self.calls = [0] * n_targets
        self.incl = [0.0] * n_targets
        self.self_s = [0.0] * n_targets
        self.rows = [0] * n_targets
        self.counters = counters
        self.wall = wall
        self.joint_s = 0.0  # outermost joint-objective spans
        self.joint_rows = 0  # kernel rows inside a joint-objective span
        self.local_draw_self = 0.0  # draw_batch inside local_update
        self.probe_full_s = 0.0  # full-shard gradients under estimate_constants
        self.probe_minibatch_s = 0.0  # minibatch draws and kernels under estimate_constants

        joint = {INDEX[name] for name in JOINT}
        loss, draw = INDEX["models.loss_and_grad"], INDEX["client.draw_batch"]
        local, estimate = INDEX["client.local_update"], INDEX["theory.estimate_constants"]
        client_grad = INDEX["metrics.client_objective_grad"]
        child = [0.0] * len(spans)
        for target, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        in_joint = [False] * len(spans)
        for i, (target, start, end, parent, rows) in enumerate(spans):
            duration = end - start
            own = duration - child[i]
            self.calls[target] += 1
            self.incl[target] += duration
            self.self_s[target] += own
            if rows is not None:
                self.rows[target] += rows
            parent_target = spans[parent][0] if parent >= 0 else None
            inside = parent >= 0 and in_joint[parent]
            in_joint[i] = inside or target in joint
            if target in joint and not inside:
                self.joint_s += duration
            if target == loss and inside and rows is not None:
                self.joint_rows += rows
            if target == draw and parent_target == local:
                self.local_draw_self += own
            if parent_target == estimate:
                if target == client_grad:
                    self.probe_full_s += duration
                elif target in (draw, loss):
                    self.probe_minibatch_s += duration

    def module_self(self, module: str) -> float:
        return sum(self.self_s[i] for i, (m, _) in enumerate(TARGETS) if m == module)

    def per_call_us(self, target: str) -> float | None:
        i = INDEX[target]
        return self.incl[i] / self.calls[i] * 1e6 if self.calls[i] else None


def _calls(target):
    return Metric(f"{target}.calls", "count", (target,), lambda a: a.calls[INDEX[target]], exact=True)


def _incl(name, target):
    return Metric(name, "s", (target,), lambda a: a.incl[INDEX[target]])


def _self(target):
    return Metric(f"{target}.self_s", "s", (target,), lambda a: a.self_s[INDEX[target]])


def _counter(target, name, unit="count"):
    return Metric(name, unit, (target, name), lambda a: a.counters.get(name, 0), exact=True)


def _module_self(module):
    return Metric(f"{module}.self_s", "s", (module,), lambda a: a.module_self(module))


METRICS = (
    _calls("models.loss_and_grad"),
    Metric("models.loss_and_grad.rows", "count", ("models.loss_and_grad", "rows"),
           lambda a: a.rows[INDEX["models.loss_and_grad"]], exact=True),
    _self("models.loss_and_grad"),
    Metric("models.loss_and_grad.us_per_call", "us", ("models.loss_and_grad",),
           lambda a: a.per_call_us("models.loss_and_grad")),
    _calls("models.accuracy"),
    _self("models.accuracy"),
    _module_self("models"),
    _calls("client.local_update"),
    _incl("client.local_update.s", "client.local_update"),
    _self("client.local_update"),
    Metric("client.draw_batch.self_s", "s", ("client.draw_batch", "client.local_update"),
           lambda a: a.local_draw_self),
    _counter("client.local_update", "client.local_steps"),
    _module_self("client"),
    _incl("server.run_sequence.s", "server.run_sequence"),
    _incl("server.sample_clients.s", "server.sample_clients"),
    _incl("server.aggregate.s", "server.aggregate"),
    _incl("server.proximal_blend.s", "server.proximal_blend"),
    _module_self("server"),
    Metric("metrics.joint_objective.calls", "count", ("metrics.joint_objective_grad",),
           lambda a: a.calls[INDEX["metrics.joint_objective_grad"]], exact=True),
    Metric("metrics.joint_objective.s", "s", ("metrics.joint_objective_grad",), lambda a: a.joint_s),
    Metric("metrics.full_grad.rows", "count",
           ("metrics.joint_objective_grad", "models.loss_and_grad", "rows"),
           lambda a: a.joint_rows, exact=True),
    _module_self("metrics"),
    _incl("theory.estimate_constants.s", "theory.estimate_constants"),
    Metric("theory.full_grad.s", "s", ("theory.estimate_constants", "metrics.client_objective_grad"),
           lambda a: a.probe_full_s),
    Metric("theory.minibatch.s", "s",
           ("theory.estimate_constants", "client.draw_batch", "models.loss_and_grad"),
           lambda a: a.probe_minibatch_s),
    Metric("theory.reduce.self_s", "s", ("theory.estimate_constants",),
           lambda a: a.self_s[INDEX["theory.estimate_constants"]]),
    _counter("theory.estimate_constants", "theory.minibatch_draws"),
    _counter("theory.estimate_constants", "theory.probe_points"),
    _module_self("theory"),
    _calls("rng.derive_stream"),
    _incl("rng.derive_stream.s", "rng.derive_stream"),
    _module_self("rng"),
    _incl("datagen.generate.s", "datagen.generate_sequence"),
    _incl("datagen.partition.s", "datagen.partition_sequence"),
    _module_self("datagen"),
    _incl("config.parse.s", "config.parse_config_text"),
    _module_self("config"),
    _incl("experiment.build_bound_reports.s", "experiment.build_bound_reports"),
    _module_self("experiment"),
    _incl("runio.emit.s", "runio.emit_runlog"),
    _incl("runio.verify.s", "runio.verify_runlog"),
    _counter("runio.emit_runlog", "runio.bytes_written", "bytes"),
    _module_self("runio"),
    Metric("trace.wall_s", "s", (), lambda a: a.wall),
    Metric("trace.unattributed_s", "s", (),
           lambda a: a.wall - sum(a.module_self(m) for m in MODULES)),
)


class Tracer:
    """Wraps fdilsim's public functions and records spans and counters."""

    def __init__(self):
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._counters: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()  # absent modules, targets and counters

    def install(self) -> None:
        for module, name in TARGETS:
            key = f"{module}.{name}"
            try:
                mod = importlib.import_module(f"fdilsim.{module}")
            except ImportError:
                self.missing.update((module, key))
                continue
            fn = getattr(mod, name, None)
            if not callable(fn):
                self.missing.add(key)
                continue
            names, post = POST_HOOKS.get(key, ((), None))
            wrapper = self._wrap(INDEX[key], fn, PRE_HOOKS.get(key), names, post)
            for mod_name, loaded in list(sys.modules.items()):
                if mod_name != "fdilsim" and not mod_name.startswith("fdilsim."):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is fn:
                        setattr(loaded, attr, wrapper)
                        self._patches.append((loaded, attr, fn))

    def uninstall(self) -> None:
        for loaded, attr, fn in reversed(self._patches):
            setattr(loaded, attr, fn)
        self._patches.clear()

    def clear(self) -> None:
        del self._spans[:]
        del self._stack[:]
        self._counters.clear()

    def _wrap(self, index: int, fn, pre, names, post):
        spans, stack, counters, missing = self._spans, self._stack, self._counters, self.missing
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rows = None
            if pre is not None:
                try:
                    rows = pre(args, kwargs)
                except _HOOK_ERRORS:
                    missing.add("rows")
            record = [index, 0.0, 0.0, stack[-1] if stack else -1, rows]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if post is not None:
                try:
                    for name, value in zip(names, post(args, kwargs, result)):
                        counters[name] = counters.get(name, 0) + value
                except _HOOK_ERRORS:
                    missing.update(names)
            return result

        return functools.update_wrapper(wrapper, fn)

    def reduce(self, wall: float) -> dict:
        """Per-layer values of the batch traced since ``clear``; None = absent."""
        agg = Aggregate(self._spans, dict(self._counters), wall)
        values = {}
        for metric in METRICS:
            absent = any(need in self.missing for need in metric.needs)
            values[metric.name] = None if absent else metric.value(agg)
        return values


def combine(batches: list[dict]) -> tuple[dict, list[str], list[str]]:
    """Mean of each time over repeats of one batch; counts must not move.

    Returns (metrics, absent names, counters that differed between repeats).
    """
    metrics, absent, unstable = {}, [], []
    for metric in METRICS:
        values = [b[metric.name] for b in batches]
        if any(v is None for v in values):
            absent.append(metric.name)
            continue
        if metric.exact:
            if any(v != values[0] for v in values):
                unstable.append(metric.name)
            value = values[0]
        else:
            value = sum(values) / len(values)
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    return metrics, absent, unstable
