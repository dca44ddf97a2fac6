"""Experiment configuration: a flat INI schema, one section per subsystem.

Parsing is strict: unknown sections or keys are rejected, every value is
type-checked (a float must be finite, an integer must fit in 64 signed
bits), and all invariants of the embedded parameter types are enforced at
parse time with the offending ``section.key`` named in the error.  So are
the sizes: a key that sizes an array numpy would refuse as too big (a data
pool, the parameter vector, the round tensor of local training, the probe
points) is rejected before anything runs.  A parsed config serializes back
to text that parses to an equal config.

Every key is listed once, in ``_SCHEMA`` with its type and default.  Each
section's parameter object is built from its keys by name, and
:func:`serialize_config` loops over the same table.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .datagen import DomainShiftSpec, PartitionSpec
from .models import ModelSpec, param_count
from .server import EvalConfig, HyperParams
from .theory import ProbeConfig


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs, as validated parameter objects."""

    model: ModelSpec
    shift: DomainShiftSpec
    partition: PartitionSpec
    hyper: HyperParams
    probe: ProbeConfig
    eval_cfg: EvalConfig
    output_dir: str


_REQUIRED = object()  # marks a key without a default
_INT_LIMIT = 2**63  # integers must fit a signed 64-bit value, as numpy takes them
_ARRAY_BYTES = int(np.iinfo(np.intp).max)  # the most bytes numpy puts in one array
_FLOAT_BYTES = 8

# section -> key -> (type, default or _REQUIRED), in serialization order.  Each
# section's keys are the fields of its parameter type, except data.base_means
# (parsed into base_class_means) and [io] (eval_cfg plus output_dir).
_SCHEMA = {
    "model": {
        "kind": (str, _REQUIRED),
        "input_dim": (int, _REQUIRED),
        "num_classes": (int, _REQUIRED),
        "hidden_dim": (int, None),
        "activation": (str, "tanh"),
    },
    "data": {
        "num_tasks": (int, _REQUIRED),
        "base_means": (str, _REQUIRED),
        "class_cov_scale": (float, _REQUIRED),
        "rotation_angle": (float, _REQUIRED),
        "mean_drift": (float, _REQUIRED),
        "train_samples_per_task": (int, _REQUIRED),
        "test_samples_per_task": (int, _REQUIRED),
    },
    "partition": {
        "dirichlet_alpha": (float, _REQUIRED),
        "min_samples_per_client": (int, _REQUIRED),
        "resample_per_task": (bool, True),
    },
    "federation": {
        "num_clients": (int, _REQUIRED),
        "participants_per_round": (int, _REQUIRED),
        "rounds_per_task": (int, _REQUIRED),
        "local_epochs": (int, _REQUIRED),
        "batch_size": (int, _REQUIRED),
        "local_lr": (float, _REQUIRED),
        "global_lr_schedule": (str, _REQUIRED),
        "global_lr": (float, 1.0),
        "algorithm": (str, _REQUIRED),
        "prox_lambda": (float, _REQUIRED),
        "master_seed": (int, _REQUIRED),
    },
    "probe": {
        "num_random_probes": (int, 8),
        "minibatch_draws": (int, 4),
        "batch_size": (int, 32),
        "probe_scale": (float, 1.0),
    },
    "io": {
        "output_dir": (str, "runs/out"),
        "eval_every": (int, 0),
        "joint_grad_every": (int, 0),
    },
}


def _convert(section: str, key: str, raw: str, kind):
    try:
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "1"):
                return True
            if lowered in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        value = kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r} as {kind.__name__}") from exc
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{section}.{key} must be finite")
    if kind is int and value >= _INT_LIMIT:
        raise ConfigError(f"{section}.{key} must be below 2**63")
    if kind is int and value < -_INT_LIMIT:
        raise ConfigError(f"{section}.{key} must be at least -2**63")
    return value


def _parse_means(raw: str, num_classes: int, input_dim: int) -> tuple[tuple[float, ...], ...]:
    rows = []
    for row_text in raw.split(";"):
        row_text = row_text.strip()
        if not row_text:
            continue
        try:
            rows.append(tuple(float(v) for v in row_text.split()))
        except ValueError as exc:
            raise ConfigError(f"data.base_means: cannot parse row {row_text!r}") from exc
        if not all(math.isfinite(v) for v in rows[-1]):
            raise ConfigError(f"data.base_means: row {row_text!r} must be finite")
    if len(rows) != num_classes:
        raise ConfigError(
            f"data.base_means: expected {num_classes} rows (one per class), got {len(rows)}"
        )
    for row in rows:
        if len(row) != input_dim:
            raise ConfigError(
                f"data.base_means: row length {len(row)} does not match model.input_dim {input_dim}"
            )
    return tuple(rows)


def _build(section: str, kind, values: dict, **fields):
    """``kind`` built from the section's values by key name, plus ``fields``."""
    try:
        return kind(**values, **fields)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _check_array_sizes(
    model: ModelSpec, shift: DomainShiftSpec, hyper: HyperParams, probe: ProbeConfig
) -> None:
    """Reject a size whose smallest array has more bytes than numpy allows.

    numpy refuses such an array before allocating anything (``array is too
    big``).  Each key is checked against the smallest array it must size: a
    task's train or test pool of ``input_dim + 1`` values per row, the
    parameter vector, the ``(E, N, P, input_dim + 1)`` round tensor of
    local training, whose pad width P is at least ``min(batch_size,
    ceil(train pool / num_clients))``, since some shard holds that many rows,
    and the estimator's stack of probe points, the random ones and the K + 1
    trajectory checkpoints.
    """
    width = model.input_dim + 1
    pad_rows = min(hyper.batch_size, -(-shift.train_samples_per_task // hyper.num_clients))
    sizes = (
        ("data.train_samples_per_task", shift.train_samples_per_task, shift.train_samples_per_task * width),
        ("data.test_samples_per_task", shift.test_samples_per_task, shift.test_samples_per_task * width),
        ("model.hidden_dim", model.hidden_dim, param_count(model)),
        (
            "federation.local_epochs",
            hyper.local_epochs,
            hyper.local_epochs * hyper.participants_per_round * pad_rows * width,
        ),
        (
            "probe.num_random_probes",
            probe.num_random_probes,
            (probe.num_random_probes + shift.num_tasks + 1) * param_count(model),
        ),
    )
    for key, value, count in sizes:
        if count * _FLOAT_BYTES > _ARRAY_BYTES:
            raise ConfigError(f"{key}: {value} needs an array of {count} values, more than numpy can hold")


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and validate a config from its text form."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    values: dict[str, dict[str, object]] = {section: {} for section in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            values[section][key] = _convert(section, key, raw, _SCHEMA[section][key][0])
    for section, keys in _SCHEMA.items():
        for key, (_, default) in keys.items():
            if key not in values[section] and default is _REQUIRED:
                raise ConfigError(f"missing required key {section}.{key}")
            values[section].setdefault(key, default)

    model = _build("model", ModelSpec, values["model"])
    data = values["data"]
    means = _parse_means(data.pop("base_means"), model.num_classes, model.input_dim)
    shift = _build("data", DomainShiftSpec, data, base_class_means=means)
    hyper = _build("federation", HyperParams, values["federation"])
    partition = _build("partition", PartitionSpec, values["partition"], num_clients=hyper.num_clients)
    probe = _build("probe", ProbeConfig, values["probe"])
    io_values = values["io"]
    output_dir = io_values.pop("output_dir")
    for key in ("eval_every", "joint_grad_every"):
        if io_values[key] < 0:
            raise ConfigError(f"io.{key} must be >= 0")

    pool_floor = hyper.num_clients * partition.min_samples_per_client
    if shift.train_samples_per_task < pool_floor:
        raise ConfigError(
            "data.train_samples_per_task: train pool "
            f"{shift.train_samples_per_task} cannot satisfy num_clients * "
            f"min_samples_per_client = {pool_floor}"
        )

    _check_array_sizes(model, shift, hyper, probe)
    return ExperimentConfig(
        model=model,
        shift=shift,
        partition=partition,
        hyper=hyper,
        probe=probe,
        eval_cfg=EvalConfig(**io_values),
        output_dir=output_dir,
    )


def read_config_text(path) -> str:
    """A config file's text, read by ``parse_config``, ``run`` and ``sweep`` alike.

    A missing file surfaces as OSError; a file that is not UTF-8 raises
    ConfigError naming the path.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc


def parse_config(path) -> ExperimentConfig:
    """Parse a config file read by :func:`read_config_text`."""
    return parse_config_text(read_config_text(path))


def _text(kind, value) -> str:
    if kind is float:
        return repr(value)
    if kind is bool:
        return str(value).lower()
    return str(value)


def serialize_config(config: ExperimentConfig) -> str:
    """Render a config back to text that parses to an equal config."""
    parser = configparser.ConfigParser(interpolation=None)
    owners = (
        config.model, config.shift, config.partition, config.hyper, config.probe, config.eval_cfg
    )
    for (section, keys), owner in zip(_SCHEMA.items(), owners):
        parser[section] = {}
        for key, (kind, _) in keys.items():
            if key in ("hidden_dim", "activation") and config.model.kind != "mlp1":
                continue
            if key == "base_means":
                text = "; ".join(" ".join(repr(v) for v in row) for row in owner.base_class_means)
            elif key == "output_dir":
                text = config.output_dir
            else:
                text = _text(kind, getattr(owner, key))
            parser[section][key] = text
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def with_lambda(config: ExperimentConfig, lam: float, output_dir: str) -> ExperimentConfig:
    """Copy of ``config`` with a different proximal weight and output dir."""
    return replace(config, hyper=replace(config.hyper, prox_lambda=lam), output_dir=output_dir)
