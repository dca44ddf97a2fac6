import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fdilsim import ConfigError, parse_config, parse_config_text, serialize_config
from fdilsim.config import with_lambda

ROOT = Path(__file__).resolve().parent.parent
PROFILE = ROOT / "profiles" / "default.ini"


def profile_text():
    return PROFILE.read_text(encoding="utf-8")


def test_shipped_default_profile_parses():
    config = parse_config(PROFILE)
    assert config.hyper.num_clients == 8
    assert config.hyper.participants_per_round == 4
    assert config.hyper.local_epochs == 5
    assert config.hyper.rounds_per_task == 20
    assert config.hyper.batch_size == 32
    assert config.hyper.local_lr == 0.001
    assert config.hyper.global_lr_schedule == "task_decay"
    assert config.shift.num_tasks == 3
    assert config.partition.dirichlet_alpha == 0.1


def test_oversubscribed_round_is_rejected_by_name():
    text = profile_text().replace("participants_per_round = 4", "participants_per_round = 9")
    with pytest.raises(ConfigError, match="participants_per_round"):
        parse_config_text(text)
    with pytest.raises(ConfigError, match="num_clients"):
        parse_config_text(text)


def test_negative_lambda_rejected():
    text = profile_text().replace("prox_lambda = 0.25", "prox_lambda = -0.1")
    with pytest.raises(ConfigError, match="prox_lambda"):
        parse_config_text(text)


def test_unknown_key_rejected():
    text = profile_text().replace("master_seed = 25", "master_seed = 25\nwarmup_rounds = 3")
    with pytest.raises(ConfigError, match="warmup_rounds"):
        parse_config_text(text)


def test_unknown_section_rejected():
    text = profile_text() + "\n[telemetry]\nenabled = true\n"
    with pytest.raises(ConfigError, match="telemetry"):
        parse_config_text(text)


def test_missing_required_key_rejected():
    text = profile_text().replace("local_lr = 0.001\n", "")
    with pytest.raises(ConfigError, match="local_lr"):
        parse_config_text(text)


def test_bad_types_rejected():
    text = profile_text().replace("rounds_per_task = 20", "rounds_per_task = twenty")
    with pytest.raises(ConfigError, match="rounds_per_task"):
        parse_config_text(text)


def test_means_shape_validated():
    text = profile_text().replace(
        "base_means = 0 2; -1.7320508075688772 -1; 1.7320508075688772 -1",
        "base_means = 0 2; -1 -1",
    )
    with pytest.raises(ConfigError, match="base_means"):
        parse_config_text(text)


def test_pool_must_cover_client_floors():
    text = profile_text().replace("train_samples_per_task = 480", "train_samples_per_task = 30")
    with pytest.raises(ConfigError, match="min_samples_per_client"):
        parse_config_text(text)


def test_roundtrip_equality():
    config = parse_config_text(profile_text())
    again = parse_config_text(serialize_config(config))
    assert again == config
    third = parse_config_text(serialize_config(again))
    assert third == again


def test_with_lambda_override():
    config = parse_config_text(profile_text())
    swapped = with_lambda(config, 0.75, "runs/sweep/0.75")
    assert swapped.hyper.prox_lambda == 0.75
    assert swapped.output_dir == "runs/sweep/0.75"
    assert parse_config_text(serialize_config(swapped)) == swapped


def test_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        parse_config(tmp_path / "nope.ini")


def test_config_file_not_utf8_is_config_error_naming_the_path(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(b"\xff" + profile_text().encode("utf-8"))
    with pytest.raises(ConfigError, match=re.escape(str(bad)) + ": 'utf-8' codec can't decode"):
        parse_config(bad)


def test_mlp_profile_parses():
    text = profile_text().replace(
        "kind = logreg",
        "kind = mlp1\nhidden_dim = 6\nactivation = tanh",
    )
    config = parse_config_text(text)
    assert config.model.hidden_dim == 6
    assert parse_config_text(serialize_config(config)) == config


def test_wide_profile_is_the_wide_workload():
    profile = parse_config(ROOT / "profiles" / "wide.ini")
    workload = parse_config(ROOT / "benchmarks" / "workloads" / "wide.ini")
    assert profile.output_dir != workload.output_dir
    assert replace(profile, output_dir=workload.output_dir) == workload


# Exact text of profiles/default.ini after a parse and serialize; a sweep's
# config.ini snapshots are written this way.
DEFAULT_SERIALIZED = """\
[model]
kind = logreg
input_dim = 2
num_classes = 3

[data]
num_tasks = 3
base_means = 0.0 2.0; -1.7320508075688772 -1.0; 1.7320508075688772 -1.0
class_cov_scale = 0.6
rotation_angle = 0.5235987755982988
mean_drift = 0.1
train_samples_per_task = 480
test_samples_per_task = 240

[partition]
dirichlet_alpha = 0.1
min_samples_per_client = 4
resample_per_task = true

[federation]
num_clients = 8
participants_per_round = 4
rounds_per_task = 20
local_epochs = 5
batch_size = 32
local_lr = 0.001
global_lr_schedule = task_decay
global_lr = 1.0
algorithm = special
prox_lambda = 0.25
master_seed = 25

[probe]
num_random_probes = 8
minibatch_draws = 4
batch_size = 32
probe_scale = 1.0

[io]
output_dir = runs/default
eval_every = 0
joint_grad_every = 5

"""


def test_serialized_text_is_pinned():
    config = parse_config_text(profile_text())
    assert serialize_config(config) == DEFAULT_SERIALIZED

    # mlp1 writes its two model keys; an omitted activation takes its default.
    mlp = parse_config_text(profile_text().replace("kind = logreg", "kind = mlp1\nhidden_dim = 6"))
    assert serialize_config(mlp) == DEFAULT_SERIALIZED.replace(
        "kind = logreg", "kind = mlp1"
    ).replace("num_classes = 3\n", "num_classes = 3\nhidden_dim = 6\nactivation = tanh\n")

    swapped = with_lambda(config, 0.75, "runs/sweep/lambda_0.75")
    assert serialize_config(swapped) == DEFAULT_SERIALIZED.replace(
        "prox_lambda = 0.25", "prox_lambda = 0.75"
    ).replace("output_dir = runs/default", "output_dir = runs/sweep/lambda_0.75")


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("kind = logreg", "kind = cnn", "model: unknown model kind 'cnn'"),
        ("kind = logreg", "kind = mlp1", "model: mlp1 requires hidden_dim >= 1"),
        ("class_cov_scale = 0.6", "class_cov_scale = 0", "data: class_cov_scale must be positive"),
        (
            "base_means = 0 2; -1.7320508075688772 -1; 1.7320508075688772 -1",
            "base_means = 0 2; -1 -1",
            "data.base_means: expected 3 rows (one per class), got 2",
        ),
        (
            "base_means = 0 2;",
            "base_means = inf 2;",
            "data.base_means: row 'inf 2' must be finite",
        ),
        ("dirichlet_alpha = 0.1", "dirichlet_alpha = 0", "partition: dirichlet_alpha must be positive"),
        (
            "resample_per_task = true",
            "resample_per_task = maybe",
            "partition.resample_per_task: cannot parse 'maybe' as bool",
        ),
        ("local_epochs = 5", "local_epochs = 0", "federation: local_epochs must be >= 1"),
        (
            "rounds_per_task = 20",
            "rounds_per_task = twenty",
            "federation.rounds_per_task: cannot parse 'twenty' as int",
        ),
        ("prox_lambda = 0.25", "prox_lambda = inf", "federation.prox_lambda must be finite"),
        ("class_cov_scale = 0.6", "class_cov_scale = nan", "data.class_cov_scale must be finite"),
        ("class_cov_scale = 0.6", "class_cov_scale = 1e999", "data.class_cov_scale must be finite"),
        ("mean_drift = 0.1", "mean_drift = inf", "data.mean_drift must be finite"),
        ("dirichlet_alpha = 0.1", "dirichlet_alpha = inf", "partition.dirichlet_alpha must be finite"),
        ("probe_scale = 1.0", "probe_scale = inf", "probe.probe_scale must be finite"),
        (
            "global_lr_schedule = task_decay",
            "global_lr_schedule = task_decay\nglobal_lr = -inf",
            "federation.global_lr must be finite",
        ),
        ("minibatch_draws = 4", "minibatch_draws = 0", "probe: minibatch_draws must be >= 1"),
        ("eval_every = 0", "eval_every = -1", "io.eval_every must be >= 0"),
        ("joint_grad_every = 5", "joint_grad_every = -2", "io.joint_grad_every must be >= 0"),
        ("master_seed = 25\n", "", "missing required key federation.master_seed"),
        (
            "master_seed = 25",
            "master_seed = 25\nwarmup_rounds = 3",
            "unknown key federation.warmup_rounds",
        ),
        (
            "train_samples_per_task = 480",
            "train_samples_per_task = 30",
            "data.train_samples_per_task: train pool 30 cannot satisfy "
            "num_clients * min_samples_per_client = 32",
        ),
        ("[io]", "[telemetry]\nenabled = true\n\n[io]", "unknown section [telemetry]"),
        (
            "train_samples_per_task = 480",
            "train_samples_per_task = 1" + "0" * 400,
            "data.train_samples_per_task must be below 2**63",
        ),
        ("master_seed = 25", "master_seed = 9223372036854775808", "federation.master_seed must be below 2**63"),
        (
            "master_seed = 25",
            "master_seed = -9223372036854775809",
            "federation.master_seed must be at least -2**63",
        ),
    ],
)
def test_config_error_messages_are_exact(old, new, message):
    text = profile_text()
    assert old in text
    with pytest.raises(ConfigError) as info:
        parse_config_text(text.replace(old, new))
    assert str(info.value) == message


def test_readme_table_lists_every_key_with_its_default():
    from fdilsim.config import _REQUIRED, _SCHEMA, _text

    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| Section.key | Default | Meaning |")
    documented = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        keys_cell, default_cell = line.split(" | ")[:2]
        for key in re.findall(r"`(\w+\.\w+)`", keys_cell):
            documented[key] = default_cell
    expected = {}
    for section, keys in _SCHEMA.items():
        for key, (kind, default) in keys.items():
            if default is _REQUIRED:
                expected[f"{section}.{key}"] = "required"
            elif default is None:
                expected[f"{section}.{key}"] = "none"
            else:
                expected[f"{section}.{key}"] = f"`{_text(kind, default)}`"
    assert documented == expected


def test_size_limit_is_numpy_array_limit():
    # A 480-row default profile with a train pool of n rows of 3 values: numpy
    # refuses an array of more than intp-max bytes before allocating, and
    # parsing rejects exactly the sizes it would refuse.
    text = profile_text()
    first_refused = -(-(2**63) // (3 * 8))  # the least n with 24 n > 2**63 - 1
    with pytest.raises(ValueError, match="array is too big"):
        np.empty((first_refused, 3))
    parse_config_text(text.replace("train_samples_per_task = 480", f"train_samples_per_task = {first_refused - 1}"))
    with pytest.raises(ConfigError, match=f"data.train_samples_per_task: {first_refused} needs an array"):
        parse_config_text(text.replace("train_samples_per_task = 480", f"train_samples_per_task = {first_refused}"))
