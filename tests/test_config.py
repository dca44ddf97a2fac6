from dataclasses import replace
from pathlib import Path

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
