import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest


def small_config(**overrides) -> str:
    """A fast two-task config for end-to-end tests."""
    values = dict(
        num_tasks=2,
        rotation_angle=0.5235987755982988,
        mean_drift=0.0,
        train=160,
        test=120,
        alpha=0.5,
        min_samples=2,
        num_clients=8,
        participants=4,
        rounds=8,
        epochs=5,
        batch=16,
        local_lr=0.05,
        schedule="task_decay",
        algorithm="special",
        prox_lambda=0.25,
        seed=25,
        probes=4,
        draws=2,
        eval_every=0,
        joint_grad_every=4,
        output_dir="runs/test",
    )
    values.update(overrides)
    return f"""\
[model]
kind = logreg
input_dim = 2
num_classes = 3

[data]
num_tasks = {values['num_tasks']}
base_means = 0 2; -1.7320508075688772 -1; 1.7320508075688772 -1
class_cov_scale = 0.6
rotation_angle = {values['rotation_angle']}
mean_drift = {values['mean_drift']}
train_samples_per_task = {values['train']}
test_samples_per_task = {values['test']}

[partition]
dirichlet_alpha = {values['alpha']}
min_samples_per_client = {values['min_samples']}

[federation]
num_clients = {values['num_clients']}
participants_per_round = {values['participants']}
rounds_per_task = {values['rounds']}
local_epochs = {values['epochs']}
batch_size = {values['batch']}
local_lr = {values['local_lr']}
global_lr_schedule = {values['schedule']}
algorithm = {values['algorithm']}
prox_lambda = {values['prox_lambda']}
master_seed = {values['seed']}

[probe]
num_random_probes = {values['probes']}
minibatch_draws = {values['draws']}

[io]
output_dir = {values['output_dir']}
eval_every = {values['eval_every']}
joint_grad_every = {values['joint_grad_every']}
"""


def fail_write(monkeypatch, number: int) -> list:
    """Make the ``number``-th run-file write raise ``OSError("disk full")``; returns the paths tried."""
    from fdilsim import runio

    real_write, writes = runio._write, []

    def failing_write(path, text):
        writes.append(path)
        if len(writes) == number:
            raise OSError("disk full")
        real_write(path, text)

    monkeypatch.setattr(runio, "_write", failing_write)
    return writes


def tree(root: Path) -> dict:
    """Every path under ``root``: a file's bytes, or None for a directory."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.fixture
def small_config_text():
    return small_config()
