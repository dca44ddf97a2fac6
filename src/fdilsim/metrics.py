"""Accuracy-matrix bookkeeping, ACC/BWT, and joint-objective instrumentation.

The accuracy matrix entry A[i][j] (1-based, j <= i) is the test accuracy on
task j of the model obtained after completing task i.  ACC is the mean of the
final row; BWT the mean change of earlier-task accuracy between the moment a
task finished and the end of the run.  Both are computed in exact rational
arithmetic over the stored entries so values recomputed from a persisted
matrix match bit for bit.

The joint objective is the sum over tasks of each task's client-averaged
full-shard training objective.  :func:`joint_objective_grad` is its single
pass: one kernel call per (task, client) shard, returning each task's
(loss, gradient).  Callers sum the entries in task order, so the joint
objective over every prefix of the tasks (the earlier tasks alone, or all of
them) comes from the same pass.  This is simulator-side instrumentation with
full data access and is never consulted by the client/server update paths.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .datagen import ClientShard
from .models import ModelSpec, loss_and_grad


class AccuracyMatrix:
    """Lower-triangular K x K accuracy table; undefined entries are NaN."""

    def __init__(self, num_tasks: int):
        if num_tasks < 1:
            raise ValueError("num_tasks must be >= 1")
        self.num_tasks = num_tasks
        self._values = np.full((num_tasks, num_tasks), np.nan)

    def set(self, after_task: int, eval_task: int, value: float) -> None:
        if not 1 <= eval_task <= after_task <= self.num_tasks:
            raise ValueError(f"entry ({after_task}, {eval_task}) is outside the lower triangle")
        if not 0.0 <= value <= 1.0:
            raise ValueError("accuracy must lie in [0, 1]")
        self._values[after_task - 1, eval_task - 1] = value

    def get(self, after_task: int, eval_task: int) -> float:
        value = self._values[after_task - 1, eval_task - 1]
        if np.isnan(value):
            raise ValueError(f"entry ({after_task}, {eval_task}) is not populated")
        return float(value)

    def entries(self) -> list[tuple[int, int, float]]:
        """Defined entries as (after_task, eval_task, accuracy), row-major."""
        out = []
        for i in range(1, self.num_tasks + 1):
            for j in range(1, i + 1):
                value = self._values[i - 1, j - 1]
                if not np.isnan(value):
                    out.append((i, j, float(value)))
        return out


def acc(matrix: AccuracyMatrix) -> float:
    """Average accuracy over all tasks measured with the final model."""
    k = matrix.num_tasks
    total = sum(Fraction(matrix.get(k, j)) for j in range(1, k + 1))
    return float(total / k)


def bwt(matrix: AccuracyMatrix) -> float:
    """Mean change in earlier-task accuracy after finishing all tasks."""
    k = matrix.num_tasks
    if k < 2:
        raise ValueError("backward transfer is undefined for a single task")
    total = sum(
        Fraction(matrix.get(k, i)) - Fraction(matrix.get(i, i)) for i in range(1, k)
    )
    return float(total / (k - 1))


def client_objective_grad(
    spec: ModelSpec, params: np.ndarray, shard: ClientShard
) -> tuple[float, np.ndarray]:
    """Full-shard loss and gradient for one client (no sampling)."""
    return loss_and_grad(spec, params, shard.data)


def joint_objective_grad(
    spec: ModelSpec, params: np.ndarray, shards_by_task: list[list[ClientShard]]
) -> list[tuple[float, np.ndarray]]:
    """Per-task objective (1/M) sum_m f_{task,m} and its gradient, in task order."""
    per_task = []
    for task_shards in shards_by_task:
        loss_total = 0.0
        grad_total = np.zeros_like(params)
        for shard in task_shards:
            loss, grad = client_objective_grad(spec, params, shard)
            loss_total += loss
            grad_total += grad
        per_task.append((loss_total / len(task_shards), grad_total / len(task_shards)))
    return per_task
