"""Accuracy-matrix bookkeeping, ACC/BWT, and joint-objective instrumentation.

The accuracy matrix entry A[i][j] (1-based, j <= i) is the test accuracy on
task j of the model obtained after completing task i.  ACC is the mean of the
final row; BWT the mean change of earlier-task accuracy between the moment a
task finished and the end of the run.  Both are computed in exact rational
arithmetic over the stored entries so values recomputed from a persisted
matrix match bit for bit.

The joint objective is the sum over tasks of each task's client-averaged
full-shard training objective.  :func:`client_objective_grad` is the one
full-shard helper, with one code path: it evaluates a client's losses and
gradients at a ``(P, d)`` stack of points through stacked kernel calls of
at most :func:`stack_rows` rows, and of one point each for a shard of more
than half of them.  A run's one full-shard stage,
:func:`fdilsim.theory.estimate_constants`, calls it once per (task, client)
shard over its probe points and the tracked models that reach the task,
and sums the joint objective from its values.  :func:`joint_objective_grad`
is the same sum for a stack of snapshots, each on its own number of tasks:
the reference the stage's cells are tested against, which a run does not
call.  It sums the tasks in order and returns, a row per snapshot and a
column per task, the joint objective after each task and the squared norm
of its gradient, so the earlier-task loss that the backward-transfer bound
reads and the joint gradient that the rate bound reads come from one pass.
This is simulator-side instrumentation with full data access and is never
consulted by the client/server update paths.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .datagen import ClientShard
from .models import Minibatch, ModelSpec, loss_and_grad, row_dots

# Cells (rows x row width) per stacked kernel call.  It bounds the temporaries
# of one call: mlp1 holds about six rows x hidden_dim float arrays at once, so
# 512 rows at hidden 32 stay under 1 MB, where 1024 rows raised peak memory by
# 2 MB.  logreg's rows are narrower, so its calls stack more of them: 1,877 at
# desk scale, which cuts its kernel calls without raising peak memory.
STACK_CELLS = 512 * 33


def stack_rows(spec: ModelSpec) -> int:
    """Rows per stacked kernel call: ``STACK_CELLS`` over the width of a row of the kernel's temporaries.

    The width is ``hidden_dim + 1`` for mlp1 (its hidden activations) and
    ``input_dim + 1 + 2 * num_classes`` for logreg (its inputs, scores and
    softmax).  Callers stack at least one item whatever it gives.
    """
    return STACK_CELLS // (spec.hidden_dim + 1 if spec.kind == "mlp1" else spec.input_dim + 1 + 2 * spec.num_classes)


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
) -> tuple[np.ndarray, np.ndarray]:
    """Full-shard losses ``(P,)`` and gradients ``(P, d)`` of one client at points ``(P, d)``.

    Each kernel call covers as many points as fit in :func:`stack_rows` rows, at
    least one, over a contiguous repeat of the shard's bias-augmented rows,
    so every point's values equal the plain call's bit for bit, whatever
    the stack it comes in.
    """
    num_points = params.shape[0]
    width = max(1, min(num_points, stack_rows(spec) // len(shard.data)))
    losses, grads = np.empty(num_points), np.empty(params.shape)
    rows = np.repeat(shard.data.augmented[None], width, axis=0)
    labels = np.repeat(shard.data.labels[None], width, axis=0)
    for lo in range(0, num_points, width):
        hi = min(lo + width, num_points)
        batch = Minibatch.of_rows(rows[: hi - lo], labels[: hi - lo])
        losses[lo:hi], grads[lo:hi] = loss_and_grad(spec, params[lo:hi], batch)
    return losses, grads


def joint_objective_grad(
    spec: ModelSpec, params: np.ndarray, tasks: list[int], shards_by_task: list[list[ClientShard]]
) -> tuple[np.ndarray, np.ndarray]:
    """The joint objective after each task at a stack of snapshots ``(S, d)``, snapshot s on tasks 1..``tasks[s]``.

    Each task's objective (1/M) sum_m f_{task,m} sums one
    :func:`client_objective_grad` call per shard, over the snapshots that
    reach that task, in shard order and divides by M; the tasks are summed
    in order from +0.0.  Returns two ``(S, K)`` tables: the joint loss over
    tasks 1..j+1 in column j, and the squared norm of its gradient
    (:func:`fdilsim.models.row_dots`).  Columns past a snapshot's horizon
    are NaN.
    """
    table = np.full((2, len(params), len(shards_by_task)), np.nan)
    loss, grad = np.zeros(len(params)), np.zeros_like(params)
    for i, task_shards in enumerate(shards_by_task):
        at = np.flatnonzero(np.asarray(tasks) > i)
        points, task_loss, task_grad = params[at], 0.0, 0.0
        for shard in task_shards:
            shard_loss, shard_grad = client_objective_grad(spec, points, shard)
            task_loss, task_grad = task_loss + shard_loss, task_grad + shard_grad
        loss[at] += task_loss / len(task_shards)
        grad[at] += task_grad / len(task_shards)
        table[:, at, i] = loss[at], row_dots(grad[at])
    return table[0], table[1]
