"""The protocol engine: client sampling, aggregation, and the task loop.

Each round the server samples N of M clients uniformly without replacement,
runs their local updates together in one lockstep call, with every client's
batch padded to the task's largest effective batch ``min(batch_size,
largest shard)``, averages the ``(N, d)`` update rows it returns in
ascending client-id order, applies the global step
``theta_bar = theta + gamma_G * delta``, and, from the second task on under
the server-anchored algorithm, blends the result with the previous task's
final model:

    theta' = anchor + (theta_bar - anchor) / (1 + lambda)

the minimizer of ||u - theta_bar||^2 + lambda*||u - anchor||^2, which maps
the anchor to itself exactly.  With lambda = 0 every round reduces to plain
FedAvg.

The round loop holds plain values: the global model, and the task's anchor,
the model it started from, which is also the start its drift is measured
from.  Everything else a round needs is fixed when its task starts, so a
task builds its :class:`fdilsim.client.TaskPool` once, samples the
selections of all its rounds, each from its own ``(task, round)`` stream
and all read in one bulk call, and plans the clients' batches, P rows each,
in chunks of rounds of at most ``PLAN_BYTES`` of row index
(:func:`fdilsim.client.plan_batches`).  A client's minibatch stream is
derived from (seed, task, round, client) only when its shard is larger than
the batch; a client that uses its whole shard never draws, and one that
draws takes all E batches of the round from its stream at once.  Each stream
is read exactly as a stream of its own would be, so the plan changes no
draw, and skipping a stream perturbs no other client's draws.  A round takes
the model and its slice of the plan, gathers its rows, makes its E kernel
calls, updates, aggregates and blends, and returns the new model
(:func:`run_round`); its task loop logs it.

The trajectory is one :class:`Rounds` table: a list per ``rounds.csv``
column, plus the per-round accuracies, with one entry per round, tasks in
order.  A task appends each round's values to the columns as it runs.

The joint-objective instrumentation is deferred to the end of the run: a
task keeps the global model of every ``joint_grad_every``-th round, and in a
run of K >= 2 tasks the last task's anchor and the run's end model are kept
too.  One :func:`fdilsim.metrics.joint_objective_grad` call then evaluates
them all, each tracked model on the tasks so far at its round and the anchor
and end model on all K tasks, so each task's shards are visited once.  A
tracked model that is also the anchor or the end model is one snapshot.  The
call returns the joint loss and the squared norm of its gradient after each
task, a row per snapshot; the tracked rounds' ``joint_grad_sq`` and
``prev_task_loss`` cells, the start-of-last-task stats and the best joint
loss are read from them.  Nothing on the update path reads these values.

Data is checked against the model once, when a run starts; the new global
model is checked for non-finite values once per round, and a non-finite
update or model raises :class:`DivergenceError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import compress

import numpy as np

from . import rng as rngmod
from .client import DivergenceError, TaskPool, local_update, plan_batches, task_pool
from .datagen import ClientShard, TaskSequence
from .metrics import AccuracyMatrix, joint_objective_grad
from .models import ModelSpec, accuracy, check_data, init_params

ALGORITHMS = ("special", "special_c", "fedavg")
SCHEDULES = ("constant", "task_decay")


@dataclass(frozen=True)
class HyperParams:
    """Protocol knobs; one instance drives a whole run."""

    num_clients: int
    participants_per_round: int
    rounds_per_task: int
    local_epochs: int
    local_lr: float
    batch_size: int
    global_lr_schedule: str = "task_decay"
    global_lr: float = 1.0
    prox_lambda: float = 0.0
    algorithm: str = "special"
    master_seed: int = 0

    def __post_init__(self):
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if not 1 <= self.participants_per_round <= self.num_clients:
            raise ValueError("participants_per_round must satisfy 1 <= N <= num_clients")
        if self.rounds_per_task < 1:
            raise ValueError("rounds_per_task must be >= 1")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if self.local_lr <= 0:
            raise ValueError("local_lr must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.prox_lambda < 0:
            raise ValueError("prox_lambda must be >= 0")
        if self.global_lr_schedule not in SCHEDULES:
            raise ValueError(f"unknown global_lr_schedule {self.global_lr_schedule!r}")
        if self.global_lr <= 0:
            raise ValueError("global_lr must be positive")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")

    def gamma_g(self, task_index: int) -> float:
        """Global learning rate in effect during 1-based ``task_index``."""
        if self.global_lr_schedule == "task_decay":
            return 1.0 / task_index
        return self.global_lr


@dataclass
class Rounds:
    """The per-round trajectory as columns: one list per ``rounds.csv`` column, then ``accuracies``.

    Entry r of every list belongs to the run's r-th round, tasks in order.
    A cell off its cadence (``joint_grad_sq``, ``prev_task_loss``,
    ``accuracies``) is None, which is distinct from NaN; ``prev_task_loss``
    is None on task 1 too.
    """

    task: list[int] = field(default_factory=list)
    round: list[int] = field(default_factory=list)
    selected: list[tuple[int, ...]] = field(default_factory=list)
    delta_norm: list[float] = field(default_factory=list)
    drift_sq: list[float] = field(default_factory=list)
    joint_grad_sq: list[float | None] = field(default_factory=list)
    prev_task_loss: list[float | None] = field(default_factory=list)
    grad_norm_max: list[float] = field(default_factory=list)
    grad_sq_mean: list[float] = field(default_factory=list)
    accuracies: list[tuple[float, ...] | None] = field(default_factory=list)

    def of_task(self, task: int) -> Rounds:
        """The entries whose ``task`` value is ``task``, in order."""
        keep = [value == task for value in self.task]
        return Rounds(*[list(compress(getattr(self, f.name), keep)) for f in fields(self)])


@dataclass
class RunStats:
    """Scalar trajectory facts consumed by the theory harness."""

    grad_norm_prev_sq: float = 0.0
    f_prev_start: float = 0.0
    f_joint_start: float = 0.0
    best_joint_loss: float | None = None


@dataclass
class RunLog:
    """Complete trajectory output of one protocol run."""

    rounds: Rounds = field(default_factory=Rounds)
    accuracy: AccuracyMatrix | None = None
    task_params: list[np.ndarray] = field(default_factory=list)
    initial_params: np.ndarray | None = None
    stats: RunStats = field(default_factory=RunStats)


@dataclass(frozen=True)
class EvalConfig:
    """Cadence (in rounds) of optional per-round instrumentation; 0 = off."""

    eval_every: int = 0
    joint_grad_every: int = 0

    def __post_init__(self):
        if self.eval_every < 0 or self.joint_grad_every < 0:
            raise ValueError("cadences must be >= 0")


def sample_clients(num_clients: int, sample_size: int, master_seed: int, keys) -> np.ndarray:
    """One uniform size-N subset of [0, M) without replacement per stream, sorted ascending.

    Partial Fisher-Yates: every subset is equally likely and only N swaps are
    performed.  Row ``s`` of the ``(len(keys), N)`` result draws its N swap
    targets, target ``j`` uniform on ``[j, M)``, from the stream of
    ``(master_seed, keys[s])`` as one ``integers(arange(N), M)`` call, which
    equals N one-target draws in turn.  All streams are read in one
    :func:`fdilsim.rng.stream_integers` call, and the swaps run for all
    rows at once.
    """
    if not 1 <= sample_size <= num_clients:
        raise ValueError("sample size must satisfy 1 <= N <= M")
    targets = rngmod.stream_integers(
        master_seed, keys, np.arange(sample_size), num_clients, (sample_size,)
    )
    pool = np.tile(np.arange(num_clients), (len(keys), 1))
    rows = np.arange(len(keys))
    for j, k in enumerate(targets.T):
        pool[:, j], pool[rows, k] = pool[rows, k], pool[:, j].copy()
    return np.sort(pool[:, :sample_size], axis=1)


def aggregate(deltas: np.ndarray) -> np.ndarray:
    """Arithmetic mean of the ``(N, d)`` update rows, summed in row order from +0.0.

    The rows come in ascending client-id order, as :func:`local_update`
    returns them.  A reduce over the leading axis adds whole rows in order
    into an accumulator that starts at +0.0, so a column of -0.0 entries
    sums to +0.0.
    """
    return np.add.reduce(deltas, axis=0, initial=0.0) / len(deltas)


def proximal_blend(theta_bar: np.ndarray, anchor: np.ndarray, lam: float) -> np.ndarray:
    """Closed-form minimizer of ||u - theta_bar||^2 + lam*||u - anchor||^2."""
    if theta_bar.shape != anchor.shape:
        raise ValueError("theta_bar and anchor must share a length")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if lam == 0.0:  # anchor + (theta_bar - anchor) need not be theta_bar bit for bit
        return theta_bar.copy()
    return anchor + (theta_bar - anchor) / (1.0 + lam)


# Largest row index, in bytes, that one chunk of planned rounds holds.  A
# chunk's draws and index are built at once, so a larger cap costs peak
# memory and a smaller one pays the per-chunk work more often.  On
# protocol-long (40 KiB of index per round, 2 vCPUs) 256 KiB read about
# 0.5 MB more peak RSS than 128 KiB, and planning one round per chunk took
# 175 us a round against 114 us at three.
PLAN_BYTES = 128 * 1024


def run_round(
    spec: ModelSpec,
    hp: HyperParams,
    task_index: int,
    params: np.ndarray,
    anchor: np.ndarray,
    pool: TaskPool,
    index: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """One round of task ``task_index`` from ``params``, on its ``(E, N, P)`` plan slice.

    ``index`` and ``counts`` are the round's slices of
    :func:`fdilsim.client.plan_batches`, and ``anchor`` is the model the
    task started from.  Raises DivergenceError if a client update or the new
    global model has a non-finite entry.
    Returns (new global model, aggregated delta, max grad norm, mean squared
    grad norm).
    """
    anchored = task_index >= 2
    client_anchor = anchor if hp.algorithm == "special_c" and anchored else None
    update = local_update(
        spec, params, pool, index, counts, hp.local_lr, client_anchor, hp.prox_lambda
    )
    delta = aggregate(update.delta)
    theta = params + hp.gamma_g(task_index) * delta
    if hp.algorithm == "special" and anchored:
        theta = proximal_blend(theta, anchor, hp.prox_lambda)
    if not np.isfinite(theta).all():
        raise DivergenceError("non-finite parameter values")
    grad_norm_max = float(np.max(update.grad_norm_max))
    return theta, delta, grad_norm_max, float(np.mean(update.grad_norm_sq_mean))


def run_task(
    spec: ModelSpec,
    params: np.ndarray,
    sequence: TaskSequence,
    shards: list[ClientShard],
    hp: HyperParams,
    task_index: int,
    eval_cfg: EvalConfig,
    log: RunLog,
    tracked: list[tuple[int, np.ndarray]],
) -> np.ndarray:
    """Run the T rounds of task ``task_index`` on its ``shards`` from ``params``, appending them to ``log.rounds``.

    ``params``, the previous task's final model, is the task's anchor and
    the start its drift is measured from.  The task's pool and its T
    selections, round t's from the ``(CLIENT_SAMPLING, task_index, t)``
    stream, are made once, and its rounds' batches are planned in chunks of
    at most ``PLAN_BYTES`` of row index (:func:`fdilsim.client.plan_batches`).
    Every ``joint_grad_every``-th round appends its row of ``log.rounds``
    and its model to ``tracked``.  Returns the task's final model.
    """
    # No round writes into a model array, so the anchor and snapshots need no copy.
    anchor, every, T = params, eval_cfg.joint_grad_every, hp.rounds_per_task

    pool = task_pool(shards)
    keys = [(rngmod.CLIENT_SAMPLING, task_index, t) for t in range(T)]
    selections = sample_clients(hp.num_clients, hp.participants_per_round, hp.master_seed, keys)
    width = pool.width(hp.batch_size)
    step_bytes = hp.local_epochs * hp.participants_per_round * width * np.intp(0).itemsize
    chunk = max(1, PLAN_BYTES // step_bytes)

    rounds, first = log.rounds, len(log.rounds.task)
    rounds.task.extend([task_index] * T)
    rounds.round.extend(range(T))
    rounds.selected.extend(map(tuple, selections.tolist()))
    for column in (rounds.joint_grad_sq, rounds.prev_task_loss, rounds.accuracies):
        column.extend([None] * T)
    for t in range(T):
        if t % chunk == 0:
            index, counts = plan_batches(
                pool, selections[t : t + chunk], hp.batch_size, hp.local_epochs,
                hp.master_seed, task_index, t,
            )
        params, delta, gmax, gsq_mean = run_round(
            spec, hp, task_index, params, anchor, pool, index[t % chunk], counts[t % chunk]
        )
        diff = params - anchor
        rounds.delta_norm.append(float(np.linalg.norm(delta)))
        rounds.drift_sq.append(float(diff @ diff))
        rounds.grad_norm_max.append(gmax)
        rounds.grad_sq_mean.append(gsq_mean)
        if eval_cfg.eval_every and (t + 1) % eval_cfg.eval_every == 0:
            rounds.accuracies[first + t] = tuple(accuracy(spec, params, task.test) for task in sequence.tasks)
        if every and (t + 1) % every == 0:
            tracked.append((first + t, params))
    return params


def run_sequence(
    spec: ModelSpec,
    sequence: TaskSequence,
    shards_by_task: list[list[ClientShard]],
    hp: HyperParams,
    eval_cfg: EvalConfig = EvalConfig(),
) -> RunLog:
    """Run the whole K-task protocol and assemble the trajectory log.

    Every shard and test pool is checked against ``spec`` here, once.  After
    the last task one :func:`fdilsim.metrics.joint_objective_grad` call
    evaluates every tracked model on its own number of tasks and, with
    K >= 2, the last task's anchor and the run's end model on all K tasks;
    either is the tracked snapshot it is the same array as, if any.  The
    tracked rounds' joint-objective cells and ``log.stats`` are read from
    its tables: the anchor gives the start-of-last-task stats, and the best
    joint loss is the least over the anchor, task K's tracked rounds and the
    end model, in that order.  With K = 1 and nothing tracked there is no call.
    """
    if sequence.num_tasks != len(shards_by_task):
        raise ValueError("sequence and shards disagree on the number of tasks")
    for task, task_shards in zip(sequence.tasks, shards_by_task):
        check_data(spec, task.test)
        for shard in task_shards:
            check_data(spec, shard.data)
    k = sequence.num_tasks

    init_stream = rngmod.derive_stream(hp.master_seed, (rngmod.INIT_PARAMS,))
    params = init_params(spec, init_stream)
    log = RunLog(accuracy=AccuracyMatrix(k), initial_params=params.copy())
    tracked: list[tuple[int, np.ndarray]] = []  # (row of log.rounds, model)

    for i in range(1, k + 1):
        anchor, first = params, len(tracked)
        params = run_task(spec, params, sequence, shards_by_task[i - 1], hp, i, eval_cfg, log, tracked)
        log.task_params.append(params.copy())
        for j in range(1, i + 1):
            log.accuracy.set(i, j, accuracy(spec, params, sequence.task(j).test))

    snapshots = [model for _, model in tracked]
    tasks = [log.rounds.task[row] for row, _ in tracked]
    ends = []  # stack rows of the last task's anchor and the end model, both on all K tasks
    for model in (anchor, params) if k >= 2 else ():
        # The tracked snapshot that is the same array, else one more row.
        j = next((j for j, snapshot in enumerate(snapshots) if snapshot is model), len(snapshots))
        snapshots[j:j + 1], tasks[j:j + 1] = [model], [k]
        ends.append(j)
    if snapshots:
        loss, grad_sq = joint_objective_grad(spec, np.stack(snapshots), tasks, shards_by_task)
        for j, (row, _) in enumerate(tracked):
            task = log.rounds.task[row]
            log.rounds.joint_grad_sq[row] = float(grad_sq[j, task - 1])
            if task >= 2:
                log.rounds.prev_task_loss[row] = float(loss[j, task - 2])
    if ends:
        start, end = ends
        # A tracked end model repeats task K's last row, which leaves the least loss as it is.
        best = min(loss[[start, *range(first, len(tracked)), end], k - 1].tolist())
        log.stats = RunStats(float(grad_sq[start, k - 2]), float(loss[start, k - 2]), float(loss[start, k - 1]), best)
    return log
