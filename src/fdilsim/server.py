"""The protocol engine: client sampling, aggregation, and the task loop.

Each round the server samples N of M clients uniformly without replacement
(one draw call for all N swap targets), runs their local updates together in
one lockstep call, averages the ``(N, d)`` update rows it returns in
ascending client-id order, applies the global step
``theta_bar = theta + gamma_G * delta``, and, from the second task on under
the server-anchored algorithm, blends the result with the previous task's
final model:

    theta' = theta_bar / (1 + lambda) + lambda * anchor / (1 + lambda)

which is the exact minimizer of ||u - theta_bar||^2 + lambda*||u - anchor||^2.
With lambda = 0 every round reduces to plain FedAvg.

A client's minibatch stream is derived from (seed, task, round, client) only
when its shard is larger than the batch; a client that uses its whole shard
never draws, so no stream is made for it, and one that draws takes all E
batches of the round from its stream at once.  Skipping a stream perturbs no
other client's draws.

The joint-objective instrumentation is deferred: a task keeps the global
model of every ``joint_grad_every``-th round and, after its last round,
evaluates all of them in one stacked pass through the full-shard helper of
:mod:`fdilsim.metrics`, one stacked kernel call per (task, client) shard,
which fills those rounds' ``joint_grad_sq`` and ``prev_task_loss``.  The
last two tasks also evaluate their end model: the end of task K-1 gives the
start-of-last-task stats, taking tasks 1..K-1 from that pass and task K from
one more call, and the end of task K gives the final joint loss.  Nothing on
the update path reads these values.

Data is checked against the model once, when a run starts; the new global
model is checked for non-finite values once per round, and a non-finite
update or model raises :class:`DivergenceError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .client import DivergenceError, LocalConfig, local_update
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
class RoundRecord:
    """Everything logged about one communication round."""

    task: int
    round: int
    selected: tuple[int, ...]
    delta_norm: float
    drift_sq: float
    joint_grad_sq: float | None
    prev_task_loss: float | None
    grad_norm_max: float
    grad_sq_mean: float
    accuracies: tuple[float, ...] | None


@dataclass
class ServerState:
    """Mutable protocol state owned by the task/round loops."""

    task_index: int
    round_index: int
    params: np.ndarray
    anchor: np.ndarray
    task_start: np.ndarray
    last_blend_anchor: np.ndarray | None = None


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

    records: list[RoundRecord] = field(default_factory=list)
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


def sample_clients(num_clients: int, sample_size: int, stream: np.random.Generator) -> tuple[int, ...]:
    """Uniform size-N subset of [0, M) without replacement, sorted ascending.

    Partial Fisher-Yates: every subset is equally likely and only N swaps are
    performed.  The N swap targets, target ``j`` uniform on ``[j, M)``, come
    from one ``integers`` call and equal N one-target draws in turn.
    """
    if not 1 <= sample_size <= num_clients:
        raise ValueError("sample size must satisfy 1 <= N <= M")
    pool = list(range(num_clients))
    targets = stream.integers(np.arange(sample_size), num_clients).tolist()
    for j, k in enumerate(targets):
        pool[j], pool[k] = pool[k], pool[j]
    return tuple(sorted(pool[:sample_size]))


def aggregate(deltas: np.ndarray) -> np.ndarray:
    """Arithmetic mean of the ``(N, d)`` update rows, summed in row order from +0.0.

    The rows come in ascending client-id order, as :func:`local_update`
    returns them.  The +0.0 start makes a column of -0.0 entries sum to +0.0.
    """
    total = np.zeros(deltas.shape[1])
    for delta in deltas:
        total += delta
    return total / len(deltas)


def proximal_blend(theta_bar: np.ndarray, anchor: np.ndarray, lam: float) -> np.ndarray:
    """Closed-form minimizer of ||u - theta_bar||^2 + lam*||u - anchor||^2."""
    if theta_bar.shape != anchor.shape:
        raise ValueError("theta_bar and anchor must share a length")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if lam == 0.0:
        return theta_bar.copy()
    return theta_bar / (1.0 + lam) + (lam / (1.0 + lam)) * anchor


def _local_streams(
    hp: HyperParams, state: ServerState, shards: list[ClientShard], selected: tuple[int, ...]
) -> list[np.random.Generator | None]:
    """Minibatch streams of the selected clients; ``None`` for those that never draw."""
    return [
        rngmod.derive_stream(
            hp.master_seed,
            (rngmod.LOCAL_TRAINING, state.task_index, state.round_index, client),
        )
        if len(shards[client].data) > hp.batch_size
        else None
        for client in selected
    ]


def run_round(
    spec: ModelSpec,
    state: ServerState,
    shards: list[ClientShard],
    hp: HyperParams,
) -> tuple[ServerState, np.ndarray, float, float, tuple[int, ...]]:
    """Execute one round in place.

    Raises DivergenceError if a client update or the new global model has a
    non-finite entry.
    Returns (state, aggregated delta, max grad norm, mean squared grad norm,
    selected client ids).
    """
    i, t = state.task_index, state.round_index
    sampling_stream = rngmod.derive_stream(hp.master_seed, (rngmod.CLIENT_SAMPLING, i, t))
    selected = sample_clients(hp.num_clients, hp.participants_per_round, sampling_stream)

    if hp.algorithm == "special_c" and i >= 2:
        cfg = LocalConfig(
            epochs=hp.local_epochs,
            local_lr=hp.local_lr,
            batch_size=hp.batch_size,
            mode="client_prox",
            prox_lambda=hp.prox_lambda,
            anchor=state.anchor,
        )
    else:
        cfg = LocalConfig(
            epochs=hp.local_epochs, local_lr=hp.local_lr, batch_size=hp.batch_size
        )

    update = local_update(
        spec,
        state.params,
        [shards[client] for client in selected],
        cfg,
        _local_streams(hp, state, shards, selected),
    )
    delta = aggregate(update.delta)
    theta_bar = state.params + hp.gamma_g(i) * delta

    if hp.algorithm == "special" and i >= 2:
        state.params = proximal_blend(theta_bar, state.anchor, hp.prox_lambda)
        state.last_blend_anchor = state.anchor
    else:
        state.params = theta_bar
        state.last_blend_anchor = None
    if not np.isfinite(state.params).all():
        raise DivergenceError("non-finite parameter values")
    state.round_index += 1

    grad_norm_max = float(np.max(update.grad_norm_max))
    grad_sq_mean = float(np.mean(update.grad_norm_sq_mean))
    return state, delta, grad_norm_max, grad_sq_mean, selected


def _joint_pass(
    spec: ModelSpec,
    shards_by_task: list[list[ClientShard]],
    task_index: int,
    tracked: list[RoundRecord],
    snapshots: list[np.ndarray],
    stats: RunStats,
) -> None:
    """Fill a finished task's joint-objective fields from one stacked pass.

    ``snapshots`` holds the parameters of the ``tracked`` rounds, then, for
    the last two tasks of a run, the task's end parameters unless its last
    round was tracked.  Every snapshot is evaluated on tasks 1..task_index
    in one :func:`joint_objective_grad` call, and the per-task values are
    summed in task order from +0.0.  The end of task K-1 is the start of the
    last task: its earlier-task sums are the start stats, and one more call
    adds the last task's term.  The end of task K folds into the best joint
    loss.
    """
    k = len(shards_by_task)
    params = np.stack(snapshots)
    prev_loss = loss = np.zeros(len(params))
    grad = np.zeros_like(params)
    for task_loss, task_grad in joint_objective_grad(spec, params, shards_by_task[:task_index]):
        prev_loss, loss, grad = loss, loss + task_loss, grad + task_grad

    for j, record in enumerate(tracked):
        record.joint_grad_sq = float(grad[j] @ grad[j])
        if task_index >= 2:
            record.prev_task_loss = float(prev_loss[j])
    if task_index == k - 1:
        stats.grad_norm_prev_sq = float(grad[-1] @ grad[-1])
        stats.f_prev_start = float(loss[-1])
        ((last_task_loss, _),) = joint_objective_grad(spec, snapshots[-1], shards_by_task[-1:])
        stats.f_joint_start = stats.f_prev_start + last_task_loss
        stats.best_joint_loss = stats.f_joint_start
    elif task_index == k and k >= 2:
        for value in loss.tolist():
            stats.best_joint_loss = min(stats.best_joint_loss, value)


def run_task(
    spec: ModelSpec,
    state: ServerState,
    sequence: TaskSequence,
    shards_by_task: list[list[ClientShard]],
    hp: HyperParams,
    task_index: int,
    eval_cfg: EvalConfig,
    log: RunLog,
) -> ServerState:
    """Run the T rounds of one task, logging a record per round.

    The parameters of every ``joint_grad_every``-th round are kept, and
    their records get the joint-objective fields after the last round, from
    one deferred pass over all of them (:func:`_joint_pass`).
    """
    state.task_index = task_index
    state.round_index = 0
    state.anchor = state.params.copy()
    state.task_start = state.params.copy()
    shards = shards_by_task[task_index - 1]
    every = eval_cfg.joint_grad_every
    tracked: list[RoundRecord] = []
    snapshots: list[np.ndarray] = []

    for t in range(hp.rounds_per_task):
        state, delta, gmax, gsq_mean, selected = run_round(spec, state, shards, hp)
        diff = state.params - state.task_start
        accuracies = None
        if eval_cfg.eval_every and (t + 1) % eval_cfg.eval_every == 0:
            accuracies = tuple(
                accuracy(spec, state.params, task.test) for task in sequence.tasks
            )
        record = RoundRecord(
            task=task_index,
            round=t,
            selected=selected,
            delta_norm=float(np.linalg.norm(delta)),
            drift_sq=float(diff @ diff),
            joint_grad_sq=None,
            prev_task_loss=None,
            grad_norm_max=gmax,
            grad_sq_mean=gsq_mean,
            accuracies=accuracies,
        )
        log.records.append(record)
        if every and (t + 1) % every == 0:
            tracked.append(record)
            # run_round replaces state.params each round, never writes into it.
            snapshots.append(state.params)

    k = len(shards_by_task)
    last_round_tracked = every > 0 and hp.rounds_per_task % every == 0
    if k >= 2 and task_index >= k - 1 and not last_round_tracked:
        snapshots.append(state.params)
    if snapshots:
        _joint_pass(spec, shards_by_task, task_index, tracked, snapshots, log.stats)
    return state


def run_sequence(
    spec: ModelSpec,
    sequence: TaskSequence,
    shards_by_task: list[list[ClientShard]],
    hp: HyperParams,
    eval_cfg: EvalConfig = EvalConfig(),
) -> RunLog:
    """Run the whole K-task protocol and assemble the trajectory log.

    Every shard and test pool is checked against ``spec`` here, once.
    """
    if sequence.num_tasks != len(shards_by_task):
        raise ValueError("sequence and shards disagree on the number of tasks")
    for task, task_shards in zip(sequence.tasks, shards_by_task):
        check_data(spec, task.test)
        for shard in task_shards:
            check_data(spec, shard.data)
    k = sequence.num_tasks

    init_stream = rngmod.derive_stream(hp.master_seed, (rngmod.INIT_PARAMS,))
    theta0 = init_params(spec, init_stream)
    log = RunLog(accuracy=AccuracyMatrix(k), initial_params=theta0.copy())
    state = ServerState(
        task_index=0,
        round_index=0,
        params=theta0.copy(),
        anchor=theta0.copy(),
        task_start=theta0.copy(),
    )

    for i in range(1, k + 1):
        state = run_task(spec, state, sequence, shards_by_task, hp, i, eval_cfg, log)
        log.task_params.append(state.params.copy())
        for j in range(1, i + 1):
            log.accuracy.set(i, j, accuracy(spec, state.params, sequence.task(j).test))
    return log
