"""Shared test oracles, independent of the implementation paths they check."""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from itertools import combinations
from types import SimpleNamespace

import numpy as np

from fdilsim import (
    AccuracyMatrix,
    BoundReport,
    ClientShard,
    ClientUpdate,
    ConstantEstimates,
    EvalConfig,
    HyperParams,
    Minibatch,
    ModelSpec,
    ProbeConfig,
    RunArtifacts,
    RunLog,
    TaskSequence,
    accuracy,
    aggregate,
    estimate_constants,
    generate_sequence,
    init_params,
    loss_and_grad,
    param_count,
    parse_config_text,
    partition_sequence,
    run_sequence,
)
from fdilsim import rng as rngmod
from fdilsim.client import (
    DivergenceError,
    draw_batch,
    local_update,
    plan_batches,
    prox_map,
    task_pool,
)
from fdilsim.datagen import FORMAT_MAGIC, TaskData
from fdilsim.models import row_dots
from fdilsim.runio import BOUNDS_FILE, OUTPUT_FILES, _run_files
from fdilsim.server import Rounds, RunStats
from fdilsim.theory import effective_lambda


def records(rounds: Rounds) -> list[SimpleNamespace]:
    """The rows of a ``Rounds`` table, one namespace per round with a field per column."""
    names = [f.name for f in dataclasses.fields(rounds)]
    return [SimpleNamespace(**dict(zip(names, row))) for row in zip(*(getattr(rounds, n) for n in names))]


def _augment(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)


def stack_batch(inputs: np.ndarray, labels: np.ndarray) -> Minibatch:
    """Rows ``(..., n, D)`` with labels ``(..., n)`` as a batch for a stacked kernel call."""
    return Minibatch.of_rows(_augment(inputs), labels)


def loss_and_grad_reference(
    spec: ModelSpec, params: np.ndarray, batch: Minibatch, counts: np.ndarray | None = None
) -> tuple[float | np.ndarray, np.ndarray]:
    """The kernel with class-axis reductions and a ones column built per call.

    It augments ``batch.inputs`` itself, takes the row max and the exp-sum
    as ``max``/``sum`` over the class axis, and picks the label terms by 2-D
    fancy indexing.  ``loss_and_grad`` must return these bits exactly.
    """
    xa = _augment(batch.inputs)
    lead = params.shape[:-1]
    if spec.kind == "logreg":
        z = xa @ params.reshape(lead + (spec.input_dim + 1, spec.num_classes))
    else:
        n1 = (spec.input_dim + 1) * spec.hidden_dim
        w1 = params[..., :n1].reshape(lead + (spec.input_dim + 1, spec.hidden_dim))
        w2 = params[..., n1:].reshape(lead + (spec.hidden_dim + 1, spec.num_classes))
        z1 = xa @ w1
        h = np.tanh(z1) if spec.activation == "tanh" else np.maximum(z1, 0.0)
        ha = _augment(h)
        z = ha @ w2
    n = xa.shape[-2] if counts is None else counts

    rows = np.arange(z.size // spec.num_classes)
    labels = batch.labels.reshape(-1)
    zs = z - z.max(axis=-1, keepdims=True)
    p = np.exp(zs)
    norm = p.sum(axis=-1, keepdims=True)
    log_norm = np.log(norm[..., 0])
    picked = zs.reshape(-1, spec.num_classes)[rows, labels].reshape(log_norm.shape)
    row_loss = log_norm - picked
    if counts is not None:
        pad = np.arange(xa.shape[-2]) >= counts[..., None]
        row_loss[pad] = 0.0
    loss = row_loss.sum(axis=-1) / n
    p /= norm
    p.reshape(-1, spec.num_classes)[rows, labels] -= 1.0
    if counts is not None:
        p[pad] = 0.0
        n = counts[..., None, None]

    lead = z.shape[:-2]
    if spec.kind == "logreg":
        grad = ((xa.swapaxes(-1, -2) @ p) / n).reshape(lead + (-1,))
    else:
        p /= n
        grad_w2 = ha.swapaxes(-1, -2) @ p
        dh = p @ w2[..., :-1, :].swapaxes(-1, -2)
        dz1 = dh * (1.0 - h * h) if spec.activation == "tanh" else dh * (z1 > 0.0)
        grad_w1 = xa.swapaxes(-1, -2) @ dz1
        grad = np.concatenate(
            [grad_w1.reshape(lead + (-1,)), grad_w2.reshape(lead + (-1,))], axis=-1
        )
    return (float(loss) if loss.ndim == 0 else loss), grad


def central_difference_grad(
    spec: ModelSpec, params: np.ndarray, batch: Minibatch, step: float = 1e-5
) -> np.ndarray:
    """Finite-difference gradient oracle, one coordinate at a time."""
    grad = np.empty_like(params)
    for i in range(params.size):
        hi = params.copy()
        lo = params.copy()
        hi[i] += step
        lo[i] -= step
        loss_hi, _ = loss_and_grad(spec, hi, batch)
        loss_lo, _ = loss_and_grad(spec, lo, batch)
        grad[i] = (loss_hi - loss_lo) / (2.0 * step)
    return grad


def gradient_descent_minimize(grad_fn, x0: np.ndarray, step: float, iters: int = 300) -> np.ndarray:
    """Plain gradient descent; converges to float precision on smooth quadratics."""
    x = x0.astype(float).copy()
    for _ in range(iters):
        x = x - step * grad_fn(x)
    return x


def psi_full_participation(
    consts: ConstantEstimates, hp: HyperParams, k: int, grad_norm_prev: float
) -> float:
    """The convergence residual with every client aggregated (N = M).

    Written without any partial-participation term, as the oracle that
    ``psi_residual`` must equal exactly when N = M.
    """
    m = hp.num_clients
    gg, gl = hp.gamma_g(k), hp.local_lr
    e, lam = hp.local_epochs, hp.prox_lambda
    l_s, b = consts.L, consts.B
    s_l, s_g, s_t = consts.sigma_l, consts.sigma_g, consts.sigma_t

    if lam > 0.0:
        drift_b = gl ** 2 * e ** 2 * l_s ** 2 * b ** 2 / lam ** 2
    elif gl * e * l_s * b == 0.0:
        drift_b = 0.0
    else:
        drift_b = math.inf
    term_b = drift_b + k * b ** 2
    term_mid = (5.0 * gl ** 2 * k * e * l_s ** 2) * (s_l ** 2 + 6.0 * e * s_g ** 2)
    term_sl = 3.0 * gg * gl * l_s * s_l ** 2 / (2.0 * m * (1.0 + lam))
    term_st = (
        ((k - 1) ** 2 * e / k)
        * (3.0 * gg * gl * l_s / (1.0 + lam))
        * 0.5
        * s_t ** 2
    )
    bracket = term_b + term_mid + term_sl + term_st + grad_norm_prev ** 2
    return 2.0 / (1.0 - 1.0 / k) * bracket


@dataclass(frozen=True)
class LocalConfig:
    """One client's local training knobs, for the oracles and the tests that drive them."""

    epochs: int
    local_lr: float
    batch_size: int
    mode: str = "plain"
    prox_lambda: float = 0.0
    anchor: np.ndarray | None = None


def lockstep_update(
    spec: ModelSpec,
    global_params: np.ndarray,
    shards: list[ClientShard],
    cfg: LocalConfig,
    seed: int,
    clients: list[int] | None = None,
    rows: int | None = None,
) -> ClientUpdate:
    """``local_update`` of ``clients`` (default all) in round 0 of task 1, from the program's plan.

    The pool holds all ``shards``, so client m's drawing stream is
    ``(seed, (LOCAL_TRAINING, 1, 0, m))`` whoever else takes part.
    ``rows`` raises the pool's P with more pad rows.
    """
    pool = task_pool(shards)
    selected = np.array([range(len(shards)) if clients is None else clients])
    index, counts = plan_batches(pool, selected, cfg.batch_size, cfg.epochs, seed, 1, 0)
    if rows is not None:
        extra = rows - index.shape[-1]  # more pad rows after every client's batch
        index = np.pad(index, ((0, 0),) * 3 + ((0, extra),), constant_values=len(pool.data) - 1)
    anchor = cfg.anchor if cfg.mode == "client_prox" else None
    return local_update(
        spec, global_params, pool, index[0], counts[0], cfg.local_lr, anchor, cfg.prox_lambda
    )


def draw_indices(n: int, batch_size: int, stream: np.random.Generator, count: int) -> np.ndarray:
    """``count`` sorted batches of rows below ``n`` from ``stream``, as :meth:`TaskPool.draw` reads."""
    rows = stream.integers(0, n, size=(count, batch_size))
    rows.sort(axis=-1)
    return rows


def sample_clients_loop(num_clients: int, sample_size: int, stream: np.random.Generator) -> tuple[int, ...]:
    """Partial Fisher-Yates with one ``integers`` call per swap.

    ``sample_clients`` reads the N swap targets of many streams in one bulk
    call and must return this subset for the key of ``stream``.
    """
    pool = np.arange(num_clients)
    for j in range(sample_size):
        k = int(stream.integers(j, num_clients))
        pool[j], pool[k] = pool[k], pool[j]
    return tuple(sorted(int(c) for c in pool[:sample_size]))


def local_update_loop(
    spec: ModelSpec,
    global_params: np.ndarray,
    shard: ClientShard,
    cfg: LocalConfig,
    stream: np.random.Generator,
) -> ClientUpdate:
    """One client's E local steps, one plain kernel call per step.

    The lockstep ``local_update`` must give each client this delta and these
    gradient statistics, as scalars here: exactly for logreg, within a stated
    tolerance for mlp1, whose padded batches change BLAS summation order.
    """
    theta = global_params.copy()
    grad_norm_max = 0.0
    grad_sq_sum = 0.0
    for _ in range(cfg.epochs):
        batch = draw_batch(shard.data, cfg.batch_size, stream)
        _, grad = loss_and_grad(spec, theta, batch)
        norm_sq = float(grad @ grad)
        grad_norm_max = max(grad_norm_max, float(np.sqrt(norm_sq)))
        grad_sq_sum += norm_sq
        theta = theta - cfg.local_lr * grad
        if cfg.mode == "client_prox":
            theta = prox_map(theta, cfg.anchor, cfg.prox_lambda)
    delta = theta - global_params
    if not np.isfinite(delta).all():
        raise DivergenceError("local training diverged to a non-finite update")
    return ClientUpdate(
        delta=delta,
        steps_taken=cfg.epochs,
        grad_norm_max=grad_norm_max,
        grad_norm_sq_mean=grad_sq_sum / cfg.epochs,
    )


def _groups(sizes: list[int], batch_size: int) -> list[list[int]]:
    """Client positions grouped by (effective batch, draws), in first-seen order.

    A shard of at most ``batch_size`` rows is used whole and draws nothing,
    so one of exactly ``batch_size`` rows never shares a group with shards
    that draw.
    """
    groups: dict[tuple[int, bool], list[int]] = {}
    for j, n in enumerate(sizes):
        groups.setdefault((min(n, batch_size), n > batch_size), []).append(j)
    return list(groups.values())


def local_update_grouped(
    spec: ModelSpec,
    global_params: np.ndarray,
    shards: list[ClientShard],
    cfg: LocalConfig,
    streams: list[np.random.Generator | None],
) -> ClientUpdate:
    """The lockstep update without padding: one stacked call per group and step.

    Clients with the same effective batch form a group (all drawing shards
    form one), and each step makes one unpadded stacked kernel call per
    group.  The padded ``local_update`` must equal this bit for bit on
    logreg and within a stated tolerance on mlp1.
    """
    b = cfg.batch_size
    sizes = [len(shard.data) for shard in shards]
    delta = np.empty((len(shards), global_params.shape[0]))
    grad_norm_max = np.empty(len(shards))
    grad_sq_sum = np.empty(len(shards))
    for members in _groups(sizes, b):
        data = [shards[j].data for j in members]
        draws = sizes[members[0]] > b
        if draws:
            offsets = np.cumsum([0] + [sizes[j] for j in members[:-1]])
            idx = np.stack(
                [draw_indices(sizes[j], b, streams[j], cfg.epochs) for j in members]
            ) + offsets[:, None, None]
            idx = idx.swapaxes(0, 1)
            step_inputs = np.concatenate([x.inputs for x in data])[idx]
            step_labels = np.concatenate([x.labels for x in data])[idx]
        else:
            batch = stack_batch(
                np.stack([x.inputs for x in data]), np.stack([x.labels for x in data])
            )
        theta = np.tile(global_params, (len(members), 1))
        gmax = np.zeros(len(members))
        gsq = np.zeros(len(members))
        for e in range(cfg.epochs):
            if draws:
                batch = stack_batch(step_inputs[e], step_labels[e])
            _, grad = loss_and_grad(spec, theta, batch)
            norm_sq = row_dots(grad)
            gmax = np.maximum(gmax, np.sqrt(norm_sq))
            gsq = gsq + norm_sq
            theta = theta - cfg.local_lr * grad
            if cfg.mode == "client_prox":
                theta = prox_map(theta, cfg.anchor, cfg.prox_lambda)
        delta[members] = theta - global_params
        grad_norm_max[members] = gmax
        grad_sq_sum[members] = gsq
    if not np.isfinite(delta).all():
        raise DivergenceError("local training diverged to a non-finite update")
    return ClientUpdate(
        delta=delta,
        steps_taken=len(shards) * cfg.epochs,
        grad_norm_max=grad_norm_max,
        grad_norm_sq_mean=grad_sq_sum / cfg.epochs,
    )


def _cosine(u: np.ndarray, v: np.ndarray) -> float | None:
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return None
    return float(np.dot(u, v) / (nu * nv))


def estimate_constants_loop(
    spec: ModelSpec,
    sequence: TaskSequence,
    shards_by_task: list[list[ClientShard]],
    probe_cfg: ProbeConfig,
    seed: int,
    checkpoints: tuple[np.ndarray, ...] = (),
) -> ConstantEstimates:
    """The probe estimator as one scalar loop per constant.

    One kernel call per (probe, task, client) shard and per minibatch draw,
    and one ``np.linalg.norm``/dot per compared gradient, in probe-major
    order.  ``estimate_constants`` must return equal values.
    """
    d = param_count(spec)
    points = [np.asarray(c, dtype=np.float64) for c in checkpoints]
    for p in range(probe_cfg.num_random_probes):
        stream = rngmod.derive_stream(seed, (rngmod.PROBE_POINT, p))
        points.append(probe_cfg.probe_scale * stream.standard_normal(d))

    k = sequence.num_tasks
    num_clients = len(shards_by_task[0])

    client_grads = np.empty((len(points), k, num_clients, d))
    for p, theta in enumerate(points):
        for i in range(k):
            for m, shard in enumerate(shards_by_task[i]):
                _, grad = loss_and_grad(spec, theta, shard.data)
                client_grads[p, i, m] = grad
    task_grads = client_grads.mean(axis=2)

    b_max = 0.0
    sigma_l_sq = 0.0
    draws = 0
    for p, theta in enumerate(points):
        for i in range(k):
            for m, shard in enumerate(shards_by_task[i]):
                stream = rngmod.derive_stream(seed, (rngmod.PROBE_BATCH, p, i, m))
                deviation_sq = 0.0
                for _ in range(probe_cfg.minibatch_draws):
                    batch = draw_batch(shard.data, probe_cfg.batch_size, stream)
                    _, g = loss_and_grad(spec, theta, batch)
                    b_max = max(b_max, float(np.linalg.norm(g)))
                    diff = g - client_grads[p, i, m]
                    deviation_sq += float(diff @ diff)
                    draws += 1
                sigma_l_sq = max(sigma_l_sq, deviation_sq / probe_cfg.minibatch_draws)

    l_max = 0.0
    for (p, theta_p), (q, theta_q) in combinations(enumerate(points), 2):
        gap = float(np.linalg.norm(theta_p - theta_q))
        if gap == 0.0:
            continue
        for i in range(k):
            for m in range(num_clients):
                diff = float(np.linalg.norm(client_grads[p, i, m] - client_grads[q, i, m]))
                l_max = max(l_max, diff / gap)

    sigma_g_sq = 0.0
    for p in range(len(points)):
        for i in range(k):
            for m in range(num_clients):
                diff = client_grads[p, i, m] - task_grads[p, i]
                sigma_g_sq = max(sigma_g_sq, float(diff @ diff))

    sigma_t_sq = 0.0
    eps_corr = 1.0
    for p in range(len(points)):
        for i, j in combinations(range(k), 2):
            diff = task_grads[p, i] - task_grads[p, j]
            sigma_t_sq = max(sigma_t_sq, float(diff @ diff))
            cos = _cosine(task_grads[p, i], task_grads[p, j])
            if cos is not None:
                eps_corr = min(eps_corr, cos)

    eps_bkt = 1.0
    if k >= 2:
        for p in range(len(points)):
            prev_grad = task_grads[p, : k - 1].sum(axis=0)
            for m in range(num_clients):
                cos = _cosine(prev_grad, client_grads[p, k - 1, m])
                if cos is not None:
                    eps_bkt = min(eps_bkt, cos)

    return ConstantEstimates(
        B=b_max,
        L=l_max,
        sigma_l=math.sqrt(sigma_l_sq),
        sigma_g=math.sqrt(sigma_g_sq),
        sigma_t=math.sqrt(sigma_t_sq),
        eps_bkt=eps_bkt,
        eps_corr=eps_corr,
        num_probe_points=len(points),
        num_minibatch_draws=draws,
    )


def joint_prefixes(
    spec: ModelSpec, params: np.ndarray, shards_by_task: list[list[ClientShard]]
) -> list[tuple[float, np.ndarray]]:
    """Joint objective and gradient over the first 1, 2, ... given tasks.

    One plain kernel call per shard; each task's client mean is summed from
    +0.0 in shard order, and entry j sums tasks 1..j+1 in task order.
    """
    loss, grad = 0.0, np.zeros_like(params)
    prefixes = []
    for task_shards in shards_by_task:
        task_loss, task_grad = 0.0, np.zeros_like(params)
        for shard in task_shards:
            shard_loss, shard_grad = loss_and_grad(spec, params, shard.data)
            task_loss += shard_loss
            task_grad += shard_grad
        loss = loss + task_loss / len(task_shards)
        grad = grad + task_grad / len(task_shards)
        prefixes.append((loss, grad))
    return prefixes


def run_with_joint_cells(
    spec: ModelSpec,
    sequence: TaskSequence,
    shards_by_task: list[list[ClientShard]],
    hp: HyperParams,
    eval_cfg: EvalConfig = EvalConfig(),
) -> RunLog:
    """``run_sequence``, then the full-shard stage that fills its joint-objective cells and stats.

    The stage is ``estimate_constants`` given the log, here with no random
    probe points; ``run_experiment`` gives it the config's, which move no
    joint cell.
    """
    log = run_sequence(spec, sequence, shards_by_task, hp, eval_cfg)
    estimate_constants(spec, shards_by_task, ProbeConfig(num_random_probes=0), hp.master_seed, log)
    return log


def joint_fields_loop(
    spec: ModelSpec,
    shards_by_task: list[list[ClientShard]],
    round_params: list[np.ndarray],
    rounds_per_task: int,
    joint_grad_every: int,
) -> tuple[list[tuple[float | None, float | None]], RunStats]:
    """The joint-objective instrumentation as one pass per tracked round.

    ``round_params[r]`` is the global model after round r of the run, task
    by task.  Returns each round's ``(joint_grad_sq, prev_task_loss)`` and
    the run stats: the start-of-last-task values at the end of task K-1,
    and the best joint loss over that start, the tracked rounds of task K
    and the end of the run.  ``run_sequence`` followed by the full-shard stage
    (:func:`run_with_joint_cells`) must log exactly these.
    """
    k = len(shards_by_task)
    fields = []
    stats = RunStats()
    if k >= 2:
        start = joint_prefixes(spec, round_params[(k - 1) * rounds_per_task - 1], shards_by_task)
        f_prev, g_prev = start[-2]
        stats.grad_norm_prev_sq = float(g_prev @ g_prev)
        stats.f_prev_start = f_prev
        stats.f_joint_start = start[-1][0]
        stats.best_joint_loss = stats.f_joint_start
    for r, params in enumerate(round_params):
        task, t = r // rounds_per_task + 1, r % rounds_per_task
        if not joint_grad_every or (t + 1) % joint_grad_every:
            fields.append((None, None))
            continue
        prefixes = joint_prefixes(spec, params, shards_by_task[:task])
        loss, grad = prefixes[-1]
        fields.append((float(grad @ grad), prefixes[-2][0] if task >= 2 else None))
        if task == k and k >= 2:
            stats.best_joint_loss = min(stats.best_joint_loss, loss)
    if k >= 2:
        final = joint_prefixes(spec, round_params[-1], shards_by_task)[-1][0]
        stats.best_joint_loss = min(stats.best_joint_loss, final)
    return fields, stats


# --- The bound layer before ``theory.evaluate``, kept as a reference --------
#
# ``build_bound_reports_reference`` is the hand-assembled bound builder from
# before ``fdilsim.theory.build_bound_reports`` evaluated every cap through
# ``theory.evaluate``, with the formulas it called.  A cap whose float
# evaluation overflows reads inf and is flagged, one that is infinite by
# design is not; an underflowed cap reads 0 unflagged, and a divisor that
# underflows outside the decorated formulas raises.


class _InfiniteByDesignReference(Exception):
    """Raised by a reference bound whose arguments make it infinite by design."""


def _inf_on_overflow_reference(bound):
    """``bound`` reporting an overflow as inf; ``.checked`` returns ``(value, overflowed)``."""

    def checked(*args, **kwargs):
        try:
            value = bound(*args, **kwargs)
        except _InfiniteByDesignReference:
            return math.inf, False
        except (OverflowError, ZeroDivisionError):
            return math.inf, True
        return value, value == math.inf

    @functools.wraps(bound)
    def evaluate(*args, **kwargs):
        return checked(*args, **kwargs)[0]

    evaluate.checked = checked
    return evaluate


@_inf_on_overflow_reference
def drift_bound_reference(gamma_g, gamma_l, epochs, b, lam):
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if lam == 0.0:
        raise _InfiniteByDesignReference
    return (gamma_g ** 2) * (gamma_l ** 2) * (epochs ** 2) * (b ** 2) / (lam ** 2)


@_inf_on_overflow_reference
def bkt_bound_reference(eps, sigma_l, grad_norm_prev, k, t, epochs, m, n, l_smooth, b):
    if k < 2:
        raise ValueError("backward transfer needs at least two tasks")
    if t < 1:
        raise ValueError("t must be >= 1")
    denom = (k - 1) * t * epochs * m * n * l_smooth * b ** 2
    if denom == 0:
        raise ValueError("bound denominator is zero; all constants must be positive")
    return 2.0 * eps ** 2 * sigma_l ** 2 * grad_norm_prev ** 2 / denom


@_inf_on_overflow_reference
def psi_residual_reference(consts, hp, k, grad_norm_prev):
    m, n = hp.num_clients, hp.participants_per_round
    if n > m:
        raise ValueError("participants_per_round cannot exceed num_clients")
    gg, gl = hp.gamma_g(k), hp.local_lr
    e, lam = hp.local_epochs, hp.prox_lambda
    l_s, b = consts.L, consts.B
    s_l, s_g, s_t = consts.sigma_l, consts.sigma_g, consts.sigma_t

    if m == 1:
        partial = 0.0
    else:
        partial = (m - n) / (n * (m - 1))
    if lam > 0.0:
        drift_b = gl ** 2 * e ** 2 * l_s ** 2 * b ** 2 / lam ** 2
    elif gl * e * l_s * b == 0.0:
        drift_b = 0.0
    else:
        raise _InfiniteByDesignReference
    term_b = drift_b + (k + 3.0 * gg * gl * e * k * l_s * partial / (1.0 + lam)) * b ** 2
    term_sg = 12.0 * gg * gl * e * k * l_s * partial * s_g ** 2 / (1.0 + lam)
    mid_coeff = (5.0 * gl ** 2 * k * e * l_s ** 2) + (
        60.0 * gg * gl ** 3 * e ** 2 * k * l_s ** 3 * partial / (1.0 + lam)
    )
    term_mid = mid_coeff * (s_l ** 2 + 6.0 * e * s_g ** 2)
    term_sl = 3.0 * gg * gl * l_s * s_l ** 2 / (2.0 * n * (1.0 + lam))
    term_st = (
        ((k - 1) ** 2 * e / k)
        * (3.0 * gg * gl * l_s / (1.0 + lam))
        * (0.5 + 4.0 * partial)
        * s_t ** 2
    )
    bracket = term_b + term_sg + term_mid + term_sl + term_st + grad_norm_prev ** 2
    return 2.0 / (1.0 - 1.0 / k) * bracket


@_inf_on_overflow_reference
def _bkt_gamma_l_cap_reference(eps, gprev, b, l_smooth, epochs, t, m, lam):
    denom = lam ** 2 + 2.0 * lam
    if m * epochs / denom == math.inf:
        # A tiny lambda: the quotient overflows, so each side's root is taken.
        root = math.sqrt(m * epochs) / math.sqrt(denom)
    else:
        root = math.sqrt(m * epochs / denom)
    return 2.0 * eps * gprev / (b * l_smooth * epochs * t * root)


@_inf_on_overflow_reference
def _suggested_gamma_g_reference(n, epochs, k, lam, l_smooth):
    return math.sqrt(n * epochs) / ((k - 1) * lam * l_smooth)


@dataclass
class StepSizeReference:
    """The step-size conditions of the reference, one field each."""

    conv_gamma_g_cap: float
    conv_gamma_g_ok: bool
    conv_gamma_l_cap: float
    conv_gamma_l_ok: bool
    conv_product_cap: float
    conv_product_ok: bool
    bkt_gamma_l_cap: float
    bkt_gamma_l_ok: bool
    bkt_gamma_l_overflowed: bool
    bkt_gamma_g_cap: float
    bkt_gamma_g_ok: bool
    suggested_gamma_l: float
    suggested_gamma_g: float
    suggested_gamma_g_overflowed: bool


def check_step_sizes_reference(hp, consts, k, t, grad_norm_prev) -> StepSizeReference:
    """Every learning-rate condition at round ``t``, as the reference builder evaluates them."""
    gg, gl = hp.gamma_g(k), hp.local_lr
    e, lam = hp.local_epochs, hp.prox_lambda
    m, n = hp.num_clients, hp.participants_per_round
    l_s = consts.L

    conv_gg_cap = 1.0 / (k - 1) if k >= 2 else math.inf
    conv_gl_cap = 1.0 / (8.0 * e * l_s) if l_s > 0 else math.inf
    conv_prod_cap = (1.0 + lam) / (3.0 * e * l_s) if l_s > 0 else math.inf

    if lam > 0 and l_s > 0 and consts.B > 0 and consts.eps_bkt > 0 and k >= 2 and t >= 1:
        bkt_gl_cap, bkt_gl_overflowed = _bkt_gamma_l_cap_reference.checked(
            consts.eps_bkt, grad_norm_prev, consts.B, l_s, e, t, m, lam
        )
    else:
        bkt_gl_cap, bkt_gl_overflowed = 0.0, False
    bkt_gg_cap = 1.0 / (math.sqrt(n) * (k - 1)) if k >= 2 else math.inf

    if lam > 0 and l_s > 0:
        suggested_gl = lam / (math.sqrt(k * hp.rounds_per_task) * e * l_s)
    else:
        suggested_gl = 0.0
    if lam > 0 and l_s > 0 and k >= 2:
        suggested_gg, suggested_gg_overflowed = _suggested_gamma_g_reference.checked(n, e, k, lam, l_s)
    else:
        suggested_gg, suggested_gg_overflowed = math.inf, False

    return StepSizeReference(
        conv_gamma_g_cap=conv_gg_cap,
        conv_gamma_g_ok=gg <= conv_gg_cap,
        conv_gamma_l_cap=conv_gl_cap,
        conv_gamma_l_ok=gl <= conv_gl_cap,
        conv_product_cap=conv_prod_cap,
        conv_product_ok=gg * gl <= conv_prod_cap,
        bkt_gamma_l_cap=bkt_gl_cap,
        bkt_gamma_l_ok=gl <= bkt_gl_cap,
        bkt_gamma_l_overflowed=bkt_gl_overflowed,
        bkt_gamma_g_cap=bkt_gg_cap,
        bkt_gamma_g_ok=gg <= bkt_gg_cap,
        suggested_gamma_l=suggested_gl,
        suggested_gamma_g=suggested_gg,
        suggested_gamma_g_overflowed=suggested_gg_overflowed,
    )


def _overflow_note_reference(overflowed: bool) -> str:
    return ";vacuous=overflow" if overflowed else ""


def build_bound_reports_reference(spec, hp, num_tasks, rounds, consts, stats) -> list[BoundReport]:
    """Every bound row, assembled by hand as the builder did before ``theory.evaluate``, one round at a time."""
    rows = records(rounds)
    reports: list[BoundReport] = []
    lam = effective_lambda(hp)
    hp_eff = hp if hp.prox_lambda == lam else dataclasses.replace(hp, prox_lambda=lam)
    k = num_tasks
    e, gl = hp.local_epochs, hp.local_lr
    m, n = hp.num_clients, hp.participants_per_round

    for i in range(1, k + 1):
        task_records = [r for r in rows if r.task == i]
        b_hat = max(r.grad_norm_max for r in task_records)
        worst = max(r.drift_sq for r in task_records)
        overflowed = False
        if i >= 2:
            cap, overflowed = drift_bound_reference.checked(hp.gamma_g(i), gl, e, b_hat, lam)
            satisfied = worst <= cap
        else:
            cap = math.inf
            satisfied = True
        reports.append(
            BoundReport(
                name=f"drift_cap_task_{i}",
                analytical=cap,
                empirical=worst,
                satisfied=satisfied,
                inputs=f"gamma_g={hp.gamma_g(i)!r};gamma_l={gl!r};E={e};B_hat={b_hat!r};lambda={lam!r}"
                + _overflow_note_reference(overflowed),
            )
        )

    if k >= 2:
        gprev = math.sqrt(stats.grad_norm_prev_sq)
        tracked = [r for r in rows if r.task == k and r.prev_task_loss is not None]
        if tracked and consts.B > 0 and consts.L > 0:
            worst_excess = -math.inf
            overflowed = False
            for r in tracked:
                corr, corr_overflowed = bkt_bound_reference.checked(
                    consts.eps_bkt, consts.sigma_l, gprev, k, r.round + 1, e, m, n,
                    consts.L, consts.B,
                )
                worst_excess = max(worst_excess, r.prev_task_loss - corr)
                overflowed = overflowed or corr_overflowed
            reports.append(
                BoundReport(
                    name="bkt_loss_retention",
                    analytical=stats.f_prev_start,
                    empirical=worst_excess,
                    satisfied=worst_excess <= stats.f_prev_start,
                    inputs=f"eps={consts.eps_bkt!r};sigma_l={consts.sigma_l!r};"
                    f"grad_norm_prev={gprev!r};rounds_tracked={len(tracked)}"
                    + _overflow_note_reference(overflowed),
                )
            )

        joint = [r.joint_grad_sq for r in rows if r.task == k and r.joint_grad_sq is not None]
        if joint and stats.best_joint_loss is not None:
            psi, overflowed = psi_residual_reference.checked(consts, hp_eff, k, gprev)
            denom = (1.0 - 1.0 / k) / (2.0 * (1.0 + lam)) * e * hp.gamma_g(k) * gl * hp.rounds_per_task
            vanishing = (stats.f_joint_start - stats.best_joint_loss) / denom
            cap = vanishing + psi
            observed = min(joint)
            reports.append(
                BoundReport(
                    name="stationarity_residual",
                    analytical=cap,
                    empirical=observed,
                    satisfied=observed <= cap,
                    inputs=f"psi={psi!r};vanishing={vanishing!r};"
                    "f_star=best-observed-joint-loss-surrogate" + _overflow_note_reference(overflowed),
                )
            )

        steps = check_step_sizes_reference(hp_eff, consts, k, hp.rounds_per_task, gprev)
        first_violation = None
        for t in range(1, hp.rounds_per_task + 1):
            if not check_step_sizes_reference(hp_eff, consts, k, t, gprev).bkt_gamma_l_ok:
                first_violation = t
                break
        for name, cap, actual, ok, note in (
            ("stepsize_conv_gamma_g", steps.conv_gamma_g_cap, hp.gamma_g(k), steps.conv_gamma_g_ok, ""),
            ("stepsize_conv_gamma_l", steps.conv_gamma_l_cap, gl, steps.conv_gamma_l_ok, ""),
            ("stepsize_conv_product", steps.conv_product_cap, hp.gamma_g(k) * gl, steps.conv_product_ok, ""),
            (
                "stepsize_bkt_gamma_l", steps.bkt_gamma_l_cap, gl, steps.bkt_gamma_l_ok,
                f";first_violating_round={first_violation if first_violation is not None else 'none'}"
                + _overflow_note_reference(steps.bkt_gamma_l_overflowed),
            ),
            ("stepsize_bkt_gamma_g", steps.bkt_gamma_g_cap, hp.gamma_g(k), steps.bkt_gamma_g_ok, ""),
        ):
            reports.append(
                BoundReport(
                    name=name, analytical=cap, empirical=actual, satisfied=ok,
                    inputs=f"evaluated_at_t={hp.rounds_per_task}" + note,
                )
            )
        reports.append(
            BoundReport(
                name="suggested_schedule_gamma_l",
                analytical=steps.suggested_gamma_l,
                empirical=gl,
                satisfied=True,
                inputs="suggested-schedule;informational",
            )
        )
        reports.append(
            BoundReport(
                name="suggested_schedule_gamma_g",
                analytical=steps.suggested_gamma_g,
                empirical=hp.gamma_g(k),
                satisfied=True,
                inputs="suggested-schedule;informational"
                + _overflow_note_reference(steps.suggested_gamma_g_overflowed),
            )
        )

    if k >= 2 and consts.B > 0:
        if 0.0 < consts.eps_corr <= 1.0:
            stated = (3.0 - 2.0 * consts.eps_corr) * consts.B ** 2
            proof = max(consts.B ** 2, 2.0 * (1.0 - consts.eps_corr) * consts.B ** 2)
            note = "forms_differ" if stated != proof else "forms_agree"
            for name, cap in (("sigma_t_cap_stated", stated), ("sigma_t_cap_derived", proof)):
                reports.append(
                    BoundReport(
                        name=name,
                        analytical=cap,
                        empirical=consts.sigma_t ** 2,
                        satisfied=consts.sigma_t ** 2 <= cap,
                        inputs=f"eps_corr={consts.eps_corr!r};{note}",
                    )
                )
        else:
            reports.append(
                BoundReport(
                    name="sigma_t_cap_premise",
                    analytical=None,
                    empirical=consts.eps_corr,
                    satisfied=True,
                    inputs="positive-correlation premise fails;cap not applicable",
                )
            )

    if spec.kind == "mlp1" and spec.activation == "relu":
        reports.append(
            BoundReport(
                name="smoothness_model_flag",
                analytical=None,
                empirical=None,
                satisfied=False,
                inputs="relu activation is not L-smooth;L estimate is a probe max only",
            )
        )
    return reports


# What ``build_bound_reports_reference`` raises where a divisor of the
# vanishing term or of the retention correction underflows to 0, or B ** 2
# overflows in a sigma_T cap; the program's table completes and flags the cap.
REFERENCE_BOUND_ERRORS = (OverflowError, ZeroDivisionError, ValueError)


def reference_bound_flags(rows: list[str], expected: list[str]) -> list[str]:
    """The flags by which written bound rows differ from the reference's rows ``expected``.

    Asserts that there is no other difference: the rows have the same names,
    and a differing row is the reference's row plus a flag it did not
    write.  That is a cap that rounded to 0 from nonzero factors (the
    reference wrote 0 unflagged), or an inf in a cap or term the reference
    did not check: the stationarity cap's vanishing term, the convergence
    caps, the suggested local rate and the sigma_T caps.
    """
    assert [row.split(",")[0] for row in rows] == [row.split(",")[0] for row in expected]
    flags = []
    for row, old in zip(rows, expected):
        if row == old:
            continue
        flag = row[len(old):]
        assert row.startswith(old), (row, old)
        inf = old.split(",")[1] == "inf" or ";vanishing=inf;" in old
        assert flag == ";vacuous=underflow" or (flag == ";vacuous=overflow" and inf), (row, old)
        flags.append(f"{row.split(',')[0]}{flag}")
    return flags


def proximal_blend_reference(theta_bar: np.ndarray, anchor: np.ndarray, lam: float) -> np.ndarray:
    """The server blend as first written: ``theta_bar / (1 + lam) + (lam / (1 + lam)) * anchor``.

    The same minimizer as :func:`fdilsim.server.proximal_blend`, rounded
    otherwise: it does not map the anchor to itself exactly, and it stays
    finite where ``theta_bar - anchor`` overflows.
    """
    if lam == 0.0:
        return theta_bar.copy()
    return theta_bar / (1.0 + lam) + (lam / (1.0 + lam)) * anchor


def prox_map_reference(x: np.ndarray, anchor: np.ndarray, lam: float) -> np.ndarray:
    """The client prox as first written: ``(x + 2 lam anchor) / (1 + 2 lam)``.

    Where that numerator is not finite it takes the same minimizer as
    ``(x / lam + 2 anchor) / (1 / lam + 2)``.  Like
    :func:`proximal_blend_reference`, it rounds otherwise than
    :func:`fdilsim.client.prox_map`.
    """
    if lam == 0.0:
        return x
    numerator = x + 2.0 * lam * anchor
    if np.isfinite(numerator).all():
        return numerator / (1.0 + 2.0 * lam)
    return (x / lam + 2.0 * anchor) / (1.0 / lam + 2.0)


def export_sequence_reference(sequence: TaskSequence, path, shards=None) -> None:
    """The dataset writer with one formatting loop per line kind, one value at a time.

    ``fdilsim.datagen.export_sequence`` must write these bytes exactly.
    """
    first = sequence.tasks[0]
    num_clients = len(shards[0]) if shards else 0
    lines = [FORMAT_MAGIC]
    lines.append(
        f"tasks {sequence.num_tasks} clients {num_clients} "
        f"classes {len(first.class_means)} input_dim {first.train.inputs.shape[1]}"
    )
    for task in sequence.tasks:
        lines.append(f"task {task.task_index} train {len(task.train)} test {len(task.test)} cov {task.cov_scale:.17g}")
        for row in task.class_means:
            lines.append("mean " + " ".join(f"{v:.17g}" for v in row))
        for pool in (task.train, task.test):
            for x, y in zip(pool.inputs, pool.labels):
                lines.append(" ".join(f"{v:.17g}" for v in x) + f" {int(y)}")
    if shards:
        for task_shards in shards:
            for shard in task_shards:
                if shard.pool_indices is None:
                    raise ValueError("only shards cut from a task pool can be exported")
                lines.append(
                    f"shard {shard.task_index} {shard.client_index} "
                    + " ".join(str(i) for i in shard.pool_indices)
                )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_sequence_reference(path):
    """The dataset reader line by line, with ``float()``/``int()`` per field and a row cursor.

    ``fdilsim.datagen.load_sequence`` must load these bits exactly.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != FORMAT_MAGIC:
        raise ValueError(f"not a fdilsim dataset file: {path}")
    header = lines[1].split()
    num_tasks, num_clients = int(header[1]), int(header[3])
    input_dim = int(header[7])
    cursor = 2
    tasks = []
    for _ in range(num_tasks):
        fields = lines[cursor].split()
        task_index, n_train, n_test = int(fields[1]), int(fields[3]), int(fields[5])
        cov = float(fields[7])
        cursor += 1
        means = []
        while lines[cursor].startswith("mean "):
            means.append([float(v) for v in lines[cursor].split()[1:]])
            cursor += 1
        pools = []
        for count in (n_train, n_test):
            inputs = np.empty((count, input_dim))
            labels = np.empty(count, dtype=np.int64)
            for r in range(count):
                parts = lines[cursor].split()
                inputs[r] = [float(v) for v in parts[:-1]]
                labels[r] = int(parts[-1])
                cursor += 1
            pools.append(Minibatch(inputs, labels))
        tasks.append(
            TaskData(
                task_index=task_index,
                class_means=np.array(means),
                cov_scale=cov,
                train=pools[0],
                test=pools[1],
            )
        )
    sequence = TaskSequence(tasks)
    if num_clients == 0:
        return sequence, None
    shards = [[] for _ in range(num_tasks)]
    for line in lines[cursor:]:
        parts = line.split()
        task_index, client = int(parts[1]), int(parts[2])
        idx = np.array([int(v) for v in parts[3:]], dtype=np.int64)
        shards[task_index - 1].append(
            ClientShard(task_index, client, sequence.task(task_index).train.take(idx), idx)
        )
    return sequence, shards


# --- A whole run from the oracles above --------------------------------------


def run_experiment_reference(config_text: str) -> dict[str, str]:
    """``run_experiment`` composed from the plain-loop oracles, as the four run tables.

    Each round samples its clients with :func:`sample_clients_loop` on the
    round's ``(CLIENT_SAMPLING, task, round)`` stream.  Each sampled client,
    in ascending id order, takes its E steps alone with
    :func:`local_update_loop` on its own ``(LOCAL_TRAINING, task, round,
    client)`` stream.  The server averages the deltas with ``aggregate``,
    takes the global step at 1/task or the constant rate, and under
    ``special`` from task 2 on pulls the result toward the task's anchor
    with weight 1/(1 + lambda).  The joint-objective cells and stats come
    from :func:`joint_fields_loop`, the constants from
    :func:`estimate_constants_loop` and the bound rows from
    :func:`build_bound_reports_reference`.  Returns ``{file name: text}``
    for ``runio.OUTPUT_FILES``, from runio's writer; the bound table is None
    where the reference bound builder raises (``REFERENCE_BOUND_ERRORS``).
    Raises where a client update or a global model is not finite, as the
    program does.
    """
    config = parse_config_text(config_text)
    spec, hp, seed = config.model, config.hyper, config.hyper.master_seed
    sequence = generate_sequence(config.shift, seed)
    shards = partition_sequence(sequence, config.partition, seed)
    k, eval_every = sequence.num_tasks, config.eval_cfg.eval_every
    theta = init_params(spec, rngmod.derive_stream(seed, (rngmod.INIT_PARAMS,)))
    log = RunLog(accuracy=AccuracyMatrix(k), initial_params=theta.copy())
    rounds, round_params = log.rounds, []
    for i in range(1, k + 1):
        anchor = theta
        gamma_g = 1.0 / i if hp.global_lr_schedule == "task_decay" else hp.global_lr
        mode = "client_prox" if hp.algorithm == "special_c" and i >= 2 else "plain"
        cfg = LocalConfig(hp.local_epochs, hp.local_lr, hp.batch_size, mode, hp.prox_lambda, anchor)
        for t in range(hp.rounds_per_task):
            sampling = rngmod.derive_stream(seed, (rngmod.CLIENT_SAMPLING, i, t))
            selected = sample_clients_loop(hp.num_clients, hp.participants_per_round, sampling)
            updates = [
                local_update_loop(
                    spec, theta, shards[i - 1][m], cfg,
                    rngmod.derive_stream(seed, (rngmod.LOCAL_TRAINING, i, t, m)),
                )
                for m in selected
            ]
            delta = aggregate(np.stack([u.delta for u in updates]))
            theta = theta + gamma_g * delta
            if hp.algorithm == "special" and i >= 2 and hp.prox_lambda != 0.0:
                theta = anchor + (theta - anchor) / (1.0 + hp.prox_lambda)
            if not np.isfinite(theta).all():
                raise DivergenceError("non-finite parameter values")
            round_params.append(theta)
            drift = theta - anchor
            rounds.task.append(i)
            rounds.round.append(t)
            rounds.selected.append(selected)
            rounds.delta_norm.append(float(np.linalg.norm(delta)))
            rounds.drift_sq.append(float(drift @ drift))
            rounds.grad_norm_max.append(max(u.grad_norm_max for u in updates))
            rounds.grad_sq_mean.append(float(np.mean([u.grad_norm_sq_mean for u in updates])))
            evaluated = eval_every and (t + 1) % eval_every == 0
            rounds.accuracies.append(
                tuple(accuracy(spec, theta, task.test) for task in sequence.tasks) if evaluated else None
            )
        log.task_params.append(theta.copy())
        for j in range(1, i + 1):
            log.accuracy.set(i, j, accuracy(spec, theta, sequence.task(j).test))

    fields, log.stats = joint_fields_loop(
        spec, shards, round_params, hp.rounds_per_task, config.eval_cfg.joint_grad_every
    )
    rounds.joint_grad_sq = [grad_sq for grad_sq, _ in fields]
    rounds.prev_task_loss = [prev_loss for _, prev_loss in fields]
    checkpoints = tuple([log.initial_params] + log.task_params)
    consts = estimate_constants_loop(spec, sequence, shards, config.probe, seed, checkpoints)
    try:
        reports = build_bound_reports_reference(spec, hp, k, rounds, consts, log.stats)
    except REFERENCE_BOUND_ERRORS:
        reports = None
    artifacts = RunArtifacts(config, config_text, log, consts, reports or [])
    tables = {name: text for name, text in _run_files(artifacts, "").items() if name in OUTPUT_FILES}
    if reports is None:
        tables[BOUNDS_FILE] = None
    return tables
