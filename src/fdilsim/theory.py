"""Assumption-constant estimation and bound evaluation.

The constants (gradient bound B, smoothness L, local variance sigma_L,
intra-task heterogeneity sigma_G, inter-task gap sigma_T, alignment epsilons)
are estimated as empirical extrema over a set of probe parameter points:
random draws around the origin plus, given a run's log, its checkpoints.
By construction every estimate is a lower bound on the true supremum (or
an upper bound on the true infimum for the epsilons), and enlarging the
probe set can only move an estimate toward the truth.

The estimator works task by task in stacked passes, and holds one task's
gradients at a time.  A task's full-shard values take one stacked call per
shard through the full-shard helper
:func:`fdilsim.metrics.client_objective_grad`, over every probe point and
every tracked model of the log that reaches the task, so it is the run's
one full-shard stage and evaluates each (point, task) pair once.  A
tracked round is found by its row of the log: the last round of a task is
that task's end model, a probe point, and is not stacked again.  The
probe points' gradients form the task's ``(P, M, d)`` block.  Each stack
row's task mean is taken once, from its shard sums: the probe rows' means
go into a ``(P, K, d)`` table, and every row's mean and loss into running
joint-objective sums, from which the tracked rounds' cells and the run
stats are filled.  Before the last task's means join them, the probe
rows' joint sums are the earlier tasks' joint gradient that eps_bkt is
measured against.  A task with a drawing
shard builds its :class:`fdilsim.client.TaskPool`, the pool local training
uses, once, and runs its minibatch pass over the probe points in probe
groups: each group reads the streams of all its (probe, client) pairs in
one :meth:`fdilsim.client.TaskPool.draw` call, the draw rule of local
training, and its batches go through stacked kernel calls without the loss,
each gathered from the pool with the rows' own probe points.  A group holds
as many probes as keep its minibatch gradients and row index within
:data:`fdilsim.server.PLAN_BYTES`, and at least one.  A shard no larger
than the batch is used whole, so its full-shard gradient is reused.  The
task's block and pool are released before the next task starts, so the
estimator's memory is one task's block, temporaries no larger than it and
one probe group of at most ``PLAN_BYTES`` (or one probe), whatever K is,
plus the stack of probe points and tracked models and its joint sums, a
few rows of d values each.
Every norm, squared gap and cosine in the reductions comes from
:func:`fdilsim.models.row_dots`, the BLAS dot that ``np.dot`` calls, so
each is exact, and each constant is a plain ``max``/``min`` over them.  The
estimates therefore equal those of a plain loop over probes, tasks, clients
and draws bit for bit.

:func:`build_bound_reports` writes the rows of ``bound_report.csv`` in
order, with plain loops and conditions, beside the formulas it calls;
``verify`` and the ``run`` summary read the rows.  It reads the trajectory
from the columns of a :class:`fdilsim.server.Rounds` table and takes each
task's entries by their ``task`` value.  Every cap goes through
:func:`evaluate`, which returns its value and a flag.  A cap whose float
evaluation overflows, whether it raises, evaluates to inf, or divides by a
term that underflows to zero, reads inf, flagged ``overflow``; one whose
nonzero factors round to 0.0 is flagged ``underflow``.  A flag ends the
row's ``inputs`` as ``;vacuous=<flag>``.  A cap that is infinite by design,
such as the drift cap of task 1 or at lambda = 0, is :data:`UNBOUNDED` and
not flagged.  Bounds are always reported as "holds under the estimated
constants": nothing here enforces an assumption, it only measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Real

import numpy as np

from . import rng as rngmod
from .client import task_pool
from .datagen import ClientShard
from .metrics import client_objective_grad, stack_rows
from .models import ModelSpec, check_data, check_params, loss_and_grad, param_count, row_dots
from .server import PLAN_BYTES, HyperParams, Rounds, RunLog, RunStats

class ProbeScaleError(ValueError):
    """A probe setting the estimator cannot carry out; the message names its key.

    A random probe point overflowed (``probe.probe_scale``), or the draws of
    one probe's drawing shards need an array numpy cannot hold
    (``probe.minibatch_draws``).
    """


@dataclass(frozen=True)
class ProbeConfig:
    """How many probe points/minibatches the estimator may spend."""

    num_random_probes: int = 8
    minibatch_draws: int = 4
    batch_size: int = 32
    probe_scale: float = 1.0

    def __post_init__(self):
        if self.num_random_probes < 0:
            raise ValueError("num_random_probes must be >= 0")
        if self.minibatch_draws < 1:
            raise ValueError("minibatch_draws must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.probe_scale <= 0:
            raise ValueError("probe_scale must be positive")


@dataclass
class ConstantEstimates:
    """Empirical assumption constants with probe metadata."""

    B: float
    L: float
    sigma_l: float
    sigma_g: float
    sigma_t: float
    eps_bkt: float
    eps_corr: float
    num_probe_points: int
    num_minibatch_draws: int


@dataclass
class BoundReport:
    """One verified bound: analytical cap vs empirical value."""

    name: str
    analytical: float | None
    empirical: float | None
    satisfied: bool
    inputs: str

    @property
    def vacuous(self) -> str | None:
        """The flag that ends ``inputs`` (``OVERFLOW`` or ``UNDERFLOW``), or None."""
        _, flagged, flag = self.inputs.rpartition(";vacuous=")
        return flag if flagged else None

    @property
    def violated(self) -> bool:
        """The comparison fails, and the cap did not underflow to 0 (such a cap says nothing)."""
        return not self.satisfied and self.vacuous != UNDERFLOW


def _probe_points(spec: ModelSpec, probe_cfg: ProbeConfig, seed: int, log: RunLog | None) -> list[np.ndarray]:
    """The log's checkpoints, its initial model and each task's end model, then random draws around the origin."""
    points = [] if log is None else [log.initial_params, *log.task_params]
    for p in range(probe_cfg.num_random_probes):
        stream = rngmod.derive_stream(seed, (rngmod.PROBE_POINT, p))
        points.append(probe_cfg.probe_scale * stream.standard_normal(param_count(spec)))
        if not np.isfinite(points[-1]).all():
            raise ProbeScaleError(
                f"probe.probe_scale: {probe_cfg.probe_scale!r} overflows random probe point {p}"
            )
    return points


def _cosines(u: np.ndarray, v: np.ndarray) -> list[float]:
    """``u . v / (|u| |v|)`` of each row pair in row order, leaving out pairs with a zero norm."""
    nu, nv = np.sqrt(row_dots(u)), np.sqrt(row_dots(v))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cosines = row_dots(u, v) / (nu * nv)
    return cosines[(nu != 0.0) & (nv != 0.0)].tolist()


def estimate_constants(
    spec: ModelSpec,
    shards_by_task: list[list[ClientShard]],
    probe_cfg: ProbeConfig,
    seed: int,
    log: RunLog | None = None,
) -> ConstantEstimates:
    """Estimate all assumption constants from probe passes.

    B is the largest stochastic-gradient norm seen; L the largest pairwise
    gradient-difference ratio of any client objective; sigma_L the root of
    the largest per-client mean squared deviation of minibatch gradients
    from the full-shard gradient; sigma_G / sigma_T the largest
    client-to-task / task-to-task gradient gaps (as norms); the epsilons are
    the smallest cosines over the corresponding gradient pairs (1.0 when no
    pair exists).  The probe points and every shard are checked against
    ``spec`` once, here; a random probe point that overflows, or draws whose
    one-probe group needs an array numpy cannot hold, raise
    :class:`ProbeScaleError`.

    The work is done task by task, in stacked passes:

    * full-shard values, one stacked :func:`client_objective_grad` call per
      client over the probe points and then the log's tracked models that
      reach the task and are not the last round of their task (that round's
      model is its task's end model, a probe point).  The probe rows'
      gradients go into the task's ``(P, M, d)`` block.  Every row's loss
      and gradient are summed in shard order from +0.0 and divided by M
      once; that task mean is added to the row's joint sums, as
      :func:`fdilsim.metrics.joint_objective_grad` does, and the probe
      rows' means go into a ``(P, K, d)`` table of task gradients.  For the
      last task, eps_bkt is taken first, against the probe rows' joint
      gradient of the earlier tasks, the joint sums before its mean joins
      them;
    * minibatch gradients: a task with a drawing shard builds its
      :func:`fdilsim.client.task_pool` once and goes over the probe points
      in groups.  A group draws the batches of every (probe, client) pair,
      keyed ``(PROBE_BATCH, probe, task, client)`` in (probe, client) order,
      in one :meth:`fdilsim.client.TaskPool.draw` call, and gathers them from
      the pool one kernel chunk of at most :func:`fdilsim.metrics.stack_rows`
      rows at a time, each batch with its probe point.  Its gradients, a
      ``(probes, clients, draws, d)`` block, and its row index stay within
      :data:`fdilsim.server.PLAN_BYTES`, or hold one probe.  B and sigma_L
      each come from one reduction over the group.  A shard no larger than
      the batch is used whole and draws nothing, so its stochastic gradient
      is its full-shard gradient (deviation exactly 0) and is not computed
      again;
    * reductions of the block: B, L per probe against all its later probes,
      and sigma_G over the whole block.  The block and the pool are
      then released, so at most one task's block is held, with temporaries
      no larger than it, plus one probe group;
    * after the last task, sigma_T and eps_corr over the task pairs of the
      table, each first task against all its later ones, and, given a log,
      its joint-objective cells and stats from the joint sums
      (:func:`_log_joint_cells`).

    The probe points are ``log.initial_params``, then ``log.task_params``,
    then the random draws, point p from the ``(PROBE_POINT, p)`` stream.
    A tracked round is its task's checkpoint by position: it is the last row
    of its task in ``log.rounds``, the log's last row or one the next task
    follows, so its model is that task's entry of ``log.task_params``, whether
    or not it is the same array.  Without a log there are only the random
    draws and nothing is filled.

    Every norm, squared gap and cosine comes from :func:`row_dots`, the BLAS
    dot of each row pair, so it equals the scalar ``np.linalg.norm``/dot
    expression bit for bit.  sigma_L sums each client's draws in draw order.
    Each estimate is then a Python ``max``/``min`` over exact values from
    its start value: NaN never sets an extreme and +-inf does, so the order
    of the blocks moves no estimate, and cosines with a zero norm and probe
    pairs with a zero gap are skipped, as in a plain loop over probes, tasks,
    clients and draws.
    """
    size, draws, d = probe_cfg.batch_size, probe_cfg.minibatch_draws, param_count(spec)
    # A shard no larger than the batch is used whole: its full-shard gradient
    # is its only stochastic gradient.
    whole = np.array([[len(s.data) <= size for s in ts] for ts in shards_by_task])
    # Values per drawing shard of one probe: the larger of its (draws, batch)
    # row index and its (draws, d) minibatch gradients.  A probe group holds at
    # least one probe's, over every drawing shard of its task.
    per_shard = draws * max(size, d)
    block = int((~whole).sum(axis=1).max()) * per_shard
    if block * 8 > np.iinfo(np.intp).max:
        raise ProbeScaleError(
            f"probe.minibatch_draws: {draws} needs an array of {block} values, more than numpy can hold"
        )
    points = _probe_points(spec, probe_cfg, seed, log)
    if len(points) < 2:
        raise ValueError("smoothness estimation requires at least 2 probe points")
    for theta in points:
        check_params(spec, theta)
    for task_shards in shards_by_task:
        for shard in task_shards:
            check_data(spec, shard.data)

    k, num_points = len(shards_by_task), len(points)
    # Each tracked round's row of the stack: a task's last round, the log's
    # last row or one the next task follows, is its checkpoint; any other a
    # row after the probe points, latest task first, so the rows that reach
    # a task are a prefix of the stack.
    stack_row, extra, horizons = {}, [], []
    for row, model in reversed([] if log is None else log.tracked):
        task = log.rounds.task[row]
        if log.rounds.task[row + 1 : row + 2] != [task]:
            stack_row[row] = task
        else:
            stack_row[row] = num_points + len(extra)
            extra.append(model)
            horizons.append(task)
    stack = np.stack(points + extra)
    thetas = stack[:num_points]
    # The joint loss and the squared norm of its gradient after each task,
    # summed over the tasks a row reaches in order from +0.0 (NaN past them).
    joint = np.full((2, len(stack), k), np.nan)
    joint_loss, joint_grad = np.zeros(len(stack)), np.zeros(stack.shape)
    # gaps[p] is the column of |theta_p - theta_q| over the later probes q.  A
    # zero gap is set to inf, so its pairs give 0 or NaN, which set no extreme:
    # the L estimate skips them.
    gaps = []
    for p in range(len(points) - 1):
        gap = np.sqrt(row_dots(thetas[p] - thetas[p + 1 :]))[:, None]
        gaps.append(np.where(gap != 0.0, gap, np.inf))
    task_grads = np.empty((len(points), k, d))
    width = max(1, stack_rows(spec) // size)  # minibatches per kernel call

    b_max = l_max = sigma_l_sq = sigma_g_sq = 0.0
    eps_bkt = 1.0
    for i, task_shards in enumerate(shards_by_task):
        # The task's (P, M, d) block: the estimator holds no more than one.
        grads = np.empty((num_points, len(task_shards), d))
        reach, task_loss, task_grad = num_points + sum(horizon > i for horizon in horizons), 0.0, 0.0
        for m, shard in enumerate(task_shards):
            loss, grad = client_objective_grad(spec, stack[:reach], shard)
            grads[:, m] = grad[:num_points]
            task_loss, task_grad = task_loss + loss, task_grad + grad
        if i == k - 1 >= 1:  # the earlier tasks' joint gradient, before task K's mean joins it
            eps_bkt = min([eps_bkt, *_cosines(joint_grad[:num_points, None, :], grads)])
        task_grad /= len(task_shards)  # the task mean of every stack row
        joint_loss[:reach] += task_loss / len(task_shards)
        joint_grad[:reach] += task_grad
        joint[:, :reach, i] = joint_loss[:reach], row_dots(joint_grad[:reach])
        task_grads[:, i] = task_grad[:num_points]
        del loss, grad, task_loss, task_grad  # released before the block's reductions
        b_max = max([b_max, *np.sqrt(row_dots(grads))[:, whole[i]].ravel().tolist()])

        drawn = np.flatnonzero(~whole[i])
        if drawn.size:
            pool = task_pool(task_shards)
            group = max(1, PLAN_BYTES // (8 * drawn.size * per_shard))  # probes
            for lo in range(0, len(thetas), group):
                hi = min(lo + group, len(thetas))
                keys = [(rngmod.PROBE_BATCH, p, i, m) for p in range(lo, hi) for m in drawn.tolist()]
                idx = pool.draw(seed, keys, np.tile(drawn, hi - lo), size, draws).reshape(-1, size)
                probe = np.repeat(np.arange(lo, hi), drawn.size * draws)
                g = np.empty((len(idx), d))
                for at in range(0, len(idx), width):
                    rows = slice(at, at + width)
                    _, g[rows] = loss_and_grad(spec, thetas[probe[rows]], pool.data.take(idx[rows]), with_loss=False)
                g = g.reshape(hi - lo, drawn.size, draws, d)
                b_max = max([b_max, *np.sqrt(row_dots(g)).ravel().tolist()])
                deviation_sq = row_dots(g - grads[lo:hi, drawn, None, :])
                # In draw order: np.sum adds 8 or more draws pairwise.
                totals = np.add.accumulate(deviation_sq, axis=-1)[..., -1]
                sigma_l_sq = max([sigma_l_sq, *(totals / draws).ravel().tolist()])
            del pool  # released before the next task's pool is built

        for p, gap in enumerate(gaps):
            ratios = np.sqrt(row_dots(grads[p] - grads[p + 1 :])) / gap
            l_max = max([l_max, *ratios.ravel().tolist()])

        # Last use of the block: each client's gap to its task mean, in place.
        grads -= task_grads[:, i, None, :]
        sigma_g_sq = max([sigma_g_sq, *row_dots(grads).ravel().tolist()])
        del grads  # released before the next task's block is computed

    # Task pairs (a, b), a < b: each first task against all its later ones.
    sigma_t_sq, eps_corr = 0.0, 1.0
    for a in range(k - 1):
        first, second = task_grads[:, a, None, :], task_grads[:, a + 1 :]
        sigma_t_sq = max([sigma_t_sq, *row_dots(first - second).ravel().tolist()])
        eps_corr = min([eps_corr, *_cosines(first, second)])

    if log is not None:
        _log_joint_cells(log, *joint, stack_row)
    return ConstantEstimates(
        B=b_max,
        L=l_max,
        sigma_l=math.sqrt(sigma_l_sq),
        sigma_g=math.sqrt(sigma_g_sq),
        sigma_t=math.sqrt(sigma_t_sq),
        eps_bkt=eps_bkt,
        eps_corr=eps_corr,
        num_probe_points=len(points),
        num_minibatch_draws=num_points * k * len(shards_by_task[0]) * draws,
    )


def _log_joint_cells(log: RunLog, loss: np.ndarray, grad_sq: np.ndarray, stack_row: dict[int, int]) -> None:
    """Fill the tracked rounds' joint-objective cells and, with K >= 2 end models, ``log.stats``.

    ``loss`` and ``grad_sq`` are the estimator's ``(rows, K)`` joint tables,
    and ``stack_row`` maps each tracked row of ``log.rounds`` to its row of them.
    The start of the last task is checkpoint K - 1, its anchor, and the end
    of the run is checkpoint K.  The best joint loss is the least over the
    anchor, task K's tracked rounds and the end model, in that order.
    """
    rounds, k = log.rounds, loss.shape[1]
    for row, j in stack_row.items():
        task = rounds.task[row]
        rounds.joint_grad_sq[row] = float(grad_sq[j, task - 1])
        if task >= 2:
            rounds.prev_task_loss[row] = float(loss[j, task - 2])
    if len(log.task_params) == k >= 2:  # a log with an end model per task
        last = [j for row, j in sorted(stack_row.items()) if rounds.task[row] == k]
        best = min(loss[[k - 1, *last, k], k - 1].tolist())
        log.stats = RunStats(float(grad_sq[k - 1, k - 2]), float(loss[k - 1, k - 2]), float(loss[k - 1, k - 1]), best)


class _Unbounded(float):
    """The type of :data:`UNBOUNDED`."""


# A cap that is infinite by design (no anchor, no curvature): an inf that
# the bound formulas return and arithmetic never makes.
UNBOUNDED = _Unbounded("inf")
OVERFLOW, UNDERFLOW = "overflow", "underflow"


def evaluate(formula, *args) -> tuple[float, str | None]:
    """``formula(*args)`` as a cap, with its flag: None, ``OVERFLOW`` or ``UNDERFLOW``.

    An evaluation that raises ``OverflowError``, or ``ZeroDivisionError``
    because a divisor underflowed to 0, or that gives inf, overflowed: it
    reads inf.  An inf that is :data:`UNBOUNDED` is infinite by design and
    has no flag.  A 0.0 from arguments that are all finite nonzero numbers
    underflowed.
    """
    try:
        value = formula(*args)
    except (OverflowError, ZeroDivisionError):
        return math.inf, OVERFLOW
    if value == math.inf and value is not UNBOUNDED:
        return value, OVERFLOW
    if value == 0.0 and all(isinstance(a, Real) and 0.0 < abs(a) < math.inf for a in args):
        return value, UNDERFLOW
    return value, None


def drift_bound(gamma_g: float, gamma_l: float, epochs: int, b: float, lam: float) -> float:
    """Cap on ||theta_i^t - theta_i^0||^2 under the server anchor.

    With no anchor (lambda = 0) it is :data:`UNBOUNDED`.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if lam == 0.0:
        return UNBOUNDED
    return (gamma_g ** 2) * (gamma_l ** 2) * (epochs ** 2) * (b ** 2) / (lam ** 2)


def bkt_bound(
    eps: float,
    sigma_l: float,
    grad_norm_prev: float,
    k: int,
    t: int,
    epochs: int,
    m: int,
    n: int,
    l_smooth: float,
    b: float,
) -> float:
    """Vanishing correction of the backward-transfer bound at round t.

    The caller adds the earlier-task loss at the task start to obtain the full
    right-hand side.
    """
    if k < 2:
        raise ValueError("backward transfer needs at least two tasks")
    if t < 1:
        raise ValueError("t must be >= 1")
    if l_smooth == 0 or b == 0:
        raise ValueError("bound denominator is zero; all constants must be positive")
    denom = (k - 1) * t * epochs * m * n * l_smooth * b ** 2
    return 2.0 * eps ** 2 * sigma_l ** 2 * grad_norm_prev ** 2 / denom


def psi_residual(
    consts: ConstantEstimates, hp: HyperParams, k: int, grad_norm_prev: float
) -> float:
    """The constant residual of the task-uniform convergence bound.

    Evaluated term by term; at N = M every partial-participation
    term vanishes exactly, leaving the full-participation residual.  At
    lambda = 0 no anchor bounds the drift term, and the residual is
    :data:`UNBOUNDED` unless that term is 0.
    """
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
        return UNBOUNDED
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


def _sigma_t_stated(eps_corr: float, b: float) -> float:
    return (3.0 - 2.0 * eps_corr) * b ** 2


def _sigma_t_derived(eps_corr: float, b: float) -> float:
    return max(b ** 2, 2.0 * (1.0 - eps_corr) * b ** 2)


def _vanishing(
    f_gap: float, k: int, lam: float, epochs: int, gg: float, gl: float, rounds: int
) -> float:
    """The vanishing term of the stationarity cap: the joint-loss gap over the step budget."""
    return f_gap / ((1.0 - 1.0 / k) / (2.0 * (1.0 + lam)) * epochs * gg * gl * rounds)


def _bkt_gamma_l_cap(
    eps: float, gprev: float, b: float, l_smooth: float, epochs: int, t: int, m: int, lam: float
) -> float:
    """Retention cap on the local rate at round t."""
    denom = lam ** 2 + 2.0 * lam
    ratio = m * epochs / denom
    # At a tiny lambda the ratio overflows where its root does not.
    root = math.sqrt(ratio) if ratio != math.inf else math.sqrt(m * epochs) / math.sqrt(denom)
    return 2.0 * eps * gprev / (b * l_smooth * epochs * t * root)


def _suggested_gamma_l(lam: float, k: int, rounds: int, epochs: int, l_smooth: float) -> float:
    return lam / (math.sqrt(k * rounds) * epochs * l_smooth) if l_smooth > 0 else 0.0


def _suggested_gamma_g(n: int, epochs: int, k: int, lam: float, l_smooth: float) -> float:
    if lam > 0 and l_smooth > 0:
        return math.sqrt(n * epochs) / ((k - 1) * lam * l_smooth)
    return UNBOUNDED


def _conv_gamma_l(epochs: int, l_smooth: float) -> float:
    return 1.0 / (8.0 * epochs * l_smooth) if l_smooth > 0 else UNBOUNDED


def _conv_product(lam: float, epochs: int, l_smooth: float) -> float:
    return (1.0 + lam) / (3.0 * epochs * l_smooth) if l_smooth > 0 else UNBOUNDED


def _summed(flags) -> str | None:
    """The flag of a sum: an overflowed term makes it vacuous, an underflowed one does not."""
    return OVERFLOW if OVERFLOW in flags else None


def effective_lambda(hp: HyperParams) -> float:
    """Proximal weight actually applied at the server.

    Only the server-anchored algorithm blends; for the others the anchor
    bounds are evaluated at lambda = 0 (vacuous).
    """
    return hp.prox_lambda if hp.algorithm == "special" else 0.0


# The drift row of task i: ``verify`` looks each task's row up by this name.
DRIFT_ROW = "drift_cap_task_{i}"


def build_bound_reports(
    spec: ModelSpec,
    hp: HyperParams,
    num_tasks: int,
    rounds: Rounds,
    consts: ConstantEstimates,
    stats: RunStats,
) -> list[BoundReport]:
    """Every row of ``bound_report.csv``, in the order it is written.

    A pure function of persistable inputs, so a verifier rebuilds the rows
    from files alone.  A task's rounds are the entries of ``rounds`` whose
    ``task`` value is its index, and every task needs at least one.  The
    settings go by their symbols in the bounds: E, gamma_L, gamma_G of task
    K, M, N and T.
    """
    reports = []

    def add(name, capped, empirical, inputs, satisfied=None):
        """A row whose ``capped`` is ``(cap, flag)``: a flag ends its inputs as ``;vacuous=<flag>``."""
        cap, flag = capped
        satisfied = empirical <= cap if satisfied is None else satisfied
        reports.append(BoundReport(name, cap, empirical, satisfied, inputs + (f";vacuous={flag}" if flag else "")))

    k, c, lam = num_tasks, consts, effective_lambda(hp)
    e, gl, gg = hp.local_epochs, hp.local_lr, hp.gamma_g(k)
    m, n, T = hp.num_clients, hp.participants_per_round, hp.rounds_per_task
    gprev = math.sqrt(stats.grad_norm_prev_sq)

    for i in range(1, k + 1):
        task = rounds.of_task(i)
        gg_i, b_hat, worst = hp.gamma_g(i), max(task.grad_norm_max), max(task.drift_sq)
        # Task 1 trains without an anchor: its cap is that of lambda = 0.
        cap = evaluate(drift_bound, gg_i, gl, e, b_hat, lam if i > 1 else 0.0)
        add(DRIFT_ROW.format(i=i), cap, worst, f"gamma_g={gg_i!r};gamma_l={gl!r};E={e};B_hat={b_hat!r};lambda={lam!r}")

    if k >= 2:
        # Loss retention: the worst excess over the correction term at each tracked round of task K.
        last = rounds.of_task(k)
        tracked = [(t, loss) for t, loss in zip(last.round, last.prev_task_loss) if loss is not None]
        if tracked and c.B > 0 and c.L > 0:
            excess, flags = -math.inf, set()
            for t, loss in tracked:
                corr, flag = evaluate(bkt_bound, c.eps_bkt, c.sigma_l, gprev, k, t + 1, e, m, n, c.L, c.B)
                excess = max(excess, loss - corr)
                flags.add(flag)
            inputs = f"eps={c.eps_bkt!r};sigma_l={c.sigma_l!r};grad_norm_prev={gprev!r};rounds_tracked={len(tracked)}"
            add("bkt_loss_retention", (stats.f_prev_start, _summed(flags)), excess, inputs)

        # Stationarity: the vanishing term plus psi against the smallest tracked joint gradient.
        joint = [value for value in last.joint_grad_sq if value is not None]
        if joint and stats.best_joint_loss is not None:
            psi, psi_flag = evaluate(psi_residual, c, replace(hp, prox_lambda=lam), k, gprev)
            f_gap = stats.f_joint_start - stats.best_joint_loss
            vanishing, flag = evaluate(_vanishing, f_gap, k, lam, e, gg, gl, T)
            inputs = f"psi={psi!r};vanishing={vanishing!r};f_star=best-observed-joint-loss-surrogate"
            add("stationarity_residual", (vanishing + psi, _summed((psi_flag, flag))), min(joint), inputs)

        steps = f"evaluated_at_t={T}"
        add("stepsize_conv_gamma_g", evaluate(lambda k: 1.0 / (k - 1), k), gg, steps)
        add("stepsize_conv_gamma_l", evaluate(_conv_gamma_l, e, c.L), gl, steps)
        add("stepsize_conv_product", evaluate(_conv_product, lam, e, c.L), gg * gl, steps)

        def rate_cap(t):
            """The retention cap on the local rate at round t."""
            # No anchor, no curvature, or a failed alignment premise admits
            # no positive local rate.
            if lam > 0 and c.L > 0 and c.B > 0 and c.eps_bkt > 0:
                return evaluate(_bkt_gamma_l_cap, c.eps_bkt, gprev, c.B, c.L, e, t, m, lam)
            return 0.0, None

        first = next((t for t in range(1, T + 1) if not gl <= rate_cap(t)[0]), "none")
        add("stepsize_bkt_gamma_l", rate_cap(T), gl, f"{steps};first_violating_round={first}")
        add("stepsize_bkt_gamma_g", evaluate(lambda n, k: 1.0 / (math.sqrt(n) * (k - 1)), n, k), gg, steps)
        suggested = "suggested-schedule;informational"
        add("suggested_schedule_gamma_l", evaluate(_suggested_gamma_l, lam, k, T, e, c.L), gl, suggested, True)
        add("suggested_schedule_gamma_g", evaluate(_suggested_gamma_g, n, e, k, lam, c.L), gg, suggested, True)

        # Both sigma_T caps when the positive-correlation premise holds.
        if c.B > 0 and 0.0 < c.eps_corr <= 1.0:
            stated = evaluate(_sigma_t_stated, c.eps_corr, c.B)
            derived = evaluate(_sigma_t_derived, c.eps_corr, c.B)
            inputs = f"eps_corr={c.eps_corr!r};" + ("forms_differ" if stated[0] != derived[0] else "forms_agree")
            add("sigma_t_cap_stated", stated, c.sigma_t ** 2, inputs)
            add("sigma_t_cap_derived", derived, c.sigma_t ** 2, inputs)
        elif c.B > 0:
            inputs = "positive-correlation premise fails;cap not applicable"
            add("sigma_t_cap_premise", (None, None), c.eps_corr, inputs, True)

    if spec.kind == "mlp1" and spec.activation == "relu":
        inputs = "relu activation is not L-smooth;L estimate is a probe max only"
        add("smoothness_model_flag", (None, None), None, inputs, False)
    return reports
