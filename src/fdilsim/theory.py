"""Assumption-constant estimation and bound evaluation.

The constants (gradient bound B, smoothness L, local variance sigma_L,
intra-task heterogeneity sigma_G, inter-task gap sigma_T, alignment epsilons)
are estimated as empirical extrema over a set of probe parameter points:
random draws around the origin plus any trajectory checkpoints the caller
supplies.  By construction every estimate is a lower bound on the true
supremum (or an upper bound on the true infimum for the epsilons), and
enlarging the probe set can only move an estimate toward the truth.

The estimator works task by task in stacked passes, and holds one task's
gradients at a time.  A task's full-shard gradients at every probe point,
a ``(P, M, d)`` block, take one stacked call per shard through the
full-shard helper :func:`fdilsim.metrics.client_objective_grad`; only
their task mean is kept, in a ``(P, K, d)`` table.  A task with a drawing
shard builds its :class:`fdilsim.client.TaskPool`, the pool local training
uses, once, and the draws of all its clients at one probe go through one
stacked pass without the loss, gathered from that pool, each client drawing
all its batches from its own stream by the draw rule of local training,
:func:`fdilsim.client.draw_rows`.  A shard no larger than the batch is used
whole, so its full-shard gradient is reused.  The task's block and pool are
released before the next task starts, so the estimator's memory is one
task's block plus temporaries no larger than it, whatever K is.  Every
norm, squared gap and cosine in the reductions comes from
:func:`fdilsim.models.row_dots`, the BLAS dot that ``np.dot`` calls, so
each is exact, and each constant is a plain ``max``/``min`` over them.  The
estimates therefore equal those of a plain loop over probes, tasks, clients
and draws bit for bit.

The bound calculators evaluate the drift cap, the backward-transfer
correction term, the convergence residual, and the step-size conditions
term by term; one whose float evaluation overflows, whether it raises or
evaluates to inf, or divides by a term that underflows to zero, is reported
as inf (vacuous), and its report row is flagged ``vacuous=overflow``.  A cap
that is infinite by design, such as the drift cap at lambda = 0, is not
flagged.  Bounds are always reported as "holds under the estimated
constants": nothing here enforces an assumption, it only measures.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .client import TaskPool, draw_rows, task_pool
from .datagen import ClientShard, TaskSequence
from .metrics import STACK_ROWS, client_objective_grad
from .models import Minibatch, ModelSpec, check_data, check_params, loss_and_grad, param_count, row_dots
from .server import HyperParams

class ProbeScaleError(ValueError):
    """A probe setting the estimator cannot carry out; the message names its key.

    A random probe point overflowed (``probe.probe_scale``), or the draws of
    a drawing shard need an array numpy cannot hold (``probe.minibatch_draws``).
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


def _probe_points(
    spec: ModelSpec,
    probe_cfg: ProbeConfig,
    seed: int,
    checkpoints: tuple[np.ndarray, ...],
) -> list[np.ndarray]:
    """The checkpoints, then random draws around the origin at ``probe_scale``."""
    d = param_count(spec)
    points = [np.asarray(c, dtype=np.float64) for c in checkpoints]
    for p in range(probe_cfg.num_random_probes):
        stream = rngmod.derive_stream(seed, (rngmod.PROBE_POINT, p))
        points.append(probe_cfg.probe_scale * stream.standard_normal(d))
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


def _full_shard_grads(
    spec: ModelSpec, thetas: np.ndarray, task_shards: list[ClientShard]
) -> np.ndarray:
    """Gradient of each client objective of one task at every probe, ``(P, M, d)``.

    One stacked :func:`client_objective_grad` call per shard, without the
    loss.  The block is one task's: the estimator holds no more than one.
    """
    grads = np.empty((thetas.shape[0], len(task_shards), thetas.shape[1]))
    for m, shard in enumerate(task_shards):
        _, grads[:, m] = client_objective_grad(spec, thetas, shard, with_loss=False)
    return grads


def _minibatch_grads(
    spec: ModelSpec,
    theta: np.ndarray,
    pool: TaskPool,
    clients: list[int],
    probe_cfg: ProbeConfig,
    seed: int,
    probe: int,
    task: int,
) -> np.ndarray:
    """Stochastic gradients ``(len(clients), draws, d)`` at one probe and task.

    Each client draws all its batches from its own ``(PROBE_BATCH, probe,
    task, client)`` stream through :func:`draw_rows`, the draw rule of local
    training.  The drawn rows are gathered bias-augmented from the task's
    ``pool``, shard ``m`` at ``pool.start[m]``, and go through stacked kernel
    calls of at most ``STACK_ROWS`` rows, which skip the loss.
    """
    size, draws = probe_cfg.batch_size, probe_cfg.minibatch_draws
    keys = [(rngmod.PROBE_BATCH, probe, task, m) for m in clients]
    idx = draw_rows(seed, keys, pool.size[clients], size, draws)
    idx += pool.start[clients][:, None, None]
    idx = idx.reshape(-1, size)
    rows = pool.rows.take(idx, axis=0)
    targets = pool.labels.take(idx)

    grads = np.empty((idx.shape[0], theta.shape[0]))
    width = max(1, STACK_ROWS // size)
    for lo in range(0, idx.shape[0], width):
        batch = Minibatch.of_rows(rows[lo : lo + width], targets[lo : lo + width])
        _, grads[lo : lo + width] = loss_and_grad(spec, theta, batch, with_loss=False)
    return grads.reshape(len(clients), draws, -1)


def estimate_constants(
    spec: ModelSpec,
    sequence: TaskSequence,
    shards_by_task: list[list[ClientShard]],
    probe_cfg: ProbeConfig,
    seed: int,
    checkpoints: tuple[np.ndarray, ...] = (),
) -> ConstantEstimates:
    """Estimate all assumption constants from probe passes.

    B is the largest stochastic-gradient norm seen; L the largest pairwise
    gradient-difference ratio of any client objective; sigma_L the root of
    the largest per-client mean squared deviation of minibatch gradients
    from the full-shard gradient; sigma_G / sigma_T the largest
    client-to-task / task-to-task gradient gaps (as norms); the epsilons are
    the smallest cosines over the corresponding gradient pairs (1.0 when no
    pair exists).  The probe points and every shard are checked against
    ``spec`` once, here; a random probe point that overflows, or draws that
    need an index array numpy cannot hold while some shard draws, raise
    :class:`ProbeScaleError`.

    The work is done task by task, in stacked passes:

    * full-shard gradients, one stacked kernel call per client over the
      probe points, without the loss, into the task's ``(P, M, d)`` block,
      whose client mean goes into a ``(P, K, d)`` table of task gradients;
    * minibatch gradients: a task with a drawing shard builds its
      :func:`fdilsim.client.task_pool` once, and each probe makes one
      stacked pass over every client's draws, gathered from that pool.  A
      shard no larger than the batch is used whole and draws nothing, so its
      stochastic gradient is its full-shard gradient (deviation exactly 0)
      and is not computed again;
    * reductions of the block: B and sigma_L per probe, L per probe against
      all its later probes, sigma_G over the whole block and, for the last
      task, eps_bkt against the sum of the earlier task gradients.  The block
      and the pool are then released, so at most one task's block is held,
      with temporaries no larger than it;
    * after the last task, sigma_T and eps_corr over the task pairs of the
      table, each first task against all its later ones.

    Every norm, squared gap and cosine comes from :func:`row_dots`, the BLAS
    dot of each row pair, so it equals the scalar ``np.linalg.norm``/dot
    expression bit for bit.  sigma_L sums each client's draws in draw order.
    Each estimate is then a Python ``max``/``min`` over exact values from
    its start value: NaN never sets an extreme and +-inf does, so the order
    of the blocks moves no estimate, and cosines with a zero norm and probe
    pairs with a zero gap are skipped, as in a plain loop over probes, tasks,
    clients and draws.
    """
    size, draws = probe_cfg.batch_size, probe_cfg.minibatch_draws
    # A shard no larger than the batch is used whole: its full-shard gradient
    # is its only stochastic gradient.
    whole = np.array([[len(s.data) <= size for s in ts] for ts in shards_by_task])
    # A drawing shard's (draws, batch) block of int64 row indices.
    if not whole.all() and draws * size * 8 > np.iinfo(np.intp).max:
        raise ProbeScaleError(
            f"probe.minibatch_draws: {draws} needs an array of {draws * size} values, "
            "more than numpy can hold"
        )
    points = _probe_points(spec, probe_cfg, seed, checkpoints)
    if len(points) < 2:
        raise ValueError("smoothness estimation requires at least 2 probe points")
    for theta in points:
        check_params(spec, theta)
    for task_shards in shards_by_task:
        for shard in task_shards:
            check_data(spec, shard.data)

    k = sequence.num_tasks
    num_clients = len(shards_by_task[0])
    thetas = np.stack(points)
    # gaps[p] is the column of |theta_p - theta_q| over the later probes q.  A
    # zero gap is set to inf, so its pairs give 0 or NaN, which set no extreme:
    # the L estimate skips them.
    gaps = []
    for p in range(len(points) - 1):
        gap = np.sqrt(row_dots(thetas[p] - thetas[p + 1 :]))[:, None]
        gaps.append(np.where(gap != 0.0, gap, np.inf))
    task_grads = np.empty((len(points), k, thetas.shape[1]))

    b_max = l_max = sigma_l_sq = sigma_g_sq = 0.0
    eps_bkt = 1.0
    for i, task_shards in enumerate(shards_by_task):
        grads = _full_shard_grads(spec, thetas, task_shards)
        task_grads[:, i] = grads.mean(axis=1)
        b_max = max([b_max, *np.sqrt(row_dots(grads))[:, whole[i]].ravel().tolist()])

        drawn = np.flatnonzero(~whole[i]).tolist()
        if drawn:
            pool = task_pool(task_shards, size)
            for p, theta in enumerate(thetas):
                g = _minibatch_grads(spec, theta, pool, drawn, probe_cfg, seed, p, i)
                b_max = max([b_max, *np.sqrt(row_dots(g)).ravel().tolist()])
                deviation_sq = row_dots(g - grads[p, drawn][:, None, :])
                # In draw order: np.sum adds 8 or more draws pairwise.
                totals = np.add.accumulate(deviation_sq, axis=1)[:, -1]
                sigma_l_sq = max([sigma_l_sq, *(totals / draws).tolist()])
            del pool  # released before the next task's pool is built

        for p, gap in enumerate(gaps):
            ratios = np.sqrt(row_dots(grads[p] - grads[p + 1 :])) / gap
            l_max = max([l_max, *ratios.ravel().tolist()])

        if i == k - 1 and k >= 2:
            prev_grads = task_grads[:, : k - 1].sum(axis=1)
            eps_bkt = min([eps_bkt, *_cosines(prev_grads[:, None, :], grads)])

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

    return ConstantEstimates(
        B=b_max,
        L=l_max,
        sigma_l=math.sqrt(sigma_l_sq),
        sigma_g=math.sqrt(sigma_g_sq),
        sigma_t=math.sqrt(sigma_t_sq),
        eps_bkt=eps_bkt,
        eps_corr=eps_corr,
        num_probe_points=len(points),
        num_minibatch_draws=len(points) * k * num_clients * draws,
    )


class _InfiniteByDesign(Exception):
    """Raised by a bound whose arguments make it infinite (vacuous) by design."""


def _inf_on_overflow(bound):
    """Report a bound whose float evaluation overflows as infinite (vacuous).

    A term too large for a float either raises (``**``) or becomes inf
    (``*`` and ``/``, as when a divisor such as ``lambda ** 2`` underflows
    at a tiny positive lambda), and a divisor that underflows to zero
    raises; each counts as an overflow.  A bound that is infinite by design
    raises :class:`_InfiniteByDesign` instead.  The wrapped bound's
    ``checked`` attribute returns ``(value, overflowed)``, which tells the
    two kinds of inf apart.
    """

    def checked(*args, **kwargs):
        try:
            value = bound(*args, **kwargs)
        except _InfiniteByDesign:
            return math.inf, False
        except (OverflowError, ZeroDivisionError):
            return math.inf, True
        return value, value == math.inf

    @functools.wraps(bound)
    def evaluate(*args, **kwargs):
        return checked(*args, **kwargs)[0]

    evaluate.checked = checked
    return evaluate


@_inf_on_overflow
def drift_bound(gamma_g: float, gamma_l: float, epochs: int, b: float, lam: float) -> float:
    """Cap on ||theta_i^t - theta_i^0||^2 under the server anchor.

    A zero lambda makes the bound vacuous (infinite), as does a value too
    large for a float.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if lam == 0.0:
        raise _InfiniteByDesign
    return (gamma_g ** 2) * (gamma_l ** 2) * (epochs ** 2) * (b ** 2) / (lam ** 2)


@_inf_on_overflow
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
    right-hand side.  A term too large for a float makes it infinite.
    """
    if k < 2:
        raise ValueError("backward transfer needs at least two tasks")
    if t < 1:
        raise ValueError("t must be >= 1")
    denom = (k - 1) * t * epochs * m * n * l_smooth * b ** 2
    if denom == 0:
        raise ValueError("bound denominator is zero; all constants must be positive")
    return 2.0 * eps ** 2 * sigma_l ** 2 * grad_norm_prev ** 2 / denom


@_inf_on_overflow
def psi_residual(
    consts: ConstantEstimates, hp: HyperParams, k: int, grad_norm_prev: float
) -> float:
    """The constant residual of the task-uniform convergence bound.

    Evaluated term by term; at N = M every partial-participation
    term vanishes exactly, leaving the full-participation residual.  A term
    too large for a float makes it infinite.
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
        raise _InfiniteByDesign  # no anchor bounds the drift term
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


@_inf_on_overflow
def _bkt_gamma_l_cap(
    eps: float, gprev: float, b: float, l_smooth: float, epochs: int, t: int, m: int, lam: float
) -> float:
    """Retention cap on the local rate at round t; infinite if a term overflows."""
    root = math.sqrt(m * epochs / (lam ** 2 + 2.0 * lam))
    return 2.0 * eps * gprev / (b * l_smooth * epochs * t * root)


@_inf_on_overflow
def _suggested_gamma_g(n: int, epochs: int, k: int, lam: float, l_smooth: float) -> float:
    """Global rate of the suggested schedule; infinite if a term overflows."""
    return math.sqrt(n * epochs) / ((k - 1) * lam * l_smooth)


@dataclass
class StepSizeReport:
    """Step-size conditions of the retention and convergence bounds."""

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


def check_step_sizes(
    hp: HyperParams,
    consts: ConstantEstimates,
    k: int,
    t: int,
    grad_norm_prev: float,
) -> StepSizeReport:
    """Evaluate every learning-rate condition at round ``t``.

    The backward-transfer local-rate cap shrinks with t, so callers wanting
    the strictest value over a run should pass the final round.  A cap too
    large for a float is infinite, and ``bkt_gamma_l_overflowed`` and
    ``suggested_gamma_g_overflowed`` tell such an inf apart from one by
    design.
    """
    gg, gl = hp.gamma_g(k), hp.local_lr
    e, lam = hp.local_epochs, hp.prox_lambda
    m, n = hp.num_clients, hp.participants_per_round
    l_s = consts.L

    conv_gg_cap = 1.0 / (k - 1) if k >= 2 else math.inf
    conv_gl_cap = 1.0 / (8.0 * e * l_s) if l_s > 0 else math.inf
    conv_prod_cap = (1.0 + lam) / (3.0 * e * l_s) if l_s > 0 else math.inf

    if lam > 0 and l_s > 0 and consts.B > 0 and consts.eps_bkt > 0 and k >= 2 and t >= 1:
        bkt_gl_cap, bkt_gl_overflowed = _bkt_gamma_l_cap.checked(
            consts.eps_bkt, grad_norm_prev, consts.B, l_s, e, t, m, lam
        )
    else:
        # No anchor, no curvature, or a failed alignment premise admits no
        # positive local rate.
        bkt_gl_cap, bkt_gl_overflowed = 0.0, False
    bkt_gg_cap = 1.0 / (math.sqrt(n) * (k - 1)) if k >= 2 else math.inf

    if lam > 0 and l_s > 0:
        suggested_gl = lam / (math.sqrt(k * hp.rounds_per_task) * e * l_s)
    else:
        suggested_gl = 0.0
    if lam > 0 and l_s > 0 and k >= 2:
        suggested_gg, suggested_gg_overflowed = _suggested_gamma_g.checked(n, e, k, lam, l_s)
    else:
        suggested_gg, suggested_gg_overflowed = math.inf, False

    return StepSizeReport(
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


def sigma_t_alignment_bounds(eps_corr: float, b: float) -> tuple[float, float, bool]:
    """Both forms of the inter-task-gap cap under positive correlation.

    Returns the linear form (3 - 2e) * B^2, the tighter max(B^2, 2(1 - e) B^2)
    a direct expansion yields, and a flag set when the two differ.
    """
    stated = (3.0 - 2.0 * eps_corr) * b ** 2
    proof = max(b ** 2, 2.0 * (1.0 - eps_corr) * b ** 2)
    return stated, proof, stated != proof
