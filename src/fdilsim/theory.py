"""Assumption-constant estimation and bound evaluation.

The constants (gradient bound B, smoothness L, local variance sigma_L,
intra-task heterogeneity sigma_G, inter-task gap sigma_T, alignment epsilons)
are estimated as empirical extrema over a set of probe parameter points:
random draws around a configurable center plus any trajectory checkpoints the
caller supplies.  By construction every estimate is a lower bound on the true
supremum (or an upper bound on the true infimum for the epsilons), and
enlarging the probe set can only move an estimate toward the truth.

The estimator works in stacked passes.  Full-shard gradients at every probe
point take one stacked call per shard through the full-shard helper
:func:`fdilsim.metrics.client_objective_grad`; the minibatch draws of all
clients at one (probe, task) go through one stacked pass, each client still
drawing all its batches from its own stream, in one call; a shard no larger
than the batch is used whole, so its full-shard gradient is reused.  The
reductions vectorise sums of squares and cosines over clients and tasks only
to shortlist the candidates near each extreme, and recompute those with the
scalar norm/dot expressions.  A maximum or minimum of exact values does not
depend on the order they are visited in, so every estimate equals that of a
plain loop over probes, tasks, clients and draws bit for bit.

The bound calculators evaluate the drift cap, the backward-transfer
correction term, the convergence residual, and the step-size conditions
term by term; one whose float evaluation overflows is reported as inf
(vacuous), and its report row is flagged ``vacuous=overflow``.  Bounds are
always reported as "holds under the estimated constants": nothing here
enforces an assumption, it only measures.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import rng as rngmod
from .datagen import ClientShard, TaskSequence
from .metrics import STACK_ROWS, client_objective_grad
from .models import Minibatch, ModelSpec, check_data, check_params, loss_and_grad, param_count
from .server import HyperParams

# Shortlist margins for the vectorised reductions: relative for the maxima of
# sums of squares and norm ratios, absolute for the minima of cosines.  Both
# are far above the last-bit differences between einsum and a scalar dot.
SHORTLIST_REL = 1e-9
SHORTLIST_COS = 1e-9


@dataclass(frozen=True)
class ProbeConfig:
    """How many probe points/minibatches the estimator may spend."""

    num_random_probes: int = 8
    minibatch_draws: int = 4
    batch_size: int = 32
    probe_scale: float = 1.0
    probe_center: np.ndarray | None = None

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
    d = param_count(spec)
    center = probe_cfg.probe_center
    if center is None:
        center = np.zeros(d)
    points = [np.asarray(c, dtype=np.float64) for c in checkpoints]
    for p in range(probe_cfg.num_random_probes):
        stream = rngmod.derive_stream(seed, (rngmod.PROBE_POINT, p))
        points.append(center + probe_cfg.probe_scale * stream.standard_normal(d))
    return points


def _cosine(u: np.ndarray, v: np.ndarray) -> float | None:
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return None
    return float(np.dot(u, v) / (nu * nv))


def _sum_sq(a: np.ndarray) -> np.ndarray:
    """Vectorised squared norms over the last axis (last bits may differ from a dot)."""
    return np.einsum("...d,...d->...", a, a)


def _fold_max(best: float, approx: np.ndarray, exact) -> float:
    """``max(best, exact(j) for every j)`` from the few ``j`` that can set it.

    ``approx`` holds vectorised values that differ from ``exact(j)`` in the
    last bits only, so entries more than a relative ``SHORTLIST_REL`` below
    the larger of ``best`` and their block's top cannot be the maximum.
    The maximum of exact values does not depend on their order.
    """
    approx = approx.ravel()
    if approx.size == 0:
        return best
    floor = max(best, approx.max()) * (1.0 - SHORTLIST_REL)
    for j in np.flatnonzero((approx >= floor) & (approx > 0.0)):
        best = max(best, exact(j))
    return best


def _fold_min_cosine(best: float, approx: np.ndarray, exact) -> float:
    """Running minimum of the exact cosines ``exact(j)`` (None = skipped).

    Shortlists entries within ``SHORTLIST_COS`` of the smallest approximate
    cosine, plus any whose approximation is not finite, and visits them in
    index order, so the result equals the scalar loop's.
    """
    approx = approx.ravel()
    if approx.size == 0:
        return best
    ceiling = min(best, approx.min()) + SHORTLIST_COS
    for j in np.flatnonzero(~(approx > ceiling) | ~np.isfinite(approx)):
        cos = exact(j)
        if cos is not None:
            best = min(best, cos)
    return best


def _approx_cosines(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.einsum("...d,...d->...", u, v) / np.sqrt(_sum_sq(u) * _sum_sq(v))


def _mean_sq_deviation(grads: np.ndarray, full: np.ndarray) -> float:
    """Mean of ||g - full||^2 over the rows g of ``grads``, summed in row order."""
    total = 0.0
    for g in grads:
        diff = g - full
        total += float(diff @ diff)
    return total / len(grads)


def _full_shard_grads(
    spec: ModelSpec, thetas: np.ndarray, shards_by_task: list[list[ClientShard]]
) -> np.ndarray:
    """Gradient of every client objective at every probe, ``(P, K, M, d)``.

    One stacked :func:`client_objective_grad` call per shard.
    """
    grads = np.empty(
        (thetas.shape[0], len(shards_by_task), len(shards_by_task[0]), thetas.shape[1])
    )
    for i, task_shards in enumerate(shards_by_task):
        for m, shard in enumerate(task_shards):
            _, grads[:, i, m] = client_objective_grad(spec, thetas, shard)
    return grads


def _minibatch_grads(
    spec: ModelSpec,
    theta: np.ndarray,
    task_shards: list[ClientShard],
    clients: list[int],
    probe_cfg: ProbeConfig,
    seed: int,
    probe: int,
    task: int,
) -> np.ndarray:
    """Stochastic gradients ``(len(clients), draws, d)`` at one probe and task.

    Each client draws all its batches from its own ``(PROBE_BATCH, probe,
    task, client)`` stream in one ``integers`` call, which gives the same
    batches as one draw per batch; the index block of all clients is sorted
    once, each batch on its own, as local training sorts its draws.  The rows
    go through stacked kernel calls of at most ``STACK_ROWS`` rows.
    """
    size, draws = probe_cfg.batch_size, probe_cfg.minibatch_draws
    sampled = [task_shards[m].data for m in clients]
    offsets = np.cumsum([0] + [len(data) for data in sampled])
    idx = np.empty((len(clients), draws, size), dtype=np.intp)
    for r, (m, data) in enumerate(zip(clients, sampled)):
        stream = rngmod.derive_stream(seed, (rngmod.PROBE_BATCH, probe, task, m))
        idx[r] = stream.integers(0, len(data), size=(draws, size))
    idx.sort(axis=-1)
    idx = (idx + offsets[:-1, None, None]).reshape(-1, size)
    inputs = np.concatenate([data.inputs for data in sampled])[idx]
    targets = np.concatenate([data.labels for data in sampled])[idx]

    grads = np.empty((idx.shape[0], theta.shape[0]))
    width = max(1, STACK_ROWS // size)
    for lo in range(0, idx.shape[0], width):
        batch = Minibatch.stack(inputs[lo : lo + width], targets[lo : lo + width])
        _, grads[lo : lo + width] = loss_and_grad(spec, theta, batch)
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
    ``spec`` once, here.

    The work is done in stacked passes:

    * full-shard gradients, one stacked kernel call per (task, client) over
      the probe points, into a ``(P, K, M, d)`` tensor;
    * minibatch gradients, one stacked pass per (probe, task) over every
      client's draws.  A shard no larger than the batch is used whole and
      draws nothing, so its stochastic gradient is its full-shard gradient
      (deviation exactly 0) and is not computed again;
    * reductions: vectorised sums of squares and cosines shortlist the
      candidates near each block's extreme (a block is one probe for B,
      sigma_L, sigma_G and eps_bkt, one probe pair for L, and all probes for
      the task pairs of sigma_T and eps_corr); only those are recomputed
      with the scalar ``np.linalg.norm``/dot expressions, so each maximum or
      minimum is exactly the scalar loop's.
    """
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
    size, draws = probe_cfg.batch_size, probe_cfg.minibatch_draws
    thetas = np.stack(points)
    client_grads = _full_shard_grads(spec, thetas, shards_by_task)
    task_grads = client_grads.mean(axis=2)
    # Row j of flat[p] is client j % M of task j // M: the same memory.
    flat = client_grads.reshape(len(points), k * num_clients, -1)

    whole = [[m for m, s in enumerate(ts) if len(s.data) <= size] for ts in shards_by_task]
    sampled = [[m for m, s in enumerate(ts) if len(s.data) > size] for ts in shards_by_task]
    b_max = 0.0
    sigma_l_sq = 0.0
    for p, theta in enumerate(thetas):
        for i, task_shards in enumerate(shards_by_task):
            full, used, drawn = client_grads[p, i], whole[i], sampled[i]
            b_max = _fold_max(
                b_max, np.sqrt(_sum_sq(full[used])),
                lambda j: float(np.linalg.norm(full[used[j]])),
            )
            if not drawn:
                continue
            g = _minibatch_grads(spec, theta, task_shards, drawn, probe_cfg, seed, p, i)
            b_max = _fold_max(
                b_max, np.sqrt(_sum_sq(g)),
                lambda j: float(np.linalg.norm(g[j // draws, j % draws])),
            )
            approx = _sum_sq(g - full[drawn][:, None, :]).sum(axis=1) / draws
            sigma_l_sq = _fold_max(
                sigma_l_sq, approx, lambda r: _mean_sq_deviation(g[r], full[drawn[r]])
            )

    l_max = 0.0
    for p, q in combinations(range(len(points)), 2):
        gap = float(np.linalg.norm(points[p] - points[q]))
        if gap == 0.0:
            continue
        l_max = _fold_max(
            l_max, np.sqrt(_sum_sq(flat[p] - flat[q])) / gap,
            lambda j: float(np.linalg.norm(flat[p, j] - flat[q, j])) / gap,
        )

    def spread_sq(p, j):
        diff = flat[p, j] - task_grads[p, j // num_clients]
        return float(diff @ diff)

    sigma_g_sq = 0.0
    for p in range(len(points)):
        approx = _sum_sq(client_grads[p] - task_grads[p][:, None, :])
        sigma_g_sq = _fold_max(sigma_g_sq, approx, lambda j: spread_sq(p, j))

    # Task pairs, probe-major: entry j is probe j // len(pairs), pair j % len(pairs).
    pairs = list(combinations(range(k), 2))
    first = task_grads[:, [a for a, _ in pairs]]
    second = task_grads[:, [b for _, b in pairs]]

    def task_pair(j):
        p, pair = divmod(j, len(pairs))
        a, b = pairs[pair]
        return task_grads[p, a], task_grads[p, b]

    def gap_sq(j):
        u, v = task_pair(j)
        diff = u - v
        return float(diff @ diff)

    sigma_t_sq = _fold_max(0.0, _sum_sq(first - second), gap_sq)
    eps_corr = _fold_min_cosine(
        1.0, _approx_cosines(first, second), lambda j: _cosine(*task_pair(j))
    )

    eps_bkt = 1.0
    if k >= 2:
        for p in range(len(points)):
            prev_grad = task_grads[p, : k - 1].sum(axis=0)
            last = client_grads[p, k - 1]
            eps_bkt = _fold_min_cosine(
                eps_bkt, _approx_cosines(prev_grad, last),
                lambda m: _cosine(prev_grad, last[m]),
            )

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


def _inf_on_overflow(bound):
    """Report a bound whose float evaluation overflows as infinite (vacuous).

    The wrapped bound's ``checked`` attribute returns ``(value, overflowed)``,
    which tells such an inf apart from a bound that is infinite by design.
    """

    def checked(*args, **kwargs):
        try:
            return bound(*args, **kwargs), False
        except OverflowError:
            return math.inf, True

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
        return math.inf
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
        drift_b = math.inf
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
    bkt_gamma_g_cap: float
    bkt_gamma_g_ok: bool
    suggested_gamma_l: float
    suggested_gamma_g: float


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
    large for a float is infinite.
    """
    gg, gl = hp.gamma_g(k), hp.local_lr
    e, lam = hp.local_epochs, hp.prox_lambda
    m, n = hp.num_clients, hp.participants_per_round
    l_s = consts.L

    conv_gg_cap = 1.0 / (k - 1) if k >= 2 else math.inf
    conv_gl_cap = 1.0 / (8.0 * e * l_s) if l_s > 0 else math.inf
    conv_prod_cap = (1.0 + lam) / (3.0 * e * l_s) if l_s > 0 else math.inf

    if lam > 0 and l_s > 0 and consts.B > 0 and consts.eps_bkt > 0 and k >= 2 and t >= 1:
        try:
            bkt_gl_cap = (
                2.0
                * consts.eps_bkt
                * grad_norm_prev
                / (consts.B * l_s * e * t * math.sqrt(m * e / (lam ** 2 + 2.0 * lam)))
            )
        except OverflowError:  # lambda ** 2 beyond a float: the cap has no finite value
            bkt_gl_cap = math.inf
    else:
        # No anchor, no curvature, or a failed alignment premise admits no
        # positive local rate.
        bkt_gl_cap = 0.0
    bkt_gg_cap = 1.0 / (math.sqrt(n) * (k - 1)) if k >= 2 else math.inf

    if lam > 0 and l_s > 0:
        suggested_gl = lam / (math.sqrt(k * hp.rounds_per_task) * e * l_s)
    else:
        suggested_gl = 0.0
    if lam > 0 and l_s > 0 and k >= 2:
        suggested_gg = math.sqrt(n * e) / ((k - 1) * lam * l_s)
    else:
        suggested_gg = math.inf

    return StepSizeReport(
        conv_gamma_g_cap=conv_gg_cap,
        conv_gamma_g_ok=gg <= conv_gg_cap,
        conv_gamma_l_cap=conv_gl_cap,
        conv_gamma_l_ok=gl <= conv_gl_cap,
        conv_product_cap=conv_prod_cap,
        conv_product_ok=gg * gl <= conv_prod_cap,
        bkt_gamma_l_cap=bkt_gl_cap,
        bkt_gamma_l_ok=gl <= bkt_gl_cap,
        bkt_gamma_g_cap=bkt_gg_cap,
        bkt_gamma_g_ok=gg <= bkt_gg_cap,
        suggested_gamma_l=suggested_gl,
        suggested_gamma_g=suggested_gg,
    )


def sigma_t_alignment_bounds(eps_corr: float, b: float) -> tuple[float, float, bool]:
    """Both forms of the inter-task-gap cap under positive correlation.

    Returns the linear form (3 - 2e) * B^2, the tighter max(B^2, 2(1 - e) B^2)
    a direct expansion yields, and a flag set when the two differ.
    """
    stated = (3.0 - 2.0 * eps_corr) * b ** 2
    proof = max(b ** 2, 2.0 * (1.0 - eps_corr) * b ** 2)
    return stated, proof, stated != proof
