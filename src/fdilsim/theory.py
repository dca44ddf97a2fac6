"""Assumption-constant estimation and bound evaluation.

The constants (gradient bound B, smoothness L, local variance sigma_L,
intra-task heterogeneity sigma_G, inter-task gap sigma_T, alignment epsilons)
are estimated as empirical extrema over a set of probe parameter points:
random draws around a configurable center plus any trajectory checkpoints the
caller supplies.  By construction every estimate is a lower bound on the true
supremum (or an upper bound on the true infimum for the epsilons), and
enlarging the probe set can only move an estimate toward the truth.

The bound calculators evaluate the drift cap, the backward-transfer
correction term, the convergence residual, and the step-size conditions
term by term.  Bounds are always reported as "holds under
the estimated constants": nothing here enforces an assumption, it only
measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import rng as rngmod
from .client import draw_batch
from .datagen import ClientShard, TaskSequence
from .metrics import client_objective_grad
from .models import ModelSpec, check_data, check_params, loss_and_grad, param_count
from .server import HyperParams


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

    # Full-shard gradients, cached per (probe, task, client).
    client_grads = np.empty((len(points), k, num_clients, param_count(spec)))
    for p, theta in enumerate(points):
        for i in range(k):
            for m, shard in enumerate(shards_by_task[i]):
                _, grad = client_objective_grad(spec, theta, shard)
                client_grads[p, i, m] = grad
    task_grads = client_grads.mean(axis=2)

    b_max = 0.0
    sigma_l_sq = 0.0
    draws = 0
    for p, theta in enumerate(points):
        for i in range(k):
            for m, shard in enumerate(shards_by_task[i]):
                stream = rngmod.derive_stream(
                    seed, (rngmod.PROBE_BATCH, p, i, m)
                )
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


def drift_bound(gamma_g: float, gamma_l: float, epochs: int, b: float, lam: float) -> float:
    """Cap on ||theta_i^t - theta_i^0||^2 under the server anchor.

    A zero lambda makes the bound vacuous (infinite).
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if lam == 0.0:
        return math.inf
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
    denom = (k - 1) * t * epochs * m * n * l_smooth * b ** 2
    if denom == 0:
        raise ValueError("bound denominator is zero; all constants must be positive")
    return 2.0 * eps ** 2 * sigma_l ** 2 * grad_norm_prev ** 2 / denom


def psi_residual(
    consts: ConstantEstimates, hp: HyperParams, k: int, grad_norm_prev: float
) -> float:
    """The constant residual of the task-uniform convergence bound.

    Evaluated term by term; at N = M every partial-participation
    term vanishes exactly, leaving the full-participation residual.
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
    the strictest value over a run should pass the final round.
    """
    gg, gl = hp.gamma_g(k), hp.local_lr
    e, lam = hp.local_epochs, hp.prox_lambda
    m, n = hp.num_clients, hp.participants_per_round
    l_s = consts.L

    conv_gg_cap = 1.0 / (k - 1) if k >= 2 else math.inf
    conv_gl_cap = 1.0 / (8.0 * e * l_s) if l_s > 0 else math.inf
    conv_prod_cap = (1.0 + lam) / (3.0 * e * l_s) if l_s > 0 else math.inf

    if lam > 0 and l_s > 0 and consts.B > 0 and consts.eps_bkt > 0 and k >= 2 and t >= 1:
        bkt_gl_cap = (
            2.0
            * consts.eps_bkt
            * grad_norm_prev
            / (consts.B * l_s * e * t * math.sqrt(m * e / (lam ** 2 + 2.0 * lam)))
        )
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
