"""Shared test oracles, independent of the implementation paths they check."""

from __future__ import annotations

import math

import numpy as np

from fdilsim import ConstantEstimates, HyperParams, Minibatch, ModelSpec, loss_and_grad


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
