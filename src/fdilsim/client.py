"""Local training on one client's shard for one communication round.

A "local epoch" is a single SGD step on one minibatch drawn uniformly with
replacement from the shard (the per-step sample of the protocol), not a full
pass over the shard.  When the configured batch size reaches the shard size
the whole shard is used per step, which makes E=1 exactly one full-batch
step.  Drawn sample indices are sorted before the gradient is computed so
results never depend on draw order.

Two modes:

* ``plain`` -- theta <- theta - gamma_L * g, the inner loop of the main
  protocol, giving delta = -gamma_L * sum of step gradients exactly.
* ``client_prox`` -- each step is followed by the proximal map
  ``prox(x) = (x + 2*lambda*anchor) / (1 + 2*lambda)``, the minimizer of
  0.5*||theta - x||^2 + lambda*||theta - anchor||^2, pulling the iterate
  toward the previous task's model during local training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import ClientShard
from .models import Minibatch, ModelSpec, loss_and_grad


@dataclass(frozen=True)
class LocalConfig:
    """Per-round local training knobs."""

    epochs: int
    local_lr: float
    batch_size: int
    mode: str = "plain"
    prox_lambda: float = 0.0
    anchor: np.ndarray | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.local_lr <= 0:
            raise ValueError("local_lr must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.mode not in ("plain", "client_prox"):
            raise ValueError(f"unknown local mode {self.mode!r}")
        if self.mode == "client_prox":
            if self.prox_lambda < 0:
                raise ValueError("prox_lambda must be >= 0")
            if self.anchor is None:
                raise ValueError("client_prox mode requires an anchor")


@dataclass
class ClientUpdate:
    """The update vector sent to the server plus local gradient statistics."""

    delta: np.ndarray
    steps_taken: int
    grad_norm_max: float
    grad_norm_sq_mean: float


def prox_map(x: np.ndarray, anchor: np.ndarray, lam: float) -> np.ndarray:
    """Closed-form minimizer of 0.5*||t - x||^2 + lam*||t - anchor||^2."""
    if lam == 0.0:
        return x
    return (x + 2.0 * lam * anchor) / (1.0 + 2.0 * lam)


def draw_indices(n: int, batch_size: int, stream: np.random.Generator) -> np.ndarray:
    """Sorted uniform-with-replacement row indices of a batch below ``n`` rows."""
    return np.sort(stream.integers(0, n, size=batch_size))


def draw_batch(shard: Minibatch, batch_size: int, stream: np.random.Generator) -> Minibatch:
    """Uniform-with-replacement minibatch in canonical (sorted-index) order.

    Batches at least as large as the shard use the whole shard instead and
    draw nothing from ``stream``.
    """
    n = len(shard)
    if batch_size >= n:
        return shard
    return shard.take(draw_indices(n, batch_size, stream))


def local_update(
    spec: ModelSpec,
    global_params: np.ndarray,
    shard: ClientShard,
    cfg: LocalConfig,
    stream: np.random.Generator,
) -> ClientUpdate:
    """Run E local steps from ``global_params`` and return the update."""
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
        raise ValueError("local training diverged to a non-finite update")
    return ClientUpdate(
        delta=delta,
        steps_taken=cfg.epochs,
        grad_norm_max=grad_norm_max,
        grad_norm_sq_mean=grad_sq_sum / cfg.epochs,
    )
