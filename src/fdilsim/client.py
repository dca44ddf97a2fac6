"""Local training of the round's sampled clients, stepped in lockstep.

A "local epoch" is a single SGD step on one minibatch drawn uniformly with
replacement from the shard (the per-step sample of the protocol), not a full
pass over the shard.  When the configured batch size reaches the shard size
the whole shard is used per step, which makes E=1 exactly one full-batch
step, and nothing is drawn.  Drawn sample indices are sorted before the
gradient is computed so results never depend on draw order.

All N sampled clients run their E steps together.  Clients are grouped by
effective batch: the shards that draw (more rows than the batch) form one
group, and the shards used whole form one group per shard size.  Each step
is one stacked :func:`loss_and_grad` call per group, and the update, the
proximal step and the gradient statistics are elementwise over the stack.
A drawing client takes the indices of all its E steps from its own stream
in one ``integers`` call per round (:func:`draw_rows`, shared with the probe
estimator); bounded integers consume the stream's words in the same order
whatever the call shape, so these are the very batches that E one-batch
draws would give.  A client that never draws needs no stream.  Every
client's result equals running it alone, bit for bit.

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


class DivergenceError(ValueError):
    """Training reached a non-finite update or model."""


@dataclass
class ClientUpdate:
    """The clients' update vectors plus their local gradient statistics.

    ``delta`` is ``(N, d)`` and the statistics are ``(N,)``, one row per
    client; ``steps_taken`` counts the local steps of all N clients.
    """

    delta: np.ndarray
    steps_taken: int
    grad_norm_max: np.ndarray
    grad_norm_sq_mean: np.ndarray


def prox_map(x: np.ndarray, anchor: np.ndarray, lam: float) -> np.ndarray:
    """Closed-form minimizer of 0.5*||t - x||^2 + lam*||t - anchor||^2."""
    if lam == 0.0:
        return x
    return (x + 2.0 * lam * anchor) / (1.0 + 2.0 * lam)


def draw_rows(
    sizes: list[int], batch_size: int, streams: list[np.random.Generator], count: int
) -> np.ndarray:
    """``count`` sorted uniform-with-replacement batches from each shard.

    Shard ``j`` of ``sizes[j]`` rows draws its ``(count, batch_size)`` block
    from ``streams[j]`` in one ``integers`` call, which takes the stream's
    words in the same order as ``count`` one-batch draws.  The result
    ``(len(sizes), count, batch_size)`` indexes the shards' rows concatenated.
    """
    rows = np.empty((len(sizes), count, batch_size), dtype=np.intp)
    for j, (n, stream) in enumerate(zip(sizes, streams)):
        rows[j] = stream.integers(0, n, size=(count, batch_size))
    rows.sort(axis=-1)
    return rows + np.cumsum([0] + sizes[:-1])[:, None, None]


def draw_indices(n: int, batch_size: int, stream: np.random.Generator, count: int) -> np.ndarray:
    """``count`` sorted batches of row indices below ``n``: :func:`draw_rows` on one shard."""
    return draw_rows([n], batch_size, [stream], count)[0]


def draw_batch(shard: Minibatch, batch_size: int, stream: np.random.Generator) -> Minibatch:
    """Uniform-with-replacement minibatch in canonical (sorted-index) order.

    Batches at least as large as the shard use the whole shard instead and
    draw nothing from ``stream``.
    """
    n = len(shard)
    if batch_size >= n:
        return shard
    return shard.take(draw_indices(n, batch_size, stream, 1)[0])


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


def local_update(
    spec: ModelSpec,
    global_params: np.ndarray,
    shards: list[ClientShard],
    cfg: LocalConfig,
    streams: list[np.random.Generator | None],
) -> ClientUpdate:
    """Run E local steps from ``global_params`` on every given client at once.

    ``shards`` and ``streams`` are the selected clients' shards and minibatch
    streams, in ascending client-id order.  A client whose shard has at most
    ``cfg.batch_size`` rows never draws, and its stream may be ``None``.
    Each group of clients with the same effective batch makes one stacked
    :func:`loss_and_grad` call per step on its own rows; a drawing client
    takes all E batches from its own stream in one :func:`draw_rows` call
    per round.  Row ``j`` of the result equals running client ``j`` alone,
    bit for bit.

    Returns deltas ``(N, d)``, ``grad_norm_max`` and ``grad_norm_sq_mean``
    ``(N,)``, and ``steps_taken`` = N * E.  Raises :class:`DivergenceError`
    if any delta has a non-finite entry.
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
            # The drawn rows of all members index one pool and are gathered
            # step-major, so each step's (g, b, D) stack is contiguous.
            member_streams = [streams[j] for j in members]
            idx = draw_rows([sizes[j] for j in members], b, member_streams, cfg.epochs).swapaxes(0, 1)
            step_inputs = np.concatenate([x.inputs for x in data])[idx]
            step_labels = np.concatenate([x.labels for x in data])[idx]
        else:
            batch = Minibatch.stack(
                np.stack([x.inputs for x in data]), np.stack([x.labels for x in data])
            )
        theta = np.tile(global_params, (len(members), 1))
        gmax = np.zeros(len(members))
        gsq = np.zeros(len(members))
        for e in range(cfg.epochs):
            if draws:
                batch = Minibatch.stack(step_inputs[e], step_labels[e])
            _, grad = loss_and_grad(spec, theta, batch)
            # A stacked (1, d) @ (d, 1) product is the same dot as grad @ grad.
            norm_sq = (grad[:, None, :] @ grad[:, :, None])[:, 0, 0]
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
