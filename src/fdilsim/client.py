"""Local training of the round's sampled clients, stepped in lockstep.

A "local epoch" is a single SGD step on one minibatch drawn uniformly with
replacement from the shard (the per-step sample of the protocol), not a full
pass over the shard.  When the configured batch size reaches the shard size
the whole shard is used per step, which makes E=1 exactly one full-batch
step, and nothing is drawn.  Drawn sample indices are sorted before the
gradient is computed so results never depend on draw order.

All N sampled clients run their E steps together, each step one stacked
:func:`loss_and_grad` call over all of them, which skips the loss the step
discards.  Every client's batch has the same P rows, where P is
``min(batch_size, largest shard of the task)``, fixed for the task whatever
clients were sampled.  A client that draws (more rows than the batch, so P
is the batch size) fills its P rows with its drawn rows; a client whose
shard is used whole takes its n rows and then P - n pad rows.  The rows are
gathered bias-augmented from the shards (a pad row is ``[0 ... 0, 1]``), so
the round tensor already holds the kernel's ones column.  Per-client row
counts make the kernel give the pad rows a softmax residual of exactly 0.0
and divide each client by its own count, so a client's gradient is that of
its own batch.  The update, the proximal
step and the gradient statistics are elementwise over the stack.  A drawing
client takes the indices of all its E steps from its own stream in one
``integers`` call per round (:func:`draw_rows`, shared with the probe
estimator); bounded integers consume the stream's words in the same order
whatever the call shape, so these are the very batches that E one-batch
draws would give.  A client that never draws needs no stream.

Every client's result equals running it alone at the same P, bit for bit,
so it never depends on who else was sampled.  Against an unpadded call on
the client's own rows, logreg with two inputs was bit-equal in every case
tested (a one-row shard with more inputs can take another BLAS path), and
mlp1 can differ in the last bits, because BLAS sums a padded hidden-layer
product in another order.

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
from .models import Minibatch, ModelSpec, loss_and_grad, row_dots


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


def local_update(
    spec: ModelSpec,
    global_params: np.ndarray,
    shards: list[ClientShard],
    cfg: LocalConfig,
    streams: list[np.random.Generator | None],
    rows: int,
) -> ClientUpdate:
    """Run E local steps from ``global_params`` on every given client at once.

    ``shards`` and ``streams`` are the selected clients' shards and minibatch
    streams, in ascending client-id order.  A client whose shard has at most
    ``cfg.batch_size`` rows never draws, and its stream may be ``None``.
    Every client gets a batch of ``rows`` rows, at least its effective batch
    ``min(n, cfg.batch_size)``: its drawn or whole-shard rows, then pad rows
    ``[0 ... 0, 1]`` that the kernel's per-client counts leave out.  The
    ``(E, N, rows, D + 1)`` round tensor is gathered once per round from the
    shards' bias-augmented rows.  Each step is one stacked
    :func:`loss_and_grad` call over all clients, without the loss; a drawing
    client takes its E batches from its own stream in one :func:`draw_rows`
    call per round.  Row ``j`` of the result equals running client ``j``
    alone with the same ``rows``, bit for bit.  Raises ``ValueError`` if
    ``rows`` is below an effective batch.

    Returns deltas ``(N, d)``, ``grad_norm_max`` and ``grad_norm_sq_mean``
    ``(N,)``, and ``steps_taken`` = N * E.  Raises :class:`DivergenceError`
    if any delta has a non-finite entry.
    """
    b, epochs = cfg.batch_size, cfg.epochs
    sizes = np.array([len(shard.data) for shard in shards])
    # One pool: the drawing shards (draw_rows indexes them concatenated), the
    # whole shards, then one zero row that every pad position points at.
    drawing = np.flatnonzero(sizes > b)
    order = np.concatenate([drawing, np.flatnonzero(sizes <= b)])
    pad_row = np.zeros((1, spec.input_dim + 1))
    pad_row[0, -1] = 1.0  # bias-augmented, as every row of the pool
    pool_rows = np.concatenate([shards[j].data.augmented for j in order] + [pad_row])
    pool_labels = np.concatenate([shards[j].data.labels for j in order] + [np.zeros(1, np.int64)])
    start = np.empty_like(sizes)
    start[order] = np.cumsum(sizes[order]) - sizes[order]
    counts = np.minimum(sizes, b)
    if rows < counts.max():
        raise ValueError(f"rows {rows} is below an effective batch of {counts.max()}")
    col = np.arange(rows)
    idx = np.where(col < counts[:, None], start[:, None] + col, len(pool_labels) - 1)
    idx = np.repeat(idx[None], epochs, axis=0)
    if drawing.size:
        drawn = draw_rows(sizes[drawing].tolist(), b, [streams[j] for j in drawing], epochs)
        idx[:, drawing, :b] = drawn.swapaxes(0, 1)
    # Gathered step-major, so each step's (N, rows, D) stack is contiguous;
    # take copies the same rows as fancy indexing at a fraction of its cost.
    step_rows = pool_rows.take(idx, axis=0)
    step_labels = pool_labels.take(idx)

    theta = np.tile(global_params, (len(shards), 1))
    grad_norm_max = np.zeros(len(shards))
    grad_sq_sum = np.zeros(len(shards))
    for e in range(epochs):
        batch = Minibatch.of_rows(step_rows[e], step_labels[e])
        _, grad = loss_and_grad(spec, theta, batch, counts, with_loss=False)
        norm_sq = row_dots(grad)  # each row's grad @ grad, bit for bit
        grad_norm_max = np.maximum(grad_norm_max, np.sqrt(norm_sq))
        grad_sq_sum = grad_sq_sum + norm_sq
        theta = theta - cfg.local_lr * grad
        if cfg.mode == "client_prox":
            theta = prox_map(theta, cfg.anchor, cfg.prox_lambda)
    delta = theta - global_params
    if not np.isfinite(delta).all():
        raise DivergenceError("local training diverged to a non-finite update")
    return ClientUpdate(
        delta=delta,
        steps_taken=len(shards) * epochs,
        grad_norm_max=grad_norm_max,
        grad_norm_sq_mean=grad_sq_sum / epochs,
    )
