"""Local training of the round's sampled clients, stepped in lockstep.

A "local epoch" is a single SGD step on one minibatch drawn uniformly with
replacement from the shard (the per-step sample of the protocol), not a full
pass over the shard.  When the configured batch size reaches the shard size
the whole shard is used per step, which makes E=1 exactly one full-batch
step, and nothing is drawn.  Drawn sample indices are sorted before the
gradient is computed so results never depend on draw order.

Everything a round needs apart from the model is fixed when its task
starts, so it is built ahead of the rounds.  :class:`TaskPool` holds the
task's M shards as one :class:`Minibatch` of bias-augmented rows plus one
all-zero pad row, with each shard's start and size, built once per task by
:func:`task_pool`; nothing in it depends on a batch size.  The server's
task loop and the probe estimator both draw and gather their batches from
it: :meth:`TaskPool.draw` draws rows within each shard and returns them as
pool rows, and ``pool.data.take`` gathers them.  Every client's batch has
the same P rows, where P is ``min(batch_size, largest shard of the task)``
(:meth:`TaskPool.width`).  :func:`plan_batches` turns the selections of a
run of rounds into an ``(R, E, N, P)`` tensor of pool rows: a client that
draws (more rows than the batch, so P is the batch size) fills its P rows
with its drawn rows, and a client whose shard is used whole takes its n
rows and then P - n pad rows.  A drawing client takes the indices of all
its E steps of a round from its own ``(task, round, client)`` stream, and
all the round's streams are read in one bulk call (:meth:`TaskPool.draw`,
over :func:`fdilsim.rng.stream_integers`), which gives the very batches
that E one-batch draws from each stream would.  A client that never draws
needs no stream.

:func:`local_update` runs one round: it gathers the round's rows from the
pool with one ``take`` and makes one stacked :func:`loss_and_grad` call per
step over all N clients, which skips the loss the step discards.
Per-client row counts make the kernel divide each client by its own count,
so a client's gradient is that of its own batch: logreg reads the all-zero
pad rows as they are, which adds only +-0 products to its gradient sums,
and mlp1 masks their softmax residuals to exactly 0.0.  The update, the
proximal step and the gradient statistics are elementwise over the stack.

Every client's result equals running it alone at the same P, bit for bit,
so it never depends on who else was sampled.  Against an unpadded call on
the client's own rows, logreg with two inputs was bit-equal in every case
tested (a one-row shard with more inputs can take another BLAS path), and
mlp1 can differ in the last bits, because BLAS sums a padded hidden-layer
product in another order.

Two modes:

* plain (no anchor) -- theta <- theta - gamma_L * g, the inner loop of the
  main protocol, giving delta = -gamma_L * sum of step gradients exactly.
* client prox (an anchor) -- each step is followed by the proximal map
  ``prox(x) = anchor + (x - anchor) / (1 + 2*lambda)``, the minimizer of
  0.5*||theta - x||^2 + lambda*||theta - anchor||^2, pulling the iterate
  toward the previous task's model during local training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .datagen import ClientShard
from .models import Minibatch, ModelSpec, loss_and_grad, row_dots


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
    """Closed-form minimizer of 0.5*||t - x||^2 + lam*||t - anchor||^2.

    It is ``anchor + (x - anchor) / (1 + 2 lam)``, which maps the anchor to
    itself exactly; where ``2 lam`` overflows the quotient is 0 and the map
    is the anchor.
    """
    if lam == 0.0:  # anchor + (x - anchor) need not be x bit for bit
        return x
    return anchor + (x - anchor) / (1.0 + 2.0 * lam)


@dataclass(frozen=True)
class TaskPool:
    """One task's M shards as one batch of rows, built once per task.

    ``data`` holds every shard's bias-augmented rows in client order and then
    one all-zero pad row (bias included, label 0).  Shard ``m`` is rows
    ``start[m]`` to ``start[m] + size[m] - 1``, and the pad row is row
    ``size.sum()``.
    """

    data: Minibatch
    start: np.ndarray
    size: np.ndarray

    def width(self, batch_size: int) -> int:
        """P, the rows of every client's batch: ``min(batch_size, largest shard)``."""
        return min(batch_size, int(self.size.max()))

    def draw(self, master_seed: int, keys, clients, batch_size: int, count: int) -> np.ndarray:
        """``count`` sorted uniform-with-replacement batches of each shard ``clients[j]``.

        Shard ``clients[j]`` of ``n`` rows draws its ``(count, batch_size)``
        block from the stream of ``(master_seed, keys[j])``: the values of
        one ``integers(0, n, (count, batch_size))`` call on that stream,
        which takes the stream's words in the same order as ``count``
        one-batch draws.  All streams are read in one
        :func:`fdilsim.rng.stream_integers` call.  Each batch is sorted, and
        then the shard's start is added in place.  Returns
        ``(len(keys), count, batch_size)`` pool rows.
        """
        sizes = self.size[clients][:, None, None]
        rows = rngmod.stream_integers(master_seed, keys, 0, sizes, (count, batch_size))
        rows.sort(axis=-1)
        rows += self.start[clients][:, None, None]
        return rows


def task_pool(shards: list[ClientShard]) -> TaskPool:
    """The :class:`TaskPool` of one task's shards."""
    size = np.array([len(shard.data) for shard in shards])
    rows = [shard.data.augmented for shard in shards]
    data = Minibatch.of_rows(
        np.concatenate(rows + [np.zeros_like(rows[0][:1])]),
        np.concatenate([shard.data.labels for shard in shards] + [np.zeros(1, np.int64)]),
    )
    return TaskPool(data=data, start=np.cumsum(size) - size, size=size)


def draw_batch(shard: Minibatch, batch_size: int, stream: np.random.Generator) -> Minibatch:
    """Uniform-with-replacement minibatch in canonical (sorted-index) order.

    Batches at least as large as the shard use the whole shard instead and
    draw nothing from ``stream``.
    """
    n = len(shard)
    if batch_size >= n:
        return shard
    return shard.take(np.sort(stream.integers(0, n, size=batch_size)))


def plan_batches(
    pool: TaskPool,
    selected: np.ndarray,
    batch_size: int,
    epochs: int,
    master_seed: int,
    task_index: int,
    first_round: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Pool rows of every step of rounds ``first_round``, ``first_round + 1``, ...

    ``selected`` is ``(R, N)``: each round's client ids, ascending.  Returns
    the ``(R, E, N, P)`` row index and the ``(R, N)`` row counts
    ``min(n, batch_size)``.  A client whose shard is used whole takes, at
    every step, its n rows and then P - n pad rows; a drawing client takes
    its E batches from the ``(LOCAL_TRAINING, task_index, round, client)``
    stream, all of the rounds' streams in one :meth:`TaskPool.draw` call.
    """
    r, j = np.nonzero(pool.size[selected] > batch_size)
    clients = selected[r, j]
    keys = np.empty((r.size, 4), dtype=np.int64)
    keys[:, 0] = rngmod.LOCAL_TRAINING
    keys[:, 1] = task_index
    keys[:, 2] = first_round + r
    keys[:, 3] = clients
    # Drawn before the index is built, so the draw's words and the index are
    # never held at once.
    drawn = pool.draw(master_seed, keys, clients, batch_size, epochs)
    counts = np.minimum(pool.size[selected], batch_size)
    col = np.arange(pool.width(batch_size))
    whole = np.where(col < counts[..., None], pool.start[selected][..., None] + col, len(pool.data) - 1)
    index = np.repeat(whole[:, None], epochs, axis=1)
    if r.size:  # with no drawing client P can be narrower than the batch
        index[r, :, j] = drawn
    return index, counts


def local_update(
    spec: ModelSpec,
    global_params: np.ndarray,
    pool: TaskPool,
    index: np.ndarray,
    counts: np.ndarray,
    local_lr: float,
    anchor: np.ndarray | None = None,
    prox_lambda: float = 0.0,
) -> ClientUpdate:
    """Run E local steps from ``global_params`` on every client of one round at once.

    ``index`` is the round's ``(E, N, P)`` slice of :func:`plan_batches` and
    ``counts`` its ``(N,)`` row counts.  The round's rows are gathered from
    ``pool.data`` step-major with one ``take``, so each step's
    ``(N, P, D + 1)`` stack is contiguous.  Each step is one stacked
    :func:`loss_and_grad` call over all clients, without the loss, and with
    an ``anchor`` each step is followed by the proximal map at
    ``prox_lambda``.  Row ``j`` of the result equals running client ``j``
    alone with the same P, bit for bit.

    Returns deltas ``(N, d)``, ``grad_norm_max`` and ``grad_norm_sq_mean``
    ``(N,)``, and ``steps_taken`` = N * E.  Raises :class:`DivergenceError`
    if any delta has a non-finite entry.
    """
    epochs, clients = index.shape[:2]
    steps = pool.data.take(index)

    theta = np.tile(global_params, (clients, 1))
    grad_norm_max = np.zeros(clients)
    grad_sq_sum = np.zeros(clients)
    for e in range(epochs):
        batch = Minibatch.of_rows(steps.augmented[e], steps.labels[e])
        _, grad = loss_and_grad(spec, theta, batch, counts, with_loss=False)
        norm_sq = row_dots(grad)  # each row's grad @ grad, bit for bit
        grad_norm_max = np.maximum(grad_norm_max, np.sqrt(norm_sq))
        grad_sq_sum = grad_sq_sum + norm_sq
        theta = theta - local_lr * grad
        if anchor is not None:
            theta = prox_map(theta, anchor, prox_lambda)
    delta = theta - global_params
    if not np.isfinite(delta).all():
        raise DivergenceError("local training diverged to a non-finite update")
    return ClientUpdate(
        delta=delta,
        steps_taken=clients * epochs,
        grad_norm_max=grad_norm_max,
        grad_norm_sq_mean=grad_sq_sum / epochs,
    )
