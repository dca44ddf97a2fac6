"""Small predictors over flat parameter vectors.

Two model kinds are supported, both classifying into a fixed label space:

* ``logreg`` -- multinomial logistic regression.  Parameters are a single
  weight matrix of shape ``(input_dim + 1, num_classes)`` (bias folded in via
  an augmented input column), flattened in C order.
* ``mlp1`` -- one hidden layer with tanh or relu activation.  Parameters are
  ``W1`` of shape ``(input_dim + 1, hidden_dim)`` followed by ``W2`` of shape
  ``(hidden_dim + 1, num_classes)``, each flattened in C order and
  concatenated.

The loss is the mean softmax cross-entropy over the minibatch, computed with
max-subtraction / log-sum-exp for numerical stability, and the gradient is
written out exactly (no autodiff).  The gradient kernel and :func:`accuracy`
share one forward pass.  All functions are pure and deterministic.

:class:`Minibatch` stores its rows with the bias column already appended,
so the kernel multiplies them as they are; every stack that callers gather
from such rows carries the column too.  Below 8 classes the kernel's class
reductions run column by column, which gives numpy's axis reductions bit
for bit at a fraction of their per-row cost (see :func:`loss_and_grad`), and
callers that discard the loss ask for the gradient alone.  The pad rows of a
local step are all zeros, so its lossless logreg gradient needs no mask on
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

VALID_KINDS = ("logreg", "mlp1")
VALID_ACTIVATIONS = ("tanh", "relu")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; parameter count is a function of the fields."""

    kind: str
    input_dim: int
    num_classes: int
    hidden_dim: int | None = None
    activation: str = "tanh"

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.kind == "mlp1":
            if self.hidden_dim is None or self.hidden_dim < 1:
                raise ValueError("mlp1 requires hidden_dim >= 1")
            if self.activation not in VALID_ACTIVATIONS:
                raise ValueError(f"unknown activation {self.activation!r}")
        elif self.hidden_dim is not None:
            raise ValueError("hidden_dim is only valid for mlp1")


class Minibatch:
    """A batch of inputs and integer class labels, stored bias-augmented.

    ``augmented`` holds each row's inputs followed by a 1.0, the bias column
    the kernel multiplies into its first weight matrix, and ``inputs`` is the
    view of its first D columns.  The ones column is built once, when data
    enters (:func:`fdilsim.datagen.generate_sequence`,
    :func:`fdilsim.datagen.load_sequence`), and rows gathered from a batch
    carry it along, so no kernel call builds it.

    The constructor validates data that enters the program; the kernels
    below trust it and do not check again.
    """

    __slots__ = ("augmented", "labels")

    def __init__(self, inputs: np.ndarray, labels: np.ndarray):
        inputs = np.asarray(inputs, dtype=np.float64)
        labels = np.ascontiguousarray(labels, dtype=np.int64)
        if inputs.ndim != 2:
            raise ValueError("inputs must be a 2-D (batch x input_dim) array")
        if labels.ndim != 1 or labels.shape[0] != inputs.shape[0]:
            raise ValueError("labels must be 1-D and match the batch size")
        if inputs.shape[0] < 1:
            raise ValueError("batch must contain at least one sample")
        if labels.min() < 0:
            raise ValueError("labels must be non-negative")
        if not np.isfinite(inputs).all():
            raise ValueError("non-finite batch inputs")
        self.augmented = _augment(inputs)
        self.labels = labels

    @property
    def inputs(self) -> np.ndarray:
        """The rows without their ones column, ``(..., n, D)``: a view of ``augmented``."""
        return self.augmented[..., :-1]

    def __len__(self) -> int:
        return self.augmented.shape[0]

    def take(self, indices: np.ndarray) -> "Minibatch":
        """Rows ``indices`` of this already-validated batch, not checked again."""
        return Minibatch.of_rows(self.augmented.take(indices, axis=0), self.labels.take(indices))

    @staticmethod
    def of_rows(augmented: np.ndarray, labels: np.ndarray) -> "Minibatch":
        """Wrap bias-augmented rows of already-validated data without checking them.

        ``augmented`` is ``(..., n, D + 1)`` with labels ``(..., n)``; leading
        stack dimensions make a stacked :func:`loss_and_grad` call.  Stacked
        rows must be one contiguous array for its slices to equal plain calls.
        """
        batch = object.__new__(Minibatch)
        batch.augmented = augmented
        batch.labels = labels
        return batch


def param_count(spec: ModelSpec) -> int:
    """Length d of the flat parameter vector for ``spec``."""
    if spec.kind == "logreg":
        return (spec.input_dim + 1) * spec.num_classes
    return (spec.input_dim + 1) * spec.hidden_dim + (spec.hidden_dim + 1) * spec.num_classes


def init_params(spec: ModelSpec, rng: np.random.Generator, scale: float = 0.01) -> np.ndarray:
    """Small deterministic initialization drawn from ``rng``."""
    return scale * rng.standard_normal(param_count(spec))


def check_params(spec: ModelSpec, params: np.ndarray) -> None:
    """Reject a parameter vector of the wrong length or with non-finite values."""
    if params.shape != (param_count(spec),):
        raise ValueError(
            f"params length {params.shape} does not match model size {param_count(spec)}"
        )
    if not np.isfinite(params).all():
        raise ValueError("non-finite parameter values")


def check_data(spec: ModelSpec, data: Minibatch) -> None:
    """Reject data whose input width or labels do not fit ``spec``."""
    if data.inputs.shape[1] != spec.input_dim:
        raise ValueError("batch input dimension does not match the model")
    if data.labels.max() >= spec.num_classes:
        raise ValueError("label out of range for num_classes")


def row_dots(u: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
    """Dot product of each row pair of ``u`` and ``v`` (default ``u``) over the last axis.

    A stacked ``(1, d) @ (d, 1)`` matmul calls the BLAS dot once per pair,
    so each entry equals ``np.dot`` of its rows bit for bit, and the square
    root of ``row_dots(u)`` equals ``np.linalg.norm`` of each row.  Leading
    axes broadcast, so one row can meet many.
    """
    v = u if v is None else v
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _augment(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)


def _forward(spec: ModelSpec, params: np.ndarray, xa: np.ndarray):
    """Class scores for each bias-augmented row of ``xa``, with what the gradient reuses.

    Returns ``(hidden, z)``: ``None`` for logreg or ``(z1, h, ha, w2)`` for
    mlp1, and the scores ``z``.
    """
    lead = params.shape[:-1]
    if spec.kind == "logreg":
        return None, xa @ params.reshape(lead + (spec.input_dim + 1, spec.num_classes))
    n1 = (spec.input_dim + 1) * spec.hidden_dim
    w1 = params[..., :n1].reshape(lead + (spec.input_dim + 1, spec.hidden_dim))
    w2 = params[..., n1:].reshape(lead + (spec.hidden_dim + 1, spec.num_classes))
    z1 = xa @ w1
    h = np.tanh(z1) if spec.activation == "tanh" else np.maximum(z1, 0.0)
    ha = _augment(h)
    return (z1, h, ha, w2), ha @ w2


# Below this many classes numpy's class-axis sum adds left to right, so a sum
# column by column gives its bits; from 8 on it sums pairwise.
COLUMN_CLASSES = 8


def loss_and_grad(
    spec: ModelSpec,
    params: np.ndarray,
    batch: Minibatch,
    counts: np.ndarray | None = None,
    with_loss: bool = True,
) -> tuple[float | np.ndarray | None, np.ndarray]:
    """Mean cross-entropy over the batch and its exact gradient.

    The plain call takes params ``(d,)``, inputs ``(n, D)`` and labels
    ``(n,)`` and returns ``(float, (d,) gradient)``.  The same body also
    takes leading stack dimensions: inputs ``(..., n, D)`` with labels
    ``(..., n)``, and params either ``(..., d)`` with the same stack
    dimensions or ``(d,)`` shared by the whole stack.  It then returns losses
    ``(...)`` and gradients ``(..., d)``.  Each slice of a stacked call
    equals the plain call on that slice bit for bit, provided the stacked
    rows are a contiguous array (a stride-0 broadcast view of a one-row
    batch can take a different BLAS path).  The kernel reads the batch's
    bias-augmented rows as they are; it builds no ones column for them.

    ``counts``, an integer array of the stack shape, lets the slices of a
    stacked call share one row count: slice ``s`` counts its first
    ``counts[s]`` rows, and the rows after them are padding.  Their softmax
    residuals are set to exactly 0.0, so they add nothing to the gradient;
    each slice is divided by its own count, and its loss is the mean over its
    counted rows only.  A call without ``counts`` counts every row.
    ``with_loss=False`` skips the loss terms (the log-normaliser, the picked
    score and the row sum) and returns ``None`` for the loss; the gradient's
    bits do not depend on it.

    A logreg call with ``counts`` and ``with_loss=False`` leaves the
    residuals unmasked, and its pad rows must be all zeros, the bias column
    included (the pad row of :class:`fdilsim.client.TaskPool`).  The
    gradient is ``xa^T @ p``, so a zero row adds only +-0 products to sums
    that BLAS starts at +0; a sum that starts at +0 never becomes -0, so the
    products change no bit, and the gradient equals the masked one.  mlp1
    always masks: its hidden layer's bias column is 1 on every row.

    With fewer than ``COLUMN_CLASSES`` classes the row max is an
    ``np.maximum`` over the class columns and the exp-sum adds the columns
    left to right.  Both equal numpy's class-axis reductions bit for bit: a
    max is exact in any order, and below 8 elements numpy's sum adds left to
    right.  From 8 classes on numpy sums pairwise, so the kernel keeps the
    axis reductions there.  The choice follows ``spec.num_classes`` alone.

    Rows are accumulated in the order they appear in the batch; callers that
    need order-independence must present samples in a canonical order.
    Nothing is validated here: callers pass data and parameters that
    :func:`check_data` and :func:`check_params` accepted at their boundary.
    """
    xa = batch.augmented
    hidden, z = _forward(spec, params, xa)
    n = xa.shape[-2] if counts is None else counts
    num_classes = spec.num_classes
    columns = num_classes < COLUMN_CLASSES
    if columns:
        zs = z - reduce(np.maximum, [z[..., c] for c in range(num_classes)])[..., None]
    else:
        zs = z - z.max(axis=-1, keepdims=True)
    # One exp and one class sum serve both the log-normaliser and the softmax.
    p = np.exp(zs)
    norm = reduce(np.add, [p[..., c] for c in range(num_classes)]) if columns else p.sum(axis=-1)
    # Each row's label entry in the flat (rows x classes) scores.
    flat = np.arange(0, z.size, num_classes) + batch.labels.reshape(-1)
    # Zero pad rows need no residual mask in a logreg gradient (see above).
    mask = counts is not None and (with_loss or spec.kind != "logreg")
    if mask:
        pad = np.arange(xa.shape[-2]) >= counts[..., None]
    loss = None
    if with_loss:
        row_loss = np.log(norm) - zs.take(flat).reshape(norm.shape)
        if counts is not None:
            row_loss[pad] = 0.0
        loss = row_loss.sum(axis=-1) / n  # np.mean's sum and division, without its overhead
        loss = float(loss) if loss.ndim == 0 else loss
    p /= norm[..., None]
    p.reshape(-1)[flat] -= 1.0
    if mask:
        p[pad] = 0.0
    if counts is not None:
        n = counts[..., None, None]

    lead = z.shape[:-2]
    if spec.kind == "logreg":
        grad = (xa.swapaxes(-1, -2) @ p) / n
        grad = grad.reshape(lead + (-1,))
    else:
        z1, h, ha, w2 = hidden
        p /= n
        grad_w2 = ha.swapaxes(-1, -2) @ p
        dh = p @ w2[..., :-1, :].swapaxes(-1, -2)
        dz1 = dh * (1.0 - h * h) if spec.activation == "tanh" else dh * (z1 > 0.0)
        grad_w1 = xa.swapaxes(-1, -2) @ dz1
        grad = np.concatenate(
            [grad_w1.reshape(lead + (-1,)), grad_w2.reshape(lead + (-1,))], axis=-1
        )
    return loss, grad


def accuracy(spec: ModelSpec, params: np.ndarray, dataset: Minibatch) -> float:
    """Fraction of samples whose argmax logit matches the label.

    Argmax ties break toward the lowest class index.
    """
    predictions = np.argmax(_forward(spec, params, dataset.augmented)[1], axis=1)
    return float(np.mean(predictions == dataset.labels))
