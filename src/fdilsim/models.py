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
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class Minibatch:
    """A batch of inputs and integer class labels.

    The constructor validates data that enters the program; the kernels
    below trust it and do not check again.
    """

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.inputs = np.ascontiguousarray(self.inputs, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2:
            raise ValueError("inputs must be a 2-D (batch x input_dim) array")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.inputs.shape[0]:
            raise ValueError("labels must be 1-D and match the batch size")
        if self.inputs.shape[0] < 1:
            raise ValueError("batch must contain at least one sample")
        if self.labels.min() < 0:
            raise ValueError("labels must be non-negative")
        if not np.isfinite(self.inputs).all():
            raise ValueError("non-finite batch inputs")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def take(self, indices: np.ndarray) -> "Minibatch":
        """Rows ``indices`` of this already-validated batch, not checked again."""
        return Minibatch.stack(self.inputs[indices], self.labels[indices])

    @staticmethod
    def stack(inputs: np.ndarray, labels: np.ndarray) -> "Minibatch":
        """Wrap rows of already-validated data without checking them again.

        ``inputs`` may carry leading stack dimensions, ``(..., n, D)`` with
        labels ``(..., n)``, for a stacked :func:`loss_and_grad` call.
        """
        batch = object.__new__(Minibatch)
        batch.inputs = inputs
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


def _forward(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray):
    """Class scores for each row of ``inputs``, with what the gradient reuses.

    Returns ``(xa, hidden, z)``: the bias-augmented inputs, ``None`` for
    logreg or ``(z1, h, ha, w2)`` for mlp1, and the scores ``z``.
    """
    xa = _augment(inputs)
    lead = params.shape[:-1]
    if spec.kind == "logreg":
        return xa, None, xa @ params.reshape(lead + (spec.input_dim + 1, spec.num_classes))
    n1 = (spec.input_dim + 1) * spec.hidden_dim
    w1 = params[..., :n1].reshape(lead + (spec.input_dim + 1, spec.hidden_dim))
    w2 = params[..., n1:].reshape(lead + (spec.hidden_dim + 1, spec.num_classes))
    z1 = xa @ w1
    h = np.tanh(z1) if spec.activation == "tanh" else np.maximum(z1, 0.0)
    ha = _augment(h)
    return xa, (z1, h, ha, w2), ha @ w2


def loss_and_grad(
    spec: ModelSpec, params: np.ndarray, batch: Minibatch, counts: np.ndarray | None = None
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy over the batch and its exact gradient.

    The plain call takes params ``(d,)``, inputs ``(n, D)`` and labels
    ``(n,)`` and returns ``(float, (d,) gradient)``.  The same body also
    takes leading stack dimensions: inputs ``(..., n, D)`` with labels
    ``(..., n)``, and params either ``(..., d)`` with the same stack
    dimensions or ``(d,)`` shared by the whole stack.  It then returns losses
    ``(...)`` and gradients ``(..., d)``.  Each slice of a stacked call
    equals the plain call on that slice bit for bit, provided the stacked
    inputs are a contiguous array (a stride-0 broadcast view of a one-row
    batch can take a different BLAS path).

    ``counts``, an integer array of the stack shape, lets the slices of a
    stacked call share one row count: slice ``s`` counts its first
    ``counts[s]`` rows, and the rows after them are padding.  Their softmax
    residuals are set to exactly 0.0, so they add nothing to the gradient;
    each slice is divided by its own count, and its loss is the mean over its
    counted rows only.  A call without ``counts`` counts every row.

    Rows are accumulated in the order they appear in the batch; callers that
    need order-independence must present samples in a canonical order.
    Nothing is validated here: callers pass data and parameters that
    :func:`check_data` and :func:`check_params` accepted at their boundary.
    """
    xa, hidden, z = _forward(spec, params, batch.inputs)
    n = xa.shape[-2] if counts is None else counts

    # Label terms by flat fancy indexing on a (rows, classes) view, at any
    # stack depth; take_along_axis would slow the plain call by about a third.
    rows = np.arange(z.size // spec.num_classes)
    labels = batch.labels.reshape(-1)
    zs = z - z.max(axis=-1, keepdims=True)
    # One exp and one class sum serve both the log-normaliser and the softmax.
    p = np.exp(zs)
    norm = p.sum(axis=-1, keepdims=True)
    log_norm = np.log(norm[..., 0])
    picked = zs.reshape(-1, spec.num_classes)[rows, labels].reshape(log_norm.shape)
    row_loss = log_norm - picked
    if counts is not None:
        pad = np.arange(xa.shape[-2]) >= counts[..., None]
        row_loss[pad] = 0.0
    loss = row_loss.sum(axis=-1) / n  # np.mean's sum and division, without its overhead
    p /= norm
    p.reshape(-1, spec.num_classes)[rows, labels] -= 1.0
    if counts is not None:
        p[pad] = 0.0
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
    return (float(loss) if loss.ndim == 0 else loss), grad


def accuracy(spec: ModelSpec, params: np.ndarray, dataset: Minibatch) -> float:
    """Fraction of samples whose argmax logit matches the label.

    Argmax ties break toward the lowest class index.
    """
    predictions = np.argmax(_forward(spec, params, dataset.inputs)[2], axis=1)
    return float(np.mean(predictions == dataset.labels))
