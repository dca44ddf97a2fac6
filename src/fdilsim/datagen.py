"""Synthetic domain-incremental task sequences and non-IID client partitions.

A sequence holds K tasks over a fixed label space.  Task inputs are drawn
from class-conditional isotropic Gaussians; the domain shift between
consecutive tasks is a deterministic transform of the class means: a rotation
applied cumulatively in consecutive 2-D coordinate planes plus a translation
along a fixed unit direction.  Task i (1-based) uses ``i - 1`` applications
of the transform, so the first task always sees the base means and a zero
rotation/drift spec yields identical distributions for every task.

A pool is drawn as one array: its labels are the classes in order, each
repeated for its balanced count, and its noise is one standard-normal draw
of the whole pool from the pool's own stream.

Each task's train pool is split across clients class by class with
proportions drawn from Dirichlet(alpha) (realized as normalized Gamma draws),
rounded by largest remainder, then repaired so every client meets a minimum
shard size.  Test pools are global: one per task, shared by all clients.

A sequence, with or without its shards, is written to and read from the
plain-text dataset file documented in the README (:func:`export_sequence`,
:func:`load_sequence`), one block of lines per pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from . import rng as rngmod
from .models import Minibatch


class DataOverflowError(ValueError):
    """A finite generator setting whose generated data overflows; the message names its key."""


@dataclass(frozen=True)
class DomainShiftSpec:
    """Parameters of the synthetic task generator."""

    num_tasks: int
    base_class_means: tuple[tuple[float, ...], ...]
    class_cov_scale: float
    rotation_angle: float
    mean_drift: float
    train_samples_per_task: int
    test_samples_per_task: int

    def __post_init__(self):
        if self.num_tasks < 1:
            raise ValueError("num_tasks must be >= 1")
        if len(self.base_class_means) < 2:
            raise ValueError("need at least two class means")
        dims = {len(row) for row in self.base_class_means}
        if len(dims) != 1:
            raise ValueError("class mean rows must share a dimension")
        if self.class_cov_scale <= 0:
            raise ValueError("class_cov_scale must be positive")
        if not 0.0 <= self.rotation_angle <= np.pi:
            raise ValueError("rotation_angle must lie in [0, pi]")
        if self.mean_drift < 0:
            raise ValueError("mean_drift must be >= 0")
        if min(self.train_samples_per_task, self.test_samples_per_task) < self.num_classes:
            raise ValueError("sample counts must be >= num_classes")

    @property
    def num_classes(self) -> int:
        return len(self.base_class_means)

    @property
    def input_dim(self) -> int:
        return len(self.base_class_means[0])


@dataclass(frozen=True)
class PartitionSpec:
    """Client split parameters for one task's train pool."""

    num_clients: int
    dirichlet_alpha: float
    min_samples_per_client: int = 1
    resample_per_task: bool = True

    def __post_init__(self):
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if self.dirichlet_alpha <= 0:
            raise ValueError("dirichlet_alpha must be positive")
        if self.min_samples_per_client < 1:
            raise ValueError("min_samples_per_client must be >= 1")


@dataclass
class TaskData:
    """One task: its effective class means plus train/test pools."""

    task_index: int
    class_means: np.ndarray
    cov_scale: float
    train: Minibatch
    test: Minibatch


@dataclass
class TaskSequence:
    tasks: list[TaskData]

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    def task(self, i: int) -> TaskData:
        """1-based task access, matching protocol numbering."""
        return self.tasks[i - 1]


@dataclass
class ClientShard:
    """The slice of one task's train pool owned by one client.

    ``pool_indices`` are the sorted rows of the train pool that make up
    ``data``; shards built by hand rather than cut from a pool have none.
    """

    task_index: int
    client_index: int
    data: Minibatch
    pool_indices: np.ndarray | None = None


def _rotation_matrix(dim: int, angle: float) -> np.ndarray:
    """Block-diagonal rotation: the 2x2 rotation on planes (0,1), (2,3), ...

    A trailing odd coordinate is left unchanged.
    """
    rot = np.eye(dim)
    c, s = np.cos(angle), np.sin(angle)
    for k in range(0, dim - 1, 2):
        rot[k, k] = c
        rot[k, k + 1] = -s
        rot[k + 1, k] = s
        rot[k + 1, k + 1] = c
    return rot


def task_class_means(shift: DomainShiftSpec, task_index: int) -> np.ndarray:
    """Effective class means for 1-based ``task_index``.

    Raises :class:`DataOverflowError`, naming ``data.base_means`` or
    ``data.mean_drift``, if a mean overflows.
    """
    base = np.asarray(shift.base_class_means, dtype=np.float64)
    shifts = task_index - 1
    rot = _rotation_matrix(shift.input_dim, shifts * shift.rotation_angle)
    direction = np.ones(shift.input_dim) / np.sqrt(shift.input_dim)
    rotated = base @ rot.T
    means = rotated + shifts * shift.mean_drift * direction
    if not np.isfinite(means).all():
        key = "base_means" if not np.isfinite(rotated).all() else f"mean_drift: {shift.mean_drift!r}"
        raise DataOverflowError(f"data.{key} overflows the class means of task {task_index}")
    return means


def _sample_pool(
    means: np.ndarray, cov_scale: float, total: int, stream: np.random.Generator
) -> Minibatch:
    """``total`` class-balanced samples around ``means``, class by class.

    Class c takes ``total // C`` rows, one more for the first ``total % C``
    classes.  All rows' noise comes from one draw, which reads the stream
    exactly as one draw per class in class order would.  Raises
    :class:`DataOverflowError`, naming ``data.class_cov_scale``, if a sample
    overflows.
    """
    num_classes, dim = means.shape
    counts = np.full(num_classes, total // num_classes)
    counts[: total % num_classes] += 1
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), counts)
    inputs = means[labels] + cov_scale * stream.standard_normal((total, dim))
    if not np.isfinite(inputs).all():
        raise DataOverflowError(f"data.class_cov_scale: {cov_scale!r} overflows the generated inputs")
    return Minibatch(inputs, labels)


def generate_sequence(shift: DomainShiftSpec, seed: int) -> TaskSequence:
    """Deterministically generate the K tasks of a sequence."""
    tasks = []
    for i in range(1, shift.num_tasks + 1):
        means = task_class_means(shift, i)
        train_stream = rngmod.derive_stream(seed, (rngmod.TASK_DATA, i, 0))
        test_stream = rngmod.derive_stream(seed, (rngmod.TASK_DATA, i, 1))
        tasks.append(
            TaskData(
                task_index=i,
                class_means=means,
                cov_scale=shift.class_cov_scale,
                train=_sample_pool(means, shift.class_cov_scale, shift.train_samples_per_task, train_stream),
                test=_sample_pool(means, shift.class_cov_scale, shift.test_samples_per_task, test_stream),
            )
        )
    return TaskSequence(tasks)


def _largest_remainder(quotas: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to ``total`` with |count - quota| < 1."""
    counts = np.floor(quotas).astype(np.int64)
    remainder = total - int(counts.sum())
    if remainder > 0:
        # Ties broken toward the lower client index via stable sort.
        order = np.argsort(-(quotas - counts), kind="stable")
        counts[order[:remainder]] += 1
    while remainder < 0:  # float round-off pushed the floors past the total
        counts[int(np.argmax(counts))] -= 1
        remainder += 1
    return counts


def partition_task(task: TaskData, part: PartitionSpec, seed: int) -> list[ClientShard]:
    """Split ``task``'s train pool into one shard per client.

    Per class, client proportions are Dirichlet(alpha) draws; samples are
    assigned by largest-remainder rounding of the proportions.  Clients left
    below the floor then receive samples one at a time from the currently
    largest shard, smallest deficient client first.
    """
    m = part.num_clients
    pool = task.train
    floor = part.min_samples_per_client
    if len(pool) < m * floor:
        raise ValueError(
            f"train pool of task {task.task_index} has {len(pool)} samples; "
            f"need at least {m * floor} for {m} clients with floor {floor}"
        )

    partition_label = task.task_index if part.resample_per_task else 0
    stream = rngmod.derive_stream(seed, (rngmod.PARTITION, partition_label))

    assigned: list[list[int]] = [[] for _ in range(m)]
    for c in np.unique(pool.labels):
        class_idx = np.nonzero(pool.labels == c)[0]
        stream_order = stream.permutation(len(class_idx))
        class_idx = class_idx[stream_order]
        raw = stream.gamma(part.dirichlet_alpha, size=m)
        # Draws whose sum overflows come from an alpha so large that they are
        # equal to within float resolution: Dir(alpha) tends to uniform.  Draws
        # that all underflow come from an alpha so small that Dir(alpha) tends
        # to a uniformly random vertex: the class goes to one client.
        with np.errstate(over="ignore"):
            total_raw = raw.sum()
        if total_raw == 0:
            proportions = np.eye(m)[stream.integers(m)]
        else:
            proportions = raw / total_raw if total_raw < np.inf else np.full(m, 1.0 / m)
        counts = _largest_remainder(proportions * len(class_idx), len(class_idx))
        pos = 0
        for client, n in enumerate(counts):
            assigned[client].extend(class_idx[pos : pos + int(n)].tolist())
            pos += int(n)

    # Floor repair: move single samples from the currently largest shard.
    sizes = np.array([len(a) for a in assigned])
    for client in range(m):
        while sizes[client] < floor:
            donor = int(np.argmax(sizes))
            assigned[client].append(assigned[donor].pop())
            sizes[donor] -= 1
            sizes[client] += 1

    shards = []
    for client in range(m):
        idx = np.sort(np.array(assigned[client], dtype=np.int64))
        shards.append(ClientShard(task.task_index, client, pool.take(idx), idx))
    return shards


def partition_sequence(
    sequence: TaskSequence, part: PartitionSpec, seed: int
) -> list[list[ClientShard]]:
    """Shards for every task; index [i-1][m] is task i's shard for client m."""
    return [partition_task(task, part, seed) for task in sequence.tasks]


# ---------------------------------------------------------------------------
# Dataset export (documented in README): a plain-text format with a header
# describing the sequence shape, then per task its class means and one line
# per sample, then the shard index lists.

FORMAT_MAGIC = "fdilsim-dataset 1"


def _row(values) -> str:
    """Floats as one line of 17-significant-digit fields, which read back to the same doubles."""
    return " ".join(f"{v:.17g}" for v in values)


def export_sequence(sequence: TaskSequence, path, shards: list[list[ClientShard]] | None = None) -> None:
    """Write a sequence (and optionally its shard index lists) as text."""
    first = sequence.tasks[0]
    num_clients = len(shards[0]) if shards else 0
    lines = [FORMAT_MAGIC]
    lines.append(
        f"tasks {sequence.num_tasks} clients {num_clients} "
        f"classes {len(first.class_means)} input_dim {first.train.inputs.shape[1]}"
    )
    for task in sequence.tasks:
        lines.append(f"task {task.task_index} train {len(task.train)} test {len(task.test)} cov {task.cov_scale:.17g}")
        lines += ("mean " + _row(row) for row in task.class_means)
        for pool in (task.train, task.test):
            lines += (f"{_row(x)} {y}" for x, y in zip(pool.inputs, pool.labels))
    for task_shards in shards or ():
        for shard in task_shards:
            if shard.pool_indices is None:
                raise ValueError("only shards cut from a task pool can be exported")
            indices = " ".join(map(str, shard.pool_indices))
            lines.append(f"shard {shard.task_index} {shard.client_index} {indices}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _fields(lines, count: int, width: int) -> np.ndarray:
    """The next ``count`` of ``lines`` as a ``(count, width)`` array of their fields.

    Raises ``ValueError`` if a line has another number of fields or the
    lines run out.
    """
    return np.array([line.split() for line in islice(lines, count)]).reshape(count, width)


def _pool(fields: np.ndarray) -> Minibatch:
    """Sample lines' fields, D numbers and then the label, as a validated batch."""
    return Minibatch(fields[:, :-1].astype(np.float64), fields[:, -1].astype(np.int64))


def load_sequence(path) -> tuple[TaskSequence, list[list[ClientShard]] | None]:
    """Inverse of :func:`export_sequence`.

    A task's mean lines, and each of its pools' sample lines, are converted
    to doubles and labels with one numpy conversion per block, which gives
    the bits that ``float()`` gives each field.
    """
    with open(path, encoding="utf-8") as fh:
        lines = iter(fh.read().splitlines())
    if next(lines, None) != FORMAT_MAGIC:
        raise ValueError(f"not a fdilsim dataset file: {path}")
    num_tasks, num_clients, _, input_dim = (int(v) for v in next(lines, "").split()[1::2])
    tasks = []
    for _ in range(num_tasks):
        _, task_index, _, n_train, _, n_test, _, cov = next(lines, "").split()
        means, line = [], next(lines, "")
        while line.startswith("mean "):
            means.append(line.split()[1:])
            line = next(lines, "")
        rows = chain([line], lines)  # the line after the means is the first sample line
        train, test = (_pool(_fields(rows, int(n), input_dim + 1)) for n in (n_train, n_test))
        tasks.append(
            TaskData(
                task_index=int(task_index),
                class_means=np.array(means).astype(np.float64),
                cov_scale=float(cov),
                train=train,
                test=test,
            )
        )
    sequence = TaskSequence(tasks)
    if num_clients == 0:
        return sequence, None
    shards: list[list[ClientShard]] = [[] for _ in range(num_tasks)]
    for line in lines:
        values = np.array(line.split()[1:], dtype=np.int64)
        task_index, client, idx = int(values[0]), int(values[1]), values[2:]
        shards[task_index - 1].append(
            ClientShard(task_index, client, sequence.task(task_index).train.take(idx), idx)
        )
    return sequence, shards
