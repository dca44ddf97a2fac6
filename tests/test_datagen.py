import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdilsim import (
    DomainShiftSpec,
    Minibatch,
    PartitionSpec,
    TaskData,
    TaskSequence,
    generate_sequence,
    partition_task,
)
from fdilsim.config import parse_config
from fdilsim.datagen import (
    DataOverflowError,
    export_sequence,
    load_sequence,
    partition_sequence,
    task_class_means,
)
from helpers import export_sequence_reference, load_sequence_reference

TRIANGLE = ((0.0, 2.0), (-1.7320508075688772, -1.0), (1.7320508075688772, -1.0))


def make_shift(
    num_tasks=2,
    rotation=0.0,
    drift=0.0,
    train=240,
    test=120,
    means=TRIANGLE,
    cov=0.5,
):
    return DomainShiftSpec(
        num_tasks=num_tasks,
        base_class_means=means,
        class_cov_scale=cov,
        rotation_angle=rotation,
        mean_drift=drift,
        train_samples_per_task=train,
        test_samples_per_task=test,
    )


def test_zero_shift_tasks_share_distribution_parameters():
    shift = make_shift(rotation=0.0, drift=0.0)
    sequence = generate_sequence(shift, seed=1)
    assert np.array_equal(sequence.task(1).class_means, sequence.task(2).class_means)


def test_single_task_sequence():
    sequence = generate_sequence(make_shift(num_tasks=1), seed=1)
    assert sequence.num_tasks == 1


def test_quarter_rotation_moves_mean():
    shift = make_shift(rotation=np.pi / 2, means=((1.0, 0.0), (0.0, -1.0)))
    means_task2 = task_class_means(shift, 2)
    assert np.allclose(means_task2[0], [0.0, 1.0])


def test_first_task_is_unshifted():
    shift = make_shift(rotation=0.3, drift=0.7)
    assert np.array_equal(task_class_means(shift, 1), np.asarray(TRIANGLE))


def test_drift_moves_along_unit_diagonal():
    shift = make_shift(rotation=0.0, drift=1.0, means=((1.0, 0.0), (0.0, 1.0)))
    means_task3 = task_class_means(shift, 3)
    step = 2.0 / np.sqrt(2.0)
    assert np.allclose(means_task3[0], [1.0 + step, step])


def test_labels_balanced_and_pools_disjoint():
    sequence = generate_sequence(make_shift(train=241), seed=4)
    task = sequence.task(1)
    counts = np.bincount(task.train.labels, minlength=3)
    assert counts.max() - counts.min() <= 1
    assert counts.sum() == 241
    train_rows = {row.tobytes() for row in task.train.inputs}
    test_rows = {row.tobytes() for row in task.test.inputs}
    assert not train_rows & test_rows


def test_generation_is_deterministic():
    shift = make_shift(rotation=0.2, drift=0.1)
    a = generate_sequence(shift, seed=9)
    b = generate_sequence(shift, seed=9)
    for task_a, task_b in zip(a.tasks, b.tasks):
        assert np.array_equal(task_a.train.inputs, task_b.train.inputs)
        assert np.array_equal(task_a.test.labels, task_b.test.labels)
    c = generate_sequence(shift, seed=10)
    assert not np.array_equal(a.task(1).train.inputs, c.task(1).train.inputs)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        make_shift(num_tasks=0)
    with pytest.raises(ValueError):
        make_shift(rotation=-0.1)
    with pytest.raises(ValueError):
        make_shift(cov=0.0)
    with pytest.raises(ValueError):
        make_shift(train=2)  # below num_classes
    with pytest.raises(ValueError):
        PartitionSpec(num_clients=0, dirichlet_alpha=1.0)
    with pytest.raises(ValueError):
        PartitionSpec(num_clients=2, dirichlet_alpha=0.0)


def test_partition_conserves_and_separates():
    sequence = generate_sequence(make_shift(train=240), seed=2)
    part = PartitionSpec(num_clients=5, dirichlet_alpha=0.4, min_samples_per_client=3)
    shards = partition_task(sequence.task(1), part, seed=2)
    assert len(shards) == 5
    total = sum(len(s.data) for s in shards)
    assert total == 240
    seen = set()
    for shard in shards:
        assert len(shard.data) >= 3
        for row in shard.data.inputs:
            key = row.tobytes()
            assert key not in seen
            seen.add(key)
    pool_rows = {row.tobytes() for row in sequence.task(1).train.inputs}
    assert seen == pool_rows


def test_single_client_gets_whole_pool():
    sequence = generate_sequence(make_shift(), seed=3)
    part = PartitionSpec(num_clients=1, dirichlet_alpha=0.5)
    (shard,) = partition_task(sequence.task(1), part, seed=3)
    assert len(shard.data) == 240


def test_infeasible_floor_names_required_size():
    sequence = generate_sequence(make_shift(train=24), seed=3)
    part = PartitionSpec(num_clients=8, dirichlet_alpha=1.0, min_samples_per_client=4)
    with pytest.raises(ValueError, match="32"):
        partition_task(sequence.task(1), part, seed=3)


def test_exact_floor_pool_gives_floor_sized_shards():
    # Pool size == clients * floor forces every shard to exactly the floor,
    # regardless of how skewed the proportion draws are.
    sequence = generate_sequence(make_shift(train=24), seed=11)
    part = PartitionSpec(num_clients=8, dirichlet_alpha=0.05, min_samples_per_client=3)
    shards = partition_task(sequence.task(1), part, seed=11)
    assert [len(s.data) for s in shards] == [3] * 8


def test_high_alpha_is_nearly_uniform():
    # Monte-Carlo oracle: Dir(1e6) concentrates at the uniform simplex point,
    # so largest-remainder shard sizes stay within +-2 of 100.  At 1e308 the
    # draws' sum overflows.
    shift = make_shift(
        train=400,
        means=((2.0, 0.0), (0.0, 2.0), (-2.0, 0.0), (0.0, -2.0)),
    )
    for alpha in (1e6, 1e308):
        part = PartitionSpec(num_clients=4, dirichlet_alpha=alpha, min_samples_per_client=1)
        for seed in range(100):
            sequence = generate_sequence(shift, seed=seed)
            shards = partition_task(sequence.task(1), part, seed=seed)
            for shard in shards:
                assert abs(len(shard.data) - 100) <= 2


def test_low_alpha_is_heavily_skewed():
    # Monte-Carlo oracle over Dirichlet draws: with alpha=0.1 the average
    # per-client dominant-label share exceeds one half.  At 1e-30 and 1e-300
    # every gamma draw of a class underflows to 0, and Dir(alpha) is then a
    # random vertex: the class goes to one client, not evenly to all.
    shift = make_shift(train=480, test=120)
    sequences = [generate_sequence(shift, seed=seed) for seed in range(100)]
    for alpha in (0.1, 1e-30, 1e-300):
        part = PartitionSpec(num_clients=8, dirichlet_alpha=alpha, min_samples_per_client=1)
        shares = []
        for seed, sequence in enumerate(sequences):
            shards = partition_task(sequence.task(1), part, seed=seed)
            for shard in shards:
                counts = np.bincount(shard.data.labels, minlength=3)
                shares.append(counts.max() / counts.sum())
        assert float(np.mean(shares)) >= 0.5, alpha


def test_partition_determinism_and_task_resampling():
    sequence = generate_sequence(make_shift(), seed=6)
    part = PartitionSpec(num_clients=4, dirichlet_alpha=0.5)
    a = partition_sequence(sequence, part, seed=6)
    b = partition_sequence(sequence, part, seed=6)
    for task_a, task_b in zip(a, b):
        for shard_a, shard_b in zip(task_a, task_b):
            assert np.array_equal(shard_a.data.inputs, shard_b.data.inputs)
    sizes_t1 = [len(s.data) for s in a[0]]
    sizes_t2 = [len(s.data) for s in a[1]]
    assert sizes_t1 != sizes_t2  # proportions resampled per task by default


def test_fixed_proportions_mode_reuses_draws():
    shift = make_shift(rotation=0.0, drift=0.0)
    sequence = generate_sequence(shift, seed=6)
    part = PartitionSpec(
        num_clients=4, dirichlet_alpha=0.5, resample_per_task=False
    )
    shards = partition_sequence(sequence, part, seed=6)
    sizes_t1 = [len(s.data) for s in shards[0]]
    sizes_t2 = [len(s.data) for s in shards[1]]
    # Identical class counts and identical proportion draws give equal sizes.
    assert sizes_t1 == sizes_t2


def test_export_roundtrip(tmp_path):
    sequence = generate_sequence(make_shift(train=60, test=30), seed=8)
    part = PartitionSpec(num_clients=3, dirichlet_alpha=0.7)
    shards = partition_sequence(sequence, part, seed=8)
    path = tmp_path / "dataset.txt"
    export_sequence(sequence, path, shards)
    loaded_seq, loaded_shards = load_sequence(path)
    assert loaded_seq.num_tasks == sequence.num_tasks
    for task_a, task_b in zip(sequence.tasks, loaded_seq.tasks):
        assert np.array_equal(task_a.train.inputs, task_b.train.inputs)
        assert np.array_equal(task_a.test.labels, task_b.test.labels)
        assert np.array_equal(task_a.class_means, task_b.class_means)
    for task_a, task_b in zip(shards, loaded_shards):
        for shard_a, shard_b in zip(task_a, task_b):
            assert shard_a.client_index == shard_b.client_index
            assert np.array_equal(shard_a.data.inputs, shard_b.data.inputs)
            assert np.array_equal(shard_a.data.labels, shard_b.data.labels)
            assert np.array_equal(shard_a.pool_indices, shard_b.pool_indices)


def test_partition_records_pool_indices():
    sequence = generate_sequence(make_shift(train=60, test=30), seed=8)
    shards = partition_task(sequence.task(1), PartitionSpec(num_clients=3, dirichlet_alpha=0.7), seed=8)
    pool = sequence.task(1).train
    for shard in shards:
        assert np.array_equal(shard.pool_indices, np.sort(shard.pool_indices))
        assert np.array_equal(shard.data.inputs, pool.inputs[shard.pool_indices])
        assert np.array_equal(shard.data.labels, pool.labels[shard.pool_indices])


def test_export_roundtrip_keeps_labels_of_duplicate_inputs(tmp_path):
    # Two pool rows share their inputs but not their labels; the reloaded
    # shard must keep each row's own label.
    inputs = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    labels = np.array([0, 1, 2, 1, 2])
    task = TaskData(
        task_index=1,
        class_means=np.zeros((3, 2)),
        cov_scale=0.5,
        train=Minibatch(inputs, labels),
        test=Minibatch(inputs[:3], labels[:3]),
    )
    sequence = TaskSequence([task])
    shards = [partition_task(task, PartitionSpec(num_clients=1, dirichlet_alpha=1.0), seed=0)]
    assert shards[0][0].data.labels.tolist() == [0, 1, 2, 1, 2]
    path = tmp_path / "dataset.txt"
    export_sequence(sequence, path, shards)
    _, loaded = load_sequence(path)
    assert loaded[0][0].data.labels.tolist() == [0, 1, 2, 1, 2]


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(cov=1e308), "data.class_cov_scale: 1e+308 overflows the generated inputs"),
        (dict(num_tasks=3, drift=1e308), "data.mean_drift: 1e+308 overflows the class means of task 3"),
        (
            dict(rotation=np.pi / 4, means=((1.7e308, 1.7e308), (0.0, 1.0), (1.0, 0.0))),
            "data.base_means overflows the class means of task 2",
        ),
    ],
)
def test_finite_settings_that_overflow_the_data_name_their_key(overrides, message):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DataOverflowError) as info:
            generate_sequence(make_shift(**overrides), seed=1)
    assert str(info.value) == message


# Finite doubles a dataset file must carry exactly: signed zero, the smallest
# subnormal, other subnormals, the normal boundary and the largest magnitudes.
EDGE_DOUBLES = (
    -0.0,
    5e-324,
    -5e-324,
    1e-310,
    -2.2250738585072009e-308,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
)
doubles = st.one_of(st.sampled_from(EDGE_DOUBLES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def dataset_sequences(draw):
    """Hand-built sequences of edge-case doubles, with or without shards.

    Labels are drawn freely, so task 1's train labels need not reach every
    one of the C classes that the header counts from its mean lines.
    """
    num_tasks = draw(st.integers(1, 3))
    num_classes = draw(st.integers(2, 4))
    dim = draw(st.integers(1, 3))

    def pool(rows: int) -> Minibatch:
        inputs = draw(st.lists(st.lists(doubles, min_size=dim, max_size=dim), min_size=rows, max_size=rows))
        labels = draw(st.lists(st.integers(0, num_classes - 1), min_size=rows, max_size=rows))
        return Minibatch(np.array(inputs, dtype=np.float64).reshape(rows, dim), np.array(labels))

    tasks = []
    for i in range(1, num_tasks + 1):
        means = draw(st.lists(doubles, min_size=num_classes * dim, max_size=num_classes * dim))
        tasks.append(
            TaskData(
                task_index=i,
                class_means=np.array(means).reshape(num_classes, dim),
                cov_scale=draw(doubles),
                train=pool(draw(st.integers(num_classes, 9))),
                test=pool(draw(st.integers(num_classes, 5))),
            )
        )
    sequence = TaskSequence(tasks)
    clients = draw(st.sampled_from((0, 1, 2)))
    if not clients:
        return sequence, None
    part = PartitionSpec(num_clients=clients, dirichlet_alpha=draw(st.sampled_from((0.1, 1.0))))
    return sequence, partition_sequence(sequence, part, seed=draw(st.integers(0, 50)))


def bits(values: np.ndarray) -> list[int]:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64).ravel().tolist()


def assert_bit_equal_sequences(got, want):
    """Loaded sequences and shards agree bit for bit: inputs and means by their uint64 views."""
    (seq_a, shards_a), (seq_b, shards_b) = got, want
    assert seq_a.num_tasks == seq_b.num_tasks
    for a, b in zip(seq_a.tasks, seq_b.tasks):
        assert a.task_index == b.task_index
        assert bits(np.array(a.cov_scale)) == bits(np.array(b.cov_scale))
        assert bits(a.class_means) == bits(b.class_means)
        for pool_a, pool_b in ((a.train, b.train), (a.test, b.test)):
            assert bits(pool_a.inputs) == bits(pool_b.inputs)
            assert pool_a.labels.tolist() == pool_b.labels.tolist()
    assert (shards_a is None) == (shards_b is None)
    for task_a, task_b in zip(shards_a or (), shards_b or ()):
        assert len(task_a) == len(task_b)
        for shard_a, shard_b in zip(task_a, task_b):
            assert (shard_a.task_index, shard_a.client_index) == (shard_b.task_index, shard_b.client_index)
            assert shard_a.pool_indices.tolist() == shard_b.pool_indices.tolist()
            assert bits(shard_a.data.inputs) == bits(shard_b.data.inputs)
            assert shard_a.data.labels.tolist() == shard_b.data.labels.tolist()


def assert_matches_the_oracles(sequence, shards, directory: Path):
    ours, theirs = directory / "ours.txt", directory / "theirs.txt"
    export_sequence(sequence, ours, shards)
    export_sequence_reference(sequence, theirs, shards)
    assert ours.read_bytes() == theirs.read_bytes()
    loaded = load_sequence(ours)
    assert_bit_equal_sequences(loaded, load_sequence_reference(ours))
    assert_bit_equal_sequences(loaded, (sequence, shards))


@settings(max_examples=60, deadline=None)
@given(values=dataset_sequences())
def test_dataset_file_round_trip_matches_the_oracles_bit_for_bit(values):
    sequence, shards = values
    with tempfile.TemporaryDirectory() as tmp:
        assert_matches_the_oracles(sequence, shards, Path(tmp))


@pytest.mark.parametrize("profile", ["profiles/default.ini", "profiles/wide.ini"])
@pytest.mark.parametrize("seed", [1, 25])
@pytest.mark.parametrize("with_shards", [False, True])
def test_profile_datasets_match_the_oracles_bit_for_bit(tmp_path, profile, seed, with_shards):
    config = parse_config(Path(__file__).resolve().parent.parent / profile)
    sequence = generate_sequence(config.shift, seed)
    shards = partition_sequence(sequence, config.partition, seed) if with_shards else None
    assert_matches_the_oracles(sequence, shards, tmp_path)
    # Every class has train rows in task 1, so the header's class count, now
    # the mean rows', is the one the largest label gave: these bytes are unchanged.
    first = sequence.tasks[0]
    assert int(first.train.labels.max()) + 1 == len(first.class_means)


def test_export_header_counts_classes_by_mean_rows(tmp_path):
    # Task 1's train labels reach only classes 0 and 1 of 3; the header
    # wrote "classes 2" above 3 mean lines.
    pool = Minibatch(np.array([[0.0], [1.0], [2.0]]), np.array([0, 1, 1]))
    task = TaskData(
        task_index=1, class_means=np.array([[0.0], [1.0], [2.0]]), cov_scale=0.5, train=pool, test=pool
    )
    path = tmp_path / "dataset.txt"
    export_sequence(TaskSequence([task]), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[1] == "tasks 1 clients 0 classes 3 input_dim 1"
    assert sum(line.startswith("mean ") for line in lines) == 3
    loaded, _ = load_sequence(path)
    assert_bit_equal_sequences((loaded, None), (TaskSequence([task]), None))


@settings(max_examples=200, deadline=None)
@given(
    value=doubles,
    digits=st.integers(1, 17),
    decimal=st.from_regex(r"-?[0-9]{1,20}(\.[0-9]{1,40})?(e-?[0-9]{1,3})?", fullmatch=True),
)
def test_numpy_string_conversion_gives_the_bits_of_float(value, digits, decimal):
    texts = [f"{value:.17g}", f"{value:.{digits}g}", repr(value), decimal]
    assert bits(np.array(texts).astype(np.float64)) == bits(np.array([float(t) for t in texts]))
