import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdilsim import (
    Minibatch,
    ModelSpec,
    PartitionSpec,
    ProbeConfig,
    accuracy,
    estimate_constants,
    generate_sequence,
    loss_and_grad,
    param_count,
    partition_sequence,
    run_sequence,
)
from fdilsim.models import check_data, check_params, row_dots
from helpers import central_difference_grad, loss_and_grad_reference, stack_batch
from test_datagen import make_shift
from test_server import make_hp

LOGREG = ModelSpec("logreg", 2, 3)
MLP = ModelSpec("mlp1", 2, 3, hidden_dim=4)
# Class counts on both sides of the kernel's column-wise reductions (below 8
# classes) and input widths other than 2, each with logreg and mlp1.
SHAPE_SPECS = [
    ModelSpec("logreg", 1, 2),
    ModelSpec("logreg", 5, 7),
    ModelSpec("logreg", 5, 10),
    ModelSpec("mlp1", 5, 2, hidden_dim=6),
    ModelSpec("mlp1", 1, 7, hidden_dim=5, activation="relu"),
    ModelSpec("mlp1", 1, 10, hidden_dim=3),
]


def random_batch(rng, spec, size=8):
    return Minibatch(
        rng.standard_normal((size, spec.input_dim)),
        rng.integers(0, spec.num_classes, size=size),
    )


def test_param_count_examples():
    assert param_count(LOGREG) == 9
    assert param_count(MLP) == 27
    assert param_count(ModelSpec("logreg", 1, 2)) == 4


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("resnet", 2, 3)
    with pytest.raises(ValueError):
        ModelSpec("logreg", 2, 1)
    with pytest.raises(ValueError):
        ModelSpec("mlp1", 2, 3)
    with pytest.raises(ValueError):
        ModelSpec("logreg", 2, 3, hidden_dim=4)
    with pytest.raises(ValueError):
        ModelSpec("mlp1", 2, 3, hidden_dim=4, activation="gelu")


def test_zero_params_two_classes_gives_ln2():
    spec = ModelSpec("logreg", 3, 2)
    batch = Minibatch(np.array([[1.0, -2.0, 0.5], [0.0, 1.0, 3.0]]), np.array([0, 1]))
    loss, grad = loss_and_grad(spec, np.zeros(param_count(spec)), batch)
    assert loss == pytest.approx(np.log(2.0), abs=1e-15)
    assert grad.shape == (param_count(spec),)


def test_duplicated_sample_matches_single():
    rng = np.random.default_rng(7)
    params = rng.standard_normal(param_count(LOGREG))
    single = Minibatch(np.array([[0.3, -1.2]]), np.array([2]))
    double = Minibatch(np.array([[0.3, -1.2], [0.3, -1.2]]), np.array([2, 2]))
    loss_one, grad_one = loss_and_grad(LOGREG, params, single)
    loss_two, grad_two = loss_and_grad(LOGREG, params, double)
    assert loss_one == loss_two
    assert np.array_equal(grad_one, grad_two)


@pytest.mark.parametrize("spec", [LOGREG, MLP, ModelSpec("mlp1", 3, 2, hidden_dim=5, activation="relu")])
def test_gradients_match_central_differences(spec):
    rng = np.random.default_rng(11)
    for _ in range(10):
        params = rng.standard_normal(param_count(spec))
        batch = random_batch(rng, spec)
        _, grad = loss_and_grad(spec, params, batch)
        numeric = central_difference_grad(spec, params, batch)
        rel = np.abs(grad - numeric) / np.maximum(1.0, np.abs(grad))
        assert rel.max() <= 1e-5


def test_dimension_mismatch_rejected():
    # Parameter length and input width are checked once, where a run or the
    # estimator starts, not inside the kernel.
    batch = Minibatch(np.zeros((2, 2)), np.array([0, 1]))
    with pytest.raises(ValueError, match="params length"):
        check_params(LOGREG, np.zeros(8))
    with pytest.raises(ValueError, match="input dimension"):
        check_data(LOGREG, Minibatch(np.zeros((1, 3)), np.array([0])))
    check_params(LOGREG, np.zeros(9))
    check_data(LOGREG, batch)

    sequence = generate_sequence(make_shift(), seed=1)
    shards = partition_sequence(sequence, PartitionSpec(num_clients=2, dirichlet_alpha=1.0), seed=1)
    wide = ModelSpec("logreg", 3, 3)
    with pytest.raises(ValueError, match="input dimension"):
        run_sequence(wide, sequence, shards, make_hp(num_clients=2, participants_per_round=2))
    with pytest.raises(ValueError, match="input dimension"):
        estimate_constants(wide, sequence, shards, ProbeConfig(num_random_probes=2), seed=1)
    with pytest.raises(ValueError, match="params length"):
        estimate_constants(
            LOGREG, sequence, shards, ProbeConfig(num_random_probes=2), seed=1,
            checkpoints=(np.zeros(8),),
        )


def test_nonfinite_inputs_rejected():
    params = np.zeros(param_count(LOGREG))
    params[0] = np.nan
    with pytest.raises(ValueError, match="non-finite parameter"):
        check_params(LOGREG, params)
    with pytest.raises(ValueError, match="non-finite batch inputs"):
        Minibatch(np.array([[np.inf, 0.0]]), np.array([0]))
    with pytest.raises(ValueError, match="non-finite batch inputs"):
        Minibatch(np.array([[0.0, np.nan]]), np.array([0]))


def test_label_out_of_range_rejected():
    with pytest.raises(ValueError, match="label out of range"):
        check_data(LOGREG, Minibatch(np.zeros((1, 2)), np.array([3])))
    sequence = generate_sequence(make_shift(), seed=1)
    shards = partition_sequence(sequence, PartitionSpec(num_clients=2, dirichlet_alpha=1.0), seed=1)
    two_class = ModelSpec("logreg", 2, 2)
    with pytest.raises(ValueError, match="label out of range"):
        run_sequence(two_class, sequence, shards, make_hp(num_clients=2, participants_per_round=2))
    with pytest.raises(ValueError, match="label out of range"):
        estimate_constants(two_class, sequence, shards, ProbeConfig(num_random_probes=2), seed=1)


def test_take_returns_rows_without_revalidating():
    rng = np.random.default_rng(2)
    batch = random_batch(rng, LOGREG, size=6)
    subset = batch.take(np.array([1, 1, 4]))
    assert np.array_equal(subset.inputs, batch.inputs[[1, 1, 4]])
    assert np.array_equal(subset.labels, batch.labels[[1, 1, 4]])
    # The kernel reads the bias-augmented rows: contiguous, with inputs a view of them.
    for rows, n in ((batch, 6), (subset, 3)):
        assert rows.augmented.shape == (n, 3) and rows.augmented.flags.c_contiguous
        assert rows.augmented.dtype == np.float64 and np.array_equal(rows.augmented[:, -1], np.ones(n))
        assert np.shares_memory(rows.inputs, rows.augmented)
    assert subset.labels.dtype == np.int64


def test_permutation_roundtrip_is_bit_identical():
    rng = np.random.default_rng(3)
    params = rng.standard_normal(param_count(MLP))
    batch = random_batch(rng, MLP, size=16)
    perm = rng.permutation(16)
    inverse = np.argsort(perm)
    restored = batch.take(perm).take(inverse)
    loss_a, grad_a = loss_and_grad(MLP, params, batch)
    loss_b, grad_b = loss_and_grad(MLP, params, restored)
    assert loss_a == loss_b
    assert np.array_equal(grad_a, grad_b)


def test_determinism():
    rng = np.random.default_rng(5)
    params = rng.standard_normal(param_count(LOGREG))
    batch = random_batch(rng, LOGREG)
    first = loss_and_grad(LOGREG, params, batch)
    second = loss_and_grad(LOGREG, params, batch)
    assert first[0] == second[0]
    assert np.array_equal(first[1], second[1])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 10.0))
def test_loss_is_nonnegative(seed, scale):
    rng = np.random.default_rng(seed)
    params = scale * rng.standard_normal(param_count(LOGREG))
    batch = random_batch(rng, LOGREG, size=4)
    loss, _ = loss_and_grad(LOGREG, params, batch)
    assert loss >= 0.0


def test_accuracy_separable_data_is_perfect():
    spec = ModelSpec("logreg", 1, 2)
    # logits [5x, -5x]: positive x predicts class 0.
    params = np.array([5.0, -5.0, 0.0, 0.0])
    data = Minibatch(np.array([[1.0], [2.0], [-1.0], [-3.0]]), np.array([0, 0, 1, 1]))
    assert accuracy(spec, params, data) == 1.0


def test_accuracy_zero_params_ties_break_to_class_zero():
    spec = ModelSpec("logreg", 1, 2)
    data = Minibatch(np.array([[1.0], [2.0], [-1.0], [-3.0]]), np.array([0, 0, 1, 1]))
    assert accuracy(spec, np.zeros(4), data) == 0.5


def test_accuracy_hand_built_two_thirds():
    # logits = [x, -x]: x=1,y=0 -> [1,-1] correct; x=-1,y=1 -> [-1,1] correct;
    # x=2,y=1 -> [2,-2] predicts 0, wrong.
    spec = ModelSpec("logreg", 1, 2)
    params = np.array([1.0, -1.0, 0.0, 0.0])
    data = Minibatch(np.array([[1.0], [-1.0], [2.0]]), np.array([0, 1, 1]))
    assert accuracy(spec, params, data) == pytest.approx(2.0 / 3.0)


def test_empty_batch_rejected():
    with pytest.raises(ValueError):
        Minibatch(np.zeros((0, 2)), np.zeros(0, dtype=int))


@pytest.mark.parametrize(
    "spec", [LOGREG, MLP, ModelSpec("mlp1", 3, 4, hidden_dim=7, activation="relu")] + SHAPE_SPECS
)
def test_stacked_calls_equal_plain_calls_bit_for_bit(spec):
    rng = np.random.default_rng(13)
    d = param_count(spec)
    for n in range(1, 41):
        # Probe axis: one batch, a contiguous copy per parameter vector.
        thetas = rng.standard_normal((5, d))
        batch = random_batch(rng, spec, size=n)
        stacked = stack_batch(
            np.repeat(batch.inputs[None], 5, axis=0), np.repeat(batch.labels[None], 5, axis=0)
        )
        losses, grads = loss_and_grad(spec, thetas, stacked)
        assert losses.shape == (5,) and grads.shape == (5, d)
        for theta, loss, grad in zip(thetas, losses, grads):
            plain_loss, plain_grad = loss_and_grad(spec, theta, batch)
            assert isinstance(plain_loss, float) and plain_grad.shape == (d,)
            assert loss == plain_loss and np.array_equal(grad, plain_grad)

        # Batch axis: one parameter vector shared by a stack of batches.
        inputs = rng.standard_normal((2, 3, n, spec.input_dim))
        labels = rng.integers(0, spec.num_classes, size=(2, 3, n))
        losses, grads = loss_and_grad(spec, thetas[0], stack_batch(inputs, labels))
        assert losses.shape == (2, 3) and grads.shape == (2, 3, d)
        for idx in np.ndindex(2, 3):
            plain_loss, plain_grad = loss_and_grad(spec, thetas[0], Minibatch(inputs[idx], labels[idx]))
            assert losses[idx] == plain_loss and np.array_equal(grads[idx], plain_grad)


PADDED_SPECS = [LOGREG, MLP, ModelSpec("mlp1", 3, 4, hidden_dim=7, activation="relu")] + SHAPE_SPECS


def padded_stack(rng, spec, sizes, rows):
    """Random batches of ``sizes`` rows, each padded with zero rows to ``rows``."""
    inputs = np.zeros((len(sizes), rows, spec.input_dim))
    labels = np.zeros((len(sizes), rows), dtype=np.int64)
    for s, n in enumerate(sizes):
        inputs[s, :n] = rng.standard_normal((n, spec.input_dim))
        labels[s, :n] = rng.integers(0, spec.num_classes, size=n)
    return inputs, labels


@pytest.mark.parametrize("spec", PADDED_SPECS)
def test_padded_stacked_slices_equal_padded_plain_calls_bit_for_bit(spec):
    rng = np.random.default_rng(19)
    d = param_count(spec)
    for rows in (1, 2, 7, 8, 9, 33):
        sizes = rng.integers(1, rows + 1, size=6)
        inputs, labels = padded_stack(rng, spec, sizes, rows)
        thetas = rng.standard_normal((6, d))
        losses, grads = loss_and_grad(spec, thetas, stack_batch(inputs, labels), sizes)
        assert losses.shape == (6,) and grads.shape == (6, d)
        for s in range(6):
            plain = stack_batch(inputs[s], labels[s])
            loss, grad = loss_and_grad(spec, thetas[s], plain, np.array(sizes[s]))
            assert isinstance(loss, float)
            assert losses[s] == loss and np.array_equal(grads[s], grad)


@pytest.mark.parametrize("spec", PADDED_SPECS)
def test_full_counts_equal_calls_without_counts(spec):
    rng = np.random.default_rng(23)
    d = param_count(spec)
    for n in (1, 2, 8, 9, 40):
        inputs, labels = padded_stack(rng, spec, [n] * 4, n)
        thetas = rng.standard_normal((4, d))
        batch = stack_batch(inputs, labels)
        counted, plain = loss_and_grad(spec, thetas, batch, np.full(4, n)), loss_and_grad(spec, thetas, batch)
        assert np.array_equal(counted[0], plain[0]) and np.array_equal(counted[1], plain[1])
        one = stack_batch(inputs[0], labels[0])
        counted, plain = loss_and_grad(spec, thetas[0], one, np.array(n)), loss_and_grad(spec, thetas[0], one)
        assert counted[0] == plain[0] and np.array_equal(counted[1], plain[1])


@pytest.mark.parametrize("spec", PADDED_SPECS)
def test_padding_rows_count_for_nothing(spec):
    # Any finite values in the rows past a slice's count leave its loss and
    # gradient bit for bit; both are those of the slice's own rows.
    rng = np.random.default_rng(29)
    d = param_count(spec)
    sizes = np.array([1, 3, 8, 12, 20])
    inputs, labels = padded_stack(rng, spec, sizes, 20)
    thetas = rng.standard_normal((5, d))
    losses, grads = loss_and_grad(spec, thetas, stack_batch(inputs, labels), sizes)
    pad = np.arange(20) >= sizes[:, None]
    inputs[pad] = 100.0 * rng.standard_normal((int(pad.sum()), spec.input_dim))
    labels[pad] = rng.integers(0, spec.num_classes, size=int(pad.sum()))
    noisy = loss_and_grad(spec, thetas, stack_batch(inputs, labels), sizes)
    assert np.array_equal(noisy[0], losses) and np.array_equal(noisy[1], grads)
    for s, n in enumerate(sizes):
        own = stack_batch(inputs[s, :n], labels[s, :n])
        loss, grad = loss_and_grad(spec, thetas[s], own)
        # The mean over the counted rows; summing the zeroed pad terms can
        # change the order of the additions.
        assert losses[s] == pytest.approx(loss, rel=1e-14, abs=0.0)
        assert np.max(np.abs(grads[s] - grad)) <= 1e-14 * np.max(np.abs(grad))


def test_row_dots_equal_np_dot_and_norm_bit_for_bit():
    rng = np.random.default_rng(17)
    for d in list(range(1, 40)) + [63, 64, 65, 127, 128, 129, 195, 256, 511, 1000, 1200]:
        # Rows of very different magnitudes, so a changed summation order shows.
        u = rng.standard_normal((6, 4, d)) * 10.0 ** rng.integers(-3, 4, size=(6, 4, 1))
        v = rng.standard_normal((6, 4, d))
        for a, b in ((u, v), (u[::2, ::3], v[1::2, ::3])):  # contiguous, then strided outer views
            dots, squares = row_dots(a, b), row_dots(a)
            assert dots.shape == squares.shape == a.shape[:-1]
            for idx in np.ndindex(a.shape[:-1]):
                assert dots[idx] == np.dot(a[idx], b[idx])
                assert np.sqrt(squares[idx]) == np.linalg.norm(a[idx])
        one, many = v[0, 0], u.reshape(-1, d)
        broadcast = row_dots(one, many)
        assert broadcast.shape == (len(many),)
        assert all(broadcast[j] == np.dot(one, many[j]) for j in range(len(many)))


def kernel_cases(rng, spec):
    """(params, batch, counts) cases: plain, stacked and padded, ordinary, tied and near-overflow scores."""
    d = param_count(spec)
    cases = []
    for n in (1, 2, 7, 8, 9, 33):
        batch = random_batch(rng, spec, size=n)
        cases.append((rng.standard_normal(d), batch, None))
        # Zero parameters tie every class score.
        cases.append((np.zeros(d), batch, None))
        # The largest score at 708, next to exp's overflow at about 709.78:
        # scaling the last layer scales every score.
        params = rng.standard_normal(d)
        last = slice(0 if spec.kind == "logreg" else (spec.input_dim + 1) * spec.hidden_dim, None)
        params[last] *= 708.0 / np.abs(scores(spec, params, batch.inputs)).max()
        cases.append((params, batch, None))
        inputs, labels = padded_stack(rng, spec, rng.integers(1, n + 1, size=4), n)
        thetas = rng.standard_normal((4, d))
        if spec.kind == "logreg":
            # Equal weight columns tie the class scores of every row.
            column = rng.standard_normal((2, spec.input_dim + 1, 1))
            thetas[:2] = np.repeat(column, spec.num_classes, axis=2).reshape(2, d)
        stacked = stack_batch(inputs, labels)
        cases.append((thetas, stacked, None))
        cases.append((thetas, stacked, rng.integers(1, n + 1, size=4)))
        cases.append((thetas[0], stack_batch(inputs[0], labels[0]), np.array(n)))
    return cases


@pytest.mark.parametrize("spec", PADDED_SPECS)
def test_kernel_equals_reference_kernel_bit_for_bit(spec):
    # The reference augments per call and reduces over the class axis; the
    # kernel reads pre-augmented rows and, below 8 classes, reduces column
    # by column.  Their bits must agree everywhere.
    for seed in range(12):
        rng = np.random.default_rng(1000 + seed)
        for params, batch, counts in kernel_cases(rng, spec):
            loss, grad = loss_and_grad(spec, params, batch, counts)
            ref_loss, ref_grad = loss_and_grad_reference(spec, params, batch, counts)
            assert type(loss) is type(ref_loss)
            assert np.isfinite(ref_loss).all() and np.isfinite(ref_grad).all()
            assert np.array_equal(loss, ref_loss) and np.array_equal(grad, ref_grad)
            if params.ndim == 1 and batch.augmented.ndim == 2:
                # accuracy shares the kernel's forward pass on the stored rows.
                expected = np.mean(np.argmax(scores(spec, params, batch.inputs), axis=1) == batch.labels)
                assert accuracy(spec, params, batch) == float(expected)


def scores(spec, params, inputs):
    """Class scores of plain ``(n, D)`` inputs, with the ones columns built here."""
    def augment(x):
        return np.concatenate([x, np.ones((len(x), 1))], axis=1)

    if spec.kind == "logreg":
        return augment(inputs) @ params.reshape(spec.input_dim + 1, spec.num_classes)
    n1 = (spec.input_dim + 1) * spec.hidden_dim
    z1 = augment(inputs) @ params[:n1].reshape(spec.input_dim + 1, spec.hidden_dim)
    h = np.tanh(z1) if spec.activation == "tanh" else np.maximum(z1, 0.0)
    return augment(h) @ params[n1:].reshape(spec.hidden_dim + 1, spec.num_classes)


def zero_pad_rows(batch, counts):
    """``batch`` with the rows past each slice's count set to all zeros, the bias column included.

    A padded logreg call without the loss needs such pad rows, the pad row of
    a task pool.
    """
    rows = batch.augmented.copy()
    rows[np.arange(rows.shape[-2]) >= np.asarray(counts)[..., None]] = 0.0
    return Minibatch.of_rows(rows, batch.labels)


@pytest.mark.parametrize("spec", PADDED_SPECS)
def test_call_without_loss_returns_the_same_gradient_bits(spec):
    # Padded cases take all-zero pad rows, as the lossless padded call needs.
    rng = np.random.default_rng(31)
    for params, batch, counts in kernel_cases(rng, spec):
        if counts is not None:
            batch = zero_pad_rows(batch, counts)
        _, grad = loss_and_grad(spec, params, batch, counts)
        loss, lossless = loss_and_grad(spec, params, batch, counts, with_loss=False)
        assert loss is None and np.array_equal(lossless, grad)



@pytest.mark.parametrize("spec", [LOGREG] + [s for s in SHAPE_SPECS if s.kind == "logreg"])
def test_padded_logreg_step_with_zero_pad_rows_equals_masked_kernel(spec):
    # A local step reads all-zero pad rows without masking their residuals.
    # Its gradient must equal, bit for bit, the masked kernel on pad rows
    # [0 ... 0, 1] and the reference kernel, for C = 2, 3, 7 and 10 and
    # D = 1, 2 and 5, over ordinary, zero, tied and near-overflow parameters.
    rng = np.random.default_rng(37)
    d = param_count(spec)
    for rows in (1, 2, 7, 8, 9, 32):
        for trial in range(6):
            counts = rng.integers(1, rows + 1, size=32 if trial % 2 else 5)
            inputs, labels = padded_stack(rng, spec, counts, rows)
            thetas = rng.standard_normal((len(counts), d))
            if trial == 2:
                thetas[:] = 0.0
            elif trial == 3:
                column = rng.standard_normal((len(counts), spec.input_dim + 1, 1))
                thetas = np.repeat(column, spec.num_classes, axis=2).reshape(len(counts), d)
            elif trial == 4:
                thetas *= 708.0 / np.abs(stack_batch(inputs, labels).augmented @ thetas.reshape(
                    len(counts), spec.input_dim + 1, spec.num_classes)).max()
            masked = stack_batch(inputs, labels)  # pad rows [0 ... 0, 1]
            zero = zero_pad_rows(masked, counts)
            assert not zero.augmented[np.arange(rows) >= counts[:, None]].any()
            loss, grad = loss_and_grad(spec, thetas, zero, counts, with_loss=False)
            _, masked_grad = loss_and_grad(spec, thetas, masked, counts)
            _, ref_grad = loss_and_grad_reference(spec, thetas, masked, counts)
            assert loss is None
            assert np.array_equal(grad, masked_grad) and np.array_equal(grad, ref_grad)
            assert not (np.signbit(grad) ^ np.signbit(masked_grad)).any()
