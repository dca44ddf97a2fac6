import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from fdilsim import (
    AccuracyMatrix,
    ClientShard,
    Minibatch,
    ModelSpec,
    acc,
    bwt,
    joint_objective_grad,
    loss_and_grad,
    param_count,
)
from fdilsim import metrics
from fdilsim.metrics import client_objective_grad, stack_rows
from helpers import joint_prefixes


def test_acc_examples():
    m = AccuracyMatrix(2)
    m.set(1, 1, 0.9)
    m.set(2, 1, 0.8)
    m.set(2, 2, 0.7)
    assert acc(m) == pytest.approx(0.75)

    one = AccuracyMatrix(1)
    one.set(1, 1, 0.42)
    assert acc(one) == pytest.approx(0.42)

    perfect = AccuracyMatrix(3)
    for i in range(1, 4):
        for j in range(1, i + 1):
            perfect.set(i, j, 1.0)
    assert acc(perfect) == 1.0


def test_bwt_examples():
    m = AccuracyMatrix(2)
    m.set(1, 1, 0.9)
    m.set(2, 1, 0.8)
    m.set(2, 2, 0.7)
    assert bwt(m) == pytest.approx(-0.1)

    fixed = AccuracyMatrix(3)
    for i in range(1, 4):
        fixed.set(i, i, 0.6)
    fixed.set(3, 1, 0.6)
    fixed.set(3, 2, 0.6)
    assert bwt(fixed) == 0.0

    diffs = AccuracyMatrix(3)
    diffs.set(1, 1, 0.5)
    diffs.set(2, 2, 0.8)
    diffs.set(3, 3, 0.9)
    diffs.set(3, 1, 0.6)  # +0.1
    diffs.set(3, 2, 0.5)  # -0.3
    assert bwt(diffs) == pytest.approx(-0.1)


def test_bwt_single_task_rejected():
    one = AccuracyMatrix(1)
    one.set(1, 1, 0.5)
    with pytest.raises(ValueError):
        bwt(one)


def test_missing_entries_rejected():
    m = AccuracyMatrix(2)
    m.set(2, 2, 0.7)
    with pytest.raises(ValueError):
        acc(m)
    with pytest.raises(ValueError):
        m.set(1, 2, 0.5)  # upper triangle
    with pytest.raises(ValueError):
        m.set(2, 1, 1.5)  # out of range


def test_metrics_are_recomputable_bit_for_bit():
    m = AccuracyMatrix(3)
    values = [0.123456789012345, 0.9, 0.35, 0.77, 0.52, 0.41]
    slots = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]
    for (i, j), value in zip(slots, values):
        m.set(i, j, value)
    copy = AccuracyMatrix(3)
    for i, j, value in m.entries():
        copy.set(i, j, float(format(value, ".17g")))
    assert acc(copy) == acc(m)
    assert bwt(copy) == bwt(m)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), k=st.integers(2, 5))
def test_bwt_range_bounds(data, k):
    m = AccuracyMatrix(k)
    values = st.floats(0.0, 1.0, allow_nan=False)
    for i in range(1, k + 1):
        for j in range(1, i + 1):
            m.set(i, j, data.draw(values))
    value = bwt(m)
    diag = [m.get(i, i) for i in range(1, k)]
    assert value <= sum(1.0 - d for d in diag) / (k - 1) + 1e-12
    assert value >= -sum(diag) / (k - 1) - 1e-12


SPEC = ModelSpec("logreg", 1, 2)


def shard(inputs, labels, task=1, client=0):
    return ClientShard(task, client, Minibatch(np.array(inputs), np.array(labels)))


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def joint_values(spec, params, tasks, shards_by_task):
    """``joint_objective_grad`` at a stack ``(S, d)``, checked row by row against the plain oracle.

    Entry ``[s, j]`` of each table equals ``joint_prefixes``' entry j, the
    loss and its gradient's ``g @ g``, bit for bit up to snapshot s's
    horizon ``tasks[s]``, and NaN past it.
    """
    loss, grad_sq = joint_objective_grad(spec, params, tasks, shards_by_task)
    assert loss.shape == grad_sq.shape == (len(params), len(shards_by_task))
    for p, point in enumerate(params):
        prefixes = joint_prefixes(spec, point, shards_by_task[: tasks[p]])
        assert bits(loss[p, : tasks[p]]) == bits([value for value, _ in prefixes])
        assert bits(grad_sq[p, : tasks[p]]) == bits([grad @ grad for _, grad in prefixes])
        assert np.isnan(loss[p, tasks[p] :]).all() and np.isnan(grad_sq[p, tasks[p] :]).all()
    return loss, grad_sq


def joint_grad_norm_sq(spec, params, shards_by_task):
    """Squared norm of the joint gradient at one point ``(d,)``."""
    return float(joint_values(spec, params[None], [len(shards_by_task)], shards_by_task)[1][0, -1])


def test_joint_pass_returns_one_entry_per_task():
    # Column 0 is task 1's client mean and column 1 adds task 2's.
    a = shard([[0.5], [-1.0]], [0, 1], client=0)
    b = shard([[2.0], [0.3]], [1, 0], client=1)
    params = np.array([0.3, -0.2, 0.1, 0.4])
    loss, grad_sq = joint_values(SPEC, params[None], [2], [[a, b], [b]])
    loss_a, grad_a = loss_and_grad(SPEC, params, a.data)
    loss_b, grad_b = loss_and_grad(SPEC, params, b.data)
    first = 0.0 + (grad_a + grad_b) / 2
    assert loss[0, 0] == 0.0 + (0.0 + loss_a + loss_b) / 2
    assert grad_sq[0, 0] == float(first @ first)
    assert loss[0, 1] == loss[0, 0] + loss_b
    assert grad_sq[0, 1] == float((first + grad_b) @ (first + grad_b))


def test_joint_grad_single_task_single_client_is_full_batch():
    data = shard([[0.5], [-1.0], [2.0]], [0, 1, 1])
    params = np.array([0.3, -0.2, 0.1, 0.4])
    _, grad = loss_and_grad(SPEC, params, data.data)
    assert joint_grad_norm_sq(SPEC, params, [[data]]) == float(grad @ grad)


def test_joint_grad_zero_at_stationary_point():
    # Non-separable instance: both labels at both inputs, so the optimum is
    # finite; a quasi-Newton fit drives the joint gradient to ~0.
    data = shard([[0.0], [0.0], [1.0], [1.0]], [0, 1, 0, 1])

    def objective(theta):
        return loss_and_grad(SPEC, theta, data.data)

    result = minimize(
        objective, np.zeros(param_count(SPEC)), jac=True, method="BFGS",
        options={"gtol": 1e-12, "maxiter": 500},
    )
    assert joint_grad_norm_sq(SPEC, result.x, [[data]]) <= 1e-10


def test_two_identical_tasks_quadruple_the_norm():
    data = shard([[0.5], [-1.0], [2.0]], [0, 1, 1])
    params = np.array([0.3, -0.2, 0.1, 0.4])
    single = joint_grad_norm_sq(SPEC, params, [[data]])
    double = joint_grad_norm_sq(SPEC, params, [[data], [data]])
    assert double == 4.0 * single


def test_joint_grad_averages_clients_within_task():
    a = shard([[0.5], [-1.0]], [0, 1], client=0)
    b = shard([[2.0], [0.3]], [1, 0], client=1)
    params = np.array([0.3, -0.2, 0.1, 0.4])
    _, grad_a = loss_and_grad(SPEC, params, a.data)
    _, grad_b = loss_and_grad(SPEC, params, b.data)
    mean = (grad_a + grad_b) / 2.0
    assert joint_grad_norm_sq(SPEC, params, [[a, b]]) == pytest.approx(
        float(mean @ mean), rel=1e-15
    )


@pytest.mark.parametrize("num_points", [1, 2, 5, 7])
@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec("logreg", 2, 3),
        ModelSpec("mlp1", 2, 3, hidden_dim=4, activation="tanh"),
        ModelSpec("mlp1", 2, 3, hidden_dim=4, activation="relu"),
    ],
    ids=["logreg", "mlp1-tanh", "mlp1-relu"],
)
def test_stacked_full_shard_equals_plain_calls(spec, num_points):
    # Shard sizes from one row to past the model's stack rows cover full,
    # partial and width-1 stacks; every point equals its plain call bit for bit.
    rng = np.random.default_rng(4)
    params = rng.standard_normal((num_points, param_count(spec)))
    cap = stack_rows(spec)
    for rows in (1, 3, 100, cap // 3, cap // 2 + 1, cap, cap + 1, cap + 188):
        data = ClientShard(
            1, 0, Minibatch(rng.standard_normal((rows, 2)), rng.integers(0, 3, rows))
        )
        losses, grads = client_objective_grad(spec, params, data)
        assert losses.shape == (num_points,) and grads.shape == params.shape
        for p in range(num_points):
            loss, grad = loss_and_grad(spec, params[p], data.data)
            assert losses[p] == loss
            assert np.array_equal(grads[p], grad)


def test_stack_rows_follow_the_row_width():
    # One cell budget: mlp1 at hidden 32 keeps 512 rows of its 33-wide hidden
    # layer, and the desk-scale logreg, whose rows are 9 wide, stacks 1,877.
    assert stack_rows(ModelSpec("mlp1", 2, 3, hidden_dim=32)) == 512
    assert stack_rows(ModelSpec("mlp1", 40, 10, hidden_dim=32, activation="relu")) == 512
    assert stack_rows(ModelSpec("logreg", 2, 3)) == 1877
    assert stack_rows(ModelSpec("logreg", 32, 16)) == 259


def test_stacked_joint_pass_equals_plain_passes():
    # A stack of snapshots over two tasks, then one task alone.  Shard c has
    # more than half the model's stack rows, so each of its kernel calls
    # covers one point.
    rng = np.random.default_rng(5)
    a = shard([[0.5], [-1.0]], [0, 1], client=0)
    b = shard([[2.0], [0.3], [1.1]], [1, 0, 1], client=1)
    rows = stack_rows(SPEC) // 2 + 1
    c = shard(rng.standard_normal((rows, 1)), rng.integers(0, 2, rows), client=2)
    params = rng.standard_normal((3, 4))
    joint_values(SPEC, params, [2, 2, 2], [[a, b], [b, c]])
    loss, grad_sq = joint_values(SPEC, params, [1, 1, 1], [[a, c]])
    assert loss.shape == grad_sq.shape == (3, 1)


def test_mixed_horizons_equal_the_whole_pass(monkeypatch):
    # Unsorted horizons: each snapshot's columns up to its own horizon keep
    # the bits of a pass that takes every snapshot over all tasks, and each
    # task's shards evaluate only the snapshots that reach it.  Shard c
    # takes one point per kernel call.
    rng = np.random.default_rng(6)
    a = shard([[0.5], [-1.0]], [0, 1], client=0)
    b = shard([[2.0], [0.3], [1.1]], [1, 0, 1], client=1)
    rows = stack_rows(SPEC) // 2 + 1
    c = shard(rng.standard_normal((rows, 1)), rng.integers(0, 2, rows), client=2)
    tasks = [[a, b], [b, c], [c, a]]
    params = rng.standard_normal((5, 4))
    whole = joint_values(SPEC, params, [3] * 5, tasks)
    evaluated = []
    real = metrics.client_objective_grad

    def recording(spec, points, data):
        evaluated.append(len(points))
        return real(spec, points, data)

    monkeypatch.setattr(metrics, "client_objective_grad", recording)
    horizons = [3, 1, 2, 3, 1]
    mixed = joint_values(SPEC, params, horizons, tasks)
    for table, full in zip(mixed, whole):
        for column in range(3):
            reached = [s for s, horizon in enumerate(horizons) if horizon > column]
            assert bits(table[reached, column]) == bits(full[reached, column])
    assert evaluated == [5, 5, 3, 3, 2, 2]
