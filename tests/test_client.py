from pathlib import Path

import numpy as np
import pytest

from fdilsim import (
    ClientShard,
    DivergenceError,
    HyperParams,
    Minibatch,
    ModelSpec,
    derive_stream,
    generate_sequence,
    loss_and_grad,
    param_count,
    parse_config_text,
    partition_sequence,
    prox_map,
    run_experiment,
)
from fdilsim import client as client_module
from fdilsim.client import TaskPool, plan_batches, task_pool
from fdilsim.runio import compare_runlogs, emit_runlog
from helpers import (
    LocalConfig,
    draw_indices,
    gradient_descent_minimize,
    local_update_grouped,
    local_update_loop,
    lockstep_update,
)

SPEC = ModelSpec("logreg", 2, 3)


def make_shard(seed=0, size=30, client=0):
    rng = np.random.default_rng(seed)
    data = Minibatch(rng.standard_normal((size, 2)), rng.integers(0, 3, size=size))
    return ClientShard(task_index=1, client_index=client, data=data)


def update_one(params, shard, cfg, seed, spec=SPEC):
    """The lockstep update of one client, without padding; it draws from ``(seed, (4, 1, 0, 0))``."""
    return lockstep_update(spec, params, [shard], cfg, seed)


def test_single_full_batch_step_equals_scaled_gradient():
    shard = make_shard()
    params = np.zeros(param_count(SPEC))
    cfg = LocalConfig(epochs=1, local_lr=0.3, batch_size=len(shard.data))
    update = update_one(params, shard, cfg, 0)
    _, grad = loss_and_grad(SPEC, params, shard.data)
    assert update.delta.shape == (1, param_count(SPEC))
    assert np.array_equal(update.delta[0], -0.3 * grad)
    assert update.steps_taken == 1


def test_delta_equals_negative_lr_times_summed_gradients():
    shard = make_shard(seed=1)
    rng = np.random.default_rng(2)
    params = rng.standard_normal(param_count(SPEC))
    cfg = LocalConfig(epochs=7, local_lr=0.05, batch_size=8)

    # Replay the same stream to accumulate the per-step gradients.
    stream = derive_stream(3, (4, 1, 0, 0))
    theta = params.copy()
    summed = np.zeros_like(params)
    for _ in range(cfg.epochs):
        idx = np.sort(stream.integers(0, len(shard.data), size=cfg.batch_size))
        _, grad = loss_and_grad(SPEC, theta, shard.data.take(idx))
        summed += grad
        theta = theta - cfg.local_lr * grad

    update = update_one(params, shard, cfg, 3)
    assert np.max(np.abs(update.delta[0] - (-cfg.local_lr * summed))) <= 1e-12
    assert np.max(np.abs(update.delta[0] - (theta - params))) == 0.0


def test_prox_lambda_zero_matches_plain_bitwise():
    shard = make_shard(seed=5)
    rng = np.random.default_rng(6)
    params = rng.standard_normal(param_count(SPEC))
    anchor = rng.standard_normal(param_count(SPEC))
    plain_cfg = LocalConfig(epochs=5, local_lr=0.1, batch_size=4)
    prox_cfg = LocalConfig(
        epochs=5, local_lr=0.1, batch_size=4, mode="client_prox", prox_lambda=0.0, anchor=anchor
    )
    plain = update_one(params, shard, plain_cfg, 9)
    proxed = update_one(params, shard, prox_cfg, 9)
    assert np.array_equal(plain.delta, proxed.delta)


def test_prox_map_example_and_oracle():
    assert prox_map(np.array([3.0]), np.array([1.0]), 0.5) == pytest.approx([2.0])

    rng = np.random.default_rng(13)
    x = rng.standard_normal(50)
    anchor = rng.standard_normal(50)
    lam = 0.8
    closed = prox_map(x, anchor, lam)
    # Objective 0.5*||u-x||^2 + lam*||u-anchor||^2 has Hessian (1+2*lam)*I.
    numeric = gradient_descent_minimize(
        lambda u: (u - x) + 2.0 * lam * (u - anchor),
        np.zeros_like(x),
        step=0.9 / (1.0 + 2.0 * lam),
    )
    assert np.max(np.abs(closed - numeric)) <= 1e-8


def test_prox_map_at_a_lambda_whose_double_overflows_is_the_anchor():
    # 2 * 9e307 is inf, which once made the map inf / inf = NaN.  The
    # minimizer is the anchor to within an ulp.
    lam = 9e307
    assert 2.0 * lam == np.inf
    x = np.array([1e10, -3.0, 0.7, 0.0])
    anchor = np.array([0.3, -1.2, 5e-3, 0.0])
    theta = prox_map(x, anchor, lam)
    assert np.isfinite(theta).all()
    assert (np.abs(theta - anchor) <= np.spacing(np.abs(anchor))).all()


def test_prox_map_where_only_two_lambda_times_the_anchor_overflows_is_the_anchor():
    # 2 * 8.9e307 is finite, but 2 * 8.9e307 * -1.2 is not, which once made
    # the map -inf in that entry when it formed that product.  The minimizer
    # is the anchor to within an ulp.
    lam = 8.9e307
    assert np.isfinite(2.0 * lam)
    x = np.array([1e10, -3.0, 0.7])
    anchor = np.array([0.3, -1.2, 5e-3])
    theta = prox_map(x, anchor, lam)
    assert np.isfinite(theta).all()
    assert (np.abs(theta - anchor) <= np.spacing(np.abs(anchor))).all()


def test_prox_optimality_and_stationarity():
    rng = np.random.default_rng(17)
    for _ in range(200):
        dim = 3
        x = rng.standard_normal(dim)
        anchor = rng.standard_normal(dim)
        lam = float(rng.uniform(0.01, 5.0))
        theta = prox_map(x, anchor, lam)
        residual = (theta - x) + 2.0 * lam * (theta - anchor)
        assert np.linalg.norm(residual) <= 1e-10

        def objective(u):
            return 0.5 * np.sum((u - x) ** 2) + lam * np.sum((u - anchor) ** 2)

        best = objective(theta)
        for _ in range(20):
            noise = rng.standard_normal(dim)
            noise *= 1e-3 / np.linalg.norm(noise)
            assert objective(theta + noise) >= best


def test_large_lambda_anchoring():
    shard = make_shard(seed=21)
    anchor = np.zeros(param_count(SPEC))
    cfg = LocalConfig(
        epochs=10, local_lr=0.5, batch_size=8, mode="client_prox", prox_lambda=1e6, anchor=anchor
    )
    update = update_one(anchor, shard, cfg, 4)
    final = anchor + update.delta[0]
    assert np.linalg.norm(final - anchor) <= 1e-3


def test_gradient_statistics_recorded():
    shard = make_shard(seed=23)
    params = np.zeros(param_count(SPEC))
    cfg = LocalConfig(epochs=4, local_lr=0.1, batch_size=6)
    update = update_one(params, shard, cfg, 5)
    assert update.grad_norm_max[0] > 0.0
    assert 0.0 < update.grad_norm_sq_mean[0] <= update.grad_norm_max[0] ** 2


def test_determinism_same_stream():
    shard = make_shard(seed=29)
    params = np.zeros(param_count(SPEC))
    cfg = LocalConfig(epochs=3, local_lr=0.2, batch_size=5)
    a = update_one(params, shard, cfg, 7)
    b = update_one(params, shard, cfg, 7)
    assert np.array_equal(a.delta, b.delta)
    assert np.array_equal(a.grad_norm_max, b.grad_norm_max)


LOCKSTEP_SPECS = (
    ModelSpec("logreg", 2, 3),
    ModelSpec("mlp1", 2, 3, hidden_dim=5, activation="tanh"),
    ModelSpec("mlp1", 2, 3, hidden_dim=5, activation="relu"),
)
# With batch 8: shards smaller than, equal to and larger than the batch, with
# repeated sizes, in one call; and N = 1.
LOCKSTEP_SIZES = ((3, 8, 20, 3, 8, 12, 1, 30, 5, 9), (20,), (3,), (8,))
# mlp1 sums a padded hidden-layer product in another BLAS order than an
# unpadded one, so its deltas and gradient statistics may move in the last
# bits: they must agree within this relative tolerance (deltas relative to
# their largest entry).  logreg must agree exactly.
MLP_REL_TOL = 1e-12


def assert_updates_agree(spec, update, ref, rows=slice(None)):
    """``update`` (rows ``rows``) equals ``ref``: exactly for logreg, within ``MLP_REL_TOL`` for mlp1."""
    delta, gmax, gsq = update.delta[rows], update.grad_norm_max[rows], update.grad_norm_sq_mean[rows]
    if spec.kind == "logreg":
        assert np.array_equal(delta, ref.delta)
        assert np.array_equal(gmax, ref.grad_norm_max)
        assert np.array_equal(gsq, ref.grad_norm_sq_mean)
        return
    assert np.max(np.abs(delta - ref.delta)) <= MLP_REL_TOL * np.max(np.abs(ref.delta))
    assert np.all(np.abs(gmax - ref.grad_norm_max) <= MLP_REL_TOL * np.abs(ref.grad_norm_max))
    assert np.all(np.abs(gsq - ref.grad_norm_sq_mean) <= MLP_REL_TOL * np.abs(ref.grad_norm_sq_mean))


@pytest.mark.parametrize("spec", LOCKSTEP_SPECS, ids=lambda s: f"{s.kind}-{s.activation}")
@pytest.mark.parametrize("mode", ("plain", "client_prox"))
@pytest.mark.parametrize("sizes", LOCKSTEP_SIZES, ids=lambda s: f"n{len(s)}-{s[0]}")
def test_lockstep_equals_one_client_loop(spec, mode, sizes):
    rng = np.random.default_rng(31)
    d = param_count(spec)
    params = 0.5 * rng.standard_normal(d)
    prox = dict(mode="client_prox", prox_lambda=0.3, anchor=rng.standard_normal(d))
    cfg = LocalConfig(
        epochs=4, local_lr=0.2, batch_size=8, **(prox if mode == "client_prox" else {})
    )
    shards = [make_shard(seed=100 + m, size=n, client=m) for m, n in enumerate(sizes)]
    labels = [(4, 1, 0, m) for m in range(len(sizes))]

    update = lockstep_update(spec, params, shards, cfg, 11)
    assert update.delta.shape == (len(sizes), d)
    assert update.steps_taken == len(sizes) * cfg.epochs
    for m, shard in enumerate(shards):
        ref = local_update_loop(spec, params, shard, cfg, derive_stream(11, labels[m]))
        assert_updates_agree(spec, update, ref, m)


def random_round(seed, spec):
    """Shards smaller than, equal to and larger than a random batch, with a config."""
    rng = np.random.default_rng(seed)
    b = int(rng.integers(1, 17))
    num = 1 if seed % 5 == 0 else int(rng.integers(2, 13))
    sizes = [int(v) for v in rng.integers(1, 3 * b + 2, size=num)]
    sizes[0] = b if seed % 3 == 0 else sizes[0]
    shards = [make_shard(seed=1000 * seed + m, size=n, client=m) for m, n in enumerate(sizes)]
    d = param_count(spec)
    params = 0.5 * rng.standard_normal(d)
    prox = dict(mode="client_prox", prox_lambda=0.3, anchor=rng.standard_normal(d))
    cfg = LocalConfig(epochs=3, local_lr=0.2, batch_size=b, **(prox if seed % 2 else {}))
    return shards, params, cfg


def round_streams(seed, shards, b):
    return [derive_stream(seed, (4, 1, 0, m)) if len(s.data) > b else None for m, s in enumerate(shards)]


@pytest.mark.parametrize("spec", LOCKSTEP_SPECS, ids=lambda s: f"{s.kind}-{s.activation}")
def test_padded_update_equals_grouped_oracle(spec):
    for seed in range(24):
        shards, params, cfg = random_round(seed, spec)
        b = cfg.batch_size
        update = lockstep_update(spec, params, shards, cfg, seed)
        ref = local_update_grouped(spec, params, shards, cfg, round_streams(seed, shards, b))
        assert update.steps_taken == ref.steps_taken
        assert_updates_agree(spec, update, ref)


@pytest.mark.parametrize("spec", LOCKSTEP_SPECS, ids=lambda s: f"{s.kind}-{s.activation}")
def test_client_row_equals_client_alone_at_same_rows(spec):
    # Row m depends on client m's shard, stream and the pad target only,
    # never on who else was sampled: bit for bit for every model.
    for seed in range(24):
        shards, params, cfg = random_round(seed, spec)
        b = cfg.batch_size
        rows = min(b, max(len(s.data) for s in shards) + seed % 3)
        update = lockstep_update(spec, params, shards, cfg, seed, rows=rows)
        for m in range(len(shards)):
            alone = lockstep_update(spec, params, shards, cfg, seed, clients=[m], rows=rows)
            assert np.array_equal(update.delta[m], alone.delta[0])
            assert update.grad_norm_max[m] == alone.grad_norm_max[0]
            assert update.grad_norm_sq_mean[m] == alone.grad_norm_sq_mean[0]


def test_one_kernel_call_per_step_over_all_clients(monkeypatch):
    calls = []

    def counting_kernel(spec, params, batch, counts=None, with_loss=True):
        calls.append((params.shape, batch.inputs.shape, counts.tolist(), with_loss))
        return loss_and_grad(spec, params, batch, counts, with_loss)

    monkeypatch.setattr(client_module, "loss_and_grad", counting_kernel)
    sizes = (3, 8, 20, 3, 8, 12, 1, 30, 5, 9)
    shards = [make_shard(seed=100 + m, size=n, client=m) for m, n in enumerate(sizes)]
    cfg = LocalConfig(epochs=4, local_lr=0.2, batch_size=8)
    lockstep_update(SPEC, np.zeros(param_count(SPEC)), shards, cfg, 11)
    d = param_count(SPEC)
    counts = [min(n, 8) for n in sizes]
    # The step discards the loss, so the kernel skips it.
    assert calls == [((10, d), (10, 8, 2), counts, False)] * cfg.epochs


def test_config_validation():
    # The local knobs are checked once per run, when the run's HyperParams is
    # built; local_update itself takes them as given.
    base = dict(
        num_clients=4,
        participants_per_round=2,
        rounds_per_task=1,
        local_epochs=1,
        batch_size=1,
        local_lr=0.1,
        global_lr_schedule="task_decay",
        prox_lambda=0.0,
        algorithm="special_c",
        master_seed=0,
    )
    HyperParams(**base)
    for bad in (
        dict(local_epochs=0),
        dict(local_lr=0.0),
        dict(batch_size=0),
        dict(prox_lambda=-0.1),
        dict(algorithm="half"),
    ):
        with pytest.raises(ValueError):
            HyperParams(**{**base, **bad})


def test_task_pool_width_covers_every_effective_batch():
    # P is the largest effective batch min(n, b), so no client's rows are cut.
    sizes = (5, 2, 12, 1)
    shards = [make_shard(seed=3 + m, size=n, client=m) for m, n in enumerate(sizes)]
    pool = task_pool(shards)
    everyone = np.array([range(len(sizes))])
    for b, width in ((8, 8), (4, 4), (12, 12), (100, 12), (1, 1)):
        assert pool.width(b) == width >= max(min(n, b) for n in sizes)
        assert plan_batches(pool, everyone, b, 1, 0, 1, 0)[0].shape[-1] == width
    assert pool.size.tolist() == list(sizes) and pool.start.tolist() == [0, 5, 7, 19]
    for m, shard in enumerate(shards):
        rows = slice(pool.start[m], pool.start[m] + pool.size[m])
        assert np.array_equal(pool.data.augmented[rows], shard.data.augmented)
        assert np.array_equal(pool.data.labels[rows], shard.data.labels)
    # One pad row at the end, all zeros with the bias column included, fills
    # each whole-shard batch after its counted rows.
    pad = len(pool.data) - 1
    assert pad == sum(sizes) and not pool.data.augmented[pad].any() and pool.data.labels[pad] == 0
    index, counts = plan_batches(pool, everyone, 8, 2, 0, 1, 0)
    assert counts.tolist() == [[5, 2, 8, 1]]
    for m, n in enumerate(counts[0]):
        own = list(range(pool.start[m], pool.start[m] + n))
        for step in index[0, :, m].tolist():
            if sizes[m] <= 8:
                assert step == own + [pad] * (8 - n)
            else:  # a drawing client's rows lie in its own shard
                assert step == sorted(step) and own[0] <= min(step) <= max(step) < own[0] + sizes[m]


def test_lockstep_divergence_raises_divergence_error():
    shards = [make_shard(seed=41, size=5, client=0), make_shard(seed=42, size=20, client=1)]
    params = np.zeros(param_count(SPEC))
    params[1] = np.inf
    cfg = LocalConfig(epochs=2, local_lr=0.1, batch_size=8)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(DivergenceError, match="diverged"):
            lockstep_update(SPEC, params, shards, cfg, 0)
    assert issubclass(DivergenceError, ValueError)


def test_bulk_draw_equals_draws_in_turn():
    for b in (1, 7, 32):
        for n in (1, b, b + 1, 1000, 2**32, 2**33):
            for count in (1, 5):
                labels = (4, n % 997, b, count)
                bulk, loop = derive_stream(1, labels), derive_stream(1, labels)
                rows = draw_indices(n, b, bulk, count)
                assert rows.shape == (count, b)
                for k in range(count):
                    assert np.array_equal(rows[k], np.sort(loop.integers(0, n, size=b)))
                assert repr(bulk.bit_generator.state) == repr(loop.bit_generator.state)
                assert np.array_equal(bulk.integers(0, n, size=3), loop.integers(0, n, size=3))
                assert bulk.random() == loop.random()
                # The bulk reading of many streams gives each stream's own draw.
                other = (5,) + labels[1:]
                pool = TaskPool(data=None, start=np.array([0, 7]), size=np.array([n, n + 1]))
                many = pool.draw(1, [labels, other], [0, 1], b, count)
                assert np.array_equal(many[0], rows)
                assert np.array_equal(many[1], draw_indices(n + 1, b, derive_stream(1, other), count) + 7)


def test_batch_far_above_every_shard_pads_only_to_the_largest_shard(tmp_path, monkeypatch):
    # A batch of a million rows on 480-row task pools: each client's padded
    # batch holds the task's largest shard, and the run equals batch 480,
    # at which every shard is also used whole.
    text = (Path(__file__).resolve().parent.parent / "profiles" / "default.ini").read_text(encoding="utf-8")
    assert "batch_size = 32\nlocal_lr" in text
    config = parse_config_text(text)
    seed = config.hyper.master_seed
    shards = partition_sequence(generate_sequence(config.shift, seed), config.partition, seed)
    largest = [max(len(shard.data) for shard in task_shards) for task_shards in shards]
    steps = config.hyper.rounds_per_task * config.hyper.local_epochs
    for b in (1000000, 480):
        rows = []

        def recording_kernel(spec, params, batch, counts=None, with_loss=True):
            rows.append(batch.inputs.shape[-2])
            return loss_and_grad(spec, params, batch, counts, with_loss)

        monkeypatch.setattr(client_module, "loss_and_grad", recording_kernel)
        artifacts = run_experiment(text.replace("batch_size = 32\nlocal_lr", f"batch_size = {b}\nlocal_lr"))
        assert rows == [n for n in largest for _ in range(steps)]
        emit_runlog(artifacts, tmp_path / str(b))
    assert compare_runlogs(tmp_path / "1000000", tmp_path / "480") == []
