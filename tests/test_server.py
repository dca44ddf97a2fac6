from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdilsim import (
    ClientShard,
    DivergenceError,
    EvalConfig,
    HyperParams,
    Minibatch,
    ModelSpec,
    PartitionSpec,
    aggregate,
    derive_stream,
    generate_sequence,
    partition_sequence,
    parse_config_text,
    prox_map,
    proximal_blend,
    run_experiment,
    run_sequence,
    sample_clients,
)
from fdilsim import rng as rngmod
from fdilsim import client as client_module
from fdilsim import metrics, server
from fdilsim.client import plan_batches, task_pool
from fdilsim.metrics import acc, bwt, stack_rows
from fdilsim.runio import compare_runlogs, emit_runlog
from fdilsim.server import run_round, run_task
from conftest import small_config
from test_datagen import make_shift
from helpers import (
    LocalConfig,
    gradient_descent_minimize,
    joint_fields_loop,
    joint_prefixes,
    local_update_loop,
    prox_map_reference,
    proximal_blend_reference,
    records,
    sample_clients_loop,
)

SPEC = ModelSpec("logreg", 2, 3)
ROOT = Path(__file__).resolve().parent.parent


def make_hp(**overrides):
    base = dict(
        num_clients=8,
        participants_per_round=4,
        rounds_per_task=10,
        local_epochs=5,
        batch_size=16,
        local_lr=0.05,
        global_lr_schedule="task_decay",
        prox_lambda=0.25,
        algorithm="special",
        master_seed=25,
    )
    base.update(overrides)
    return HyperParams(**base)


def one_round(spec, params, anchor, task_index, round_index, shards, hp):
    """Round ``round_index`` of task ``task_index`` on ``shards``, planned alone.

    Returns ``run_round``'s (params, delta, max grad norm, mean squared grad
    norm) and the round's selected client ids.
    """
    pool = task_pool(shards)
    key = (rngmod.CLIENT_SAMPLING, task_index, round_index)
    selected = sample_clients(hp.num_clients, hp.participants_per_round, hp.master_seed, [key])
    index, counts = plan_batches(
        pool, selected, hp.batch_size, hp.local_epochs, hp.master_seed, task_index, round_index
    )
    result = run_round(spec, hp, task_index, params, anchor, pool, index[0], counts[0])
    return result + (tuple(selected[0].tolist()),)


def make_problem(seed=25, num_tasks=2, rotation=0.4, hp=None):
    hp = hp or make_hp(master_seed=seed)
    shift = make_shift(num_tasks=num_tasks, rotation=rotation, train=240, test=120)
    sequence = generate_sequence(shift, seed=hp.master_seed)
    shards = partition_sequence(
        sequence,
        PartitionSpec(num_clients=hp.num_clients, dirichlet_alpha=0.5, min_samples_per_client=2),
        seed=hp.master_seed,
    )
    return sequence, shards, hp


# --- sampling -------------------------------------------------------------

def draw_keys(draws):
    """One sampling stream per draw: ``(CLIENT_SAMPLING, 1, t)``."""
    return [(rngmod.CLIENT_SAMPLING, 1, t) for t in range(draws)]


def test_full_participation_is_identity():
    assert sample_clients(4, 4, 0, [(3, 1, 0)]).tolist() == [[0, 1, 2, 3]]


def test_sampling_bounds_checked():
    with pytest.raises(ValueError):
        sample_clients(4, 5, 0, [(3,)])
    with pytest.raises(ValueError):
        sample_clients(4, 0, 0, [(3,)])


def test_sampling_uniform_inclusion_frequencies():
    draws = 20_000
    counts = np.bincount(sample_clients(8, 4, 123, draw_keys(draws)).ravel(), minlength=8)
    freqs = counts / draws
    assert np.all(freqs >= 0.49) and np.all(freqs <= 0.51)


def test_sampling_single_frequencies():
    draws = 20_000
    counts = np.bincount(sample_clients(8, 1, 321, draw_keys(draws))[:, 0], minlength=8)
    freqs = counts / draws
    assert np.all(freqs >= 0.115) and np.all(freqs <= 0.135)


def test_sampling_subsets_equally_likely():
    # All C(4,2)=6 subsets of a small pool appear with near-equal frequency.
    from collections import Counter

    counts = Counter()
    draws = 30_000
    for selected in sample_clients(4, 2, 77, draw_keys(draws)):
        counts[tuple(selected.tolist())] += 1
    assert len(counts) == 6
    for subset, count in counts.items():
        assert abs(count / draws - 1 / 6) < 0.01, subset


def test_sampling_equals_one_draw_per_swap():
    # Each row of a bulk sample is the one-swap-at-a-time loop on its own stream.
    for m in (1, 2, 8, 64, 1000):
        for n in sorted({1, m // 2, m} - {0}):
            for seed in range(3):
                keys = [(rngmod.CLIENT_SAMPLING, m, n, t) for t in range(4)]
                bulk = sample_clients(m, n, seed, keys)
                assert bulk.shape == (len(keys), n)
                for key, selected in zip(keys, bulk):
                    loop = sample_clients_loop(m, n, derive_stream(seed, key))
                    assert tuple(selected.tolist()) == loop


# --- aggregation and blend ------------------------------------------------

def test_aggregate_examples():
    a = np.array([1.0, 3.0])
    b = np.array([3.0, 1.0])
    assert np.array_equal(aggregate(np.stack([a, b])), np.array([2.0, 2.0]))
    assert np.array_equal(aggregate(a[None]), a)


def test_aggregate_sums_rows_in_order_from_positive_zero():
    # A bare deltas.sum(axis=0) would start from the first row and keep -0.0.
    out = aggregate(np.full((3, 4), -0.0))
    assert np.array_equal(out, np.zeros(4))
    assert not np.signbit(out).any()
    rows = np.random.default_rng(0).standard_normal((5, 6)) * 10.0 ** np.arange(5)[:, None]
    total = np.zeros(6)
    for row in rows:
        total += row
    assert np.array_equal(aggregate(rows), total / 5)


def test_aggregate_equals_the_row_loop_on_random_updates():
    # 2,000 random (N, d) blocks of mixed magnitudes, with whole -0.0 columns
    # and +-0.0 entries: the reduce adds rows in order from +0.0, bit for bit.
    rng = np.random.default_rng(41)
    for _ in range(2000):
        n, d = int(rng.integers(1, 40)), int(rng.integers(2, 70))
        rows = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 9, size=(n, 1))
        rows[:, rng.random(d) < 0.2] = -0.0
        rows[rng.random((n, d)) < 0.05] = 0.0
        total = np.zeros(d)
        for row in rows:
            total += row
        expected = total / n
        got = aggregate(rows)
        assert np.array_equal(got, expected)
        assert not (np.signbit(got) ^ np.signbit(expected)).any()


def test_blend_examples():
    theta = np.array([2.0, 2.0])
    anchor = np.array([0.0, 0.0])
    assert np.array_equal(proximal_blend(theta, anchor, 0.0), theta)
    assert np.array_equal(proximal_blend(anchor, anchor, 3.0), anchor)
    assert np.allclose(proximal_blend(theta, anchor, 1.0), [1.0, 1.0])


def test_blend_matches_numerical_minimizer():
    rng = np.random.default_rng(1)
    theta = rng.standard_normal(40)
    anchor = rng.standard_normal(40)
    lam = 0.7
    closed = proximal_blend(theta, anchor, lam)
    # Objective ||u-theta||^2 + lam*||u-anchor||^2 has Hessian 2*(1+lam)*I.
    numeric = gradient_descent_minimize(
        lambda u: 2.0 * (u - theta) + 2.0 * lam * (u - anchor),
        np.zeros_like(theta),
        step=0.9 / (2.0 * (1.0 + lam)),
    )
    assert np.max(np.abs(closed - numeric)) <= 1e-8


def test_blend_rejects_bad_inputs():
    with pytest.raises(ValueError):
        proximal_blend(np.zeros(2), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        proximal_blend(np.zeros(2), np.zeros(2), -0.5)


# --- rounds and tasks -----------------------------------------------------

def test_first_task_skips_blend():
    sequence, shards, hp = make_problem(hp=make_hp(prox_lambda=5.0, rounds_per_task=3))
    log = run_sequence(SPEC, sequence, shards, hp)
    # Task-1 drift is unconstrained by the anchor; the blend would have
    # contracted every step toward the start point.
    assert all(r.task in (1, 2) for r in records(log.rounds))
    # Re-run one round manually and check the unblended result matches.
    theta0 = log.initial_params
    params, delta, _, _, _ = one_round(SPEC, theta0.copy(), theta0.copy(), 1, 0, shards[0], hp)
    expected = log.initial_params + hp.gamma_g(1) * delta
    assert np.array_equal(params, expected)
    # The round is the first of the run's task 1, so it is the logged one.
    assert float(np.linalg.norm(delta)) == records(log.rounds)[0].delta_norm


def test_zero_updates_blend_toward_anchor():
    anchor = np.array([1.0, -2.0])
    theta = np.array([3.0, 4.0])
    blended = proximal_blend(theta, anchor, 0.5)
    assert np.allclose(blended, (theta + 0.5 * anchor) / 1.5)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6),
    lam=st.floats(0.0, 1.7e308),
)
def test_anchor_pulls_map_the_anchor_to_itself(values, lam):
    # The old closed forms moved the anchor by rounding, so a round that did
    # not move the model still logged drift.
    anchor = np.array(values)
    assert (proximal_blend(anchor, anchor, lam) == anchor).all()
    assert (prox_map(anchor, anchor, lam) == anchor).all()


def test_an_overflowing_anchor_difference_diverges():
    # The model and the anchor are finite, but their difference overflows, so
    # both exact pulls are not finite and the round stops with DivergenceError,
    # never a NaN model.  The old closed forms stayed finite here.  Input 1 is
    # 0 on every row, so the weights on it never reach the kernel.
    rng = np.random.default_rng(5)
    inputs = rng.standard_normal((12, 2))
    inputs[:, 1] = 0.0
    shards = [
        ClientShard(2, m, Minibatch(inputs[6 * m : 6 * m + 6], rng.integers(0, 3, 6)))
        for m in range(2)
    ]
    params = np.zeros(9)
    params[3:6] = 1e308  # the weights on input 1
    anchor = -params
    assert np.isfinite(proximal_blend_reference(params, anchor, 0.25)).all()
    assert np.isfinite(prox_map_reference(params, anchor, 0.25)).all()
    for algorithm, message in (("special", "non-finite parameter"), ("special_c", "diverged")):
        hp = make_hp(
            num_clients=2, participants_per_round=2, local_epochs=1, batch_size=4, algorithm=algorithm
        )
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match=message):
            one_round(SPEC, params, anchor, 2, 0, shards, hp)


@pytest.mark.parametrize("algorithm", ["special", "special_c"])
def test_exact_anchor_pulls_track_the_old_forms_over_seeds(monkeypatch, algorithm):
    # Over 50 seeds of default.ini, runs with the old closed forms agree with
    # the exact pulls: |dACC|, |dBWT| <= 0.01, and each round's drift_sq, and
    # the final model, within 1e-12 relative wherever the old value is nonzero.
    config = parse_config_text((ROOT / "profiles" / "default.ini").read_text(encoding="utf-8"))
    moved = 0
    for seed in range(50):
        hp = replace(config.hyper, algorithm=algorithm, master_seed=seed)
        sequence = generate_sequence(config.shift, seed)
        shards = partition_sequence(sequence, config.partition, seed)
        new = run_sequence(config.model, sequence, shards, hp)
        with monkeypatch.context() as patch:
            patch.setattr(server, "proximal_blend", proximal_blend_reference)
            patch.setattr(client_module, "prox_map", prox_map_reference)
            old = run_sequence(config.model, sequence, shards, hp)
        assert abs(acc(new.accuracy) - acc(old.accuracy)) <= 0.01
        assert abs(bwt(new.accuracy) - bwt(old.accuracy)) <= 0.01
        new_drift = np.array([r.drift_sq for r in records(new.rounds)])
        old_drift = np.array([r.drift_sq for r in records(old.rounds)])
        nonzero = old_drift != 0.0
        assert (np.abs(new_drift - old_drift)[nonzero] <= 1e-12 * old_drift[nonzero]).all()
        final_new, final_old = new.task_params[-1], old.task_params[-1]
        assert np.linalg.norm(final_new - final_old) <= 1e-12 * np.linalg.norm(final_old)
        moved += not np.array_equal(new_drift, old_drift)
    assert moved  # the old forms were in effect


def test_fedavg_equals_special_lambda_zero():
    sequence, shards, _ = make_problem()
    log_a = run_sequence(SPEC, sequence, shards, make_hp(prox_lambda=0.0, algorithm="special"))
    log_b = run_sequence(SPEC, sequence, shards, make_hp(prox_lambda=0.0, algorithm="fedavg"))
    for pa, pb in zip(log_a.task_params, log_b.task_params):
        assert np.array_equal(pa, pb)
    for ra, rb in zip(records(log_a.rounds), records(log_b.rounds)):
        assert ra == rb


def test_run_is_deterministic():
    sequence, shards, hp = make_problem()
    log_a = run_sequence(SPEC, sequence, shards, hp)
    log_b = run_sequence(SPEC, sequence, shards, hp)
    for pa, pb in zip(log_a.task_params, log_b.task_params):
        assert np.array_equal(pa, pb)
    assert records(log_a.rounds) == records(log_b.rounds)
    assert log_a.accuracy.entries() == log_b.accuracy.entries()


def test_round_count_and_record_shape():
    sequence, shards, hp = make_problem(hp=make_hp(rounds_per_task=7))
    log = run_sequence(SPEC, sequence, shards, hp)
    assert len(records(log.rounds)) == 2 * 7
    for r in records(log.rounds):
        assert len(r.selected) == hp.participants_per_round
        assert list(r.selected) == sorted(set(r.selected))


def test_anchor_chain_is_previous_task_model(monkeypatch):
    sequence, shards, hp = make_problem(num_tasks=3)
    anchors_seen = []
    real_run_round = server.run_round

    def recording_run_round(spec, hyper, task_index, params, anchor, *rest):
        anchors_seen.append((task_index, anchor.copy()))
        return real_run_round(spec, hyper, task_index, params, anchor, *rest)

    # Drive the loop manually to observe the anchor at every round.
    from fdilsim.server import RunLog
    from fdilsim.metrics import AccuracyMatrix
    from fdilsim.models import init_params

    monkeypatch.setattr(server, "run_round", recording_run_round)
    theta0 = init_params(SPEC, derive_stream(hp.master_seed, (0,)))
    log = RunLog(accuracy=AccuracyMatrix(3), initial_params=theta0.copy())
    params = theta0.copy()
    finals = []
    for i in (1, 2, 3):
        params = run_task(SPEC, params, sequence, shards[i - 1], hp, i, EvalConfig(), log, [])
        finals.append(params.copy())
    monkeypatch.undo()

    # The anchor of every round of task i equals the final model of task i-1.
    rounds = hp.rounds_per_task
    assert [task for task, _ in anchors_seen] == [i for i in (1, 2, 3) for _ in range(rounds)]
    starts = [theta0] + finals
    for task, anchor in anchors_seen:
        assert np.array_equal(anchor, starts[task - 1])

    # Round-level check: every round of task i blends toward the stored
    # previous-task model, never toward the previous round's iterate.
    params = finals[0].copy()
    previous_iterate = params.copy()
    for t in range(hp.rounds_per_task):
        params, delta, _, _, _ = one_round(SPEC, params, finals[0].copy(), 2, t, shards[1], hp)
        theta_bar = previous_iterate + hp.gamma_g(2) * delta
        assert np.array_equal(params, proximal_blend(theta_bar, finals[0], hp.prox_lambda))
        if not np.array_equal(previous_iterate, finals[0]):
            toward_iterate = proximal_blend(theta_bar, previous_iterate, hp.prox_lambda)
            assert not np.array_equal(params, toward_iterate)
        previous_iterate = params.copy()
    assert np.array_equal(params, finals[1])


def test_full_participation_matches_reference_loop():
    hp = make_hp(participants_per_round=8, rounds_per_task=2)
    sequence, shards, _ = make_problem(hp=hp)
    log = run_sequence(SPEC, sequence, shards, hp)

    # Reference path: no sampling, every client runs alone on its own
    # stream, canonical aggregation.
    theta = log.initial_params.copy()
    for i in (1, 2):
        anchor = theta.copy()
        for t in range(hp.rounds_per_task):
            updates = []
            for m in range(8):
                stream = derive_stream(hp.master_seed, (4, i, t, m))
                cfg = LocalConfig(epochs=hp.local_epochs, local_lr=hp.local_lr, batch_size=hp.batch_size)
                updates.append(local_update_loop(SPEC, theta, shards[i - 1][m], cfg, stream).delta)
            delta = aggregate(np.stack(updates))
            theta_bar = theta + hp.gamma_g(i) * delta
            theta = proximal_blend(theta_bar, anchor, hp.prox_lambda) if i >= 2 else theta_bar
        assert np.array_equal(theta, log.task_params[i - 1])


def test_streams_derived_only_for_clients_that_draw(monkeypatch):
    # Batch 30 on shards of about 30 rows: some selected clients draw, some not.
    hp = make_hp(batch_size=30, participants_per_round=8, rounds_per_task=1, master_seed=25)
    _, shards, _ = make_problem(hp=hp)
    sizes = [len(shard.data) for shard in shards[0]]
    assert min(sizes) <= 30 < max(sizes)
    derived = []
    real_read = rngmod.stream_integers
    real_derive = rngmod.derive_stream

    def counting_read(seed, keys, low, high, size):
        derived.extend(tuple(int(v) for v in labels) for labels in keys)
        return real_read(seed, keys, low, high, size)

    def counting_derive(seed, labels):
        derived.append(tuple(labels))
        return real_derive(seed, labels)

    monkeypatch.setattr(rngmod, "stream_integers", counting_read)
    monkeypatch.setattr(rngmod, "derive_stream", counting_derive)
    theta0 = 0.1 * np.random.default_rng(3).standard_normal(9)
    params, delta, gmax, gsq_mean, selected = one_round(
        SPEC, theta0.copy(), theta0, 1, 0, shards[0], hp
    )
    local = [labels for labels in derived if labels[0] == rngmod.LOCAL_TRAINING]
    assert local == [(rngmod.LOCAL_TRAINING, 1, 0, m) for m in selected if sizes[m] > 30]

    # Same round from the one-client loop with a stream for every client.
    cfg = LocalConfig(epochs=hp.local_epochs, local_lr=hp.local_lr, batch_size=hp.batch_size)
    refs = [
        (m, local_update_loop(SPEC, theta0, shards[0][m], cfg, real_derive(25, (4, 1, 0, m))))
        for m in selected
    ]
    ref_delta = aggregate(np.stack([ref.delta for _, ref in refs]))
    assert np.array_equal(delta, ref_delta)
    assert np.array_equal(params, theta0 + hp.gamma_g(1) * ref_delta)
    assert gmax == max(ref.grad_norm_max for _, ref in refs)
    assert gsq_mean == float(np.mean([ref.grad_norm_sq_mean for _, ref in refs]))


def test_server_step_overflow_fails_the_round():
    # Finite client deltas (one huge local step) times a huge global rate
    # overflow only at the server step; the per-round check must catch it.
    hp = make_hp(
        local_epochs=1, local_lr=1e300, global_lr_schedule="constant", global_lr=1e10
    )
    sequence, shards, _ = make_problem(hp=hp)
    theta0 = np.zeros(9)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="non-finite parameter values"):
            one_round(SPEC, theta0, theta0, 1, 0, shards[0], hp)
        with pytest.raises(ValueError, match="non-finite parameter values"):
            run_sequence(SPEC, sequence, shards, hp, EvalConfig(eval_every=1))


def test_nan_parameters_fail_in_local_training():
    sequence, shards, hp = make_problem()
    theta = np.full(9, np.nan)
    with pytest.raises(ValueError, match="diverged"):
        one_round(SPEC, theta, theta, 1, 0, shards[0], hp)


def _oracle_prefixes(params, shards_by_task):
    """Joint objective over tasks 1..j for every j, from one kernel call per
    shard: the client mean within each task, then an in-order sum."""
    return joint_prefixes(SPEC, params, shards_by_task)


def test_joint_pass_matches_per_shard_oracle(monkeypatch):
    sequence, shards, hp = make_problem(num_tasks=3, hp=make_hp(rounds_per_task=4))
    round_params = []
    real_run_round = server.run_round

    def recording_run_round(*args):
        result = real_run_round(*args)
        round_params.append(result[0].copy())
        return result

    monkeypatch.setattr(server, "run_round", recording_run_round)
    log = run_sequence(SPEC, sequence, shards, hp, EvalConfig(joint_grad_every=1))
    assert len(round_params) == len(records(log.rounds)) == 12

    best = None
    for record, params in zip(records(log.rounds), round_params):
        prefixes = _oracle_prefixes(params, shards[: record.task])
        grad = prefixes[-1][1]
        assert record.joint_grad_sq == float(grad @ grad)
        if record.task == 1:
            assert record.prev_task_loss is None
        else:
            assert record.prev_task_loss == prefixes[-2][0]
        if record.task == 3:
            best = prefixes[-1][0] if best is None else min(best, prefixes[-1][0])

    start = _oracle_prefixes(log.task_params[1], shards)
    f_prev, g_prev = start[1]
    assert log.stats.f_prev_start == f_prev
    assert log.stats.grad_norm_prev_sq == float(g_prev @ g_prev)
    assert log.stats.f_joint_start == start[2][0]
    final = _oracle_prefixes(log.task_params[2], shards)[2][0]
    assert log.stats.best_joint_loss == min(start[2][0], best, final)


@pytest.mark.parametrize("rounds, every", [(4, 2), (4, 4), (5, 2), (5, 3)])
def test_joint_passes_per_run(monkeypatch, rounds, every):
    # Counts evaluated (snapshot, task) pairs.  Each tracked round is one
    # snapshot on every task so far.  The last task's anchor is one more
    # snapshot on all K tasks; where the cadence divides T it is task K-1's
    # last tracked snapshot, which then adds task K only.  The end of the run
    # is one more unless the last round was tracked.  One pass per run.
    k = 3
    sequence, shards, hp = make_problem(num_tasks=k, hp=make_hp(rounds_per_task=rounds))
    calls = []
    real_pass = server.joint_objective_grad

    def counting_pass(spec, params, tasks, shards_by_task):
        assert len(params) == len(tasks) and shards_by_task is shards
        calls.append(sum(tasks))
        return real_pass(spec, params, tasks, shards_by_task)

    monkeypatch.setattr(server, "joint_objective_grad", counting_pass)
    log = run_sequence(SPEC, sequence, shards, hp, EvalConfig(joint_grad_every=every))
    tracked = sum(r.joint_grad_sq is not None for r in records(log.rounds))
    assert tracked == k * (rounds // every)
    per_task = rounds // every
    anchor, end = (1, 0) if rounds % every == 0 else (k, k)
    assert calls == [per_task * sum(range(1, k + 1)) + anchor + end]

    # One task: its tracked rounds on that task, and no pass if none is tracked.
    sequence, shards, hp = make_problem(num_tasks=1, hp=make_hp(rounds_per_task=rounds))
    for cadence, expected in ((every, [per_task]), (0, [])):
        calls.clear()
        run_sequence(SPEC, sequence, shards, hp, EvalConfig(joint_grad_every=cadence))
        assert calls == expected


MODEL_VARIANTS = {
    "logreg": SPEC,
    "mlp1-tanh": ModelSpec("mlp1", 2, 3, hidden_dim=5, activation="tanh"),
    "mlp1-relu": ModelSpec("mlp1", 2, 3, hidden_dim=5, activation="relu"),
}


def _joint_run(spec, num_tasks, rounds, every, num_clients, train, monkeypatch):
    """A run with its global model after every round, for the joint oracle."""
    hp = make_hp(
        num_clients=num_clients, participants_per_round=min(4, num_clients),
        rounds_per_task=rounds, local_epochs=2,
    )
    sequence = generate_sequence(
        make_shift(num_tasks=num_tasks, rotation=0.4, train=train, test=60), seed=hp.master_seed
    )
    shards = partition_sequence(
        sequence,
        PartitionSpec(num_clients=num_clients, dirichlet_alpha=0.5, min_samples_per_client=1),
        seed=hp.master_seed,
    )
    round_params = []
    real_run_round = server.run_round

    def recording_run_round(*args):
        result = real_run_round(*args)
        round_params.append(result[0].copy())
        return result

    monkeypatch.setattr(server, "run_round", recording_run_round)
    log = run_sequence(spec, sequence, shards, hp, EvalConfig(joint_grad_every=every))
    return log, shards, round_params


def _assert_joint_fields_match(log, spec, shards, round_params, rounds, every):
    fields, stats = joint_fields_loop(spec, shards, round_params, rounds, every)
    assert len(fields) == len(records(log.rounds)) == len(round_params)
    for record, (joint_grad_sq, prev_task_loss) in zip(records(log.rounds), fields):
        assert record.joint_grad_sq == joint_grad_sq
        assert record.prev_task_loss == prev_task_loss
        assert type(record.joint_grad_sq) is type(joint_grad_sq)
        assert type(record.prev_task_loss) is type(prev_task_loss)
    assert log.stats == stats


@pytest.mark.parametrize("rounds, every", [(4, 1), (4, 2), (5, 2), (5, 3), (4, 0)])
@pytest.mark.parametrize("num_tasks", [1, 2, 3, 4])
@pytest.mark.parametrize("model", sorted(MODEL_VARIANTS))
def test_joint_fields_match_per_round_oracle(monkeypatch, model, num_tasks, rounds, every):
    # The deferred stacked pass logs, bit for bit, what one plain pass per
    # tracked round gives.  At K = 4 the last task's start stack spans three
    # earlier tasks, and the middle tasks keep passes of their own.
    spec = MODEL_VARIANTS[model]
    log, shards, round_params = _joint_run(spec, num_tasks, rounds, every, 8, 240, monkeypatch)
    assert min(len(s.data) for task in shards for s in task) >= 1
    _assert_joint_fields_match(log, spec, shards, round_params, rounds, every)


@pytest.mark.parametrize("rounds, every", [(4, 2), (5, 3)])
@pytest.mark.parametrize("model", sorted(MODEL_VARIANTS))
def test_joint_fields_match_oracle_with_shards_beyond_stack_rows(
    monkeypatch, model, rounds, every
):
    # Two clients share 400 rows more than twice the model's stack rows, so a
    # shard exceeds them and its stacked calls take one snapshot each.
    spec = MODEL_VARIANTS[model]
    train = 2 * stack_rows(spec) + 400
    log, shards, round_params = _joint_run(spec, 2, rounds, every, 2, train, monkeypatch)
    assert max(len(s.data) for task in shards for s in task) > stack_rows(spec)
    _assert_joint_fields_match(log, spec, shards, round_params, rounds, every)


def test_huge_lambda_pins_model_to_anchor():
    hp = make_hp(prox_lambda=1e6, rounds_per_task=8)
    sequence, shards, _ = make_problem(hp=hp)
    log = run_sequence(SPEC, sequence, shards, hp)
    anchor = log.task_params[0]
    final = log.task_params[1]
    b_hat = max(r.grad_norm_max for r in records(log.rounds) if r.task == 2)
    cap = (hp.gamma_g(2) ** 2) * (hp.local_lr ** 2) * (hp.local_epochs ** 2) * (b_hat ** 2) / (1e6 ** 2)
    assert float(np.sum((final - anchor) ** 2)) <= cap


def test_single_task_run_is_single_task_federated_avg():
    hp = make_hp(prox_lambda=0.3, rounds_per_task=5)
    sequence, shards, _ = make_problem(num_tasks=1, hp=hp)
    log = run_sequence(SPEC, sequence, shards, hp)
    assert len(records(log.rounds)) == 5
    assert log.accuracy.num_tasks == 1
    # Single task means no blending anywhere: identical to a lambda=0 run.
    log_zero = run_sequence(SPEC, sequence, shards, make_hp(prox_lambda=0.0, rounds_per_task=5))
    assert np.array_equal(log.task_params[0], log_zero.task_params[0])


def test_drift_cap_holds_on_anchored_tasks():
    hp = make_hp(prox_lambda=0.5, rounds_per_task=15)
    sequence, shards, _ = make_problem(hp=hp)
    log = run_sequence(SPEC, sequence, shards, hp)
    for i in (2,):
        task_records = [r for r in records(log.rounds) if r.task == i]
        b_hat = max(r.grad_norm_max for r in task_records)
        cap = (
            (hp.gamma_g(i) ** 2)
            * (hp.local_lr ** 2)
            * (hp.local_epochs ** 2)
            * (b_hat ** 2)
            / (hp.prox_lambda ** 2)
        )
        for r in task_records:
            assert r.drift_sq <= cap


def test_special_c_differs_from_special_but_matches_plain_on_first_task():
    hp_c = make_hp(algorithm="special_c", prox_lambda=0.4)
    hp_s = make_hp(algorithm="special", prox_lambda=0.4)
    sequence, shards, _ = make_problem(hp=hp_c)
    log_c = run_sequence(SPEC, sequence, shards, hp_c)
    log_s = run_sequence(SPEC, sequence, shards, hp_s)
    # Task 1 trains identically (no prox anywhere on the first task).
    assert np.array_equal(log_c.task_params[0], log_s.task_params[0])
    # Task 2 differs: client-side prox vs server-side blend.
    assert not np.array_equal(log_c.task_params[1], log_s.task_params[1])


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        make_hp(participants_per_round=9)
    with pytest.raises(ValueError):
        make_hp(rounds_per_task=0)
    with pytest.raises(ValueError):
        make_hp(prox_lambda=-0.1)
    with pytest.raises(ValueError):
        make_hp(algorithm="fedsgd")
    with pytest.raises(ValueError):
        make_hp(global_lr_schedule="cosine")


def test_instrumentation_never_perturbs_the_protocol():
    # Joint-gradient and accuracy logging are evaluation-only: switching the
    # cadences on must leave the trajectory bit-identical.
    sequence, shards, hp = make_problem()
    bare = run_sequence(SPEC, sequence, shards, hp, EvalConfig())
    instrumented = run_sequence(
        SPEC, sequence, shards, hp, EvalConfig(eval_every=2, joint_grad_every=1)
    )
    for pa, pb in zip(bare.task_params, instrumented.task_params):
        assert np.array_equal(pa, pb)
    for ra, rb in zip(records(bare.rounds), records(instrumented.rounds)):
        assert ra.selected == rb.selected
        assert ra.delta_norm == rb.delta_norm
        assert ra.drift_sq == rb.drift_sq


def test_eval_cadence_populates_accuracies():
    sequence, shards, hp = make_problem(hp=make_hp(rounds_per_task=6))
    log = run_sequence(SPEC, sequence, shards, hp, EvalConfig(eval_every=3))
    for r in records(log.rounds):
        if (r.round + 1) % 3 == 0:
            assert r.accuracies is not None and len(r.accuracies) == 2
            assert all(0.0 <= a <= 1.0 for a in r.accuracies)
        else:
            assert r.accuracies is None


def test_task_decay_schedule():
    hp = make_hp()
    assert hp.gamma_g(1) == 1.0
    assert hp.gamma_g(2) == 0.5
    assert hp.gamma_g(4) == 0.25
    const = make_hp(global_lr_schedule="constant", global_lr=0.7)
    assert const.gamma_g(3) == 0.7


CHUNK_CONFIGS = {
    "default": (),
    "special_c-batch-8": (
        ("algorithm = special\n", "algorithm = special_c\n"),
        ("batch_size = 32\nlocal_lr", "batch_size = 8\nlocal_lr"),
    ),
}


@pytest.mark.parametrize("name", sorted(CHUNK_CONFIGS))
def test_tables_do_not_depend_on_the_plan_chunk(tmp_path, monkeypatch, name):
    # One round per chunk, three rounds per chunk (not a divisor of T = 20),
    # the default cap and the whole task in one chunk write the same four
    # tables.
    text = (ROOT / "profiles" / "default.ini").read_text(encoding="utf-8")
    for old, new in CHUNK_CONFIGS[name]:
        assert text.count(old) == 1
        text = text.replace(old, new)
    config = parse_config_text(text)
    hp = config.hyper
    largest = max(len(s.data) for task in partition_sequence(
        generate_sequence(config.shift, hp.master_seed), config.partition, hp.master_seed
    ) for s in task)
    step_bytes = hp.local_epochs * hp.participants_per_round * min(hp.batch_size, largest) * 8
    caps = (1, 3 * step_bytes, server.PLAN_BYTES, hp.rounds_per_task * step_bytes)
    for cap in caps:
        monkeypatch.setattr(server, "PLAN_BYTES", cap)
        emit_runlog(run_experiment(text), tmp_path / str(cap))
    for cap in caps[1:]:
        assert compare_runlogs(tmp_path / str(caps[0]), tmp_path / str(cap)) == []


STACK_CONFIGS = {
    "logreg": small_config(),
    # Two clients of about 240 rows each: more than the smaller caps.
    "mlp1": small_config(train=480, num_clients=2, participants=2).replace(
        "kind = logreg", "kind = mlp1\nhidden_dim = 8"
    ),
}


@pytest.mark.parametrize("name", sorted(STACK_CONFIGS))
def test_tables_do_not_depend_on_the_stack_rows(tmp_path, monkeypatch, name):
    # Kernel calls of one row up to the whole probe set, in the full-shard
    # stacks, the joint pass and the estimator's minibatch stacks, write the
    # same four tables.  Both models have rows 9 wide, so a budget of 9 cells
    # a row gives each cap.
    spec = parse_config_text(STACK_CONFIGS[name]).model
    caps = (1, 32, 100, stack_rows(spec), 4096)
    for cap in caps:
        monkeypatch.setattr(metrics, "STACK_CELLS", 9 * cap)
        assert stack_rows(spec) == cap
        emit_runlog(run_experiment(STACK_CONFIGS[name]), tmp_path / str(cap))
    for cap in caps[1:]:
        assert compare_runlogs(tmp_path / str(caps[0]), tmp_path / str(cap)) == []
