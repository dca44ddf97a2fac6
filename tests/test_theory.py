import math
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fdilsim import (
    ClientShard,
    ConstantEstimates,
    HyperParams,
    Minibatch,
    ModelSpec,
    PartitionSpec,
    ProbeConfig,
    Rounds,
    TaskSequence,
    bkt_bound,
    build_bound_reports,
    drift_bound,
    estimate_constants,
    generate_sequence,
    partition_sequence,
    psi_residual,
)
from fdilsim import theory
from fdilsim.config import parse_config
from fdilsim.datagen import TaskData
from fdilsim.runio import BOUND_COLUMNS, _write_rows
from fdilsim.server import ALGORITHMS, SCHEDULES, RunStats
from fdilsim.theory import OVERFLOW, UNDERFLOW, ProbeScaleError, _bkt_gamma_l_cap, _cosines, evaluate
from fdilsim.models import param_count
from test_datagen import make_shift
from helpers import (
    _cosine,
    REFERENCE_BOUND_ERRORS,
    build_bound_reports_reference,
    estimate_constants_loop,
    psi_full_participation,
    reference_bound_flags,
)

ROOT = Path(__file__).resolve().parent.parent
SPEC = ModelSpec("logreg", 2, 3)

# Frozen by an independent exact-fraction evaluation of the same expressions
# (fractions.Fraction arithmetic; see the value comments).
PSI_FROZEN = 13.777371428571428  # = 60276/4375 for the inputs below
BKT_FROZEN = 0.0001388888888888889  # = 1/7200 for the inputs below
DRIFT_FROZEN = 4.0
SCHED_GL_FROZEN = 0.00223606797749979  # 0.25 / (sqrt(500) * 5)
SCHED_GG_FROZEN = 4.47213595499958  # sqrt(20) / ((5-1) * 0.25)


def unit_consts(**overrides):
    base = dict(
        B=1.0, L=1.0, sigma_l=1.0, sigma_g=1.0, sigma_t=1.0,
        eps_bkt=0.5, eps_corr=0.5, num_probe_points=1, num_minibatch_draws=1,
    )
    base.update(overrides)
    return ConstantEstimates(**base)


def make_hp(**overrides):
    base = dict(
        num_clients=8,
        participants_per_round=4,
        rounds_per_task=100,
        local_epochs=5,
        batch_size=32,
        local_lr=0.01,
        global_lr_schedule="constant",
        global_lr=1.0,
        prox_lambda=0.25,
        algorithm="special",
        master_seed=0,
    )
    base.update(overrides)
    return HyperParams(**base)


def step_rows(hp, consts, k, grad_norm_prev):
    """The bound rows of a run with these settings, by name, evaluated at t = rounds_per_task.

    The step-size and suggested-schedule rows read no round entry.
    """
    n = k * hp.rounds_per_task
    rounds = Rounds(
        task=[i for i in range(1, k + 1) for _ in range(hp.rounds_per_task)],
        round=list(range(hp.rounds_per_task)) * k,
        selected=[(0,)] * n, delta_norm=[0.0] * n, drift_sq=[0.0] * n,
        joint_grad_sq=[None] * n, prev_task_loss=[None] * n,
        grad_norm_max=[1.0] * n, grad_sq_mean=[1.0] * n, accuracies=[None] * n,
    )
    stats = RunStats(grad_norm_prev_sq=grad_norm_prev ** 2)
    reports = build_bound_reports(SPEC, hp, k, rounds, consts, stats)
    return {report.name: report for report in reports}


# --- drift bound ------------------------------------------------------------

def test_drift_bound_formula():
    assert drift_bound(1.0, 0.1, 5, 2.0, 0.5) == pytest.approx(DRIFT_FROZEN, rel=1e-12)
    assert drift_bound(1.0, 0.1, 5, 0.0, 0.5) == 0.0
    assert drift_bound(1.0, 0.1, 5, 2.0, 0.0) == math.inf
    with pytest.raises(ValueError):
        drift_bound(1.0, 0.1, 5, 2.0, -1.0)


def test_drift_bound_lambda_scaling():
    one = drift_bound(1.0, 0.1, 5, 2.0, 0.5)
    two = drift_bound(1.0, 0.1, 5, 2.0, 1.0)
    assert two == pytest.approx(one / 4.0, rel=1e-12)
    lams = [0.25, 0.5, 1.0, 2.0]
    values = [drift_bound(1.0, 0.1, 5, 2.0, lam) for lam in lams]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_bound_calculators_report_overflow_as_inf():
    assert evaluate(drift_bound, 1.0, 1e300, 5, 2.0, 0.5) == (math.inf, OVERFLOW)
    assert evaluate(bkt_bound, 0.5, 1e300, 2.0, 3, 10, 5, 8, 4, 2.0, 1.5) == (math.inf, OVERFLOW)
    assert evaluate(psi_residual, unit_consts(), make_hp(local_lr=1e300), 2, 1.0) == (math.inf, OVERFLOW)
    row = step_rows(make_hp(prox_lambda=1e300), unit_consts(), 2, 1.0)["stepsize_bkt_gamma_l"]
    assert row.analytical == math.inf and row.satisfied


@pytest.mark.parametrize("lam", [1e-200, 5e-324])
def test_tiny_lambda_reports_underflowed_divisors_as_overflow(lam):
    # lambda ** 2 underflows to 0.0, and so does (K - 1) * lambda * L at
    # 5e-324 with K = 2 and L = 0.3: each division used to raise
    # ZeroDivisionError.
    assert lam ** 2 == 0.0
    assert evaluate(drift_bound, 1.0, 0.1, 5, 2.0, lam) == (math.inf, OVERFLOW)
    assert evaluate(psi_residual, unit_consts(), make_hp(prox_lambda=lam), 2, 1.0) == (math.inf, OVERFLOW)
    row = step_rows(make_hp(prox_lambda=lam), unit_consts(L=0.3), 2, 1.0)["suggested_schedule_gamma_g"]
    if lam == 5e-324:
        assert (row.analytical, row.vacuous) == (math.inf, OVERFLOW)
    else:
        assert math.isfinite(row.analytical) and row.vacuous is None


def test_formula_that_evaluates_to_inf_is_flagged_and_inf_by_design_is_not():
    # lambda ** 2 = 1e-320 is subnormal, not 0: the quotients become inf
    # through "/" without raising.  2.0 * 1e308 becomes inf through "*".
    assert evaluate(drift_bound, 1.0, 0.1, 5, 2.0, 1e-160) == (math.inf, OVERFLOW)
    assert evaluate(psi_residual, unit_consts(), make_hp(prox_lambda=1e-160), 2, 1.0) == (math.inf, OVERFLOW)
    assert evaluate(bkt_bound, 1.0, 1e154, 1e154, 2, 1, 1, 1, 1, 1.0, 1.0) == (math.inf, OVERFLOW)
    # No anchor at lambda = 0: the drift cap and psi's drift term are inf by design.
    assert evaluate(drift_bound, 1.0, 0.1, 5, 2.0, 0.0) == (math.inf, None)
    assert evaluate(psi_residual, unit_consts(), make_hp(prox_lambda=0.0), 2, 1.0) == (math.inf, None)
    assert evaluate(drift_bound, 1.0, 0.1, 5, 2.0, 0.5)[1] is None


def test_formula_that_rounds_to_zero_is_flagged_and_zero_by_a_factor_is_not():
    # gamma_l ** 2 = 1e-600 rounds to 0.0, though no factor is 0.
    assert evaluate(drift_bound, 0.5, 1e-300, 5, 2.0, 0.25) == (0.0, UNDERFLOW)
    assert evaluate(bkt_bound, 0.5, 1e-200, 2.0, 3, 10, 5, 8, 4, 2.0, 1.5) == (0.0, UNDERFLOW)
    # A zero factor makes the cap exactly 0, and a tiny cap that is
    # representable is not masked.
    assert evaluate(drift_bound, 0.5, 1e-300, 5, 0.0, 0.25) == (0.0, None)
    assert evaluate(bkt_bound, 0.5, 0.0, 2.0, 3, 10, 5, 8, 4, 2.0, 1.5) == (0.0, None)
    cap, flag = evaluate(drift_bound, 0.5, 1e-20, 5, 2.063481500700561, 0.25)
    assert 0.0 < cap < 1e-37 and flag is None
    # At lambda = 5e-324 m * E / (lambda ** 2 + 2 * lambda) overflows, but
    # the retention cap on the local rate is representable.
    cap, flag = evaluate(_bkt_gamma_l_cap, 0.5, 1.0, 1.0, 1.0, 5, 20, 8, 5e-324)
    assert cap == pytest.approx(4.97e-165, rel=1e-3) and flag is None


# --- backward-transfer correction -------------------------------------------

def test_bkt_bound_frozen_regression():
    value = bkt_bound(0.5, 1.0, 2.0, 3, 10, 5, 8, 4, 2.0, 1.5)
    assert value == pytest.approx(BKT_FROZEN, rel=1e-12)


def test_bkt_bound_examples_and_scaling():
    assert bkt_bound(0.5, 0.0, 2.0, 3, 10, 5, 8, 4, 2.0, 1.5) == 0.0
    t1 = bkt_bound(0.5, 1.0, 2.0, 3, 10, 5, 8, 4, 2.0, 1.5)
    t2 = bkt_bound(0.5, 1.0, 2.0, 3, 20, 5, 8, 4, 2.0, 1.5)
    assert t2 == pytest.approx(t1 / 2.0, rel=1e-12)
    for arg_index in (5, 6, 7):  # E, M, N monotone decreasing
        args = [0.5, 1.0, 2.0, 3, 10, 5, 8, 4, 2.0, 1.5]
        small = bkt_bound(*args)
        args[arg_index] *= 2
        assert bkt_bound(*args) < small


def test_bkt_bound_full_participation_reduction():
    # At N=M the denominator carries M^2.
    partial = bkt_bound(0.5, 1.0, 2.0, 3, 10, 5, 8, 8, 2.0, 1.5)
    full = 2 * 0.5**2 * 1.0**2 * 2.0**2 / ((3 - 1) * 10 * 5 * 8**2 * 2.0 * 1.5**2)
    assert partial == pytest.approx(full, rel=1e-12)


def test_bkt_bound_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        bkt_bound(0.5, 1.0, 2.0, 1, 10, 5, 8, 4, 2.0, 1.5)
    with pytest.raises(ValueError):
        bkt_bound(0.5, 1.0, 2.0, 3, 0, 5, 8, 4, 2.0, 1.5)
    with pytest.raises(ValueError):
        bkt_bound(0.5, 1.0, 2.0, 3, 10, 5, 8, 4, 0.0, 1.5)


# --- convergence residual -----------------------------------------------------

def test_psi_frozen_regression():
    value = psi_residual(unit_consts(), make_hp(), 2, 1.0)
    assert value == pytest.approx(PSI_FROZEN, rel=1e-12)


def test_psi_full_participation_equality_is_exact():
    for lam in (0.1, 0.25, 1.0, 3.0):
        for k in (2, 3, 5):
            hp = make_hp(participants_per_round=8, prox_lambda=lam)
            consts = unit_consts(B=1.7, L=0.9, sigma_l=0.4, sigma_g=1.2, sigma_t=0.8)
            assert psi_residual(consts, hp, k, 0.7) == psi_full_participation(
                consts, hp, k, 0.7
            )


def test_psi_zero_constants_give_zero():
    consts = unit_consts(B=0.0, sigma_l=0.0, sigma_g=0.0, sigma_t=0.0)
    assert psi_residual(consts, make_hp(), 2, 0.0) == 0.0


def test_psi_partial_terms_shrink_toward_full_participation():
    consts = unit_consts()
    values = [
        psi_residual(consts, make_hp(participants_per_round=n), 2, 1.0)
        for n in (2, 4, 6, 8)
    ]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_psi_lambda_zero_is_vacuous():
    assert psi_residual(unit_consts(), make_hp(prox_lambda=0.0), 2, 1.0) == math.inf


def test_psi_rejects_oversampling():
    # N > M cannot be built via HyperParams, so force the inconsistent state
    # to exercise the guard.
    hp = make_hp()
    object.__setattr__(hp, "participants_per_round", 9)
    with pytest.raises(ValueError):
        psi_residual(unit_consts(), hp, 2, 1.0)


# --- step sizes ---------------------------------------------------------------

def test_step_size_caps():
    rows = step_rows(make_hp(local_lr=0.001), unit_consts(eps_bkt=1.0), 2, 1.0)
    assert rows["stepsize_conv_gamma_l"].analytical == pytest.approx(1.0 / 40.0, rel=1e-12)
    assert rows["stepsize_conv_gamma_g"].analytical == pytest.approx(1.0, rel=1e-12)
    assert rows["stepsize_conv_product"].analytical == pytest.approx(1.25 / 15.0, rel=1e-12)
    assert all(rows[f"stepsize_conv_{name}"].satisfied for name in ("gamma_l", "gamma_g", "product"))
    assert rows["stepsize_bkt_gamma_g"].analytical == pytest.approx(0.5, rel=1e-12)


def test_suggested_schedule_frozen():
    rows = step_rows(make_hp(local_lr=0.001), unit_consts(eps_bkt=1.0), 5, 1.0)
    assert rows["suggested_schedule_gamma_l"].analytical == pytest.approx(SCHED_GL_FROZEN, rel=1e-12)
    assert rows["suggested_schedule_gamma_g"].analytical == pytest.approx(SCHED_GG_FROZEN, rel=1e-12)


def test_bkt_cap_shrinks_with_round():
    early = step_rows(make_hp(rounds_per_task=1), unit_consts(), 2, 1.0)["stepsize_bkt_gamma_l"]
    late = step_rows(make_hp(), unit_consts(), 2, 1.0)["stepsize_bkt_gamma_l"]
    assert late.analytical == pytest.approx(early.analytical / 100.0, rel=1e-12)


# --- the bound table against the hand-assembled reference ---------------------

# 0, +inf and magnitudes from 1e-300 to 1e300, with moderate values weighted up
# so that the premises of the step-size and sigma_T rows hold often.
MAGNITUDES = st.one_of(
    st.sampled_from([0.0, math.inf]), st.floats(1e-300, 1e300), st.floats(1e-3, 1e3)
)
SIGNED = st.one_of(MAGNITUDES, MAGNITUDES.map(lambda x: -x), st.floats(-1.0, 1.0))
RATES = st.one_of(st.floats(1e-300, 1e300), st.floats(1e-4, 1.0), st.just(5e-324))


@st.composite
def bound_inputs(draw):
    """Rounds, constants, hyperparameters and stats of a run, as the bound builder reads them.

    Norms and losses are >= 0, a sigma is the root of a drawn value (as the
    estimator makes it), and the best joint loss is at most the start loss.
    """
    k, rounds = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    hp = HyperParams(
        num_clients=m,
        participants_per_round=draw(st.integers(1, m)),
        rounds_per_task=rounds,
        local_epochs=draw(st.integers(1, 6)),
        local_lr=draw(RATES),
        batch_size=1,
        global_lr_schedule=draw(st.sampled_from(SCHEDULES)),
        global_lr=draw(RATES),
        prox_lambda=draw(st.one_of(st.just(0.0), RATES)),
        algorithm=draw(st.sampled_from(("special",) + ALGORITHMS)),
    )
    mlp = ModelSpec("mlp1", 2, 3, hidden_dim=4)
    spec = draw(st.sampled_from([SPEC, mlp, replace(mlp, activation="relu")]))
    # Each task's largest drift and local gradient norm are in its first round;
    # only task K's joint gradients and earlier-task losses are read.
    optional = st.one_of(st.none(), MAGNITUDES)
    n = k * rounds
    columns = Rounds(
        task=[i for i in range(1, k + 1) for _ in range(rounds)], round=list(range(rounds)) * k,
        selected=[(0,)] * n, delta_norm=[0.0] * n, grad_sq_mean=[0.0] * n, accuracies=[None] * n,
    )
    for i in range(1, k + 1):
        drift, grad_norm = draw(MAGNITUDES), draw(MAGNITUDES)
        columns.drift_sq += [drift] + [0.0] * (rounds - 1)
        columns.grad_norm_max += [grad_norm] + [0.0] * (rounds - 1)
        if i < k:
            columns.joint_grad_sq += [None] * rounds
            columns.prev_task_loss += [None] * rounds
    columns.joint_grad_sq += draw(st.lists(optional, min_size=rounds, max_size=rounds))
    columns.prev_task_loss += draw(st.lists(optional, min_size=rounds, max_size=rounds))
    root = MAGNITUDES.map(math.sqrt)
    consts = ConstantEstimates(
        B=draw(MAGNITUDES), L=draw(MAGNITUDES), sigma_l=draw(root), sigma_g=draw(root),
        sigma_t=draw(root), eps_bkt=draw(SIGNED), eps_corr=draw(SIGNED),
        num_probe_points=2, num_minibatch_draws=1,
    )
    f_joint_start = draw(MAGNITUDES)
    best = st.one_of(st.just(f_joint_start), st.floats(0.0, f_joint_start))
    stats = RunStats(
        grad_norm_prev_sq=draw(MAGNITUDES),
        f_prev_start=draw(MAGNITUDES),
        f_joint_start=f_joint_start,
        best_joint_loss=draw(st.one_of(st.none(), best)),
    )
    return spec, hp, k, columns, consts, stats


@settings(max_examples=200, deadline=None)
@given(inputs=bound_inputs())
def test_bound_table_matches_the_hand_assembled_reference(inputs):
    rows = _write_rows(build_bound_reports(*inputs), BOUND_COLUMNS)
    try:
        expected = _write_rows(build_bound_reports_reference(*inputs), BOUND_COLUMNS)
    except REFERENCE_BOUND_ERRORS as exc:
        # The reference raised: a divisor of the vanishing term or of the
        # retention correction underflowed to 0, or B ** 2 overflowed in a
        # sigma_T cap.  The table completes and flags such a cap.
        assert any(row.endswith(";vacuous=overflow") for row in rows)
        event(f"reference raised {type(exc).__name__}")
        return
    for flag in reference_bound_flags(rows, expected):
        event(flag)


# --- sigma_t alignment cap --------------------------------------------------

def test_sigma_t_forms():
    # The linear form (3 - 2e) * B^2 and the tighter max(B^2, 2(1 - e) B^2)
    # of a direct expansion, at B = 1, as the builder writes them.
    def forms(eps_corr):
        rows = step_rows(make_hp(), unit_consts(B=1.0, eps_corr=eps_corr), 2, 1.0)
        stated, derived = rows["sigma_t_cap_stated"], rows["sigma_t_cap_derived"]
        assert stated.inputs == derived.inputs
        return stated.analytical, derived.analytical, stated.inputs

    assert forms(1.0) == (1.0, 1.0, "eps_corr=1.0;forms_agree")
    assert forms(0.5) == (2.0, 1.0, "eps_corr=0.5;forms_differ")
    stated, derived, inputs = forms(1e-9)
    assert stated == pytest.approx(3.0) and derived == pytest.approx(2.0)
    assert inputs == "eps_corr=1e-09;forms_differ"


# --- constant estimation ----------------------------------------------------------

def batch(inputs, labels):
    return Minibatch(np.array(inputs, dtype=float), np.array(labels))


def single_client_sequence():
    data = batch([[0.4, 0.1], [-1.0, 0.7], [0.3, -0.5], [1.2, 0.8]], [0, 1, 2, 0])
    task = TaskData(1, np.zeros((3, 2)), 1.0, data, data)
    sequence = TaskSequence([task])
    shards = [[ClientShard(1, 0, data)]]
    return sequence, shards


def test_single_client_full_batch_probes_have_no_noise():
    sequence, shards = single_client_sequence()
    cfg = ProbeConfig(num_random_probes=4, minibatch_draws=3, batch_size=100)
    consts = estimate_constants(SPEC, sequence, shards, cfg, seed=1)
    assert consts.sigma_l == 0.0
    assert consts.sigma_g == 0.0
    assert consts.sigma_t == 0.0
    assert consts.B > 0.0
    assert consts.L > 0.0


def test_identical_tasks_have_zero_task_gap():
    data = batch([[0.4, 0.1], [-1.0, 0.7], [0.3, -0.5]], [0, 1, 2])
    task1 = TaskData(1, np.zeros((3, 2)), 1.0, data, data)
    task2 = TaskData(2, np.zeros((3, 2)), 1.0, data, data)
    sequence = TaskSequence([task1, task2])
    shards = [[ClientShard(1, 0, data)], [ClientShard(2, 0, data)]]
    cfg = ProbeConfig(num_random_probes=5, minibatch_draws=2, batch_size=100)
    consts = estimate_constants(SPEC, sequence, shards, cfg, seed=2)
    assert consts.sigma_t <= 1e-10
    assert consts.eps_corr >= 1.0 - 1e-12


def test_minimum_probe_count_enforced():
    sequence, shards = single_client_sequence()
    cfg = ProbeConfig(num_random_probes=1, minibatch_draws=1)
    with pytest.raises(ValueError):
        estimate_constants(SPEC, sequence, shards, cfg, seed=1)
    # A single random probe plus one checkpoint is enough.
    consts = estimate_constants(
        SPEC, sequence, shards, cfg, seed=1, checkpoints=(np.zeros(9),)
    )
    assert consts.num_probe_points == 2


def test_probe_growth_never_shrinks_suprema():
    shift = make_shift(num_tasks=2, rotation=0.6, train=120, test=60)
    sequence = generate_sequence(shift, seed=5)
    shards = partition_sequence(
        sequence, PartitionSpec(num_clients=3, dirichlet_alpha=0.5), seed=5
    )
    small = estimate_constants(
        SPEC, sequence, shards, ProbeConfig(num_random_probes=5, minibatch_draws=2), seed=9
    )
    large = estimate_constants(
        SPEC, sequence, shards, ProbeConfig(num_random_probes=10, minibatch_draws=2), seed=9
    )
    assert large.B >= small.B
    assert large.L >= small.L
    assert large.sigma_l >= small.sigma_l
    assert large.sigma_g >= small.sigma_g
    assert large.sigma_t >= small.sigma_t
    assert large.eps_bkt <= small.eps_bkt
    assert large.eps_corr <= small.eps_corr


def test_zero_shift_task_gap_is_sampling_noise_only():
    # With no rotation or drift the tasks share a distribution, so the
    # inter-task gradient gap collapses to sampling noise: far below the gap
    # measured under a genuine domain shift of the same size.
    part = PartitionSpec(num_clients=3, dirichlet_alpha=0.5)
    cfg = ProbeConfig(num_random_probes=8, minibatch_draws=2)

    aligned = generate_sequence(make_shift(num_tasks=2, rotation=0.0, train=400), seed=3)
    shifted = generate_sequence(
        make_shift(num_tasks=2, rotation=np.pi / 2, train=400), seed=3
    )
    gap_aligned = estimate_constants(
        SPEC, aligned, partition_sequence(aligned, part, seed=3), cfg, seed=3
    ).sigma_t
    gap_shifted = estimate_constants(
        SPEC, shifted, partition_sequence(shifted, part, seed=3), cfg, seed=3
    ).sigma_t
    assert gap_aligned <= gap_shifted / 3.0


def test_smoothness_estimate_stable_near_quadratic_region():
    # Logistic loss near the origin is locally quadratic; probing a small
    # neighborhood should give a stable curvature estimate.
    sequence, shards = single_client_sequence()
    small = estimate_constants(
        SPEC, sequence, shards,
        ProbeConfig(num_random_probes=10, minibatch_draws=1, probe_scale=0.05),
        seed=11,
    )
    large = estimate_constants(
        SPEC, sequence, shards,
        ProbeConfig(num_random_probes=100, minibatch_draws=1, probe_scale=0.05),
        seed=11,
    )
    assert abs(large.L - small.L) / large.L <= 0.2


# --- stacked estimator against the scalar loop --------------------------------

MLP_RELU = ModelSpec("mlp1", 2, 3, hidden_dim=6, activation="relu")


def probe_problem(seed, num_tasks=3, num_clients=6, min_samples=2, train=150, alpha=0.3):
    sequence = generate_sequence(make_shift(num_tasks=num_tasks, rotation=0.5, train=train), seed)
    part = PartitionSpec(num_clients=num_clients, dirichlet_alpha=alpha, min_samples_per_client=min_samples)
    return sequence, partition_sequence(sequence, part, seed)


def assert_matches_loop(spec, sequence, shards, cfg, seed, checkpoints=()):
    stacked = estimate_constants(spec, sequence, shards, cfg, seed, checkpoints)
    loop = estimate_constants_loop(spec, sequence, shards, cfg, seed, checkpoints)
    assert stacked == loop
    assert repr(stacked) == repr(loop)
    return stacked


PROBES = ProbeConfig(num_random_probes=5, minibatch_draws=3, batch_size=8)


@pytest.mark.parametrize("seed", [1, 7, 25, 1234])
@pytest.mark.parametrize(
    "spec, cfg",
    [
        pytest.param(SPEC, PROBES, id="spec0"),
        pytest.param(MLP_RELU, PROBES, id="spec1"),
        pytest.param(ModelSpec("mlp1", 2, 3, hidden_dim=5), PROBES, id="spec2"),
        # d = 195, as in the wide profile.
        pytest.param(ModelSpec("mlp1", 2, 3, hidden_dim=32), PROBES, id="hidden32"),
        # Probe points this large give NaN gradients, which set no extreme.
        pytest.param(SPEC, replace(PROBES, probe_scale=5e307), id="nan-logreg"),
        pytest.param(MLP_RELU, replace(PROBES, probe_scale=1e306), id="nan-relu"),
        # From 8 draws on, np.sum would add a client's draws pairwise.
        pytest.param(SPEC, replace(PROBES, minibatch_draws=12), id="draws12-logreg"),
        pytest.param(MLP_RELU, replace(PROBES, minibatch_draws=12), id="draws12-relu"),
    ],
)
def test_estimator_equals_scalar_loop(seed, spec, cfg):
    sequence, shards = probe_problem(seed)
    rng = np.random.default_rng(seed)
    checkpoints = tuple(rng.standard_normal(param_count(spec)) for _ in range(2))
    with np.errstate(all="ignore"):
        assert_matches_loop(spec, sequence, shards, cfg, seed, checkpoints)


def test_estimator_builds_one_pool_per_task_with_a_drawing_shard(monkeypatch):
    # At this probe batch the middle task's shards are all used whole.
    sequence, shards = probe_problem(9)
    largest = [max(len(shard.data) for shard in task) for task in shards]
    size = min(largest)
    assert largest.index(size) == 1 and largest.count(size) == 1
    built = []
    real_pool = theory.task_pool

    def recording_pool(task_shards):
        # The previous task's pool is released before the next one is built.
        assert all(ref() is None for _, ref in built)
        pool = real_pool(task_shards)
        built.append((task_shards, weakref.ref(pool)))
        return pool

    monkeypatch.setattr(theory, "task_pool", recording_pool)
    cfg = ProbeConfig(num_random_probes=3, minibatch_draws=2, batch_size=size)
    assert_matches_loop(SPEC, sequence, shards, cfg, 9)
    assert [task_shards for task_shards, _ in built] == [shards[0], shards[2]]


def test_cosines_equal_the_loop_on_edge_rows():
    rows = np.array([
        [0.0, 0.0], [1e-170, 0.0], [1e200, 1e200], [3.0, -4.0], [np.nan, 1.0],
        [1e10, 0.0], [-2.0, 1e-300], [0.0, 5.0], [np.inf, 1.0],
    ])
    u, v = np.repeat(rows, len(rows), axis=0), np.tile(rows, (len(rows), 1))
    with np.errstate(all="ignore"):
        expected = [c for a, b in zip(u, v) if (c := _cosine(a, b)) is not None]
        # A norm that underflows to 0 skips its pairs, as a zero vector does.
        assert repr(_cosines(u, v)) == repr(expected)
        assert repr(_cosines(rows[3], rows)) == repr(
            [c for b in rows if (c := _cosine(rows[3], b)) is not None]
        )


def test_overflowing_probe_point_names_the_probe_scale():
    sequence, shards = probe_problem(1)
    message = r"^probe\.probe_scale: 1e\+308 overflows random probe point \d+$"
    with np.errstate(over="ignore"), pytest.raises(ProbeScaleError, match=message):
        estimate_constants(SPEC, sequence, shards, ProbeConfig(probe_scale=1e308), 1)


@pytest.mark.parametrize("spec", [SPEC, MLP_RELU])
def test_estimator_equals_scalar_loop_on_one_row_shards(spec):
    sequence, shards = probe_problem(3, num_clients=24, min_samples=1, train=60, alpha=0.1)
    assert min(len(shard.data) for task in shards for shard in task) == 1
    for batch_size in (1, 4, 1000):  # 1000 covers every shard whole
        cfg = ProbeConfig(num_random_probes=4, minibatch_draws=2, batch_size=batch_size)
        assert_matches_loop(spec, sequence, shards, cfg, seed=3)


def test_estimator_equals_scalar_loop_for_a_single_task():
    sequence, shards = probe_problem(5, num_tasks=1)
    consts = assert_matches_loop(SPEC, sequence, shards, ProbeConfig(num_random_probes=4), 5)
    assert consts.eps_bkt == 1.0 and consts.eps_corr == 1.0 and consts.sigma_t == 0.0


def test_estimator_equals_scalar_loop_with_repeated_or_only_checkpoints():
    sequence, shards = probe_problem(9)
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal(9), rng.standard_normal(9)
    # Zero-gap pairs of a repeated checkpoint are skipped by the L estimate.
    assert_matches_loop(SPEC, sequence, shards, ProbeConfig(num_random_probes=3), 9, (a, a, b))
    only = assert_matches_loop(SPEC, sequence, shards, ProbeConfig(num_random_probes=0), 9, (a, b))
    assert only.num_probe_points == 2


@pytest.mark.parametrize("num_tasks", [4, 6])
@pytest.mark.parametrize("spec", [SPEC, ModelSpec("mlp1", 2, 3, hidden_dim=5), MLP_RELU])
def test_estimator_equals_scalar_loop_on_longer_sequences(spec, num_tasks):
    sequence, shards = probe_problem(num_tasks, num_tasks=num_tasks, num_clients=5)
    rng = np.random.default_rng(num_tasks)
    checkpoints = tuple(rng.standard_normal(param_count(spec)) for _ in range(num_tasks + 1))
    assert_matches_loop(spec, sequence, shards, PROBES, num_tasks, checkpoints)
    # Repeated checkpoints: a run whose model stays put over several tasks
    # gives zero gaps between them, which the L estimate skips.
    a, b, c = checkpoints[:3]
    repeated = (a, a, b, b, b, c, a)[: num_tasks + 1]
    consts = assert_matches_loop(spec, sequence, shards, PROBES, num_tasks, repeated)
    assert consts.num_probe_points == num_tasks + 1 + PROBES.num_random_probes


def test_estimator_memory_does_not_grow_with_the_task_count():
    # The estimator holds one task's full-shard gradients at a time, so its
    # peak is set by one task's block and minibatch pass, not by K.
    config = parse_config(ROOT / "profiles" / "default.ini")
    spec = ModelSpec("mlp1", 2, 3, hidden_dim=16)
    part = replace(config.partition, num_clients=32)
    cfg = replace(config.probe, num_random_probes=16)

    def traced_peak(num_tasks):
        sequence = generate_sequence(replace(config.shift, num_tasks=num_tasks), 25)
        shards = partition_sequence(sequence, part, 25)
        tracemalloc.start()
        try:
            estimate_constants(spec, sequence, shards, cfg, 25)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(8) <= 1.5 * traced_peak(2)
