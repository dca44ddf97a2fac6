"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria with stated runtime budgets assert them.
"""

import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from fdilsim import (
    HyperParams,
    Minibatch,
    ModelSpec,
    PartitionSpec,
    bkt_bound,
    generate_sequence,
    loss_and_grad,
    param_count,
    partition_sequence,
    prox_map,
    proximal_blend,
    psi_residual,
    run_experiment,
    run_sequence,
    sample_clients,
)
from fdilsim.cli import main
from fdilsim.datagen import DomainShiftSpec
from fdilsim.metrics import acc, bwt
from fdilsim.models import accuracy
from fdilsim.server import EvalConfig
from fdilsim.theory import drift_bound
from conftest import small_config
from helpers import central_difference_grad, gradient_descent_minimize, psi_full_participation
from test_theory import (
    BKT_FROZEN,
    DRIFT_FROZEN,
    PSI_FROZEN,
    SCHED_GL_FROZEN,
    SCHED_GG_FROZEN,
    make_hp,
    step_rows,
    unit_consts,
)

TRIANGLE = ((0.0, 2.0), (-1.7320508075688772, -1.0), (1.7320508075688772, -1.0))


def report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {name}")


def two_task_problem(seed, rotation, lam, lr, rounds, train=240, test=600, cov=0.6):
    shift = DomainShiftSpec(
        num_tasks=2,
        base_class_means=TRIANGLE,
        class_cov_scale=cov,
        rotation_angle=rotation,
        mean_drift=0.0,
        train_samples_per_task=train,
        test_samples_per_task=test,
    )
    sequence = generate_sequence(shift, seed)
    shards = partition_sequence(sequence, PartitionSpec(8, 0.5, 2), seed)
    hp = HyperParams(
        num_clients=8,
        participants_per_round=4,
        rounds_per_task=rounds,
        local_epochs=5,
        batch_size=16,
        local_lr=lr,
        global_lr_schedule="task_decay",
        prox_lambda=lam,
        algorithm="special",
        master_seed=seed,
    )
    return ModelSpec("logreg", 2, 3), sequence, shards, hp


def test_criterion_01_fedavg_equivalence(tmp_path):
    start = time.monotonic()
    overrides = dict(
        num_tasks=2, rounds=20, epochs=5, num_clients=8, participants=4,
        prox_lambda=0.0, train=240, test=120, probes=4, draws=2,
    )
    cfg_a = tmp_path / "special.ini"
    cfg_a.write_text(
        small_config(algorithm="special", output_dir=str(tmp_path / "a"), **overrides),
        encoding="utf-8",
    )
    cfg_b = tmp_path / "fedavg.ini"
    cfg_b.write_text(
        small_config(algorithm="fedavg", output_dir=str(tmp_path / "b"), **overrides),
        encoding="utf-8",
    )
    assert main(["run", str(cfg_a)]) == 0
    assert main(["run", str(cfg_b)]) == 0
    assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, "special(lambda=0) and fedavg produce byte-identical run logs")


def test_criterion_02_drift_cap_compliance():
    start = time.monotonic()
    violations = 0
    checked = 0
    for lam in (0.25, 0.5, 1.0):
        for seed in range(20):
            spec, sequence, shards, hp = two_task_problem(
                seed, rotation=np.pi / 6, lam=lam, lr=0.05, rounds=20, test=120
            )
            log = run_sequence(spec, sequence, shards, hp)
            for i in range(2, sequence.num_tasks + 1):
                task = log.rounds.of_task(i)
                b_hat = max(task.grad_norm_max)
                cap = drift_bound(hp.gamma_g(i), hp.local_lr, hp.local_epochs, b_hat, lam)
                for drift_sq in task.drift_sq:
                    checked += 1
                    if drift_sq > cap:
                        violations += 1
    elapsed = time.monotonic() - start
    assert checked == 3 * 20 * 20
    assert violations == 0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    report(2, f"drift cap held in all {checked} anchored rounds across 60 runs")


def test_criterion_03_blend_and_prox_optimality():
    rng = np.random.default_rng(2025)
    dim = 3
    for kind in ("server", "client"):
        x = rng.standard_normal((1000, dim))
        anchor = rng.standard_normal((1000, dim))
        lams = rng.uniform(0.01, 5.0, size=(1000, 1))

        if kind == "server":
            closed = anchor + (x - anchor) / (1.0 + lams)
            check = np.stack([
                proximal_blend(x[i], anchor[i], float(lams[i, 0])) for i in range(1000)
            ])
            grad = lambda u: 2.0 * (u - x) + 2.0 * lams * (u - anchor)
            step = 0.9 / (2.0 * (1.0 + lams))

            def objective(u):
                return np.sum((u - x) ** 2, axis=1) + lams[:, 0] * np.sum(
                    (u - anchor) ** 2, axis=1
                )

            residual = 2.0 * (closed - x) + 2.0 * lams * (closed - anchor)
        else:
            closed = anchor + (x - anchor) / (1.0 + 2.0 * lams)
            check = np.stack([
                prox_map(x[i], anchor[i], float(lams[i, 0])) for i in range(1000)
            ])
            grad = lambda u: (u - x) + 2.0 * lams * (u - anchor)
            step = 0.9 / (1.0 + 2.0 * lams)

            def objective(u):
                return 0.5 * np.sum((u - x) ** 2, axis=1) + lams[:, 0] * np.sum(
                    (u - anchor) ** 2, axis=1
                )

            residual = (closed - x) + 2.0 * lams * (closed - anchor)

        assert np.array_equal(check, closed)
        # Stationarity of the closed form.
        assert np.max(np.linalg.norm(residual, axis=1)) <= 1e-10
        # The closed form beats 100 random perturbations of norm 1e-3.
        base = objective(closed)
        for _ in range(100):
            noise = rng.standard_normal((1000, dim))
            noise *= 1e-3 / np.linalg.norm(noise, axis=1, keepdims=True)
            assert np.all(objective(closed + noise) >= base)
        # And matches an independent numerical minimizer.
        numeric = gradient_descent_minimize(grad, np.zeros_like(x), step)
        assert np.max(np.abs(closed - numeric)) <= 1e-8
    report(3, "closed-form blend and prox are optimal on 1000 random triples each")


def test_criterion_04_gradient_exactness():
    rng = np.random.default_rng(77)
    specs = [
        ModelSpec("logreg", 2, 3),
        ModelSpec("logreg", 4, 2),
        ModelSpec("mlp1", 2, 3, hidden_dim=4),
        ModelSpec("mlp1", 3, 2, hidden_dim=5, activation="relu"),
    ]
    for trial in range(100):
        spec = specs[trial % len(specs)]
        params = rng.standard_normal(param_count(spec))
        batch = Minibatch(
            rng.standard_normal((6, spec.input_dim)),
            rng.integers(0, spec.num_classes, size=6),
        )
        _, grad = loss_and_grad(spec, params, batch)
        numeric = central_difference_grad(spec, params, batch, step=1e-5)
        rel = np.abs(grad - numeric) / np.maximum(1.0, np.abs(grad))
        assert rel.max() <= 1e-5, f"trial {trial}: {rel.max()}"
    report(4, "analytic gradients match central differences on 100 random triples")


def test_criterion_05_sampler_uniformity():
    draws = 100_000
    selected = sample_clients(8, 4, 424242, [(3, t) for t in range(draws)])
    counts = np.bincount(selected.ravel(), minlength=8)
    freqs = counts / draws
    assert np.all(np.abs(freqs - 0.5) <= 0.01), freqs
    report(5, f"inclusion frequencies {np.round(freqs, 4)} all within 0.50 +- 0.01")


def test_criterion_06_rounds_scaling_trend():
    start = time.monotonic()
    ratios = []
    for seed in range(5):
        mins = {}
        for rounds in (50, 200):
            spec, sequence, shards, hp = two_task_problem(
                seed, rotation=np.pi / 6, lam=0.25, lr=0.02, rounds=rounds, test=120
            )
            log = run_sequence(
                spec, sequence, shards, hp, EvalConfig(joint_grad_every=1)
            )
            mins[rounds] = min(log.rounds.of_task(2).joint_grad_sq)
        ratios.append(mins[200] / mins[50])
    mean_ratio = float(np.mean(ratios))
    elapsed = time.monotonic() - start
    assert mean_ratio <= 0.75, ratios
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    report(6, f"min joint grad at T=200 is {mean_ratio:.2f} x the T=50 value (<= 0.75)")


def test_criterion_07_lambda_sweep_trend():
    grid = [0.0, 0.25, 0.5, 1.0, 4.0]
    per_seed_acc = []
    per_seed_bwt = []
    for seed in range(5):
        accs, bwts = [], []
        for lam in grid:
            spec, sequence, shards, hp = two_task_problem(
                seed, rotation=np.pi / 2, lam=lam, lr=0.15, rounds=20, train=400
            )
            log = run_sequence(spec, sequence, shards, hp)
            accs.append(acc(log.accuracy))
            bwts.append(bwt(log.accuracy))
        per_seed_acc.append(accs)
        per_seed_bwt.append(bwts)

    mean_bwt = np.mean(per_seed_bwt, axis=0)
    rho = spearmanr(grid, mean_bwt).statistic
    assert rho >= 0.8, (rho, mean_bwt)

    interior = 0
    for accs in per_seed_acc:
        best = int(np.argmax(accs))
        if 0 < best < len(grid) - 1:
            interior += 1
    assert interior >= 3, per_seed_acc
    report(
        7,
        f"BWT monotone in lambda (spearman {rho:.2f}); ACC peaks at interior "
        f"lambda in {interior}/5 seeds",
    )


def test_criterion_08_anchor_dominance_limit():
    lam = 1e6
    spec, sequence, shards, hp = two_task_problem(
        25, rotation=np.pi / 3, lam=lam, lr=0.05, rounds=20
    )
    log = run_sequence(spec, sequence, shards, hp)
    theta1, theta2 = log.task_params[0], log.task_params[1]
    b_hat = max(log.rounds.of_task(2).grad_norm_max)
    cap = drift_bound(hp.gamma_g(2), hp.local_lr, hp.local_epochs, b_hat, lam)
    gap_sq = float(np.sum((theta2 - theta1) ** 2))
    assert gap_sq <= cap
    acc_anchor = accuracy(spec, theta1, sequence.task(1).test)
    acc_final = accuracy(spec, theta2, sequence.task(1).test)
    assert abs(acc_final - acc_anchor) <= 0.01
    report(8, f"lambda=1e6 pins the final model to the anchor (gap^2 {gap_sq:.2e} <= {cap:.2e})")


def test_criterion_09_aligned_task_bkt_sanity():
    drops = []
    for seed in range(5):
        spec, sequence, shards, hp = two_task_problem(
            seed, rotation=0.0, lam=0.25, lr=0.05, rounds=20
        )
        log = run_sequence(spec, sequence, shards, hp)
        drops.append(log.accuracy.get(1, 1) - log.accuracy.get(2, 1))
    assert max(drops) <= 0.05, drops

    # The correction term decreases monotonically in t under run estimates.
    overrides = dict(
        num_tasks=2, rotation_angle=0.0, prox_lambda=0.25, local_lr=0.05,
        rounds=20, joint_grad_every=1,
    )
    artifacts = run_experiment(small_config(**overrides))
    consts = artifacts.constants
    gprev = np.sqrt(artifacts.log.stats.grad_norm_prev_sq)
    assert consts.sigma_l > 0
    series = [
        bkt_bound(consts.eps_bkt, consts.sigma_l, gprev, 2, t, 5, 8, 4, consts.L, consts.B)
        for t in range(1, 21)
    ]
    assert all(a > b for a, b in zip(series, series[1:]))
    report(9, f"no forgetting on aligned tasks (worst drop {max(drops):+.3f}); correction term monotone in t")


def test_criterion_10_formula_regressions():
    psi = psi_residual(unit_consts(), make_hp(), 2, 1.0)
    assert abs(psi - PSI_FROZEN) <= 1e-12 * PSI_FROZEN

    value = bkt_bound(0.5, 1.0, 2.0, 3, 10, 5, 8, 4, 2.0, 1.5)
    assert abs(value - BKT_FROZEN) <= 1e-12 * BKT_FROZEN

    drift = drift_bound(1.0, 0.1, 5, 2.0, 0.5)
    assert abs(drift - DRIFT_FROZEN) <= 1e-12 * DRIFT_FROZEN

    rows = step_rows(make_hp(local_lr=0.001), unit_consts(eps_bkt=1.0), 5, 1.0)
    suggested_gl = rows["suggested_schedule_gamma_l"].analytical
    suggested_gg = rows["suggested_schedule_gamma_g"].analytical
    assert abs(suggested_gl - SCHED_GL_FROZEN) <= 1e-12 * SCHED_GL_FROZEN
    assert abs(suggested_gg - SCHED_GG_FROZEN) <= 1e-12 * SCHED_GG_FROZEN

    for lam in (0.1, 0.25, 1.0, 3.0):
        hp = make_hp(participants_per_round=8, prox_lambda=lam)
        consts = unit_consts(B=1.3, L=0.8, sigma_l=0.5, sigma_g=1.1, sigma_t=0.9)
        assert psi_residual(consts, hp, 3, 0.4) == psi_full_participation(consts, hp, 3, 0.4)
    report(10, "all bound formulas match independently frozen constants to 1e-12")


def test_criterion_11_end_to_end_determinism(tmp_path):
    config = tmp_path / "config.ini"
    config.write_text(small_config(output_dir=str(tmp_path / "r1")), encoding="utf-8")
    assert main(["run", str(config)]) == 0
    assert main(["run", str(config), "--out", str(tmp_path / "r2")]) == 0
    assert main(["compare", str(tmp_path / "r1"), str(tmp_path / "r2")]) == 0
    report(11, "repeated runs are byte-identical")
