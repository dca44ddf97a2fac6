"""End-to-end experiment orchestration.

``run_experiment`` turns a config text into the complete run artifacts:
the protocol trajectory, constant estimates probed on the generated data
(random probe points plus the trajectory checkpoints), and the table of
bound reports.  The bound builder is a pure function of persistable inputs,
so a verifier can reconstruct the table from files alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .config import ExperimentConfig, parse_config_text
from .datagen import generate_sequence, partition_sequence
from .models import ModelSpec
from .server import HyperParams, RoundRecord, RunLog, RunStats, run_sequence
from .theory import (
    BoundReport,
    ConstantEstimates,
    bkt_bound,
    check_step_sizes,
    drift_bound,
    estimate_constants,
    psi_residual,
    sigma_t_alignment_bounds,
)


@dataclass
class RunArtifacts:
    """Everything a run persists: trajectory, constants, reports, config."""

    config: ExperimentConfig
    config_text: str
    log: RunLog
    constants: ConstantEstimates
    reports: list[BoundReport]


def effective_lambda(hp: HyperParams) -> float:
    """Proximal weight actually applied at the server.

    Only the server-anchored algorithm blends; for the others the anchor
    bounds are evaluated at lambda = 0 (vacuous).
    """
    return hp.prox_lambda if hp.algorithm == "special" else 0.0


def _overflow_note(overflowed: bool) -> str:
    """Marks a row whose cap is inf only because its evaluation overflowed."""
    return ";vacuous=overflow" if overflowed else ""


def build_bound_reports(
    spec: ModelSpec,
    hp: HyperParams,
    num_tasks: int,
    records: list[RoundRecord],
    consts: ConstantEstimates,
    stats: RunStats,
) -> list[BoundReport]:
    """Evaluate every bound against the logged trajectory."""
    reports: list[BoundReport] = []
    lam = effective_lambda(hp)
    k = num_tasks
    e, gl = hp.local_epochs, hp.local_lr
    m, n = hp.num_clients, hp.participants_per_round

    for i in range(1, k + 1):
        task_records = [r for r in records if r.task == i]
        b_hat = max(r.grad_norm_max for r in task_records)
        worst = max(r.drift_sq for r in task_records)
        overflowed = False
        if i >= 2:
            cap, overflowed = drift_bound.checked(hp.gamma_g(i), gl, e, b_hat, lam)
            satisfied = worst <= cap
        else:
            # First task trains without an anchor; the drift cap is vacuous.
            cap = math.inf
            satisfied = True
        reports.append(
            BoundReport(
                name=f"drift_cap_task_{i}",
                analytical=cap,
                empirical=worst,
                satisfied=satisfied,
                inputs=f"gamma_g={hp.gamma_g(i)!r};gamma_l={gl!r};E={e};B_hat={b_hat!r};lambda={lam!r}"
                + _overflow_note(overflowed),
            )
        )

    if k >= 2:
        gprev = math.sqrt(stats.grad_norm_prev_sq)
        tracked = [
            r for r in records if r.task == k and r.prev_task_loss is not None
        ]
        if tracked and consts.B > 0 and consts.L > 0:
            worst_excess = -math.inf
            overflowed = False
            for r in tracked:
                corr, corr_overflowed = bkt_bound.checked(
                    consts.eps_bkt, consts.sigma_l, gprev, k, r.round + 1, e, m, n,
                    consts.L, consts.B,
                )
                worst_excess = max(worst_excess, r.prev_task_loss - corr)
                overflowed = overflowed or corr_overflowed
            reports.append(
                BoundReport(
                    name="bkt_loss_retention",
                    analytical=stats.f_prev_start,
                    empirical=worst_excess,
                    satisfied=worst_excess <= stats.f_prev_start,
                    inputs=f"eps={consts.eps_bkt!r};sigma_l={consts.sigma_l!r};"
                    f"grad_norm_prev={gprev!r};rounds_tracked={len(tracked)}"
                    + _overflow_note(overflowed),
                )
            )

        joint = [r.joint_grad_sq for r in records if r.task == k and r.joint_grad_sq is not None]
        if joint and stats.best_joint_loss is not None:
            psi, overflowed = psi_residual.checked(consts, hp_eff_for_steps(hp, lam), k, gprev)
            denom = (1.0 - 1.0 / k) / (2.0 * (1.0 + lam)) * e * hp.gamma_g(k) * gl * hp.rounds_per_task
            vanishing = (stats.f_joint_start - stats.best_joint_loss) / denom
            cap = vanishing + psi
            observed = min(joint)
            reports.append(
                BoundReport(
                    name="stationarity_residual",
                    analytical=cap,
                    empirical=observed,
                    satisfied=observed <= cap,
                    inputs=f"psi={psi!r};vanishing={vanishing!r};"
                    "f_star=best-observed-joint-loss-surrogate" + _overflow_note(overflowed),
                )
            )

        hp_eff = hp_eff_for_steps(hp, lam)
        steps = check_step_sizes(hp_eff, consts, k, hp.rounds_per_task, gprev)
        # The retention local-rate cap shrinks with t; report the first round
        # (1-based) at which the configured rate exceeds it, if any.
        first_violation = None
        for t in range(1, hp.rounds_per_task + 1):
            if not check_step_sizes(hp_eff, consts, k, t, gprev).bkt_gamma_l_ok:
                first_violation = t
                break
        for name, cap, actual, ok, note in (
            ("stepsize_conv_gamma_g", steps.conv_gamma_g_cap, hp.gamma_g(k), steps.conv_gamma_g_ok, ""),
            ("stepsize_conv_gamma_l", steps.conv_gamma_l_cap, gl, steps.conv_gamma_l_ok, ""),
            ("stepsize_conv_product", steps.conv_product_cap, hp.gamma_g(k) * gl, steps.conv_product_ok, ""),
            (
                "stepsize_bkt_gamma_l", steps.bkt_gamma_l_cap, gl, steps.bkt_gamma_l_ok,
                f";first_violating_round={first_violation if first_violation is not None else 'none'}"
                + _overflow_note(steps.bkt_gamma_l_overflowed),
            ),
            ("stepsize_bkt_gamma_g", steps.bkt_gamma_g_cap, hp.gamma_g(k), steps.bkt_gamma_g_ok, ""),
        ):
            reports.append(
                BoundReport(
                    name=name, analytical=cap, empirical=actual, satisfied=ok,
                    inputs=f"evaluated_at_t={hp.rounds_per_task}" + note,
                )
            )
        reports.append(
            BoundReport(
                name="suggested_schedule_gamma_l",
                analytical=steps.suggested_gamma_l,
                empirical=gl,
                satisfied=True,
                inputs="suggested-schedule;informational",
            )
        )
        reports.append(
            BoundReport(
                name="suggested_schedule_gamma_g",
                analytical=steps.suggested_gamma_g,
                empirical=hp.gamma_g(k),
                satisfied=True,
                inputs="suggested-schedule;informational"
                + _overflow_note(steps.suggested_gamma_g_overflowed),
            )
        )

    if k >= 2 and consts.B > 0:
        if 0.0 < consts.eps_corr <= 1.0:
            stated, proof, differ = sigma_t_alignment_bounds(consts.eps_corr, consts.B)
            note = "forms_differ" if differ else "forms_agree"
            reports.append(
                BoundReport(
                    name="sigma_t_cap_stated",
                    analytical=stated,
                    empirical=consts.sigma_t ** 2,
                    satisfied=consts.sigma_t ** 2 <= stated,
                    inputs=f"eps_corr={consts.eps_corr!r};{note}",
                )
            )
            reports.append(
                BoundReport(
                    name="sigma_t_cap_derived",
                    analytical=proof,
                    empirical=consts.sigma_t ** 2,
                    satisfied=consts.sigma_t ** 2 <= proof,
                    inputs=f"eps_corr={consts.eps_corr!r};{note}",
                )
            )
        else:
            reports.append(
                BoundReport(
                    name="sigma_t_cap_premise",
                    analytical=None,
                    empirical=consts.eps_corr,
                    satisfied=True,
                    inputs="positive-correlation premise fails;cap not applicable",
                )
            )

    if spec.kind == "mlp1" and spec.activation == "relu":
        reports.append(
            BoundReport(
                name="smoothness_model_flag",
                analytical=None,
                empirical=None,
                satisfied=False,
                inputs="relu activation is not L-smooth;L estimate is a probe max only",
            )
        )
    return reports


def hp_eff_for_steps(hp: HyperParams, lam: float) -> HyperParams:
    return hp if hp.prox_lambda == lam else replace(hp, prox_lambda=lam)


def run_experiment(config_text: str) -> RunArtifacts:
    """Run the full pipeline described by ``config_text``."""
    config = parse_config_text(config_text)
    seed = config.hyper.master_seed
    sequence = generate_sequence(config.shift, seed)
    shards = partition_sequence(sequence, config.partition, seed)
    log = run_sequence(config.model, sequence, shards, config.hyper, config.eval_cfg)

    checkpoints = tuple([log.initial_params] + log.task_params)
    constants = estimate_constants(
        config.model, sequence, shards, config.probe, seed, checkpoints
    )
    reports = build_bound_reports(
        config.model, config.hyper, sequence.num_tasks, log.records, constants, log.stats
    )
    return RunArtifacts(
        config=config,
        config_text=config_text,
        log=log,
        constants=constants,
        reports=reports,
    )
