"""End-to-end experiment orchestration.

``run_experiment`` turns a config text into the complete run artifacts:
the protocol trajectory, constant estimates probed on the generated data
(random probe points plus the trajectory checkpoints), and the bound
reports.  ``build_bound_reports`` evaluates each row of
:data:`fdilsim.theory.BOUND_ROWS` in order; it is a pure function of
persistable inputs, so a verifier can reconstruct the reports from files
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

from .config import ExperimentConfig, parse_config_text
from .datagen import generate_sequence, partition_sequence
from .models import ModelSpec
from .server import HyperParams, RoundRecord, RunLog, RunStats, run_sequence
from .theory import BOUND_ROWS, BoundReport, ConstantEstimates, estimate_constants


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


def build_bound_reports(
    spec: ModelSpec,
    hp: HyperParams,
    num_tasks: int,
    records: list[RoundRecord],
    consts: ConstantEstimates,
    stats: RunStats,
) -> list[BoundReport]:
    """Evaluate every row of :data:`fdilsim.theory.BOUND_ROWS` against the logged trajectory."""
    lam, k = effective_lambda(hp), num_tasks
    # The run's scope: its inputs, the constants as ``c``, and the settings
    # by their symbols in the bounds (E, gamma_L, gamma_G of task K, M, N, T).
    run = SimpleNamespace(
        spec=spec, hp=replace(hp, prox_lambda=lam), k=k, lam=lam, records=records, c=consts,
        stats=stats, e=hp.local_epochs, gl=hp.local_lr, gg=hp.gamma_g(k), m=hp.num_clients,
        n=hp.participants_per_round, T=hp.rounds_per_task, gprev=math.sqrt(stats.grad_norm_prev_sq),
    )
    return [row.report(v) for row in BOUND_ROWS for v in row.scopes(run)]


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
