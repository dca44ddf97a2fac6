"""End-to-end experiment orchestration.

``run_experiment`` turns a config text into the complete run artifacts:
the protocol trajectory, constant estimates probed on the generated data
(random probe points plus the trajectory checkpoints), and the bound
reports, which :func:`fdilsim.theory.build_bound_reports` writes.  That
builder is a pure function of persistable inputs, so a verifier can
reconstruct the reports from files alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ExperimentConfig, parse_config_text
from .datagen import generate_sequence, partition_sequence
from .server import RunLog, run_sequence
from .theory import BoundReport, ConstantEstimates, build_bound_reports, estimate_constants


@dataclass
class RunArtifacts:
    """Everything a run persists: trajectory, constants, reports, config."""

    config: ExperimentConfig
    config_text: str
    log: RunLog
    constants: ConstantEstimates
    reports: list[BoundReport]


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
        config.model, config.hyper, sequence.num_tasks, log.rounds, constants, log.stats
    )
    return RunArtifacts(
        config=config,
        config_text=config_text,
        log=log,
        constants=constants,
        reports=reports,
    )
