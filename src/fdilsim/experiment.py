"""End-to-end experiment orchestration.

``run_experiment`` turns a config text into the complete run artifacts:
the protocol trajectory from :func:`fdilsim.server.run_sequence`; one
full-shard stage, :func:`fdilsim.theory.estimate_constants`, which probes
the constants on the generated data at random points and the run's
checkpoints and fills the log's joint-objective cells and stats; and the
bound reports, which :func:`fdilsim.theory.build_bound_reports` writes.  That
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
    constants = estimate_constants(config.model, shards, config.probe, seed, log)
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
