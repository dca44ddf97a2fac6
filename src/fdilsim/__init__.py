"""Deterministic federated domain-incremental learning simulator and theory harness."""

from .client import ClientUpdate, DivergenceError, local_update, prox_map
from .config import ConfigError, ExperimentConfig, parse_config, parse_config_text, serialize_config
from .datagen import (
    ClientShard,
    DomainShiftSpec,
    PartitionSpec,
    TaskData,
    TaskSequence,
    generate_sequence,
    partition_sequence,
    partition_task,
)
from .experiment import RunArtifacts, build_bound_reports, run_experiment
from .metrics import AccuracyMatrix, acc, bwt, joint_objective_grad
from .models import Minibatch, ModelSpec, accuracy, init_params, loss_and_grad, param_count
from .rng import derive_stream
from .runio import compare_runlogs, emit_runlog, load_runlog, verify_runlog
from .server import (
    EvalConfig,
    HyperParams,
    Rounds,
    RunLog,
    aggregate,
    proximal_blend,
    run_sequence,
    sample_clients,
)
from .theory import (
    BoundReport,
    ConstantEstimates,
    ProbeConfig,
    bkt_bound,
    drift_bound,
    estimate_constants,
    psi_residual,
)

__all__ = [
    "AccuracyMatrix",
    "BoundReport",
    "ClientShard",
    "ClientUpdate",
    "ConfigError",
    "ConstantEstimates",
    "DivergenceError",
    "DomainShiftSpec",
    "EvalConfig",
    "ExperimentConfig",
    "HyperParams",
    "Minibatch",
    "ModelSpec",
    "PartitionSpec",
    "ProbeConfig",
    "Rounds",
    "RunArtifacts",
    "RunLog",
    "TaskData",
    "TaskSequence",
    "acc",
    "accuracy",
    "aggregate",
    "bkt_bound",
    "build_bound_reports",
    "bwt",
    "compare_runlogs",
    "derive_stream",
    "drift_bound",
    "emit_runlog",
    "estimate_constants",
    "generate_sequence",
    "init_params",
    "joint_objective_grad",
    "load_runlog",
    "local_update",
    "loss_and_grad",
    "param_count",
    "parse_config",
    "parse_config_text",
    "partition_sequence",
    "partition_task",
    "prox_map",
    "proximal_blend",
    "psi_residual",
    "run_experiment",
    "run_sequence",
    "sample_clients",
    "serialize_config",
    "verify_runlog",
]
