"""Binary SFQ pulse-sequence synthesis for high-fidelity single-qubit gates."""

from .driver import (
    ExperimentSpec,
    gate_target,
    load_config,
    run_grad_check,
    run_optimize,
    run_simulate,
    run_sweep,
)
from .errors import IntegratorDivergence, NonFiniteObjective, NonUnitaryTarget, ParseError, ValidationError
from .model import SystemConfig, precompute_propagators, unitarity_defect
from .objective import PulseSequence
from .trustregion import ObjectiveEvaluator, multi_restart

__all__ = [
    "ExperimentSpec",
    "IntegratorDivergence",
    "NonFiniteObjective",
    "NonUnitaryTarget",
    "ObjectiveEvaluator",
    "ParseError",
    "PulseSequence",
    "SystemConfig",
    "ValidationError",
    "gate_target",
    "load_config",
    "multi_restart",
    "precompute_propagators",
    "run_grad_check",
    "run_optimize",
    "run_simulate",
    "run_sweep",
    "unitarity_defect",
]

__version__ = "0.1.0"
