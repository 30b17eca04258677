"""Binary SFQ pulse-sequence synthesis for high-fidelity single-qubit gates."""

from .adjoint import fused_sweep, grad_total
from .driver import (
    ExperimentSpec,
    gate_target,
    load_config,
    run_grad_check,
    run_optimize,
    run_simulate,
    run_sweep,
)
from .errors import (
    DomainError,
    IntegratorDivergence,
    MissingSnapshots,
    NonUnitaryTarget,
    ParseError,
    ValidationError,
)
from .model import (
    PropagatorSet,
    SystemConfig,
    build_drift_hamiltonian,
    lowering_operator,
    precompute_propagators,
    pulse_shape,
    relaxed_propagator,
    unitarity_defect,
)
from .objective import (
    ForwardTrajectory,
    GateTarget,
    PulseSequence,
    guard_weight_vector,
    infidelity,
    leakage,
    propagate,
    total_objective,
)
from .trustregion import (
    ObjectiveEvaluator,
    OptimizationTrace,
    TerminationReason,
    TrustRegionState,
    multi_restart,
    optimize,
    solve_subproblem,
    tr_step,
)

__all__ = [
    "DomainError",
    "ExperimentSpec",
    "ForwardTrajectory",
    "GateTarget",
    "IntegratorDivergence",
    "MissingSnapshots",
    "NonUnitaryTarget",
    "ObjectiveEvaluator",
    "OptimizationTrace",
    "ParseError",
    "PropagatorSet",
    "PulseSequence",
    "SystemConfig",
    "TerminationReason",
    "TrustRegionState",
    "ValidationError",
    "build_drift_hamiltonian",
    "fused_sweep",
    "gate_target",
    "grad_total",
    "guard_weight_vector",
    "infidelity",
    "leakage",
    "load_config",
    "lowering_operator",
    "multi_restart",
    "optimize",
    "precompute_propagators",
    "propagate",
    "pulse_shape",
    "relaxed_propagator",
    "run_grad_check",
    "run_optimize",
    "run_simulate",
    "run_sweep",
    "solve_subproblem",
    "total_objective",
    "tr_step",
    "unitarity_defect",
]

__version__ = "0.1.0"
