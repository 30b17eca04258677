"""Steepest-descent trust-region search over binary pulse sequences.

The linear model of the objective around the current iterate is minimized
over a Hamming ball by sorting per-bit flip gains (a knapsack with O(p log p)
cost); the usual actual-vs-predicted reduction ratio then drives acceptance
and the integer radius update (double on full-radius high-quality steps,
floor-halve on rejection, terminate when the radius reaches zero or no flip
improves the model).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .adjoint import fused_sweep
from .errors import NonFiniteObjective, ValidationError
from .model import PropagatorSet, SystemConfig
from .objective import (
    ForwardTrajectory,
    GateTarget,
    PulseSequence,
    guard_weight_vector,
    infidelity,
    leakage,
    propagate,
)


class TerminationReason(enum.Enum):
    ZERO_GRADIENT = "zero_gradient"
    NO_IMPROVING_FLIP = "no_improving_flip"
    RADIUS_EXHAUSTED = "radius_exhausted"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    j: float
    j1: float
    j2: float
    delta: int
    rho: float
    accepted: bool
    hamming_step: int


@dataclass
class OptimizationTrace:
    records: list[IterationRecord] = field(default_factory=list)
    terminal_reason: TerminationReason | None = None

    @property
    def accepted_count(self) -> int:
        return sum(1 for r in self.records if r.accepted)


@dataclass
class TrustRegionState:
    alpha: PulseSequence
    radius: int
    objective: float
    j1: float
    j2: float
    gradient: np.ndarray
    iteration: int = 0
    terminal_reason: TerminationReason | None = None


class ObjectiveEvaluator:
    """The one evaluation path: J = J1 + c1*J2 and its relaxed gradient g1 + c1*g2.

    The optimizer, the driver and the gradient check all go through it, so
    the target's E is checked against the config's here, where every run
    starts.
    """

    def __init__(self, props: PropagatorSet, target: GateTarget, cfg: SystemConfig):
        if target.n_essential != cfg.n_essential:
            raise ValidationError(
                f"the target acts on {target.n_essential} levels but the config has E = {cfg.n_essential}",
                key="n_essential",
            )
        self.props = props
        self.target = target
        self.cfg = cfg
        self._weights = guard_weight_vector(cfg)

    def evaluate(self, traj: ForwardTrajectory) -> tuple[float, float, float]:
        """(J, J1, J2) of a propagated trajectory; raises NonFiniteObjective if J is not finite."""
        j1 = infidelity(traj.final, self.target)
        j2 = leakage(traj, self._weights, self.cfg.n_essential)
        j = j1 + self.cfg.c1 * j2
        if not np.isfinite(j):
            raise NonFiniteObjective(f"objective is not finite: J1 = {j1!r}, J2 = {j2!r}")
        return j, j1, j2

    def objective(self, alpha: PulseSequence) -> tuple[float, float, float, ForwardTrajectory]:
        """(J, J1, J2) of a pulse word, plus its trajectory for the gradient."""
        traj = propagate(alpha, self.props)
        return (*self.evaluate(traj), traj)

    def gradient(self, alpha: PulseSequence, traj: ForwardTrajectory) -> np.ndarray:
        """Relaxed gradient dJ/dalpha; needs a propagator set with B0 and B1.

        Raises NonFiniteObjective if any entry is not finite.
        """
        if self.props.b0 is None or self.props.b1 is None:
            raise ValueError(
                "the propagator set is forward-only (precomputed with with_sensitivity=False); "
                "the gradient needs B0 and B1"
            )
        g1, g2 = fused_sweep(traj, alpha, self.props, self.target, self._weights)
        g = g1 + self.cfg.c1 * g2
        bad = np.count_nonzero(~np.isfinite(g))
        if bad:
            raise NonFiniteObjective(f"gradient has {bad} non-finite entries out of {g.size}")
        return g


def solve_subproblem(alpha_k: PulseSequence, g: np.ndarray, radius: int) -> PulseSequence:
    """Minimize g.(a - a_k) over binary a within Hamming distance radius.

    Flipping bit j changes the model by g_j (0 -> 1) or -g_j (1 -> 0); the
    minimizer flips the bits with the most negative gains, at most radius of
    them, skipping zero gains.  Ties broken by lower index.
    """
    bits = alpha_k.bits
    gains = np.where(bits == 0, g, -g)
    order = np.argsort(gains, kind="stable")
    chosen = order[:radius]
    chosen = chosen[gains[chosen] < 0.0]
    if chosen.size == 0:
        return alpha_k
    new_bits = np.array(bits)
    new_bits[chosen] ^= 1
    return PulseSequence(new_bits)


def _terminal(state: TrustRegionState, reason: TerminationReason) -> tuple[TrustRegionState, IterationRecord]:
    record = IterationRecord(
        iteration=state.iteration,
        j=state.objective,
        j1=state.j1,
        j2=state.j2,
        delta=state.radius,
        rho=np.nan,
        accepted=False,
        hamming_step=0,
    )
    return replace(state, radius=0, iteration=state.iteration + 1, terminal_reason=reason), record


def tr_step(
    state: TrustRegionState,
    evaluator: ObjectiveEvaluator,
    rho_hat: float = 0.75,
) -> tuple[TrustRegionState, IterationRecord]:
    """One trust-region iteration; returns the successor state and its record.

    Stationarity (zero gradient, no improving flip, or zero predicted
    reduction) is detected before the ratio division and collapses the radius
    to zero.  Otherwise: rho > rho_hat accepts and doubles the radius when the
    step used the whole ball; rho > 0 accepts at unchanged radius; rho <= 0
    rejects, keeps the gradient and floor-halves the radius.
    """
    if np.linalg.norm(state.gradient) == 0.0:
        return _terminal(state, TerminationReason.ZERO_GRADIENT)

    alpha_hat = solve_subproblem(state.alpha, state.gradient, state.radius)
    step = int(np.sum(alpha_hat.bits != state.alpha.bits))
    if step == 0:
        return _terminal(state, TerminationReason.NO_IMPROVING_FLIP)

    predicted = -float(state.gradient @ (alpha_hat.bits.astype(float) - state.alpha.bits.astype(float)))
    if predicted <= 0.0:
        return _terminal(state, TerminationReason.NO_IMPROVING_FLIP)

    j_hat, j1_hat, j2_hat, traj_hat = evaluator.objective(alpha_hat)
    rho = (state.objective - j_hat) / predicted

    if rho > 0.0:
        radius = 2 * state.radius if (rho > rho_hat and step == state.radius) else state.radius
        next_state = TrustRegionState(
            alpha=alpha_hat,
            radius=radius,
            objective=j_hat,
            j1=j1_hat,
            j2=j2_hat,
            gradient=evaluator.gradient(alpha_hat, traj_hat),
            iteration=state.iteration + 1,
        )
        accepted = True
    else:
        next_state = replace(state, radius=state.radius // 2, iteration=state.iteration + 1)
        accepted = False

    record = IterationRecord(
        iteration=state.iteration,
        j=next_state.objective,
        j1=next_state.j1,
        j2=next_state.j2,
        delta=state.radius,
        rho=rho,
        accepted=accepted,
        hamming_step=step,
    )
    return next_state, record


def optimize(
    alpha0: PulseSequence,
    evaluator: ObjectiveEvaluator,
    delta0: int | None = None,
    rho_hat: float = 0.75,
    max_iter: int = 500,
) -> tuple[PulseSequence, OptimizationTrace]:
    """Run trust-region iterations from alpha0 until the radius drops below 1.

    delta0 defaults to p.  Accepted iterates have non-increasing objective, so
    the returned sequence is the best one seen.
    """
    if delta0 is not None and delta0 < 1:
        raise ValueError("initial trust-region radius must be at least 1")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    j, j1, j2, traj = evaluator.objective(alpha0)
    state = TrustRegionState(
        alpha=alpha0,
        radius=len(alpha0) if delta0 is None else delta0,
        objective=j,
        j1=j1,
        j2=j2,
        gradient=evaluator.gradient(alpha0, traj),
    )
    trace = OptimizationTrace()
    while state.radius >= 1:
        if state.iteration >= max_iter:
            trace.terminal_reason = TerminationReason.MAX_ITERATIONS
            break
        state, record = tr_step(state, evaluator, rho_hat)
        trace.records.append(record)
        if state.terminal_reason is not None:
            trace.terminal_reason = state.terminal_reason
    if trace.terminal_reason is None:
        trace.terminal_reason = TerminationReason.RADIUS_EXHAUSTED
    return state.alpha, trace


@dataclass(frozen=True)
class RestartSummary:
    index: int
    objective: float
    j1: float
    j2: float
    iterations: int
    accepted: int
    terminal_reason: TerminationReason


@dataclass
class MultiRestartResult:
    best_alpha: PulseSequence
    best_trace: OptimizationTrace
    best_index: int
    summaries: list[RestartSummary]

    @property
    def best(self) -> RestartSummary:
        return self.summaries[self.best_index]


def multi_restart(
    n_restarts: int,
    seed: int,
    p: int,
    evaluator: ObjectiveEvaluator,
    delta0: int | None = None,
    rho_hat: float = 0.75,
    max_iter: int = 500,
) -> MultiRestartResult:
    """Optimize from n_restarts seeded uniform-random initial sequences.

    Returns the smallest-objective run; deterministic for a fixed seed.
    """
    if n_restarts < 1:
        raise ValueError("need at least one restart")
    rng = np.random.default_rng(seed)
    best: tuple[PulseSequence, OptimizationTrace, int] | None = None
    best_j = np.inf
    summaries: list[RestartSummary] = []
    for i in range(n_restarts):
        alpha0 = PulseSequence.random(p, rng)
        alpha, trace = optimize(alpha0, evaluator, delta0=delta0, rho_hat=rho_hat, max_iter=max_iter)
        last = trace.records[-1]
        summaries.append(
            RestartSummary(
                index=i,
                objective=last.j,
                j1=last.j1,
                j2=last.j2,
                iterations=len(trace.records),
                accepted=trace.accepted_count,
                terminal_reason=trace.terminal_reason,
            )
        )
        if last.j < best_j:
            best_j = last.j
            best = (alpha, trace, i)
    assert best is not None
    return MultiRestartResult(best_alpha=best[0], best_trace=best[1], best_index=best[2], summaries=summaries)
