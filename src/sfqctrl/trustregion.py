"""Steepest-descent trust-region search over binary pulse sequences.

The linear model of the objective around the current iterate is minimized
over a Hamming ball by sorting per-bit flip gains (a knapsack with O(p log p)
cost); the usual actual-vs-predicted reduction ratio then drives acceptance
and the integer radius update (double on full-radius high-quality steps,
floor-halve on rejection, terminate when the radius reaches zero or no flip
improves the model).

The rest of a run is a function of its (word, radius) state: J, J1, J2 and
the gradient depend on the word alone, and rho_hat and the evaluator are fixed.
So within one multi_restart call a restart that reaches a state an earlier
restart visited takes that restart's recorded future, renumbered; nothing is
shared across calls.
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

# Defaults: the ratio above which a full-radius step doubles the radius, and
# the iteration cap of one optimize run.
RHO_HAT = 0.75
MAX_ITER = 500


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
    minimizer stably sorts only the negative gains, kept in index order, and
    flips at most radius of them, most negative first, ties to the lower index.
    """
    bits = alpha_k.bits
    gains = np.where(bits == 0, g, -g)
    improving = np.flatnonzero(gains < 0.0)
    chosen = improving[np.argsort(gains[improving], kind="stable")[:radius]]
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
    rho_hat: float = RHO_HAT,
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
    # With no improving flip alpha_hat is state.alpha and the predicted reduction is -0.0.
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
    rho_hat: float = RHO_HAT,
    max_iter: int = MAX_ITER,
    *,
    visited: dict | None = None,
) -> tuple[PulseSequence, OptimizationTrace]:
    """Run trust-region iterations from alpha0 until the radius drops below 1.

    delta0 defaults to p.  Accepted iterates have non-increasing objective, so
    the returned sequence is the best one seen.

    visited maps (packed word, radius) states of earlier runs with the same
    evaluator, word length and rho_hat to (final word, trace, record index).
    A run that reaches such a state takes that trace's remaining records,
    renumbered, and its final word and terminal reason, unless that would pass
    max_iter; a run that ends other than at max_iter adds the states it
    stepped from, the first visit of a state winning.
    """
    if delta0 is not None and not 1 <= delta0 <= len(alpha0):
        raise ValueError("initial trust-region radius must lie in [1, p]")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if visited is None:
        visited = {}
    alpha, radius = alpha0, len(alpha0) if delta0 is None else delta0
    state = None
    trace = OptimizationTrace()
    stepped_from = []
    while radius >= 1:
        key = (np.packbits(alpha.bits).tobytes(), radius)
        if key in visited:
            final, earlier, start = visited[key]
            tail = earlier.records[start:]
            if len(trace.records) + len(tail) <= max_iter:
                shift = len(trace.records) - start
                trace.records.extend(replace(r, iteration=r.iteration + shift) for r in tail)
                trace.terminal_reason = earlier.terminal_reason
                alpha = final
                break
        if len(trace.records) >= max_iter:
            trace.terminal_reason = TerminationReason.MAX_ITERATIONS
            return alpha, trace
        if state is None:
            j, j1, j2, traj = evaluator.objective(alpha0)
            state = TrustRegionState(
                alpha=alpha0, radius=radius, objective=j, j1=j1, j2=j2, gradient=evaluator.gradient(alpha0, traj)
            )
        stepped_from.append(key)
        state, record = tr_step(state, evaluator, rho_hat)
        trace.records.append(record)
        trace.terminal_reason = state.terminal_reason
        alpha, radius = state.alpha, state.radius
    if trace.terminal_reason is None:
        trace.terminal_reason = TerminationReason.RADIUS_EXHAUSTED
    for i, key in enumerate(stepped_from):
        visited.setdefault(key, (alpha, trace, i))
    return alpha, trace


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
    rho_hat: float = RHO_HAT,
    max_iter: int = MAX_ITER,
) -> MultiRestartResult:
    """Optimize from n_restarts seeded uniform-random initial sequences.

    Returns the smallest-objective run; deterministic for a fixed seed.  The
    restarts of one call share one visited-state dict: a restart that reaches
    a (word, radius) state an earlier restart stepped from repeats that
    restart's future, so it takes the recorded future instead of recomputing
    it.  The dict lives for this call only.  Each summary keeps the logical
    counts, spliced iterations included.
    """
    if n_restarts < 1:
        raise ValueError("need at least one restart")
    rng = np.random.default_rng(seed)
    visited: dict = {}
    runs = [
        optimize(
            PulseSequence.random(p, rng), evaluator, delta0=delta0, rho_hat=rho_hat, max_iter=max_iter, visited=visited
        )
        for _ in range(n_restarts)
    ]
    summaries = [
        RestartSummary(
            index=i,
            objective=trace.records[-1].j,
            j1=trace.records[-1].j1,
            j2=trace.records[-1].j2,
            iterations=len(trace.records),
            accepted=trace.accepted_count,
            terminal_reason=trace.terminal_reason,
        )
        for i, (_, trace) in enumerate(runs)
    ]
    best = min(range(n_restarts), key=lambda i: summaries[i].objective)
    return MultiRestartResult(best_alpha=runs[best][0], best_trace=runs[best][1], best_index=best, summaries=summaries)
