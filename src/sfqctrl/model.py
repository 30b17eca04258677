"""Transmon model and one-step SFQ propagators.

The physical system is a truncated N-level oscillator with drift Hamiltonian
(in units of hbar, rad/ns)

    H0 = omega * a'a - (xi/2) * a'a'aa   ->   diag(h_n),
    h_n = n*omega - (xi/2)*n*(n-1),

driven during each SFQ time step of length tau_p by a voltage pulse of fixed
shape and strength,

    Hc(t) = (theta/2) * v(t) * i(a - a'),

where v(t) is a quadratic B-spline bump supported on [0, delta], normalized so
that one pulse integrates to exactly 1.  The integrated kick area theta/2
makes the tip angle literal: one pulse applied to the ground state changes the
Bloch-sphere polar angle by exactly theta (the pulse is far shorter than the
qubit period, so it acts impulsively).  The conventional strength parameter
beta = theta/(pi*tau_p) is kept on the configuration for reporting.

The evolution operator of a single step obeys dU/dt = -i(H0 + alpha*Hc(t))U
with the binary (relaxed to real) control amplitude alpha; this module
integrates that equation once per configuration and caches the pulse-off /
pulse-on propagators D0/D1 together with their amplitude sensitivities
B0/B1 = dD(alpha)/dalpha at alpha = 0, 1.  Only the relaxed gradient uses
B0/B1; a forward-only set for re-simulating a finished word holds D0/D1
alone.

Integration uses a fourth-order two-point Gauss Magnus scheme.  Every step
exponentiates a skew-Hermitian generator through its eigendecomposition, so
the computed propagators are unitary to rounding regardless of the substep
count, and sensitivities are obtained from the exact Frechet derivative of
each step exponential -- the forward-accumulated derivative of the discrete
product, not an independent discretization of the sensitivity ODE.

Only the substeps the pulse reaches are integrated this way (delta/tau_p of
them, 16 % at the defaults).  Past the envelope's last non-zero sample the
generator is the diagonal drift at every amplitude, so the remaining
substeps compose exactly to exp(-i*H0*t_tail) and contribute nothing to the
sensitivity; that factor is applied in closed form.

D0 needs no integration: it is exp(-i*H0*tau_p).  Nor does B0 need an
eigendecomposition: at alpha = 0 every substep's generator is the same
diagonal, so each step exponential and its Frechet derivative (one Loewner
matrix for all substeps) are known in closed form and only their chain is
multiplied out (_sensitivity_at_zero).  Only D1 and B1 go through the
eigendecompositions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import IntegratorDivergence, ValidationError

TWO_PI = 2.0 * np.pi

# Gauss-Legendre nodes on [0, 1] for the fourth-order Magnus step.
_GAUSS_LO = 0.5 - np.sqrt(3.0) / 6.0
_GAUSS_HI = 0.5 + np.sqrt(3.0) / 6.0

# Pulses per lookup of PropagatorSet.byte_prefixes: one byte of a word packed by np.packbits.
BYTE_BITS = 8


@dataclass(frozen=True)
class SystemConfig:
    """Physical and numerical parameters of the driven transmon.

    Frequencies are angular (rad/ns), times in ns.  Two derived fields are
    computed from the tip angle and must not be supplied directly: ``beta``,
    the conventional pulse-strength parameter theta / (pi * tau_p), and
    ``drive_area``, the integrated control amplitude theta / 2 of a single
    pulse, which fixes the envelope scale so that one pulse tips the Bloch
    vector by exactly theta.  Defaults reproduce a typical 5 GHz transmon
    with 0.25 GHz anharmonicity, tau_p = 25 ps SFQ steps and 4 ps pulses.
    """

    omega: float = TWO_PI * 5.0
    xi: float = TWO_PI * 0.25
    tau_p: float = 2.5e-2
    delta: float = 4.0e-3
    theta: float = np.pi / 300.0
    n_levels: int = 4
    n_essential: int = 2
    guard_weights: tuple[float, ...] = (0.1, 1.0)
    c1: float = 1.0e-2
    substeps: int = 10_000
    beta: float = field(init=False)
    drive_area: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "beta", self.theta / (np.pi * self.tau_p))
        object.__setattr__(self, "drive_area", 0.5 * self.theta)
        self.validate()

    @property
    def n_guard(self) -> int:
        return self.n_levels - self.n_essential

    def validate(self) -> None:
        for key in ("omega", "xi", "tau_p", "delta", "theta", "c1"):
            if not np.isfinite(getattr(self, key)):
                raise ValidationError("must be finite", key=key)
        if not np.all(np.isfinite(self.guard_weights)):
            raise ValidationError("guard weights must be finite", key="guard_weights")
        if self.omega <= 0:
            raise ValidationError("qubit frequency must be positive", key="omega")
        if self.xi < 0:
            raise ValidationError("anharmonicity must be nonnegative", key="xi")
        if not 0 <= self.theta <= np.pi:
            raise ValidationError("tip angle must lie in [0, pi]", key="theta")
        if self.n_levels < 2:
            raise ValidationError("need at least two levels", key="n_levels")
        if not 0 < self.n_essential <= self.n_levels:
            raise ValidationError("must satisfy 0 < E <= N", key="n_essential")
        if self.tau_p <= 0:
            raise ValidationError("SFQ step must be positive", key="tau_p")
        if not 0 < self.delta <= self.tau_p:
            raise ValidationError("pulse duration must satisfy 0 < delta <= tau_p", key="delta")
        if len(self.guard_weights) != self.n_guard:
            raise ValidationError(
                f"expected {self.n_guard} guard weights, got {len(self.guard_weights)}",
                key="guard_weights",
            )
        if any(w < 0 for w in self.guard_weights):
            raise ValidationError("guard weights must be nonnegative", key="guard_weights")
        if self.c1 < 0:
            raise ValidationError("leakage weight must be nonnegative", key="c1")
        if self.substeps < 1:
            raise ValidationError("need at least one integrator substep", key="substeps")
        # A substep must resolve the fastest drift phase: past pi per substep
        # the Magnus step aliases it and J no longer means anything.
        with np.errstate(over="ignore", invalid="ignore"):
            phase = self.tau_p / self.substeps * float(np.abs(drift_levels(self)).max())
        if not phase < np.pi:
            raise ValidationError(
                f"drift phase per substep (tau_p/substeps)*max|h_n| = {phase:.3g} must stay below pi; "
                "increase substeps",
                key="substeps",
            )


@dataclass(frozen=True)
class PropagatorSet:
    """One-SFQ-step propagators and their control-amplitude sensitivities.

    ``d0``/``d1`` are the unitary pulse-off/pulse-on propagators; ``b0``/``b1``
    are dD(alpha)/dalpha evaluated at alpha = 0 and alpha = 1 (not unitary),
    or None in a forward-only set, which supports propagation but not the
    gradient.  All arrays are immutable and safe to share across threads.
    """

    d0: np.ndarray
    d1: np.ndarray
    b0: np.ndarray | None = None
    b1: np.ndarray | None = None

    def __post_init__(self):
        for m in (self.d0, self.d1, self.b0, self.b1):
            if m is not None:
                m.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.d0.shape[0]

    @cached_property
    def byte_prefixes(self) -> np.ndarray:
        """Read-only (256, 8, N, N) table: [b, i] = D_{b_i} ... D_{b_0} over the little-endian bits of b.

        Built on first use, not with the set: a set made to propagate one word
        once would pay for the table without amortizing it.  Three doubling
        steps turn the prefixes of all words of length L into those of length
        2L: a word's low half keeps its prefixes and its high half's prefixes
        are right-multiplied by the low half's total.  Those products are one
        GEMM of every prefix (stacked as rows) by every total (side by side),
        far cheaper than as many batched N x N complex products.
        """
        dim = self.dim
        table = np.stack([self.d0, self.d1])[:, None]
        while table.shape[1] < BYTE_BITS:
            n, length = table.shape[:2]
            totals = table[:, -1].transpose(1, 0, 2).reshape(dim, n * dim)
            high = (table.reshape(n * length * dim, dim) @ totals).reshape(n, length, dim, n, dim)
            low = np.broadcast_to(table, (n, *table.shape))
            table = np.concatenate([low, high.transpose(0, 3, 1, 2, 4)], axis=2).reshape(n * n, 2 * length, dim, dim)
        table.setflags(write=False)
        return table


def lowering_operator(n_levels: int) -> np.ndarray:
    """N x N lowering operator a with a[n-1, n] = sqrt(n)."""
    a = np.zeros((n_levels, n_levels), dtype=complex)
    for n in range(1, n_levels):
        a[n - 1, n] = np.sqrt(n)
    return a


def drift_levels(cfg: SystemConfig) -> np.ndarray:
    """Energies h_n = n*omega - (xi/2)*n*(n-1) of the drift Hamiltonian, rad/ns."""
    n = np.arange(cfg.n_levels, dtype=float)
    return n * cfg.omega - 0.5 * cfg.xi * n * (n - 1)


def build_drift_hamiltonian(cfg: SystemConfig) -> np.ndarray:
    """Diagonal drift Hamiltonian (divided by hbar) as an N x N complex matrix."""
    return np.diag(drift_levels(cfg)).astype(complex)


def pulse_shape(t, cfg: SystemConfig):
    """Unit-integral pulse envelope at time t within one SFQ step.

    A single quadratic B-spline bump on [0, delta] with three equal knot
    intervals, divided by its integral delta/3 so that the integral over
    [0, tau_p] is exactly 1.  Zero outside [0, delta].  Accepts scalars or
    arrays.
    """
    t_arr = np.asarray(t, dtype=float)
    x = np.atleast_1d(t_arr) * (3.0 / cfg.delta)
    b = np.zeros_like(x)
    m = (x >= 0.0) & (x < 1.0)
    b[m] = 0.5 * x[m] ** 2
    m = (x >= 1.0) & (x < 2.0)
    b[m] = -(x[m] ** 2) + 3.0 * x[m] - 1.5
    m = (x >= 2.0) & (x <= 3.0)
    b[m] = 0.5 * (3.0 - x[m]) ** 2
    # Scale only the support: 3/delta overflows for a subnormal delta, and
    # inf * 0 would turn the zeros outside it into NaN.
    b[b != 0.0] *= 3.0 / cfg.delta
    return float(b[0]) if t_arr.ndim == 0 else b.reshape(t_arr.shape)


def _drift_step(cfg: SystemConfig) -> np.ndarray:
    """Closed-form pulse-off propagator exp(-i*H0*tau_p), exact for the diagonal drift."""
    return np.diag(np.exp(-1j * drift_levels(cfg) * cfg.tau_p))


def _chain_product(mats: np.ndarray) -> np.ndarray:
    """Ordered product mats[-1] @ ... @ mats[0] by pairwise tree reduction; I if empty."""
    if mats.shape[0] == 0:
        return np.eye(mats.shape[1], dtype=complex)
    while mats.shape[0] > 1:
        n = mats.shape[0]
        even = n - (n % 2)
        pairs = np.matmul(mats[1:even:2], mats[0:even:2])
        mats = pairs if n % 2 == 0 else np.concatenate([pairs, mats[-1:]], axis=0)
    return mats[0]


class _SubstepGrid(NamedTuple):
    """The Magnus substep grid of one SFQ step, trimmed to the pulse's support.

    Substep k applies exp(Omega_k), Omega_k = h*X + alpha*(s[k]*J + w[k]*[X, J])
    with X = -i*diag(h_n) and J = a - a'.  Only the first n_on substeps, up
    to the last one where the envelope is sampled non-zero, are kept.  On
    every later substep Omega = h*X at every amplitude, so together they are
    the diagonal exp((n_sub - n_on)*h*X), stored as the column ``tail``.
    """

    h: float
    s: np.ndarray
    w: np.ndarray
    tail: np.ndarray
    x_op: np.ndarray
    j_op: np.ndarray
    xj_comm: np.ndarray

    @property
    def n_on(self) -> int:
        return self.s.size


def _substep_grid(cfg: SystemConfig) -> _SubstepGrid:
    n_sub = cfg.substeps
    h = cfg.tau_p / n_sub

    a = lowering_operator(cfg.n_levels)
    j_op = a - a.conj().T
    x_op = -1j * build_drift_hamiltonian(cfg)
    xj_comm = x_op @ j_op - j_op @ x_op

    k = np.arange(n_sub, dtype=float)
    v_lo = pulse_shape((k + _GAUSS_LO) * h, cfg)
    v_hi = pulse_shape((k + _GAUSS_HI) * h, cfg)
    # Every substep past the envelope's last non-zero sample is pure drift.
    on = np.flatnonzero((v_lo != 0.0) | (v_hi != 0.0))
    n_on = int(on[-1]) + 1 if on.size else 0
    v_lo, v_hi = v_lo[:n_on], v_hi[:n_on]
    tail = np.exp(-1j * drift_levels(cfg) * ((n_sub - n_on) * h))[:, None]
    s = 0.5 * h * cfg.drive_area * (v_lo + v_hi)
    w = (np.sqrt(3.0) / 12.0) * h * h * cfg.drive_area * (v_lo - v_hi)
    return _SubstepGrid(h=h, s=s, w=w, tail=tail, x_op=x_op, j_op=j_op, xj_comm=xj_comm)


def _exp_loewner(mu: np.ndarray) -> np.ndarray:
    """Loewner matrix of t -> exp(-i*t) on the spectrum mu (last axis), for Frechet derivatives."""
    half_diff = 0.5 * (mu[..., :, None] - mu[..., None, :])
    half_sum = 0.5 * (mu[..., :, None] + mu[..., None, :])
    return np.exp(-1j * half_sum) * np.sinc(half_diff / np.pi)


def _integrate_amplitude(
    cfg: SystemConfig, alpha: float, with_sensitivity: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Integrate one SFQ step at control amplitude alpha.

    Returns (D, B) where D is the step propagator and B = dD/dalpha, or
    (D, None) when the sensitivity is not requested.  Fourth-order Magnus:
    with the control coefficient c(t) = alpha*drive_area*v(t), each substep
    applies exp(Omega) with

        Omega = h*X + (h/2)(c1 + c2)*J + (sqrt(3)h^2/12)(c1 - c2)*[X, J],

    c1, c2 the control at the two Gauss nodes.  Omega is skew-Hermitian, so
    exp(Omega) (from the eigendecomposition of i*Omega) is exactly unitary,
    and dexp(Omega)[dOmega/dalpha] follows from the same eigendecomposition.
    Only the n_on substeps of the pulse's support are integrated (see
    _SubstepGrid); the drift tail left-multiplies D and B in closed form.
    With no sampled pulse (n_on = 0) D is the pure drift and B = 0.
    """
    grid = _substep_grid(cfg)
    omega = (
        grid.h * grid.x_op
        + (alpha * grid.s)[:, None, None] * grid.j_op
        + (alpha * grid.w)[:, None, None] * grid.xj_comm
    )
    mu, vecs = np.linalg.eigh(1j * omega)
    phase = np.exp(-1j * mu)
    vecs_h = vecs.conj().swapaxes(-1, -2)
    steps = (vecs * phase[:, None, :]) @ vecs_h

    # D comes from the chain of the steps alone either way, so it is the same
    # array whether or not B is requested.
    d = grid.tail * _chain_product(steps)
    if not with_sensitivity:
        return d, None

    # Frechet derivative of each step exponential via the Loewner matrix of
    # exp on the (purely imaginary) spectrum of Omega.
    d_omega = _d_omega(grid)
    loewner = _exp_loewner(mu)
    frechet = vecs @ (loewner * (vecs_h @ d_omega @ vecs)) @ vecs_h
    return d, _accumulate_sensitivity(grid, steps, frechet)


def _d_omega(grid: _SubstepGrid) -> np.ndarray:
    """dOmega_k/dalpha = s[k]*J + w[k]*[X, J], one matrix per driven substep."""
    return grid.s[:, None, None] * grid.j_op + grid.w[:, None, None] * grid.xj_comm


def _accumulate_sensitivity(grid: _SubstepGrid, steps: np.ndarray, frechet: np.ndarray) -> np.ndarray:
    """B = dD/dalpha of the substep chain from each step U_k and its Frechet term L_k.

    The block products [[U, 0], [L, U]] compose exactly as D <- U D,
    B <- U B + L D; B is the lower-left block, left-multiplied by the tail.
    """
    dim = grid.x_op.shape[0]
    blocks = np.zeros((grid.n_on, 2 * dim, 2 * dim), dtype=complex)
    blocks[:, :dim, :dim] = steps
    blocks[:, dim:, dim:] = steps
    blocks[:, dim:, :dim] = frechet
    return grid.tail * _chain_product(blocks)[dim:, :dim]


def _sensitivity_at_zero(cfg: SystemConfig) -> np.ndarray:
    """B0 = dD/dalpha at alpha = 0, with no eigendecomposition.

    At alpha = 0 every substep's Omega is the diagonal h*X, so its
    eigenvectors are I and its spectrum is mu = h*h_n: each step is
    diag(exp(-i*mu)) and its Frechet term is L o dOmega_k, with one Loewner
    matrix L for every substep.  These are exactly the factors that
    _integrate_amplitude(cfg, 0.0, with_sensitivity=True) gets from eigh,
    and they go through the same block chain in the same order, so the
    result is that B0 (bit for bit wherever eigh returns a diagonal input's
    eigenvectors as I, as LAPACK does).
    """
    grid = _substep_grid(cfg)
    mu = grid.h * drift_levels(cfg)
    steps = np.broadcast_to(np.diag(np.exp(-1j * mu)), (grid.n_on, mu.size, mu.size))
    return _accumulate_sensitivity(grid, steps, _exp_loewner(mu) * _d_omega(grid))


def unitarity_defect(m: np.ndarray) -> float:
    """Frobenius norm of M'M - I."""
    eye = np.eye(m.shape[0])
    return float(np.linalg.norm(m.conj().T @ m - eye))


def precompute_propagators(cfg: SystemConfig, with_sensitivity: bool = True) -> PropagatorSet:
    """Build D0, D1 and (unless with_sensitivity is False) B0, B1 for one configuration.

    Performed once per configuration; the result is immutable.  D0 is the
    closed-form drift step.  D1, and B1 with it, integrate only the pulse's
    support (see _integrate_amplitude), so the cost scales with delta/tau_p
    times the substep count.  B0 needs no eigendecomposition (see
    _sensitivity_at_zero).
    A forward-only set (with_sensitivity=False) skips the Frechet terms and
    leaves b0 = b1 = None: enough for propagation and the objective, not
    for the gradient; its D1 is the same array as the full set's.

    Raises IntegratorDivergence if the integrated D1 is not unitary to 1e-11
    (or its defect is NaN).  The gradient kernel (adjoint.fused_sweep) uses
    closed forms that hold only for unitary D0 and D1; their error grows
    like p times the defect, so the gate is set tight enough for words of
    thousands of pulses.  The Magnus integrator stays under 2e-12 up to
    20000 substeps.
    """
    d0 = _drift_step(cfg)
    d1, b1 = _integrate_amplitude(cfg, 1.0, with_sensitivity)
    defect = unitarity_defect(d1)
    if not defect <= 1.0e-11:
        raise IntegratorDivergence(
            f"pulse-on propagator unitarity defect {defect:.3e} exceeds 1e-11; "
            f"increase substeps (currently {cfg.substeps})"
        )
    b0 = _sensitivity_at_zero(cfg) if with_sensitivity else None
    return PropagatorSet(d0=d0, d1=d1, b0=b0, b1=b1)
