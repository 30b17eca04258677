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
B0/B1 = dD(alpha)/dalpha at alpha = 0, 1.

Integration uses a fourth-order two-point Gauss Magnus scheme.  Every step
exponentiates a skew-Hermitian generator through its eigendecomposition, so
the computed propagators are unitary to rounding regardless of the substep
count, and sensitivities are obtained from the exact Frechet derivative of
each step exponential -- the forward-accumulated derivative of the discrete
product, not an independent discretization of the sensitivity ODE.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IntegratorDivergence, ValidationError

TWO_PI = 2.0 * np.pi

# Gauss-Legendre nodes on [0, 1] for the fourth-order Magnus step.
_GAUSS_LO = 0.5 - np.sqrt(3.0) / 6.0
_GAUSS_HI = 0.5 + np.sqrt(3.0) / 6.0


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


@dataclass(frozen=True)
class PropagatorSet:
    """One-SFQ-step propagators and their control-amplitude sensitivities.

    ``d0``/``d1`` are the unitary pulse-off/pulse-on propagators; ``b0``/``b1``
    are dD(alpha)/dalpha evaluated at alpha = 0 and alpha = 1 (not unitary).
    All four are immutable and safe to share across threads.
    """

    d0: np.ndarray
    d1: np.ndarray
    b0: np.ndarray
    b1: np.ndarray

    def __post_init__(self):
        for m in (self.d0, self.d1, self.b0, self.b1):
            m.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.d0.shape[0]


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
    b *= 3.0 / cfg.delta
    return float(b[0]) if t_arr.ndim == 0 else b.reshape(t_arr.shape)


def _drift_step(cfg: SystemConfig) -> np.ndarray:
    """Closed-form pulse-off propagator exp(-i*H0*tau_p), exact for the diagonal drift."""
    return np.diag(np.exp(-1j * drift_levels(cfg) * cfg.tau_p))


def _chain_product(mats: np.ndarray) -> np.ndarray:
    """Ordered product mats[-1] @ ... @ mats[0] by pairwise tree reduction."""
    while mats.shape[0] > 1:
        n = mats.shape[0]
        even = n - (n % 2)
        pairs = np.matmul(mats[1:even:2], mats[0:even:2])
        mats = pairs if n % 2 == 0 else np.concatenate([pairs, mats[-1:]], axis=0)
    return mats[0]


def _integrate_amplitude(
    cfg: SystemConfig,
    alpha: float,
    substeps: int | None = None,
    with_sensitivity: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Integrate one SFQ step at control amplitude alpha.

    Returns (D, B) where D is the step propagator and B = dD/dalpha, or
    (D, None) when the sensitivity is not requested.  Fourth-order Magnus:
    with generator A(t) = -i*diag(h) + c(t)*(a - a'), where the control
    coefficient is c(t) = alpha*drive_area*v(t), each substep applies
    exp(Omega) with

        Omega = h*X + (h/2)(c1 + c2)*J + (sqrt(3)h^2/12)(c1 - c2)*[X, J],

    c1, c2 the control at the two Gauss nodes.  Omega is skew-Hermitian, so
    exp(Omega) (from the eigendecomposition of i*Omega) is exactly unitary,
    and dexp(Omega)[dOmega/dalpha] follows from the same eigendecomposition.
    """
    n_sub = cfg.substeps if substeps is None else substeps
    dim = cfg.n_levels
    h = cfg.tau_p / n_sub

    a = lowering_operator(dim)
    j_op = a - a.conj().T
    x_op = -1j * build_drift_hamiltonian(cfg)
    xj_comm = x_op @ j_op - j_op @ x_op

    k = np.arange(n_sub, dtype=float)
    v_lo = pulse_shape((k + _GAUSS_LO) * h, cfg)
    v_hi = pulse_shape((k + _GAUSS_HI) * h, cfg)
    # Scalar weights of J and [X, J] in Omega and in dOmega/dalpha.
    s = 0.5 * h * cfg.drive_area * (v_lo + v_hi)
    w = (np.sqrt(3.0) / 12.0) * h * h * cfg.drive_area * (v_lo - v_hi)

    omega = (
        h * x_op
        + (alpha * s)[:, None, None] * j_op
        + (alpha * w)[:, None, None] * xj_comm
    )
    mu, vecs = np.linalg.eigh(1j * omega)
    phase = np.exp(-1j * mu)
    vecs_h = vecs.conj().swapaxes(-1, -2)
    steps = (vecs * phase[:, None, :]) @ vecs_h

    if not with_sensitivity:
        return _chain_product(steps), None

    # Frechet derivative of each step exponential via the Loewner matrix of
    # exp on the (purely imaginary) spectrum of Omega.
    d_omega = s[:, None, None] * j_op + w[:, None, None] * xj_comm
    half_diff = 0.5 * (mu[:, :, None] - mu[:, None, :])
    half_sum = 0.5 * (mu[:, :, None] + mu[:, None, :])
    loewner = np.exp(-1j * half_sum) * np.sinc(half_diff / np.pi)
    frechet = vecs @ (loewner * (vecs_h @ d_omega @ vecs)) @ vecs_h

    # Accumulate D and B jointly: the block products
    # [[U, 0], [L, U]] compose exactly as D <- U D, B <- U B + L D.
    blocks = np.zeros((n_sub, 2 * dim, 2 * dim), dtype=complex)
    blocks[:, :dim, :dim] = steps
    blocks[:, dim:, dim:] = steps
    blocks[:, dim:, :dim] = frechet
    total = _chain_product(blocks)
    return np.ascontiguousarray(total[:dim, :dim]), np.ascontiguousarray(total[dim:, :dim])


def unitarity_defect(m: np.ndarray) -> float:
    """Frobenius norm of M'M - I."""
    eye = np.eye(m.shape[0])
    return float(np.linalg.norm(m.conj().T @ m - eye))


def precompute_propagators(cfg: SystemConfig) -> PropagatorSet:
    """Build D0, D1 and the sensitivities B0, B1 for one configuration.

    Performed once per configuration; the result is immutable.  Raises
    IntegratorDivergence if the integrated D1 is not unitary to 1e-11.  The
    gradient kernel (adjoint.fused_sweep) uses closed forms that hold only for
    unitary D0 and D1; their error grows like p times the defect, so the gate
    is set tight enough for words of thousands of pulses.  The Magnus
    integrator stays under 2e-12 up to 20000 substeps.
    """
    d0 = _drift_step(cfg)
    d1, b1 = _integrate_amplitude(cfg, 1.0, with_sensitivity=True)
    _, b0 = _integrate_amplitude(cfg, 0.0, with_sensitivity=True)
    defect = unitarity_defect(d1)
    if defect > 1.0e-11:
        raise IntegratorDivergence(
            f"pulse-on propagator unitarity defect {defect:.3e} exceeds 1e-11; "
            f"increase substeps (currently {cfg.substeps})"
        )
    return PropagatorSet(d0=d0, d1=d1, b0=b0, b1=b1)
