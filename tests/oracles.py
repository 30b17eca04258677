"""Independent oracles used by the test suite.

These deliberately avoid the production chain evaluation and gradient kernel:
objectives are recomputed from their defining formulas with plain matrix
products, gradients by central finite differences through integrator
evaluations at perturbed amplitudes or by the step-by-step backward adjoint
recursion, the one-step propagators by integrating every substep of the grid,
the knapsack sub-problem by full Hamming-ball enumeration or a stable sort of
all p gains, and CSV text by formatting one value at a time.
"""

from __future__ import annotations

import numpy as np

from sfqctrl.model import (
    _GAUSS_HI,
    _GAUSS_LO,
    PropagatorSet,
    SystemConfig,
    _chain_product,
    _integrate_amplitude,
    build_drift_hamiltonian,
    lowering_operator,
    pulse_shape,
)
from sfqctrl.objective import ForwardTrajectory, GateTarget, PulseSequence


def full_grid_integration(cfg: SystemConfig, alpha: float, substeps: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(D, dD/dalpha) of one SFQ step, integrating every substep of the grid.

    The same fourth-order Magnus scheme as the production integrator, with no
    trimming of the pure-drift substeps past the pulse: each of them is
    exponentiated and Frechet-differentiated like the driven ones.
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
    s = 0.5 * h * cfg.drive_area * (v_lo + v_hi)
    w = (np.sqrt(3.0) / 12.0) * h * h * cfg.drive_area * (v_lo - v_hi)

    omega = h * x_op + (alpha * s)[:, None, None] * j_op + (alpha * w)[:, None, None] * xj_comm
    mu, vecs = np.linalg.eigh(1j * omega)
    vecs_h = vecs.conj().swapaxes(-1, -2)
    steps = (vecs * np.exp(-1j * mu)[:, None, :]) @ vecs_h

    d_omega = s[:, None, None] * j_op + w[:, None, None] * xj_comm
    half_diff = 0.5 * (mu[:, :, None] - mu[:, None, :])
    half_sum = 0.5 * (mu[:, :, None] + mu[:, None, :])
    loewner = np.exp(-1j * half_sum) * np.sinc(half_diff / np.pi)
    frechet = vecs @ (loewner * (vecs_h @ d_omega @ vecs)) @ vecs_h

    blocks = np.zeros((n_sub, 2 * dim, 2 * dim), dtype=complex)
    blocks[:, :dim, :dim] = steps
    blocks[:, dim:, dim:] = steps
    blocks[:, dim:, :dim] = frechet
    total = _chain_product(blocks)
    return total[:dim, :dim], total[dim:, :dim]


def population_rows_loop(traj: ForwardTrajectory, cfg: SystemConfig) -> list[list]:
    """Rows of populations.csv built one element at a time."""
    n, e = cfg.n_levels, cfg.n_essential
    pops = np.abs(traj.snapshots) ** 2
    rows = []
    for j in range(traj.p + 1):
        row: list = [float(j * cfg.tau_p)]
        for a in range(e):
            row.extend(float(pops[j, b, a]) for b in range(n))
        rows.append(row)
    return rows


def format_row(values) -> str:
    """One CSV row, value by value: floats as f"{v:.12e}", anything else as str(v)."""
    return ",".join(f"{v:.12e}" if isinstance(v, float) else str(v) for v in values)


def csv_text(header: list[str], rows: list[list]) -> str:
    """The text of a CSV file with this header and these rows, one format_row per row."""
    return "\n".join([",".join(header)] + [format_row(row) for row in rows]) + "\n"


def chain_snapshots(step_matrices: list[np.ndarray]) -> np.ndarray:
    """U_0 = I, U_j = M_j ... M_1, stacked."""
    dim = step_matrices[0].shape[0]
    snaps = [np.eye(dim, dtype=complex)]
    for m in step_matrices:
        snaps.append(m @ snaps[-1])
    return np.array(snaps)


def adjoint_recursion(
    traj: ForwardTrajectory,
    alpha: PulseSequence,
    props: PropagatorSet,
    target: GateTarget,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(dJ1/da, dJ2/da) by one backward pass over both adjoints, one step per bit.

    With A_k = D_{a_k} and B_k = dD/dalpha at the bit's value:

        Lam_p = V,                Lam_{k-1} = A_k' Lam_k,
        dJ1/da_k = -(2/E^2) Re( conj(S_T) <B_k U_{k-1} P, Lam_k P>_F ),

        Lt_p = 1/2 W U_p P,       Lt_{k-1} = W U_{k-1} P + A_k' Lt_k,
        dJ2/da_k = (2/p) Re <B_k U_{k-1} P, Lt_k>_F.

    Needs no unitarity of A_k, unlike the closed forms of the production kernel.
    """
    snaps = traj.snapshots
    e = target.n_essential
    w = np.asarray(weights, dtype=float)[:, None]
    s_conj = np.conj(np.vdot(traj.final[:, :e], target.embedded[:, :e]))
    adj = (props.d0.conj().T, props.d1.conj().T)
    sens = (props.b0, props.b1)
    p = len(alpha)
    g1 = np.empty(p)
    g2 = np.empty(p)
    lam = target.embedded
    lam_t = 0.5 * w * snaps[p][:, :e]
    for k in range(p, 0, -1):
        bit = alpha.bits[k - 1]
        bu = sens[bit] @ snaps[k - 1][:, :e]
        g1[k - 1] = (-2.0 / (e * e)) * np.real(s_conj * np.vdot(bu, lam[:, :e]))
        g2[k - 1] = (2.0 / p) * np.real(np.vdot(bu, lam_t))
        if k > 1:
            lam = adj[bit] @ lam
            lam_t = w * snaps[k - 1][:, :e] + adj[bit] @ lam_t
    return g1, g2


def infidelity_formula(final: np.ndarray, target: GateTarget) -> float:
    e = target.n_essential
    s = np.vdot(final[:, :e], target.embedded[:, :e])
    return 1.0 - abs(s) ** 2 / e**2


def leakage_formula(snaps: np.ndarray, w_diag: np.ndarray, n_essential: int) -> float:
    p = snaps.shape[0] - 1
    terms = []
    for u in snaps:
        cols = u[:, :n_essential]
        terms.append(float(np.real(np.vdot(cols, w_diag[:, None] * cols))))
    return (0.5 * terms[0] + sum(terms[1:-1]) + 0.5 * terms[-1]) / p


def relaxed_objective(
    bits: np.ndarray,
    k: int,
    amplitude: float,
    cfg: SystemConfig,
    target: GateTarget,
    w_diag: np.ndarray,
    cache: dict,
) -> float:
    """J of the chain with bit k's propagator replaced by D(amplitude)."""
    if amplitude not in cache:
        cache[amplitude] = _integrate_amplitude(cfg, amplitude)[0]
    mats = [cache[float(b)] for b in bits]
    mats[k] = cache[amplitude]
    snaps = chain_snapshots(mats)
    j1 = infidelity_formula(snaps[-1], target)
    j2 = leakage_formula(snaps, w_diag, target.n_essential)
    return j1 + cfg.c1 * j2


def fd_gradient_oracle(
    bits: np.ndarray,
    cfg: SystemConfig,
    target: GateTarget,
    w_diag: np.ndarray,
    step: float = 1.0e-5,
    cache: dict | None = None,
) -> np.ndarray:
    """Central finite differences of the relaxed objective, coordinate by coordinate."""
    cache = {} if cache is None else cache
    for endpoint in (0.0, 1.0):
        if endpoint not in cache:
            cache[endpoint] = _integrate_amplitude(cfg, endpoint)[0]
    grad = np.empty(len(bits))
    for k, b in enumerate(bits):
        hi = relaxed_objective(bits, k, float(b) + step, cfg, target, w_diag, cache)
        lo = relaxed_objective(bits, k, float(b) - step, cfg, target, w_diag, cache)
        grad[k] = (hi - lo) / (2.0 * step)
    return grad


def enumerate_ball_minimum(bits: np.ndarray, g: np.ndarray, radius: int) -> float:
    """Exhaustive minimum of g.(x - bits) over the Hamming ball of given radius."""
    p = len(bits)
    codes = np.arange(2**p, dtype=np.int64)
    points = (codes[:, None] >> np.arange(p)) & 1
    dist = np.abs(points - bits[None, :]).sum(axis=1)
    values = (points - bits[None, :]).astype(float) @ g
    return float(values[dist <= radius].min())


def full_sort_subproblem(alpha_k: PulseSequence, g: np.ndarray, radius: int) -> PulseSequence:
    """The knapsack step by a stable argsort of all p gains, then dropping the non-negative ones."""
    bits = alpha_k.bits
    gains = np.where(bits == 0, g, -g)
    chosen = np.argsort(gains, kind="stable")[:radius]
    chosen = chosen[gains[chosen] < 0.0]
    if chosen.size == 0:
        return alpha_k
    new_bits = np.array(bits)
    new_bits[chosen] ^= 1
    return PulseSequence(new_bits)


def lattice_gradient(rng: np.random.Generator, p: int) -> np.ndarray:
    """Random gradient on a dyadic lattice so dot products are exact in floats."""
    return rng.integers(-1000, 1001, size=p).astype(float) / 64.0
