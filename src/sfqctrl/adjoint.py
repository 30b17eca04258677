"""Relaxed gradient of the objective by a closed-form, batched adjoint.

Each component of the gradient treats one binary bit as a real variable and
differentiates the propagator product through the cached sensitivities B0/B1.
Writing A_k = D_{a_k} and B_k = dD/dalpha at the bit's value, the adjoints
obey the backward recursions

    Lam_p = V,                Lam_{k-1} = A_k' Lam_k,
    dJ1/da_k = -(2/E^2) Re( conj(S_T) <B_k U_{k-1} P, Lam_k P>_F ),

    Lt_p = 1/2 W U_p P,       Lt_{k-1} = W U_{k-1} P + A_k' Lt_k,
    dJ2/da_k = (2/p) Re <B_k U_{k-1} P, Lt_k>_F.

Because D0 and D1 are unitary, A_{k+1}' ... A_j' = U_k U_j', so both
recursions have closed forms over the stored snapshots:

    Lam_k P = U_k (U_p' V P),
    Lt_k    = U_k R_k,   R_k = sum_{j>=k} c_j U_j' W U_j P,  c_p = 1/2, c_j = 1.

With Z_k = U_k' B_k U_{k-1} P = U_{k-1}' (A_k' B_k) U_{k-1} P both gradients
are inner products taken for every k at once,

    dJ1/da_k = -(2/E^2) Re( conj(S_T) <Z_k, U_p' V P>_F ),
    dJ2/da_k = (2/p) Re <Z_k, R_k>_F,

and R is one reversed cumulative sum.  That is O(p) work in a fixed number
of numpy calls, no per-step Python loop.  The closed forms hold only as far
as D0 and D1 are unitary: their error grows like p times the unitarity
defect, which precompute_propagators caps at 1e-11.  The step-by-step
recursion is kept in the test suite as the reference.
"""

from __future__ import annotations

import numpy as np

from .errors import MissingSnapshots
from .model import PropagatorSet, SystemConfig
from .objective import (
    ForwardTrajectory,
    GateTarget,
    PulseSequence,
    guard_weight_vector,
    overlap,
    propagate,
)


def _require_snapshots(traj: ForwardTrajectory) -> np.ndarray:
    if traj.snapshots is None:
        raise MissingSnapshots("gradient sweeps need a trajectory propagated with store_all")
    return traj.snapshots


def _weight_diagonal(weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    return np.diag(w).copy() if w.ndim == 2 else w


def fused_sweep(
    traj: ForwardTrajectory,
    alpha: PulseSequence,
    props: PropagatorSet,
    target: GateTarget,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Both gradient terms from the stored snapshots; returns (dJ1/da, dJ2/da)."""
    snaps = _require_snapshots(traj)
    e, p = target.n_essential, len(alpha)
    w = _weight_diagonal(weights)
    # Level-major copy u[n, i, k] = (U_k)[n, i], so that every contraction
    # below runs along the contiguous time axis k.
    u = np.ascontiguousarray(snaps.transpose(1, 2, 0))
    # Z_k = U_{k-1}' G_k U_{k-1} P, where G_k = A_k' B_k is one of two matrices.
    g_step = np.where(
        alpha.bits,
        (props.d1.conj().T @ props.b1)[:, :, None],
        (props.d0.conj().T @ props.b0)[:, :, None],
    )
    gu = np.einsum("ijk,jek->iek", g_step, u[:, :e, :-1])
    z_h = np.einsum("nik,nek->iek", u[:, :, :-1], gu.conj())
    # R_k = sum_{j>=k} c_j U_j' W U_j P, a reversed cumulative sum over j.
    q = np.einsum("n,nik,nek->iek", w, u[:, :, 1:].conj(), u[:, :e, 1:])
    q[:, :, -1] *= 0.5
    r = np.cumsum(q[:, :, ::-1], axis=-1)[:, :, ::-1]
    m = traj.final.conj().T @ target.embedded[:, :e]
    s_conj = np.conj(overlap(traj.final, target))
    g1 = (-2.0 / (e * e)) * np.real(s_conj * np.einsum("iek,ie->k", z_h, m))
    g2 = (2.0 / p) * np.real(np.einsum("iek,iek->k", z_h, r))
    return g1, g2


def grad_total(
    alpha: PulseSequence,
    props: PropagatorSet,
    target: GateTarget,
    cfg: SystemConfig,
) -> np.ndarray:
    """Gradient of J = J1 + c1*J2: one forward pass plus one fused_sweep."""
    traj = propagate(alpha, props, store_all=True)
    g1, g2 = fused_sweep(traj, alpha, props, target, guard_weight_vector(cfg))
    return g1 + cfg.c1 * g2
