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

and R is one reversed cumulative sum.  Every product with a constant
matrix is one GEMM over all steps: [A_0'B_0; A_1'B_1] by every U_k P, and
U_p'VP against every Z_k.  Only Z_k (summed over levels) and the terms of R
(summed over the guard levels, where W is non-zero) are per-step sums along
the contiguous time axis.  That is O(p) work in a fixed number of numpy
calls, no per-step Python loop.  The closed forms hold only as far as D0
and D1 are unitary: their error grows like p times the unitarity defect,
which precompute_propagators caps at 1e-11.  The step-by-step recursion is
kept in the test suite as the reference.
"""

from __future__ import annotations

import numpy as np

from .model import PropagatorSet
from .objective import (
    ForwardTrajectory,
    GateTarget,
    PulseSequence,
    overlap,
)


def fused_sweep(
    traj: ForwardTrajectory,
    alpha: PulseSequence,
    props: PropagatorSet,
    target: GateTarget,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Both gradient terms from the stored snapshots; returns (dJ1/da, dJ2/da).

    weights, the diagonal of W, is zero on the E essential levels as guard_weight_vector builds it.
    """
    n, e, p = props.dim, target.n_essential, len(alpha)
    # Level-major copy u[n, i, k] = (U_k)[n, i], so that every contraction
    # below runs along the contiguous time axis k.
    u = np.ascontiguousarray(traj.snapshots.transpose(1, 2, 0))
    # conj(Z_k) = U_{k-1}^T conj(G_k U_{k-1} P), G_k = A_k' B_k: both G times
    # every U_k P in one GEMM, then the bit picks one of the two per step.
    g = np.concatenate([props.d0.conj().T @ props.b0, props.d1.conj().T @ props.b1])
    gu = (g @ u[:, :e].reshape(n, -1)).reshape(2, n, e, p + 1)[..., :-1]
    gu_h = np.where(alpha.bits, gu[1], gu[0]).conj()
    z_h = (u[:, :, None, :-1] * gu_h[:, None]).sum(axis=0)
    # R_k = sum_{j>=k} c_j U_j' W U_j P, a reversed cumulative sum over j.
    wu_h = weights[e:, None, None] * u[e:, :, 1:].conj()
    q = (wu_h[:, :, None] * u[e:, None, :e, 1:]).sum(axis=0)
    q[:, :, -1] *= 0.5
    r = np.cumsum(q[:, :, ::-1], axis=-1)[:, :, ::-1]
    m = traj.final.conj().T @ target.embedded[:, :e]
    s_conj = np.conj(overlap(traj.final, target))
    g1 = (-2.0 / (e * e)) * np.real(s_conj * (m.ravel() @ z_h.reshape(n * e, p)))
    g2 = (2.0 / p) * np.real((z_h * r).sum(axis=(0, 1)))
    return g1, g2
