"""Forward propagation and the infidelity/leakage objective.

The whole gate evolution is a word in the two-letter alphabet {D0, D1}:
U_j = D_{a_j} ... D_{a_1} for the binary sequence a.  The objective combines
the global-phase-invariant gate infidelity

    J1 = 1 - |<U_p P, V P>_F|^2 / E^2

with a trapezoidal time average of weighted guard-state population,

    J2 = (1/p) [ 1/2<U_0 P, W U_0 P> + sum_{j=1}^{p-1} <U_j P, W U_j P>
                 + 1/2 <U_p P, W U_p P> ],

where P projects onto the first E columns and W is diagonal with positive
entries on guard rows only.  J = J1 + c1*J2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonUnitaryTarget, ParseError, ValidationError
from .model import PropagatorSet, SystemConfig


@dataclass(frozen=True, eq=False)
class PulseSequence:
    """Binary on/off decisions for p consecutive SFQ steps."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.ndim != 1 or bits.size < 1:
            raise ValidationError("pulse sequence must be a nonempty 1-D vector", key="bits")
        if not np.all((bits == 0) | (bits == 1)):
            raise ValidationError("pulse sequence entries must be 0 or 1", key="bits")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return int(self.bits.size)

    @property
    def p(self) -> int:
        return len(self)

    @classmethod
    def random(cls, p: int, rng: np.random.Generator) -> "PulseSequence":
        return cls(rng.integers(0, 2, size=p))

    @classmethod
    def from_string(cls, text: str) -> "PulseSequence":
        try:
            raw = text.strip().encode("ascii")
        except UnicodeEncodeError:
            raise ParseError(f"pulse sequence must be a string over {{0,1}}, got {text!r}") from None
        return cls(np.frombuffer(raw, dtype=np.uint8) - ord("0"))

    def to_string(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)


@dataclass(frozen=True)
class GateTarget:
    """Target unitary V_E on the essential levels, embedded in the full space."""

    v_essential: np.ndarray
    embedded: np.ndarray

    @classmethod
    def from_essential(cls, v_e: np.ndarray, n_levels: int) -> "GateTarget":
        v_e = np.asarray(v_e, dtype=complex)
        e = v_e.shape[0]
        if v_e.shape != (e, e) or e < 1 or e > n_levels:
            raise NonUnitaryTarget(f"target must be square with 1 <= E <= N, got shape {v_e.shape}")
        defect = np.linalg.norm(v_e.conj().T @ v_e - np.eye(e))
        if defect > 1.0e-12:
            raise NonUnitaryTarget(f"target unitarity defect {defect:.3e} exceeds 1e-12")
        embedded = np.zeros((n_levels, n_levels), dtype=complex)
        embedded[:e, :e] = v_e
        v_e.setflags(write=False)
        embedded.setflags(write=False)
        return cls(v_essential=v_e, embedded=embedded)

    @property
    def n_essential(self) -> int:
        return self.v_essential.shape[0]


@dataclass(frozen=True)
class ForwardTrajectory:
    """Solution operators U_0..U_p along the pulse sequence."""

    snapshots: np.ndarray

    @property
    def final(self) -> np.ndarray:
        """U_p, the gate the whole word realizes."""
        return self.snapshots[-1]

    @property
    def p(self) -> int:
        return self.snapshots.shape[0] - 1


def propagate(alpha: PulseSequence, props: PropagatorSet) -> ForwardTrajectory:
    """Multiply out U_j = D_{a_j} ... D_{a_1}; U_0 = I, by table lookup and blocked prefixes.

    The word is packed into m = ceil(p/8) bytes, the last one padded.  One
    gather from props.byte_prefixes gives every step's product within its
    byte, the m byte prefixes come from the byte totals (_prefix_products),
    and one batched fix-up multiplies every byte by its prefix: O(p) work in
    O(sqrt(p/8)) numpy calls.  The full stack U_0..U_p is kept for leakage
    and gradient evaluation.
    """
    # Padding bits past p only feed rows that are cut off at the end.
    local = props.byte_prefixes[np.packbits(alpha.bits, bitorder="little")]
    snaps = _apply_prefixes(local, _prefix_products(local[:-1, -1]))[: len(alpha) + 1]
    snaps.setflags(write=False)
    return ForwardTrajectory(snapshots=snaps)


def _apply_prefixes(local: np.ndarray, prefixes: np.ndarray) -> np.ndarray:
    """I, then every row of block local[k] times prefixes[k], as one (size*N x N) product per block."""
    blocks, size, dim = local.shape[:3]
    out = np.empty((blocks * size + 1, dim, dim), dtype=complex)
    out[0] = np.eye(dim)
    np.matmul(local.reshape(blocks, size * dim, dim), prefixes, out=out[1:].reshape(blocks, size * dim, dim))
    return out


def _prefix_products(mats: np.ndarray) -> np.ndarray:
    """The n+1 prefixes I, M_0, M_1 M_0, ... of a stack of n matrices, sqrt(n)-blocked.

    Chunks of L ~ sqrt(n) matrices, the last one padded, advance in
    lockstep, one batched product per position; a short pass forms the
    chunk prefixes, and one fix-up applies them.
    """
    n, dim = mats.shape[0], mats.shape[-1]
    size = max(1, round(n**0.5))
    local = np.zeros((-(-n // size), size, dim, dim), dtype=complex)
    local.reshape(-1, dim, dim)[:n] = mats
    for i in range(1, size):
        np.matmul(local[:, i], local[:, i - 1], out=local[:, i])
    prefix = [np.eye(dim)]
    for total in local[:-1, -1]:
        prefix.append(total @ prefix[-1])
    return _apply_prefixes(local, np.array(prefix))[: n + 1]


def overlap(final: np.ndarray, target: GateTarget) -> complex:
    """Frobenius inner product S_T = <U_p P, V P>_F over the essential columns."""
    e = target.n_essential
    return complex(np.vdot(final[:, :e], target.embedded[:, :e]))


def infidelity(final: np.ndarray, target: GateTarget) -> float:
    """Gate infidelity J1 = 1 - |S_T|^2 / E^2; zero iff U_p matches V up to global phase."""
    e = target.n_essential
    s = overlap(final, target)
    return 1.0 - (s.real * s.real + s.imag * s.imag) / (e * e)


def guard_weight_vector(cfg: SystemConfig) -> np.ndarray:
    """Diagonal of W: zeros on the E essential levels, cfg.guard_weights on the rest."""
    w = np.zeros(cfg.n_levels)
    w[cfg.n_essential:] = cfg.guard_weights
    return w


def leakage(traj: ForwardTrajectory, weights: np.ndarray, n_essential: int) -> float:
    """Trapezoidal average of <U_j P, W U_j P>_F over the snapshots; weights is the diagonal of W."""
    # |z|^2 as re^2 + im^2 on a float view of the essential columns, with no square root.
    amp = traj.snapshots[:, :, :n_essential].view(np.float64)
    terms = np.einsum("jnx,jnx->jn", amp, amp) @ weights
    p = terms.size - 1
    return float((0.5 * terms[0] + terms[1:-1].sum() + 0.5 * terms[-1]) / p)
