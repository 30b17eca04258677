import time

import numpy as np
import pytest

from oracles import adjoint_recursion, fd_gradient_oracle
from sfqctrl.adjoint import fused_sweep, grad_total
from sfqctrl.errors import MissingSnapshots
from sfqctrl.model import SystemConfig, _integrate_amplitude, precompute_propagators
from sfqctrl.objective import (
    GateTarget,
    PulseSequence,
    guard_weight_vector,
    overlap,
    propagate,
)

H_GATE = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


@pytest.fixture(scope="module")
def target():
    return GateTarget.from_essential(H_GATE, 4)


class TestBaseCases:
    @pytest.mark.parametrize("bit", [0, 1])
    def test_single_step_infidelity(self, fast_props, target, bit):
        seq = PulseSequence(np.array([bit]))
        traj = propagate(seq, fast_props)
        b = fast_props.b1 if bit else fast_props.b0
        s = overlap(traj.final, target)
        expected = -0.5 * np.real(np.conj(s) * np.vdot(b[:, :2], target.embedded[:, :2]))
        g, _ = fused_sweep(traj, seq, fast_props, target, np.zeros(4))
        assert g[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("bit", [0, 1])
    def test_single_step_leakage(self, fast_props, fast_cfg, target, bit):
        seq = PulseSequence(np.array([bit]))
        traj = propagate(seq, fast_props)
        w = guard_weight_vector(fast_cfg)
        b = fast_props.b1 if bit else fast_props.b0
        lam_t = 0.5 * w[:, None] * traj.snapshots[1][:, :2]
        expected = 2.0 * np.real(np.vdot(b[:, :2], lam_t))
        _, g = fused_sweep(traj, seq, fast_props, target, w)
        assert g[0] == pytest.approx(expected, rel=1e-12)

    def test_missing_snapshots_rejected(self, fast_props, target):
        seq = PulseSequence(np.array([1, 0]))
        traj = propagate(seq, fast_props, store_all=False)
        with pytest.raises(MissingSnapshots):
            fused_sweep(traj, seq, fast_props, target, np.zeros(4))


class TestFiniteDifferenceOracle:
    def test_random_sequences_match(self, fast_cfg, fast_props, target, rng):
        cache = {}
        for _ in range(4):
            bits = rng.integers(0, 2, size=16)
            g_adj = grad_total(PulseSequence(bits), fast_props, target, fast_cfg)
            g_fd = fd_gradient_oracle(bits, fast_cfg, target, guard_weight_vector(fast_cfg), cache=cache)
            np.testing.assert_allclose(g_adj, g_fd, rtol=1e-5, atol=1e-10)

    def test_derivative_of_product(self, fast_cfg, fast_props, rng):
        # dU_p/da_k assembled as A_p..A_{k+1} B_k U_{k-1} against central
        # differences of the relaxed product, for every k at small p.
        p = 5
        bits = rng.integers(0, 2, size=p)
        seq = PulseSequence(bits)
        traj = propagate(seq, fast_props)
        mats = [fast_props.d1 if b else fast_props.d0 for b in bits]
        sens = [fast_props.b1 if b else fast_props.b0 for b in bits]
        h = 1e-5
        for k in range(p):
            du = sens[k] @ traj.snapshots[k]
            for a in mats[k + 1:]:
                du = a @ du
            d_hi, _ = _integrate_amplitude(fast_cfg, float(bits[k]) + h)
            d_lo, _ = _integrate_amplitude(fast_cfg, float(bits[k]) - h)
            chain_hi = list(mats)
            chain_hi[k] = d_hi
            chain_lo = list(mats)
            chain_lo[k] = d_lo
            u_hi = np.eye(4, dtype=complex)
            u_lo = np.eye(4, dtype=complex)
            for m_hi, m_lo in zip(chain_hi, chain_lo):
                u_hi = m_hi @ u_hi
                u_lo = m_lo @ u_lo
            fd = (u_hi - u_lo) / (2 * h)
            np.testing.assert_allclose(du, fd, rtol=1e-5, atol=1e-8)

    def test_direct_adjoint_products(self, fast_props, target, rng):
        # Gradient from the explicit formula with directly assembled
        # A'..A'V adjoints, no recursion.
        p = 6
        bits = rng.integers(0, 2, size=p)
        seq = PulseSequence(bits)
        traj = propagate(seq, fast_props)
        mats = [fast_props.d1 if b else fast_props.d0 for b in bits]
        sens = [fast_props.b1 if b else fast_props.b0 for b in bits]
        s_conj = np.conj(overlap(traj.final, target))
        direct = np.empty(p)
        for k in range(1, p + 1):
            lam = target.embedded
            for a in reversed(mats[k:]):
                lam = a.conj().T @ lam
            bu = sens[k - 1] @ traj.snapshots[k - 1][:, :2]
            direct[k - 1] = -0.5 * np.real(s_conj * np.vdot(bu, lam[:, :2]))
        g, _ = fused_sweep(traj, seq, fast_props, target, np.zeros(4))
        np.testing.assert_allclose(g, direct, rtol=1e-12, atol=1e-15)


class TestStructure:
    def test_zero_weights_zero_gradient(self, fast_props, target, rng):
        seq = PulseSequence(rng.integers(0, 2, size=12))
        traj = propagate(seq, fast_props)
        _, g = fused_sweep(traj, seq, fast_props, target, np.zeros(4))
        np.testing.assert_array_equal(g, np.zeros(12))

    def test_weight_off_equals_infidelity_gradient(self, fast_props, target, rng):
        cfg = SystemConfig(substeps=400, c1=0.0)
        seq = PulseSequence(rng.integers(0, 2, size=12))
        traj = propagate(seq, fast_props)
        np.testing.assert_array_equal(
            grad_total(seq, fast_props, target, cfg),
            fused_sweep(traj, seq, fast_props, target, guard_weight_vector(cfg))[0],
        )

    def test_linear_in_leak_weight(self, fast_props, target, rng):
        seq = PulseSequence(rng.integers(0, 2, size=10))
        a = 0.37
        gs = {
            c1: grad_total(seq, fast_props, target, SystemConfig(substeps=400, c1=c1))
            for c1 in (0.0, 1.0, a)
        }
        np.testing.assert_allclose(gs[a] - gs[0.0], a * (gs[1.0] - gs[0.0]), atol=1e-12)

    def test_kernel_matches_reference_recursion(self, fast_cfg, fast_props, target, rng):
        seq = PulseSequence(rng.integers(0, 2, size=20))
        traj = propagate(seq, fast_props)
        w = guard_weight_vector(fast_cfg)
        f1, f2 = fused_sweep(traj, seq, fast_props, target, w)
        s1, s2 = adjoint_recursion(traj, seq, fast_props, target, w)
        assert np.abs(f1 - s1).max() <= 1e-13
        assert np.abs(f2 - s2).max() <= 1e-13

    def test_kernel_matches_reference_recursion_at_paper_scale(self, paper_cfg, paper_props, target):
        # The closed forms trade the recursion for unitarity of D0/D1; at
        # p = 1600 their error stays at the level of the recursion's roundoff.
        seq = PulseSequence(np.random.default_rng(1600).integers(0, 2, size=1600))
        traj = propagate(seq, paper_props)
        w = guard_weight_vector(paper_cfg)
        f1, f2 = fused_sweep(traj, seq, paper_props, target, w)
        s1, s2 = adjoint_recursion(traj, seq, paper_props, target, w)
        assert np.abs(f1 - s1).max() <= 1e-12
        assert np.abs(f2 - s2).max() <= 1e-12


class TestComplexity:
    def test_gradient_cost_linear_in_p(self, fast_cfg, fast_props, target):
        # The batched kernels spend ~0.2 ms on a few dozen numpy calls whatever
        # p is, the work of ~200 steps, so the sizes start where the per-step
        # cost dominates.
        sizes = [1000, 2000, 4000, 8000]
        rng = np.random.default_rng(0)
        seqs = {p: PulseSequence(rng.integers(0, 2, size=p)) for p in sizes}
        for p in sizes:  # warm up caches and allocator
            grad_total(seqs[p], fast_props, target, fast_cfg)
        times = []
        for p in sizes:
            reps = []
            for _ in range(7):
                t0 = time.perf_counter()
                grad_total(seqs[p], fast_props, target, fast_cfg)
                reps.append(time.perf_counter() - t0)
            times.append(np.median(reps))
        slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
        assert 0.8 <= slope <= 1.2, f"gradient cost scales as p^{slope:.2f}"
