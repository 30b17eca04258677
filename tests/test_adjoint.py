import sys
import tracemalloc

import numpy as np
import pytest

from oracles import adjoint_recursion, fd_gradient_oracle
from sfqctrl.adjoint import fused_sweep
from sfqctrl.model import SystemConfig, _integrate_amplitude, precompute_propagators
from sfqctrl.objective import (
    GateTarget,
    PulseSequence,
    guard_weight_vector,
    overlap,
    propagate,
)
from sfqctrl.trustregion import ObjectiveEvaluator

H_GATE = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


@pytest.fixture(scope="module")
def target():
    return GateTarget.from_essential(H_GATE, 4)


def relaxed_gradient(seq, props, target, cfg):
    return ObjectiveEvaluator(props, target, cfg).gradient(seq, propagate(seq, props))


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


class TestFiniteDifferenceOracle:
    def test_random_sequences_match(self, fast_cfg, fast_props, target, rng):
        cache = {}
        for _ in range(4):
            bits = rng.integers(0, 2, size=16)
            g_adj = relaxed_gradient(PulseSequence(bits), fast_props, target, fast_cfg)
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
            relaxed_gradient(seq, fast_props, target, cfg),
            fused_sweep(traj, seq, fast_props, target, guard_weight_vector(cfg))[0],
        )

    def test_linear_in_leak_weight(self, fast_props, target, rng):
        seq = PulseSequence(rng.integers(0, 2, size=10))
        a = 0.37
        gs = {
            c1: relaxed_gradient(seq, fast_props, target, SystemConfig(substeps=400, c1=c1))
            for c1 in (0.0, 1.0, a)
        }
        np.testing.assert_allclose(gs[a] - gs[0.0], a * (gs[1.0] - gs[0.0]), atol=1e-12)

    @pytest.mark.parametrize(
        "n, e", [pytest.param(n, e, id=f"N{n}-E{e}") for n in (3, 4, 5) for e in sorted({1, 2, n - 1})]
    )
    def test_kernel_matches_reference_recursion(self, n, e):
        # Every N and E: the kernel reads the guard rows as weights[E:] and
        # the essential block as the first E columns.
        rng = np.random.default_rng(10 * n + e)
        cfg = SystemConfig(n_levels=n, n_essential=e, guard_weights=tuple(np.linspace(0.1, 1.0, n - e)), substeps=400)
        props = precompute_propagators(cfg)
        v_e = np.linalg.qr(rng.normal(size=(e, e)) + 1j * rng.normal(size=(e, e)))[0]
        target = GateTarget.from_essential(v_e, n)
        seq = PulseSequence(rng.integers(0, 2, size=20))
        traj = propagate(seq, props)
        w = guard_weight_vector(cfg)
        f1, f2 = fused_sweep(traj, seq, props, target, w)
        s1, s2 = adjoint_recursion(traj, seq, props, target, w)
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


def count_steps(fn, *args) -> int:
    """Interpreter-level steps of fn(*args): Python trace events plus C function calls.

    Numpy ufuncs such as matmul are neither, so a per-step loop shows up
    through the Python lines that drive it.
    """
    steps = 0

    def trace(frame, event, arg):
        nonlocal steps
        steps += 1
        return trace

    def profile(frame, event, arg):
        nonlocal steps
        steps += event == "c_call"

    saved = sys.gettrace(), sys.getprofile()
    sys.settrace(trace)
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.settrace(saved[0])
        sys.setprofile(saved[1])
    return steps


def peak_bytes(fn, *args) -> int:
    """Peak traced allocation (numpy buffers included) while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestComplexity:
    def test_gradient_cost_linear_in_p(self, fast_cfg, fast_props, target):
        # O(p) work in O(sqrt(p)) interpreter steps, counted rather than
        # timed: the sweep takes a fixed number of steps, the forward product
        # one table gather and a few steps per lockstep position and chunk of
        # the p/8 byte totals (~sqrt(p/8) of each), and the sweep's memory
        # grows like p.
        sizes = [1000, 2000, 4000, 8000]
        rng = np.random.default_rng(0)
        seqs = {p: PulseSequence(rng.integers(0, 2, size=p)) for p in sizes}
        trajs = {p: propagate(seqs[p], fast_props) for p in sizes}
        w = guard_weight_vector(fast_cfg)

        def sweep(p):
            fused_sweep(trajs[p], seqs[p], fast_props, target, w)

        sweep(sizes[0])  # first call may import or cache inside numpy
        assert count_steps(sweep, 1000) == count_steps(sweep, 8000)
        forward = {p: count_steps(propagate, seqs[p], fast_props) for p in (1000, 8000)}
        assert forward[8000] <= np.sqrt(8) * forward[1000], forward
        peaks = [peak_bytes(sweep, p) for p in sizes[1:]]
        slope = np.polyfit(np.log(sizes[1:]), np.log(peaks), 1)[0]
        assert 0.8 <= slope <= 1.2, f"gradient memory scales as p^{slope:.2f}"
