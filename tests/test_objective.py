import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import chain_snapshots
from sfqctrl.errors import NonUnitaryTarget, ParseError, ValidationError
from sfqctrl.model import SystemConfig, drift_levels, precompute_propagators
from sfqctrl.objective import (
    ForwardTrajectory,
    GateTarget,
    PulseSequence,
    guard_weight_vector,
    infidelity,
    leakage,
    propagate,
)
from sfqctrl.trustregion import ObjectiveEvaluator

H_GATE = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
X_GATE = np.array([[0.0, 1.0], [1.0, 0.0]])
# Word lengths at the edges of the blocking: one step, perfect squares and their neighbours, byte
# edges 8k-1, 8k, 8k+1, and 8n^2 +- 8, where the sqrt-blocked prefixes of the byte totals wrap.
BLOCK_EDGE_LENGTHS = sorted(
    {1, 2, 200}
    | {n * n + d for n in range(2, 15) for d in (-1, 0, 1)}
    | {8 * k + d for k in (1, 2, 3, 4, 25, 200) for d in (-1, 0, 1)}
    | {8 * n * n + d for n in range(1, 16) for d in (-8, 0, 8)} - {0}
)


class TestPulseSequence:
    def test_rejects_non_binary(self):
        with pytest.raises(ValidationError):
            PulseSequence(np.array([0, 2, 1]))
        with pytest.raises(ValidationError):
            PulseSequence(np.array([], dtype=int))

    def test_string_round_trip(self):
        seq = PulseSequence(np.array([1, 0, 0, 1, 1]))
        assert seq.to_string() == "10011"
        assert np.array_equal(PulseSequence.from_string("10011").bits, seq.bits)

    def test_from_string_rejects_non_ascii(self):
        with pytest.raises(ParseError):
            PulseSequence.from_string("10é1")

    def test_random_is_seeded(self):
        a = PulseSequence.random(50, np.random.default_rng(3))
        b = PulseSequence.random(50, np.random.default_rng(3))
        assert np.array_equal(a.bits, b.bits)


class TestGateTarget:
    def test_embedding_zero_outside_block(self):
        t = GateTarget.from_essential(H_GATE, 4)
        np.testing.assert_allclose(t.embedded[:2, :2], H_GATE)
        assert np.all(t.embedded[2:, :] == 0) and np.all(t.embedded[:, 2:] == 0)

    def test_non_unitary_rejected(self):
        with pytest.raises(NonUnitaryTarget):
            GateTarget.from_essential(np.array([[1, 0], [0, 1.0 + 1e-6]]), 4)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0, np.nan), -np.inf])
    def test_non_finite_entry_rejected(self, entry):
        # NaN compares False against any bound, so the defect test must be "not <= bound".
        with pytest.raises(NonUnitaryTarget):
            GateTarget.from_essential(np.array([[entry, 0], [0, 1]]), 4)


class TestPropagate:
    def test_all_zeros_is_drift_power(self, fast_props):
        p = 9
        traj = propagate(PulseSequence(np.zeros(p, dtype=int)), fast_props)
        np.testing.assert_allclose(traj.final, np.linalg.matrix_power(fast_props.d0, p), atol=1e-12)

    def test_single_pulse_product(self, fast_props):
        p, k = 7, 4  # pulse fires on step k (1-based)
        bits = np.zeros(p, dtype=int)
        bits[k - 1] = 1
        traj = propagate(PulseSequence(bits), fast_props)
        expected = (
            np.linalg.matrix_power(fast_props.d0, p - k)
            @ fast_props.d1
            @ np.linalg.matrix_power(fast_props.d0, k - 1)
        )
        np.testing.assert_allclose(traj.final, expected, atol=1e-12)

    def test_two_pulses(self, fast_props):
        traj = propagate(PulseSequence(np.array([1, 1])), fast_props)
        np.testing.assert_allclose(traj.final, fast_props.d1 @ fast_props.d1, atol=1e-13)
        eye = np.eye(4)
        assert np.linalg.norm(traj.final.conj().T @ traj.final - eye) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.sampled_from(BLOCK_EDGE_LENGTHS), st.integers(1, 200)),
        st.integers(0, 2**32 - 1),
    )
    def test_blocked_product_matches_sequential(self, fast_props, length, seed):
        bits = np.random.default_rng(seed).integers(0, 2, size=length)
        traj = propagate(PulseSequence(bits), fast_props)
        expected = chain_snapshots([fast_props.d1 if b else fast_props.d0 for b in bits])
        assert traj.snapshots.shape == expected.shape
        assert np.abs(traj.snapshots - expected).max() <= 1e-13
        np.testing.assert_array_equal(traj.final, traj.snapshots[-1])

    def test_forward_only_set_propagates_identically(self, fast_cfg, fast_props, rng):
        forward = precompute_propagators(fast_cfg, with_sensitivity=False)
        for p in (5, 8, 200, 1601):
            seq = PulseSequence.random(p, rng)
            np.testing.assert_array_equal(propagate(seq, forward).snapshots, propagate(seq, fast_props).snapshots)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
    def test_population_conserved(self, fast_props, bits):
        traj = propagate(PulseSequence(np.array(bits)), fast_props)
        norms = np.linalg.norm(traj.snapshots, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-8)


class TestInfidelity:
    def test_perfect_gate(self):
        target = GateTarget.from_essential(H_GATE, 4)
        u = np.eye(4, dtype=complex)
        u[:2, :2] = H_GATE
        assert infidelity(u, target) <= 1e-12

    def test_traceless_target(self):
        target = GateTarget.from_essential(X_GATE, 4)
        assert infidelity(np.eye(4, dtype=complex), target) == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(phi=st.floats(min_value=-10.0, max_value=10.0))
    def test_global_phase_invariance(self, fast_props, phi):
        target = GateTarget.from_essential(H_GATE, 4)
        u = propagate(PulseSequence(np.array([1, 0, 1, 1, 0])), fast_props).final
        assert infidelity(np.exp(1j * phi) * u, target) == pytest.approx(
            infidelity(u, target), abs=1e-12
        )

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=30))
    def test_bounds(self, fast_props, bits):
        target = GateTarget.from_essential(H_GATE, 4)
        traj = propagate(PulseSequence(np.array(bits)), fast_props)
        j1 = infidelity(traj.final, target)
        assert -1e-12 <= j1 <= 1.0 + 1e-12


class TestLeakage:
    def test_zero_weights(self, fast_props, fast_cfg, rng):
        traj = propagate(PulseSequence.random(12, rng), fast_props)
        assert leakage(traj, np.zeros(4), fast_cfg.n_essential) == 0.0

    def test_identity_trajectory(self):
        snaps = np.array([np.eye(4, dtype=complex)] * 5)
        traj = ForwardTrajectory(snapshots=snaps)
        assert leakage(traj, np.array([0, 0, 0.1, 1.0]), 2) == 0.0

    def test_guard_column_contribution(self):
        # Middle snapshot sends |0> to |2>; with w1 = 0.1 its term is 0.1.
        u_mid = np.eye(4, dtype=complex)
        u_mid[:, 0] = 0.0
        u_mid[2, 0] = 1.0
        snaps = np.array([np.eye(4, dtype=complex), u_mid, np.eye(4, dtype=complex)])
        traj = ForwardTrajectory(snapshots=snaps)
        w = np.array([0, 0, 0.1, 1.0])
        assert leakage(traj, w, 2) == pytest.approx(0.1 / 2, abs=1e-15)

    def test_trapezoid_hand_expansion(self, rng):
        snaps = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        traj = ForwardTrajectory(snapshots=snaps)
        w = np.array([0, 0, 0.3, 0.7])
        terms = [
            sum(w[n] * abs(snaps[j][n, i]) ** 2 for n in range(4) for i in range(2))
            for j in range(3)
        ]
        expected = (0.5 * terms[0] + terms[1] + 0.5 * terms[2]) / 2
        assert leakage(traj, w, 2) == pytest.approx(expected, rel=1e-12)

    def test_matches_squared_modulus(self, paper_props, paper_cfg):
        # re^2 + im^2 on the float view against |U|^2 of the complex entries, over all rows and any weights.
        rng = np.random.default_rng(1601)
        traj = propagate(PulseSequence.random(1600, rng), paper_props)
        for w in (guard_weight_vector(paper_cfg), rng.uniform(0.0, 1.0, size=4)):
            terms = np.einsum("jne,n->j", np.abs(traj.snapshots[:, :, :2]) ** 2, w)
            expected = (0.5 * terms[0] + terms[1:-1].sum() + 0.5 * terms[-1]) / 1600
            assert leakage(traj, w, 2) == pytest.approx(expected, rel=1e-15, abs=0.0)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=30))
    def test_nonnegative(self, fast_props, fast_cfg, bits):
        traj = propagate(PulseSequence(np.array(bits)), fast_props)
        assert leakage(traj, guard_weight_vector(fast_cfg), 2) >= 0.0


class TestTotalObjective:
    def test_weight_off(self, fast_props, rng):
        cfg = SystemConfig(substeps=400, c1=0.0)
        target = GateTarget.from_essential(H_GATE, 4)
        seq = PulseSequence.random(10, rng)
        j, j1, j2, _ = ObjectiveEvaluator(fast_props, target, cfg).objective(seq)
        assert j == j1

    def test_free_evolution_closed_form(self, fast_props):
        cfg = SystemConfig(substeps=400, guard_weights=(0.0, 0.0))
        target = GateTarget.from_essential(np.eye(2), 4)
        p = 17
        j, j1, j2, _ = ObjectiveEvaluator(fast_props, target, cfg).objective(PulseSequence(np.zeros(p, dtype=int)))
        phases = np.exp(-1j * drift_levels(cfg) * p * cfg.tau_p)
        expected = 1.0 - abs(phases[:2].sum()) ** 2 / 4.0
        assert j2 == 0.0
        assert j1 == pytest.approx(expected, abs=1e-10)
        assert j == pytest.approx(expected, abs=1e-10)

    def test_forward_only_set_forms_j_not_gradient(self, fast_cfg, fast_props, rng):
        target = GateTarget.from_essential(H_GATE, 4)
        forward = ObjectiveEvaluator(precompute_propagators(fast_cfg, with_sensitivity=False), target, fast_cfg)
        seq = PulseSequence.random(10, rng)
        j, j1, j2, traj = forward.objective(seq)
        assert (j, j1, j2) == ObjectiveEvaluator(fast_props, target, fast_cfg).objective(seq)[:3]
        with pytest.raises(ValueError, match="forward-only"):
            forward.gradient(seq, traj)
