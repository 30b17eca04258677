import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sfqctrl.errors import IntegratorDivergence, ValidationError
from sfqctrl.model import (
    SystemConfig,
    TWO_PI,
    _drift_step,
    _integrate_amplitude,
    build_drift_hamiltonian,
    lowering_operator,
    precompute_propagators,
    pulse_shape,
    unitarity_defect,
)


class TestDriftHamiltonian:
    def test_transmon_values(self):
        cfg = SystemConfig(omega=TWO_PI * 5.0, xi=TWO_PI * 0.25, n_levels=4)
        h = build_drift_hamiltonian(cfg)
        expected = np.diag([0.0, TWO_PI * 5.0, TWO_PI * 9.75, TWO_PI * 14.25])
        np.testing.assert_allclose(h, expected, atol=1e-12)

    def test_harmonic_limit(self):
        cfg = SystemConfig(omega=3.7, xi=0.0, n_levels=3, guard_weights=(1.0,))
        np.testing.assert_allclose(build_drift_hamiltonian(cfg), np.diag([0.0, 3.7, 7.4]), atol=1e-14)

    def test_two_levels_ignore_anharmonicity(self):
        for xi in (0.0, 17.0):
            cfg = SystemConfig(omega=2.0, xi=xi, n_levels=2, guard_weights=())
            np.testing.assert_allclose(build_drift_hamiltonian(cfg), np.diag([0.0, 2.0]), atol=1e-14)

    def test_lowering_operator_entries(self):
        a = lowering_operator(4)
        for n in range(1, 4):
            assert a[n - 1, n] == pytest.approx(np.sqrt(n))
        assert np.count_nonzero(a) == 3


class TestPulseShape:
    def test_unit_integral(self):
        cfg = SystemConfig()
        knots = [0.0, cfg.delta / 3, 2 * cfg.delta / 3, cfg.delta]
        total = sum(
            quad(lambda t: pulse_shape(t, cfg), a, b, epsabs=1e-14)[0]
            for a, b in zip(knots[:-1], knots[1:])
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_zero_outside_support(self):
        cfg = SystemConfig()
        assert pulse_shape(cfg.delta + 1e-12, cfg) == 0.0
        assert pulse_shape(cfg.tau_p, cfg) == 0.0

    def test_peak_value_by_quadrature(self):
        # Independent bump: quadratic B-spline with knots at thirds of delta.
        cfg = SystemConfig()

        def bump(t):
            x = 3.0 * t / cfg.delta
            if 0 <= x < 1:
                return 0.5 * x * x
            if 1 <= x < 2:
                return -x * x + 3 * x - 1.5
            if 2 <= x <= 3:
                return 0.5 * (3 - x) ** 2
            return 0.0

        gamma = sum(
            quad(bump, a, b, epsabs=1e-14)[0]
            for a, b in zip(
                [0, cfg.delta / 3, 2 * cfg.delta / 3],
                [cfg.delta / 3, 2 * cfg.delta / 3, cfg.delta],
            )
        )
        expected_peak = bump(cfg.delta / 2) / gamma
        assert pulse_shape(cfg.delta / 2, cfg) == pytest.approx(expected_peak, rel=1e-10)
        grid = np.linspace(0, cfg.tau_p, 4001)
        assert pulse_shape(cfg.delta / 2, cfg) >= pulse_shape(grid, cfg).max() - 1e-9

    def test_symmetric_about_midpoint(self):
        cfg = SystemConfig()
        x = np.linspace(0, cfg.delta / 2, 57)
        np.testing.assert_allclose(
            pulse_shape(cfg.delta / 2 - x, cfg), pulse_shape(cfg.delta / 2 + x, cfg), atol=1e-9
        )


class TestConfig:
    def test_beta_follows_tip_angle(self):
        cfg = SystemConfig(theta=np.pi / 300.0)
        assert cfg.beta == pytest.approx((np.pi / 300.0) / (np.pi * 0.025), rel=1e-14)
        assert cfg.drive_area == pytest.approx(np.pi / 600.0, rel=1e-14)

    def test_guard_weight_count_checked(self):
        with pytest.raises(ValidationError):
            SystemConfig(guard_weights=(0.1,))

    def test_invalid_values_rejected(self):
        with pytest.raises(ValidationError):
            SystemConfig(delta=0.03)  # longer than tau_p
        with pytest.raises(ValidationError):
            SystemConfig(substeps=0)
        with pytest.raises(ValidationError):
            SystemConfig(n_levels=1, n_essential=1, guard_weights=())
        with pytest.raises(ValidationError):
            SystemConfig(guard_weights=(-0.1, 1.0))


class TestPropagators:
    def test_unitary_at_paper_settings(self, paper_cfg, paper_props):
        assert unitarity_defect(paper_props.d1) < 1e-10
        assert unitarity_defect(paper_props.d0) < 1e-10

    def test_substep_doubling_converged(self, paper_cfg, paper_props):
        d1_fine, _ = _integrate_amplitude(paper_cfg, 1.0, substeps=2 * paper_cfg.substeps)
        assert np.abs(d1_fine - paper_props.d1).max() < 1e-8

    def test_drift_consistency(self, paper_cfg):
        d0_int, _ = _integrate_amplitude(paper_cfg, 0.0)
        assert np.abs(d0_int - _drift_step(paper_cfg)).max() < 1e-10

    def test_drive_off_degenerates_to_drift(self):
        cfg = SystemConfig(theta=0.0, substeps=500)
        props = precompute_propagators(cfg)
        assert np.abs(props.d1 - props.d0).max() < 1e-10
        np.testing.assert_array_equal(props.b0, np.zeros_like(props.b0))
        np.testing.assert_array_equal(props.b1, np.zeros_like(props.b1))

    def test_one_pulse_tips_by_theta(self, paper_cfg, paper_props):
        pop1 = abs(paper_props.d1[1, 0]) ** 2
        tip = np.arccos(1.0 - 2.0 * pop1)
        assert tip == pytest.approx(paper_cfg.theta, rel=1e-3)

    @pytest.mark.parametrize("endpoint", [0.0, 1.0])
    def test_sensitivities_match_finite_differences(self, paper_cfg, paper_props, endpoint):
        # The 10,000-step propagator carries ~1e-13 roundoff, which central
        # differencing amplifies by 1/(2h); atol sits at twice that floor.
        h = 1e-5
        d_hi, _ = _integrate_amplitude(paper_cfg, endpoint + h)
        d_lo, _ = _integrate_amplitude(paper_cfg, endpoint - h)
        fd = (d_hi - d_lo) / (2 * h)
        b = paper_props.b1 if endpoint else paper_props.b0
        np.testing.assert_allclose(b, fd, rtol=1e-5, atol=1e-8)

    def test_divergence_check(self, monkeypatch):
        cfg = SystemConfig(substeps=50)
        eye = np.eye(cfg.n_levels, dtype=complex)
        # A grossly non-unitary D1, and a near-unitary one whose defect
        # (~1e-10), amplified p-fold, would show in the closed-form gradient.
        near = eye * (1.0 + 2.5e-11)
        assert 5e-11 < unitarity_defect(near) < 2e-10
        for bad in (eye * 1.5, near):

            def fake(cfg_, alpha, substeps=None, with_sensitivity=False):
                return bad, np.zeros_like(bad)

            monkeypatch.setattr("sfqctrl.model._integrate_amplitude", fake)
            with pytest.raises(IntegratorDivergence):
                precompute_propagators(cfg)


class TestRelaxedPropagator:
    """The integrator at a real amplitude, as the finite-difference gradient check uses it."""

    def test_endpoints_identical_to_cached(self, paper_cfg, paper_props):
        np.testing.assert_array_equal(_integrate_amplitude(paper_cfg, 1.0)[0], paper_props.d1)
        # The cached D0 is the closed-form drift exponential; the integrator
        # reaches it to roundoff.
        np.testing.assert_allclose(_integrate_amplitude(paper_cfg, 0.0)[0], paper_props.d0, rtol=0, atol=1e-12)

    def test_midpoint_unitary(self, paper_cfg):
        assert unitarity_defect(_integrate_amplitude(paper_cfg, 0.5)[0]) < 1e-10

    @settings(max_examples=15, deadline=None)
    @given(alpha=st.floats(min_value=0.0, max_value=1.0))
    def test_unitary_for_all_amplitudes(self, fast_cfg, alpha):
        assert unitarity_defect(_integrate_amplitude(fast_cfg, alpha)[0]) < 1e-10
