from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from oracles import full_grid_integration
from sfqctrl.errors import IntegratorDivergence, ValidationError
from sfqctrl.model import (
    SystemConfig,
    TWO_PI,
    _drift_step,
    _integrate_amplitude,
    _sensitivity_at_zero,
    build_drift_hamiltonian,
    drift_levels,
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
        for key, value in (("theta", -0.01 * np.pi), ("omega", 0.0), ("omega", -1.0), ("xi", -0.1)):
            with pytest.raises(ValidationError) as err:
                SystemConfig(**{key: value})
            assert err.value.key == key

    def test_tip_angle_at_most_pi(self):
        assert SystemConfig(theta=np.pi).theta == np.pi
        with pytest.raises(ValidationError) as err:
            SystemConfig(theta=np.pi * (1 + 1e-12))
        assert err.value.key == "theta"

    def test_substep_resolves_drift_phase(self):
        # One substep of the whole 25 ps step: h*h_3 = 0.025 * 2pi * 14.25 ~ 2.24 < pi.
        cfg = SystemConfig(substeps=1)
        assert 2.2 < cfg.tau_p * np.abs(drift_levels(cfg)).max() < np.pi
        # Ten substeps at a 1e300 GHz qubit (or anharmonicity) lose every digit of
        # the phase; 1e308 overflows the levels to inf and nan.
        for key in ("omega", "xi"):
            for value in (TWO_PI * 1e300, 1e308):
                with pytest.raises(ValidationError) as err:
                    SystemConfig(substeps=10, **{key: value})
                assert err.value.key == "substeps"
        with pytest.raises(ValidationError) as err:
            SystemConfig(omega=1e308, xi=1e308)
        assert err.value.key == "substeps"

    @settings(max_examples=40, deadline=None)
    @given(
        key=st.sampled_from(["omega", "xi", "tau_p", "delta", "theta", "c1", "guard_weights"]),
        value=st.sampled_from([np.nan, np.inf, -np.inf]),
        index=st.integers(min_value=0, max_value=1),
    )
    def test_non_finite_values_rejected(self, key, value, index):
        if key == "guard_weights":
            weights = [0.1, 1.0]
            weights[index] = value
            value = tuple(weights)
        with pytest.raises(ValidationError) as err:
            SystemConfig(**{key: value})
        assert err.value.key == key


class TestPropagators:
    def test_unitary_at_paper_settings(self, paper_cfg, paper_props):
        assert unitarity_defect(paper_props.d1) < 1e-10
        assert unitarity_defect(paper_props.d0) < 1e-10

    def test_substep_doubling_converged(self, paper_cfg, paper_props):
        d1_fine, _ = _integrate_amplitude(replace(paper_cfg, substeps=2 * paper_cfg.substeps), 1.0)
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
        # A grossly non-unitary D1, a near-unitary one whose defect (~1e-10),
        # amplified p-fold, would show in the closed-form gradient, and a NaN
        # one, whose defect compares false against any bound.
        near = eye * (1.0 + 2.5e-11)
        assert 5e-11 < unitarity_defect(near) < 2e-10
        for bad in (eye * 1.5, near, eye * np.nan):

            def fake(cfg_, alpha, with_sensitivity=False):
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


class TestSupportOnlyIntegration:
    """Only the substeps the pulse reaches are integrated; the drift tail is closed-form."""

    @staticmethod
    def assert_matches_full_grid(cfg):
        for alpha in (0.0, 1.0):
            d, b = _integrate_amplitude(cfg, alpha, with_sensitivity=True)
            d_ref, b_ref = full_grid_integration(cfg, alpha)
            assert np.abs(d - d_ref).max() < 1e-12
            assert np.abs(b - b_ref).max() < 1e-12

    @pytest.mark.parametrize("substeps", [1, 2, 7, 400, 10_000])
    def test_matches_full_grid(self, substeps):
        self.assert_matches_full_grid(SystemConfig(substeps=substeps))

    @settings(max_examples=20, deadline=None)
    @given(delta=st.floats(min_value=0.0, max_value=SystemConfig().tau_p, exclude_min=True))
    @example(delta=SystemConfig().tau_p)  # the pulse fills the step: nothing is trimmed
    @example(delta=5e-324)  # subnormal: the envelope scale 3/delta overflows
    def test_matches_full_grid_for_any_pulse_duration(self, delta):
        self.assert_matches_full_grid(SystemConfig(delta=delta, substeps=400))

    def test_empty_support_is_pure_drift(self):
        # At one substep both Gauss nodes fall past delta = 0.16 tau_p.
        cfg = SystemConfig(substeps=1)
        d, b = _integrate_amplitude(cfg, 1.0, with_sensitivity=True)
        np.testing.assert_array_equal(d, _drift_step(cfg))
        np.testing.assert_array_equal(b, np.zeros_like(b))

    def test_drift_reached_to_roundoff(self, paper_cfg):
        d0 = _integrate_amplitude(paper_cfg, 0.0)[0]
        assert np.abs(d0 - _drift_step(paper_cfg)).max() < 2e-13

    def test_decomposes_only_the_support(self, paper_cfg, monkeypatch):
        eigh = np.linalg.eigh
        batches = []

        def spy(m):
            batches.append(m.shape[0])
            return eigh(m)

        monkeypatch.setattr("sfqctrl.model.np.linalg.eigh", spy)
        for with_sensitivity in (True, False):
            batches.clear()
            precompute_propagators(paper_cfg, with_sensitivity=with_sensitivity)
            # delta / tau_p = 0.16 of 10000 substeps, for D1 (and B1) only:
            # D0 is closed-form and B0 needs no eigendecomposition.
            assert batches == [1600]


class TestSensitivityAtZero:
    """B0 without an eigendecomposition, against the integrator at alpha = 0 as the oracle."""

    @staticmethod
    def assert_matches_integrated(cfg):
        b0_ref = _integrate_amplitude(cfg, 0.0, with_sensitivity=True)[1]
        assert np.abs(_sensitivity_at_zero(cfg) - b0_ref).max() <= 1e-12

    @pytest.mark.parametrize("substeps", [1, 2, 7, 400, 10_000])
    def test_matches_integrated(self, substeps):
        self.assert_matches_integrated(SystemConfig(substeps=substeps))

    @settings(max_examples=20, deadline=None)
    @given(delta=st.floats(min_value=0.0, max_value=SystemConfig().tau_p, exclude_min=True))
    @example(delta=SystemConfig().tau_p)
    @example(delta=5e-324)
    def test_matches_integrated_for_any_pulse_duration(self, delta):
        self.assert_matches_integrated(SystemConfig(delta=delta, substeps=400))

    def test_precompute_uses_it(self, paper_cfg, paper_props):
        np.testing.assert_array_equal(paper_props.b0, _sensitivity_at_zero(paper_cfg))


class TestForwardOnlySet:
    @pytest.mark.parametrize("substeps", [400, 2000, 10_000])
    @pytest.mark.parametrize("theta_over_pi", [1 / 300, 1 / 100, 1.03 / 300])
    def test_same_propagators_no_sensitivities(self, substeps, theta_over_pi):
        cfg = SystemConfig(substeps=substeps, theta=np.pi * theta_over_pi)
        full = precompute_propagators(cfg)
        forward = precompute_propagators(cfg, with_sensitivity=False)
        np.testing.assert_array_equal(forward.d0, full.d0)
        np.testing.assert_array_equal(forward.d1, full.d1)
        assert forward.b0 is None and forward.b1 is None
        assert not forward.d1.flags.writeable

    @pytest.mark.parametrize("n_levels", [2, 3, 5, 6])
    def test_same_d1_at_any_level_count(self, n_levels):
        # Both sets take D1 from the chain of the steps alone, not from the
        # D block of the joint chain (whose products round differently at
        # N = 3 and 5), so they match bit for bit at every level count.
        cfg = SystemConfig(n_levels=n_levels, guard_weights=(1.0,) * (n_levels - 2), substeps=2000)
        forward = precompute_propagators(cfg, with_sensitivity=False)
        np.testing.assert_array_equal(forward.d1, precompute_propagators(cfg).d1)

    def test_unitarity_gate_still_runs(self, monkeypatch):
        bad = np.eye(4, dtype=complex) * 1.5
        monkeypatch.setattr(
            "sfqctrl.model._integrate_amplitude", lambda cfg, alpha, with_sensitivity=False: (bad, None)
        )
        with pytest.raises(IntegratorDivergence):
            precompute_propagators(SystemConfig(substeps=50), with_sensitivity=False)
