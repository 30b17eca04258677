import numpy as np
import pytest

from sfqctrl import driver
from sfqctrl.cli import main
from sfqctrl.driver import (
    ExperimentSpec,
    fd_gradient,
    gate_target,
    load_config,
    parse_config_text,
    run_grad_check,
    run_optimize,
    run_simulate,
    run_sweep,
    spec_from_values,
)
from sfqctrl.errors import NonUnitaryTarget, ParseError, ValidationError
from sfqctrl.model import SystemConfig, TWO_PI, precompute_propagators
from sfqctrl.objective import PulseSequence, propagate
from sfqctrl.trustregion import ObjectiveEvaluator

FAST_KEYS = {"substeps": 400, "p": 24, "n_restarts": 2, "seed": 5}


def fast_spec(tmp_path, **overrides):
    values = dict(FAST_KEYS)
    values.update(overrides)
    return spec_from_values(values, output_dir=tmp_path)


class TestConfigParsing:
    def test_defaults_are_transmon_block(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# all defaults\n")
        spec = load_config(path)
        sys = spec.system
        assert sys.omega == pytest.approx(TWO_PI * 5.0)
        assert sys.xi == pytest.approx(TWO_PI * 0.25)
        assert sys.tau_p == 0.025
        assert sys.delta == 0.004
        assert sys.substeps == 10_000
        assert sys.guard_weights == (0.1, 1.0)
        assert sys.c1 == 0.01
        assert spec.rho_hat == 0.75
        assert spec.delta0 is None  # resolves to p downstream
        assert spec.p == 1600 and spec.n_restarts == 10

    def test_beta_derivation(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("theta_over_pi = 0.003333333333333333\n")  # 1/300
        spec = load_config(path)
        assert spec.system.beta == pytest.approx((np.pi / 300) / (np.pi * 0.025), rel=1e-12)

    def test_full_file_round_trip(self, tmp_path):
        path = tmp_path / "full.cfg"
        path.write_text(
            "omega_over_2pi_ghz = 4.8\n"
            "xi_over_2pi_ghz = 0.2   # anharmonicity\n"
            "tau_p_ns = 0.02\n"
            "delta_ns = 0.003\n"
            "theta_over_pi = 0.01\n"
            "n_levels = 4\n"
            "n_essential = 2\n"
            "guard_weights = 0.2, 0.9\n"
            "c1 = 0.02\n"
            "substeps = 1000\n"
            "gate = X\n"
            "p = 800\n"
            "n_restarts = 3\n"
            "seed = 42\n"
            "rho_hat = 0.5\n"
            "delta0 = 100\n"
        )
        spec = load_config(path)
        assert spec.system.omega == pytest.approx(TWO_PI * 4.8)
        assert spec.system.guard_weights == (0.2, 0.9)
        assert spec.gate == "X" and spec.p == 800 and spec.seed == 42
        assert spec.rho_hat == 0.5 and spec.delta0 == 100

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError) as err:
            parse_config_text("p = 10\nnonsense line\n")
        assert "line 2" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_config_text("pp = 10\n")
        assert "pp" in str(err.value)

    def test_bad_value_type(self):
        with pytest.raises(ParseError):
            parse_config_text("p = ten\n")

    def test_guard_weight_count_mismatch(self):
        with pytest.raises(ValidationError) as err:
            spec_from_values({"guard_weights": (0.1,)})
        assert err.value.key == "guard_weights"


class TestGateTargets:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("H", np.array([[1, 1], [1, -1]]) / np.sqrt(2)),
            ("X", np.array([[0, 1], [1, 0]])),
            ("Y", np.array([[0, -1j], [1j, 0]])),
            ("Z", np.array([[1, 0], [0, -1]])),
            ("Identity", np.eye(2)),
            ("h", np.array([[1, 1], [1, -1]]) / np.sqrt(2)),
        ],
    )
    def test_builtin_gates(self, name, expected):
        t = gate_target(name, 4)
        np.testing.assert_allclose(t.v_essential, expected, atol=1e-15)

    def test_custom_file(self, tmp_path):
        path = tmp_path / "gate.txt"
        path.write_text("0.0 1.0\n1.0 0.0\n")
        t = gate_target(str(path), 4)
        np.testing.assert_allclose(t.v_essential, np.array([[0, 1], [1, 0]]), atol=1e-15)

    def test_custom_file_non_unitary(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 0.0\n0.0 1.5\n")
        with pytest.raises(NonUnitaryTarget):
            gate_target(str(path), 4)

    def test_unknown_gate(self):
        with pytest.raises(ValidationError):
            gate_target("W", 4)

    def test_essential_mismatch_rejected(self, fast_props):
        # A 2-level gate under E = 3 would leave level 2 neither matched by J1
        # nor penalized by J2.
        cfg = SystemConfig(substeps=400, n_essential=3, guard_weights=(1.0,))
        with pytest.raises(ValidationError) as err:
            ObjectiveEvaluator(fast_props, gate_target("H", 4), cfg)
        assert err.value.key == "n_essential"


class TestRunOptimize:
    def test_artifacts_well_formed(self, tmp_path):
        spec = fast_spec(tmp_path)
        res = run_optimize(spec)
        barcode = res.files["pulse_sequence"].read_text().strip()
        assert len(barcode) == spec.p
        assert set(barcode) <= {"0", "1"}

        lines = res.files["populations"].read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "time_ns"
        assert len(header) == 1 + 2 * 4
        assert len(lines) == 1 + spec.p + 1
        for line in lines[1:]:
            vals = [float(tok) for tok in line.split(",")]
            for a in range(2):
                total = sum(vals[1 + a * 4: 1 + (a + 1) * 4])
                assert total == pytest.approx(1.0, abs=1e-6)

        conv = res.files["convergence"].read_text().strip().splitlines()
        assert conv[0] == "iter,J,J1,J2,Delta,rho,accepted"
        assert len(conv) >= 2

        summary = res.files["summary"].read_text()
        for token in ("gate=", "J1=", "J2=", "max_pop_top_level="):
            assert token in summary

    def test_deterministic_outputs(self, tmp_path):
        spec_a = fast_spec(tmp_path / "a")
        spec_b = fast_spec(tmp_path / "b")
        res_a = run_optimize(spec_a)
        res_b = run_optimize(spec_b)
        for key in ("pulse_sequence", "populations", "convergence", "summary"):
            assert res_a.files[key].read_bytes() == res_b.files[key].read_bytes()


class TestRunSweep:
    def test_grid_arithmetic(self, tmp_path):
        spec = fast_spec(tmp_path)
        spec = ExperimentSpec(
            system=spec.system, gate=spec.gate, p=spec.p, n_restarts=spec.n_restarts,
            seed=spec.seed, rho_hat=spec.rho_hat, delta0=spec.delta0,
            output_dir=spec.output_dir, sweep=(8, 16, 8),
        )
        path, rows = run_sweep(spec)
        assert len(rows) == 2
        assert [r[0] for r in rows] == [8, 16]
        text = path.read_text().strip().splitlines()
        assert text[0] == "p,T_ns,best_J1,best_J2,best_J"
        assert len(text) == 3

    def test_sweep_point_matches_run_optimize(self, tmp_path):
        base = fast_spec(tmp_path / "opt", p=16)
        res = run_optimize(base)
        swept = ExperimentSpec(
            system=base.system, gate=base.gate, p=base.p, n_restarts=base.n_restarts,
            seed=base.seed, rho_hat=base.rho_hat, delta0=base.delta0,
            output_dir=tmp_path / "sweep", sweep=(16, 16, 8),
        )
        _, rows = run_sweep(swept)
        assert rows[0][2] == res.j1


class TestGradCheck:
    def test_passes_at_defaults(self, tmp_path):
        spec = fast_spec(tmp_path)
        report = run_grad_check(spec, p_check=8)
        assert report.passed
        assert report.max_rel_error < 1e-5

    def test_zero_weights_skipped(self, tmp_path):
        spec = fast_spec(tmp_path, guard_weights=(0.0, 0.0), c1=1.0)
        report = run_grad_check(spec, p_check=6)
        assert report.passed
        assert np.all(np.isfinite(report.rel_errors))

    def test_fd_error_scales_quadratically(self, tmp_path):
        spec = fast_spec(tmp_path)
        props = precompute_propagators(spec.system)
        evaluator = ObjectiveEvaluator(props, gate_target(spec.gate, 4), spec.system)
        alpha = PulseSequence.random(8, np.random.default_rng(spec.seed))
        g_ref = evaluator.gradient(alpha, propagate(alpha, props))
        # Probe steps in the truncation-dominated regime (below h ~ 1e-2 the
        # objective's roundoff, amplified by 1/2h, takes over instead).
        errs = {}
        for h in (0.3, 0.03):
            g_fd = fd_gradient(alpha, evaluator, step=h)
            errs[h] = np.abs(g_fd - g_ref).max()
        ratio = errs[0.3] / errs[0.03]
        assert 30 < ratio < 300, f"expected ~100x from a 10x step, got {ratio:.1f}"

    def test_p_check_bounded(self, tmp_path):
        with pytest.raises(ValidationError):
            run_grad_check(fast_spec(tmp_path), p_check=100)


class TestSimulate:
    def test_round_trip_from_optimize(self, tmp_path):
        spec = fast_spec(tmp_path / "opt")
        res = run_optimize(spec)
        sim_spec = fast_spec(tmp_path / "sim")
        sim = run_simulate(sim_spec, res.files["pulse_sequence"])
        assert sim.j1 == pytest.approx(res.j1, abs=1e-14)
        lines = sim.files["populations"].read_text().strip().splitlines()
        assert len(lines) == 1 + spec.p + 1

    def test_bad_barcode_rejected(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0120\n")
        with pytest.raises(ParseError):
            run_simulate(fast_spec(tmp_path), bad)

    def test_identity_gate_free_evolution(self, tmp_path):
        # All-zeros barcode under free evolution: every level keeps its
        # population exactly, so each pop_a_a column stays 1.
        barcode = tmp_path / "zeros.txt"
        barcode.write_text("0" * 12 + "\n")
        spec = fast_spec(tmp_path, gate="Identity", theta_over_pi=0.01)
        sim = run_simulate(spec, barcode)
        lines = sim.files["populations"].read_text().strip().splitlines()
        idx = {name: i for i, name in enumerate(lines[0].split(","))}
        for line in lines[1:]:
            vals = [float(tok) for tok in line.split(",")]
            for a in range(2):
                assert vals[idx[f"pop_{a}_{a}"]] == pytest.approx(1.0, abs=1e-10)
                total = sum(vals[idx[f"pop_{a}_{b}"]] for b in range(4))
                assert total == pytest.approx(1.0, abs=1e-8)


class TestCli:
    def _write_fast_config(self, tmp_path):
        path = tmp_path / "fast.cfg"
        path.write_text("substeps = 400\np = 24\nn_restarts = 2\nseed = 5\n")
        return path

    def test_optimize_exit_zero(self, tmp_path, capsys):
        cfg = self._write_fast_config(tmp_path)
        code = main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        assert "J1=" in capsys.readouterr().out
        assert (tmp_path / "out" / "pulse_sequence.txt").exists()

    def test_flag_overrides(self, tmp_path, capsys, monkeypatch):
        cfg = self._write_fast_config(tmp_path)
        with cfg.open("a") as f:
            f.write("c1 = 0.05\nguard_weights = 0.2, 0.7\n")
        specs = []
        run = driver.run_optimize
        monkeypatch.setattr(driver, "run_optimize", lambda spec: specs.append(spec) or run(spec))
        code = main([
            "optimize", "--config", str(cfg), "--out", str(tmp_path / "o2"),
            "--gate", "X", "--p", "16", "--restarts", "1", "--seed", "9",
            "--theta-over-pi", "0.01",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "gate=X" in out and "p=16" in out
        # The tip-angle flag replaces theta and its derived fields only.
        system = specs[0].system
        assert system.theta == pytest.approx(0.01 * np.pi)
        assert system.beta == pytest.approx(0.01 / system.tau_p)
        assert system.drive_area == pytest.approx(0.005 * np.pi)
        assert (system.substeps, system.c1, system.guard_weights) == (400, 0.05, (0.2, 0.7))

    def test_essential_mismatch_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "e3.cfg"
        cfg.write_text("substeps = 400\np = 8\nn_restarts = 1\nn_essential = 3\nguard_weights = 1.0\ngate = H\n")
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "n_essential" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg = self._write_fast_config(tmp_path)
        code = main([
            "sweep", "--config", str(cfg), "--out", str(tmp_path / "sw"),
            "--p-min", "8", "--p-max", "16", "--p-stride", "8",
        ])
        assert code == 0
        assert (tmp_path / "sw" / "sweep.csv").exists()

    def test_grad_check_exit_zero(self, tmp_path, capsys):
        cfg = self._write_fast_config(tmp_path)
        code = main(["grad-check", "--config", str(cfg), "--p-check", "6"])
        assert code == 0
        assert "max relative error" in capsys.readouterr().out

    def test_simulate_and_target_print(self, tmp_path, capsys):
        cfg = self._write_fast_config(tmp_path)
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        code = main([
            "simulate", str(tmp_path / "out" / "pulse_sequence.txt"),
            "--config", str(cfg), "--out", str(tmp_path / "simout"),
        ])
        assert code == 0
        assert main(["target-print", "--gate", "H"]) == 0
        assert "+0.707107" in capsys.readouterr().out

    def test_config_error_exit_one(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("guard_weights = 0.1\n")
        assert main(["optimize", "--config", str(bad)]) == 1

    def test_missing_file_exit_one(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.txt"), "--out", str(tmp_path)]) == 1

    def test_numerical_failure_exit_two(self, tmp_path, monkeypatch):
        from sfqctrl.errors import IntegratorDivergence

        def explode(spec):
            raise IntegratorDivergence("unitarity defect 1e-3 exceeds 1e-8")

        monkeypatch.setattr("sfqctrl.driver.run_optimize", explode)
        cfg = self._write_fast_config(tmp_path)
        assert main(["optimize", "--config", str(cfg)]) == 2

    def test_grad_check_threshold_exit_three(self, tmp_path, monkeypatch):
        from sfqctrl.driver import GradCheckReport

        def failing(spec, p_check=16, step=1e-5):
            return GradCheckReport(
                p_check=p_check, step=step,
                rel_errors=np.array([1.0]), max_rel_error=1.0, passed=False,
            )

        monkeypatch.setattr("sfqctrl.driver.run_grad_check", failing)
        cfg = self._write_fast_config(tmp_path)
        assert main(["grad-check", "--config", str(cfg)]) == 3
