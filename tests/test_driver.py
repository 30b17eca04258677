from dataclasses import replace

import numpy as np
import pytest

from oracles import csv_text, population_rows_loop
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
from sfqctrl.objective import ForwardTrajectory, PulseSequence, propagate
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
        records = res.result.best_trace.records
        assert res.files["convergence"].read_text() == csv_text(
            conv[0].split(","),
            [[r.iteration, r.j, r.j1, r.j2, r.delta, r.rho, int(r.accepted)] for r in records],
        )

        summary = res.files["summary"].read_text()
        for token in ("gate=", "J1=", "J2=", "max_pop_top_level="):
            assert token in summary

    @pytest.mark.parametrize("n_essential", [2, 3])
    def test_populations_file_matches_elementwise_build(self, tmp_path, n_essential):
        cfg = SystemConfig(substeps=400, n_essential=n_essential, guard_weights=(0.1, 1.0)[: 4 - n_essential])
        traj = propagate(PulseSequence.random(37, np.random.default_rng(37)), precompute_propagators(cfg))
        header, rows = driver.population_rows(traj, cfg)
        driver._write_csv(tmp_path / "rows.csv", header, rows)
        assert (tmp_path / "rows.csv").read_text() == csv_text(header, population_rows_loop(traj, cfg))

    def test_csv_formatting_matches_per_value_oracle(self, tmp_path):
        # convergence.csv: int iteration, Delta and accepted columns, a NaN rho
        # on a terminal row; sweep.csv: int p.  Extremes of the %.12e format too.
        tables = [
            (
                ["iter", "J", "J1", "J2", "Delta", "rho", "accepted"],
                [
                    [0, 0.5, 0.25, 25.0, 24, 1.25, 1],
                    [1, 1e-300, -0.0, 3.0e5, 10**12, -7.5, 0],
                    [2, 1 / 3, np.inf, np.float64(2.0) / 3, 0, np.nan, 0],
                ],
            ),
            (
                ["p", "T_ns", "best_J1", "best_J2", "best_J"],
                [[8, 0.2, 0.9, 1e-3, 0.90001], [16, 0.4, 1.2e-5, 7e-4, 1.9e-5]],
            ),
        ]
        for header, rows in tables:
            driver._write_csv(tmp_path / "t.csv", header, rows)
            assert (tmp_path / "t.csv").read_text() == csv_text(header, rows)

    @pytest.mark.parametrize(
        "write",
        [
            # The second row's %-formatting raises once the temp file is open.
            lambda path: driver._write_csv(path, ["iter", "J"], [[0, 0.5], [1, "not a float"]]),
            lambda path: driver._write_atomic(path, ["gate=", "\udcff\n"]),
        ],
        ids=["csv-row", "unencodable"],
    )
    def test_failed_write_keeps_the_old_file(self, tmp_path, write):
        path = tmp_path / "artifact.csv"
        driver._write_csv(path, ["iter", "J"], [[0, 0.25]])
        before = path.read_bytes()
        with pytest.raises((TypeError, UnicodeEncodeError)):
            write(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.csv"]

    def test_unknown_gate_fails_before_precompute(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(driver, "precompute_propagators", calls.append)
        with pytest.raises(ValidationError) as err:
            run_optimize(fast_spec(tmp_path, gate="W"))
        assert err.value.key == "gate"
        assert calls == []

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
        assert path.read_text() == csv_text(text[0].split(","), rows)

    def test_one_evaluator_per_sweep(self, tmp_path, monkeypatch):
        built = []
        init = ObjectiveEvaluator.__init__

        def spy(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(ObjectiveEvaluator, "__init__", spy)
        _, rows = run_sweep(replace(fast_spec(tmp_path), sweep=(8, 24, 8)))
        assert len(rows) == 3
        assert len(built) == 1

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
        for text in ("0120\n", "01 10\n", "0110\n1\n", "\n"):
            bad.write_text(text)
            with pytest.raises(ParseError, match="must hold one line over"):
                run_simulate(fast_spec(tmp_path), bad)

    def test_forward_only_precompute_writes_the_same_files(self, tmp_path, monkeypatch):
        barcode = tmp_path / "word.txt"
        barcode.write_text(PulseSequence.random(200, np.random.default_rng(3)).to_string() + "\n")
        spec = fast_spec(tmp_path / "forward", substeps=10_000, theta_over_pi=1 / 300)
        calls = []
        precompute = driver.precompute_propagators
        monkeypatch.setattr(
            driver, "precompute_propagators", lambda cfg, **kw: calls.append(kw) or precompute(cfg, **kw)
        )
        forward = run_simulate(spec, barcode)
        assert calls == [{"with_sensitivity": False}]
        full = run_simulate(replace(spec, output_dir=tmp_path / "full"), barcode, props=precompute(spec.system))
        for key in ("populations", "summary"):
            assert forward.files[key].read_bytes() == full.files[key].read_bytes()

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
            # Every flag's key is also in the file; the file's tip angle is
            # invalid, and the flag's value replaces it before validation.
            f.write("c1 = 0.05\nguard_weights = 0.2, 0.7\ngate = Y\ntheta_over_pi = -0.01\n")
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
        spec = specs[0]
        assert (spec.gate, spec.p, spec.n_restarts, spec.seed) == ("X", 16, 1, 9)
        # The tip-angle flag replaces theta and its derived fields only.
        system = spec.system
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

    @pytest.mark.parametrize(
        "line", ["c1 = nan", "omega_over_2pi_ghz = nan", "tau_p_ns = inf", "theta_over_pi = -0.01"]
    )
    def test_non_finite_or_out_of_range_exit_one(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"substeps = 400\np = 8\nn_restarts = 1\n{line}\n")
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["omega_over_2pi_ghz", "xi_over_2pi_ghz", "theta_over_pi"])
    def test_unresolvable_drift_or_tip_angle_exit_one(self, tmp_path, capsys, key):
        # At 1e300 the per-substep drift phase (or the tip angle) has lost every
        # digit, so no J computed from it would mean anything.
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"substeps = 50\np = 8\nn_restarts = 1\n{key} = 1e300\n")
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--config", "fast.cfg", "--seed", "-1"],
            ["optimize", "--config", "negative_seed.cfg"],
            ["grad-check", "--config", "fast.cfg", "--p-check", "-1"],
            ["grad-check", "--config", "fast.cfg", "--h", "0"],
            ["grad-check", "--config", "fast.cfg", "--h", "nan"],
            ["optimize", "--config", "not_utf8.txt"],
            ["optimize", "--config", "fast.cfg", "--gate", "not_utf8.txt"],
            ["simulate", "not_utf8.txt", "--config", "fast.cfg"],
        ],
        ids=[
            "seed-flag", "seed-file", "p-check", "h-zero", "h-nan", "config-utf8", "matrix-utf8", "barcode-utf8"
        ],
    )
    def test_bad_input_exit_one(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        self._write_fast_config(tmp_path)
        (tmp_path / "negative_seed.cfg").write_text("substeps = 400\np = 8\nn_restarts = 1\nseed = -1\n")
        (tmp_path / "not_utf8.txt").write_bytes(b"\xff\n")
        assert main(argv + ["--out", "out"]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_file_exit_one(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.txt"), "--out", str(tmp_path)]) == 1

    def test_numerical_failure_exit_two(self, tmp_path, monkeypatch):
        from sfqctrl.errors import IntegratorDivergence

        def explode(spec):
            raise IntegratorDivergence("unitarity defect 1e-3 exceeds 1e-8")

        monkeypatch.setattr("sfqctrl.driver.run_optimize", explode)
        cfg = self._write_fast_config(tmp_path)
        assert main(["optimize", "--config", str(cfg)]) == 2

    def test_non_finite_objective_exit_two(self, tmp_path, capsys, monkeypatch):
        def nan_snapshots(alpha, props):
            return ForwardTrajectory(np.full((len(alpha) + 1, props.dim, props.dim), np.nan, dtype=complex))

        monkeypatch.setattr("sfqctrl.trustregion.propagate", nan_snapshots)
        cfg = self._write_fast_config(tmp_path)
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: objective is not finite")

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
