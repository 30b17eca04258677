import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import adjoint_recursion, enumerate_ball_minimum, full_sort_subproblem, lattice_gradient
from sfqctrl import trustregion
from sfqctrl.errors import NonFiniteObjective
from sfqctrl.model import SystemConfig, precompute_propagators
from sfqctrl.objective import ForwardTrajectory, GateTarget, PulseSequence
from sfqctrl.trustregion import (
    ObjectiveEvaluator,
    TerminationReason,
    TrustRegionState,
    multi_restart,
    optimize,
    solve_subproblem,
    tr_step,
)

H_GATE = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


class StubEvaluator:
    """Scripted objective values and gradients for exercising tr_step cases."""

    def __init__(self, objective_value, gradient_value=None):
        self._j = objective_value
        self._g = gradient_value

    def objective(self, alpha):
        return self._j, self._j, 0.0, None

    def gradient(self, alpha, traj):
        return self._g if self._g is not None else np.zeros(len(alpha))


def make_state(bits, gradient, radius, objective=1.0):
    return TrustRegionState(
        alpha=PulseSequence(np.asarray(bits)),
        radius=radius,
        objective=objective,
        j1=objective,
        j2=0.0,
        gradient=np.asarray(gradient, dtype=float),
    )


class TestSubproblem:
    def test_forced_single_flip(self):
        alpha = PulseSequence(np.array([0, 0, 1]))
        out = solve_subproblem(alpha, np.array([-3.0, 1.0, -2.0]), radius=1)
        assert np.array_equal(out.bits, [1, 0, 1])

    def test_no_improving_flip(self):
        alpha = PulseSequence(np.array([0, 0, 0]))
        out = solve_subproblem(alpha, np.array([0.5, 1.0, 2.0]), radius=3)
        assert out is alpha

    def test_zero_gains_not_taken(self):
        alpha = PulseSequence(np.array([0, 1]))
        out = solve_subproblem(alpha, np.array([0.0, 0.0]), radius=2)
        assert np.array_equal(out.bits, alpha.bits)

    def test_ties_broken_by_lower_index(self):
        alpha = PulseSequence(np.array([0, 0, 0]))
        out = solve_subproblem(alpha, np.array([-1.0, -1.0, -1.0]), radius=2)
        assert np.array_equal(out.bits, [1, 1, 0])

    def test_matches_ball_enumeration(self, rng):
        for _ in range(100):
            p = int(rng.integers(2, 13))
            bits = rng.integers(0, 2, size=p)
            g = lattice_gradient(rng, p)
            for radius in range(1, p + 1):
                out = solve_subproblem(PulseSequence(bits), g, radius)
                value = float(g @ (out.bits.astype(float) - bits))
                assert value == enumerate_ball_minimum(bits, g, radius)

    def test_matches_full_sort(self):
        # Sorting only the negative gains flips the same bits as sorting all
        # p of them, ties and zero gains (+0.0 and -0.0) included, at every
        # radius from 0 to p + 1.
        rng = np.random.default_rng(31)
        cases = 0
        for _ in range(150):
            p = int(rng.integers(1, 40))
            alpha = PulseSequence(rng.integers(0, 2, size=p))
            g = rng.integers(-3, 4, size=p) / 2.0
            for radius in range(p + 2):
                out = solve_subproblem(alpha, g, radius)
                assert np.array_equal(out.bits, full_sort_subproblem(alpha, g, radius).bits)
                cases += 1
        assert cases >= 3000

    def test_sort_cost_near_p_log_p(self):
        rng = np.random.default_rng(5)
        sizes = [1 << 14, 1 << 15, 1 << 16, 1 << 17]
        problems = {
            p: (PulseSequence(rng.integers(0, 2, size=p)), rng.normal(size=p)) for p in sizes
        }
        for p in sizes:
            solve_subproblem(*problems[p], radius=p // 3)
        times = []
        for p in sizes:
            reps = []
            for _ in range(7):
                t0 = time.perf_counter()
                solve_subproblem(*problems[p], radius=p // 3)
                reps.append(time.perf_counter() - t0)
            times.append(np.median(reps))
        slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
        assert 0.7 <= slope <= 1.4, f"sub-problem cost scales as p^{slope:.2f}"


class TestStep:
    def test_local_solution_detected(self):
        state = make_state([0, 0], gradient=[1.0, 2.0], radius=4)
        new, record = tr_step(state, StubEvaluator(0.0))
        assert new.radius == 0
        assert new.terminal_reason is TerminationReason.NO_IMPROVING_FLIP
        assert np.array_equal(new.alpha.bits, state.alpha.bits)
        assert not record.accepted

    def test_zero_gradient_detected(self):
        state = make_state([0, 1], gradient=[0.0, 0.0], radius=4)
        new, _ = tr_step(state, StubEvaluator(0.0))
        assert new.radius == 0
        assert new.terminal_reason is TerminationReason.ZERO_GRADIENT

    def test_high_quality_full_step_doubles_radius(self):
        # Predicted reduction 2, actual 1.8 -> rho = 0.9 on a full-radius step.
        state = make_state([0, 0, 0], gradient=[-1.0, -1.0, 3.0], radius=2, objective=1.0)
        new, record = tr_step(state, StubEvaluator(1.0 - 1.8, gradient_value=np.ones(3)), rho_hat=0.75)
        assert record.accepted and record.rho == pytest.approx(0.9)
        assert new.radius == 4
        assert np.array_equal(new.alpha.bits, [1, 1, 0])

    def test_partial_step_keeps_radius(self):
        # Only one negative gain; step is smaller than the radius.
        state = make_state([0, 0, 0], gradient=[-1.0, 1.0, 1.0], radius=3, objective=1.0)
        new, record = tr_step(state, StubEvaluator(0.05, gradient_value=np.ones(3)))
        assert record.accepted and record.rho == pytest.approx(0.95)
        assert new.radius == 3

    def test_modest_step_keeps_radius(self):
        state = make_state([0, 0, 0], gradient=[-1.0, -1.0, -1.0], radius=3, objective=1.0)
        new, record = tr_step(state, StubEvaluator(1.0 - 1.5, gradient_value=np.ones(3)))
        assert record.accepted and record.rho == pytest.approx(0.5)
        assert new.radius == 3

    def test_rejection_floor_halves_radius(self):
        state = make_state([0] * 5, gradient=[-1.0] * 5, radius=5, objective=1.0)
        new, record = tr_step(state, StubEvaluator(2.0))
        assert not record.accepted and record.rho == pytest.approx(-0.2)
        assert new.radius == 2
        assert np.array_equal(new.alpha.bits, state.alpha.bits)
        assert new.gradient is state.gradient


@pytest.fixture(scope="module")
def small_evaluator():
    cfg = SystemConfig(substeps=300)
    return ObjectiveEvaluator(precompute_propagators(cfg), GateTarget.from_essential(H_GATE, 4), cfg)


class TestOptimize:
    def test_zero_gradient_start_terminates_immediately(self):
        # With the drive off both sensitivities vanish, so the gradient is
        # exactly zero everywhere.
        cfg = SystemConfig(theta=0.0, substeps=200)
        props = precompute_propagators(cfg)
        target = GateTarget.from_essential(np.eye(2), 4)
        alpha0 = PulseSequence(np.array([1]))
        alpha, trace = optimize(alpha0, ObjectiveEvaluator(props, target, cfg))
        assert len(trace.records) == 1
        assert trace.terminal_reason is TerminationReason.ZERO_GRADIENT
        assert np.array_equal(alpha.bits, alpha0.bits)

    def test_initial_radius_must_lie_in_one_to_p(self, small_evaluator):
        # A radius above p could never meet the doubling rule's step == radius.
        alpha0 = PulseSequence.random(8, np.random.default_rng(8))
        for delta0 in (0, 9):
            with pytest.raises(ValueError, match="radius"):
                optimize(alpha0, small_evaluator, delta0=delta0)
        _, trace = optimize(alpha0, small_evaluator, delta0=8)
        assert trace.records[0].delta == 8

    def test_accepted_objective_monotone(self, small_evaluator, rng):
        _, trace = optimize(PulseSequence.random(24, rng), small_evaluator)
        accepted = [r.j for r in trace.records if r.accepted]
        assert all(b <= a for a, b in zip(accepted, accepted[1:]))

    def test_radius_dynamics_follow_rules(self, small_evaluator, rng):
        _, trace = optimize(PulseSequence.random(24, rng), small_evaluator)
        radius = 24
        for r in trace.records:
            assert r.delta == radius
            if np.isnan(r.rho):
                radius = 0
            elif r.accepted and r.rho > 0.75 and r.hamming_step == r.delta:
                radius = 2 * radius
            elif r.accepted:
                pass
            else:
                radius = radius // 2
        assert radius == 0 or trace.terminal_reason is TerminationReason.MAX_ITERATIONS

    def test_single_flip_stationarity_at_termination(self, small_evaluator):
        evaluator = small_evaluator
        reasons = []
        for seed in range(6):
            rng = np.random.default_rng(seed)
            alpha, trace = optimize(PulseSequence.random(10, rng), evaluator)
            reasons.append(trace.terminal_reason)
            if trace.terminal_reason is TerminationReason.NO_IMPROVING_FLIP:
                _, _, _, traj = evaluator.objective(alpha)
                g = evaluator.gradient(alpha, traj)
                gains = np.where(alpha.bits == 0, g, -g)
                assert gains.min() >= 0.0
        assert TerminationReason.NO_IMPROVING_FLIP in reasons

    def test_non_finite_objective_or_gradient_is_an_error(self, small_evaluator, monkeypatch):
        # A NaN J on a trial step would read as a rejection and a NaN gradient
        # as no improving flip; either way the run would end as if it converged.
        alpha0 = PulseSequence.random(24, np.random.default_rng(24))
        real = trustregion.propagate
        calls = []

        def nan_after_first(alpha, props):
            calls.append(alpha)
            traj = real(alpha, props)
            return traj if len(calls) == 1 else ForwardTrajectory(np.full_like(traj.snapshots, np.nan))

        monkeypatch.setattr(trustregion, "propagate", nan_after_first)
        with pytest.raises(NonFiniteObjective, match="objective"):
            optimize(alpha0, small_evaluator)
        assert len(calls) == 2
        monkeypatch.setattr(trustregion, "propagate", real)
        monkeypatch.setattr(trustregion, "fused_sweep", lambda *args: (np.full(24, np.nan), np.zeros(24)))
        with pytest.raises(NonFiniteObjective, match="gradient"):
            optimize(alpha0, small_evaluator)

    def test_reference_recursion_takes_the_same_steps(self, fast_cfg, fast_props, monkeypatch):
        # The closed-form gradient kernel and the step-by-step adjoint
        # recursion differ only in roundoff, which must not change a decision.
        evaluator = ObjectiveEvaluator(fast_props, GateTarget.from_essential(H_GATE, 4), fast_cfg)
        alpha0 = PulseSequence.random(64, np.random.default_rng(64))
        alpha, trace = optimize(alpha0, evaluator)
        monkeypatch.setattr("sfqctrl.trustregion.fused_sweep", adjoint_recursion)
        ref_alpha, ref_trace = optimize(alpha0, evaluator)
        assert len(trace.records) > 2
        assert alpha.to_string() == ref_alpha.to_string()
        assert [(r.accepted, r.hamming_step) for r in trace.records] == [
            (r.accepted, r.hamming_step) for r in ref_trace.records
        ]


class TestMultiRestart:
    def test_single_restart_equals_optimize(self, small_evaluator):
        seed = 99
        res = multi_restart(1, seed, 16, small_evaluator)
        alpha0 = PulseSequence.random(16, np.random.default_rng(seed))
        alpha, trace = optimize(alpha0, small_evaluator)
        assert np.array_equal(res.best_alpha.bits, alpha.bits)
        assert res.best.objective == trace.records[-1].j

    def test_deterministic_for_fixed_seed(self, small_evaluator):
        a = multi_restart(3, 7, 16, small_evaluator)
        b = multi_restart(3, 7, 16, small_evaluator)
        assert np.array_equal(a.best_alpha.bits, b.best_alpha.bits)
        assert [s.objective for s in a.summaries] == [s.objective for s in b.summaries]

    def test_best_is_minimum_objective(self, small_evaluator):
        res = multi_restart(4, 11, 16, small_evaluator)
        assert res.best.objective == min(s.objective for s in res.summaries)

    def test_ties_go_to_the_first_restart(self, small_evaluator):
        # At p = 1 every restart ends on one of two words, so the best J ties exactly.
        res = multi_restart(6, 3, 1, small_evaluator)
        objectives = [s.objective for s in res.summaries]
        assert objectives.count(min(objectives)) > 1
        assert res.best_index == objectives.index(min(objectives))


@pytest.fixture(scope="module")
def x_evaluator():
    # X at theta = pi/100 on 64- to 80-pulse words: most restarts join a state an earlier one
    # visited, and at 80 pulses they end both radius_exhausted and no_improving_flip.
    cfg = SystemConfig(substeps=300, theta=np.pi / 100)
    return ObjectiveEvaluator(precompute_propagators(cfg), GateTarget.from_essential(np.array([[0, 1], [1, 0]]), 4), cfg)


def calls_of(monkeypatch, name):
    """Wrap trustregion.<name>; each call appends (args, result) to the returned list."""
    calls = []
    real = getattr(trustregion, name)

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(trustregion, name, spy)
    return calls


def renumbered(records, start=0):
    return [replace(r, iteration=r.iteration - start) for r in records]


class TestSharedStates:
    def test_records_depend_only_on_word_and_radius(self, x_evaluator, monkeypatch):
        alpha0 = PulseSequence.random(64, np.random.default_rng(2))
        steps = calls_of(monkeypatch, "tr_step")
        visited = {}
        alpha, trace = optimize(alpha0, x_evaluator, visited=visited)
        monkeypatch.undo()
        assert len(trace.records) >= 4
        k = len(trace.records) // 2
        state = steps[k][0][0]
        assert state.iteration == k and 1 <= state.radius <= 64
        tail_alpha, tail = optimize(state.alpha, x_evaluator, delta0=state.radius)
        assert renumbered(tail.records) == renumbered(trace.records[k:], k)
        assert tail.terminal_reason is trace.terminal_reason
        assert np.array_equal(tail_alpha.bits, alpha.bits)
        # Looked up among the first run's states, the same start splices that tail, renumbered from 0, unevaluated.
        evals = calls_of(monkeypatch, "propagate")
        spliced_alpha, spliced = optimize(state.alpha, x_evaluator, delta0=state.radius, visited=visited)
        assert evals == []
        assert spliced.records == tail.records and spliced.terminal_reason is tail.terminal_reason
        assert np.array_equal(spliced_alpha.bits, alpha.bits)

    def test_shared_restarts_equal_plain_optimize_calls(self, x_evaluator, monkeypatch):
        n, seed, p = 10, 1, 80
        shared_runs = calls_of(monkeypatch, "optimize")
        shared_evals = calls_of(monkeypatch, "propagate")
        res = multi_restart(n, seed, p, x_evaluator)
        monkeypatch.undo()
        plain_evals = calls_of(monkeypatch, "propagate")
        rng = np.random.default_rng(seed)
        plain_runs = [optimize(PulseSequence.random(p, rng), x_evaluator) for _ in range(n)]
        assert len(shared_evals) < len(plain_evals)
        for (_, (alpha, trace)), (ref_alpha, ref_trace), summary in zip(shared_runs, plain_runs, res.summaries, strict=True):
            assert np.array_equal(alpha.bits, ref_alpha.bits)
            assert trace.records == ref_trace.records
            assert trace.terminal_reason is ref_trace.terminal_reason
            assert (summary.objective, summary.iterations, summary.accepted, summary.terminal_reason) == (
                ref_trace.records[-1].j,
                len(ref_trace.records),
                ref_trace.accepted_count,
                ref_trace.terminal_reason,
            )

    def test_splice_that_would_pass_max_iter_runs_normally(self, x_evaluator, monkeypatch):
        alpha0 = PulseSequence.random(64, np.random.default_rng(2))
        visited = {}
        _, full = optimize(alpha0, x_evaluator, visited=visited)
        n = len(full.records)
        assert n >= 3
        evals = calls_of(monkeypatch, "propagate")
        _, spliced = optimize(alpha0, x_evaluator, max_iter=n, visited=visited)
        assert evals == [] and spliced.records == full.records
        capped_alpha, capped = optimize(alpha0, x_evaluator, max_iter=n - 1, visited=visited)
        assert evals
        ref_alpha, ref = optimize(alpha0, x_evaluator, max_iter=n - 1)
        assert capped.records == ref.records
        assert capped.terminal_reason is TerminationReason.MAX_ITERATIONS
        assert np.array_equal(capped_alpha.bits, ref_alpha.bits)

    def test_states_are_added_once_a_run_ends_below_max_iter(self, x_evaluator, monkeypatch):
        alpha0 = PulseSequence.random(64, np.random.default_rng(2))
        visited = {}
        _, capped = optimize(alpha0, x_evaluator, max_iter=2, visited=visited)
        assert capped.terminal_reason is TerminationReason.MAX_ITERATIONS
        assert visited == {}
        steps = calls_of(monkeypatch, "tr_step")
        _, plain = optimize(alpha0, x_evaluator)
        monkeypatch.undo()
        n, k = len(plain.records), len(plain.records) // 2
        state = steps[k][0][0]
        optimize(state.alpha, x_evaluator, delta0=state.radius, visited=visited)
        assert len(visited) == n - k
        # This run steps k times, then splices; the k states it stepped from go in too.
        _, full = optimize(alpha0, x_evaluator, visited=visited)
        assert full.records == plain.records
        assert len(visited) == n
