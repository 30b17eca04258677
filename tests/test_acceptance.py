"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them live).
The four full-scale gate protocols are computed once and shared.
"""

import time

import numpy as np
import pytest

from oracles import enumerate_ball_minimum, fd_gradient_oracle, lattice_gradient
from sfqctrl.driver import ExperimentSpec, gate_target, run_sweep
from sfqctrl.model import (
    SystemConfig,
    _integrate_amplitude,
    precompute_propagators,
    unitarity_defect,
)
from sfqctrl.objective import (
    GateTarget,
    PulseSequence,
    guard_weight_vector,
    infidelity,
    propagate,
)
from sfqctrl.trustregion import (
    ObjectiveEvaluator,
    TerminationReason,
    multi_restart,
    optimize,
    solve_subproblem,
)

SEED = 1234
PULSES = 1600
RESTARTS = 10


def report(number: int, label: str, passed: bool, detail: str) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {number}: {label} ({detail})")
    assert passed, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def systems():
    out = {}
    for name, theta in (("300", np.pi / 300), ("100", np.pi / 100)):
        cfg = SystemConfig(theta=theta)
        out[name] = (cfg, precompute_propagators(cfg))
    return out


@pytest.fixture(scope="module")
def protocols(systems):
    """Best multi-restart result for each (gate, tip angle) at T = 40 ns."""
    runs = {}
    for gate in ("H", "X"):
        for name in ("300", "100"):
            cfg, props = systems[name]
            res = multi_restart(RESTARTS, SEED, PULSES, props, gate_target(gate, 4), cfg)
            runs[(gate, name)] = (cfg, props, res)
    return runs


def test_criterion_1_propagator_unitarity(systems):
    t0 = time.perf_counter()
    cfg, props = systems["300"]
    defect = unitarity_defect(props.d1)
    d1_fine, _ = _integrate_amplitude(cfg, 1.0, substeps=2 * cfg.substeps)
    doubling = float(np.abs(d1_fine - props.d1).max())
    elapsed = time.perf_counter() - t0
    passed = defect < 1e-10 and doubling < 1e-8
    report(
        1,
        "propagator unitarity and substep convergence",
        passed,
        f"defect {defect:.2e} < 1e-10, doubling change {doubling:.2e} < 1e-8, {elapsed:.2f}s",
    )


def test_criterion_2_gradient_oracle(systems):
    cfg, props = systems["300"]
    target = gate_target("H", 4)
    weights = guard_weight_vector(cfg)
    evaluator = ObjectiveEvaluator(props, target, cfg)
    rng = np.random.default_rng(SEED)
    cache = {}
    worst_rel = 0.0
    worst_budget = 0.0
    for _ in range(20):
        bits = rng.integers(0, 2, size=16)
        seq = PulseSequence(bits)
        g_adj = evaluator.gradient(seq, propagate(seq, props))
        g_fd = fd_gradient_oracle(bits, cfg, target, weights, step=1e-5, cache=cache)
        err = np.abs(g_adj - g_fd)
        # Every entry must sit within relative 1e-5 of the FD value, with a
        # 1e-10 absolute floor absorbing the oracle's own roundoff noise
        # (eps/2h ~ 5e-12) on near-zero entries.
        worst_budget = max(worst_budget, float((err / (1e-5 * np.abs(g_fd) + 1e-10)).max()))
        measurable = np.abs(g_fd) > 1e-5
        if measurable.any():
            worst_rel = max(worst_rel, float((err[measurable] / np.abs(g_fd[measurable])).max()))
    ok = worst_budget < 1.0 and worst_rel < 1e-5
    report(
        2,
        "adjoint gradient vs central finite differences (20 x p=16, h=1e-5)",
        ok,
        f"relative error {worst_rel:.2e} < 1e-5 on measurable entries; "
        f"all entries within 1e-5*|g| + 1e-10 (worst at {worst_budget:.2f} of budget)",
    )


def test_criterion_3_knapsack_oracle():
    rng = np.random.default_rng(SEED)
    checked = 0
    ok = True
    for _ in range(100):
        p = int(rng.integers(2, 13))
        bits = rng.integers(0, 2, size=p)
        g = lattice_gradient(rng, p)
        for radius in range(1, p + 1):
            out = solve_subproblem(PulseSequence(bits), g, radius)
            value = float(g @ (out.bits.astype(float) - bits))
            ok &= value == enumerate_ball_minimum(bits, g, radius)
            checked += 1
    report(3, "knapsack sub-problem vs Hamming-ball enumeration", ok, f"{checked} instance/radius pairs, exact")


def test_criterion_4_h_gate_weak_pulse(protocols):
    _, _, res = protocols[("H", "300")]
    j1 = res.best.j1
    accepted = res.best_trace.accepted_count
    passed = j1 < 1e-4 and accepted <= 60
    report(
        4,
        "H gate, theta=pi/300, p=1600, 10 restarts",
        passed,
        f"best J1 {j1:.2e} < 1e-4 in {accepted} accepted iterations (<= 60)",
    )


def test_criterion_5_remaining_gate_protocols(protocols):
    details = []
    passed = True
    for gate, name in (("H", "100"), ("X", "300"), ("X", "100")):
        j1 = protocols[(gate, name)][2].best.j1
        passed &= j1 < 1e-3
        details.append(f"{gate}@pi/{name} J1 {j1:.2e}")
    report(5, "H at pi/100 and X at both tip angles reach J1 < 1e-3", passed, "; ".join(details))


def test_criterion_6_leakage_bounds(protocols):
    bounds = {"300": 1e-2, "100": 1e-1}
    details = []
    passed = True
    for (gate, name), (cfg, props, res) in protocols.items():
        traj = propagate(res.best_alpha, props)
        top = float((np.abs(traj.snapshots[:, cfg.n_levels - 1, : cfg.n_essential]) ** 2).max())
        passed &= top < bounds[name]
        details.append(f"{gate}@pi/{name} max|3> {top:.2e} < {bounds[name]:g}")
    report(6, "top-level population bounded at the optima", passed, "; ".join(details))


def test_criterion_7_duration_sweep(systems, tmp_path):
    # Coarse stride-80 neighborhoods ending at each bound; a crossing at
    # T <= bound establishes that the smallest such T meets the bound.
    cases = [
        ("H", "300", 34.0, (1280, 1360)),
        ("H", "100", 14.0, (480, 560)),
        ("X", "300", 30.0, (1120, 1200)),
        ("X", "100", 12.0, (400, 480)),
    ]
    details = []
    passed = True
    for gate, name, bound_ns, (p_min, p_max) in cases:
        cfg, props = systems[name]
        spec = ExperimentSpec(
            system=cfg,
            gate=gate,
            p=p_max,
            n_restarts=RESTARTS,
            seed=SEED,
            output_dir=tmp_path / f"{gate}{name}",
            sweep=(p_min, p_max, 80),
        )
        _, rows = run_sweep(spec, props=props)
        crossing = [r for r in rows if r[1] <= bound_ns and r[2] < 1e-3]
        passed &= bool(crossing)
        best = min((r[2] for r in rows), default=np.inf)
        details.append(f"{gate}@pi/{name}: J1 {best:.1e} within {bound_ns:g}ns")
    report(7, "gate duration thresholds", passed, "; ".join(details))


def test_criterion_8_property_suite(protocols):
    checks = []

    # Monotone accepted objective along every full-scale trace.
    monotone = True
    for (_, _), (_, _, res) in protocols.items():
        accepted = [r.j for r in res.best_trace.records if r.accepted]
        monotone &= all(b <= a for a, b in zip(accepted, accepted[1:]))
    checks.append(("monotone accepted J", monotone))

    # Global-phase invariance of the infidelity.
    cfg, props, res = protocols[("H", "300")]
    target = gate_target("H", 4)
    u = propagate(res.best_alpha, props).final
    base = infidelity(u, target)
    phase_ok = all(
        abs(infidelity(np.exp(1j * phi) * u, target) - base) < 1e-12
        for phi in (0.3, -1.2, np.pi, 5.0)
    )
    checks.append(("global-phase invariance", phase_ok))

    # Population conservation along the optimal trajectory.
    snaps = propagate(res.best_alpha, props).snapshots
    norms = np.linalg.norm(snaps, axis=1)
    checks.append(("population conservation", bool(np.abs(norms - 1.0).max() < 1e-8)))

    # Termination stationarity: no improving single flip in the linear model.
    small_cfg = SystemConfig(substeps=300)
    small_props = precompute_propagators(small_cfg)
    evaluator = ObjectiveEvaluator(small_props, target, small_cfg)
    stationary = True
    seen = False
    for seed in range(5):
        alpha0 = PulseSequence.random(12, np.random.default_rng(seed))
        alpha, trace = optimize(alpha0, small_props, target, small_cfg)
        if trace.terminal_reason is TerminationReason.NO_IMPROVING_FLIP:
            seen = True
            _, _, _, traj = evaluator.objective(alpha)
            g = evaluator.gradient(alpha, traj)
            stationary &= bool(np.where(alpha.bits == 0, g, -g).min() >= 0.0)
    checks.append(("termination stationarity", stationary and seen))

    # Determinism under a fixed seed.
    a = multi_restart(2, 17, 12, small_props, target, small_cfg)
    b = multi_restart(2, 17, 12, small_props, target, small_cfg)
    deterministic = np.array_equal(a.best_alpha.bits, b.best_alpha.bits) and [
        s.objective for s in a.summaries
    ] == [s.objective for s in b.summaries]
    checks.append(("determinism", deterministic))

    passed = all(ok for _, ok in checks)
    report(8, "property suite", passed, "; ".join(f"{n}: {'ok' if ok else 'FAIL'}" for n, ok in checks))
