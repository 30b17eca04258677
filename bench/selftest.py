"""Self-test of the benchmark at tiny size (substeps=400, short words).

Checks that every metric BENCHMARK.json names is emitted with its unit, that
layer self times add up to the traced wall time, that tracing puts back every
function it wrapped, and that a run repeats its determinism record.

Run from anywhere:  python3 bench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

PKG = run.load_package(ROOT)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = ROOT / ".bench_work" / "selftest"

TINY = {
    "protocol_h300": dict(p=48, restarts=2, substeps=400),
    "sweep_short": dict(p_max=16, restarts=2, substeps=400),
    "resim_drift": dict(p=48, configs=3, substeps=400),
}


def tiny(name: str, seed: int = 7) -> run.Workload:
    return run.WORKLOADS[name](PKG, seed, WORK / f"{name}-{seed}", **TINY[name])


def bound_functions() -> dict[tuple[str, str], object]:
    return {(b.module, b.attr): getattr(sys.modules[b.module], b.attr) for b in tracing.BINDINGS}


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        WORK.mkdir(parents=True, exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def assert_metrics(self, metrics: dict, declared: list[dict]) -> None:
        self.assertEqual({name: unit for name, (_, unit) in metrics.items()}, {m["name"]: m["unit"] for m in declared})
        for name, (value, _) in metrics.items():
            self.assertIsInstance(value, (int, float), name)
            self.assertTrue(math.isfinite(value), name)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(sorted(run.WORKLOADS), sorted(w["name"] for w in SPEC["workloads"]))

    def test_end_to_end_metrics_are_emitted_with_units(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                metrics, tally, _ = run.measure(tiny(name), 0.0)
                self.assert_metrics(metrics, SPEC["end_to_end"])
                self.assertTrue(all(value > 0 for value, _ in metrics.values()))
                self.assertGreaterEqual(tally.attempted, 1)

    def test_per_layer_metrics_are_emitted_and_self_times_add_up(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                metrics, _, _ = run.measure_traced(tiny(name), 0.0, WORK)
                self.assert_metrics(metrics, SPEC["per_layer"])
                layers = sum(metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
                self.assertAlmostEqual(layers + metrics["bench.self_s"][0], metrics["traced_wall_s"][0], delta=1e-6)
                self.assertGreater(metrics["model.precompute_calls"][0], 0)

    def test_measuring_restores_every_wrapped_function(self):
        before = bound_functions()
        run.measure_traced(tiny("protocol_h300"), 0.0, WORK)
        self.assertEqual(bound_functions(), before)
        run.measure(tiny("protocol_h300"), 0.0)
        self.assertEqual(bound_functions(), before)
        with self.assertRaises(RuntimeError):
            with tracing.Tracer().installed():
                self.assertNotEqual(bound_functions(), before)
                raise RuntimeError("escape from the traced block")
        self.assertEqual(bound_functions(), before)

    def test_resim_outputs_pass_their_checks(self):
        _, tally, _ = run.measure(tiny("resim_drift"), 0.0)
        self.assertEqual(tally.reasons, [])
        self.assertEqual(tally.failed, 0)

    def test_same_seed_repeats_the_determinism_record(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                first = run.measure(tiny(name, seed=3), 0.0)[2]["determinism"]
                second = run.measure(tiny(name, seed=3), 0.0)[2]["determinism"]
                self.assertIsNotNone(first)
                self.assertEqual(first, second)

    def test_refuses_a_directory_without_sources(self):
        empty = WORK / "empty"
        empty.mkdir(parents=True, exist_ok=True)
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "resim_drift", "--seed", "1", "--seconds", "1"],
            cwd=empty,
            capture_output=True,
            text=True,
            timeout=120,
        )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
