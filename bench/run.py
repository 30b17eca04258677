"""Benchmark of sfqctrl: three seeded workloads, end-to-end metrics, traced layers.

Run from the repository root (the package is imported from ./src):

    python3 bench/run.py --workload protocol_h300 --seed 1 --seconds 36 --trace 0

One process, one caller, one operation at a time (a closed loop).  With
``--trace 0`` the end-to-end metrics of BENCHMARK.json are measured; with
``--trace 1`` the same inputs run alternately plain and traced, and the
per-layer metrics come from the traced windows.  Every output is checked; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (environment,
passes, determinism digests, failures) goes to .bench_work/results/.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from tracing import Tracer, layer_metrics, patched

# Acceptance criterion 4: the 10-restart H protocol at theta = pi/300 must
# reach J1 below this bound.
PROTOCOL_J1_BOUND = 1.0e-4
# Re-simulating a written barcode must reproduce the run's objective; the
# slack only allows for a forward kernel that rounds differently.
RESIM_REL_TOL = 1.0e-9
# Set-up is short, so it is repeated (once per pass, and at least this often)
# and its median reported.
SETUP_REPEATS = 9
# The reference loop: this many products of 4x4 complex matrices, the
# operation sfqctrl's pulse words are multiplied out with.
REFERENCE_PRODUCTS = 500
# About the reference loop's mean time on the 2-vCPU Intel Xeon virtual
# machine the benchmark was written on (Python 3.11, numpy 2.4.6).  Times are
# reported at the speed at which the loop takes this long.
REFERENCE_S = 1.4e-3
# Reference loops run right before and right after every timed block.
REFERENCE_BRACKET = 5
# Input set k of a run uses seed + k * PASS_SEED_STRIDE; set 0 uses the run's seed.
PASS_SEED_STRIDE = 1_000_003


def pass_seed(seed: int, input_set: int) -> int:
    return seed + input_set * PASS_SEED_STRIDE


def load_package(root: Path) -> types.SimpleNamespace:
    """Import sfqctrl from root/src, refusing any other copy."""
    src = (root / "src").resolve()
    if not (src / "sfqctrl" / "__init__.py").is_file():
        raise FileNotFoundError(f"no sfqctrl sources under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"sfqctrl.{name}") for name in ("cli", "driver", "model", "objective")}
    if Path(mods["cli"].__file__).resolve().parent != src / "sfqctrl":
        raise ImportError(f"imported sfqctrl from {mods['cli'].__file__}, expected {src}")
    return types.SimpleNamespace(**mods)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def parse_fields(text: str) -> dict[str, str]:
    """``key=value`` tokens of a summary line."""
    return dict(tok.split("=", 1) for tok in text.split() if "=" in tok)


@dataclass
class PassOutput:
    """What one timed pass produced; checked after the clock stops."""

    index: int
    seed: int
    work: int
    files: list[Path]
    data: Any = None


class Reference:
    """The machine's speed, from a fixed loop run between units of work.

    A virtual machine that shares its cores with others runs the same code up
    to a third slower for seconds or minutes at a time.  A block of work and
    the reference loops run after each of its units slow down together, so
    its time scaled by ``speed`` (REFERENCE_S over the mean reference time)
    is the time it takes at the reference speed.  The mean, unlike the
    median, weighs fast and slow stretches as the block's time does.  The
    loop is benchmark code: a change to sfqctrl cannot move it.
    """

    def __init__(self):
        self.matrix = np.exp(0.25j) * np.eye(4, dtype=complex)
        self.times: list[float] = []

    def run(self, count: int = 1) -> None:
        m = self.matrix
        for _ in range(count):
            start = time.perf_counter()
            u = m
            for _ in range(REFERENCE_PRODUCTS):
                u = m @ u
            self.times.append(time.perf_counter() - start)

    def timed(self, fn: Callable[[], Any]) -> tuple[Any, float, float]:
        """Run fn between reference brackets; return (result, seconds, speed).

        Reference loops that fn runs (see ``interleaved``) do not count in
        its seconds.
        """
        self.times = []
        self.run(REFERENCE_BRACKET)
        inside = len(self.times)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - start - sum(self.times[inside:])
            self.run(REFERENCE_BRACKET)
        return result, wall, REFERENCE_S / statistics.fmean(self.times)


@contextlib.contextmanager
def interleaved(module: str, attr: str, after: Callable[[], None]):
    """Call ``after`` after every call of the module global ``module.attr`` in the block.

    If the module has no such global, the block runs unchanged.
    """
    if not hasattr(importlib.import_module(module), attr):
        yield
        return

    def make_wrapper(fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                after()

        return wrapper

    with patched(module, attr, make_wrapper):
        yield


class Workload:
    """A seeded workload: set-up, then passes of ops_per_pass operations.

    Pass i runs input set ``i % input_sets``, so a run's inputs are fixed by
    its seed and do not depend on how many passes fit in its time.  ``work``
    counts the units of ops_per_s: trust-region iterations for protocol_h300,
    re-simulations for resim_drift.
    """

    name = ""
    ops_per_pass = 1
    input_sets = 1

    def __init__(self, pkg: types.SimpleNamespace, seed: int, work_dir: Path):
        self.pkg = pkg
        self.seed = seed
        self.work_dir = work_dir
        self.props = None

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int, between: Callable[[], None] | None = None) -> PassOutput:
        """Run pass ``index``, calling ``between`` after each unit of its work, if given."""
        raise NotImplementedError

    def check(self, out: PassOutput) -> dict[str, str]:
        """Failed operations of a pass, as operation -> reason."""
        raise NotImplementedError

    def record(self, out: PassOutput) -> dict:
        """Values that must repeat exactly when the same code runs the same seed."""
        raise NotImplementedError

    def best_j1(self, out: PassOutput) -> float:
        raise NotImplementedError


class ProtocolH300(Workload):
    name = "protocol_h300"
    # The iteration count moves with the seed; several seeds damp that.
    input_sets = 4

    def __init__(self, pkg, seed, work_dir, p: int = 1600, restarts: int = 10, substeps: int = 10_000):
        super().__init__(pkg, seed, work_dir)
        self.p, self.restarts, self.substeps = p, restarts, substeps

    def setup(self) -> None:
        self.cfg = self.pkg.model.SystemConfig(theta=np.pi / 300.0, substeps=self.substeps)
        self.props = self.pkg.model.precompute_propagators(self.cfg)

    def spec(self, index: int):
        return self.pkg.driver.ExperimentSpec(
            system=self.cfg,
            gate="H",
            p=self.p,
            n_restarts=self.restarts,
            seed=pass_seed(self.seed, index % self.input_sets),
            output_dir=self.work_dir / f"pass{index}",
        )

    def run_pass(self, index: int, between: Callable[[], None] | None = None) -> PassOutput:
        spec = self.spec(index)
        steps = interleaved("sfqctrl.trustregion", "tr_step", between) if between else contextlib.nullcontext()
        with steps:
            res = self.pkg.driver.run_optimize(spec, props=self.props)
        work = sum(s.iterations for s in res.result.summaries)
        return PassOutput(index, spec.seed, work, list(res.files.values()), res)

    def check(self, out: PassOutput) -> dict[str, str]:
        res = out.data
        summary = parse_fields(res.files["summary"].read_text())
        j, j1 = float(summary["J"]), float(summary["J1"])
        op = f"optimize seed={out.seed}"
        if not j1 < PROTOCOL_J1_BOUND:
            return {op: f"best J1 {j1:.3e} is not below {PROTOCOL_J1_BOUND:g}"}
        spec = replace(self.spec(out.index), output_dir=self.work_dir / f"resim{out.index}")
        again = self.pkg.driver.run_simulate(spec, res.files["pulse_sequence"], props=self.props)
        if not math.isclose(again.j, j, rel_tol=RESIM_REL_TOL):
            return {op: f"re-simulated J {again.j:.12e} differs from the summary's {j:.12e}"}
        return {}

    def record(self, out: PassOutput) -> dict:
        res = out.data
        return {
            "seed": out.seed,
            "artifact_sha256": {name: sha256_file(path) for name, path in res.files.items()},
            "restarts": [
                {"iterations": s.iterations, "accepted": s.accepted, "terminal_reason": s.terminal_reason.value}
                for s in res.result.summaries
            ],
            "best_restart": res.result.best_index,
            "best_j1": res.j1,
        }

    def best_j1(self, out: PassOutput) -> float:
        return out.data.j1


class SweepShort(Workload):
    """Duration sweeps of H and X at theta = pi/100 over short words, p = 8..p_max.

    Many short words instead of a few long ones: each call's fixed cost and
    the trust-region and driver bookkeeping weigh more than on protocol_h300.
    One operation is one sweep point.
    """

    name = "sweep_short"
    gates = ("H", "X")
    # The iteration counts move with the seed; two seeds damp that.
    input_sets = 2

    def __init__(self, pkg, seed, work_dir, p_max: int = 160, restarts: int = 10, substeps: int = 10_000):
        super().__init__(pkg, seed, work_dir)
        self.grid = (8, p_max, 8)
        self.restarts, self.substeps = restarts, substeps
        self.points = list(range(self.grid[0], self.grid[1] + 1, self.grid[2]))
        self.ops_per_pass = len(self.gates) * len(self.points)

    def setup(self) -> None:
        self.cfg = self.pkg.model.SystemConfig(theta=np.pi / 100.0, substeps=self.substeps)
        self.props = self.pkg.model.precompute_propagators(self.cfg)

    def run_pass(self, index: int, between: Callable[[], None] | None = None) -> PassOutput:
        seed = pass_seed(self.seed, index % self.input_sets)
        points = interleaved("sfqctrl.driver", "multi_restart", between) if between else contextlib.nullcontext()
        with points:
            paths = {
                gate: self.pkg.driver.run_sweep(
                    self.pkg.driver.ExperimentSpec(
                        system=self.cfg,
                        gate=gate,
                        p=self.grid[1],
                        n_restarts=self.restarts,
                        seed=seed,
                        output_dir=self.work_dir / f"pass{index}-{gate}",
                        sweep=self.grid,
                    ),
                    props=self.props,
                )[0]
                for gate in self.gates
            }
        return PassOutput(index, seed, self.ops_per_pass, list(paths.values()), paths)

    def _rows(self, path: Path) -> dict[int, list[float]]:
        """sweep.csv as p -> (T_ns, best_J1, best_J2, best_J)."""
        lines = path.read_text().splitlines()[1:]
        return {int(cells[0]): [float(c) for c in cells[1:]] for cells in (line.split(",") for line in lines)}

    def check(self, out: PassOutput) -> dict[str, str]:
        failures = {}
        for gate, path in out.data.items():
            rows = self._rows(path)
            for p in self.points:
                row = rows.get(p)
                if row is None or len(row) != 4 or not all(math.isfinite(v) for v in row):
                    failures[f"sweep {gate} p={p} seed={out.seed}"] = f"no finite row in {path.name}: {row}"
        return failures

    def record(self, out: PassOutput) -> dict:
        return {
            "seed": out.seed,
            "sweep_sha256": {gate: sha256_file(path) for gate, path in out.data.items()},
        }

    def best_j1(self, out: PassOutput) -> float:
        return min(row[1] for path in out.data.values() for row in self._rows(path).values())


class ResimDrift(Workload):
    name = "resim_drift"

    def __init__(self, pkg, seed, work_dir, p: int = 1600, configs: int = 36, substeps: int = 10_000):
        super().__init__(pkg, seed, work_dir)
        self.p, self.substeps = p, substeps
        self.ops_per_pass = configs
        self.reference_j: float | None = None

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        inputs = self.work_dir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.barcode = inputs / "barcode.txt"
        self.barcode.write_text(self.pkg.objective.PulseSequence.random(self.p, rng).to_string() + "\n")
        self.configs = []
        for k in range(self.ops_per_pass):
            theta_over_pi = (1.0 + rng.uniform(-0.05, 0.05)) / 300.0
            omega_ghz = 5.0 + rng.uniform(-0.02, 0.02)
            path = inputs / f"drift{k:02d}.cfg"
            path.write_text(
                f"# drifted transmon {k}\n"
                f"omega_over_2pi_ghz = {omega_ghz!r}\n"
                f"theta_over_pi = {theta_over_pi!r}\n"
                f"substeps = {self.substeps}\n"
                "gate = H\n"
            )
            self.configs.append(path)
        self.reference_spec = self.pkg.driver.load_config(self.configs[0], output_dir=self.work_dir / "reference")
        self.props = self.pkg.model.precompute_propagators(self.reference_spec.system)

    def run_pass(self, index: int, between: Callable[[], None] | None = None) -> PassOutput:
        results = []
        for k, path in enumerate(self.configs):
            out_dir = self.work_dir / f"resim{k:02d}"
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.pkg.cli.main(["simulate", str(self.barcode), "--config", str(path), "--out", str(out_dir)])
            results.append((code, buf.getvalue()))
            if between:
                between()
        files = [
            self.work_dir / f"resim{k:02d}" / name
            for k in range(len(self.configs))
            for name in ("populations.csv", "summary.txt")
        ]
        return PassOutput(index, self.seed, len(results), files, results)

    def _j(self, text: str) -> tuple[float, float]:
        fields = parse_fields(text)
        return float(fields.get("J", "nan")), float(fields.get("J1", "nan"))

    def check(self, out: PassOutput) -> dict[str, str]:
        if self.reference_j is None:
            self.reference_j = self.pkg.driver.run_simulate(self.reference_spec, self.barcode, props=self.props).j
        failures = {}
        for k, (code, text) in enumerate(out.data):
            op = f"simulate drift{k:02d} pass{out.index}"
            j, _ = self._j(text)
            if code != 0:
                failures[op] = f"exit code {code}"
            elif not math.isfinite(j):
                failures[op] = f"no finite J in {text.strip()!r}"
            elif k == 0 and not math.isclose(j, self.reference_j, rel_tol=RESIM_REL_TOL):
                failures[op] = f"CLI J {j:.12e} differs from the library's {self.reference_j:.12e}"
        return failures

    def record(self, out: PassOutput) -> dict:
        text = "".join(t for _, t in out.data)
        return {
            "seed": out.seed,
            "barcode_sha256": sha256_file(self.barcode),
            "summaries_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "j_drift00": self._j(out.data[0][1])[0],
        }

    def best_j1(self, out: PassOutput) -> float:
        return min(self._j(t)[1] for _, t in out.data)


WORKLOADS = {w.name: w for w in (ProtocolH300, SweepShort, ResimDrift)}


@dataclass
class Tally:
    """Operations attempted and failed, with the reasons of the failures."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def run(self, wl: Workload, index: int, between: Callable[[], None] | None = None) -> PassOutput | None:
        """Run one pass; a raised exception fails every operation of the pass."""
        self.attempted += wl.ops_per_pass
        try:
            return wl.run_pass(index, between)
        except Exception:
            self.failed += wl.ops_per_pass
            self.reasons.append(f"pass {index}: {traceback.format_exc()}")
            return None

    def check(self, wl: Workload, out: PassOutput | None) -> None:
        """Check a pass; an output the check cannot read fails every operation of the pass."""
        if out is None:
            return
        try:
            failures = wl.check(out)
        except Exception:
            self.failed += wl.ops_per_pass
            self.reasons.append(f"pass {out.index}: unreadable output: {traceback.format_exc()}")
            return
        self.failed += len(failures)
        self.reasons.extend(f"{op}: {reason}" for op, reason in failures.items())


def measure(wl: Workload, seconds: float) -> tuple[dict, Tally, dict]:
    """End-to-end metrics: rounds of set-up and a pass per input set.

    A round runs every input set once.  After the first round a new round
    starts only while the mean round fits in the time left, so the inputs of
    a run depend on its seed only and extra rounds repeat them.  Every set-up
    and pass is timed between reference loops, and a pass also runs one after
    each unit of its work, so its time is also taken at the reference speed
    (see Reference).  setup_s is the median set-up and ops_per_s the work of
    the input sets over the sum of their median pass times, both at the
    reference speed.  A repeat that passes its checks but whose determinism
    record differs from the first run of its input set fails all its
    operations.
    """
    ref = Reference()
    tally = Tally()
    setups: list[dict] = []
    passes: list[dict] = []
    records: dict[int, dict] = {}

    def set_up() -> None:
        _, wall, speed = ref.timed(wl.setup)
        setups.append({"wall_s": wall, "speed": speed, "scaled_s": wall * speed})

    while True:
        for input_set in range(wl.input_sets):
            set_up()
            out, wall, speed = ref.timed(lambda: tally.run(wl, input_set, ref.run))
            failed = tally.failed
            tally.check(wl, out)
            if out is not None:
                rec = wl.record(out)
                if records.setdefault(input_set, rec) != rec and tally.failed == failed:
                    tally.failed += wl.ops_per_pass
                    tally.reasons.append(f"input set {input_set}: a repeat gave another determinism record")
            passes.append(
                {
                    "input_set": input_set,
                    "seed": pass_seed(wl.seed, input_set),
                    "work": out.work if out else 0,
                    "wall_s": wall,
                    "speed": speed,
                    "scaled_s": wall * speed,
                }
            )
        spent = sum(p["wall_s"] for p in passes) * wl.input_sets / len(passes)
        if spent * (len(passes) // wl.input_sets + 1) > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        set_up()

    def per_set(key: str) -> list[float]:
        return [statistics.median(p[key] for p in passes[k :: wl.input_sets]) for k in range(wl.input_sets)]

    work = sum(p["work"] for p in passes[: wl.input_sets])
    metrics = {
        "setup_s": (statistics.median(s["scaled_s"] for s in setups), "s"),
        "ops_per_s": (work / sum(per_set("scaled_s")), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    wall = per_set("wall_s")
    record = {
        "measured": {
            "setup_s": statistics.median(s["wall_s"] for s in setups),
            "ops_per_s": work / sum(wall),
            "wall_s": statistics.fmean(wall),
            "speed": statistics.median(p["speed"] for p in passes),
        },
        "setups": setups,
        "passes": passes,
        "determinism": records.get(0),
    }
    return metrics, tally, record


def measure_traced(wl: Workload, seconds: float, trace_dir: Path) -> tuple[dict, Tally, dict]:
    """Per-layer metrics: windows of set-up plus pass 0, alternately plain and traced.

    Every window repeats the same inputs, so counts are exact.  Times come from
    the traced window of median length, whose layer self times sum to its wall.
    """
    tally = Tally()
    plain_ns: list[int] = []
    traced: list[tuple[int, int, Tracer, PassOutput | None]] = []
    while True:
        start = time.perf_counter_ns()
        wl.setup()
        out = tally.run(wl, 0)
        plain_ns.append(time.perf_counter_ns() - start)
        tally.check(wl, out)

        tracer = Tracer()
        start = time.perf_counter_ns()
        with tracer.installed():
            wl.setup()
            out = tally.run(wl, 0)
        traced.append((time.perf_counter_ns() - start, start, tracer, out))
        tally.check(wl, out)
        spent = (sum(plain_ns) + sum(t[0] for t in traced)) / 1e9
        if spent + spent / len(plain_ns) > seconds:
            break
    window_ns, origin, tracer, out = sorted(traced, key=lambda t: t[0])[(len(traced) - 1) // 2]
    tracer.write_csv(trace_dir / f"{wl.name}-seed{wl.seed}.csv", origin)
    metrics = layer_metrics(tracer.spans, window_ns)
    metrics["model.d1_unitarity_defect"] = (wl.pkg.model.unitarity_defect(wl.props.d1), "1")
    metrics["driver.artifact_bytes"] = (sum(p.stat().st_size for p in out.files) if out else 0, "bytes")
    metrics["best_j1"] = (wl.best_j1(out) if out else 1.0, "1")
    metrics["trace_overhead_frac"] = (statistics.median(t[0] for t in traced) / statistics.median(plain_ns) - 1.0, "1")
    record = {
        "plain_window_s": [ns / 1e9 for ns in plain_ns],
        "traced_window_s": [t[0] / 1e9 for t in traced],
        "determinism": wl.record(out) if out else None,
    }
    return metrics, tally, record


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def tree_sha256(top: Path) -> str:
    """Digest of the relative paths and contents of the Python files under top."""
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        digest.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment(root: Path, wl: Workload) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(root),
        "src_sha256": tree_sha256(root / "src"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        # Unset means the library default, one thread per core.
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "d1_unitarity_defect": wl.pkg.model.unitarity_defect(wl.props.d1),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark sfqctrl on one seeded workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time to spend in measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        pkg = load_package(root)
    except (FileNotFoundError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    work_root = root / ".bench_work"
    results_dir, traces_dir = work_root / "results", work_root / "traces"
    results_dir.mkdir(parents=True, exist_ok=True)
    traces_dir.mkdir(parents=True, exist_ok=True)
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = work_root / f"{run_name}-{os.getpid()}"
    wl = WORKLOADS[args.workload](pkg, args.seed, work_dir)
    try:
        if args.trace:
            metrics, tally, record = measure_traced(wl, args.seconds, traces_dir)
        else:
            metrics, tally, record = measure(wl, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root, wl),
        **result,
        "failures": tally.reasons,
        **record,
    }
    record_path = results_dir / f"{run_name}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(f"{'error_rate':34s} {tally.failed / tally.attempted:14.6g} ({tally.failed} of {tally.attempted} operations)")
    for name, value in record.get("measured", {}).items():
        print(f"{'measured ' + name:34s} {value:14.6g} (before scaling)")
    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"record: {record_path.relative_to(root)}")
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
