"""Experiment orchestration: configs, gate library, runs and data files.

Configs are flat ``key = value`` text files; missing keys fall back to the
transmon defaults baked into SystemConfig.  Each optimization run emits the
optimized pulse sequence as a one-line barcode string, per-step level
populations, the trust-region convergence history and a one-line summary.
Duration sweeps rerun the full multi-restart protocol on a grid of pulse
counts and collect the best objective values per duration.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .model import (
    SystemConfig,
    TWO_PI,
    precompute_propagators,
    _integrate_amplitude,
)
# infidelity and leakage are not called here since the evaluator forms J, but
# the benchmark's span tracer binds these driver globals by name.
from .objective import (  # noqa: F401
    ForwardTrajectory,
    GateTarget,
    PulseSequence,
    infidelity,
    leakage,
    propagate,
)
from .trustregion import MultiRestartResult, ObjectiveEvaluator, multi_restart

GATE_ALIASES = {
    "h": "H",
    "x": "X",
    "y": "Y",
    "z": "Z",
    "i": "Identity",
    "id": "Identity",
    "identity": "Identity",
}

_BUILTIN_GATES = {
    "H": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.array([[1, 0], [0, -1]]),
    "Identity": np.eye(2),
}

_CONFIG_KEYS = (
    "omega_over_2pi_ghz",
    "xi_over_2pi_ghz",
    "tau_p_ns",
    "delta_ns",
    "theta_over_pi",
    "n_levels",
    "n_essential",
    "guard_weights",
    "c1",
    "substeps",
    "gate",
    "p",
    "n_restarts",
    "seed",
    "rho_hat",
    "delta0",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one optimization run."""

    system: SystemConfig
    gate: str = "H"
    p: int = 1600
    n_restarts: int = 10
    seed: int = 1234
    rho_hat: float = 0.75
    delta0: int | None = None
    output_dir: Path = Path(".")
    sweep: tuple[int, int, int] | None = None

    def __post_init__(self):
        if self.p < 1:
            raise ValidationError("pulse count must be positive", key="p")
        if self.n_restarts < 1:
            raise ValidationError("need at least one restart", key="n_restarts")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative", key="seed")
        if not 0.0 < self.rho_hat < 1.0:
            raise ValidationError("acceptance ratio must lie in (0, 1)", key="rho_hat")
        if self.delta0 is not None and self.delta0 < 1:
            raise ValidationError("initial radius must be at least 1", key="delta0")
        if self.sweep is not None:
            p_min, p_max, stride = self.sweep
            if p_min < 1 or p_max < p_min or stride < 1:
                raise ValidationError("sweep grid must satisfy 1 <= p_min <= p_max, stride >= 1", key="sweep")


def _parse_value(key: str, raw: str, line_no: int):
    try:
        if key in ("n_levels", "n_essential", "substeps", "p", "n_restarts", "seed", "delta0"):
            return int(raw)
        if key == "guard_weights":
            return tuple(float(tok) for tok in raw.replace(",", " ").split())
        if key == "gate":
            return raw
        return float(raw)
    except ValueError as exc:
        raise ParseError(f"cannot parse value for '{key}': {raw!r} ({exc})", line_no) from None


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment, blank lines are skipped."""
    values: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"expected 'key = value', got {stripped!r}", line_no)
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _CONFIG_KEYS:
            raise ParseError(f"unknown key '{key}'", line_no)
        if not raw:
            raise ParseError(f"empty value for '{key}'", line_no)
        values[key] = _parse_value(key, raw, line_no)
    return values


def spec_from_values(values: dict, output_dir: Path | None = None) -> ExperimentSpec:
    """Build an ExperimentSpec from parsed config values plus defaults."""
    base = SystemConfig()
    system = SystemConfig(
        omega=TWO_PI * values.get("omega_over_2pi_ghz", base.omega / TWO_PI),
        xi=TWO_PI * values.get("xi_over_2pi_ghz", base.xi / TWO_PI),
        tau_p=values.get("tau_p_ns", base.tau_p),
        delta=values.get("delta_ns", base.delta),
        theta=np.pi * values.get("theta_over_pi", base.theta / np.pi),
        n_levels=values.get("n_levels", base.n_levels),
        n_essential=values.get("n_essential", base.n_essential),
        guard_weights=values.get("guard_weights", base.guard_weights),
        c1=values.get("c1", base.c1),
        substeps=values.get("substeps", base.substeps),
    )
    return ExperimentSpec(
        system=system,
        gate=values.get("gate", "H"),
        p=values.get("p", 1600),
        n_restarts=values.get("n_restarts", 10),
        seed=values.get("seed", 1234),
        rho_hat=values.get("rho_hat", 0.75),
        delta0=values.get("delta0"),
        output_dir=output_dir if output_dir is not None else Path("."),
    )


def load_config(path: str | Path, output_dir: Path | None = None) -> ExperimentSpec:
    """Read a config file into an ExperimentSpec, validating all invariants."""
    text = Path(path).read_text()
    return spec_from_values(parse_config_text(text), output_dir=output_dir)


def _read_matrix_file(path: Path) -> np.ndarray:
    rows = []
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            rows.append([complex(tok) for tok in stripped.split()])
        except ValueError as exc:
            raise ParseError(f"cannot parse matrix entry: {exc}", line_no) from None
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ParseError(f"matrix file {path} must hold a square complex matrix")
    return np.array(rows, dtype=complex)


def gate_target(gate: str, n_levels: int) -> GateTarget:
    """Look up a built-in gate by name, or load a custom unitary from a file path."""
    name = GATE_ALIASES.get(gate.lower(), gate)
    if name in _BUILTIN_GATES:
        return GateTarget.from_essential(_BUILTIN_GATES[name], n_levels)
    path = Path(gate)
    if not path.is_file():
        raise ValidationError(f"unknown gate '{gate}' and no such file", key="gate")
    return GateTarget.from_essential(_read_matrix_file(path), n_levels)


def _write_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Write the text chunks to a sibling temp file, then rename it onto path.

    Every artifact goes through here, so a run that fails part-way through a
    write leaves the file that was there intact and no temp file behind.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as f:
            f.write("".join(chunks))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Write header and rows: float columns as %.12e, int columns as %d, typed by the first row."""
    fmt = ",".join("%.12e" if isinstance(v, float) else "%d" for v in rows[0]) + "\n"
    # Rows are formatted inside the atomic write, so a row that cannot be formatted leaves the old file.
    _write_atomic(path, itertools.chain([",".join(header) + "\n"], (fmt % tuple(row) for row in rows)))


def population_rows(traj: ForwardTrajectory, cfg: SystemConfig) -> tuple[list[str], list[list]]:
    """Level populations |U_j[b, a]|^2 at each step boundary, one row per time."""
    n, e = cfg.n_levels, cfg.n_essential
    header = ["time_ns"] + [f"pop_{a}_{b}" for a in range(e) for b in range(n)]
    # Columns run over a (essential start) then b (level): transpose to (j, a, b).
    pops = (np.abs(traj.snapshots[:, :, :e]) ** 2).transpose(0, 2, 1).reshape(traj.p + 1, e * n)
    times = np.arange(traj.p + 1) * cfg.tau_p
    return header, np.column_stack([times, pops]).tolist()


def max_top_level_population(traj: ForwardTrajectory, cfg: SystemConfig) -> float:
    """Largest population of the highest retained level over the trajectory."""
    pops = np.abs(traj.snapshots[:, cfg.n_levels - 1, : cfg.n_essential]) ** 2
    return float(pops.max())


@dataclass(frozen=True)
class OptimizeResult:
    spec: ExperimentSpec
    result: MultiRestartResult | None
    j: float
    j1: float
    j2: float
    max_top_pop: float
    files: dict[str, Path]


def _write_trajectory_files(
    spec: ExperimentSpec,
    files: dict[str, Path],
    traj: ForwardTrajectory,
    values: tuple[float, float, float],
    details: str,
    result: MultiRestartResult | None = None,
) -> OptimizeResult:
    """Write files["populations"] and files["summary"] for traj; (J, J1, J2) go in the summary."""
    j, j1, j2 = values
    header, rows = population_rows(traj, spec.system)
    _write_csv(files["populations"], header, rows)
    top_pop = max_top_level_population(traj, spec.system)
    summary = (
        f"gate={spec.gate} p={traj.p} T_ns={traj.p * spec.system.tau_p:.6g} {details}"
        f"J={j:.12e} J1={j1:.12e} J2={j2:.12e} max_pop_top_level={top_pop:.12e}"
    )
    _write_atomic(files["summary"], [summary + "\n"])
    return OptimizeResult(spec=spec, result=result, j=j, j1=j1, j2=j2, max_top_pop=top_pop, files=files)


def _evaluator(spec: ExperimentSpec, props=None, with_sensitivity: bool = True) -> ObjectiveEvaluator:
    """The run's one evaluator; the gate is resolved first, so a bad one fails before the precompute.

    with_sensitivity=False precomputes a forward-only set (no B0/B1) when
    props is None: the evaluator then forms J but not its gradient.
    """
    target = gate_target(spec.gate, spec.system.n_levels)
    if props is None:
        props = precompute_propagators(spec.system, with_sensitivity=with_sensitivity)
    return ObjectiveEvaluator(props, target, spec.system)


def run_optimize(spec: ExperimentSpec, props=None) -> OptimizeResult:
    """Precompute propagators, run the multi-restart protocol and write artifacts.

    Writes pulse_sequence.txt (barcode), populations.csv, convergence.csv and
    summary.txt into spec.output_dir.
    """
    evaluator = _evaluator(spec, props)
    result = multi_restart(
        spec.n_restarts, spec.seed, spec.p, evaluator, delta0=spec.delta0, rho_hat=spec.rho_hat
    )
    best = result.best

    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "pulse_sequence": out / "pulse_sequence.txt",
        "populations": out / "populations.csv",
        "convergence": out / "convergence.csv",
        "summary": out / "summary.txt",
    }
    _write_atomic(files["pulse_sequence"], [result.best_alpha.to_string() + "\n"])
    conv_rows = [
        [r.iteration, r.j, r.j1, r.j2, r.delta, r.rho, int(r.accepted)]
        for r in result.best_trace.records
    ]
    _write_csv(files["convergence"], ["iter", "J", "J1", "J2", "Delta", "rho", "accepted"], conv_rows)
    details = (
        f"theta_over_pi={spec.system.theta / np.pi:.8g} restarts={spec.n_restarts} seed={spec.seed} "
        f"best_restart={result.best_index} "
    )
    traj = propagate(result.best_alpha, evaluator.props)
    return _write_trajectory_files(spec, files, traj, (best.objective, best.j1, best.j2), details, result)


def run_sweep(spec: ExperimentSpec, props=None) -> tuple[Path, list[list]]:
    """Run the multi-restart protocol for each p on the sweep grid.

    Appends (p, T_ns, best_J1, best_J2, best_J) per grid point to sweep.csv.
    The evaluator (propagators, target, weights) depends only on the spec's
    system and gate, so one is shared across all durations.
    """
    if spec.sweep is None:
        raise ValidationError("sweep bounds are not set", key="sweep")
    p_min, p_max, stride = spec.sweep
    evaluator = _evaluator(spec, props)

    rows: list[list] = []
    for p in range(p_min, p_max + 1, stride):
        result = multi_restart(
            spec.n_restarts, spec.seed, p, evaluator, delta0=spec.delta0, rho_hat=spec.rho_hat
        )
        best = result.best
        rows.append([p, float(p * spec.system.tau_p), best.j1, best.j2, best.objective])

    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sweep.csv"
    _write_csv(path, ["p", "T_ns", "best_J1", "best_J2", "best_J"], rows)
    return path, rows


@dataclass(frozen=True)
class GradCheckReport:
    p_check: int
    step: float
    rel_errors: np.ndarray
    max_rel_error: float
    passed: bool


def fd_gradient(alpha: PulseSequence, evaluator: ObjectiveEvaluator, step: float = 1.0e-5) -> np.ndarray:
    """Central finite differences of the relaxed objective, one bit at a time.

    Each coordinate replaces its step propagator by the integrated propagator
    at amplitude a_k +/- step (the relaxed chain; the integrator is analytic
    in the amplitude, so the binary endpoints may be stepped past).  The
    perturbed one-step propagators are cached since only four amplitudes
    ever occur.
    """
    props, cfg = evaluator.props, evaluator.cfg
    cache: dict[float, np.ndarray] = {}

    def chain_objective(k: int, value: float) -> float:
        if value not in cache:
            cache[value] = _integrate_amplitude(cfg, value)[0]
        dim = cfg.n_levels
        u = np.eye(dim, dtype=complex)
        snaps = np.empty((len(alpha) + 1, dim, dim), dtype=complex)
        snaps[0] = u
        for j, bit in enumerate(alpha.bits):
            d = cache[value] if j == k else (props.d1 if bit else props.d0)
            u = d @ u
            snaps[j + 1] = u
        return evaluator.evaluate(ForwardTrajectory(snapshots=snaps))[0]

    grad = np.empty(len(alpha))
    for k, bit in enumerate(alpha.bits):
        lo = chain_objective(k, float(bit) - step)
        hi = chain_objective(k, float(bit) + step)
        grad[k] = (hi - lo) / (2.0 * step)
    return grad


GRAD_CHECK_THRESHOLD = 1.0e-4


def run_grad_check(
    spec: ExperimentSpec, p_check: int = 16, step: float = 1.0e-5, props=None
) -> GradCheckReport:
    """Compare the adjoint gradient against central finite differences.

    Draws a seeded random sequence of length p_check, prints per-coordinate
    relative errors (with a 1e-10 absolute floor for near-zero entries) and
    fails when the maximum reaches GRAD_CHECK_THRESHOLD.
    """
    if p_check < 1:
        raise ValidationError("need at least one step", key="p_check")
    if p_check > 64:
        raise ValidationError("finite differencing beyond p = 64 is too slow", key="p_check")
    if not 0.0 < step < np.inf:
        raise ValidationError("finite-difference step must be finite and positive", key="step")
    evaluator = _evaluator(spec, props)
    alpha = PulseSequence.random(p_check, np.random.default_rng(spec.seed))
    g_adj = evaluator.gradient(alpha, propagate(alpha, evaluator.props))
    g_fd = fd_gradient(alpha, evaluator, step=step)
    floor = 1.0e-10
    rel = np.abs(g_adj - g_fd) / np.maximum(np.abs(g_fd), floor)
    # Coordinates where both gradients sit below the floor carry no signal
    # (identically zero terms, e.g. the leak part under zero weights).
    rel[(np.abs(g_fd) <= floor) & (np.abs(g_adj) <= floor)] = 0.0
    return GradCheckReport(
        p_check=p_check,
        step=step,
        rel_errors=rel,
        max_rel_error=float(rel.max()),
        passed=bool(rel.max() < GRAD_CHECK_THRESHOLD),
    )


def run_simulate(spec: ExperimentSpec, barcode_path: str | Path, props=None) -> OptimizeResult:
    """Forward-only run of a stored barcode: populations plus objective summary.

    Without props it precomputes D0/D1 only; the sensitivities are never used.
    """
    text = Path(barcode_path).read_text().strip()
    if not text or text.strip("01"):
        raise ParseError(f"barcode file {barcode_path} must hold one line over {{0,1}}")
    alpha = PulseSequence.from_string(text)
    evaluator = _evaluator(spec, props, with_sensitivity=False)
    traj = propagate(alpha, evaluator.props)
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {"populations": out / "populations.csv", "summary": out / "summary.txt"}
    return _write_trajectory_files(spec, files, traj, evaluator.evaluate(traj), "")
