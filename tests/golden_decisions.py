"""Golden trust-region decisions of the acceptance protocols and duration sweep.

The acceptance suite runs the four full-scale gate protocols (H and X at tip
angles pi/300 and pi/100, p = 1600, 10 restarts, seed 1234) and criterion
7's duration sweep once per module.  Its golden test compares their discrete
decisions -- per restart the iteration count, accepted steps, terminal reason
and final word, the best restart, and the best trace's (accepted, Hamming
step) sequence -- exactly, and the objective values to 1e-9 relative, with
tests/golden/decisions.json.  This script writes that file:

    PYTHONPATH=src python tests/golden_decisions.py

Regenerating it changes a check: a change that does so names the decision
that moved and why.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from sfqctrl import trustregion
from sfqctrl.driver import ExperimentSpec, gate_target, run_sweep
from sfqctrl.model import SystemConfig, precompute_propagators
from sfqctrl.trustregion import ObjectiveEvaluator, multi_restart

GOLDEN_PATH = Path(__file__).parent / "golden" / "decisions.json"

SEED = 1234
PULSES = 1600
RESTARTS = 10
TIP_ANGLES = {"300": np.pi / 300, "100": np.pi / 100}
GATES = ("H", "X")
# Criterion 7: (gate, tip angle, duration bound in ns, (p_min, p_max)) --
# coarse stride-80 neighborhoods ending at each bound.
DURATION_CASES = (
    ("H", "300", 34.0, (1280, 1360)),
    ("H", "100", 14.0, (480, 560)),
    ("X", "300", 30.0, (1120, 1200)),
    ("X", "100", 12.0, (400, 480)),
)
J_REL_TOL = 1.0e-9


def build_systems() -> dict:
    """(config, propagators) per tip angle at the default transmon settings."""
    out = {}
    for name, theta in TIP_ANGLES.items():
        cfg = SystemConfig(theta=theta)
        out[name] = (cfg, precompute_propagators(cfg))
    return out


def run_protocols(systems: dict) -> tuple[dict, dict]:
    """Multi-restart result per (gate, tip angle) at T = 40 ns, and every restart's final word.

    The words are recorded by wrapping trustregion.optimize, which
    multi_restart calls once per restart, for the duration of the runs.
    """
    runs: dict = {}
    words: dict = {}
    optimize = trustregion.optimize
    current: list[str] = []

    def recording(*args, **kwargs):
        alpha, trace = optimize(*args, **kwargs)
        current.append(alpha.to_string())
        return alpha, trace

    trustregion.optimize = recording
    try:
        for gate in GATES:
            for name in TIP_ANGLES:
                cfg, props = systems[name]
                current = words[(gate, name)] = []
                evaluator = ObjectiveEvaluator(props, gate_target(gate, cfg.n_levels), cfg)
                runs[(gate, name)] = (cfg, props, multi_restart(RESTARTS, SEED, PULSES, evaluator))
    finally:
        trustregion.optimize = optimize
    return runs, words


def run_duration_sweeps(systems: dict, out_dir: Path) -> dict:
    """sweep.csv rows (p, T_ns, best_J1, best_J2, best_J) per criterion-7 case."""
    rows = {}
    for gate, name, _, (p_min, p_max) in DURATION_CASES:
        cfg, props = systems[name]
        spec = ExperimentSpec(
            system=cfg,
            gate=gate,
            p=p_max,
            n_restarts=RESTARTS,
            seed=SEED,
            output_dir=out_dir / f"{gate}{name}",
            sweep=(p_min, p_max, 80),
        )
        rows[(gate, name)] = run_sweep(spec, props=props)[1]
    return rows


def _digest(word: str) -> str:
    return hashlib.sha256(word.encode()).hexdigest()[:16]


def decisions(runs: dict, words: dict, sweeps: dict) -> dict:
    """The JSON-ready record of every decision; keys named '*j' hold objective values."""
    protocols = {}
    for (gate, name), (_, _, res) in runs.items():
        protocols[f"{gate}@pi/{name}"] = {
            "restarts": [
                {
                    "iterations": s.iterations,
                    "accepted": s.accepted,
                    "terminal_reason": s.terminal_reason.value,
                    "barcode_sha256": _digest(word),
                    "j": s.objective,
                }
                for s, word in zip(res.summaries, words[(gate, name)], strict=True)
            ],
            "best_restart": res.best_index,
            "best_trace": [[int(r.accepted), r.hamming_step] for r in res.best_trace.records],
        }
    sweep = {
        f"{gate}@pi/{name}": [{"p": row[0], "best_j": row[4]} for row in rows]
        for (gate, name), rows in sweeps.items()
    }
    return {"protocols": protocols, "sweep": sweep}


def mismatches(got, want, path: str = "") -> list[str]:
    """Where got differs from want: floats beyond J_REL_TOL relative, anything else at all."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{path}/{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        ok = math.isclose(got, want, rel_tol=J_REL_TOL, abs_tol=0.0)
        return [] if ok else [f"{path}: {got!r} != {want!r} (rel tol {J_REL_TOL:g})"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def main() -> None:
    systems = build_systems()
    runs, words = run_protocols(systems)
    with tempfile.TemporaryDirectory() as tmp:
        sweeps = run_duration_sweeps(systems, Path(tmp))
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(decisions(runs, words, sweeps), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
