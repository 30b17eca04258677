"""Command-line interface.

Subcommands: optimize, sweep, grad-check, simulate (forward run of a stored
barcode), target-print.  Exit codes: 0 success, 1 config error, 2 numerical
or I/O failure, 3 threshold failure in check modes.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import driver
from .errors import IntegratorDivergence, NonFiniteObjective, NonUnitaryTarget, ParseError, ValidationError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_CHECK_FAILED = 3

# Flags that set a config key; each destination is the key's name, and a set
# flag overrides the config file's value before the spec is validated.
_FLAG_KEYS = ("seed", "n_restarts", "gate", "p", "theta_over_pi")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfqctrl",
        description="Synthesize binary SFQ pulse sequences realizing single-qubit gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, help="key = value config file")
        p.add_argument("--seed", type=int, help="random seed for initial guesses")
        p.add_argument("--restarts", dest="n_restarts", type=int, help="number of random restarts")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument("--gate", help="gate name (H, X, Y, Z, Identity) or matrix file")
        p.add_argument("--p", type=int, help="number of SFQ steps")
        p.add_argument("--theta-over-pi", type=float, help="tip angle divided by pi")

    p_opt = sub.add_parser("optimize", help="optimize a pulse sequence for one gate")
    add_common(p_opt)

    p_sweep = sub.add_parser("sweep", help="optimize across a grid of gate durations")
    add_common(p_sweep)
    p_sweep.add_argument("--p-min", type=int, default=8, help="smallest pulse count")
    p_sweep.add_argument("--p-max", type=int, help="largest pulse count (default: p)")
    p_sweep.add_argument("--p-stride", type=int, default=8, help="grid stride")

    p_check = sub.add_parser("grad-check", help="verify the adjoint gradient against finite differences")
    add_common(p_check)
    p_check.add_argument("--p-check", type=int, default=16, help="sequence length for the check")
    p_check.add_argument("--h", type=float, default=1.0e-5, help="finite-difference step")

    p_sim = sub.add_parser("simulate", help="forward-propagate a stored barcode file")
    add_common(p_sim)
    p_sim.add_argument("barcode", type=Path, help="file holding one line over {0,1}")

    p_tgt = sub.add_parser("target-print", help="print the target unitary for a gate")
    add_common(p_tgt)

    return parser


def _spec_from_args(args) -> driver.ExperimentSpec:
    values = driver.parse_config_text(args.config.read_text()) if args.config else {}
    values.update((key, getattr(args, key)) for key in _FLAG_KEYS if getattr(args, key) is not None)
    return driver.spec_from_values(values, output_dir=args.out)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)

        if args.command == "optimize":
            res = driver.run_optimize(spec)
            print(res.files["summary"].read_text().strip())
            return EXIT_OK

        if args.command == "sweep":
            p_max = args.p_max if args.p_max is not None else spec.p
            spec = replace(spec, sweep=(args.p_min, p_max, args.p_stride))
            path, rows = driver.run_sweep(spec)
            print(f"wrote {len(rows)} sweep points to {path}")
            return EXIT_OK

        if args.command == "grad-check":
            report = driver.run_grad_check(spec, p_check=args.p_check, step=args.h)
            for k, rel in enumerate(report.rel_errors):
                print(f"coord {k:3d}  rel_error {rel:.3e}")
            print(f"max relative error: {report.max_rel_error:.3e} (h = {report.step:g})")
            if not report.passed:
                print("gradient check FAILED", file=sys.stderr)
                return EXIT_CHECK_FAILED
            print("gradient check passed")
            return EXIT_OK

        if args.command == "simulate":
            res = driver.run_simulate(spec, args.barcode)
            print(res.files["summary"].read_text().strip())
            return EXIT_OK

        if args.command == "target-print":
            target = driver.gate_target(spec.gate, spec.system.n_levels)
            print(f"gate {spec.gate}:")
            for row in target.v_essential:
                print("  " + "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row))
            return EXIT_OK

        raise AssertionError(f"unhandled command {args.command}")

    # A config, matrix or barcode file that is not UTF-8 text fails in read_text.
    except (ParseError, ValidationError, NonUnitaryTarget, FileNotFoundError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegratorDivergence, NonFiniteObjective, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
