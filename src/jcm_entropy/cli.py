"""Command-line driver: one time sweep, delimited output.

Exit codes: 0 success, 2 bad arguments, 1 numerical-domain violation.
"""

from __future__ import annotations

import argparse
import sys

from .dynamics import SimulationConfig
from .errors import DomainError, PrecisionLossError
from .sweep import emit, run_sweep


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="jcm-entropy",
        description="Sweep the resonant Jaynes-Cummings entanglement entropies "
                    "over scaled time and emit them as CSV or JSON.")
    p.add_argument("--alpha-mag", type=float, required=True,
                   help="coherent amplitude |alpha| (required)")
    p.add_argument("--alpha-phase", type=float, default=0.0,
                   help="coherent phase in radians (default 0)")
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--t-end", type=float, default=30.0)
    p.add_argument("--t-steps", type=int, default=3000)
    p.add_argument("--fock-tol", type=float, default=1e-12,
                   help="Poisson tail mass allowed beyond Fock truncation")
    p.add_argument("--series-tol", type=float, default=1e-14,
                   help="relative term size at which series are truncated")
    p.add_argument("--quad-theta", type=int, default=64,
                   help="Gauss-Legendre order for the oracle quadrature (>= 2)")
    p.add_argument("--quad-phi", type=int, default=128,
                   help="azimuthal order for the oracle quadrature (>= 4)")
    p.add_argument("--with-oracle", action="store_true",
                   help="add the (slow) spherical-quadrature Wehrl column")
    p.add_argument("--format", choices=("csv", "structured"), default="csv")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="output file (default stdout)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = SimulationConfig(
            alpha_mag=args.alpha_mag, alpha_phase=args.alpha_phase,
            t_start=args.t_start, t_end=args.t_end, t_steps=args.t_steps,
            fock_tail_tol=args.fock_tol, series_tol=args.series_tol,
            quad_theta_order=args.quad_theta, quad_phi_order=args.quad_phi)
    except DomainError as exc:
        print(f"jcm-entropy: argument error: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_sweep(config, with_oracle=args.with_oracle)
        emit(result, format=args.format, path=args.output)
    except (DomainError, PrecisionLossError, OSError) as exc:
        print(f"jcm-entropy: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
