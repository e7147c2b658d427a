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
    # an option left out is left out of the namespace too, so that every
    # sweep default is the one SimulationConfig declares
    p = argparse.ArgumentParser(
        prog="jcm-entropy",
        description="Sweep the resonant Jaynes-Cummings entanglement entropies "
                    "over scaled time and emit them as CSV or JSON.",
        argument_default=argparse.SUPPRESS)
    p.add_argument("--alpha-mag", type=float, required=True,
                   help="coherent amplitude |alpha| (required)")
    p.add_argument("--alpha-phase", type=float,
                   help="coherent phase in radians (default 0)")
    p.add_argument("--t-start", type=float)
    p.add_argument("--t-end", type=float)
    p.add_argument("--t-steps", type=int)
    p.add_argument("--fock-tol", type=float, dest="fock_tail_tol", metavar="FOCK_TOL",
                   help="Poisson tail mass allowed beyond Fock truncation")
    p.add_argument("--series-tol", type=float,
                   help="relative term size at which series are truncated")
    p.add_argument("--quad-theta", type=int, dest="quad_theta_order",
                   metavar="QUAD_THETA",
                   help="Gauss-Legendre order for the oracle quadrature (>= 2)")
    p.add_argument("--quad-phi", type=int, dest="quad_phi_order", metavar="QUAD_PHI",
                   help="azimuthal order for the oracle quadrature (>= 4)")
    p.add_argument("--with-oracle", action="store_true", default=False,
                   help="add the (slow) spherical-quadrature Wehrl column")
    p.add_argument("--format", choices=("csv", "structured"), default="csv")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="output file (default stdout)")
    return p


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    with_oracle, fmt, path = (args.pop(k) for k in ("with_oracle", "format", "output"))
    try:
        config = SimulationConfig(**args)
    except DomainError as exc:
        print(f"jcm-entropy: argument error: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_sweep(config, with_oracle=with_oracle)
        emit(result, format=fmt, path=path)
    except (DomainError, PrecisionLossError, OSError) as exc:
        print(f"jcm-entropy: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
