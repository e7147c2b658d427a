"""Command-line driver: one time sweep, delimited output.

Exit codes: 0 success, 2 bad arguments, 1 numerical-domain violation, an
output error or running out of memory.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys

from .dynamics import SimulationConfig
from .errors import DomainError, PrecisionLossError
from .sweep import emit, run_sweep


def _default(name: str) -> str:
    """A help line's note of a sweep default, as SimulationConfig declares it."""
    return f"default {getattr(SimulationConfig, name)!r}"


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
                   help=f"coherent phase in radians ({_default('alpha_phase')})")
    p.add_argument("--t-start", type=float,
                   help=f"first scaled time T of the grid ({_default('t_start')})")
    p.add_argument("--t-end", type=float,
                   help=f"last scaled time T of the grid ({_default('t_end')})")
    p.add_argument("--t-steps", type=int,
                   help=f"number of evenly spaced grid points ({_default('t_steps')})")
    p.add_argument("--fock-tol", type=float, dest="fock_tail_tol", metavar="FOCK_TOL",
                   help="Poisson tail mass allowed beyond Fock truncation "
                        f"({_default('fock_tail_tol')})")
    p.add_argument("--series-tol", type=float,
                   help="relative change at which the series stops refining "
                        f"(>= 2e-15, {_default('series_tol')})")
    p.add_argument("--quad-theta", type=int, dest="quad_theta_order",
                   metavar="QUAD_THETA",
                   help="Gauss-Legendre order for the oracle quadrature "
                        f"(>= 2, {_default('quad_theta_order')})")
    p.add_argument("--quad-phi", type=int, dest="quad_phi_order", metavar="QUAD_PHI",
                   help="azimuthal order for the oracle quadrature "
                        f"(>= 4, {_default('quad_phi_order')})")
    p.add_argument("--with-oracle", action="store_true", default=False,
                   help="add the (slow) spherical-quadrature Wehrl column")
    p.add_argument("--format", choices=("csv", "structured"), default="csv",
                   help="CSV, or JSON with a config echo (default %(default)s)")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="file to write the sweep to, in place of stdout")
    return p


# the start of a negative value in any notation float() reads: argparse
# takes one it has no pattern for (-1e-3, -inf) for an option, not a value
_NEGATIVE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for k in range(len(argv) - 1, 0, -1):  # "--name -1e-3" as "--name=-1e-3"
        if _NEGATIVE.match(argv[k]) and re.fullmatch(r"--[^=]+", argv[k - 1]):
            argv[k - 1:k + 1] = [f"{argv[k - 1]}={argv[k]}"]
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
    except (DomainError, PrecisionLossError, OSError, MemoryError) as exc:
        # a MemoryError raised by Python's own allocator carries no message
        print(f"jcm-entropy: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    # a one-shot run: move what import made out of the collector's reach, so
    # neither the run's collections nor the one at exit walk it again
    gc.freeze()
    try:
        status = main()
    except SystemExit as exc:  # argparse: --help (0) or a usage error (2)
        status = exc.code
    if status == 0 and sys.stdout is not None:
        # --help leaves its text in stdout's buffer; a sweep has flushed it
        try:
            sys.stdout.flush()
        except OSError as exc:
            print(f"jcm-entropy: cannot write to stdout: {exc}", file=sys.stderr)
            status = 1
    if status:
        # a failed write to stdout may leave text in its buffer: point fd 1
        # at the null device, so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    sys.exit(status)


if __name__ == "__main__":
    entry()
