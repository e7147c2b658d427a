"""Host-speed probe of the benchmark, run as a process of its own.

It times a fixed piece of the seed's per-point work, built from the frozen
formulas of :mod:`check`, so no change to the library moves it; only the
speed of the host does.  Run as ``python3 perfbench/kernel.py``: each line
read from standard input runs the kernel once and prints its seconds.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np

import check

AMPS = check.fock_amplitudes(7.0, 0.0)
T = np.linspace(0.0, 30.0, 500)


def kernel() -> float:
    start = perf_counter()
    for t in T:
        eta = float(check.bloch(AMPS, t[None])["eta"][0])
        check.wehrl_series(eta)
        check.von_neumann(eta)
    return perf_counter() - start


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(kernel()), flush=True)
