"""Diff the CLI output of two source trees, column by column.

    python tools/golden_diff.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository (its ``src/`` is put on
``PYTHONPATH``).  The CLI runs on a fixed list of configurations for both
trees: the benchmark workloads' shapes, |alpha| = 0, 0.3, 3, 30 and 45,
|alpha| = 200 out to 1.1 revival times (a large basis on the spectral route
of ``reduced_density``), |alpha| = 300 out to three revival times on 12000
points (a large basis past a sweep's first run), a one-point grid, a grid
one point longer than a sweep's longest run (two runs, of 2048 and 2049
points, both on the spectral route), a grid starting next to the pure state (as CSV, and as JSON,
whose small ``t`` print in exponent notation), the oracle column as CSV and
JSON, and |alpha| = 30 at ``--fock-tol 1e-40``, the one config whose Fock
window the tail bound widens past the ``10|alpha| + 20`` floor (every other
runs at the default 1e-12, where the floor decides), and |alpha| = 1e-150
from a negative integral ``t`` as CSV and JSON, whose text takes layouts no
other config reaches: three exponent digits (``sy`` about 1.7e-150), ``-0``
and ``-0.0``, and ``-2`` and ``-2.0``, and ``negative-start-runs``,
|alpha| = 30 on [-1, 1] at 20000 points, five runs whose middle one, next
to T = 0, is cut from a grid rounded at the scale of its ends, not its
own, and is an ``np.linspace`` of its own ends and spectral like the rest.
Three configs exit 1, so that their exit codes and error text are
compared: ``term-cap``, a series
tolerance that the eta = 1 row cannot meet; ``phase-limit``, Rabi phases
past 2**53; and ``series-index``, |alpha| = 7 on 2000 points at
``--series-tol 6e-16``, whose first failing point lies inside a spectral
grid, where the message must name the sweep's own T and eta.  For each
column the worst absolute difference and the worst difference in units in
the last place are printed,
with the config and eta where the ulp worst occurs.  An ulp is that of the
column's scale in the config, its largest finite |value| in either tree, so
a value that crosses zero counts by its size.  The worst ulp over the rows
with eta <= 0.99 alone is printed too (above it the Wehrl closed form and
the normalized columns are steep in eta).  A line per config says whether
the two outputs are byte-identical, which the value diff cannot see (a
change of formatting alone reads 0 there); under a config whose values
moved, a line per moved column gives that config's worst absolute
difference, worst ulp and the row of the worst ulp.  The exit status is 1
when the runs differ in header, row count, exit code or error text, and 0
otherwise, whatever the values and bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ETA_SPLIT = 0.99

CONFIGS = {
    "paper-fig": ["--alpha-mag", "7", "--t-end", "30", "--t-steps", "4000"],
    "collapse-a30": ["--alpha-mag", "30", "--t-start", "3", "--t-end", "33",
                     "--t-steps", "4000"],
    "oracle-json": ["--alpha-mag", "7", "--t-end", "30", "--t-steps", "2000",
                    "--with-oracle", "--format", "structured"],
    "alpha-0": ["--alpha-mag", "0", "--t-end", "30", "--t-steps", "500"],
    "alpha-0.3": ["--alpha-mag", "0.3", "--alpha-phase", "1.1", "--t-end", "30",
                  "--t-steps", "1000"],
    "alpha-3": ["--alpha-mag", "3", "--alpha-phase", "-0.7", "--t-end", "50",
                "--t-steps", "2000"],
    "alpha-30": ["--alpha-mag", "30", "--alpha-phase", "2", "--t-end", "200",
                 "--t-steps", "2000"],
    "alpha-45": ["--alpha-mag", "45", "--t-end", "300", "--t-steps", "1000"],
    "alpha-200": ["--alpha-mag", "200", "--t-end", repr(1.1 * 2 * math.pi * 200),
                  "--t-steps", "20000"],
    "revivals-a300": ["--alpha-mag", "300", "--t-end", repr(3 * 2 * math.pi * 300),
                      "--t-steps", "12000"],
    "one-point": ["--alpha-mag", "2", "--t-start", "1.5", "--t-end", "1.5",
                  "--t-steps", "1"],
    "run-boundary": ["--alpha-mag", "30", "--t-end", "60", "--t-steps", "4097"],
    "near-pure": ["--alpha-mag", "7", "--t-start", "5e-5", "--t-end", "0.5",
                  "--t-steps", "500", "--with-oracle"],
    "near-pure-json": ["--alpha-mag", "7", "--t-start", "5e-5", "--t-end", "0.5",
                       "--t-steps", "500", "--with-oracle", "--format", "structured"],
    "oracle-csv": ["--alpha-mag", "3", "--alpha-phase", "0.4", "--t-end", "20",
                   "--t-steps", "300", "--with-oracle"],
    "tiny-fock-tol": ["--alpha-mag", "30", "--fock-tol", "1e-40", "--t-end", "60",
                      "--t-steps", "2000"],
    "layouts": ["--alpha-mag", "1e-150", "--t-start", "-2", "--t-end", "30",
                "--t-steps", "200"],
    "layouts-json": ["--alpha-mag", "1e-150", "--t-start", "-2", "--t-end", "30",
                     "--t-steps", "200", "--format", "structured"],
    "negative-start-runs": ["--alpha-mag", "30", "--t-start", "-1", "--t-end", "1",
                            "--t-steps", "20000"],
    "term-cap": ["--alpha-mag", "2", "--t-steps", "5", "--series-tol", "1e-19"],
    "phase-limit": ["--alpha-mag", "7", "--t-start", "1e300", "--t-end", "1e301",
                    "--t-steps", "3"],
    "series-index": ["--alpha-mag", "7", "--t-start", "2", "--t-end", "30",
                     "--t-steps", "2000", "--series-tol", "6e-16"],
}


def run_cli(tree: Path, args: list[str], out: Path) -> tuple[int, str, bytes]:
    """Exit code, stderr and output bytes of one CLI run on ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "jcm_entropy.cli", *args,
                           "--output", str(out)],
                          env=env, capture_output=True, text=True, check=False)
    output = out.read_bytes() if out.exists() else b""
    return proc.returncode, proc.stderr, output


def byte_check(old: bytes, new: bytes) -> str:
    """Whether two outputs are byte-identical, and if not, where they part."""
    if old == new:
        return "byte-identical"
    old_lines, new_lines = old.split(b"\n"), new.split(b"\n")
    differing = [k for k, pair in enumerate(zip(old_lines, new_lines)) if pair[0] != pair[1]]
    first = differing[0] if differing else min(len(old_lines), len(new_lines))
    return (f"bytes differ: {len(differing)} of {max(len(old_lines), len(new_lines))} "
            f"lines, the first at line {first + 1}, sizes {len(old)} -> {len(new)}")


def parse(text: str, structured: bool) -> tuple[list[str], np.ndarray]:
    """Column names and a (rows, columns) float64 array."""
    if structured:
        payload = json.loads(text)
        return payload["columns"], np.array(payload["rows"], dtype=float)
    lines = text.splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows, dtype=float).reshape(len(rows), -1)


def differences(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Absolute differences of two columns, and in ulps of the columns'
    largest finite |value|; equal values (NaN with NaN) give 0."""
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    magnitude = np.abs(np.concatenate([a, b]))
    scale = np.spacing(magnitude[np.isfinite(magnitude)].max(initial=0.0))
    with np.errstate(invalid="ignore"):
        absolute = np.where(same, 0.0, np.abs(a - b))
    return absolute, absolute / scale


def column_worst(absolute: np.ndarray, ulp: np.ndarray, eta: np.ndarray) -> dict:
    """A column's worst absolute difference, its worst ulp and that ulp's
    row, and its worst ulp over the rows with eta <= ETA_SPLIT."""
    row = int(np.argmax(ulp))
    return {"abs": float(absolute.max()), "ulp": float(ulp[row]), "row": row,
            "low": float(ulp[eta <= ETA_SPLIT].max(initial=0.0))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old_tree", type=Path)
    p.add_argument("new_tree", type=Path)
    args = p.parse_args(argv)

    mismatches = []
    identical = 0
    worst: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as work:
        for name, cli_args in CONFIGS.items():
            runs = [run_cli(tree, cli_args, Path(work) / f"{name}-{side}.out")
                    for side, tree in (("old", args.old_tree), ("new", args.new_tree))]
            (old_code, old_err, old_bytes), (new_code, new_err, new_bytes) = runs
            print(f"{name}: {byte_check(old_bytes, new_bytes)}")
            if old_bytes == new_bytes:
                identical += 1
            if (old_code, old_err) != (new_code, new_err):
                mismatches.append(f"{name}: exit {old_code} -> {new_code}, "
                                  f"stderr {old_err.strip()!r} -> {new_err.strip()!r}")
                continue
            if old_code:
                print(f"{name}: both exit {old_code}")
                continue
            structured = "structured" in cli_args
            old_cols, old = parse(old_bytes.decode(), structured)
            new_cols, new = parse(new_bytes.decode(), structured)
            if old_cols != new_cols or old.shape != new.shape:
                mismatches.append(f"{name}: columns or row count differ")
                continue
            eta = old[:, old_cols.index("eta")]
            for k, column in enumerate(old_cols):
                c = column_worst(*differences(old[:, k], new[:, k]), eta)
                if c["abs"]:  # NaN, where one side alone is NaN, counts as moved
                    print(f"  {column}: worst abs {c['abs']:.3g}, "
                          f"worst ulp {c['ulp']:.4g} at row {c['row']}")
                w = worst.setdefault(column, {"abs": 0.0, "ulp": 0.0, "low": 0.0,
                                              "where": ""})
                w["abs"] = max(w["abs"], c["abs"])
                w["low"] = max(w["low"], c["low"])
                if c["ulp"] > w["ulp"]:
                    w.update(ulp=c["ulp"],
                             where=f"{name}, row {c['row']}, eta {eta[c['row']]:.17g}")

    print(f"\n{'column':<18} {'worst abs':>11} {'worst ulp':>11} {'eta<=0.99':>11}"
          "  where (ulp)")
    for column, w in worst.items():
        print(f"{column:<18} {w['abs']:>11.3g} {w['ulp']:>11.4g} {w['low']:>11.4g}"
              f"  {w['where']}")
    print(f"\nbyte-identical on {identical} of {len(CONFIGS)} configs")
    for line in mismatches:
        print("MISMATCH " + line)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
