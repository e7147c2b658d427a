#!/usr/bin/env python3
"""Benchmark of the jcm-entropy CLI and library, end to end and per layer.

Run from the repository root (numpy and scipy must be importable; the
package is taken from ``src/``, it need not be installed):

    python3 perfbench/run.py --workload paper-fig --seed 1 --seconds 36 --trace 0

``--trace 0`` measures, in interleaved rounds for ``--seconds`` seconds:

* ``wall_s``       CLI process (``python -m jcm_entropy.cli``) wall time from
                   spawn until it has exited with its output file written;
* ``setup_s``      wall time of a process that only imports ``jcm_entropy.cli``
                   (byte-code cache warm), which every CLI run pays first;
* ``points_per_s`` grid points per second of ``run_sweep`` plus ``emit`` to a
                   file, in this process after a warm-up (import excluded);
* ``peak_rss_mb``  peak resident memory of the CLI process, from ``os.wait4``.

Each is the median over the run's samples.  ``points_per_s`` is scaled to
a fixed host speed by a probe that runs in its own process (see
:func:`measure`); the others are as measured.  The unscaled figures are
printed above the result, on a ``raw:`` line.  ``--trace 1`` instead wraps
the library's layers with :class:`spans.Tracer`, times imports with
``-X importtime`` and reports per-layer self times and counts, unscaled.
Every output produced is checked by :func:`check.check_output`; a failed
check or a nonzero exit counts in ``failed``.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import traceback
import types
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median, quantiles
from time import perf_counter

import check
from spans import Tracer, import_self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
KERNEL = Path(__file__).with_name("kernel.py")
# Seconds the host-speed probe takes on a 2-core 2.1 GHz host: the speed
# that points_per_s is scaled to.
KERNEL_REF_S = 0.1
MIN_ROUNDS = 3
# The traced sweep, less its calls times a traced no-op's extra cost, must
# match the untraced sweep of the same round to this share, as a median over
# the run's rounds.  On a 2-core host the host's drift alone puts the
# quartiles of the per-round shares at about -8% and +12%, their median
# within 4%.
ACCOUNTING_TOL = 0.2
# Layers each traced sweep must call, and those only the oracle calls.
LAYERS = {
    "dynamics": ("coherent_amplitudes", "reduced_density", "bloch_vector"),
    "entropies": ("entropy_record", "wehrl_entropy_series",
                  "wehrl_entropy_closed", "von_neumann_entropy"),
    "husimi": ("SphereQuadrature", "wehrl_entropy_quadrature"),
    "sweep": ("run_sweep", "emit"),
}


@dataclass(frozen=True)
class Workload:
    alpha_mag: float
    t_start: float
    t_end: float
    t_steps: int
    with_oracle: bool
    format: str


# Why each workload exists is recorded in BENCHMARK.json.  The grids are
# sized so that one CLI run lasts about 1.3 s on a 2-core host: the host's
# speed drifts over seconds, so many short samples give steadier medians
# than a few long ones.
WORKLOADS = {
    "paper-fig": Workload(7.0, 0.0, 30.0, 4000, False, "csv"),
    "collapse-a30": Workload(30.0, 3.0, 33.0, 4000, False, "csv"),
    "oracle-json": Workload(7.0, 0.0, 30.0, 2000, True, "structured"),
}


def make_spec(name: str, seed: int) -> dict:
    """The workload's concrete inputs: the seed draws the field phase and a
    sub-step offset of the time grid.  The entropies depend only on eta,
    which neither changes, so the workload keeps its character."""
    w = WORKLOADS[name]
    rng = random.Random(seed)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    offset = rng.random() * (w.t_end - w.t_start) / (w.t_steps - 1)
    return {"workload": name, "seed": seed, "alpha_mag": w.alpha_mag,
            "alpha_phase": phase, "t_start": w.t_start + offset,
            "t_end": w.t_end + offset, "t_steps": w.t_steps,
            "with_oracle": w.with_oracle, "format": w.format}


class Bench:
    """One benchmark run: spawns and times processes, checks every output."""

    def __init__(self, spec: dict, work: Path, modules: dict):
        self.spec = spec
        self.work = work
        self.modules = modules
        self.out_path = work / ("sweep.csv" if spec["format"] == "csv" else "sweep.json")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:3])

    def spawn(self, args: list[str]) -> tuple[float, os.struct_rusage, int, str]:
        """Run ``python args``; return wall time, its own rusage, exit code, stderr."""
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage, proc.returncode, err_path.read_text(errors="replace")

    def check_file(self) -> tuple[list[str], dict, str]:
        """Check the output file and remove it; return problems, columns, text."""
        try:
            text = self.out_path.read_text(encoding="utf-8")
        except OSError as exc:
            return [f"cannot read output: {exc}"], {}, ""
        finally:
            self.out_path.unlink(missing_ok=True)
        return (*check.check_output(text, self.spec), text)

    def cli(self) -> tuple[float, os.struct_rusage, str]:
        s = self.spec
        args = ["-m", "jcm_entropy.cli", "--alpha-mag", repr(s["alpha_mag"]),
                "--alpha-phase", repr(s["alpha_phase"]),
                "--t-start", repr(s["t_start"]), "--t-end", repr(s["t_end"]),
                "--t-steps", str(s["t_steps"]), "--format", s["format"],
                "--output", str(self.out_path)]
        if s["with_oracle"]:
            args.append("--with-oracle")
        wall, usage, code, stderr = self.spawn(args)
        problems = [f"exit code {code}: {stderr.strip()[-300:]}"] if code else []
        more, _, text = self.check_file()
        self.record("cli", problems + more)
        return wall, usage, text

    def setup(self) -> float:
        wall, _, code, stderr = self.spawn(["-c", "import jcm_entropy.cli"])
        self.record("setup", [f"exit code {code}: {stderr.strip()[-300:]}"] if code else [])
        return wall

    def import_times(self) -> dict[str, float]:
        _, _, code, stderr = self.spawn(["-X", "importtime", "-c", "import jcm_entropy.cli"])
        self.record("importtime", [f"exit code {code}"] if code else [])
        return import_self_times(stderr)

    def in_process(self) -> tuple[float, dict]:
        """Time run_sweep + emit to a file in this process; check the file."""
        dynamics, sweep = self.modules["dynamics"], self.modules["sweep"]
        s = self.spec
        config = dynamics.SimulationConfig(
            alpha_mag=s["alpha_mag"], alpha_phase=s["alpha_phase"],
            t_start=s["t_start"], t_end=s["t_end"], t_steps=s["t_steps"])
        problems = []
        start = perf_counter()
        try:
            result = sweep.run_sweep(config, with_oracle=s["with_oracle"])
            sweep.emit(result, format=s["format"], path=str(self.out_path))
        except Exception:  # a library failure is a failed run, not a crash
            problems.append(traceback.format_exc(limit=2).strip()[-300:])
        elapsed = perf_counter() - start
        size = self.out_path.stat().st_size if self.out_path.exists() else 0
        more, columns, _ = self.check_file()
        self.record("in-process", problems + more)
        return elapsed, {"bytes": size, "columns": columns}


def rounds(seconds: float):
    """Count rounds until the next one would end past ``seconds`` from now."""
    deadline = perf_counter() + seconds
    n, last = 0, 0.0
    while n < MIN_ROUNDS or perf_counter() + last < deadline:
        start = perf_counter()
        yield n
        n += 1
        last = perf_counter() - start


class HostProbe:
    """The host-speed kernel of ``kernel.py``, in a child process of its own,
    so that no state the library leaves in this process can move it."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(KERNEL)], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def time(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host probe exited with code {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def measure(bench: Bench, seconds: float) -> dict:
    """Interleaved rounds of CLI run, import-only run and in-process sweep.

    The host's speed drifts by tens of percent over minutes (other tenants
    share its cores), so the three kinds of sample alternate, and the probe
    of :class:`HostProbe` runs before and after each in-process sweep.
    ``points_per_s`` is scaled by ``KERNEL_REF_S`` over the probe's mean
    time, the host's average speed during the run.  Over ten 36-second runs
    per workload on a 2-core host this cut the spread (IQR over median) of
    points_per_s from 7.5-14% to 2.6-7.7%.
    ``wall_s`` and ``setup_s`` are not scaled, because about half of a CLI
    run is import, and import time does not follow the probe.
    """
    walls, setups, sweeps, kernels, rss = [], [], [], [], []
    probe = HostProbe()
    try:
        probe.time()  # warm-up
        for _ in rounds(seconds):
            wall, usage, _ = bench.cli()
            walls.append(wall)
            rss.append(usage.ru_maxrss / 1024.0)
            setups.append(bench.setup())
            kernels.append(probe.time())
            sweeps.append(bench.in_process()[0])
            kernels.append(probe.time())
    finally:
        probe.close()
    scale = KERNEL_REF_S / mean(kernels)
    print(f"rounds: {len(walls)}; host probe mean {mean(kernels):.6g} s, "
          f"points_per_s scaled by {scale:.6g}")
    for name, values in (("wall_s", walls), ("setup_s", setups), ("sweep_s", sweeps),
                         ("kernel_s", kernels), ("peak_rss_mb", rss)):
        q = quantiles(values, n=4)
        print(f"  {name:<12} median {q[1]:.6g}  quartiles {q[0]:.6g} .. {q[2]:.6g}"
              f"  min {min(values):.6g}  max {max(values):.6g}")
    points = bench.spec["t_steps"] / median(sweeps)
    print("raw: " + json.dumps({"points_per_s": points, "kernel_s": mean(kernels),
                                "scale": scale}))
    return {
        "wall_s": {"value": median(walls), "unit": "s"},
        "setup_s": {"value": median(setups), "unit": "s"},
        "points_per_s": {"value": points / scale, "unit": "1/s"},
        "peak_rss_mb": {"value": median(rss), "unit": "MB"},
    }


def _count_n_max(counts, args, result):
    counts["dynamics.n_max"] = max(counts["dynamics.n_max"], getattr(result, "n_max", 0))


def _count_basis(counts, args, result):
    counts["dynamics.basis_terms"] += len(getattr(args[0], "coefficients", ())) if args else 0


def _count_nodes(counts, args, result):
    quad = args[1] if len(args) > 1 else None
    counts["husimi.node_evals"] += (getattr(quad, "theta_order", 0)
                                    * getattr(quad, "phi_order", 0))


COUNTERS = {"dynamics.coherent_amplitudes": _count_n_max,
            "dynamics.reduced_density": _count_basis,
            "husimi.wehrl_entropy_quadrature": _count_nodes}


def install_tracer(tracer: Tracer, modules: dict) -> None:
    """Wrap the layers that ``sweep.run_sweep`` looks up at call time."""
    for module_name, attrs in LAYERS.items():
        for attr in attrs:
            name = f"{module_name}.{attr}"
            tracer.install(modules[module_name], attr, name, COUNTERS.get(name))


def missing_layers(spans: dict, with_oracle: bool) -> list[str]:
    """Layers a traced sweep should have called but did not, or the reverse.

    A layer that the sweep bypasses would otherwise read as zero time, its
    time absorbed by its caller's self time.
    """
    problems = []
    for module_name, attrs in LAYERS.items():
        for attr in attrs:
            name = f"{module_name}.{attr}"
            called = spans.get(name, {}).get("calls", 0) > 0
            if called != (with_oracle or module_name != "husimi"):
                problems.append(f"{name} {'called' if called else 'not called'}")
    return problems


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds that tracing adds to one call, from a traced no-op."""
    def noop(*args):
        return None

    host = types.SimpleNamespace(noop=noop)
    tracer = Tracer()
    start = perf_counter()
    for _ in range(calls):
        host.noop(host)
    plain = perf_counter() - start
    tracer.install(host, "noop", "noop")
    start = perf_counter()
    for _ in range(calls):
        host.noop(host)
    traced = perf_counter() - start
    tracer.restore()
    return (traced - plain) / calls


def trace(bench: Bench, seconds: float) -> dict:
    """Per-layer self times and counts from traced in-process sweeps."""
    samples: dict[str, list[float]] = {}
    untraced, traced, residuals = [], [], []
    tracer = Tracer()

    def traced_sweep():
        tracer.reset()
        install_tracer(tracer, bench.modules)
        try:
            return bench.in_process()
        finally:
            tracer.restore()

    for n in rounds(seconds):
        imports = bench.import_times()
        _, usage, _ = bench.cli()
        # alternate which sweep goes first, so that an order effect cancels
        if n % 2:
            elapsed, out = traced_sweep()
            untraced.append(bench.in_process()[0])
        else:
            untraced.append(bench.in_process()[0])
            elapsed, out = traced_sweep()
        traced.append(elapsed)
        spans = tracer.summary()
        missing = missing_layers(spans, bench.spec["with_oracle"])
        if missing:
            sys.exit("perfbench: traced sweep: " + "; ".join(missing))
        self_sum = sum(v["self_s"] for v in spans.values())
        calls = sum(v["calls"] for v in spans.values())
        residuals.append((self_sum - calls * wrapper_cost() - untraced[-1]) / untraced[-1])

        def self_s(name):
            return spans.get(name, {}).get("self_s", 0.0)

        def calls(name):
            return spans.get(name, {}).get("calls", 0)

        eta = out["columns"].get("eta")
        row = {
            "setup.import_scipy_s": imports.get("scipy", 0.0),
            "setup.import_numpy_s": imports.get("numpy", 0.0),
            "setup.import_jcm_entropy_self_s": imports.get("jcm_entropy", 0.0),
            "dynamics.coherent_amplitudes.s": self_s("dynamics.coherent_amplitudes"),
            "dynamics.n_max": tracer.counts["dynamics.n_max"],
            "dynamics.reduced_density.s": self_s("dynamics.reduced_density"),
            "dynamics.reduced_density.calls": calls("dynamics.reduced_density"),
            "dynamics.bloch_vector.s": self_s("dynamics.bloch_vector"),
            "dynamics.basis_terms": tracer.counts["dynamics.basis_terms"],
            "entropies.entropy_record.self_s": self_s("entropies.entropy_record"),
            "entropies.entropy_record.calls": calls("entropies.entropy_record"),
            "entropies.wehrl_entropy_series.s": self_s("entropies.wehrl_entropy_series"),
            "entropies.wehrl_entropy_closed.s": self_s("entropies.wehrl_entropy_closed"),
            "entropies.von_neumann_entropy.s": self_s("entropies.von_neumann_entropy"),
            "entropies.high_eta_frac": (float((eta > 0.9).mean())
                                        if eta is not None else 0.0),
            "husimi.SphereQuadrature.s": self_s("husimi.SphereQuadrature"),
            "husimi.wehrl_entropy_quadrature.s": self_s("husimi.wehrl_entropy_quadrature"),
            "husimi.wehrl_entropy_quadrature.calls": calls("husimi.wehrl_entropy_quadrature"),
            "husimi.node_evals": tracer.counts["husimi.node_evals"],
            "sweep.run_sweep.self_s": self_s("sweep.run_sweep"),
            "sweep.emit.s": self_s("sweep.emit"),
            "sweep.output_bytes": out["bytes"],
            "process.cpu_s": usage.ru_utime + usage.ru_stime,
        }
        for key, value in row.items():
            samples.setdefault(key, []).append(value)
    # paired per round, so that drift of the host's speed cancels
    overhead = median(t - u for t, u in zip(traced, untraced))
    low, residual, high = quantiles(residuals, n=4)
    print(f"rounds: {len(traced)}; traced sweep {median(traced):.6g} s, untraced "
          f"{median(untraced):.6g} s; self times less traced-call cost miss the "
          f"untraced sweep by {100 * residual:+.2f}% (median; quartiles "
          f"{100 * low:+.2f}% .. {100 * high:+.2f}%)")
    if not abs(residual) <= ACCOUNTING_TOL:
        sys.exit(f"perfbench: span self times less tracing cost miss the untraced "
                 f"sweep by {100 * residual:+.1f}%, more than {100 * ACCOUNTING_TOL:g}%")
    metrics = {}
    for key, values in samples.items():
        unit = ("s" if key.endswith("_s") or key.endswith(".s")
                else "ratio" if key.endswith("_frac")
                else "bytes" if key.endswith("_bytes") else "count")
        metrics[key] = {"value": median(values), "unit": unit}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "jcm_entropy" / "cli.py").is_file():
        print(f"perfbench: no jcm_entropy package under {SRC}", file=sys.stderr)
        return 1
    problems = check.verify_reference()
    if problems:
        print("perfbench: " + "; ".join(problems), file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    from jcm_entropy import dynamics, entropies, husimi, sweep
    modules = {"dynamics": dynamics, "entropies": entropies,
               "husimi": husimi, "sweep": sweep}

    spec = make_spec(args.workload, args.seed)
    print("workload: " + json.dumps(spec))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        bench = Bench(spec, work, modules)
        # warm-up: byte-code cache, file cache, lazy numpy set-up
        text = bench.cli()[2]
        bench.in_process()
        if text and not check.check_output(check.corrupt(text, spec), spec)[0]:
            print("perfbench: the checker passed a corrupted output row", file=sys.stderr)
            return 1
        if args.trace:
            metrics = trace(bench, args.seconds)
        else:
            metrics = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for line in bench.problems[:10]:
        print("FAILED " + line)
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
