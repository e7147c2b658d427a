#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize every metric.

From the repository root:

    python3 perfbench/report.py --seeds 10 --trace 0 --out results.json
    python3 perfbench/report.py --seeds 10 --compare perfbench/baseline.json

Each seed is one round that runs every workload of ``BENCHMARK.json`` once,
for its ``run_seconds``, in an order rotated from round to round, so that
drift of the host's speed hits all workloads alike.  For each workload and metric it prints the median, the quartiles,
their distance as a share of the median and the sample count, plus the
error rate (failed over attempted runs).  ``--compare`` prints each median's
change against another results file, flagging changes for the worse that
exceed the bound in ``BENCHMARK.json``; it refuses a file measured with
another run length.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).with_name("run.py")


def machine() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    tagged = {tag: json.loads(line.split(":", 1)[1]) for line in lines
              for tag in ("workload", "raw") if line.startswith(tag + ":")}
    return {"workload": workload, "seed": seed, "spec": tagged.get("workload"),
            "raw": tagged.get("raw"), "result": json.loads(lines[-1])}


def summarize(runs: list[dict]) -> dict:
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r["result"] for r in runs if r["workload"] == workload]
        attempted = sum(r["attempted"] for r in mine)
        failed = sum(r["failed"] for r in mine)
        rows = {"error_rate": {"median": failed / attempted, "unit": "ratio",
                               "n": attempted}}
        for name, first in mine[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in mine]
            q1, q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                          else values * 3)
            rows[name] = {"median": q2, "q1": q1, "q3": q3,
                          "iqr_share": (q3 - q1) / abs(q2) if q2 else 0.0,
                          "n": len(values), "unit": first["unit"], "values": values}
        out[workload] = rows
    return out


def print_summary(summary: dict) -> None:
    for workload, rows in summary.items():
        print(f"\n{workload}")
        for name, s in rows.items():
            if name == "error_rate":
                print(f"  {name:<40} {s['median']:.4g} {s['unit']:<6} "
                      f"({s['n']} outputs checked)")
            else:
                print(f"  {name:<40} {s['median']:.6g} {s['unit']:<6} quartiles "
                      f"{s['q1']:.6g} .. {s['q3']:.6g}  spread "
                      f"{100 * s['iqr_share']:.1f}%  n={s['n']}")


def compare(summary: dict, base: dict, bench: dict) -> int:
    """Print median changes against ``base``; count those beyond the bound."""
    meta = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    worse = 0
    print("\nchange of median against the compared file (+ is better)")
    for workload, rows in summary.items():
        for name, s in rows.items():
            old = base.get(workload, {}).get(name)
            if name not in meta or not old or not old["median"]:
                continue
            sign = 1.0 if meta[name]["better"] == "higher" else -1.0
            gain = sign * (s["median"] - old["median"]) / abs(old["median"])
            bound = meta[name].get("bound")
            flag = ""
            if bound is not None and -gain > bound:
                flag = f"  WORSE than bound {bound:g}"
                worse += 1
            print(f"  {workload:<14} {name:<40} {100 * gain:+7.2f}%{flag}")
    return worse


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0])
    p.add_argument("--out", type=Path, help="write machine info, runs and summary here")
    p.add_argument("--compare", type=Path, help="results file to compare against")
    args = p.parse_args(argv)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    base_file = json.loads(args.compare.read_text()) if args.compare else None
    if base_file is not None and base_file.get("seconds") != seconds:
        raise SystemExit(f"{args.compare} was measured with runs of "
                         f"{base_file.get('seconds')} s, BENCHMARK.json sets {seconds} s")

    report = {"machine": machine(), "seconds": seconds}
    worse = 0
    for trace in args.trace:
        runs = []
        for i, seed in enumerate(range(args.first_seed, args.first_seed + args.seeds)):
            k = i % len(workloads)
            for workload in workloads[k:] + workloads[:k]:
                runs.append(run_once(workload, seed, seconds, trace))
                print(f"trace {trace} seed {seed} {workload}: "
                      f"correct={runs[-1]['result']['correct']}", file=sys.stderr)
        summary = summarize(runs)
        print(f"\n== trace {trace}, {args.seeds} seeds from {args.first_seed}, "
              f"{seconds} s per run ==")
        print_summary(summary)
        report[f"trace{trace}"] = {"runs": runs, "summary": summary}
        if base_file is not None:
            base = base_file.get(f"trace{trace}", {})
            worse += compare(summary, base.get("summary", {}), bench)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
