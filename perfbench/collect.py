"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/collect.py --runs 10 [--workloads a,b] [--first-seed 1]
                                 [--trace] [--out FILE]

For each workload, runs `run.py` once per seed (seeds first-seed,
first-seed+1, ...) with the `run_seconds` of BENCHMARK.json, then reports for
every metric the median, the quartiles and their distance as a share of the
median, next to the metric's bound.  With `--out`, writes the summary and the
machine details (nproc, CPU model, Python, numpy, git commit, thread setting)
as JSON.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

from harness import quartiles

ROOT = Path(__file__).resolve().parent.parent


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _numpy_version():
    try:
        return version("numpy")
    except PackageNotFoundError:
        return None


def summarize(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    trace = int(args.trace)
    metrics = spec["per_layer" if trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    summary = {}
    for workload in args.workloads.split(","):
        values, outcomes = {}, []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            outcomes.append({k: result[k] for k in
                             ("correct", "attempted", "failed")} | {"seed": seed})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary[workload] = {"runs": outcomes, "metrics": {
            name: summarize(v) for name, v in values.items()}}
        print(f"{workload}: correct {all(o['correct'] for o in outcomes)}, "
              f"failed {[o['failed'] for o in outcomes]}")
        for name, s in summary[workload]["metrics"].items():
            bound = bounds.get(name)
            print(f"  {name:50s} median {s['median']:.6g}  "
                  f"iqr/median {s['spread']:.3f}"
                  + (f"  bound {bound}" if bound is not None else ""))
    if args.out:
        record = {
            "machine": {"nproc": os.cpu_count(), "cpu": _cpu_model(),
                        "python": platform.python_version(),
                        "numpy": _numpy_version(), "commit": _git_commit(),
                        "threads": 1},
            "run_seconds": spec["run_seconds"], "trace": trace,
            "workloads": summary,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
