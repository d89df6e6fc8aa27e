"""Benchmark for the census and oracle engines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: the package is imported from its `src/`.  One process,
one client, closed loop: each pass runs the workload's job list in a seeded
order and checks every result against its reference.  With `--trace 0` the
passes run untraced and the end-to-end metrics are printed; with `--trace 1`
half the time runs untraced and half traced, and the per-layer metrics are
printed.  Times in the end-to-end metrics are scaled to a fixed machine
speed, read from a reference loop timed around the work (harness.py).  The
last line of standard output is one JSON object.  What each workload and
metric is for is in README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import types
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from harness import (SpeedProbe, at_reference_speed, percentile, quartiles,
                     run_job, tally)
from spans import Recorder, self_times
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "MASSEY_CENSUS_THREADS")
# set-ups per run; setup_s is their median
SETUPS = 5

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "oracle.count_epi_bruteforce.calls": "count",
    "oracle.count_epi_bruteforce.busy_s": "s",
    "oracle.count_epi_bruteforce.assignments": "count",
    "oracle.count_epi_bruteforce.assignments_per_s": "1/s",
    "oracle.count_epi_bruteforce.yield": "ratio",
    "oracle.count_lifts_bruteforce.calls": "count",
    "oracle.count_lifts_bruteforce.busy_s": "s",
    "oracle.count_lifts_bruteforce.call_ms.p50": "ms",
    "oracle.count_lifts_bruteforce.assignments_per_s": "1/s",
    "oracle.massey_system_exists.calls": "count",
    "oracle.massey_system_exists.busy_s": "s",
    "oracle.cup_defining_check.busy_s": "s",
    "oracle.cup_defining_check.tuples": "count",
    "census.tmp_enumerate.calls": "count",
    "census.tmp_enumerate.busy_s": "s",
    "census.tmp_enumerate.triples": "count",
    "census.tmp_enumerate.z_candidates": "count",
    "census.tmp_enumerate.z_candidates_per_s": "1/s",
    "census.tmp_enumerate.yield": "ratio",
    "census.epi_count.tmp_sum.busy_s": "s",
    "census.cp_count.enumerate.busy_s": "s",
    "census.closed.busy_s": "s",
    "words.presentation.busy_s": "s",
    "verify.rows_s": "s",
    "cli.calls": "count",
    "cli.overhead_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "pass_wall_s": "s",
    "ref_loop_ms": "ms",
    "call_ms.p50": "ms",
    "call_ms.p90": "ms",
    "call_ms.samples": "count",
    "failed_ratio": "ratio",
}


def _by_method(prefix, position, default):
    def name_of(args, kwargs):
        method = kwargs.get("method",
                            args[position] if len(args) > position else default)
        method = method.replace("-", "_")
        if method in ("formula", "closed"):
            return "census.closed"
        return f"{prefix}.{method}"
    return name_of


# Span name for each public function the workloads reach in this process.
SPAN_NAMES = {
    "oracle": {fn: f"oracle.{fn}" for fn in (
        "count_epi_bruteforce", "count_lifts_bruteforce",
        "massey_system_exists", "cup_defining_check")},
    "census": {
        "tmp_enumerate": "census.tmp_enumerate",
        "tmp_enumerate_forms": "census.tmp_enumerate_forms",
        "epi_count": _by_method("census.epi_count", 3, "formula"),
        "nu_extensions": "census.nu_extensions",
        "cp_count": _by_method("census.cp_count", 2, "closed"),
        "tmp_closed": "census.closed",
        "z1_closed": "census.closed",
        "nu_local_closed": "census.closed",
        "un_quotient_decision": "census.closed",
        "model_presentation": "words.presentation",
        "local_field_model": "census.model",
        "preset_model": "census.model",
    },
    "words": {fn: "words.presentation" for fn in (
        "demushkin_presentation", "free_presentation", "free_product",
        "ramified_presentation", "preset", "preset_tensor")},
}


def fresh_import():
    """Import the package anew, so each set-up pays import and starts with
    empty caches (numpy stays loaded after the first)."""
    for name in [m for m in sys.modules
                 if m == "massey_census" or m.startswith("massey_census.")]:
        del sys.modules[name]
    pkg = importlib.import_module("massey_census")
    return types.SimpleNamespace(census=pkg.census, oracle=pkg.oracle,
                                 words=pkg.words, fp=pkg.fp)


def setup(workload, seed, rec=None):
    mc = fresh_import()
    if rec is not None:
        for module, names in SPAN_NAMES.items():
            rec.instrument(getattr(mc, module), names)
    return WORKLOADS[workload](mc, random.Random(seed), str(ROOT))


@dataclass
class Pass:
    wall_s: float    # without the speed probe's readings inside the pass
    scaled_s: float  # sum of its jobs' walls, each at reference speed
    runs: list


def run_passes(jobs, seconds, min_passes, probe, rec=None, label="pass"):
    """Passes until the next one would end after `seconds`, at least
    `min_passes`.  The probe reads before and after each pass and, between
    jobs, when PROBE_EVERY_S has passed; each job is scaled by the readings
    just before and just after it."""
    passes, durations = [], []
    t_start = time.perf_counter()
    probe.read()
    while True:
        if rec is not None:
            rec.pass_id = f"{label}{len(passes)}"
        t0 = time.perf_counter()
        runs, marks, probing = [], [], 0.0
        for job in jobs:
            marks.append(len(probe.readings) - 1)
            index = rec.begin(f"job:{job.name}") if rec is not None else None
            runs.append(run_job(job))
            if rec is not None:
                rec.end(index)
            probing += probe.read_if_due()
        wall = time.perf_counter() - t0 - probing
        probe.read()
        durations.append(time.perf_counter() - t0)
        scaled = sum(at_reference_speed(r.wall_s, probe.readings[m:m + 2])
                     for r, m in zip(runs, marks))
        passes.append(Pass(wall, scaled, runs))
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(durations)
        if len(passes) >= min_passes and elapsed + typical > seconds:
            return passes


def _ratio(a, b):
    return a / b if b else 0.0


def _median_wall(passes):
    return statistics.median(p.wall_s for p in passes)


def _median_scaled(passes):
    return statistics.median(p.scaled_s for p in passes)


def _call_ms(passes):
    samples = [r.wall_s * 1000 for p in passes for r in p.runs]
    return samples, percentile(samples, 0.5), percentile(samples, 0.9)


def end_to_end(passes, setup_scaled):
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "pass_s": _median_scaled(passes),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer(untraced, traced, rec, probe, failed_ratio):
    """Per-pass layer numbers from the traced passes; call latency from the
    untraced ones.  `words.presentation.busy_s` is the traced set-up's.
    Layer times are wall seconds; the trace.* times are scaled, as pass_s."""
    n = len(traced)
    busy, calls = defaultdict(float), defaultdict(int)
    lift_ms, setup_words = [], 0.0
    for span, own in zip(rec.spans, self_times(rec.spans)):
        if span.name.startswith("job:"):
            continue
        if span.pass_id == "setup":
            if span.name == "words.presentation":
                setup_words += own
            continue
        busy[span.name] += own / n
        calls[span.name] += 1 / n
        if span.name == "oracle.count_lifts_bruteforce":
            lift_ms.append((span.end - span.start) * 1000)
    counters = defaultdict(float)
    for p in traced:
        for r in p.runs:
            for key, value in r.counters.items():
                counters[key] += value / n

    layers = dict(busy)  # before the lookups below add absent layers
    epi = "oracle.count_epi_bruteforce"
    lifts = "oracle.count_lifts_bruteforce"
    tmp = "census.tmp_enumerate"
    samples, p50, p90 = _call_ms(untraced)
    m = {
        f"{epi}.calls": calls[epi],
        f"{epi}.busy_s": busy[epi],
        f"{epi}.assignments": counters[f"{epi}.assignments"],
        f"{epi}.assignments_per_s": _ratio(counters[f"{epi}.assignments"],
                                           busy[epi]),
        f"{epi}.yield": _ratio(counters[f"{epi}.epi"],
                               counters[f"{epi}.assignments"]),
        f"{lifts}.calls": calls[lifts],
        f"{lifts}.busy_s": busy[lifts],
        f"{lifts}.call_ms.p50": percentile(lift_ms, 0.5) or 0.0,
        f"{lifts}.assignments_per_s": _ratio(
            counters[f"{lifts}.assignments"], busy[lifts]),
        "oracle.massey_system_exists.calls":
            calls["oracle.massey_system_exists"],
        "oracle.massey_system_exists.busy_s":
            busy["oracle.massey_system_exists"],
        "oracle.cup_defining_check.busy_s": busy["oracle.cup_defining_check"],
        "oracle.cup_defining_check.tuples":
            counters["oracle.cup_defining_check.tuples"],
        f"{tmp}.calls": calls[tmp],
        f"{tmp}.busy_s": busy[tmp],
        f"{tmp}.triples": counters[f"{tmp}.triples"],
        f"{tmp}.z_candidates": counters[f"{tmp}.z_candidates"],
        f"{tmp}.z_candidates_per_s": _ratio(counters[f"{tmp}.z_candidates"],
                                            busy[tmp]),
        f"{tmp}.yield": _ratio(counters[f"{tmp}.triples"],
                               counters[f"{tmp}.z_candidates"]),
        "census.epi_count.tmp_sum.busy_s": busy["census.epi_count.tmp_sum"],
        "census.cp_count.enumerate.busy_s": busy["census.cp_count.enumerate"],
        "census.closed.busy_s": busy["census.closed"],
        "words.presentation.busy_s": setup_words,
        "verify.rows_s": counters["verify.rows_s"],
        "cli.calls": counters["cli.calls"],
        "cli.overhead_s": counters["cli.overhead_s"],
        "trace.pass_s": _median_scaled(traced),
        "trace.overhead_s": _median_scaled(traced) - _median_scaled(untraced),
        "pass_wall_s": _median_wall(untraced),
        "ref_loop_ms": statistics.median(probe.readings) * 1000,
        # 0 marks a percentile with fewer than ten samples beyond it
        "call_ms.p50": p50 or 0.0,
        "call_ms.p90": p90 or 0.0,
        "call_ms.samples": len(samples),
        "failed_ratio": failed_ratio,
    }
    return m, layers


def machine():
    numpy = sys.modules.get("numpy")
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "threads": 1,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "massey_census" / "__init__.py").is_file():
        print(f"perfbench: no package at {src / 'massey_census'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    for var in THREAD_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    probe = SpeedProbe()
    probe.read()
    setup_walls, setup_scaled = [], []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        jobs = setup(args.workload, args.seed)
        setup_walls.append(time.perf_counter() - t0)
        probe.read()
        setup_scaled.append(at_reference_speed(setup_walls[-1],
                                               probe.readings[-2:]))

    share = args.seconds / 2 if args.trace else args.seconds
    untraced = run_passes(jobs, share, 1 if args.trace else 2, probe)
    traced, rec = [], None
    if args.trace:
        rec = Recorder()
        jobs = setup(args.workload, args.seed, rec)
        traced = run_passes(jobs, share, 1, probe, rec, label="traced")

    all_runs = [r for p in untraced + traced for r in p.runs]
    attempted, failed, correct = tally(all_runs)
    if args.trace:
        metrics, busy = per_layer(untraced, traced, rec, probe,
                                  failed / attempted)
        units = PER_LAYER
    else:
        metrics, busy = end_to_end(untraced, setup_scaled), {}
        units = END_TO_END

    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, **machine()}
    walls = [p.wall_s for p in untraced]
    scaled = [p.scaled_s for p in untraced]
    samples, p50, p90 = _call_ms(untraced)
    print("# perfbench " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"# {len(untraced)} untraced passes, wall s q1/median/q3 = "
          + "/".join(f"{v:.4f}" for v in quartiles(walls))
          + ", at reference speed = "
          + "/".join(f"{v:.4f}" for v in quartiles(scaled)))
    print(f"# set-up wall s = {', '.join(f'{w:.4f}' for w in setup_walls)}, "
          f"at reference speed = "
          f"{', '.join(f'{w:.4f}' for w in setup_scaled)}")
    print(f"# reference loop ms min/median/max over {len(probe.readings)} "
          "readings = " + "/".join(f"{v * 1000:.2f}" for v in (
              min(probe.readings), statistics.median(probe.readings),
              max(probe.readings))))
    print(f"# call_ms p50 = {p50 if p50 is not None else 'n/a'}, p90 = "
          f"{p90 if p90 is not None else 'n/a'} over {len(samples)} calls "
          f"(a percentile needs 10 samples beyond it)")
    failures = {}
    for r in all_runs:
        if not r.ok:
            failures.setdefault(r.job.name, {
                "value": repr(r.value), "expect": repr(r.job.expect),
                "reference": r.job.reference, "known": r.as_known,
                "count": 0})["count"] += 1
    for name, f in failures.items():
        print(f"# FAILED x{f['count']} {name}: got {f['value']}, expected "
              f"{f['expect']} ({f['reference']})"
              + (" [known disagreement]" if f["known"] else ""))
    if traced:
        traced_wall = _median_wall(traced)
        print(f"# {len(traced)} traced passes; layer share of the traced "
              "pass wall time: " + ", ".join(f"{k} {v / traced_wall:.3f}"
                                             for k, v in sorted(busy.items())))
    for name, value in metrics.items():
        print(f"# {name} = {value} {units[name]}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {**info, "attempted": attempted, "failed": failed,
              "correct": correct, "pass_walls": walls, "pass_scaled": scaled,
              "traced_pass_walls": [p.wall_s for p in traced],
              "setup_walls": setup_walls, "setup_scaled": setup_scaled,
              "ref_readings": probe.readings, "failures": failures,
              "layer_busy_s": busy, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if rec is not None:
        rec.write(OUT / f"{stem}-spans.jsonl")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
