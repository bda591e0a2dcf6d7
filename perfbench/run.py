"""Benchmark of invsys: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload artinian_gb --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  The inputs are generated from the seed;
then fresh worker processes (``worker.py``) each run one cold pass of the
workload's job list, for as many passes as fit in ``--seconds``.  Every job
result is checked exactly, outside the timed region; a job that raises or
fails its check counts in ``error_rate``.

Times are reported in reference seconds.  The worker runs a fixed
calibration kernel before every job and after the last; each pass's times
are multiplied by ``REFERENCE_CALIBRATION_S`` over that pass's mean
calibration time.  A shared 2-core Xeon VM ran the same code up to 1.7
times slower for minutes at a time; the correction takes that drift out,
so that a change of the library's speed is what moves a metric.
The measured (uncorrected) medians and the speed factor are printed too.

``--trace 0`` reports the end-to-end metrics (medians over the passes).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones plus the tracing overhead.  Human
readable lines come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Passes always run, even past --seconds: enough untraced passes for a
# tail percentile, fewer when traced and untraced passes alternate.
MIN_PASSES = 5
MIN_TRACED_PASSES = 2
PASS_TIMEOUT_S = 150
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
TAIL_MIN_ABOVE = 10
# The calibration kernel's time at the reference speed: about its time on a
# quiet core of a 2.1 GHz Xeon VM under Python 3.11.
REFERENCE_CALIBRATION_S = 0.010


def run_pass(workload, inputs, trace, verified):
    """One worker process; returns its report plus the set-up time it took.

    ``verified`` holds the digests of results already checked in this run;
    the worker adds those of the results it checks.
    """
    request = json.dumps({"workload": workload, "inputs": inputs, "trace": trace, "verified": verified})
    spawned = time.perf_counter()  # CLOCK_MONOTONIC, shared with the worker
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=request,
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker pass failed with exit code {proc.returncode}")
    report = json.loads(proc.stdout)
    verified.update(report["verified"])
    return to_reference(report, spawned)


def to_reference(report, spawned):
    """Convert a worker report's times to reference seconds, and add the
    pass's set-up time (from ``spawned``) and wall time."""
    speed = REFERENCE_CALIBRATION_S / statistics.mean(report["calibration"])
    report["speed"] = speed
    report["measured_wall_s"] = sum(report["seconds"])
    report["setup_s"] = (report["ready"] - spawned) * speed
    report["seconds"] = [s * speed for s in report["seconds"]]
    report["wall_s"] = sum(report["seconds"])
    return report


def run_passes(workload, inputs, seconds, kinds, min_cycles):
    """Cycle through ``kinds`` (trace flags) until the time budget is spent.

    A new cycle starts only if the slowest cycle so far still fits, so a run
    ends close to ``seconds``; at least ``min_cycles`` cycles always run.
    """
    start = time.perf_counter()
    passes = {kind: [] for kind in kinds}
    verified = {}
    slowest = 0.0
    while True:
        cycle_start = time.perf_counter()
        for kind in kinds:
            passes[kind].append(run_pass(workload, inputs, kind, verified))
        slowest = max(slowest, time.perf_counter() - cycle_start)
        done = len(passes[kinds[0]])
        if done >= min_cycles and time.perf_counter() - start + slowest > seconds:
            return passes


def tail_percentile(guaranteed):
    """Highest listed percentile with TAIL_MIN_ABOVE samples above it out of ``guaranteed``.

    The choice depends only on the sample count every run reaches, so one
    workload reports the same percentile whatever number of passes fit.
    """
    for p in TAIL_PERCENTILES:
        if (1 - p / 100) * guaranteed >= TAIL_MIN_ABOVE:
            return p
    return 50


def nearest_rank(ordered, p):
    return ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)]


def end_to_end(passes):
    pooled = sorted(s for p in passes for s in p["seconds"])
    percentile = tail_percentile(MIN_PASSES * len(passes[0]["seconds"]))
    tail_value = nearest_rank(pooled, percentile)
    above = sum(1 for x in pooled if x > tail_value)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "job_s.p50": (statistics.median(pooled), "s"),
        "job_s.tail": (tail_value, "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    notes = {
        "wall_s": "reference seconds; measured {:.6g} s at median speed factor {:.4g}".format(
            statistics.median(p["measured_wall_s"] for p in passes), statistics.median(p["speed"] for p in passes)
        ),
        "job_s.tail": f"p{percentile:g} of {len(pooled)} pooled job times, {above} above it",
    }
    return metrics, notes


def per_layer(untraced, traced):
    from tracing import layer_metrics, unit_of

    layers = [
        {name: value * p["speed"] if unit_of(name) == "s" else value for name, value in layer_metrics(p["trace"]).items()}
        for p in traced
    ]
    # median_low keeps counts whole: it always returns one pass's value
    metrics = {name: (statistics.median_low(m[name] for m in layers), unit_of(name)) for name in layers[0]}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1, "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "invsys" / "__init__.py").is_file():
        print(f"no invsys sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    inputs = workloads.generate(args.workload, args.seed, args.smoke)
    if args.trace:
        passes = run_passes(args.workload, inputs, args.seconds, (False, True), MIN_TRACED_PASSES)
        metrics, notes = per_layer(passes[False], passes[True]), {}
        counted = passes[False] + passes[True]
    else:
        passes = run_passes(args.workload, inputs, args.seconds, (False,), MIN_PASSES)
        metrics, notes = end_to_end(passes[False])
        counted = passes[False]

    attempted = sum(len(p["jobs"]) for p in counted)
    failures = [f for p in counted for f in p["failures"]]
    kinds = " + ".join(f"{len(v)} {'traced' if k else 'untraced'}" for k, v in passes.items())
    print(f"workload {args.workload} seed {args.seed}: {kinds} passes of {len(counted[0]['jobs'])} jobs")
    for failure in sorted(set(failures)):
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:34s} {value:.6g} {unit}{note}")
    print(f"{'error_rate':34s} {len(failures) / attempted:.6g} ratio  ({len(failures)} of {attempted} jobs)")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
