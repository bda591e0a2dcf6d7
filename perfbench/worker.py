"""One cold pass of a workload, in a fresh interpreter.

Reads ``{"workload", "inputs", "trace", "verified"}`` as JSON on stdin,
imports ``invsys`` from the checkout's ``src/``, parses the inputs and builds
the jobs (set-up), then times every job, records peak memory, and only then
runs the correctness checks.  Prints one JSON object on stdout.  Nothing
computed here outlives the process, so no pass can reuse another pass's
results.

``verified`` maps a job name to the digest of a result that passed its check
in an earlier pass; a reusable job whose result has that digest is not
checked again.  The digests of results that pass are sent back.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def check_results(jobs, results, known):
    """Check every ``(ran, value)`` result; return the failures and the digests
    of the reusable results that are correct.

    ``known`` maps job names to digests of results already checked in this
    run; a reusable result with that digest is not checked again.
    """
    import hashlib  # loads OpenSSL: imported after peak memory is read

    failures, verified = [], {}
    for job, (ran, value) in zip(jobs, results):
        if ran:
            digest = hashlib.sha256(repr(value).encode()).hexdigest() if job.reusable else None
            if digest and known.get(job.name) == digest:
                verified[job.name] = digest
                continue
            try:
                if job.check(value):
                    if digest:
                        verified[job.name] = digest
                    continue
                value = "check failed"
            except Exception as exc:
                value = f"check raised {type(exc).__name__}: {exc}"
        failures.append(f"{job.name}: {value}")
    return failures, verified


def calibrate():
    """A fixed piece of pure-Python work, independent of ``invsys``.

    Its time measures how fast this shared machine runs Python at the
    moment; ``run.py`` converts the pass's timings to a reference speed
    with it.  Dict updates on tuple keys and ``Fraction`` arithmetic are
    what the library spends its time on.  The garbage collector is off
    while it runs, so objects the library left behind cannot slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    table = {}
    for i in range(9000):
        key = (i % 31, i % 17, i % 7)
        table[key] = table.get(key, 0) + i * 7919 % 32003
    acc = Fraction(0)
    for i in range(600):
        acc += Fraction(i % 13 + 1, i % 11 + 2) * table[(i % 31, i % 17, i % 7)]
    sorted(table.items())
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def main():
    request = json.load(sys.stdin)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import invsys
    import invsys.cli  # noqa: F401  (the CLI's import cost belongs to set-up)
    import workloads

    if Path(invsys.__file__).resolve().parent != SRC / "invsys":
        raise SystemExit(f"imported invsys from {invsys.__file__}, not from {SRC}")
    tracer = None
    if request["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    jobs = workloads.prepare(request["workload"], invsys, request["inputs"])
    ready = time.perf_counter()

    results, seconds, calibration = [], [], []
    for job in jobs:
        calibration.append(calibrate())
        if tracer:
            tracer.begin_job()
        start = time.perf_counter()
        try:
            outcome = (True, job.run())
        except Exception as exc:  # a failing job is counted, not fatal
            outcome = (False, f"{type(exc).__name__}: {exc}")
        seconds.append(time.perf_counter() - start)
        results.append(outcome)
    calibration.append(calibrate())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw_trace = tracer.snapshot() if tracer else None
    if tracer:
        tracer.uninstall()

    failures, verified = check_results(jobs, results, request["verified"])
    json.dump(
        {
            "ready": ready,
            "jobs": [job.name for job in jobs],
            "seconds": seconds,
            "calibration": calibration,
            "failures": failures,
            "verified": verified,
            "peak_rss_mb": peak_rss_mb,
            "trace": raw_trace,
        },
        sys.stdout,
    )


if __name__ == "__main__":
    main()
