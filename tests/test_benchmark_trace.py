"""The traced benchmark at full size: its last stdout line is a strict JSON result.

The benchmark's own tests run only ``--smoke`` inputs and parse with the
lenient ``json`` defaults, which accept NaN and Infinity; this runs both
workloads at their real size, as a benchmark run traces them.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from invsys.linalg import MAX_ANN_COLUMNS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _no_constants(name):
    raise ValueError(f"{name} in the result line")


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_per_layer_metric_finite(workload):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_no_constants)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    # a column count, never a packed monomial used as a column key
    assert metrics["linalg.elim.max_cols"]["value"] <= MAX_ANN_COLUMNS
