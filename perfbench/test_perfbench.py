"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import invsys  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / HERE.name / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_pass_is_correct_and_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert "error_rate" in proc.stdout


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_are_a_function_of_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 3) == workloads.generate(workload, 3)
        assert workloads.generate(workload, 3) != workloads.generate(workload, 4)


def test_term_text_round_trips_through_invsys_parsing():
    ctx = invsys.parse_ring_decl("ring Q[x,y,z] dual [X,Y,Z]")
    text = "2X^[4]-X*Y^[3]+Z-5"
    terms = workloads.parse_terms(text, "XYZ")
    rebuilt = invsys.parse_polynomial(workloads.format_terms(terms, "XYZ", True), ctx, "dual")
    assert rebuilt == invsys.parse_polynomial(text, ctx, "dual")


def test_self_time_subtracts_nested_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 9.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def leaf():
        return "leaf"

    inner = tracer.span("b.inner", leaf)

    def middle():
        inner()  # spans 1.0 .. 3.0
        inner()  # spans 4.0 .. 4.5
        return "middle"

    outer = tracer.span("a.outer", middle)
    assert outer() == "middle"  # spans 0.0 .. 9.0
    assert tracer.spans["a.outer"] == [1, 9.0, 9.0 - 2.5]
    assert tracer.spans["b.inner"] == [2, 2.5, 2.5]
    metrics_input = {"spans": {"ring.contract": [1, 4.0, 1.5], "ring.pairing": [2, 1.0, 1.0]}, "counts": {}}
    assert tracing.layer_metrics(metrics_input)["ring.self_s"] == 2.5


def test_span_is_recorded_when_the_call_raises():
    ticks = iter([0.0, 2.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.span("a.boom", boom)()
    assert tracer.spans["a.boom"] == [1, 2.0, 2.0]


def test_times_are_converted_to_reference_speed():
    # calibration twice as slow as the reference: every time is halved
    slow = 2 * run.REFERENCE_CALIBRATION_S
    report = run.to_reference({"calibration": [slow, slow], "seconds": [1.0, 3.0], "ready": 10.5}, 10.0)
    assert report["speed"] == 0.5 and report["measured_wall_s"] == 4.0
    assert report["seconds"] == [0.5, 1.5] and report["wall_s"] == 2.0 and report["setup_s"] == 0.25


def test_calibration_leaves_the_collector_as_it_was():
    assert gc.isenabled()
    assert worker.calibrate() > 0 and gc.isenabled()
    gc.disable()
    try:
        worker.calibrate()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_a_result_equal_to_a_checked_one_is_not_checked_again():
    def never(value):
        raise AssertionError("checked again")

    def job(name, check, reusable=True):
        return workloads.Job(name, None, check, reusable)

    first = [job("a", lambda v: v == [1]), job("b", lambda v: v == [2]), job("c", lambda v: True, False)]
    failures, known = worker.check_results(first, [(True, [1]), (True, [2]), (True, 3)], {})
    assert failures == [] and set(known) == {"a", "b"}

    again = [job("a", never), job("b", lambda v: v == [2]), job("c", lambda v: False, False)]
    failures, verified = worker.check_results(again, [(True, [1]), (True, [5]), (True, 3)], known)
    assert verified == {"a": known["a"]}  # "b" changed, so it was checked, and failed
    assert failures == ["b: check failed", "c: check failed"]


def _render(result):
    """Canonical text of a job result."""
    if isinstance(result, invsys.AdmissibleFamily):
        return invsys.dump_family(result)
    if isinstance(result, (tuple, list)):
        return "(" + ", ".join(_render(r) for r in result) + ")"
    if isinstance(result, invsys.GradedSlice):
        return f"{result.degree}: {_render(result.basis)}"
    if isinstance(result, invsys.SubspaceBasis):
        return _render(result.vectors)
    return str(result)


def _rendered(workload):
    jobs = workloads.prepare(workload, invsys, workloads.generate(workload, 5, smoke=True))
    return [_render(job.run()) for job in jobs]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracer_leaves_job_outputs_unchanged(workload):
    plain = _rendered(workload)
    originals = (invsys.ann_cyclic, invsys.ring.contract, invsys.linalg.SpanBuilder.insert)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert invsys.ann_cyclic is not originals[0]
        traced = _rendered(workload)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert (invsys.ann_cyclic, invsys.ring.contract, invsys.linalg.SpanBuilder.insert) == originals
    assert tracer.spans["duality.ann_cyclic"][0] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "artinian_gb", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
