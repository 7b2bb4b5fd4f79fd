"""Smoke test of the benchmark itself: reduced sizes, every workload, traced and untraced.

Run with ``python -m pytest perfbench/test_smoke.py`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_smoke_mode_passes_every_workload():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for workload in ("full-band", "sparse-band", "pmepr-export", "small-sweep"):
        assert f"smoke {workload}: " in proc.stdout
        assert "FAILED" not in proc.stdout


def test_run_prints_metrics_as_last_line():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "pmepr-export",
                           "--seed", "5", "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"generate_s", "verify_s", "pmepr_s", "energy_s",
                                      "total_s", "setup_s", "peak_rss_mb"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"),
                           "--workload", "full-band", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_metric_names_match_benchmark_json():
    import run

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["end_to_end"]] == [n for n, _ in run.END_TO_END]
    layers = (list(tracer.SELF_TIME_METRICS) + list(tracer.CALL_METRICS)
              + list(tracer.COUNT_METRICS) + ["trace.overhead_s"])
    assert sorted(m["name"] for m in declared["per_layer"]) == sorted(layers)
    for m in declared["per_layer"]:
        assert run.per_layer_unit(m["name"]) == m["unit"]


def test_attribution_flags_time_outside_traced_functions():
    t = tracer.Tracer()
    # spans are [name, start, end, parent, operation id]
    t.spans = [[tracer.OP, 0.0, 1.0, -1, 0], ["correlation.is_zero", 0.1, 0.9, 0, 0]]
    assert t.attribution_errors() == []
    t.spans.append([tracer.OP, 1.0, 3.0, -1, 1])  # an operation with no traced function
    assert any("in no traced function" in e for e in t.attribution_errors())


def test_attribution_flags_spans_outside_operations():
    t = tracer.Tracer()
    t.spans = [["pmepr.iapr_curve", 0.0, 1.0, -1, None]]
    assert any("outside a timed operation" in e for e in t.attribution_errors())


def test_operation_times_scale_by_bracketing_calibration():
    import calibrate
    import run

    ref = [calibrate.REFERENCE_S / len(calibrate.PARTS)] * len(calibrate.PARTS)
    slow = [2 * t for t in ref]
    calibration = [[0.0, ref], [1.2, ref], [10.0, slow], [12.2, slow], [20.0, [9 * t for t in ref]]]
    visits = [[0, "plain", [["verify_s", 0.1, 1.0]]], [0, "plain", [["verify_s", 10.1, 2.0]]]]
    times = run.operation_times(visits, calibration)
    assert times["verify_s"] == pytest.approx(1.0)
    assert run.operation_times(visits, None)["verify_s"] == pytest.approx(1.5)
    # an interval spanning several samples takes their mean
    assert run.slowdown_around(calibration, 0.5, 11.0) == pytest.approx(1.5)


@pytest.mark.parametrize("workload", ["full-band", "small-sweep"])
def test_specs_are_seeded(workload):
    import specs

    a = specs.build_specs(workload, 7, smoke=True)
    b = specs.build_specs(workload, 7, smoke=True)
    c = specs.build_specs(workload, 8, smoke=True)
    assert [s.params for s in a] == [s.params for s in b]
    assert [s.params for s in a] != [s.params for s in c]
