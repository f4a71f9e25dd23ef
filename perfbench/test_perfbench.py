"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

They run the workloads for a handful of ops, so no assertion depends on
how fast the host is.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import selftest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOAD_NAMES = sorted(WORKLOADS)


def _spec() -> dict:
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _tiny(name: str, **kwargs) -> dict:
    return harness.run(name, 1, 0.0, kwargs.pop("trace", False), ROOT,
                       min_queries=40, **kwargs)


def _units(table: str) -> dict:
    return {entry["name"]: entry["unit"]
            for entry in compare.load_benchmark()[table]}


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_clean_run_is_correct(name):
    result = _tiny(name)
    assert result["correct"], result["errors"]
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(_units("end_to_end"))
    assert set(result["raw_metrics"]) == set(result["metrics"])
    assert all(value > 0 for value in result["metrics"].values())
    assert all(value > 0 for value in result["raw_metrics"].values())
    assert result["raw_metrics"]["disk_bytes_per_edge"] == \
        result["metrics"]["disk_bytes_per_edge"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_planted_wrong_answer_is_counted(name):
    result = _tiny(name, plant_wrong=True)
    assert result["failed"] == 1
    assert not result["correct"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_reports_every_layer_metric(name):
    result = _tiny(name, trace=True)
    metrics = result["metrics"]
    assert set(metrics) == set(_spec()["per_layer"])
    self_total = sum(metrics[f"{layer}.self_ms"] for layer in layers.LAYERS)
    assert metrics["unattributed_ms"] >= 0
    assert self_total + metrics["unattributed_ms"] == pytest.approx(
        metrics["traced_wall_ms"])
    evaluations = sum(metrics[f"core.rpq.evaluations.{strategy}"]
                      for strategy in harness.STRATEGIES)
    assert evaluations > 0  # engine and strategy came from the spans
    # Every metric in ms is calibrated by the one run factor; no other is.
    units, raw = _units("per_layer"), result["raw_metrics"]
    factors = [metrics[key] / raw[key] for key, unit in units.items()
               if unit == "ms" and raw[key] > 0]
    assert factors and max(factors) == pytest.approx(min(factors))
    assert all(metrics[key] == raw[key] for key, unit in units.items()
               if unit != "ms" and key != "obs.tracer_overhead_pct")


def test_calibrate_scales_every_ms_metric_by_unit():
    units = _units("per_layer")
    scaled = harness.calibrate(dict.fromkeys(units, 2.0), units, 2.0)
    assert {key for key, value in scaled.items() if value == 1.0} == \
        {key for key, unit in units.items() if unit == "ms"}
    assert "core.rpq.evaluate_ms.vector-fixpoint" in units
    assert scaled["core.rpq.evaluate_ms.vector-fixpoint"] == 1.0


def test_cli_exits_nonzero_when_an_answer_check_fails():
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "serve-mixed", "--seed", "3", "--seconds", "0", "--trace", "0",
         "--plant-wrong-answer"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    assert completed.returncode == 1
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=False)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


def test_spec_defines_every_benchmark_metric():
    spec, bench = _spec(), compare.load_benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])
    assert set(_units("end_to_end")) <= set(spec["end_to_end"])
    assert set(_units("per_layer")) == set(spec["per_layer"])
    for entry in spec["per_layer"].values():
        for metric, workload in entry["moves"]:
            assert metric in spec["end_to_end"]
            assert workload in spec["workloads"]


def test_analytic_query_texts_never_repeat():
    workload = WORKLOADS["analytic-scan"](1, ROOT)
    texts = [op[2] for op in (workload.next_op() for _ in range(4000))
             if op[0] in ("pairs", "count")]
    assert len(texts) == len(set(texts)) == 3800


def test_planted_slowdown_patches_every_reference_and_restores():
    from repro.cache import result_cache
    from repro.storage import durable, snapshot

    original_write = snapshot.write_snapshot
    original_lookup = result_cache.QueryCache.__dict__["lookup"]
    patchers = [layers.plant_slowdown(name)
                for name in layers.SLOWDOWN_TARGETS]
    try:
        assert snapshot.write_snapshot is not original_write
        assert durable.snap.write_snapshot is snapshot.write_snapshot
        assert result_cache.QueryCache.__dict__["lookup"] is not \
            original_lookup
    finally:
        for patcher in patchers:
            patcher.restore()
    assert snapshot.write_snapshot is original_write
    assert result_cache.QueryCache.__dict__["lookup"] is original_lookup


def _record(workload, trace, metrics, attempted=100):
    return {"stamp": {"workload": workload, "trace": trace},
            "attempted": attempted, "metrics": metrics}


def _benchmark(end_to_end=(), per_layer=()) -> dict:
    return {"end_to_end": list(end_to_end), "per_layer": list(per_layer)}


def test_compare_verdicts():
    bench = _benchmark([
        {"name": "query_p50_ms", "bound": 0.1, "better": "lower"},
        {"name": "ops_per_s", "bound": 0.1, "better": "higher"},
        {"name": "setup_s", "bound": 0.1, "better": "lower"}])
    base = [_record("w", 0, {"query_p50_ms": 1.0 + i / 100,
                             "ops_per_s": 100.0 + i,
                             "setup_s": [1.0, 2.0, 3.0][i]})
            for i in range(3)]
    new = [_record("w", 0, {"query_p50_ms": 2.0 + i / 100,
                            "ops_per_s": 101.0 + i,
                            "setup_s": [1.0, 3.0, 2.0][i]})
           for i in range(3)]
    rows = compare.compare(base, new, bench)
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts == {"query_p50_ms": "worse", "ops_per_s": "unchanged",
                        "setup_s": "unresolved"}
    # The raw readings each record keeps give their own verdicts.
    for record in base + new:
        record["raw_metrics"] = dict(record["metrics"], query_p50_ms=1.0)
    rows = compare.compare(base, new, bench, "raw_metrics")
    assert {row["metric"]: row["verdict"] for row in rows}["query_p50_ms"] \
        == "unchanged"


def test_compare_flags_moved_layer_time_per_op():
    bench = _benchmark(per_layer=[
        {"name": "cache.self_ms", "unit": "ms"},
        {"name": "cache.lookup_ms", "unit": "ms"},
        {"name": "cache.hit_ratio", "unit": "ratio"}])
    base = [_record("w", 1, {"cache.self_ms": 100.0, "cache.lookup_ms": 0.02,
                             "cache.hit_ratio": 0.5}, attempted=1000)]
    # Half the ops in the same time: per op the cache layer got 2x slower.
    new = [_record("w", 1, {"cache.self_ms": 100.0, "cache.lookup_ms": 0.04,
                            "cache.hit_ratio": 0.1}, attempted=500)]
    rows = compare.compare(base, new, bench)
    assert compare.flagged(rows, "w") == {"cache.self_ms", "cache.lookup_ms"}


def test_selftest_evaluation_names_the_layer_and_an_end_to_end_metric():
    rows = [
        {"workload": "durable-cycle", "metric": "storage.snapshot_write_ms",
         "verdict": "moved"},
        {"workload": "durable-cycle", "metric": "checkpoint_s",
         "verdict": "worse"},
        {"workload": "analytic-scan", "metric": "checkpoint_s",
         "verdict": "unchanged"},
    ]
    assert selftest.evaluate(rows, "write_snapshot") == []
    # Too noisy to call, but the medians agree within the bound.
    rows[2].update(verdict="unresolved", change=0.1, bound=0.25)
    assert selftest.evaluate(rows, "write_snapshot") == []
    rows[2]["change"] = 0.3
    assert selftest.evaluate(rows, "write_snapshot")
    rows[2]["verdict"] = "worse"
    assert selftest.evaluate(rows, "write_snapshot")
