"""One benchmark run: set up, loop, sample storage, check answers, report.

End-to-end metrics come from untraced runs (``trace=False``).  A traced
run installs the :class:`~layers.LayerTrace` wrappers, hands a fresh
``Tracer`` to every call that accepts one, and reports per-layer metrics;
afterwards it replays the same ops untraced to measure the tracing cost.

Reported times are calibrated (:class:`workloads.Calibration`); the raw
clock readings are returned beside them as ``raw_metrics``.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import time

from compare import load_benchmark
from layers import LAYERS, LayerTrace, SpanDigest, plant_slowdown
from workloads import (PROBE_NOMINAL_S, WORKLOADS, Recorder, make_workdir,
                       raw_seconds)

from repro.core.rpq import nfa as rpq_nfa
from repro.core.rpq.vectorized import arrays as rpq_arrays
from repro.obs import Tracer

SETUP_REPS = 11
MIN_QUERIES = 200
STRATEGIES = ("chain-frontier-join", "product-fixpoint", "vector-fixpoint")


def run(name: str, seed: int, seconds: float, trace: bool, root: str, *,
        slow: str | None = None, plant_wrong: bool = False,
        min_queries: int = MIN_QUERIES) -> dict:
    """Run one workload; returns ``{"correct", "attempted", "failed",
    "metrics", "raw_metrics", "samples", "errors", "notes"}``.

    ``slow`` plants a 2x slowdown (:data:`layers.SLOWDOWN_TARGETS`);
    ``plant_wrong`` corrupts the first recorded answer, which the oracle
    must then count as one failure.
    """
    workdirs = []
    planted = plant_slowdown(slow) if slow else None
    try:
        workdirs.append(make_workdir(root, name))
        workload = WORKLOADS[name](seed, workdirs[-1])
        layer = LayerTrace().install() if trace else None
        try:
            rec, setups, spans, counters = _measure(workload, seconds, trace,
                                                    min_queries)
        finally:
            if layer is not None:
                layer.uninstall()
        if plant_wrong and rec.answers:
            index, _ = rec.answers[0]
            rec.answers[0] = (index, ("planted wrong answer",))
        for what, observed, expected in rec.deferred:
            if observed != expected():
                rec.fail(what)
        rec.failed += workload.check(rec)
        if trace:
            workdirs.append(make_workdir(root, name + "-untraced"))
            untraced = _replay_untraced(WORKLOADS[name](seed, workdirs[-1]),
                                        len(workload.ops))
            raw = per_layer_metrics(rec, layer, spans, counters)
            raw["obs.tracer_overhead_pct"] = \
                (raw_seconds(rec.loop_s) / raw_seconds(untraced) - 1.0) * 100.0
            metrics = calibrate(raw, _units("per_layer"),
                                _run_factor(rec.calibration.probes))
            metrics["obs.tracer_overhead_pct"] = \
                (rec.loop_s / untraced - 1.0) * 100.0
        else:
            metrics = end_to_end_metrics(rec, setups, float)
            raw = end_to_end_metrics(rec, setups, raw_seconds)
    finally:
        if planted is not None:
            planted.restore()
        for path in workdirs:
            shutil.rmtree(path, ignore_errors=True)
    rec.notes["calibration"] = rec.calibration.summary()
    return {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
        "raw_metrics": raw,
        "samples": {"queries": len(rec.query_s), "writes": len(rec.write_s),
                    "setups": len(setups),
                    **{key: len(values) for key, values
                       in rec.samples.items()}},
        "errors": rec.errors,
        "notes": rec.notes,
    }


def _measure(workload, seconds: float, trace: bool, min_queries: int):
    rec = Recorder()
    setups = []
    for _ in range(SETUP_REPS):
        gc.collect()
        _, elapsed = rec.timed(workload.setup)
        setups.append(elapsed)
    before = (rpq_nfa.compile_cache_info(), rpq_arrays.adjacency_cache_info())
    spans = SpanDigest() if trace else None
    # Set-up state lives for the whole run; keep it out of the collector's
    # full passes so their cost does not depend on how much was loaded.
    gc.collect()
    gc.freeze()
    _loop(workload, rec, seconds, trace, spans, min_queries)
    workload.tail(rec)
    gc.unfreeze()
    after = (rpq_nfa.compile_cache_info(), rpq_arrays.adjacency_cache_info())
    workload.finish(rec)
    return rec, setups, spans, (before, after)


def _loop(workload, rec: Recorder, seconds: float, trace: bool,
          spans: SpanDigest | None, min_queries: int = 0,
          limit: int | None = None) -> None:
    """Closed loop until ``seconds`` of op time and ``min_queries`` queries,
    or exactly ``limit`` ops when replaying."""
    gc.collect()
    give_up = time.perf_counter() + 3 * seconds + 60
    while True:
        if limit is None:
            if rec.loop_s >= seconds and len(rec.query_s) >= min_queries:
                return
            if time.perf_counter() > give_up:
                return
        elif len(workload.ops) >= limit:
            return
        op = workload.next_op()
        tracer = Tracer() if trace else None
        try:
            workload.execute(op, tracer, rec)
        except Exception as error:  # one failed op must not end the run
            rec.fail(f"{op[0]}: {type(error).__name__}: {error}")
        if spans is not None:
            spans.absorb(tracer)


def _replay_untraced(workload, count: int) -> float:
    """Loop seconds of the first ``count`` ops with tracing off."""
    rec = Recorder()
    workload.setup()
    gc.collect()
    gc.freeze()
    try:
        _loop(workload, rec, 0.0, False, None, limit=count)
    finally:
        gc.unfreeze()
        workload.close()
    return rec.loop_s


def _median(values, default: float = 0.0) -> float:
    return statistics.median(values) if values else default


def _p95(values) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[94]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end_metrics(rec: Recorder, setups: list, read) -> dict:
    """The end-to-end metrics, each duration read through ``read``:
    ``float`` for the calibrated time, ``raw_seconds`` for the clock's."""
    def median(values):
        return _median([read(value) for value in values or ()])

    samples = rec.samples
    ops = len(rec.query_s) + len(rec.write_s)
    queries = [read(value) for value in rec.query_s]
    return {
        "setup_s": median(setups),
        "query_p50_ms": _median(queries) * 1000.0,
        "query_p95_ms": _p95(queries) * 1000.0,
        "ops_per_s": _ratio(ops, read(rec.loop_s)),
        "mutation_p50_ms": median(rec.write_s) * 1000.0,
        "checkpoint_s": median(samples.get("checkpoint_s")),
        "recovery_s": median(samples.get("recovery_s")),
        "cold_first_result_s": median(samples.get("cold_first_result_s")),
        "disk_bytes_per_edge": median(samples.get("disk_bytes_per_edge")),
    }


def _units(table: str) -> dict:
    return {entry["name"]: entry["unit"] for entry in load_benchmark()[table]}


def _run_factor(probes: list[float]) -> float:
    """The run's calibration factor: median probe over its nominal time."""
    return statistics.median(probes) / PROBE_NOMINAL_S if probes else 1.0


def calibrate(metrics: dict, units: dict, factor: float) -> dict:
    """Divide every metric whose unit is ``ms`` by ``factor``.

    Wrappers and spans read the raw clock; this scales the per-layer times
    by the run's calibration, as the end-to-end times are scaled op by op.
    """
    return {name: value / factor if units[name] == "ms" else value
            for name, value in metrics.items()}


def per_layer_metrics(rec: Recorder, layer: LayerTrace, spans: SpanDigest,
                      counters) -> dict:
    (compile0, arrays0), (compile1, arrays1) = counters
    samples = rec.samples
    metrics = {f"{name}.self_ms": layer.self_s.get(name, 0.0) * 1000.0
               for name in LAYERS}
    metrics["traced_wall_ms"] = rec.covered_s * 1000.0
    metrics["unattributed_ms"] = metrics["traced_wall_ms"] - sum(
        metrics[f"{name}.self_ms"] for name in LAYERS)

    wal = rec.wal
    metrics.update({
        "storage.mutation_ms": layer.mean_ms(
            "durable.add_edge", "durable.remove_edge",
            "durable.set_node_property"),
        "storage.fsyncs_per_write": _ratio(wal["fsyncs"], wal["appended"]),
        "storage.snapshot_write_ms": layer.mean_ms("snapshot.write_snapshot"),
        "storage.segment_write_ms": layer.mean_ms("diskread.write_segments"),
        "storage.snapshot_bytes": _median(samples.get("snapshot_bytes")),
        "storage.segment_bytes": _median(samples.get("segment_bytes")),
        "storage.wal_bytes_per_write": _ratio(wal["bytes"], wal["appended"]),
        "storage.snapshot_load_ms": layer.mean_ms(
            "snapshot.load_latest_snapshot"),
        "storage.wal_replay_entries": _median(
            samples.get("wal_replay_entries")),
        "storage.segment_open_ms": layer.mean_ms(
            "diskread.open_latest_segments"),
        "storage.labels_decoded": _median(samples.get("labels_decoded")),
        "query.parse_ms": layer.mean_ms(
            "pathql.parse_pathql", "sparql.parse_sparql",
            "cypherish.parse_cypher"),
        "query.frontend_eval_ms": layer.mean_ms(
            "pathql.run_pathql", "sparql.run_sparql", "cypherish.run_cypher",
            own=True),
        "query.store_build_ms": layer.mean_ms(
            "sparql.store_for_graph", "cypherish.store_for_graph"),
        "core.rpq.compile_ms": layer.mean_ms("nfa.compile_regex"),
        "core.rpq.compile_hit_ratio": _ratio(
            compile1["hits"] - compile0["hits"],
            (compile1["hits"] - compile0["hits"])
            + (compile1["misses"] - compile0["misses"])),
    })
    for strategy in STRATEGIES:
        metrics[f"core.rpq.evaluations.{strategy}"] = \
            spans.strategy_count.get(strategy, 0)
        metrics[f"core.rpq.evaluate_ms.{strategy}"] = _ratio(
            spans.strategy_s.get(strategy, 0.0) * 1000.0,
            spans.strategy_count.get(strategy, 0))
    engines = sum(spans.engine_count.values())
    cache = rec.notes.get("cache", {})
    probes = cache.get("hits", 0) + cache.get("misses", 0)
    views = rec.notes.get("views", {}).values()
    metrics.update({
        "core.rpq.product_ms": _ratio(spans.product_s * 1000.0,
                                      spans.products),
        "core.rpq.product_states": _ratio(spans.product_states,
                                          spans.products),
        "core.rpq.count_ms": layer.mean_ms("count.count_paths_exact"),
        "core.rpq.vector_share": _ratio(spans.engine_count.get("vector", 0),
                                        engines),
        "core.rpq.answers_per_query": _ratio(spans.answers, spans.answered),
        "core.rpq.vectorized.build_ms": _ratio(
            spans.vector_build_s * 1000.0,
            spans.strategy_count.get("vector-fixpoint", 0)),
        "core.rpq.vectorized.fixpoint_ms": _ratio(
            spans.vector_fixpoint_s * 1000.0,
            spans.strategy_count.get("vector-fixpoint", 0)),
        "core.rpq.vectorized.arrays_hit_ratio": _ratio(
            arrays1["hits"] - arrays0["hits"],
            (arrays1["hits"] - arrays0["hits"])
            + (arrays1["misses"] - arrays0["misses"])),
        "core.rpq.vectorized.arrays_rebuilds":
            arrays1["rebuilds"] - arrays0["rebuilds"],
        "cache.lookup_ms": layer.mean_ms("result_cache.lookup"),
        "cache.hit_ratio": _ratio(cache.get("hits", 0), probes),
        "cache.stale_ratio": _ratio(cache.get("stale", 0), probes),
        "cache.evictions": max(0, layer.count("result_cache.store")
                               - cache.get("entries", 0)),
        "ivm.serve_ms": layer.mean_ms(
            "views.serve_pathql", "views.serve_sparql", "views.serve_cypher",
            "views.result"),
        "ivm.restamps": sum(v.get("restamps", 0) for v in views),
        "ivm.full_recomputes": sum(v.get("full_recomputes", 0)
                                   for v in views),
        "ivm.delta_syncs": sum(v.get("delta_syncs", 0) for v in views),
        "ivm.retractions": sum(v.get("retractions", 0) for v in views),
    })
    return metrics
