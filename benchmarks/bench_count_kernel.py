"""Experiment R5/C1 addendum — exact Count on the vector engine.

Two measurements, both at whatever ``repro`` is first on the path (run it
once at a parent checkout and once here to get a before/after pair):

- ``classes``: the analytic-scan op stream of the repository benchmark
  (``perfbench/workloads.py``, read-only here) replayed at
  ``engine="auto"`` for a fixed number of blocks, with each query timed
  and filed under its query class — median and p95 per class;
- ``sweep``: ``count_paths_exact`` at ``engine="scalar"`` against
  ``engine="vector"`` over start-set size × footprint density (footprint
  edges per node) on 800-node random graphs, warm (the snapshot and its
  CSR memo built by a first call).  Every cell checks the two engines
  agree.

    PYTHONPATH=src python benchmarks/bench_count_kernel.py [--quick] [--out PATH]

``--out`` (default ``benchmarks/BENCH_count.json``) receives both
sections with the host metadata.  No gate: the numbers feed EXPERIMENTS
R5/C1 and the engine-rule item of the ROADMAP.
"""

import json
import os
import random
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.append(os.path.dirname(HERE))  # the read-only perfbench package

from perfbench import workloads  # noqa: E402
from repro.bench import report_metadata  # noqa: E402
from repro.core.rpq import count_paths_exact, parse_regex  # noqa: E402
from repro.core.rpq.vectorized import graph_arrays  # noqa: E402
from repro.datasets import random_labeled_graph  # noqa: E402

SWEEP_NODES = 800
SWEEP_DENSITIES = (0.75, 1.5, 3.0, 6.0, 12.0)
SWEEP_STARTS = (1, 8, 64, None)
SWEEP_REGEX = "(a + b)*/c"
SWEEP_K = 4


def _p95(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


def class_latencies(seed: int, blocks: int) -> dict:
    """Per-class query latency (ms) over ``blocks`` blocks of the
    analytic-scan stream: the same draws, in the same order, as
    ``AnalyticScan.next_op``."""
    with tempfile.TemporaryDirectory() as workdir:
        scan = workloads.AnalyticScan(seed, workdir)
        scan.setup()
        times: dict[str, list[float]] = {}
        for _ in range(blocks):
            block = [cls for count, cls in workloads.ANALYTIC_BLOCK
                     for _ in range(count)]
            scan.rng.shuffle(block)
            ops = [(cls, scan._draw_query(cls)) for cls in block]
            write = scan._draw_write()
            for cls, op in ops:
                start = time.perf_counter()
                workloads._analytic_query(scan.graphs, op, "auto", None)
                times.setdefault(cls, []).append(time.perf_counter() - start)
            workloads._analytic_write(scan.graphs, write)
        scan.close()
    return {cls: {"queries": len(values),
                  "median_ms": statistics.median(values) * 1e3,
                  "p95_ms": _p95(values) * 1e3}
            for cls, values in sorted(times.items())}


def _median_ms(call, reps: int) -> tuple[float, object]:
    answer = call()  # warm: compile, snapshot, CSR memo
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3, answer


def count_sweep(reps: int) -> list[dict]:
    """Scalar vs vector Count over start-set size × footprint density."""
    regex = parse_regex(SWEEP_REGEX)
    rows = []
    for density in SWEEP_DENSITIES:
        # Three of the four labels are in the footprint.
        edges = int(round(density * SWEEP_NODES * 4 / 3))
        graph = random_labeled_graph(SWEEP_NODES, edges,
                                     edge_labels=("a", "b", "c", "d"),
                                     rng=int(density * 100))
        graph_arrays(graph)
        nodes = sorted(graph.nodes())
        rng = random.Random(edges)
        for size in SWEEP_STARTS:
            starts = None if size is None else rng.sample(nodes, size)
            timings = {}
            answers = set()
            for engine in ("scalar", "vector"):
                timings[engine], answer = _median_ms(
                    lambda: count_paths_exact(graph, regex, SWEEP_K,
                                              start_nodes=starts,
                                              engine=engine), reps)
                answers.add(answer)
            assert len(answers) == 1, (density, size, answers)
            rows.append({
                "footprint_per_node": density,
                "edges": edges,
                "starts": SWEEP_NODES if size is None else size,
                "scalar_ms": timings["scalar"],
                "vector_ms": timings["vector"],
                "scalar_over_vector": timings["scalar"] / timings["vector"],
            })
    return rows


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    out_path = os.path.join(HERE, "BENCH_count.json")
    if "--out" in argv:
        out_path = argv[argv.index("--out") + 1]
    report = report_metadata()
    report["classes"] = {"workload": "analytic-scan", "seed": 1,
                         "blocks": 20 if quick else 100,
                         "engine": "auto"}
    report["classes"]["latency"] = class_latencies(
        1, report["classes"]["blocks"])
    report["sweep"] = {"nodes": SWEEP_NODES, "regex": SWEEP_REGEX,
                       "k": SWEEP_K, "reps": 3 if quick else 9,
                       "warm": True}
    report["sweep"]["rows"] = count_sweep(report["sweep"]["reps"])
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"{'class':18} {'queries':>7} {'median ms':>10} {'p95 ms':>9}")
    for cls, row in report["classes"]["latency"].items():
        print(f"{cls:18} {row['queries']:7d} {row['median_ms']:10.3f} "
              f"{row['p95_ms']:9.3f}")
    print(f"\n{'edges/node':>10} {'starts':>6} {'scalar ms':>10} "
          f"{'vector ms':>10} {'scalar/vector':>13}")
    for row in report["sweep"]["rows"]:
        print(f"{row['footprint_per_node']:10.2f} {row['starts']:6d} "
              f"{row['scalar_ms']:10.3f} {row['vector_ms']:10.3f} "
              f"{row['scalar_over_vector']:13.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
