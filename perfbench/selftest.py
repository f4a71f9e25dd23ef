"""Sensitivity self-test: compare mode must name a planted 2x slowdown.

For each planted slowdown (:data:`layers.SLOWDOWN_TARGETS`) the self-test
runs the workloads with and without it, traced and untraced, on a few
seeds, and compares the two result sets.  It passes when

- on the workload that uses the slowed layer, the layer's per-layer
  metric is flagged ``moved`` and at least one of the named end-to-end
  metrics is ``worse``;
- on every workload that bypasses the layer, nothing is flagged.

Usage: ``python3 perfbench/run.py selftest``.  Each run lasts
``run_seconds`` of ``BENCHMARK.json``; the result sets go to a temporary
directory that is deleted afterwards.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

import compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 3

#: slowdown -> (workload that uses it, layer metric, end-to-end metrics of
#: which one must be worse, workloads that bypass it).
EXPECTATIONS = {
    "write_snapshot": ("durable-cycle", "storage.snapshot_write_ms",
                       ("checkpoint_s",), ("analytic-scan",)),
    "QueryCache.lookup": ("serve-mixed", "cache.lookup_ms",
                          ("query_p50_ms", "query_p95_ms"),
                          ("analytic-scan", "durable-cycle")),
}


def _run_set(out: str, workloads, slow: str | None) -> None:
    seconds = compare.load_benchmark()["run_seconds"]
    for workload in workloads:
        for seed in range(1, SEEDS + 1):
            for trace in (0, 1):
                command = [sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace),
                           "--out", out]
                if slow:
                    command += ["--slow", slow]
                completed = subprocess.run(command, cwd=ROOT,
                                           stdout=subprocess.DEVNULL,
                                           check=False)
                if completed.returncode != 0:
                    raise SystemExit(f"selftest: run failed: {command}")


def evaluate(rows: list[dict], slow: str) -> list[str]:
    """Failure messages for one planted slowdown (empty when it passes)."""
    used, layer_metric, end_to_end, bypassed = EXPECTATIONS[slow]
    failures = []
    verdicts = {(row["workload"], row["metric"]): row["verdict"]
                for row in rows}
    if verdicts.get((used, layer_metric)) != "moved":
        failures.append(f"{slow}: {layer_metric} not flagged on {used}")
    if not any(verdicts.get((used, name)) == "worse" for name in end_to_end):
        failures.append(f"{slow}: none of {end_to_end} worse on {used}")
    for workload in bypassed:
        extra = compare.flagged(rows, workload)
        if extra:
            failures.append(f"{slow}: {workload} bypasses the layer but "
                            f"{sorted(extra)} were flagged")
    return failures


def main(argv: list[str]) -> int:
    argparse.ArgumentParser(prog="perfbench/run.py selftest").parse_args(argv)
    parent = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(parent, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=parent)
    try:
        base = os.path.join(workdir, "base.jsonl")
        _run_set(base, ("serve-mixed", "analytic-scan", "durable-cycle"), None)
        failures = []
        for slow, (used, _, _, bypassed) in EXPECTATIONS.items():
            planted = os.path.join(workdir, f"slow-{slow}.jsonl")
            _run_set(planted, (used, *bypassed), slow)
            rows = compare.compare(compare.load_records(base),
                                   compare.load_records(planted),
                                   compare.load_benchmark())
            print(f"== planted 2x slowdown of {slow}")
            compare.print_rows([row for row in rows if row["verdict"]])
            problems = evaluate(rows, slow)
            failures.extend(problems)
            print("PASS" if not problems else "\n".join(problems))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest " + ("passed" if not failures else "FAILED"))
    return 1 if failures else 0
