"""Compare two result sets, or report the spread of one.

A result set is a JSON-lines file written by ``run.py --out``: one record
per run, each with its stamp (workload, seed, trace) and metrics.

``compare BASE NEW`` prints one row per (end-to-end metric, workload) pair
against the bounds in ``BENCHMARK.json``:

- ``worse`` / ``improved``: the medians differ by more than the bound;
- ``unchanged``: they differ by less and both sides' spreads (quartile
  distance over median) are within the bound;
- ``unresolved``: a spread exceeds the bound, unless every run of one side
  beats every run of the other.

It then prints per-layer deltas from the traced runs.  Per-layer metrics
have no bound; a layer time metric is flagged ``moved`` when its median
changes by more than :data:`LAYER_FLAG` of its base.  Layer self times are
compared per op, so a run that completed fewer ops still compares fairly.

``spread FILE`` prints each end-to-end metric's quartile spread per
workload, as a share of its median, beside a third of its bound: the
steadiness target.  Both commands exit 1 when a row needs attention.

Both read the calibrated times.  ``compare`` also prints each row's
verdict on the raw clock readings every record keeps beside them, so a
verdict the calibration changed shows.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

LAYER_FLAG = 0.5
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def group(records: list[dict], trace: int, key: str = "metrics") -> dict:
    """``{workload: {metric: [values...]}}`` for one trace mode, from each
    record's ``key`` (``metrics`` or ``raw_metrics``)."""
    grouped: dict = {}
    for record in records:
        stamp = record["stamp"]
        if stamp["trace"] != trace:
            continue
        metrics = grouped.setdefault(stamp["workload"], {})
        for name, value in record[key].items():
            if name.endswith(".self_ms") or name == "unattributed_ms":
                value = value / max(record["attempted"], 1)
            metrics.setdefault(name, []).append(value)
    return grouped


def spread(values: list[float]) -> float:
    """Quartile distance over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    median = statistics.median(values)
    if median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def verdict(base: list[float], new: list[float], bound: float,
            better: str) -> tuple[str, float]:
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    change = (new_median - base_median) / base_median if base_median else 0.0
    gain = -change if better == "lower" else change
    noisy = max(spread(base), spread(new)) > bound
    sign = 1 if better == "higher" else -1
    separated = (min(new) * sign > max(base) * sign
                 or max(new) * sign < min(base) * sign)
    if gain < -bound:
        label = "worse"
    elif gain > bound:
        label = "improved"
    else:
        label = "unchanged"
    if noisy and not (label != "unchanged" and separated):
        label = "unresolved"
    return label, change


def compare(base_records: list[dict], new_records: list[dict],
            benchmark: dict, key: str = "metrics") -> list[dict]:
    """Rows for every end-to-end pair and every per-layer metric of
    ``benchmark`` (the contents of ``BENCHMARK.json``)."""
    rows = []
    base, new = group(base_records, 0, key), group(new_records, 0, key)
    for workload in sorted(set(base) & set(new)):
        for entry in benchmark["end_to_end"]:
            name = entry["name"]
            if name not in base[workload] or name not in new[workload]:
                continue
            label, change = verdict(base[workload][name], new[workload][name],
                                    entry["bound"], entry["better"])
            rows.append({"kind": "end_to_end", "workload": workload,
                         "metric": name, "verdict": label, "change": change,
                         "bound": entry["bound"],
                         "base": statistics.median(base[workload][name]),
                         "new": statistics.median(new[workload][name])})
    base, new = group(base_records, 1, key), group(new_records, 1, key)
    for workload in sorted(set(base) & set(new)):
        for entry in benchmark["per_layer"]:
            name = entry["name"]
            if name not in base[workload] or name not in new[workload]:
                continue
            before = statistics.median(base[workload][name])
            after = statistics.median(new[workload][name])
            change = (after - before) / before if before else 0.0
            # Only layer times can move; the wall time and the benchmark's
            # own unattributed time are context.
            moved = entry["unit"] == "ms" and abs(change) > LAYER_FLAG \
                and name not in ("traced_wall_ms", "unattributed_ms")
            rows.append({"kind": "per_layer", "workload": workload,
                         "metric": name, "verdict": "moved" if moved else "",
                         "change": change, "base": before, "new": after})
    return rows


def flagged(rows: list[dict], workload: str) -> set[str]:
    """Metric names a comparison flags on ``workload``: worse, improved or
    moved, or unresolved with medians further apart than the bound (an
    unresolved row whose medians agree within it names no change)."""
    return {row["metric"] for row in rows if row["workload"] == workload
            and (row["verdict"] in ("worse", "improved", "moved")
                 or (row["verdict"] == "unresolved"
                     and abs(row["change"]) > row["bound"]))}


def print_rows(rows: list[dict]) -> None:
    for row in rows:
        per_op = " /op" if row["metric"].endswith(".self_ms") or \
            row["metric"] == "unattributed_ms" else ""
        raw = f"  (raw: {row['raw_verdict'] or '-'})" \
            if "raw_verdict" in row else ""
        print(f"{row['kind']:<10}  {row['workload']:<13}  "
              f"{row['metric']:<40}  {row['base']:>12.6g}  "
              f"{row['new']:>12.6g}{per_op:<4}  {row['change']:>+8.1%}  "
              f"{row['verdict']}{raw}")


def print_spread(records: list[dict], benchmark: dict) -> int:
    attention = 0
    for workload, metrics in sorted(group(records, 0).items()):
        for entry in benchmark["end_to_end"]:
            name = entry["name"]
            values = metrics.get(name)
            if not values:
                continue
            share = spread(values)
            target = entry["bound"] / 3
            ok = share < target or name == "setup_s"
            attention += not ok
            print(f"{workload:<13}  {name:<20}  n={len(values):<3} "
                  f"median={statistics.median(values):<12.6g} "
                  f"spread={share:6.1%}  target<{target:5.1%}  "
                  f"{'ok' if ok else 'WIDE'}")
    return 1 if attention else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare BASE.jsonl NEW.jsonl", file=sys.stderr)
        return 2
    base, new = load_records(argv[0]), load_records(argv[1])
    benchmark = load_benchmark()
    rows = compare(base, new, benchmark)
    raw = {(row["kind"], row["workload"], row["metric"]): row["verdict"]
           for row in compare(base, new, benchmark, "raw_metrics")}
    for row in rows:
        row["raw_verdict"] = raw[row["kind"], row["workload"], row["metric"]]
    print_rows(rows)
    return 1 if any(row["verdict"] in ("worse", "unresolved")
                    for row in rows) else 0


def spread_main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: run.py spread RESULTS.jsonl", file=sys.stderr)
        return 2
    return print_spread(load_records(argv[0]), load_benchmark())
