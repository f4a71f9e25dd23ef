"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run that wraps each layer's public entry
points and reports the per-layer metrics instead.  Times are calibrated
against a fixed interpreter probe (see ``workloads.Calibration``); the
report prints the raw clock reading beside each.  ``--out FILE`` appends
the full record (host stamp, calibrated and raw metrics, samples, notes)
as one JSON line, which is what compare mode reads::

    python3 perfbench/run.py compare BASE.jsonl NEW.jsonl
    python3 perfbench/run.py spread RESULTS.jsonl
    python3 perfbench/run.py selftest

``perfbench/spec.json`` defines each metric and names the end-to-end
metric and workload each per-layer metric should move.

The program is imported from ``src/`` next to this directory, never from
an installed copy; without it the run exits 2 and prints no result.
Exit status 1 means an answer check failed.

A run re-executes itself with ``PYTHONHASHSEED=0`` unless that is already
set: string hashing otherwise changes set and dict layouts from process to
process, which moved the storage timings by up to half between identical
runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import from it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


def _fs_type(path: str) -> str | None:
    """Filesystem type of ``path``: longest mount point that contains it."""
    try:
        with open("/proc/self/mounts", encoding="utf-8") as handle:
            mounts = [line.split()[1:3] for line in handle]
    except OSError:
        return None
    path = os.path.realpath(path)
    best = ("", None)
    for point, kind in mounts:
        inside = path == point or path.startswith(point.rstrip("/") + "/")
        if inside and len(point) > len(best[0]):
            best = (point, kind)
    return best[1]


def _git_commit() -> str | None:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over the program's Python sources, for checkouts without git."""
    digest = hashlib.sha256()
    for directory, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(directory, filename)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def host_stamp(args) -> dict:
    import numpy

    from workloads import FSYNC

    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "store_fs_type": _fs_type(ROOT),
        "fsync": FSYNC,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "slow": args.slow,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def _format_value(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(result: dict, stamp: dict, units: dict, trace: bool) -> None:
    print(f"# perfbench {stamp['workload']} seed={stamp['seed']} "
          f"seconds={stamp['seconds']} trace={int(trace)}")
    print("# host " + json.dumps(stamp, sort_keys=True))
    print("# samples " + json.dumps(result["samples"], sort_keys=True))
    print("# calibration " + json.dumps(result["notes"]["calibration"]))
    width = max(len(name) for name in result["metrics"])
    print(f"{'# metric':<{width}}  {'calibrated':>14}  {'raw':>14}  unit")
    for name, value in result["metrics"].items():
        print(f"{name:<{width}}  {_format_value(value):>14}  "
              f"{_format_value(result['raw_metrics'][name]):>14}  "
              f"{units[name]}")
    frac = result["failed"] / result["attempted"]
    print(f"{'failed_ops_frac':<{width}}  {_format_value(frac):>14}  ratio"
          f"  ({result['failed']}/{result['attempted']})")
    for error in result["errors"]:
        print(f"# error: {error}")


def _fixed_hash_seed(argv: list[str]) -> None:
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__), *argv], env)


def run_command(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this file")
    parser.add_argument("--slow", help="plant a 2x slowdown (self-test)")
    parser.add_argument("--plant-wrong-answer", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _fixed_hash_seed(argv)
    _import_program()

    import harness
    from compare import load_benchmark
    from layers import SLOWDOWN_TARGETS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(WORKLOADS)}")
    if args.slow is not None and args.slow not in SLOWDOWN_TARGETS:
        parser.error(f"unknown slowdown {args.slow!r}; "
                     f"expected one of {sorted(SLOWDOWN_TARGETS)}")
    trace = bool(args.trace)
    units = {entry["name"]: entry["unit"] for entry
             in load_benchmark()["per_layer" if trace else "end_to_end"]}
    result = harness.run(args.workload, args.seed, args.seconds, trace, ROOT,
                         slow=args.slow,
                         plant_wrong=args.plant_wrong_answer)
    stamp = host_stamp(args)
    print_report(result, stamp, units, trace)
    if args.out:
        record = {"stamp": stamp, **result}
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        import compare

        return compare.main(argv[1:])
    if argv and argv[0] == "spread":
        import compare

        return compare.spread_main(argv[1:])
    if argv and argv[0] == "selftest":
        import selftest

        return selftest.main(argv[1:])
    return run_command(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
