"""Command-line interface: query graph files without writing Python.

Usage (after ``pip install -e .``, or via ``python -m repro.cli``)::

    python -m repro.cli pathql  graph.json "PATHS MATCHING ?person/contact/?infected LENGTH 1"
    python -m repro.cli sparql  graph.json "SELECT ?x WHERE { ?x <rdf:type> <bus> . }"
    python -m repro.cli cypher  graph.json "MATCH (p:person) RETURN p.name"
    python -m repro.cli summary graph.json
    python -m repro.cli fig2    --out graph.json       # write the paper's example
    python -m repro.cli contact --people 50 --out world.json

Graph files use the JSON interchange format of :mod:`repro.models.io`;
``sparql`` loads a labeled/property graph by converting it to RDF triples
first (node labels become rdf:type).

``batch`` runs many queries from a JSON (or JSON-lines) file over one
graph, optionally across worker processes::

    python -m repro.cli batch graph.json queries.json --workers 4 --json

where each batch entry is ``{"language": "pathql"|"sparql"|"cypher",
"query": "..."}``.  Exit status: 0 all ok, 3 if any query degraded or ran
out of budget, 1 if any query failed outright.

``checkpoint`` and ``recover`` manage *durable stores* — directories
holding a write-ahead log plus snapshots (DESIGN.md §4h)::

    python -m repro.cli checkpoint store/ --ingest graph.json
    python -m repro.cli recover store/ --json
    python -m repro.cli cypher --durable store/ "MATCH (p:person) RETURN p"

``--durable`` makes the query commands treat their graph argument as a
store directory (opened read-only; recovery happens in memory, nothing on
disk is repaired).  ``--from-store`` also names a store directory but
skips recovery entirely: queries are answered straight from the newest
checkpoint's mmapped CSR segments (:mod:`repro.storage.diskread`) with no
WAL replay and no full-graph materialization — the cold-start read path.
Exit status: 4 for an unusable store, and ``recover`` exits 5 when the
store was recovered but needed repairs (torn tail truncated, segments
quarantined, or a corrupt snapshot skipped).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import (
    BudgetExceeded,
    ConversionError,
    ReproError,
    StorageError,
)
from repro.exec import Budget, Context
from repro.models import figure2_property
from repro.models.io import dumps, loads
from repro.obs import (
    Metrics,
    Tracer,
    explain_cypher,
    explain_pathql,
    explain_sparql,
)
from repro.query import run_cypher, run_pathql, run_sparql
from repro.util import format_table

# Exit code for a query stopped by its execution budget (2 is argparse's).
EXIT_BUDGET_EXCEEDED = 3
# A durable store that could not be opened at all.
EXIT_STORAGE_ERROR = 4
# ``recover`` succeeded but had to repair (truncate/quarantine/skip) state.
EXIT_RECOVERED_WITH_LOSS = 5


def _make_context(args: argparse.Namespace) -> Context | None:
    """Build an execution context from --timeout/--max-steps, if any.

    ``--stats`` alone also creates a context (with an unlimited budget), so
    per-query execution statistics can be collected without enforcing
    limits.
    """
    if args.timeout is None and args.max_steps is None and not args.stats:
        return None
    budget = Budget(deadline=args.timeout, max_steps=args.max_steps)
    return Context(budget)


def _make_tracer(args: argparse.Namespace) -> Tracer | None:
    """Build a tracer when any observability output was requested.

    ``tracer=None`` otherwise, so untraced CLI runs keep the library's
    zero-overhead fast path (DESIGN.md §4d).
    """
    if args.trace or args.trace_out or args.metrics_out:
        return Tracer()
    return None


def _print_explain(report, args: argparse.Namespace) -> int:
    print(report.to_json() if args.explain_json else report.to_text())
    return 0


def _make_cache(args: argparse.Namespace):
    """A QueryCache when --cache/--cache-stats asks for one, else None."""
    if getattr(args, "cache", False) or getattr(args, "cache_stats", False):
        from repro.cache import QueryCache

        return QueryCache()
    return None


def _print_cache_stats(cache, args: argparse.Namespace) -> None:
    if cache is None or not getattr(args, "cache_stats", False):
        return
    rows = [[name, value] for name, value in cache.stats().items()]
    print(format_table(["cache statistic", "value"], rows), file=sys.stderr)


def _emit_obs(tracer: Tracer | None, args: argparse.Namespace,
              cache=None) -> None:
    """Emit the human-readable trace tree and/or JSON trace/metrics files."""
    if tracer is None:
        return
    if args.trace:
        print(tracer.format_tree(), file=sys.stderr)
    if args.trace_out:
        _write(args.trace_out, tracer.to_json())
    if args.metrics_out:
        metrics = Metrics()
        metrics.observe_trace(tracer)
        if cache is not None:
            stats = cache.stats()
            metrics.counter("cache.hits").inc(stats["hits"])
            metrics.counter("cache.misses").inc(stats["misses"])
            metrics.counter("cache.stale").inc(stats["stale"])
        _write(args.metrics_out, metrics.to_json())


def _print_stats(ctx: Context | None, args: argparse.Namespace) -> None:
    if ctx is None or not args.stats:
        return
    print(format_table(["statistic", "value"], ctx.stats.as_rows()),
          file=sys.stderr)


def _budget_exceeded(exceeded: BudgetExceeded, ctx: Context | None,
                     args: argparse.Namespace) -> int:
    print(f"budget exceeded: {exceeded}", file=sys.stderr)
    _print_stats(ctx, args)
    return EXIT_BUDGET_EXCEEDED


def _load_graph(path: str):
    with open(path, encoding="utf-8") as handle:
        return loads(handle.read())


def _resolve_graph(args: argparse.Namespace):
    """The query-command graph: a JSON file, or a durable store directory.

    With ``--durable`` the graph argument names a store; it is opened
    read-only (recovery runs in memory, nothing on disk is modified) and
    the recovered in-memory graph is returned.  A non-clean recovery is
    noted on stderr but still served — the recovered prefix is consistent.

    With ``--from-store`` the store's newest checkpoint CSR segments are
    mmapped and queried directly: no WAL replay, no snapshot ``loads()``,
    the cold-start read path of :mod:`repro.storage.diskread`.
    """
    if getattr(args, "from_store", False):
        from repro.storage import open_latest_segments

        return open_latest_segments(args.graph)
    if getattr(args, "durable", False):
        from repro.storage import DurableGraph

        store = DurableGraph.open(args.graph, read_only=True)
        report = store.recovery
        if not report.clean:
            print(f"# store recovered with repairs pending: "
                  f"{report.truncated_reason or 'corrupt snapshot skipped'} "
                  f"(run 'recover' to repair on disk)", file=sys.stderr)
        return store.graph
    return _load_graph(args.graph)


def _apply_as_of(graph, args: argparse.Namespace):
    """Time-travel the graph when ``--as-of N`` was given.

    Returns the reconstructed graph (tagged ``as_of_version``), the
    original graph when the flag is absent, or ``None`` after printing
    the reason a reconstruction is impossible — a future version, a
    version past the mutation log's retained window, or a graph with no
    log at all (the mmapped ``--from-store`` read path) — a usage-level
    failure, exit 2.
    """
    version = getattr(args, "as_of", None)
    if version is None:
        return graph
    from repro.errors import TimeTravelError
    from repro.ivm import as_of

    try:
        return as_of(graph, version)
    except TimeTravelError as error:
        print(f"--as-of {version}: {error}", file=sys.stderr)
        return None


def _validate_workers(args: argparse.Namespace) -> int | None:
    """Reject nonsensical --workers values; ``None`` means valid."""
    if args.workers is not None and args.workers < 1:
        print(f"--workers must be a positive integer, got {args.workers}",
              file=sys.stderr)
        return 2
    return None


def _cmd_pathql(args: argparse.Namespace) -> int:
    graph = _apply_as_of(_resolve_graph(args), args)
    if graph is None:
        return 2
    ctx = _make_context(args)
    if args.explain or args.explain_json:
        return _print_explain(
            explain_pathql(graph, args.query, governed=ctx is not None,
                           engine=args.engine,
                           as_of=getattr(args, "as_of", None)), args)
    tracer = _make_tracer(args)
    cache = _make_cache(args)
    try:
        result = run_pathql(graph, args.query, ctx=ctx, tracer=tracer,
                            cache=cache, engine=args.engine)
    except BudgetExceeded as exceeded:
        _emit_obs(tracer, args, cache)
        return _budget_exceeded(exceeded, ctx, args)
    if result.is_degraded:
        steps = "; ".join(str(event) for event in result.degradations)
        print(f"# DEGRADED ({result.quality}): {steps}", file=sys.stderr)
    if result.mode in ("count", "count-approx"):
        print(result.count)
    else:
        for path in result.paths:
            print(path.to_text())
        if result.mode == "sample" and result.count is not None:
            print(f"# support size: {result.count}", file=sys.stderr)
    _emit_obs(tracer, args, cache)
    _print_cache_stats(cache, args)
    _print_stats(ctx, args)
    return 0


def _cmd_sparql(args: argparse.Namespace) -> int:
    from repro.query.sparql import store_for_graph

    graph = _apply_as_of(_resolve_graph(args), args)
    if graph is None:
        return 2
    try:
        store = store_for_graph(graph)
    except ConversionError:
        print("sparql needs a labeled or property graph file", file=sys.stderr)
        return 2
    ctx = _make_context(args)
    if args.explain or args.explain_json:
        return _print_explain(
            explain_sparql(store, args.query, engine=args.engine,
                           as_of=getattr(args, "as_of", None)), args)
    tracer = _make_tracer(args)
    cache = _make_cache(args)
    try:
        result = run_sparql(store, args.query, ctx=ctx, tracer=tracer,
                            cache=cache, engine=args.engine)
    except BudgetExceeded as exceeded:
        _emit_obs(tracer, args, cache)
        return _budget_exceeded(exceeded, ctx, args)
    print(format_table([f"?{v}" for v in result.variables],
                       [[v if v is not None else "" for v in row]
                        for row in result.rows]))
    _emit_obs(tracer, args, cache)
    _print_cache_stats(cache, args)
    _print_stats(ctx, args)
    return 0


def _cmd_cypher(args: argparse.Namespace) -> int:
    from repro.query.cypherish import store_for_graph

    graph = _apply_as_of(_resolve_graph(args), args)
    if graph is None:
        return 2
    try:
        store = store_for_graph(graph)
    except ConversionError:
        print("cypher needs a property graph file", file=sys.stderr)
        return 2
    ctx = _make_context(args)
    if args.explain or args.explain_json:
        return _print_explain(
            explain_cypher(store, args.query, engine=args.engine,
                           as_of=getattr(args, "as_of", None)), args)
    tracer = _make_tracer(args)
    cache = _make_cache(args)
    try:
        result = run_cypher(store, args.query, ctx=ctx, tracer=tracer,
                            cache=cache, engine=args.engine)
    except BudgetExceeded as exceeded:
        _emit_obs(tracer, args, cache)
        return _budget_exceeded(exceeded, ctx, args)
    print(format_table(result.columns,
                       [[v if v is not None else "" for v in row]
                        for row in result.rows]))
    _emit_obs(tracer, args, cache)
    _print_cache_stats(cache, args)
    _print_stats(ctx, args)
    return 0


def _load_batch_queries(path: str) -> list[dict]:
    """Parse a batch file: a JSON array, or one JSON object per line."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("["):
        entries = json.loads(text)
    else:
        entries = [json.loads(line) for line in text.splitlines()
                   if line.strip()]
    if not isinstance(entries, list):
        raise ValueError("batch file must hold a JSON array or JSON lines")
    for entry in entries:
        if not isinstance(entry, dict) or "language" not in entry \
                or ("query" not in entry and "text" not in entry):
            raise ValueError(
                f"each batch entry needs 'language' and 'query' keys, "
                f"got {entry!r}")
    return entries


def _cmd_batch(args: argparse.Namespace) -> int:
    invalid = _validate_workers(args)
    if invalid is not None:
        return invalid
    from repro.exec import BatchSession, batch_exit_status

    graph = _load_graph(args.graph)
    try:
        entries = _load_batch_queries(args.queries)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"cannot read batch file: {error}", file=sys.stderr)
        return 2
    ctx = _make_context(args)
    tracer = _make_tracer(args)
    cache_stats = None
    try:
        with BatchSession(graph, args.workers, cache=not args.no_cache,
                          engine=args.engine) as session:
            results = session.run_batch(entries, ctx=ctx, tracer=tracer)
            if args.cache_stats:
                cache_stats = session.cache_stats()
    except BudgetExceeded as exceeded:
        _emit_obs(tracer, args)
        return _budget_exceeded(exceeded, ctx, args)
    except ReproError as error:
        print(f"batch failed: {error}", file=sys.stderr)
        _emit_obs(tracer, args)
        return 1
    if args.json:
        payload = {"schema": "repro.batch", "version": 1,
                   "workers": session.workers,
                   "results": [r.to_dict() for r in results]}
        if cache_stats is not None:
            payload["cache"] = cache_stats
        print(json.dumps(payload, indent=2))
    else:
        for result in results:
            if not result.ok:
                print(f"[{result.index}] {result.language} "
                      f"{result.status.upper()}: {result.error}")
                continue
            value = result.value
            tag = (f" ({result.status})" if result.status != "ok" else "")
            if result.language == "pathql":
                body = (str(value["count"]) if value["count"] is not None
                        and not value["paths"] else "; ".join(value["paths"]))
            else:
                body = f"{len(value['rows'])} rows"
            print(f"[{result.index}] {result.language}{tag}: {body}")
    if cache_stats is not None and not args.json:
        rows = [[name, value] for name, value in cache_stats.items()
                if name != "workers"]
        print(format_table(["cache statistic", "value"], rows),
              file=sys.stderr)
    _emit_obs(tracer, args)
    _print_stats(ctx, args)
    status = batch_exit_status(results)
    if status == "error":
        return 1
    if status == "degraded":
        for result in results:
            if result.status in ("degraded", "budget"):
                detail = result.error or "; ".join(result.degradations)
                print(f"# DEGRADED [{result.index}]: {detail}",
                      file=sys.stderr)
        return EXIT_BUDGET_EXCEEDED
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    graph = _resolve_graph(args)
    from repro.analytics import connected_components, diameter

    rows = [["nodes", graph.node_count()],
            ["edges", graph.edge_count()],
            ["weak components", len(connected_components(graph))],
            ["diameter (undirected)", diameter(graph)]]
    label_of = getattr(graph, "node_label", None)
    if label_of is not None:
        from collections import Counter

        for label, count in sorted(Counter(
                label_of(n) for n in graph.nodes()).items(), key=str):
            rows.append([f"label {label or '(none)'!s}", count])
    print(format_table(["statistic", "value"], rows))
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    """Open (recovering) a store, optionally ingest a graph, snapshot it."""
    from repro.storage import DurableGraph

    with DurableGraph.open(args.store, model=args.model,
                           fsync=args.fsync) as store:
        report = store.recovery
        if not report.clean:
            print(f"# recovered with repairs: "
                  f"{report.truncated_reason or 'corrupt snapshot skipped'}",
                  file=sys.stderr)
        if args.ingest:
            applied = store.ingest(_load_graph(args.ingest))
            print(f"# ingested {applied} mutations "
                  f"(version {store.version})", file=sys.stderr)
        path = store.checkpoint()
    print(path)
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    """Recover a store, repairing on disk unless --dry-run.

    Exit status 0 for a clean recovery, {EXIT_RECOVERED_WITH_LOSS} when the
    store came back but repairs were needed, {EXIT_STORAGE_ERROR} when it
    could not be opened at all (the latter handled in :func:`main`).
    """
    import os

    from repro.storage import DurableGraph

    if not os.path.isdir(args.store):
        # Recovering a path that holds nothing must not conjure an empty
        # store and report it "clean" — that is how data loss gets missed.
        raise StorageError(f"no durable store at {args.store}")
    with DurableGraph.open(args.store, read_only=args.dry_run) as store:
        report = store.recovery
        stats = store.stats()
    if args.json:
        print(json.dumps({"schema": "repro.storage.recovery", "version": 1,
                          "dry_run": args.dry_run,
                          "report": report.to_dict(),
                          "nodes": stats["nodes"], "edges": stats["edges"]},
                         indent=2))
    else:
        rows = [[key, value] for key, value in report.to_dict().items()
                if key not in ("snapshots_rejected", "quarantined")]
        rows.append(["snapshots rejected", len(report.snapshots_rejected)])
        rows.append(["segments quarantined", len(report.quarantined)])
        rows.append(["nodes", stats["nodes"]])
        rows.append(["edges", stats["edges"]])
        print(format_table(["recovery", "value"], rows))
        for path, reason in report.snapshots_rejected:
            print(f"# rejected snapshot {path}: {reason}", file=sys.stderr)
        for path in report.quarantined:
            print(f"# quarantined segment {path}", file=sys.stderr)
    return 0 if report.clean else EXIT_RECOVERED_WITH_LOSS


def _cmd_fig2(args: argparse.Namespace) -> int:
    _write(args.out, dumps(figure2_property(), indent=2))
    return 0


def _cmd_contact(args: argparse.Namespace) -> int:
    from repro.datasets import generate_contact_graph

    graph = generate_contact_graph(args.people, args.buses, args.addresses,
                                   args.companies, rng=args.seed,
                                   infection_rate=args.infection_rate)
    _write(args.out, dumps(graph, indent=2))
    return 0


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        print(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Query graph files (models of the SIGMOD'21 tutorial).")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_governor_flags(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="deadline for query evaluation; PathQL COUNT degrades "
                 "gracefully, other modes exit with status "
                 f"{EXIT_BUDGET_EXCEEDED} when the budget runs out")
        subparser.add_argument(
            "--max-steps", type=int, default=None, metavar="N",
            help="cap on evaluation checkpoints (a deterministic work budget)")
        subparser.add_argument(
            "--stats", action="store_true",
            help="print per-query execution statistics to stderr")

    def add_obs_flags(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--explain", action="store_true",
            help="print the evaluation strategy (chain vs product, index "
                 "plan, degradation ladder) instead of running the query")
        subparser.add_argument(
            "--explain-json", action="store_true",
            help="like --explain, but as machine-readable JSON")
        subparser.add_argument(
            "--trace", action="store_true",
            help="print a per-phase span tree (timings, steps, cache "
                 "hits) to stderr after the query runs")
        subparser.add_argument(
            "--trace-out", default=None, metavar="FILE",
            help="write the span tree as JSON to FILE ('-' for stdout)")
        subparser.add_argument(
            "--metrics-out", default=None, metavar="FILE",
            help="write aggregated counters/histograms as JSON to FILE")

    def add_engine_flag(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--engine", choices=("auto", "scalar", "vector"), default="auto",
            help="evaluation engine: 'scalar' runs the per-node loops, "
                 "'vector' forces the numpy kernel (errors if numpy is "
                 "missing), 'auto' (default) picks by graph size; the "
                 "chosen engine shows up in --stats and --trace output")

    def add_durable_flag(subparser: argparse.ArgumentParser) -> None:
        group = subparser.add_mutually_exclusive_group()
        group.add_argument(
            "--durable", action="store_true",
            help="treat GRAPH as a durable store directory (WAL + "
                 "snapshots); recovery runs in memory, read-only — exit "
                 f"status {EXIT_STORAGE_ERROR} if the store is unusable")
        group.add_argument(
            "--from-store", action="store_true",
            help="treat GRAPH as a durable store directory and answer "
                 "from its newest checkpoint's CSR segments via mmap — "
                 "no WAL replay, no full materialization (mutations since "
                 "the last checkpoint are not visible; run 'checkpoint' "
                 f"first) — exit status {EXIT_STORAGE_ERROR} if no usable "
                 "segments exist")

    def add_as_of_flag(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--as-of", type=int, default=None, metavar="N",
            help="evaluate against the graph as it stood at mutation-log "
                 "version N (transaction-time travel, replayed from the "
                 "bounded mutation log; exit 2 if N is outside the "
                 "retained window)")

    def add_cache_flags(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--cache", action="store_true",
            help="memoize results in a version-checked query cache (one "
                 "process = one query, so this mostly exercises/diagnoses "
                 "the cache path; batch mode caches by default)")
        subparser.add_argument(
            "--cache-stats", action="store_true",
            help="print cache hit/miss/stale counters to stderr "
                 "(implies --cache)")

    pathql = commands.add_parser("pathql", help="run a PathQL statement")
    pathql.add_argument("graph")
    pathql.add_argument("query")
    add_governor_flags(pathql)
    add_obs_flags(pathql)
    add_engine_flag(pathql)
    add_cache_flags(pathql)
    add_as_of_flag(pathql)
    add_durable_flag(pathql)
    pathql.set_defaults(handler=_cmd_pathql)

    sparql = commands.add_parser("sparql", help="run a mini-SPARQL query")
    sparql.add_argument("graph")
    sparql.add_argument("query")
    add_governor_flags(sparql)
    add_obs_flags(sparql)
    add_engine_flag(sparql)
    add_cache_flags(sparql)
    add_as_of_flag(sparql)
    add_durable_flag(sparql)
    sparql.set_defaults(handler=_cmd_sparql)

    cypher = commands.add_parser("cypher", help="run a mini-Cypher query")
    cypher.add_argument("graph")
    cypher.add_argument("query")
    add_governor_flags(cypher)
    add_obs_flags(cypher)
    add_engine_flag(cypher)
    add_cache_flags(cypher)
    add_as_of_flag(cypher)
    add_durable_flag(cypher)
    cypher.set_defaults(handler=_cmd_cypher)

    batch = commands.add_parser(
        "batch", help="run a file of PathQL/SPARQL/Cypher queries, "
                      "optionally across worker processes")
    batch.add_argument("graph")
    batch.add_argument("queries",
                       help="JSON array (or JSON lines) of "
                            '{"language": ..., "query": ...} entries')
    batch.add_argument("--json", action="store_true",
                       help="print the full batch result as one JSON document")
    add_governor_flags(batch)
    add_engine_flag(batch)
    batch.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="evaluate across N worker processes (fork-shared graph); "
             "1 or unset runs serially")
    batch.add_argument(
        "--trace", action="store_true",
        help="print the merged span tree (all workers) to stderr")
    batch.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the merged span tree as JSON to FILE ('-' for stdout)")
    batch.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write aggregated counters/histograms as JSON to FILE")
    batch.add_argument(
        "--no-cache", action="store_true",
        help="disable the per-worker query cache (on by default: the "
             "batch graph is frozen for the session, so caching is free)")
    batch.add_argument(
        "--cache-stats", action="store_true",
        help="print aggregated per-worker cache counters to stderr "
             "(or under 'cache' with --json)")
    batch.set_defaults(handler=_cmd_batch)

    summary = commands.add_parser("summary", help="print graph statistics")
    summary.add_argument("graph")
    add_durable_flag(summary)
    summary.set_defaults(handler=_cmd_summary)

    checkpoint = commands.add_parser(
        "checkpoint",
        help="snapshot a durable store (creating it if missing), "
             "optionally ingesting a graph file first")
    checkpoint.add_argument("store",
                            help="durable store directory (WAL + snapshots)")
    checkpoint.add_argument(
        "--ingest", default=None, metavar="FILE",
        help="graph JSON file whose content is loaded into the store as "
             "durable mutations before the snapshot")
    checkpoint.add_argument(
        "--model", choices=("labeled", "property"), default=None,
        help="graph model for a new store (default: property); an "
             "existing store's model cannot be changed")
    checkpoint.add_argument(
        "--fsync", choices=("always", "batch", "never"), default="batch",
        help="WAL fsync policy while ingesting (default: batch)")
    checkpoint.set_defaults(handler=_cmd_checkpoint)

    recover = commands.add_parser(
        "recover",
        help="recover a durable store, repairing torn WAL tails on disk; "
             f"exit {EXIT_RECOVERED_WITH_LOSS} if repairs were needed, "
             f"{EXIT_STORAGE_ERROR} if the store is unusable")
    recover.add_argument("store",
                         help="durable store directory (WAL + snapshots)")
    recover.add_argument("--json", action="store_true",
                         help="print the recovery report as JSON")
    recover.add_argument(
        "--dry-run", action="store_true",
        help="report what recovery would do without modifying the store")
    recover.set_defaults(handler=_cmd_recover)

    fig2 = commands.add_parser("fig2", help="write the Figure 2 property graph")
    fig2.add_argument("--out", default="-")
    fig2.set_defaults(handler=_cmd_fig2)

    contact = commands.add_parser("contact",
                                  help="generate a contact-tracing world")
    contact.add_argument("--people", type=int, default=30)
    contact.add_argument("--buses", type=int, default=4)
    contact.add_argument("--addresses", type=int, default=12)
    contact.add_argument("--companies", type=int, default=2)
    contact.add_argument("--infection-rate", type=float, default=0.15)
    contact.add_argument("--seed", type=int, default=0)
    contact.add_argument("--out", default="-")
    contact.set_defaults(handler=_cmd_contact)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except StorageError as error:
        print(f"storage error: {error}", file=sys.stderr)
        return EXIT_STORAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
