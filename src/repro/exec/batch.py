"""Batch query sessions: many frontend queries over one shared graph.

The "heavy traffic" half of the ROADMAP's north star: a
:class:`BatchSession` pins one read-only graph into a
:class:`~repro.exec.parallel.WorkerPool` and pushes whole *query batches*
— PathQL, mini-SPARQL and mini-Cypher statements mixed freely — through
it, one query per task descriptor.  The session guarantees:

- **deterministic ordering** — results come back in submission order,
  whatever order workers finished in (the pool's task ids are the batch
  indices);
- **per-query error isolation** — a query that fails to parse, references
  a capability the graph lacks, or exhausts its own budget slice produces
  a :class:`BatchResult` with ``status="error"``/``"budget"`` in its slot;
  the rest of the batch is unaffected.  Only a *batch-wide* event (the
  caller's context cancelled or globally exhausted, a worker process dying)
  escapes as an exception;
- **governed concurrency** — the caller's :class:`~repro.exec.Context` is
  subdivided across queries by :meth:`WorkerPool.subdivide` (deadline
  global, steps split per query with the
  :meth:`~repro.exec.Context.fraction` floors), and each worker's stats
  merge back at join;
- **store reuse** — each worker lazily builds the SPARQL triple store /
  Cypher property store for the shared graph once, in its ``caches`` dict,
  so a thousand-query batch pays the conversion per *worker*, not per
  query;
- **result reuse** — each worker also keeps one
  :class:`~repro.cache.QueryCache` in its ``caches`` dict (``cache=True``,
  the default), so a query repeated within a session answers from the
  cache.  This is always sound here: the pool's contract freezes the graph
  for the session's lifetime, so no invalidating mutation can occur — but
  the cache still carries the full version/footprint machinery, which is
  what :meth:`BatchSession.cache_stats` reports.

Results carry JSON-ready payloads (paths as text, rows as lists) rather
than live result objects: they crossed a process boundary, and the CLI
batch mode prints them verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BudgetExceeded, Cancelled, ReproError
from repro.exec.parallel import WorkerPool, register_task

#: Languages a batch query may use, mapped to frontend runners in the task.
LANGUAGES = ("pathql", "sparql", "cypher")


@dataclass(frozen=True)
class BatchQuery:
    """One statement of a batch: a language tag plus the query text."""

    language: str
    text: str

    def __post_init__(self) -> None:
        if self.language not in LANGUAGES:
            raise ValueError(f"unknown query language {self.language!r}; "
                             f"expected one of {LANGUAGES}")


@dataclass
class BatchResult:
    """Outcome of one batch slot, in submission order.

    ``status`` is ``"ok"`` (full-fidelity answer), ``"degraded"`` (the
    governor delivered a lower-quality answer — PathQL counts only),
    ``"budget"`` (this query's budget slice ran out with no fallback) or
    ``"error"`` (parse/evaluation failure).  ``value`` is the
    JSON-ready payload (shape depends on the language, see the task
    function); ``error`` is the one-line failure description otherwise.
    """

    index: int
    language: str
    text: str
    status: str
    value: dict | None = None
    error: str | None = None
    degradations: tuple = ()

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "degraded")

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "language": self.language,
            "query": self.text,
            "status": self.status,
            "value": self.value,
            "error": self.error,
            "degradations": [str(event) for event in self.degradations],
        }


def _pathql_value(result) -> dict:
    return {
        "mode": result.mode,
        "count": result.count,
        "paths": [path.to_text() for path in result.paths],
        "quality": result.quality,
    }


def _table_value(columns, rows) -> dict:
    return {"columns": list(columns),
            "rows": [list(row) for row in rows]}


@register_task("batch.query")
def _task_batch_query(state, payload, ctx, tracer):
    """Run one frontend query; always returns a result dict (isolation).

    :class:`Cancelled` is the one exception allowed to escape: it means
    the *batch* was cancelled (parent request or a sibling failure), not
    that this query failed, so it must reach the pool's join logic.
    """
    language = payload["language"]
    text = payload["text"]
    engine = payload.get("engine", "auto")
    graph = state["graph"]
    query_cache = None
    if payload.get("cache", True):
        query_cache = state["caches"].get("query_cache")
        if query_cache is None:
            from repro.cache import QueryCache

            query_cache = state["caches"]["query_cache"] = QueryCache()
    outcome = {"status": "ok", "value": None, "error": None,
               "degradations": []}
    try:
        if language == "pathql":
            from repro.query.pathql import run_pathql

            result = run_pathql(graph, text, ctx=ctx, tracer=tracer,
                                cache=query_cache, engine=engine)
            outcome["value"] = _pathql_value(result)
            if result.is_degraded:
                outcome["status"] = "degraded"
                outcome["degradations"] = [str(event)
                                           for event in result.degradations]
        elif language == "sparql":
            store = state["caches"].get("sparql_store")
            if store is None:
                from repro.query.sparql import store_for_graph

                store = state["caches"]["sparql_store"] = store_for_graph(graph)
            from repro.query.sparql import run_sparql

            result = run_sparql(store, text, ctx=ctx, tracer=tracer,
                                cache=query_cache, engine=engine)
            outcome["value"] = _table_value(
                [f"?{v}" for v in result.variables], result.rows)
        else:
            store = state["caches"].get("cypher_store")
            if store is None:
                from repro.query.cypherish import store_for_graph

                store = state["caches"]["cypher_store"] = store_for_graph(graph)
            from repro.query.cypherish import run_cypher

            result = run_cypher(store, text, ctx=ctx, tracer=tracer,
                                cache=query_cache, engine=engine)
            outcome["value"] = _table_value(result.columns, result.rows)
    except Cancelled:
        raise
    except BudgetExceeded as exceeded:
        outcome["status"] = "budget"
        outcome["error"] = str(exceeded)
    except ReproError as error:
        outcome["status"] = "error"
        outcome["error"] = f"{type(error).__name__}: {error}"
    return outcome


@register_task("batch.cache_stats")
def _task_cache_stats(state, payload, ctx, tracer):
    """Report this worker's query-cache counters (zeros if it has none)."""
    query_cache = state["caches"].get("query_cache")
    if query_cache is None:
        return {"hits": 0, "misses": 0, "stale": 0, "entries": 0,
                "max_entries": 0}
    return query_cache.stats()


class BatchSession:
    """A pinned (graph, pool) pair that runs query batches.

    Parameters mirror :class:`~repro.exec.parallel.WorkerPool`; the session
    owns its pool and is a context manager::

        with BatchSession(graph, workers=4) as session:
            results = session.run_batch([
                BatchQuery("pathql", "PATHS MATCHING contact LENGTH 1 COUNT"),
                BatchQuery("cypher", "MATCH (p:person) RETURN p.name"),
            ])

    ``run_batch`` distributes queries round-robin over the workers
    (query *i* on worker ``i % workers`` — deterministic, so fault
    campaigns can target the worker a specific query runs on) and returns
    one :class:`BatchResult` per query, in order.

    ``engine`` is the session-wide evaluation-engine selector
    (``auto``/``scalar``/``vector``), forwarded to every frontend runner;
    the answer payloads are engine-independent.
    """

    def __init__(self, graph, workers: int | None = None, *,
                 fault_plans: dict | None = None, cache: bool = True,
                 engine: str = "auto") -> None:
        from repro.core.rpq.vectorized.engine import ENGINES

        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; "
                             f"expected one of {ENGINES}")
        self.pool = WorkerPool(graph, workers, fault_plans=fault_plans)
        self.graph = graph
        self.cache = cache
        self.engine = engine

    def __enter__(self) -> "BatchSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def close(self) -> None:
        self.pool.close()

    @property
    def workers(self) -> int:
        return self.pool.workers

    def run_batch(self, queries, *, ctx=None, tracer=None) -> list[BatchResult]:
        """Run every query; return per-query results in submission order.

        Accepts :class:`BatchQuery` objects or plain ``(language, text)``
        pairs / ``{"language": ..., "query": ...}`` dicts (the CLI's batch
        file rows).  Raises only for batch-wide failures:
        :class:`~repro.errors.BudgetExceeded` when the *caller's* budget is
        globally exhausted, :class:`~repro.errors.Cancelled` on
        cancellation, :class:`~repro.errors.WorkerFailed` if a worker dies.
        """
        batch = [self._coerce(query) for query in queries]
        tasks = [("batch.query", {"language": query.language,
                                  "text": query.text,
                                  "cache": self.cache,
                                  "engine": self.engine})
                 for query in batch]
        outcomes = self.pool.run_tasks(tasks, ctx=ctx, tracer=tracer)
        results = []
        for index, (query, outcome) in enumerate(zip(batch, outcomes)):
            results.append(BatchResult(
                index=index, language=query.language, text=query.text,
                status=outcome["status"], value=outcome["value"],
                error=outcome["error"],
                degradations=tuple(outcome["degradations"])))
        return results

    def cache_stats(self) -> dict:
        """Aggregate query-cache counters across every worker.

        Sends one ``batch.cache_stats`` probe per worker (task *i* lands on
        worker ``i % workers``, so ``workers`` probes cover the pool) and
        sums the counters.  Returns ``{"hits": ..., "misses": ...,
        "stale": ..., "entries": ..., "workers": [...]}`` where ``workers``
        holds the per-worker dicts in worker order.
        """
        tasks = [("batch.cache_stats", {})] * self.pool.workers
        per_worker = self.pool.run_tasks(tasks)
        totals = {"hits": 0, "misses": 0, "stale": 0, "entries": 0}
        for stats in per_worker:
            for field in totals:
                totals[field] += stats[field]
        totals["workers"] = per_worker
        return totals

    @staticmethod
    def _coerce(query) -> BatchQuery:
        if isinstance(query, BatchQuery):
            return query
        if isinstance(query, dict):
            return BatchQuery(query["language"],
                              query.get("query", query.get("text", "")))
        language, text = query
        return BatchQuery(language, text)


def batch_exit_status(results) -> str:
    """Collapse a batch to the CLI's exit semantics.

    ``"ok"`` — every query full-fidelity; ``"degraded"`` — all answered
    but at least one degraded or budget-stopped (CLI exit 3, matching the
    single-query budget exit); ``"error"`` — at least one query failed
    outright (CLI exit 1).
    """
    worst = "ok"
    for result in results:
        if result.status == "error":
            return "error"
        if result.status in ("degraded", "budget"):
            worst = "degraded"
    return worst
