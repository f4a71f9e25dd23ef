"""WorkerPool semantics: budgets, faults, traces, batch sessions.

This file pins the pool's contracts one by one, driving
:meth:`WorkerPool.run_tasks` with the test-only tasks registered below —
budget subdivision and global binding, the stats merge, two-way
cancellation, per-worker fault targeting, error ranking, deterministic
trace merging, recovery after a failed run, and the BatchSession's
per-query error isolation.  The RPQ tasks run the serial entry points on
the worker's fork-inherited graph, so each task is one whole query, as in
a batch.
"""

from __future__ import annotations

import json

import pytest

from repro.core.rpq import count_paths_exact, endpoint_pairs, parse_regex
from repro.datasets import random_labeled_graph
from repro.errors import BudgetExceeded, Cancelled, WorkerFailed
from repro.exec import (
    BatchQuery,
    BatchSession,
    Budget,
    Context,
    FaultInjector,
    WorkerPool,
    batch_exit_status,
    fork_available,
)
from repro.exec.budget import MIN_FRACTION_SECONDS
from repro.exec.parallel import register_task
from repro.models import figure2_labeled, figure2_property
from repro.obs import Tracer


@register_task("test.echo")
def _task_echo(state, payload, ctx, tracer):
    return {"payload": payload, "worker": state["index"]}


@register_task("test.boom")
def _task_boom(state, payload, ctx, tracer):
    raise ValueError(payload["message"])


@register_task("test.unpicklable")
def _task_unpicklable(state, payload, ctx, tracer):
    return lambda: None


@register_task("test.spin")
def _task_spin(state, payload, ctx, tracer):
    for _ in range(payload["steps"]):
        ctx.checkpoint("test.spin")
    return payload["steps"]


@register_task("test.count_paths")
def _task_count_paths(state, payload, ctx, tracer):
    return count_paths_exact(state["graph"], payload["regex"], payload["k"],
                             ctx=ctx)


@register_task("test.endpoint_pairs")
def _task_endpoint_pairs(state, payload, ctx, tracer):
    return endpoint_pairs(state["graph"], payload["regex"], ctx=ctx,
                          tracer=tracer)


def count_tasks(regex_text: str, k: int, n: int = 2) -> list[tuple]:
    """``n`` copies of one Count query, one per task."""
    return [("test.count_paths",
             {"regex": parse_regex(regex_text), "k": k})] * n


def pairs_tasks(regex_text: str, n: int = 2) -> list[tuple]:
    """``n`` copies of one endpoint-pairs query, one per task."""
    return [("test.endpoint_pairs", {"regex": parse_regex(regex_text)})] * n


@pytest.fixture
def graph():
    return random_labeled_graph(12, 30, rng=5)


@pytest.fixture
def inline_pool(graph):
    with WorkerPool(graph, 1) as pool:
        yield pool


@pytest.fixture
def forked_pool(graph):
    if not fork_available():
        pytest.skip("platform has no fork start method")
    with WorkerPool(graph, 2) as pool:
        yield pool


class TestSubdivide:
    def test_no_context_means_no_budget(self):
        assert WorkerPool.subdivide(None, 4) is None

    def test_steps_and_bytes_split_deadline_passes_whole(self):
        ctx = Context(Budget(deadline=60.0, max_steps=100, max_frontier=7,
                             max_bytes=1000, max_results=9))
        deadline, steps, frontier, max_bytes, results = WorkerPool.subdivide(
            ctx, 4)
        assert steps == 25
        assert max_bytes == 250
        assert frontier == 7  # size caps bind each worker independently
        assert results == 9
        assert deadline == pytest.approx(60.0, abs=1.0)

    def test_floors_keep_every_shard_runnable(self):
        ctx = Context(Budget(max_steps=3, max_bytes=2))
        _, steps, _, max_bytes, _ = WorkerPool.subdivide(ctx, 8)
        assert steps == 1
        assert max_bytes == 1

    def test_exhausted_deadline_floors_at_min_fraction(self):
        ctx = Context(Budget(deadline=1e-12))
        deadline, *_ = WorkerPool.subdivide(ctx, 2)
        assert deadline >= MIN_FRACTION_SECONDS

    def test_unlimited_stays_unlimited(self):
        assert WorkerPool.subdivide(Context(), 4) == (None,) * 5


class TestPoolLifecycle:
    def test_workers_below_one_rejected(self, graph):
        with pytest.raises(ValueError):
            WorkerPool(graph, 0)

    def test_single_worker_is_inline(self, inline_pool):
        assert inline_pool.is_inline

    def test_forked_pool_is_not_inline(self, forked_pool):
        assert not forked_pool.is_inline

    def test_close_is_idempotent_and_degrades_to_inline(self, graph):
        pool = WorkerPool(graph, 2)
        pool.close()
        pool.close()
        assert pool.is_inline
        # A closed pool still answers, through the inline path.
        assert pool.run_tasks([("test.echo", {"n": 1})]) == [
            {"payload": {"n": 1}, "worker": 0}]

    def test_empty_task_list(self, inline_pool):
        assert inline_pool.run_tasks([]) == []

    def test_results_come_back_in_task_order(self, forked_pool):
        tasks = [("test.echo", {"n": n}) for n in range(7)]
        results = forked_pool.run_tasks(tasks)
        assert [r["payload"]["n"] for r in results] == list(range(7))
        # Deterministic round-robin placement: task i on worker i % 2.
        assert [r["worker"] for r in results] == [0, 1, 0, 1, 0, 1, 0]


class TestBudgetsAcrossWorkers:
    def test_worker_steps_charge_the_parent_counter(self, forked_pool):
        ctx = Context(Budget(max_steps=1000))
        results = forked_pool.run_tasks(
            [("test.spin", {"steps": 40}), ("test.spin", {"steps": 27})],
            ctx=ctx)
        assert results == [40, 27]
        # 1 parent submit checkpoint + the workers' 67, all on one counter.
        assert ctx.stats.total_checkpoints == 68
        assert ctx._shared.steps == 68
        assert ctx.stats.checkpoints["test.spin"] == 67
        assert ctx.stats.checkpoints["parallel.submit"] == 1

    def test_global_step_budget_binds_through_the_pool(self, graph):
        tasks = count_tasks("(r + s)*", 4)
        with WorkerPool(graph, 2) as pool:
            ctx = Context(Budget(max_steps=5))
            with pytest.raises(BudgetExceeded) as excinfo:
                pool.run_tasks(tasks, ctx=ctx)
            assert excinfo.value.resource == "steps"
            # The pool survives the failure and still answers.
            assert (pool.run_tasks(tasks, ctx=Context())
                    == [count_paths_exact(graph, parse_regex("(r + s)*"),
                                          4)] * 2)

    def test_inline_and_forked_agree_on_exhaustion(self, graph):
        outcomes = []
        for workers in (1, 2):
            with WorkerPool(graph, workers) as pool:
                try:
                    pool.run_tasks(count_tasks("(r + s)*", 4),
                                   ctx=Context(Budget(max_steps=5)))
                    outcomes.append("ok")
                except BudgetExceeded as exceeded:
                    outcomes.append(exceeded.resource)
        assert outcomes == ["steps", "steps"]

    def test_degradations_merge_back(self, forked_pool):
        """Worker-side stats (checkpoint sites) reach the parent stats."""
        ctx = Context(Budget(max_steps=100_000))
        forked_pool.run_tasks(pairs_tasks("(r + s)*"), ctx=ctx)
        sites = set(ctx.stats.checkpoints)
        assert "parallel.submit" in sites
        assert any(site != "parallel.submit" for site in sites)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_budget_exhaustion_is_clean_and_recoverable(self, seed):
        """Exhaustion through the pool is the same typed error as serial
        exhaustion, and the pool answers correctly right after — no
        poisoned events, no stuck workers."""
        graph = random_labeled_graph(13, 40, node_labels=("a", "b"),
                                     edge_labels=("r", "s", "t"),
                                     rng=10 * seed + 2)
        regex = parse_regex("(r + s + t)*")
        tasks = count_tasks("(r + s + t)*", 4)
        with pytest.raises(BudgetExceeded) as serial_exc:
            count_paths_exact(graph, regex, 4,
                              ctx=Context(Budget(max_steps=5)))
        with WorkerPool(graph, 2) as pool:
            with pytest.raises(BudgetExceeded) as pooled_exc:
                pool.run_tasks(tasks, ctx=Context(Budget(max_steps=5)))
            assert pooled_exc.value.resource == serial_exc.value.resource
            assert (pool.run_tasks(tasks)
                    == [count_paths_exact(graph, regex, 4)] * 2)


class TestCancellation:
    def test_pre_cancelled_context_stops_at_submit(self, forked_pool):
        ctx = Context()
        ctx.cancel()
        with pytest.raises(Cancelled) as excinfo:
            forked_pool.run_tasks([("test.echo", {})], ctx=ctx)
        assert excinfo.value.site == "parallel.submit"

    def test_injected_cancel_reaches_the_parent(self, graph):
        faults = FaultInjector(fail_at=3, kind="cancel")
        with WorkerPool(graph, 2, fault_plans={0: faults, 1: faults}) as pool:
            with pytest.raises(Cancelled):
                pool.run_tasks(count_tasks("(r + s)*", 4), ctx=Context())

    def test_event_clears_between_runs(self, graph):
        """A cancelled run must not poison the next one (event reset)."""
        faults = FaultInjector(fail_at=3, kind="cancel")
        with WorkerPool(graph, 2, fault_plans={0: faults}) as pool:
            with pytest.raises((Cancelled, BudgetExceeded)):
                pool.run_tasks(count_tasks("(r + s)*", 4), ctx=Context())
            # The injector is one-shot (fired=True persists in the worker),
            # so a clean event means this run completes.  The query runs
            # past CANCEL_POLL_INTERVAL checkpoints, so a stale event
            # would be seen.
            assert (pool.run_tasks(pairs_tasks("(r + s)*"))
                    == [endpoint_pairs(graph, parse_regex("(r + s)*"))] * 2)


class TestFaultTargeting:
    def test_fault_plan_targets_one_worker(self, graph):
        """An injected deadline on worker 1 surfaces as injected=True."""
        plans = {1: FaultInjector(fail_at=1, kind="deadline")}
        with WorkerPool(graph, 2, fault_plans=plans) as pool:
            with pytest.raises(BudgetExceeded) as excinfo:
                pool.run_tasks(count_tasks("(r + s)*", 3), ctx=Context())
            assert excinfo.value.injected

    def test_budget_error_outranks_sibling_cancellations(self, graph):
        """The budget error on task 1 outranks the cancellation it causes
        in task 0, which spins until the shared event stops it."""
        if not fork_available():
            pytest.skip("platform has no fork start method")
        plans = {1: FaultInjector(fail_at=2, kind="steps")}
        tasks = [("test.spin", {"steps": 10**7}),
                 *count_tasks("(r + s)*", 3, 1)]
        with WorkerPool(graph, 2, fault_plans=plans) as pool:
            with pytest.raises(BudgetExceeded) as excinfo:
                pool.run_tasks(tasks, ctx=Context())
            assert excinfo.value.resource == "steps"

    def test_unplanned_worker_exception_raises_worker_failed(self,
                                                             forked_pool):
        with pytest.raises(WorkerFailed) as excinfo:
            forked_pool.run_tasks([("test.boom", {"message": "kapow"})])
        assert "kapow" in str(excinfo.value)

    def test_unpicklable_result_is_reported_not_fatal(self, forked_pool):
        with pytest.raises(WorkerFailed):
            forked_pool.run_tasks([("test.unpicklable", {})])
        # The worker survived the pickling failure.
        assert forked_pool.run_tasks([("test.echo", {"n": 1})]) == [
            {"payload": {"n": 1}, "worker": 0}]


def _strip_timing(span: dict) -> dict:
    return {
        "name": span["name"],
        "status": span["status"],
        "error": span["error"],
        "attrs": span["attrs"],
        "children": [_strip_timing(child) for child in span["children"]],
    }


class TestTraceMerging:
    def _trace(self, pool) -> dict:
        """One endpoint-pairs task per worker, traced."""
        tracer = Tracer()
        pool.run_tasks(pairs_tasks("(r + s)*/r", pool.workers),
                       ctx=Context(), tracer=tracer)
        return tracer.to_dict()

    def test_merged_shape(self, forked_pool):
        trace = self._trace(forked_pool)
        assert [span["name"] for span in trace["spans"]] == ["parallel"]
        parallel = trace["spans"][0]
        assert parallel["attrs"] == {"workers": 2, "tasks": 2,
                                     "inline": False}
        workers = [child["name"] for child in parallel["children"]]
        assert workers == ["worker:0", "worker:1"]
        for worker, span in enumerate(parallel["children"]):
            for child in span["children"]:
                assert child["attrs"]["task"] == worker  # task i on worker i

    def test_two_runs_identical_modulo_timing(self, graph):
        if not fork_available():
            pytest.skip("platform has no fork start method")
        with WorkerPool(graph, 2) as pool:
            # The compile span records cache hit/miss deltas: a warm-up run
            # fills each worker's compile cache, whatever ran before.
            self._trace(pool)
            first = self._trace(pool)
            second = self._trace(pool)
        stripped = [json.dumps([_strip_timing(s) for s in t["spans"]],
                               sort_keys=True)
                    for t in (first, second)]
        assert stripped[0] == stripped[1]

    def test_inline_trace_has_same_span_names(self, inline_pool):
        trace = self._trace(inline_pool)
        assert [span["name"] for span in trace["spans"]] == ["parallel"]
        parallel = trace["spans"][0]
        assert parallel["attrs"]["inline"] is True
        assert [c["name"] for c in parallel["children"]] == ["worker:0"]


class TestBatchSession:
    QUERIES = [
        BatchQuery("pathql",
                   "PATHS MATCHING ?person/contact/?infected LENGTH 1 COUNT"),
        BatchQuery("sparql",
                   "SELECT ?x WHERE { ?x <rdf:type> <person> . }"),
        BatchQuery("cypher", "MATCH (p:person) RETURN p.name"),
    ]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_mixed_batch_in_submission_order(self, workers):
        with BatchSession(figure2_property(), workers) as session:
            results = session.run_batch(self.QUERIES)
        assert [r.index for r in results] == [0, 1, 2]
        assert [r.language for r in results] == ["pathql", "sparql", "cypher"]
        assert all(r.status == "ok" for r in results)
        assert results[0].value["count"] == 1  # the Figure 2 worked example
        assert ["n1"] in results[1].value["rows"]
        assert batch_exit_status(results) == "ok"

    def test_parallel_batch_matches_serial_batch(self):
        with BatchSession(figure2_property(), 1) as serial_session:
            serial = serial_session.run_batch(self.QUERIES)
        with BatchSession(figure2_property(), 3) as session:
            parallel = session.run_batch(self.QUERIES)
        assert [r.to_dict() for r in parallel] == [r.to_dict()
                                                  for r in serial]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_per_query_error_isolation(self, workers):
        queries = [
            ("pathql", "PATHS MATCHING ?person/contact LENGTH 1 COUNT"),
            ("pathql", "PATHS MATCHING ((( LENGTH 1"),  # parse error
            ("cypher", "MATCH (p:person) RETURN p.name"),
        ]
        with BatchSession(figure2_property(), workers) as session:
            results = session.run_batch(queries)
        assert [r.status for r in results] == ["ok", "error", "ok"]
        assert "SyntaxError" in results[1].error
        assert batch_exit_status(results) == "error"

    def test_degraded_query_reports_degraded(self):
        queries = [("pathql",
                    "PATHS MATCHING (contact + rides)* LENGTH 4 COUNT")]
        with BatchSession(figure2_property(), 1) as session:
            results = session.run_batch(queries,
                                        ctx=Context(Budget(max_steps=6)))
        assert results[0].status in ("degraded", "budget")
        assert results[0].ok or results[0].status == "budget"
        assert batch_exit_status(results) == "degraded"

    def test_accepts_dicts_tuples_and_objects(self):
        with BatchSession(figure2_property(), 1) as session:
            results = session.run_batch([
                {"language": "cypher",
                 "query": "MATCH (p:person) RETURN p.name"},
                ("sparql", "SELECT ?x WHERE { ?x <rdf:type> <bus> . }"),
                BatchQuery("pathql", "PATHS MATCHING rides LENGTH 1 COUNT"),
            ])
        assert [r.status for r in results] == ["ok"] * 3

    def test_unknown_language_rejected(self):
        with pytest.raises(ValueError, match="unknown query language"):
            BatchQuery("gremlin", "g.V()")

    def test_store_conversion_failure_is_isolated(self):
        """Cypher needs a property graph; on a labeled graph it errors,
        while the PathQL half of the batch still answers."""
        with BatchSession(figure2_labeled(), 1) as session:
            results = session.run_batch([
                ("pathql", "PATHS MATCHING contact LENGTH 1 COUNT"),
                ("cypher", "MATCH (p:person) RETURN p"),
            ])
        assert results[0].status == "ok"
        assert results[1].status == "error"
        assert "ConversionError" in results[1].error
