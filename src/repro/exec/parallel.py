"""Parallel execution tier: a fork-shared worker pool behind batch sessions.

:class:`~repro.exec.batch.BatchSession` (and CLI ``batch --workers``) fans
whole queries out over the pool below, one query per task:

- a :class:`WorkerPool` owns N ``fork``-started processes that inherit one
  **read-only** graph through copy-on-write fork memory (no pickling of the
  graph, ever) plus an optional per-worker
  :class:`~repro.exec.FaultInjector`;
- work travels as pickle-cheap *task descriptors* ``(kind, payload)``
  resolved against a registry of task functions (:func:`register_task`), so
  a queue message is a query text and its options — never code, never
  graph data.

One query always runs on one worker.  Splitting one RPQ, Count or
PageRank/HITS sweep by start node across the workers measured anywhere
from 0.3x to 1.6x of serial, depending on query shape and run, and the
sweeps always ran slower (EXPERIMENTS.md R3), so the pool parallelizes
across queries only.

**Budgets bind globally.**  :meth:`WorkerPool.run_tasks` derives one
sub-budget per task from the caller's :class:`~repro.exec.Context` — the
full remaining wall-clock deadline (all processes share one wall clock) and
``remaining // n_tasks`` of the step/byte budgets, floored exactly like
:meth:`Context.fraction` floors its slices so a nearly exhausted parent
still lets every task do one unit of work.  At join time every worker's
:class:`~repro.exec.ExecStats` is merged back (per-site checkpoint counts,
peak frontier/bytes, degradations) and the workers' steps are charged to
the parent's shared step counter, so the next parent checkpoint sees the
true global spend.  Worker-side ``BudgetExceeded``/``Cancelled`` are
transported field-by-field (never pickled exception objects) and re-raised
in the parent after the merge.

**Cancellation propagates both ways.**  The pool carries one
``multiprocessing.Event``: a parent-side ``ctx.cancel()`` is observed while
the parent waits for results and sets the event; worker contexts poll it
(throttled to every 64th checkpoint — cancellation latency is bounded, the
hot loop stays hot) and raise :class:`~repro.errors.Cancelled` exactly like
a same-process cancel.  A worker that fails also sets the event, so sibling
tasks abort instead of running their budget out.

**Traces merge at join.**  With a tracer, the pool records a ``parallel``
span whose ``worker:<i>`` children hold each worker's spans rebuilt from
their JSON form, in deterministic task order — two runs of the same
batch produce byte-identical trace JSON modulo the timing fields.

``workers <= 1`` (or a platform without ``fork``) degrades to an *inline*
pool: the same task functions, budget floors and trace shape, executed
in-process.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue as queue_module
from collections.abc import Sequence

from repro.errors import BudgetExceeded, Cancelled, WorkerFailed
from repro.exec.budget import (
    MIN_FRACTION_SECONDS,
    Budget,
    Context,
    DegradationEvent,
)

#: How many checkpoints a worker context may run between polls of the
#: shared cancellation event (an Event.is_set() is a semaphore probe; at
#: every checkpoint it would tax the hot loops the governor keeps cheap).
CANCEL_POLL_INTERVAL = 64

#: Seconds between parent-side liveness/cancellation sweeps while waiting.
_JOIN_POLL_SECONDS = 0.05


def default_worker_count() -> int:
    """The machine's CPU count (the pool default), at least 1."""
    return os.cpu_count() or 1


def fork_available() -> bool:
    """Whether real worker processes can be used on this platform."""
    return "fork" in mp.get_all_start_methods()


# ---------------------------------------------------------------------------
# Task registry
# ---------------------------------------------------------------------------

#: kind -> function(state, payload, ctx, tracer) -> picklable result.
_TASKS: dict[str, object] = {}


def register_task(kind: str):
    """Register a worker task function under a descriptor kind.

    Task functions must be registered at import time of a module the
    *parent* imports before creating the pool: ``fork`` workers inherit the
    registry as forked memory.  ``state`` is the per-process worker state
    (``graph``, a ``caches`` dict that lives as long as the worker, and the
    worker ``index``).
    """
    def decorate(function):
        _TASKS[kind] = function
        return function
    return decorate


# ---------------------------------------------------------------------------
# Worker-side execution
# ---------------------------------------------------------------------------


class _EventShared:
    """Budget accounting shared state whose cancellation flag is backed by a
    process-shared Event (drop-in for ``repro.exec.budget._Shared``).

    The event is polled every :data:`CANCEL_POLL_INTERVAL` reads, so a
    parent cancel lands within a bounded number of checkpoints without a
    semaphore probe per checkpoint.  Once observed (or set locally), the
    flag stays up without further polling.
    """

    __slots__ = ("steps", "clock_offset", "_event", "_flag", "_reads")

    def __init__(self, event) -> None:
        self.steps = 0
        self.clock_offset = 0.0
        self._event = event
        self._flag = False
        self._reads = 0

    @property
    def cancelled(self) -> bool:
        if self._flag:
            return True
        if self._event is None:
            return False
        self._reads += 1
        if self._reads >= CANCEL_POLL_INTERVAL:
            self._reads = 0
            if self._event.is_set():
                self._flag = True
        return self._flag

    @cancelled.setter
    def cancelled(self, value: bool) -> None:
        if value:
            self._flag = True
            if self._event is not None:
                self._event.set()


def _make_task_context(budget_fields, event, faults) -> Context:
    """A worker/inline task context whose cancellation is event-backed."""
    ctx = Context(Budget(*budget_fields), faults=faults)
    shared = _EventShared(event)
    # Re-anchor the step ceiling on the fresh shared counter (both start at
    # zero, so the arithmetic of Context.__init__ is preserved).
    ctx._shared = shared
    return ctx


def _encode_stats(task_ctx: Context) -> dict:
    stats = task_ctx.stats
    return {
        "checkpoints": dict(stats.checkpoints),
        # The true step spend: with block-granular checkpoints (the
        # vectorized RPQ kernel charges ``steps=n`` per call) the per-site
        # call counts no longer sum to the steps consumed.
        "steps": task_ctx._shared.steps,
        "peak_frontier": stats.peak_frontier,
        "peak_bytes": stats.peak_bytes,
        "results": stats.results,
        "degradations": [(e.from_quality, e.to_quality, e.resource, e.site)
                         for e in stats.degradations],
        "notes": dict(stats.notes),
    }


def _merge_stats(ctx: Context, encoded: dict) -> None:
    """Fold one worker's encoded ExecStats into the parent context.

    Worker steps are charged to the parent's *shared* counter, so the
    global step budget keeps binding after the join; per the fraction()
    floors, the total may overshoot by at most one floored slice per task.
    """
    stats = ctx.stats
    for site, count in encoded["checkpoints"].items():
        stats.checkpoints[site] = stats.checkpoints.get(site, 0) + count
    ctx._shared.steps += encoded.get(
        "steps", sum(encoded["checkpoints"].values()))
    stats.peak_frontier = max(stats.peak_frontier, encoded["peak_frontier"])
    stats.peak_bytes = max(stats.peak_bytes, encoded["peak_bytes"])
    stats.results += encoded["results"]
    for fields in encoded["degradations"]:
        stats.degradations.append(DegradationEvent(*fields))
    stats.notes.update(encoded.get("notes", ()))


def _encode_error(error: BaseException) -> dict:
    if isinstance(error, BudgetExceeded):
        return {"kind": "budget", "resource": error.resource,
                "limit": repr(error.limit), "spent": repr(error.spent),
                "site": error.site, "injected": error.injected}
    if isinstance(error, Cancelled):
        return {"kind": "cancelled", "site": error.site}
    return {"kind": "error",
            "message": f"{type(error).__name__}: {error}"}


def _decode_error(encoded: dict, worker: int) -> BaseException:
    if encoded["kind"] == "budget":
        return BudgetExceeded(encoded["resource"], encoded["limit"],
                              encoded["spent"], encoded["site"],
                              injected=encoded["injected"])
    if encoded["kind"] == "cancelled":
        return Cancelled(encoded["site"])
    return WorkerFailed(worker, encoded["message"])


def _execute_task(state: dict, item: tuple, event, faults) -> bytes:
    """Run one task message; return the pickled result message.

    Pickling happens *here*, inside the try, so an unpicklable result turns
    into a reported error instead of killing the queue feeder.
    """
    task_id, kind, payload, budget_fields, want_stats, want_trace = item
    ctx = tracer = None
    if want_stats or budget_fields is not None or faults is not None:
        fields = budget_fields if budget_fields is not None else (None,) * 5
        ctx = _make_task_context(fields, event, faults)
    if want_trace:
        from repro.obs.tracer import Tracer
        tracer = Tracer()
    status, result, error = "ok", None, None
    try:
        function = _TASKS[kind]
        result = function(state, payload, ctx, tracer)
    except BaseException as exc:  # isolation: report, never crash the worker
        status, error = "failed", _encode_error(exc)
    stats = _encode_stats(ctx) if ctx is not None else None
    spans = tracer.to_dict()["spans"] if tracer is not None else None
    message = (task_id, state["index"], status, result, error, stats, spans)
    try:
        return pickle.dumps(message)
    except Exception as exc:
        fallback = (task_id, state["index"], "failed",
                    None, _encode_error(exc), stats, spans)
        return pickle.dumps(fallback)


def _worker_main(index: int, graph, tasks, results, event, faults) -> None:
    """Process entry point: drain the task queue until the ``None`` sentinel."""
    state = {"graph": graph, "caches": {}, "index": index}
    while True:
        item = tasks.get()
        if item is None:
            break
        results.put(_execute_task(state, item, event, faults))


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------


class WorkerPool:
    """N fork-shared workers bound to one read-only graph.

    Parameters
    ----------
    graph:
        The graph every task evaluates against, as ``state["graph"]``.
        Workers inherit it through fork copy-on-write memory.  The graph
        must not be mutated while the pool is open (workers would not see
        the mutation — document-level contract, matching the read-only
        evaluation tier).
    workers:
        Process count; ``None`` means :func:`default_worker_count`.
        ``workers <= 1`` — or a platform without ``fork`` — runs every task
        inline in the parent process through the identical code path.
    fault_plans:
        Optional ``{worker_index: FaultInjector}`` targeting individual
        workers: tasks executed by worker *i* run under plan *i* (inline
        pools apply plan 0), which is how the fault campaigns exercise
        partial-failure joins deterministically.
    """

    def __init__(self, graph, workers: int | None = None, *,
                 fault_plans: dict | None = None) -> None:
        self.graph = graph
        self.workers = default_worker_count() if workers is None else workers
        if self.workers < 1:
            raise ValueError("a pool needs at least one worker")
        self.fault_plans = dict(fault_plans) if fault_plans else {}
        self._procs: list | None = None
        self._task_queues: list = []
        self._results = None
        self._event = None
        self._inline_state: dict | None = None
        self._next_task = 0
        if self.workers > 1 and fork_available():
            self._start()
        else:
            self._inline_state = {"graph": graph, "caches": {}, "index": 0}
            self._event = None

    # -- lifecycle -----------------------------------------------------------

    def _start(self) -> None:
        ctx = mp.get_context("fork")
        self._event = ctx.Event()
        self._results = ctx.Queue()
        self._task_queues = [ctx.Queue() for _ in range(self.workers)]
        self._procs = []
        for index in range(self.workers):
            process = ctx.Process(
                target=_worker_main,
                args=(index, self.graph, self._task_queues[index],
                      self._results, self._event,
                      self.fault_plans.get(index)),
                daemon=True)
            process.start()
            self._procs.append(process)

    @property
    def is_inline(self) -> bool:
        return self._procs is None

    def close(self) -> None:
        """Stop the workers (idempotent)."""
        if self._procs is None:
            return
        for task_queue in self._task_queues:
            try:
                task_queue.put(None)
            except (OSError, ValueError):
                pass
        for process in self._procs:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for task_queue in self._task_queues:
            task_queue.close()
        self._results.close()
        self._procs = None
        self._inline_state = {"graph": self.graph, "caches": {}, "index": 0}

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def cancel(self) -> None:
        """Ask every in-flight worker task to cancel cooperatively."""
        if self._event is not None:
            self._event.set()

    # -- budget subdivision ----------------------------------------------------

    @staticmethod
    def subdivide(ctx: Context | None, n_tasks: int) -> tuple | None:
        """The per-task sub-budget for ``n_tasks`` concurrent tasks.

        Wall-clock deadline passes through whole (one shared wall clock
        enforces it globally); divisible budgets (steps, bytes) hand each
        task ``remaining // n_tasks``; size *caps* (frontier) and
        ``max_results`` pass through unchanged.  Slices are floored like
        :meth:`Context.fraction` — at least 1 step / :data:`MIN_FRACTION_SECONDS`
        — so the group may overshoot by at most one floor per task, the
        documented price of letting every task run.
        """
        if ctx is None:
            return None
        left = ctx.time_left()
        deadline = None if left is None else max(left, MIN_FRACTION_SECONDS)
        steps_left = ctx.steps_left()
        steps = None if steps_left is None else max(1, steps_left // n_tasks)
        max_bytes = ctx.budget.max_bytes
        bytes_share = None if max_bytes is None else max(1, max_bytes // n_tasks)
        return (deadline, steps, ctx.budget.max_frontier, bytes_share,
                ctx.budget.max_results)

    # -- running tasks ---------------------------------------------------------

    def run_tasks(self, tasks: Sequence[tuple], *, ctx: Context | None = None,
                  tracer=None) -> list:
        """Execute ``[(kind, payload), ...]``; return results in task order.

        Task *i* runs on worker ``i % workers`` — a deterministic
        assignment, so fault plans and merged traces are reproducible.  The
        first worker-side :class:`BudgetExceeded`/:class:`Cancelled` (by
        task order) re-raises here after stats/trace merging; any other
        worker error raises :class:`~repro.errors.WorkerFailed`.  On any
        failure the remaining tasks are cancelled via the shared event.
        """
        if not tasks:
            return []
        if ctx is not None:
            # Surfaces pre-existing cancellation/exhaustion before any work
            # is sent, and accounts for the dispatch itself.
            ctx.checkpoint("parallel.submit")
        budget_fields = self.subdivide(ctx, len(tasks))
        want_stats = ctx is not None
        want_trace = tracer is not None
        parent_span = None
        if tracer is not None:
            parent_span = tracer.start("parallel", workers=self.workers,
                                       tasks=len(tasks),
                                       inline=self.is_inline)
        try:
            if self._procs is None:
                messages = self._run_inline(tasks, ctx, budget_fields,
                                            want_stats, want_trace)
            else:
                messages = self._run_forked(tasks, ctx, budget_fields,
                                            want_stats, want_trace)
            return self._join(messages, ctx, tracer, len(tasks))
        finally:
            if parent_span is not None:
                tracer.finish(parent_span)
            if self._event is not None:
                # A poisoned event must not outlive the run that set it.
                self._event.clear()

    def _run_inline(self, tasks, ctx, budget_fields, want_stats, want_trace):
        """Inline mode: same task functions and message shape, no processes."""
        state = self._inline_state
        faults = self.fault_plans.get(0)
        messages = []
        for task_id, (kind, payload) in enumerate(tasks):
            item = (task_id, kind, payload, budget_fields,
                    want_stats, want_trace)
            messages.append(pickle.loads(
                _execute_task(state, item, None, faults)))
            # Mirror cross-worker cancellation: a failed task stops the
            # remaining tasks (they report as cancelled at submit).
            status = messages[-1][2]
            if status != "ok":
                for skipped_id in range(task_id + 1, len(tasks)):
                    messages.append((skipped_id, 0, "failed", None,
                                     {"kind": "cancelled",
                                      "site": "parallel.submit"},
                                     None, None))
                break
        return messages

    def _run_forked(self, tasks, ctx, budget_fields, want_stats, want_trace):
        for task_id, (kind, payload) in enumerate(tasks):
            item = (task_id, kind, payload, budget_fields,
                    want_stats, want_trace)
            self._task_queues[task_id % self.workers].put(item)
        messages = []
        pending = len(tasks)
        failed = False
        while pending:
            if (ctx is not None and ctx.cancelled
                    and not self._event.is_set()):
                self._event.set()
            try:
                raw = self._results.get(timeout=_JOIN_POLL_SECONDS)
            except queue_module.Empty:
                self._check_alive()
                continue
            message = pickle.loads(raw)
            messages.append(message)
            pending -= 1
            if message[2] != "ok" and not failed:
                # Abort sibling tasks promptly; their cancellations are
                # subordinated to the primary error during the join.
                failed = True
                self._event.set()
        return messages

    def _check_alive(self) -> None:
        for process in self._procs:
            if process.exitcode is not None:
                self._event.set()
                raise WorkerFailed(
                    self._procs.index(process),
                    f"worker process exited with code {process.exitcode} "
                    f"while tasks were pending")

    def _join(self, messages, ctx, tracer, n_tasks):
        """Merge stats and traces, surface errors, order results."""
        messages.sort(key=lambda message: message[0])
        if ctx is not None:
            for message in messages:
                if message[5] is not None:
                    _merge_stats(ctx, message[5])
        if tracer is not None:
            self._merge_traces(tracer, messages)
        primary = None
        for message in messages:
            _, worker, status, _, error, _, _ = message
            if status == "ok":
                continue
            decoded = _decode_error(error, worker)
            if primary is None:
                primary = decoded
            elif (isinstance(primary, Cancelled)
                  and isinstance(decoded, BudgetExceeded)):
                # A real budget error outranks the cancellations it caused
                # in sibling tasks, wherever it landed in task order.
                primary = decoded
        if primary is not None:
            raise primary
        return [message[3] for message in messages]

    def _merge_traces(self, tracer, messages) -> None:
        from repro.obs.tracer import Span

        def rebuild(encoded: dict) -> Span:
            span = Span(encoded["name"])
            span.attrs = dict(encoded["attrs"])
            span.wall_start = encoded["wall_start"]
            span.duration = encoded["duration_s"]
            span.status = encoded["status"]
            span.error = encoded["error"]
            span.children = [rebuild(child) for child in encoded["children"]]
            return span

        by_worker: dict[int, list] = {}
        for task_id, worker, _, _, _, _, spans in messages:
            if spans:
                by_worker.setdefault(worker, []).extend(
                    (task_id, span) for span in spans)
        for worker in sorted(by_worker):
            with tracer.span(f"worker:{worker}") as parent:
                for task_id, encoded in sorted(by_worker[worker],
                                               key=lambda pair: pair[0]):
                    child = rebuild(encoded)
                    child.attrs.setdefault("task", task_id)
                    parent.children.append(child)
