"""The degradation ladder: exact -> FPRAS -> bounded lower bound.

The paper's own toolbox provides a principled *degraded* answer for Count:
when the (worst-case exponential) exact subset DP exhausts its budget slice,
the FPRAS of Arenas-Croquevielle-Jayaram-Riveros gives an (epsilon,
delta)-style estimate in polynomial time; if even that cannot finish, the
polynomial-delay enumerator yields a certified lower bound — however many
distinct conforming paths it emitted before the budget died.  Each fallback
returns a :class:`GovernedResult` *tagged with how it degraded* instead of
raising, so callers always get an answer plus its provenance.

Cancellation is not degradation: a cooperative cancel propagates as
:class:`~repro.errors.Cancelled` through every rung.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.rpq.count import count_paths_exact
from repro.core.rpq.enumerate import enumerate_paths
from repro.core.rpq.fpras import ApproxPathCounter
from repro.errors import BudgetExceeded, Degraded, EstimationError
from repro.exec.budget import Context, DegradationEvent, ExecStats

#: Result quality tags, strongest first.
QUALITIES = ("exact", "approx", "lower-bound")


@dataclass
class GovernedResult:
    """An answer plus how (and whether) it degraded.

    ``value`` stays an ``int`` for the exact and lower-bound rungs (exact
    counts can exceed float precision); the FPRAS rung returns a ``float``.
    """

    value: int | float
    quality: str  # one of QUALITIES
    degradations: list[DegradationEvent] = field(default_factory=list)
    stats: ExecStats | None = None

    @property
    def is_exact(self) -> bool:
        return self.quality == "exact"

    def banner(self) -> str | None:
        """Human-readable degradation banner, or ``None`` for exact runs."""
        if self.quality == "exact":
            return None
        steps = "; ".join(str(event) for event in self.degradations)
        return f"DEGRADED ({self.quality}): {steps}"


def count_paths_governed(graph, regex, k: int, ctx: Context, *,
                         epsilon: float = 0.2,
                         rng: int | random.Random | None = None,
                         start_nodes: Iterable | None = None,
                         end_nodes: Iterable | None = None,
                         exact_share: float = 0.5,
                         approx_share: float = 0.8,
                         allow_degraded: bool = True,
                         pool_size: int | None = None,
                         trials_per_state: int | None = None,
                         engine: str = "auto",
                         tracer=None, cache=None) -> GovernedResult:
    """Count(G, r, k) under a budget, degrading instead of hanging.

    Rung 1 (``exact``) gets ``exact_share`` of the remaining time/steps;
    rung 2 (``approx``) gets ``approx_share`` of what is left; rung 3
    (``lower-bound``) consumes the rest.  The FPRAS rung is seeded (library
    default seed when ``rng`` is ``None``), so a degraded answer is
    reproducible run over run.  ``allow_degraded=False`` turns the first
    exhaustion into a :class:`~repro.errors.Degraded` error instead.

    With a :class:`~repro.obs.Tracer` each rung is recorded as a
    ``degrade:<rung>`` span carrying its checkpoint-step delta and how it
    ended (``answered`` / the exhausted resource); ``tracer=None`` adds
    nothing.

    ``engine`` is forwarded only to the exact rung — the fallback rungs
    are scalar by construction (seeded sampling / ordered emission).

    With a :class:`~repro.cache.QueryCache` (``cache=``), a previously
    computed *exact* count — stored by this function or by a plain
    :func:`count_paths_exact` call, which shares the key family — returns
    immediately without touching the ladder: zero checkpoints, zero budget
    spend, quality ``exact``.  Degraded answers are never cached (they
    reflect this run's budget, not the graph).
    """
    events: list[DegradationEvent] = []
    cache_key = None
    if cache is not None:
        from repro.cache import MISS, label_footprint
        from repro.cache.result_cache import nodes_key

        start_nodes = nodes_key(start_nodes)
        end_nodes = nodes_key(end_nodes)
        cache_key = ("count_paths", regex.to_text(), k,
                     start_nodes, end_nodes)
        hit = cache.lookup(graph, cache_key)
        if hit is not MISS:
            return GovernedResult(hit, "exact", events, ctx.stats)
    span = (None if tracer is None
            else tracer.start("degrade:exact", ctx=ctx))
    try:
        value = count_paths_exact(graph, regex, k, start_nodes, end_nodes,
                                  engine=engine,
                                  ctx=ctx.fraction(exact_share))
        if span is not None:
            span.attrs["outcome"] = "answered"
            tracer.finish(span)
        if cache is not None:
            from repro.cache import label_footprint

            cache.store(graph, cache_key, label_footprint(regex), value)
        return GovernedResult(value, "exact", events, ctx.stats)
    except BudgetExceeded as error:
        event = DegradationEvent("exact", "approx", error.resource, error.site)
        if span is not None:
            span.attrs["outcome"] = f"{error.resource} exhausted at {error.site}"
            tracer.finish(span)
        events.append(event)
        ctx.record_degradation(event)
        if not allow_degraded:
            raise Degraded(tuple(events)) from error

    span = (None if tracer is None
            else tracer.start("degrade:approx", ctx=ctx))
    try:
        counter = ApproxPathCounter(graph, regex, k, epsilon=epsilon, rng=rng,
                                    pool_size=pool_size,
                                    trials_per_state=trials_per_state,
                                    start_nodes=start_nodes,
                                    end_nodes=end_nodes,
                                    ctx=ctx.fraction(approx_share))
        estimate = counter.estimate()
        if span is not None:
            span.attrs["outcome"] = "answered"
            tracer.finish(span)
        return GovernedResult(estimate, "approx", events, ctx.stats)
    except BudgetExceeded as error:
        event = DegradationEvent("approx", "lower-bound",
                                 error.resource, error.site)
        if span is not None:
            span.attrs["outcome"] = f"{error.resource} exhausted at {error.site}"
            tracer.finish(span)
        events.append(event)
        ctx.record_degradation(event)
    except EstimationError:
        # Sketches built but too sparse to estimate: fall through to the
        # enumerator, which handles the empty answer set exactly.
        event = DegradationEvent("approx", "lower-bound", "estimate", "fpras")
        if span is not None:
            span.attrs["outcome"] = "estimate failed (sparse sketches)"
            tracer.finish(span)
        events.append(event)
        ctx.record_degradation(event)

    # Rung 3 never raises BudgetExceeded: whatever the enumerator produced
    # before the budget died is a certified lower bound (possibly 0).
    span = (None if tracer is None
            else tracer.start("degrade:lower-bound", ctx=ctx))
    emitted = 0
    try:
        for _ in enumerate_paths(graph, regex, k, start_nodes=start_nodes,
                                 end_nodes=end_nodes, ctx=ctx):
            emitted += 1
    except BudgetExceeded:
        pass
    if span is not None:
        span.attrs["outcome"] = f"emitted {emitted}"
        tracer.finish(span)
    return GovernedResult(emitted, "lower-bound", events, ctx.stats)
