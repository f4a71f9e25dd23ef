"""The degradation ladder, including the headline acceptance scenario:
an exponential exact Count under a 100 ms deadline returns a tagged FPRAS
estimate instead of hanging.

The adversarial instance is ``(a + b)*/a/(a + b)^m/(a + b)*`` over a
complete both-label multigraph: the forced ``a`` can sit at any of ~k - m
positions and every window of label guesses is realized, so the exact
counter's determinized subset space saturates toward n * 2^m while the
product automaton stays tiny (the FPRAS runs in milliseconds).  The slack
``k >> m`` matters: with k close to m, the back-layer pruning pins the
chain position and the subsets collapse.
"""

from __future__ import annotations

import time

import pytest

from repro.core.rpq import count_paths_exact, parse_regex
from repro.datasets import complete_multigraph
from repro.errors import BudgetExceeded, Cancelled, Degraded
from repro.exec import (
    Budget,
    Context,
    FaultInjector,
    GovernedResult,
    QUALITIES,
    count_paths_governed,
)


def _adversary(m: int):
    return parse_regex("(a + b)*/a/" + "/".join(["(a + b)"] * m) + "/(a + b)*")


_FPRAS_KWARGS = dict(epsilon=0.5, rng=1, pool_size=3, trials_per_state=4)


class TestAcceptance:
    def test_exponential_count_degrades_under_100ms(self):
        """The ISSUE acceptance scenario: exact would run for tens of
        seconds; the governed run answers in ~the deadline, tagged.

        The 100 ms deadline runs on a virtual clock that advances 5 us per
        checkpoint, so the outcome depends on checkpoint counts, not on
        host speed: the deadline is 20,000 checkpoints, the exact rung
        spends its half, and the seeded FPRAS rung needs ~3,300 of the
        ~8,000 its share of the rest affords.  From ~1.19e-5 s per
        checkpoint on, that share is too small and the ladder ends at
        lower-bound.  The real-clock run of this scenario is a smoke in
        ``benchmarks/bench_governor.py``.
        """
        graph = complete_multigraph(3)
        ctx = Context(Budget(deadline=0.1), clock=lambda: 0.0,
                      faults=FaultInjector(skew_per_checkpoint=5e-6))
        start = time.perf_counter()
        result = count_paths_governed(graph, _adversary(14), 30, ctx,
                                      **_FPRAS_KWARGS)
        elapsed = time.perf_counter() - start
        assert result.quality == "approx"
        assert result.value > 0
        assert len(result.degradations) == 1
        assert result.degradations[0].from_quality == "exact"
        assert result.degradations[0].to_quality == "approx"
        assert ctx.stats.degradations == result.degradations
        # Generous ceiling (the FPRAS rung must still finish its slice),
        # but orders of magnitude under the exact evaluation.
        assert elapsed < 5.0
        assert result.banner() is not None
        assert "DEGRADED (approx)" in result.banner()

    def test_degraded_answer_is_reproducible(self):
        """Step budgets are deterministic: the same budget on the same
        seeded instance degrades identically, twice."""
        graph = complete_multigraph(3)
        runs = []
        for _ in range(2):
            ctx = Context(Budget(max_steps=40_000))
            runs.append(count_paths_governed(graph, _adversary(14), 30, ctx,
                                             **_FPRAS_KWARGS))
        assert runs[0].quality == runs[1].quality == "approx"
        assert runs[0].value == runs[1].value


class TestLadder:
    def test_within_budget_stays_exact(self):
        graph = complete_multigraph(2)
        regex = _adversary(2)
        truth = count_paths_exact(graph, regex, 5)
        ctx = Context(Budget(deadline=30.0))
        result = count_paths_governed(graph, regex, 5, ctx, **_FPRAS_KWARGS)
        assert isinstance(result, GovernedResult)
        assert result.is_exact and result.quality == QUALITIES[0]
        assert result.value == truth
        assert result.degradations == []
        assert result.banner() is None

    def test_starved_budget_reaches_lower_bound(self):
        graph = complete_multigraph(3)
        ctx = Context(Budget(max_steps=200))
        result = count_paths_governed(graph, _adversary(14), 30, ctx,
                                      **_FPRAS_KWARGS)
        assert result.quality == "lower-bound"
        assert result.value >= 0
        assert [e.to_quality for e in result.degradations] == [
            "approx", "lower-bound"]

    def test_lower_bound_never_exceeds_truth(self):
        """Whatever the enumerator emitted before dying undercounts."""
        graph = complete_multigraph(2)
        regex = _adversary(2)
        truth = count_paths_exact(graph, regex, 6)
        for max_steps in (50, 200, 1000):
            ctx = Context(Budget(max_steps=max_steps))
            result = count_paths_governed(graph, regex, 6, ctx,
                                          **_FPRAS_KWARGS)
            if result.quality == "lower-bound":
                assert result.value <= truth

    def test_allow_degraded_false_raises_typed(self):
        graph = complete_multigraph(3)
        ctx = Context(Budget(max_steps=500))
        with pytest.raises(Degraded) as excinfo:
            count_paths_governed(graph, _adversary(14), 30, ctx,
                                 allow_degraded=False, **_FPRAS_KWARGS)
        assert excinfo.value.events[0].to_quality == "approx"

    def test_cancellation_is_not_degradation(self):
        """A cooperative cancel must cut through every rung, not produce a
        silently degraded answer."""
        graph = complete_multigraph(3)
        injector = FaultInjector(fail_at=50, kind="cancel")
        ctx = Context(faults=injector)
        with pytest.raises(Cancelled):
            count_paths_governed(graph, _adversary(14), 30, ctx,
                                 **_FPRAS_KWARGS)

    def test_whole_query_respects_outer_budget(self):
        """The ladder's slices must not extend the overall deadline: on a
        fake clock, the whole governed run observes the outer limit."""
        clock_value = [0.0]
        skew = FaultInjector(skew_per_checkpoint=0.01)
        graph = complete_multigraph(3)
        ctx = Context(Budget(deadline=5.0), clock=lambda: clock_value[0],
                      faults=skew)
        result = count_paths_governed(graph, _adversary(14), 30, ctx,
                                      **_FPRAS_KWARGS)
        # 0.01 s of virtual time per checkpoint affords at most ~500
        # checkpoints across ALL rungs before the outer deadline.
        assert ctx.stats.total_checkpoints <= 502
        assert result.quality in ("approx", "lower-bound")
