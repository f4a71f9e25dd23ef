"""Experiment R1 — the execution governor's budget/quality trade-off.

The governor's promise is graceful degradation: on a Count instance whose
exact evaluation is worst-case exponential (SpanL-hardness in action), a
shrinking deadline should walk the answer down the ladder

    exact count  ->  FPRAS estimate  ->  partial-enumeration lower bound

instead of hanging or failing.  R1a prints that walk as a table (budget vs
delivered quality, answer, and work performed); R1b checks the degraded
answer is still *useful* — the FPRAS estimate lands within a factor of the
true count that an unbudgeted exact run certifies on a smaller sibling
instance.
"""

import math
import time

from repro.bench import Experiment
from repro.core.rpq import count_paths_exact, parse_regex
from repro.datasets import complete_multigraph
from repro.exec import Budget, Context, count_paths_governed

# (a + b)*/a/(a + b)^m/(a + b)* over a complete both-label multigraph: the
# position of the forced 'a' is maximally ambiguous, so the determinized
# subset space of the exact counter explodes while the product automaton
# (all the FPRAS needs) stays tiny.
def _adversary(m: int) -> object:
    return parse_regex("(a + b)*/a/" + "/".join(["(a + b)"] * m) + "/(a + b)*")


_FPRAS_KWARGS = dict(epsilon=0.5, rng=1, pool_size=3, trials_per_state=4)


def test_r1a_budget_vs_quality(record_experiment):
    graph = complete_multigraph(3)
    m, k = 14, 30
    regex = _adversary(m)
    experiment = Experiment(
        "R1a", f"deadline vs delivered Count quality (n=3 complete, m={m}, k={k})",
        headers=["deadline (s)", "quality", "answer", "degradations",
                 "checkpoints"])
    qualities = []
    # The unlimited row pays the full determinization price (tens of
    # seconds) — it anchors the table with the true count the 100 ms FPRAS
    # row should approximate.
    for deadline in (0.002, 0.1, None):
        ctx = Context(Budget(deadline=deadline))
        result = count_paths_governed(graph, regex, k, ctx, **_FPRAS_KWARGS)
        qualities.append(result.quality)
        experiment.add_row(
            deadline if deadline is not None else "unlimited",
            result.quality,
            f"{result.value:.3g}",
            "; ".join(str(event) for event in result.degradations) or "-",
            ctx.stats.total_checkpoints)
    record_experiment(experiment)
    # The 2 ms budget cannot even finish FPRAS preprocessing; 100 ms can.
    assert qualities[0] == "lower-bound"
    assert qualities[1] == "approx"


def test_r1b_degraded_answer_quality(record_experiment):
    # A sibling small enough for exact counting to finish: same regex
    # family, shorter chain, so the FPRAS answer can be scored against truth.
    graph = complete_multigraph(3)
    m, k = 4, 10
    regex = _adversary(m)
    exact = count_paths_exact(graph, regex, k)
    ctx = Context(Budget(deadline=30.0))
    result = count_paths_governed(graph, regex, k, ctx, **_FPRAS_KWARGS)
    experiment = Experiment(
        "R1b", f"degraded-answer accuracy on a checkable sibling (m={m}, k={k})",
        headers=["quality", "exact", "answer", "log10 ratio"])
    ratio = math.log10(result.value / exact) if result.value else float("inf")
    experiment.add_row(result.quality, exact, f"{result.value:.4g}",
                       round(ratio, 3))
    record_experiment(experiment)
    # Within the budget the exact rung finishes, and exactly.
    assert result.quality == "exact"
    assert result.value == exact


def test_exponential_count_degrades_under_100ms():
    """The headline acceptance scenario: exact would run for tens of
    seconds; the governed run answers in ~the deadline, tagged."""
    # On the real clock, so whether the FPRAS rung finishes its slice of
    # the 100 ms depends on how fast the host is; tier-1 runs the same
    # scenario on a virtual clock (tests/test_exec_governor.py).
    graph = complete_multigraph(3)
    ctx = Context(Budget(deadline=0.1))
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
