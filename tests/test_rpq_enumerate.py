"""Enumeration tests: completeness, no duplicates, bounded delay."""

import pytest

from repro.core.rpq import (
    count_paths_exact,
    enumerate_paths,
    enumerate_paths_up_to,
    evaluate_bruteforce,
    parse_regex,
)
from repro.core.rpq.semantics import paths_of_length
from repro.datasets import random_labeled_graph
from repro.exec import Budget, Context


class TestCompleteness:
    @pytest.mark.parametrize("regex_text,k", [
        ("?person/contact/?infected", 1),
        ("?person/rides/?bus/rides^-/?infected", 2),
        ("(rides + contact)*", 3),
    ])
    def test_matches_bruteforce(self, fig2_labeled, regex_text, k):
        regex = parse_regex(regex_text)
        expected = paths_of_length(evaluate_bruteforce(fig2_labeled, regex, k), k)
        produced = list(enumerate_paths(fig2_labeled, regex, k))
        assert set(produced) == expected

    def test_no_duplicates_on_ambiguous_regex(self, small_random_graph):
        regex = parse_regex("(r + s)*/(r + s)*")
        produced = list(enumerate_paths(small_random_graph, regex, 3))
        assert len(produced) == len(set(produced))
        assert len(produced) == count_paths_exact(small_random_graph, regex, 3)

    def test_deterministic_order(self, small_random_graph):
        regex = parse_regex("(r + s)/(r + s)")
        first = list(enumerate_paths(small_random_graph, regex, 2))
        second = list(enumerate_paths(small_random_graph, regex, 2))
        assert first == second

    def test_endpoint_restrictions(self, fig2_labeled):
        regex = parse_regex("?person/rides/?bus/rides^-/?infected")
        produced = list(enumerate_paths(fig2_labeled, regex, 2,
                                        start_nodes=["n7"]))
        assert [p.start for p in produced] == ["n7"]

    def test_empty_result(self, fig2_labeled):
        regex = parse_regex("?bus/contact/?bus")
        assert list(enumerate_paths(fig2_labeled, regex, 1)) == []

    def test_up_to_orders_by_length(self, fig2_labeled):
        regex = parse_regex("(rides + contact)*")
        lengths = [p.length for p in
                   enumerate_paths_up_to(fig2_labeled, regex, 2)]
        assert lengths == sorted(lengths)
        assert lengths[0] == 0

    def test_negative_k_rejected(self, fig2_labeled):
        with pytest.raises(ValueError):
            list(enumerate_paths(fig2_labeled, parse_regex("contact"), -1))


class TestDelay:
    def test_delay_stays_small_relative_to_total(self):
        """The gap between consecutive answers must not grow with the number
        of answers — the defining property of enumeration algorithms.

        Delay is counted in ``enumerate.pop`` checkpoints (one per DFS
        frame) through a limit-free context, so the assertion is the same
        on every host; the wall-clock version is
        ``benchmarks/bench_enumeration_delay.py``."""
        graph = random_labeled_graph(14, 60, rng=5)
        regex = parse_regex("(r + s)*/r/(r + s)*")
        ctx = Context(Budget())
        generator = enumerate_paths(graph, regex, 5, ctx=ctx)
        marks = []
        for _ in range(500):
            try:
                next(generator)
            except StopIteration:
                break
            marks.append(ctx.stats.checkpoints["enumerate.pop"])
        assert len(marks) > 100
        total = marks[-1]
        max_delay = max(b - a for a, b in zip(marks, marks[1:]))
        # Max delay is a tiny fraction of the total work: no exponential
        # stalls.
        assert max_delay < total * 0.25
