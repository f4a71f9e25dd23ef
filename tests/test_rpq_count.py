"""Count tests: determinized exact counting against the reference semantics,
including a hypothesis cross-check on random graphs and regexes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.rpq import (
    build_product,
    count_paths_bruteforce,
    count_paths_exact,
    parse_regex,
)
from repro.core.rpq.nfa import compile_regex
from repro.datasets import complete_multigraph, random_labeled_graph
from repro.models import LabeledGraph


class TestKnownCounts:
    def test_eq2(self, fig2_labeled):
        r = parse_regex("?person/contact/?infected")
        assert count_paths_exact(fig2_labeled, r, 1) == 1
        assert count_paths_exact(fig2_labeled, r, 0) == 0
        assert count_paths_exact(fig2_labeled, r, 2) == 0

    def test_bus_sharing(self, fig2_labeled):
        r = parse_regex("?person/rides/?bus/rides^-/?infected")
        assert count_paths_exact(fig2_labeled, r, 2) == 2

    def test_length_zero_counts_node_tests(self, fig2_labeled):
        assert count_paths_exact(fig2_labeled, parse_regex("?person"), 0) == 3
        assert count_paths_exact(fig2_labeled, parse_regex("?bus"), 0) == 1

    def test_star_counts_all_nodes_at_zero(self, fig2_labeled):
        r = parse_regex("contact*")
        assert count_paths_exact(fig2_labeled, r, 0) == fig2_labeled.node_count()

    def test_endpoint_restrictions(self, fig2_labeled):
        r = parse_regex("?person/rides/?bus/rides^-/?infected")
        assert count_paths_exact(fig2_labeled, r, 2, start_nodes=["n1"]) == 1
        assert count_paths_exact(fig2_labeled, r, 2, end_nodes=["n2"]) == 2
        assert count_paths_exact(fig2_labeled, r, 2, start_nodes=["n4"]) == 0

    def test_ambiguous_regex_counts_paths_not_runs(self):
        # (a + a/a) over a chain: NFA has two runs over some words, but
        # every path must be counted once.
        graph = LabeledGraph()
        graph.add_edge("e1", "x", "y", "a")
        graph.add_edge("e2", "y", "z", "a")
        r = parse_regex("(a/a) + (a/a)")
        assert count_paths_exact(graph, r, 2) == 1

    def test_union_of_overlapping_languages(self):
        graph = LabeledGraph()
        graph.add_edge("e1", "x", "y", "a")
        r = parse_regex("a + (a + a)")
        assert count_paths_exact(graph, r, 1) == 1

    def test_self_loop_direction_normalization(self):
        # A self-loop traversed forward or backward is the same path; the
        # union (a + a^-) must not double count it.
        graph = LabeledGraph()
        graph.add_edge("loop", "v", "v", "a")
        r = parse_regex("a + a^-")
        assert count_paths_exact(graph, r, 1) == 1

    def test_parallel_edges_counted_separately(self):
        graph = LabeledGraph()
        graph.add_edge("e1", "x", "y", "a")
        graph.add_edge("e2", "x", "y", "a")
        assert count_paths_exact(graph, parse_regex("a"), 1) == 2

    def test_negative_k_rejected(self, fig2_labeled):
        with pytest.raises(ValueError):
            count_paths_exact(fig2_labeled, parse_regex("contact"), -1)


_REGEXES = [
    "r", "r^-", "r/s", "(r + s)*", "?a/(r + s)/?b", "(r/s) + (s/r)",
    "(r + s)*/r", "?a/r*", "(r + r)*", "(!r)^-/s*",
]


class TestAgainstBruteForce:
    @pytest.mark.parametrize("regex_text", _REGEXES)
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_exact_equals_bruteforce_fixed(self, small_random_graph, regex_text, k):
        regex = parse_regex(regex_text)
        assert (count_paths_exact(small_random_graph, regex, k)
                == count_paths_bruteforce(small_random_graph, regex, k))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(0, 3),
           regex_index=st.integers(0, len(_REGEXES) - 1))
    def test_exact_equals_bruteforce_random(self, seed, k, regex_index):
        graph = random_labeled_graph(6, 10, rng=seed)
        regex = parse_regex(_REGEXES[regex_index])
        assert (count_paths_exact(graph, regex, k)
                == count_paths_bruteforce(graph, regex, k))

    def test_restricted_endpoints_match_bruteforce(self, small_random_graph):
        regex = parse_regex("(r + s)/r")
        starts = ["v0", "v1"]
        ends = ["v2", "v3"]
        assert (count_paths_exact(small_random_graph, regex, 2,
                                  start_nodes=starts, end_nodes=ends)
                == count_paths_bruteforce(small_random_graph, regex, 2,
                                          start_nodes=starts, end_nodes=ends))


class TestTrickyStars:
    """Regression tests for the classic Thompson-star pitfalls."""

    @pytest.mark.parametrize("regex_text", [
        "(r*)*", "(?a)*", "(?a/r)*", "((r + s)*)*", "(?a + r)*", "(r/r*)*",
    ])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_nested_and_guarded_stars(self, small_random_graph, regex_text, k):
        regex = parse_regex(regex_text)
        assert (count_paths_exact(small_random_graph, regex, k)
                == count_paths_bruteforce(small_random_graph, regex, k))

    def test_star_of_empty_language(self, small_random_graph):
        # false* accepts exactly the length-0 paths.
        regex = parse_regex("false*")
        assert (count_paths_exact(small_random_graph, regex, 0)
                == small_random_graph.node_count())
        assert count_paths_exact(small_random_graph, regex, 1) == 0

    def test_node_test_star_stays_length_zero(self, fig2_labeled):
        regex = parse_regex("(?person)*")
        assert count_paths_exact(fig2_labeled, regex, 0) == \
            fig2_labeled.node_count()
        assert count_paths_exact(fig2_labeled, regex, 1) == 0


class TestProductShape:
    @pytest.mark.parametrize("start_nodes", [None, ["v2", "v0"]])
    def test_only_accepting_states_have_empty_tables(self, start_nodes):
        """Thompson pass-through states (no edge transition, not the accept
        state) are never interned: on a graph where every node has every
        label in both directions, each other product state leaves by an
        edge.  The ``?node`` guard holds everywhere, so the guarded
        per-node closures are exercised without emptying a table."""
        graph = complete_multigraph(3)
        regex = parse_regex("(a + ?node/b^-)*/(a/b + b)*/(a + (b)*)")
        product = build_product(graph, compile_regex(regex),
                                start_nodes=start_nodes)
        empty = [product.state_keys[state]
                 for state in range(1, product.n_states())
                 if not product.transitions[state]
                 and state not in product.accepts]
        assert empty == []
        for k in range(3):
            assert (count_paths_exact(graph, regex, k, start_nodes)
                    == count_paths_bruteforce(graph, regex, k, start_nodes))
