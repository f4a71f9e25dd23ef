"""Property-based and adversarial tests for the IVM delta engine.

Degenerate inputs the metamorphic tier only samples are pinned here
explicitly: self-loops, parallel edges, epsilon-accepting (nullable)
regexes, add-then-remove churn inside one sync window, and mutations
that fall off the :class:`~repro.cache.versioning.MutationLog` horizon
(which must force a conservative full recompute, never a wrong answer).
A seeded add/remove stream checks the view against a from-scratch
evaluation after every step, and a removal in one component must
rederive no fact of another.

The second half is the PR's interop audit: view maintenance is
read-only with respect to the graph, so a co-resident
:class:`~repro.cache.QueryCache` and the process-wide
:class:`~repro.core.rpq.vectorized.GraphArrays` cache must each observe
a mutation exactly once — a view sync must neither bump the graph
version nor force extra arrays rebuilds (the double-invalidation bug
this PR audited for).
"""

from __future__ import annotations

import random

import pytest

from repro.cache import QueryCache
from repro.core.rpq import endpoint_pairs, parse_regex
from repro.errors import BudgetExceeded
from repro.exec import Budget, Context
from repro.ivm import IncrementalPairs
from repro.models.property import PropertyGraph


def _chain(labels: str = "rr") -> PropertyGraph:
    graph = PropertyGraph()
    nodes = "abcdef"[: len(labels) + 1]
    for node in nodes:
        graph.add_node(node)
    for i, label in enumerate(labels):
        graph.add_edge(f"e{i}", nodes[i], nodes[i + 1], label=label)
    return graph


class TestDegenerateShapes:
    def test_self_loop_add_remove(self) -> None:
        graph = _chain("r")
        regex = parse_regex("r/r")
        view = IncrementalPairs(graph, regex)
        assert view.pairs() == set()
        graph.add_edge("loop", "a", "a", label="r")
        assert view.pairs() == endpoint_pairs(graph, regex) == {("a", "b"), ("a", "a")}
        graph.remove_edge("loop")
        assert view.pairs() == endpoint_pairs(graph, regex) == set()
        assert view.stats["full_recomputes"] == 1  # initial only

    def test_self_loop_under_star(self) -> None:
        graph = _chain("r")
        graph.add_edge("loop", "b", "b", label="s")
        regex = parse_regex("r/(s)*")
        view = IncrementalPairs(graph, regex)
        assert view.pairs() == endpoint_pairs(graph, regex) == {("a", "b")}
        graph.remove_edge("loop")
        assert view.pairs() == endpoint_pairs(graph, regex) == {("a", "b")}
        assert view.stats["retractions"] >= 0  # loop removal must not drop (a, b)

    def test_parallel_edges_support(self) -> None:
        """A pair with two witness edges survives losing one of them."""
        graph = PropertyGraph()
        graph.add_node("a")
        graph.add_node("b")
        graph.add_edge("e1", "a", "b", label="r")
        graph.add_edge("e2", "a", "b", label="r")
        view = IncrementalPairs(graph, parse_regex("r"))
        assert view.pairs() == {("a", "b")}
        graph.remove_edge("e1")
        assert view.pairs() == {("a", "b")}
        graph.remove_edge("e2")
        assert view.pairs() == set()
        assert view.stats["full_recomputes"] == 1

    def test_epsilon_accepting_regex(self) -> None:
        """Nullable regexes pair every node with itself; node churn included."""
        graph = _chain("rr")
        regex = parse_regex("(r)*")
        view = IncrementalPairs(graph, regex)
        assert view.pairs() == endpoint_pairs(graph, regex)
        graph.add_node("z")
        assert ("z", "z") in view.pairs()
        assert view.pairs() == endpoint_pairs(graph, regex)
        graph.remove_node("z")
        assert view.pairs() == endpoint_pairs(graph, regex)
        graph.remove_edge("e1")  # b -r-> c
        assert view.pairs() == endpoint_pairs(graph, regex)

    def test_add_then_remove_churn_cancels(self) -> None:
        """An edge added and removed within one sync window is a no-op."""
        graph = _chain("rr")
        regex = parse_regex("r/r")
        view = IncrementalPairs(graph, regex)
        before = view.pairs()
        graph.add_edge("churn", "c", "a", label="r")
        graph.remove_edge("churn")
        assert view.pairs() == before == endpoint_pairs(graph, regex)
        assert view.stats["full_recomputes"] == 1

    def test_remove_then_readd_same_edge(self) -> None:
        graph = _chain("rr")
        regex = parse_regex("r/r")
        view = IncrementalPairs(graph, regex)
        assert view.pairs() == {("a", "c")}
        graph.remove_edge("e0")
        graph.add_edge("e0", "a", "b", label="r")
        assert view.pairs() == endpoint_pairs(graph, regex) == {("a", "c")}


class TestHorizonAndFallbacks:
    def test_truncated_horizon_forces_full_recompute(
            self, monkeypatch: pytest.MonkeyPatch) -> None:
        monkeypatch.setenv("REPRO_LOG_HORIZON", "4")
        graph = _chain("rr")
        assert graph.mutation_log.capacity == 4
        regex = parse_regex("r/r")
        view = IncrementalPairs(graph, regex)
        view.pairs()  # materialize at the current version
        for i in range(6):  # blow past the 4-record window in one gap
            graph.add_edge(f"x{i}", "a", "c", label="s")
        assert graph.mutation_log.records_since(view.version) is None
        assert view.pairs() == endpoint_pairs(graph, regex)
        assert view.stats["truncations"] == 1
        assert view.stats["full_recomputes"] == 2  # initial + horizon fallback

    def test_oversized_delta_falls_back(self) -> None:
        graph = _chain("rr")
        view = IncrementalPairs(graph, parse_regex("r/r"), delta_threshold=2)
        view.pairs()
        for i in range(5):
            graph.add_edge(f"b{i}", "a", "b", label="r")
        assert view.pairs() == endpoint_pairs(graph, parse_regex("r/r"))
        assert view.stats["threshold_fallbacks"] == 1

    def test_budget_poisoning_recovers_with_full_recompute(self) -> None:
        """A sync killed mid-delta must not leave half-applied state behind."""
        rng = random.Random(42)
        graph = PropertyGraph()
        for i in range(12):
            graph.add_node(f"n{i}")
        for i in range(30):
            graph.add_edge(f"e{i}", f"n{rng.randrange(12)}",
                           f"n{rng.randrange(12)}", label="r")
        regex = parse_regex("r/(r)*")
        view = IncrementalPairs(graph, regex)
        view.pairs()
        for i in range(8):
            graph.add_edge(f"d{i}", f"n{rng.randrange(12)}",
                           f"n{rng.randrange(12)}", label="r")
        with pytest.raises(BudgetExceeded):
            view.sync(Context(Budget(max_steps=1)))
        # The poisoned engine must rebuild from scratch, not trust the
        # partially-applied delta.
        assert view.pairs() == endpoint_pairs(graph, regex)
        assert view.stats["full_recomputes"] >= 2


class TestSeededDifferential:
    def test_view_matches_endpoint_pairs(self) -> None:
        """Random add/remove streams: the view equals a from-scratch
        evaluation after every step."""
        for seed in (3, 5, 9):
            rng = random.Random(640_000 + seed)
            graph = PropertyGraph()
            for i in range(10):
                graph.add_node(f"n{i}", label=rng.choice(("a", "b")))
            for i in range(25):
                graph.add_edge(f"e{i}", f"n{rng.randrange(10)}",
                               f"n{rng.randrange(10)}",
                               label=rng.choice(("r", "s")))
            regex = parse_regex("(r + s^-)/(?a/r)*")
            view = IncrementalPairs(graph, regex)
            for step in range(20):
                if rng.random() < 0.6:
                    if rng.random() < 0.5 and graph.edges():
                        graph.remove_edge(rng.choice(sorted(graph.edges())))
                    else:
                        graph.add_edge(f"m{seed}.{step}",
                                       f"n{rng.randrange(10)}",
                                       f"n{rng.randrange(10)}",
                                       label=rng.choice(("r", "s")))
                want = endpoint_pairs(graph, regex)
                assert view.pairs() == want, f"seed={seed} step={step}"
            assert view.stats["delta_syncs"] > 0
            assert view.stats["retractions"] > 0


class TestRemovalLocality:
    def test_removal_rederives_only_its_component(self) -> None:
        """Removing an edge rederives facts of its own component only.

        Two disjoint ``r`` cycles, the second three times the size of the
        first: cutting the small cycle may rederive at most the facts the
        small cycle held, never one of the large cycle's.
        """
        graph = PropertyGraph()
        for prefix, size in (("a", 4), ("b", 12)):
            for i in range(size):
                graph.add_edge(f"{prefix}{i}", f"{prefix}{i}",
                               f"{prefix}{(i + 1) % size}", label="r")
        regex = parse_regex("r/(r)*")
        view = IncrementalPairs(graph, regex)
        assert view.pairs() == endpoint_pairs(graph, regex)
        small = sum(1 for _q, node in view.masks if node.startswith("a"))
        large = sum(1 for _q, node in view.masks if node.startswith("b"))
        assert 0 < small < large
        before = dict(view.masks)
        graph.remove_edge("a1")
        assert view.pairs() == endpoint_pairs(graph, regex)
        assert view.stats["full_recomputes"] == 1
        assert view.stats["retractions"] == 1
        assert 0 < view.stats["rederived"] <= small, view.stats
        assert {key: mask for key, mask in view.masks.items()
                if key[1].startswith("b")} == {
            key: mask for key, mask in before.items()
            if key[1].startswith("b")}


class TestCacheInterop:
    """The PR-10 audit: view syncs are invisible to co-resident caches."""

    def test_view_sync_does_not_bump_graph_version(self) -> None:
        graph = _chain("rr")
        view = IncrementalPairs(graph, parse_regex("r/r"))
        view.pairs()
        graph.add_edge("x", "a", "c", label="s")
        version = graph.version
        view.pairs()  # absorbs the delta
        assert graph.version == version

    def test_query_cache_restamps_across_view_sync(self) -> None:
        """A cached result disjoint from the mutation must stay a hit even
        when an incremental view absorbs that same mutation in between."""
        from repro.query.pathql import run_pathql

        graph = _chain("rr")
        cache = QueryCache()
        query = "PATHS MATCHING r/r FROM a LENGTH 2 COUNT"
        first = run_pathql(graph, query, cache=cache)
        assert cache.stats()["misses"] == 1
        view = IncrementalPairs(graph, parse_regex("r/r"))
        view.pairs()
        graph.add_edge("x", "a", "c", label="s")  # disjoint from footprint {r}
        view.pairs()  # view absorbs the delta first ...
        again = run_pathql(graph, query, cache=cache)
        # ... and the cache still restamps to a hit: one observation each.
        assert cache.stats()["hits"] == 1
        assert again.count == first.count

    def test_arrays_cache_single_rebuild_per_mutation(self) -> None:
        pytest.importorskip("numpy")
        from repro.core.rpq.vectorized.arrays import (
            adjacency_cache_info, clear_adjacency_cache, graph_arrays)

        clear_adjacency_cache()
        graph = _chain("rr")
        regex = parse_regex("r/r")
        view = IncrementalPairs(graph, regex)
        view.pairs()
        graph_arrays(graph)
        base = adjacency_cache_info()["rebuilds"]
        graph.add_edge("x0", "c", "a", label="r")
        view.pairs()          # a delta sync builds arrays at most once
        graph_arrays(graph)   # subsequent callers reuse that snapshot
        after = adjacency_cache_info()["rebuilds"]
        assert after - base <= 1, adjacency_cache_info()
        # and the shared snapshot the view used is untainted:
        fresh = endpoint_pairs(graph, regex, engine="vector")
        assert fresh == view.pairs() == endpoint_pairs(graph, regex,
                                                       engine="scalar")
