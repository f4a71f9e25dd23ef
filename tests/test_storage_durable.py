"""DurableGraph integration: caches, vectorized arrays, query frontends.

A recovered store is only as good as what the layers above it see: the
query cache must never serve a pre-crash answer for a post-crash graph,
the vectorized adjacency arrays must rebuild against recovered state, and
all three query frontends must answer the full cross-frontend shape
matrix identically before and after a crash (the issue's artifact check).
"""

from __future__ import annotations

import random

import pytest

from repro.cache import QueryCache
from repro.datasets import generate_contact_graph
from repro.models import figure2_property
from repro.query.cypherish import run_cypher
from repro.query.cypherish import store_for_graph as cypher_store_for_graph
from repro.query.pathql import run_pathql
from repro.query.sparql import run_sparql
from repro.query.sparql import store_for_graph as sparql_store_for_graph
from repro.storage import DurableGraph, list_segments
from tests.test_cross_frontend import SHAPES
from tests.test_storage_crash import make_workload

QUERIES = (
    "PATHS MATCHING r LENGTH 1 LIMIT 100000",
    "PATHS MATCHING r/s LENGTH 2 LIMIT 100000",
    "PATHS MATCHING ?a/(r + s) LENGTH 1 LIMIT 100000",
    "PATHS MATCHING (r)* MAXLENGTH 3 LIMIT 100000",
    "PATHS MATCHING s^- LENGTH 1 LIMIT 100000",
)


def pairs(graph, query, cache=None):
    result = run_pathql(graph, query, cache=cache)
    return sorted((path.start, path.end) for path in result.paths)


def tear_active_segment(directory: str) -> None:
    """Append half a frame to the live segment: a crash mid-append of a
    mutation that was never acknowledged."""
    path = list_segments(directory)[-1][2]
    with open(path, "ab") as handle:
        handle.write(b"\x40\x00\x00\x00\x99\x99")


class TestCacheFreshness:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_cached_equals_uncached_across_durable_interleaving(
            self, tmp_path, seed):
        """The metamorphic invariant, with the mutations going through the
        durable write path: at every step a cached answer equals a fresh
        cache-less evaluation."""
        rng = random.Random(40_000 + seed)
        ops = make_workload(random.Random(seed), count=12)
        cache = QueryCache()
        with DurableGraph.open(str(tmp_path / "s"),
                               fsync="always") as store:
            for step, (op, args) in enumerate(ops):
                getattr(store, op)(*args)
                for query in rng.sample(QUERIES, 2):
                    fresh = pairs(store.graph, query)
                    cached = pairs(store.graph, query, cache=cache)
                    assert cached == fresh, (seed, step, query)
                    again = pairs(store.graph, query, cache=cache)
                    assert again == fresh, (seed, step, query)
            assert cache.stats()["hits"] > 0

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_recovered_graph_serves_only_fresh_results(self, tmp_path, seed):
        """Crash, recover, and keep using the *same* cache object: every
        answer over the recovered graph must match a cache-less run —
        nothing stale from the pre-crash graph may leak through."""
        directory = str(tmp_path / "s")
        ops = make_workload(random.Random(100 + seed), count=12)
        cache = QueryCache()
        store = DurableGraph.open(directory, fsync="always")
        for op, args in ops:
            getattr(store, op)(*args)
        warm = {query: pairs(store.graph, query, cache=cache)
                for query in QUERIES}
        store.abort()  # crash
        tear_active_segment(directory)
        with DurableGraph.open(directory) as recovered:
            assert not recovered.recovery.clean
            for query in QUERIES:
                fresh = pairs(recovered.graph, query)
                cached = pairs(recovered.graph, query, cache=cache)
                assert cached == fresh, (seed, query)
                # Nothing was lost (fsync=always), so the recovered
                # answers also equal the pre-crash ones.
                assert cached == warm[query], (seed, query)

    def test_queries_run_against_the_adapter_itself(self, tmp_path):
        """A DurableGraph delegates reads, so frontends and the cache can
        target it directly — version checks ride the live mutation log."""
        cache = QueryCache()
        with DurableGraph.open(str(tmp_path / "s")) as store:
            for op, args in make_workload(random.Random(13), count=10):
                getattr(store, op)(*args)
            for query in QUERIES:
                assert pairs(store, query, cache=cache) \
                    == pairs(store.graph, query), query
            assert pairs(store, QUERIES[0], cache=cache) \
                == pairs(store.graph, QUERIES[0])
            assert cache.stats()["hits"] >= 1


class TestVectorizedArrays:
    def test_arrays_rebuild_against_recovered_state(self, tmp_path):
        pytest.importorskip("numpy")
        from repro.core.rpq.vectorized.arrays import graph_arrays
        from tests.test_vector_engine import snapshot_stamp

        directory = str(tmp_path / "s")
        ops = make_workload(random.Random(21), count=12)
        store = DurableGraph.open(directory, fsync="always")
        for op, args in ops[:8]:
            getattr(store, op)(*args)
        graph_arrays(store.graph)
        assert snapshot_stamp(store.graph) == store.version
        for op, args in ops[8:]:
            getattr(store, op)(*args)
        store.abort()
        tear_active_segment(directory)
        with DurableGraph.open(directory) as recovered:
            rebuilt = graph_arrays(recovered.graph)
            assert snapshot_stamp(recovered.graph) == recovered.version
            assert rebuilt.n == recovered.node_count()

    def test_vector_engine_matches_scalar_after_recovery(self, tmp_path):
        pytest.importorskip("numpy")
        from repro.core.rpq import endpoint_pairs, parse_regex

        directory = str(tmp_path / "s")
        with DurableGraph.open(directory, fsync="always") as store:
            for op, args in make_workload(random.Random(22), count=14):
                getattr(store, op)(*args)
        with DurableGraph.open(directory) as recovered:
            for text in ("r", "r/s", "(r + s)*", "s^-/r"):
                regex = parse_regex(text)
                assert endpoint_pairs(recovered.graph, regex,
                                      engine="vector") \
                    == endpoint_pairs(recovered.graph, regex,
                                      engine="scalar"), text


class TestCrossFrontendMatrixSurvivesCrash:
    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        """Both shape worlds ingested into durable stores, checkpointed,
        then crashed with a torn in-flight append."""
        root = tmp_path_factory.mktemp("matrix")
        built = {}
        for key, graph in (("contact",
                            generate_contact_graph(14, 3, 6, 2, rng=5)),
                           ("fig2", figure2_property())):
            directory = str(root / key)
            store = DurableGraph.open(directory, fsync="always")
            store.ingest(graph)
            store.checkpoint()
            store.abort()  # crash after the checkpoint...
            tear_active_segment(directory)  # ...mid-append of a new record
            built[key] = (graph, directory)
        return built

    @pytest.mark.parametrize("name,world,pathql,sparql,cypher", SHAPES,
                             ids=[shape[0] for shape in SHAPES])
    def test_recovered_store_answers_every_shape_identically(
            self, stores, name, world, pathql, sparql, cypher):
        source, directory = stores[world]
        expected = {(path.start, path.end)
                    for path in run_pathql(source, pathql).paths}
        with DurableGraph.open(directory, read_only=True) as store:
            graph = store.graph
            assert {(p.start, p.end)
                    for p in run_pathql(graph, pathql).paths} \
                == expected, name
            assert {tuple(row) for row in
                    run_sparql(sparql_store_for_graph(graph), sparql).rows} \
                == expected, name
            assert {tuple(row) for row in
                    run_cypher(cypher_store_for_graph(graph), cypher).rows} \
                == expected, name
