"""Vector-engine unit tests: selection, cache invalidation, edge cases.

The differential harness (:mod:`tests.test_differential`) and the
cross-frontend matrix (:mod:`tests.test_cross_frontend`) certify that the
vector kernel computes the same answers as the scalar oracle at scale.
This file covers the machinery *around* the kernel:

- ``resolve_engine`` contracts, including the numpy-unavailable paths
  (simulated by poking the probe cache — the image always has numpy);
- the per-graph adjacency-arrays memo: hits, rebuilds on
  structural/edge-label mutations, version re-stamping on writes the
  arrays do not encode, truncated-log conservatism, corpse checks;
- the per-snapshot transition-CSR memo: reuse for a repeated exact label
  set, rebuild with the snapshot, fresh builds for inexact tests, and
  seeded write/query interleavings (``REPRO_FUZZ_SEEDS``) asserting
  vector == scalar after every write;
- degenerate inputs through the forced vector path: empty graph, lone
  self-loop, parallel same-label edges, non-contiguous/non-integer node
  ids (the id ↔ dense-index remap round-trip);
- the CLI ``--engine`` flag on the query subcommands and batch mode.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.cache.versioning import MutationLog
from repro.cli import main
from repro.core.rpq import count_paths_exact, endpoint_pairs, parse_regex
from repro.core.rpq.ast import AndTest, LabelTest, OrTest, PropertyTest
from repro.core.rpq.vectorized import (
    adjacency_cache_info,
    clear_adjacency_cache,
    graph_arrays,
)
from repro.core.rpq.vectorized import arrays as arrays_module
from repro.core.rpq.vectorized import engine as engine_module
from repro.core.rpq.vectorized.engine import AUTO_MIN_NODES, resolve_engine
from repro.errors import EngineUnavailableError
from repro.models import LabeledGraph, PropertyGraph, figure2_property
from repro.models.io import dumps
from repro.obs import Tracer

SEEDS = tuple(int(seed) for seed in
              os.environ.get("REPRO_FUZZ_SEEDS", "0,1,2").split(","))


def snapshot_stamp(graph) -> int:
    """The version the memoized snapshot of ``graph`` is stamped at."""
    _, entry = arrays_module._SNAPSHOTS._entries[(id(graph), None)]
    return entry.version


def contact_chain() -> LabeledGraph:
    """a -contact-> b -contact-> c, plus a 'knows' edge b -> a."""
    graph = LabeledGraph()
    for node in ("a", "b", "c"):
        graph.add_node(node, "person")
    graph.add_edge("e1", "a", "b", "contact")
    graph.add_edge("e2", "b", "c", "contact")
    graph.add_edge("e3", "b", "a", "knows")
    return graph


def both_engines(graph, regex_text, **kwargs):
    """(scalar answer, vector answer) for one endpoint_pairs query."""
    regex = parse_regex(regex_text)
    return (endpoint_pairs(graph, regex, engine="scalar", **kwargs),
            endpoint_pairs(graph, regex, engine="vector", **kwargs))


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_adjacency_cache()
    yield
    clear_adjacency_cache()


class TestEngineResolution:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("turbo")

    def test_scalar_is_always_available(self):
        engine, reason = resolve_engine("scalar")
        assert engine == "scalar"
        assert "forced" in reason

    def test_vector_forced_when_numpy_present(self):
        engine, reason = resolve_engine("vector", contact_chain())
        assert engine == "vector"
        assert "forced" in reason

    def test_auto_small_graph_stays_scalar(self):
        engine, reason = resolve_engine("auto", contact_chain())
        assert engine == "scalar"
        assert str(AUTO_MIN_NODES) in reason

    def test_auto_large_count_goes_vector(self):
        engine, reason = resolve_engine("auto", n_nodes=AUTO_MIN_NODES)
        assert engine == "vector"
        assert "amortize" in reason

    def test_auto_without_graph_or_count_is_scalar(self):
        engine, reason = resolve_engine("auto")
        assert engine == "scalar"
        assert "no graph" in reason

    def test_vector_without_numpy_raises(self, monkeypatch):
        monkeypatch.setattr(engine_module, "_NUMPY", None)
        monkeypatch.setattr(engine_module, "_NUMPY_PROBED", True)
        with pytest.raises(EngineUnavailableError, match="requires numpy"):
            resolve_engine("vector", contact_chain())

    def test_auto_without_numpy_falls_back_scalar(self, monkeypatch):
        monkeypatch.setattr(engine_module, "_NUMPY", None)
        monkeypatch.setattr(engine_module, "_NUMPY_PROBED", True)
        engine, reason = resolve_engine("auto", n_nodes=10_000)
        assert engine == "scalar"
        assert "numpy unavailable" in reason

    def test_auto_sparse_footprint_demotes(self):
        n = AUTO_MIN_NODES
        engine, reason = resolve_engine(
            "auto", n_nodes=n, footprint_edges=4 * n - 1)
        assert engine == "scalar"
        assert "footprint" in reason
        engine, _ = resolve_engine("auto", n_nodes=n, footprint_edges=4 * n)
        assert engine == "vector"
        # The density signal never overrides a forced engine.
        engine, _ = resolve_engine("vector", n_nodes=n, footprint_edges=0)
        assert engine == "vector"


class TestAdjacencyCache:
    def test_repeat_lookup_hits(self):
        graph = contact_chain()
        first = graph_arrays(graph)
        second = graph_arrays(graph)
        assert second is first
        info = adjacency_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert info["rebuilds"] == 0

    def test_edge_label_mutation_rebuilds(self):
        graph = contact_chain()
        first = graph_arrays(graph)
        graph.set_edge_label("e3", "contact")
        second = graph_arrays(graph)
        assert second is not first
        assert adjacency_cache_info()["rebuilds"] == 1
        # The rebuilt arrays must reflect the new label partition.
        regex = parse_regex("contact")
        pairs = endpoint_pairs(graph, regex, engine="vector")
        assert pairs == endpoint_pairs(graph, regex, engine="scalar")
        assert ("b", "a") in pairs

    def test_structural_mutation_rebuilds(self):
        graph = contact_chain()
        first = graph_arrays(graph)
        graph.add_edge("e4", "c", "a", "contact")
        second = graph_arrays(graph)
        assert second is not first
        assert second.m == first.m + 1
        assert adjacency_cache_info()["rebuilds"] == 1

    def test_property_write_keeps_entry_and_restamps(self):
        graph = figure2_property()
        first = graph_arrays(graph)
        stamped = snapshot_stamp(graph)
        graph.set_node_property("n1", "name", "Julia II")
        second = graph_arrays(graph)
        assert second is first
        assert snapshot_stamp(graph) == graph.version != stamped
        info = adjacency_cache_info()
        assert info["rebuilds"] == 0 and info["hits"] == 1

    def test_node_label_write_keeps_entry(self):
        graph = contact_chain()
        first = graph_arrays(graph)
        graph.set_node_label("c", "patient")
        assert graph_arrays(graph) is first
        assert adjacency_cache_info()["rebuilds"] == 0
        # Node guards are evaluated live, so answers track the new label.
        scalar, vector = both_engines(graph, "contact/?patient")
        assert vector == scalar == {("b", "c")}

    def test_truncated_log_rebuilds_conservatively(self):
        graph = contact_chain()
        graph.mutation_log = MutationLog(capacity=2)
        first = graph_arrays(graph)
        for step in range(3):  # overflow the tiny log with benign writes
            graph.set_node_label("a", f"person{step}")
        assert graph_arrays(graph) is not first
        assert adjacency_cache_info()["rebuilds"] == 1

    def test_dead_graph_entry_never_served_to_id_reuser(self):
        graph = contact_chain()
        arrays = graph_arrays(graph)
        del graph
        # A different live graph can legitimately reuse the id; force the
        # comparison by looking up a fresh graph and checking identity.
        other = contact_chain()
        assert graph_arrays(other) is not arrays

    def test_vector_query_goes_through_cache(self):
        graph = contact_chain()
        regex = parse_regex("contact/contact*")
        before = adjacency_cache_info()["misses"]
        endpoint_pairs(graph, regex, engine="vector")
        endpoint_pairs(graph, regex, engine="vector")
        info = adjacency_cache_info()
        assert info["misses"] == before + 1
        assert info["hits"] >= 1


def weighted_graph(seed: int) -> PropertyGraph:
    """A seeded property graph whose a/b/c edges carry ``w`` = "0"/"1"."""
    rng = random.Random(seed)
    graph = PropertyGraph()
    for i in range(12):
        graph.add_node(f"v{i}", rng.choice("xy"), {"w": rng.choice("01")})
    for i in range(40):
        graph.add_edge(f"e{i}", f"v{rng.randrange(12)}",
                       f"v{rng.randrange(12)}", rng.choice("abc"),
                       {"w": rng.choice("01")})
    return graph


def vector_build_attrs(graph, text):
    """(vector answer, attrs of its ``vector:build`` span)."""
    tracer = Tracer()
    pairs = endpoint_pairs(graph, parse_regex(text), engine="vector",
                           tracer=tracer)
    pending = list(tracer.roots)
    while pending:
        span = pending.pop()
        if span.name == "vector:build":
            return pairs, span.attrs
        pending.extend(span.children)
    raise AssertionError(f"{text}: no vector:build span")


class TestTransitionMemo:
    """The snapshot's CSR memo: exact label sets and the wildcard are
    built once per snapshot; inexact tests are rebuilt on every query,
    because property and node-label writes only re-stamp the snapshot."""

    #: Exact, property-filtered, ``|`` and ``!`` tests, each direction,
    #: with label sets shared between exact and inexact tests so a memo
    #: that ignored exactness would answer one with the other's CSR.
    QUERIES = (
        "a/(b | c)*",
        '(a & w="1")/(b | c)*',
        '((a & w="1") | c)*/b',
        "(!a)/b^-",
        "(a & !b)^-/a",
        "a^-/?x/(a | b)*",
        "true/(b & w=\"0\")",
    )

    def test_repeated_label_set_reuses_csr(self):
        graph = weighted_graph(0)
        arrays = graph_arrays(graph)
        a_or_b = OrTest(LabelTest("a"), LabelTest("b"))
        b_or_a = OrTest(LabelTest("b"), LabelTest("a"))
        first, reused = arrays.transition_csr(graph, a_or_b, False)
        assert not reused
        # Same label set through a different test object: same CSR.
        again, reused = arrays.transition_csr(graph, b_or_a, False)
        assert reused and again is first
        # The other direction is its own entry.
        _, reused = arrays.transition_csr(graph, a_or_b, True)
        assert not reused

    def test_inexact_test_builds_every_time(self):
        graph = weighted_graph(1)
        arrays = graph_arrays(graph)
        filtered = AndTest(LabelTest("a"), PropertyTest("w", "1"))
        arrays.transition_csr(graph, LabelTest("a"), False)
        for _ in range(2):
            (src, _, _), reused = arrays.transition_csr(graph, filtered,
                                                        False)
            assert not reused
        heavy = [edge for edge in graph.edges_with_label("a")
                 if graph.edge_property(edge, "w") == "1"]
        assert src.size == len(heavy)

    def test_restamp_keeps_and_edge_add_rebuilds_memo(self):
        graph = weighted_graph(2)
        text = "a/(b | c)"
        _, attrs = vector_build_attrs(graph, text)
        assert attrs["reused"] == 0 and attrs["transitions"] == 2
        _, attrs = vector_build_attrs(graph, text)
        assert attrs["reused"] == 2
        graph.set_edge_property("e0", "w", "2")
        graph.set_node_label("v0", "z")
        _, attrs = vector_build_attrs(graph, text)
        assert attrs["reused"] == 2
        graph.add_edge("new", "v1", "v2", "a")
        pairs, attrs = vector_build_attrs(graph, text)
        assert attrs["reused"] == 0
        assert pairs == endpoint_pairs(graph, parse_regex(text),
                                       engine="scalar")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_interleaved_writes_keep_vector_equal_scalar(self, seed):
        rng = random.Random(4_000 + seed)
        graph = weighted_graph(seed)
        regexes = [(text, parse_regex(text)) for text in self.QUERIES]
        added = 0
        for step in range(30):
            kind = rng.choice(("edge-prop", "node-prop", "node-label",
                               "add-edge"))
            nodes = list(graph.nodes())
            if kind == "edge-prop":
                graph.set_edge_property(rng.choice(list(graph.edges())),
                                        "w", rng.choice("01"))
            elif kind == "node-prop":
                graph.set_node_property(rng.choice(nodes), "w",
                                        rng.choice("01"))
            elif kind == "node-label":
                graph.set_node_label(rng.choice(nodes), rng.choice("xy"))
            else:
                added += 1
                graph.add_edge(f"n{added}", rng.choice(nodes),
                               rng.choice(nodes), rng.choice("abc"),
                               {"w": rng.choice("01")})
            for text, regex in regexes:
                where = f"seed={seed} step={step} after {kind}: {text}"
                assert (endpoint_pairs(graph, regex, engine="vector")
                        == endpoint_pairs(graph, regex, engine="scalar")), \
                    where


class TestDegenerateInputs:
    def test_empty_graph(self):
        graph = LabeledGraph()
        scalar, vector = both_engines(graph, "contact*")
        assert vector == scalar == set()
        regex = parse_regex("contact")
        assert (count_paths_exact(graph, regex, 2, engine="vector")
                == count_paths_exact(graph, regex, 2, engine="scalar") == 0)

    def test_single_node_no_edges(self):
        graph = LabeledGraph()
        graph.add_node("only", "person")
        scalar, vector = both_engines(graph, "contact*")
        assert vector == scalar == {("only", "only")}
        scalar, vector = both_engines(graph, "contact/contact*")
        assert vector == scalar == set()

    def test_single_node_self_loop(self):
        graph = LabeledGraph()
        graph.add_node("only", "person")
        graph.add_edge("loop", "only", "only", "contact")
        for text in ("contact", "contact*", "contact/contact*", "contact^-",
                     "(contact/contact)*"):
            scalar, vector = both_engines(graph, text)
            assert vector == scalar, text
            assert scalar == {("only", "only")}, text
        regex = parse_regex("contact")
        for k in (1, 2, 5):
            assert (count_paths_exact(graph, regex, k, engine="vector")
                    == count_paths_exact(graph, regex, k, engine="scalar"))

    def test_parallel_same_label_edges(self):
        graph = LabeledGraph()
        graph.add_node("u", "person")
        graph.add_node("v", "person")
        for name in ("p1", "p2", "p3"):
            graph.add_edge(name, "u", "v", "contact")
        scalar, vector = both_engines(graph, "contact")
        assert vector == scalar == {("u", "v")}
        # Counting is per *path*, so the multiplicity must survive.
        regex = parse_regex("contact")
        assert (count_paths_exact(graph, regex, 1, engine="vector")
                == count_paths_exact(graph, regex, 1, engine="scalar") == 3)

    def test_non_contiguous_non_integer_node_ids(self):
        graph = LabeledGraph()
        nodes = [10**9, "alpha", -7, ("site", 3), 0]
        for node in nodes:
            graph.add_node(node, "thing")
        graph.add_edge("x1", 10**9, "alpha", "r")
        graph.add_edge("x2", "alpha", -7, "r")
        graph.add_edge("x3", -7, ("site", 3), "s")
        graph.add_edge("x4", ("site", 3), 0, "r")
        for text in ("r", "r/r", "r*", "(r + s)/(r + s)*", "r/r/s/r"):
            scalar, vector = both_engines(graph, text)
            assert vector == scalar, text
        # The remap must round-trip: answers are original ids, not indexes.
        scalar, vector = both_engines(graph, "r/r")
        assert vector == {(10**9, -7)}
        scalar, vector = both_engines(graph, "r/s")
        assert vector == {("alpha", ("site", 3))}

    def test_restricted_endpoints_match(self):
        graph = contact_chain()
        regex = parse_regex("contact/contact*")
        for starts, ends in ((["a"], None), (None, ["c"]), (["a"], ["c"]),
                             (["b", "c"], ["a", "b"])):
            scalar = endpoint_pairs(graph, regex, starts, ends,
                                    engine="scalar")
            vector = endpoint_pairs(graph, regex, starts, ends,
                                    engine="vector")
            assert vector == scalar, (starts, ends)


class TestCliEngine:
    @pytest.fixture
    def fig2_file(self, tmp_path):
        path = tmp_path / "fig2.json"
        path.write_text(dumps(figure2_property(), indent=2))
        return str(path)

    COUNT_QUERY = ("PATHS MATCHING ?person/rides/?bus/rides^-/?infected "
                   "LENGTH 2 COUNT")

    def test_pathql_engine_flag_matches_scalar(self, fig2_file, capsys):
        assert main(["pathql", fig2_file, self.COUNT_QUERY,
                     "--engine", "scalar"]) == 0
        scalar_out = capsys.readouterr().out
        assert main(["pathql", fig2_file, self.COUNT_QUERY,
                     "--engine", "vector"]) == 0
        assert capsys.readouterr().out == scalar_out == "2\n"

    def test_engine_surfaces_in_stats(self, fig2_file, capsys):
        assert main(["pathql", fig2_file, self.COUNT_QUERY,
                     "--engine", "vector", "--stats"]) == 0
        err = capsys.readouterr().err
        assert "note engine" in err
        assert "vector" in err

    def test_sparql_and_cypher_engine_flag(self, fig2_file, capsys):
        query = "SELECT ?x WHERE { ?x <rdf:type> <person> . }"
        assert main(["sparql", fig2_file, query, "--engine", "scalar"]) == 0
        scalar_out = capsys.readouterr().out
        assert main(["sparql", fig2_file, query, "--engine", "vector"]) == 0
        assert capsys.readouterr().out == scalar_out

        query = "MATCH (p:person) RETURN DISTINCT p.name"
        assert main(["cypher", fig2_file, query, "--engine", "scalar"]) == 0
        scalar_out = capsys.readouterr().out
        assert main(["cypher", fig2_file, query, "--engine", "vector"]) == 0
        assert capsys.readouterr().out == scalar_out

    def test_batch_engine_flag(self, fig2_file, tmp_path, capsys):
        batch = tmp_path / "queries.json"
        batch.write_text(json.dumps([
            {"language": "pathql", "query": self.COUNT_QUERY},
            {"language": "cypher",
             "query": "MATCH (p:person) RETURN DISTINCT p.name"},
        ]))
        assert main(["batch", fig2_file, str(batch),
                     "--engine", "scalar"]) == 0
        scalar_out = capsys.readouterr().out
        assert main(["batch", fig2_file, str(batch),
                     "--engine", "vector"]) == 0
        assert capsys.readouterr().out == scalar_out

    def test_unknown_engine_rejected_by_argparse(self, fig2_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["pathql", fig2_file, self.COUNT_QUERY,
                  "--engine", "turbo"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
