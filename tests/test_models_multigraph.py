"""Unit tests for the base multigraph model."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import DuplicateIdError, UnknownEdgeError, UnknownNodeError
from repro.models import MultiGraph


def build_triangle() -> MultiGraph:
    graph = MultiGraph()
    graph.add_edge("e1", "a", "b")
    graph.add_edge("e2", "b", "c")
    graph.add_edge("e3", "c", "a")
    return graph


class TestConstruction:
    def test_add_node_idempotent(self):
        graph = MultiGraph()
        graph.add_node("a")
        graph.add_node("a")
        assert graph.node_count() == 1

    def test_add_edge_creates_endpoints(self):
        graph = MultiGraph()
        graph.add_edge("e", "a", "b")
        assert graph.has_node("a") and graph.has_node("b")

    def test_duplicate_edge_id_rejected(self):
        graph = MultiGraph()
        graph.add_edge("e", "a", "b")
        with pytest.raises(DuplicateIdError):
            graph.add_edge("e", "a", "b")

    def test_parallel_edges_allowed(self):
        graph = MultiGraph()
        graph.add_edge("e1", "a", "b")
        graph.add_edge("e2", "a", "b")
        assert set(graph.edges_between("a", "b")) == {"e1", "e2"}

    def test_self_loop(self):
        graph = MultiGraph()
        graph.add_edge("loop", "a", "a")
        assert graph.out_degree("a") == 1
        assert graph.in_degree("a") == 1
        assert graph.degree("a") == 2

    def test_from_edges(self):
        graph = MultiGraph.from_edges([("e1", "a", "b"), ("e2", "b", "c")])
        assert graph.node_count() == 3
        assert graph.edge_count() == 2


class TestInspection:
    def test_endpoints(self):
        graph = build_triangle()
        assert graph.endpoints("e1") == ("a", "b")
        assert graph.source("e2") == "b"
        assert graph.target("e3") == "a"

    def test_unknown_edge(self):
        graph = build_triangle()
        with pytest.raises(UnknownEdgeError):
            graph.endpoints("missing")

    def test_unknown_node(self):
        graph = build_triangle()
        with pytest.raises(UnknownNodeError):
            graph.out_edges("missing")

    def test_adjacency(self):
        graph = build_triangle()
        assert graph.out_edges("a") == ["e1"]
        assert graph.in_edges("a") == ["e3"]
        assert set(graph.successors("a")) == {"b"}
        assert set(graph.predecessors("a")) == {"c"}
        assert graph.neighbors("a") == {"b", "c"}

    def test_incident_edges_self_loop_twice(self):
        graph = MultiGraph()
        graph.add_edge("loop", "a", "a")
        assert graph.incident_edges("a") == ["loop", "loop"]

    def test_contains_and_len(self):
        graph = build_triangle()
        assert "a" in graph
        assert "zzz" not in graph
        assert len(graph) == 3

    def test_nodes_iterate_in_insertion_order(self):
        graph = MultiGraph()
        names = [f"n{i}" for i in range(40)] + ["zeta", "alpha", "mid"]
        for name in names:
            graph.add_node(name)
        assert list(graph.nodes()) == names
        graph.remove_node("n3")
        graph.add_node("n3")
        assert list(graph.nodes()) == names[:3] + names[4:] + ["n3"]

    def test_node_order_does_not_depend_on_the_hash_seed(self):
        """String hashing is salted per process; node order must not be."""
        script = ("from repro.datasets import generate_contact_graph\n"
                  "print(list(generate_contact_graph(300, 12).nodes())[:5])")
        src = str(Path(__file__).resolve().parents[1] / "src")
        printed = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            printed.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True).stdout)
        assert printed[0] == printed[1] == str([f"n{i}" for i in
                                                range(1, 6)]) + "\n"


class TestMutation:
    def test_remove_edge_keeps_nodes(self):
        graph = build_triangle()
        graph.remove_edge("e1")
        assert graph.edge_count() == 2
        assert graph.has_node("a") and graph.has_node("b")

    def test_remove_node_removes_incident_edges(self):
        graph = build_triangle()
        graph.remove_node("a")
        assert not graph.has_node("a")
        assert graph.edge_count() == 1
        assert graph.has_edge("e2")

    def test_remove_node_with_self_loop(self):
        graph = MultiGraph()
        graph.add_edge("loop", "a", "a")
        graph.add_edge("e", "a", "b")
        graph.remove_node("a")
        assert graph.edge_count() == 0
        assert graph.has_node("b")

    def test_copy_is_independent(self):
        graph = build_triangle()
        clone = graph.copy()
        clone.remove_node("a")
        assert graph.has_node("a")
        assert graph.edge_count() == 3

    def test_subgraph_without_node(self):
        graph = build_triangle()
        sub = graph.subgraph_without_node("b")
        assert not sub.has_node("b")
        assert sub.edge_count() == 1
        assert graph.node_count() == 3
