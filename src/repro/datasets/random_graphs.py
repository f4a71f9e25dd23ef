"""Random graph generators for algorithm benchmarks and property tests."""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.models.labeled import LabeledGraph
from repro.models.vector import VectorGraph, VectorSchema
from repro.util.rng import make_rng


def erdos_renyi(n: int, p: float, *, rng: int | random.Random | None = 0,
                node_labels: Sequence[str] = ("node",),
                edge_labels: Sequence[str] = ("edge",)) -> LabeledGraph:
    """Directed G(n, p) with labels drawn uniformly from the given pools."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    rng = make_rng(rng)
    graph = LabeledGraph()
    for i in range(n):
        graph.add_node(f"v{i}", rng.choice(list(node_labels)))
    edge = 0
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                graph.add_edge(f"e{edge}", f"v{i}", f"v{j}",
                               rng.choice(list(edge_labels)))
                edge += 1
    return graph


def barabasi_albert(n: int, m: int, *, rng: int | random.Random | None = 0,
                    node_labels: Sequence[str] = ("node",),
                    edge_labels: Sequence[str] = ("edge",)) -> LabeledGraph:
    """Preferential attachment: each new node attaches to m earlier nodes."""
    if m < 1 or n < m + 1:
        raise ValueError("need n > m >= 1")
    rng = make_rng(rng)
    graph = LabeledGraph()
    targets = list(range(m))
    for i in range(n):
        graph.add_node(f"v{i}", rng.choice(list(node_labels)))
    repeated: list[int] = list(range(m))
    edge = 0
    for i in range(m, n):
        chosen = set()
        while len(chosen) < m:
            chosen.add(rng.choice(repeated) if repeated else rng.randrange(i))
        for j in chosen:
            graph.add_edge(f"e{edge}", f"v{i}", f"v{j}",
                           rng.choice(list(edge_labels)))
            edge += 1
            repeated.extend((i, j))
    del targets
    return graph


def random_labeled_graph(n: int, n_edges: int, *,
                         node_labels: Sequence[str] = ("a", "b"),
                         edge_labels: Sequence[str] = ("r", "s"),
                         rng: int | random.Random | None = 0,
                         allow_self_loops: bool = True,
                         allow_parallel: bool = True) -> LabeledGraph:
    """Uniform random labeled multigraph with exactly ``n_edges`` edges."""
    if n < 1 and n_edges > 0:
        raise ValueError("cannot place edges in an empty graph")
    rng = make_rng(rng)
    graph = LabeledGraph()
    for i in range(n):
        graph.add_node(f"v{i}", rng.choice(list(node_labels)))
    placed: set[tuple] = set()
    edge = 0
    attempts = 0
    while edge < n_edges and attempts < 50 * n_edges + 100:
        attempts += 1
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j and not allow_self_loops:
            continue
        if not allow_parallel and (i, j) in placed:
            continue
        placed.add((i, j))
        graph.add_edge(f"e{edge}", f"v{i}", f"v{j}",
                       rng.choice(list(edge_labels)))
        edge += 1
    return graph


def clustered_labeled_graph(n_clusters: int, cluster_size: int,
                            edges_per_cluster: int, *,
                            node_labels: Sequence[str] = ("a", "b"),
                            edge_labels: Sequence[str] = ("r", "s"),
                            rng: int | random.Random | None = 0) -> LabeledGraph:
    """Disjoint union of ``n_clusters`` dense random multigraphs.

    Every edge stays inside its cluster, so any path-shaped computation
    seeded at a node explores only that node's cluster — a structurally
    distinct family for the differential harness and the benchmarks.
    """
    if n_clusters < 1 or cluster_size < 1:
        raise ValueError("need at least one cluster of at least one node")
    rng = make_rng(rng)
    graph = LabeledGraph()
    edge = 0
    for cluster in range(n_clusters):
        base = cluster * cluster_size
        for i in range(cluster_size):
            graph.add_node(f"v{base + i}", rng.choice(list(node_labels)))
        for _ in range(edges_per_cluster):
            i, j = rng.randrange(cluster_size), rng.randrange(cluster_size)
            graph.add_edge(f"e{edge}", f"v{base + i}", f"v{base + j}",
                           rng.choice(list(edge_labels)))
            edge += 1
    return graph


def complete_multigraph(n: int,
                        edge_labels: Sequence[str] = ("a", "b"),
                        node_label: str = "node") -> LabeledGraph:
    """Complete directed multigraph (with self-loops): every ordered node
    pair carries one edge per label.

    This is the adversarial substrate for exact path counting: every label
    word over ``edge_labels`` is realized along every node sequence, so an
    ambiguous regex like ``(a + b)*/a/(a + b)^m/(a + b)*`` drives the
    determinized subset space to its worst case while staying tiny for the
    (polynomial) FPRAS — the workload of the governor experiments.
    """
    graph = LabeledGraph()
    for i in range(n):
        graph.add_node(f"v{i}", node_label)
    edge = 0
    for i in range(n):
        for j in range(n):
            for label in edge_labels:
                graph.add_edge(f"e{edge}", f"v{i}", f"v{j}", label)
                edge += 1
    return graph


def random_vector_graph(n: int, n_edges: int, dimension: int, *,
                        values: Sequence[str] = ("0", "1"),
                        rng: int | random.Random | None = 0) -> VectorGraph:
    """Random vector-labeled graph with features drawn from ``values``."""
    rng = make_rng(rng)
    schema = VectorSchema(tuple(f"feat{i}" for i in range(1, dimension + 1)))
    graph = VectorGraph(dimension, schema)

    def vector() -> tuple:
        return tuple(rng.choice(list(values)) for _ in range(dimension))

    for i in range(n):
        graph.add_node(f"v{i}", vector())
    for edge in range(n_edges):
        i, j = rng.randrange(n), rng.randrange(n)
        graph.add_edge(f"e{edge}", f"v{i}", f"v{j}", vector())
    return graph
