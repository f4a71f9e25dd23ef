"""Property-style invariants of the label-indexed adjacency (all models).

After any interleaving of ``add_edge`` / ``remove_edge`` / ``remove_node``
(plus relabeling), the incremental per-label indexes must agree with a
filter over the plain incidence lists — on labeled, property and vector
graphs, and on graphs produced by the model conversions.
"""

from __future__ import annotations

import random

import pytest

from repro.datasets import random_labeled_graph
from repro.models import (
    LabeledGraph,
    PropertyGraph,
    RDFGraph,
    VectorGraph,
)
from repro.models.convert import (
    labeled_to_property,
    labeled_to_rdf,
    property_to_vector,
    rdf_to_labeled,
)

NODE_LABELS = ("person", "bus", "stop")
EDGE_LABELS = ("contact", "rides", "lives")


def check_label_index_invariants(graph: LabeledGraph) -> None:
    """The index agrees with a filter over the unindexed incidence lists."""
    labels = set(EDGE_LABELS) | graph.edge_label_set() | {"no-such-label"}
    for node in graph.nodes():
        for label in labels:
            expected_out = sorted(
                (e for e in graph.out_edges(node) if graph.edge_label(e) == label),
                key=str)
            expected_in = sorted(
                (e for e in graph.in_edges(node) if graph.edge_label(e) == label),
                key=str)
            assert sorted(graph.out_edges_with_label(node, label), key=str) == expected_out
            assert sorted(graph.in_edges_with_label(node, label), key=str) == expected_in
            assert sorted(graph.iter_out_edges_with_label(node, label), key=str) == expected_out
            assert sorted(graph.iter_in_edges_with_label(node, label), key=str) == expected_in
    for label in labels:
        expected = {e for e in graph.edges() if graph.edge_label(e) == label}
        assert set(graph.edges_with_label(label)) == expected
        assert graph.label_edge_count(label) == len(expected)
    node_labels = set(NODE_LABELS) | graph.node_label_set() | {"no-such-label"}
    for label in node_labels:
        assert set(graph.nodes_with_label(label)) == {
            n for n in graph.nodes() if graph.node_label(n) == label}


def check_incidence_invariants(graph) -> None:
    """Zero-copy iterators agree with the copying accessors, degrees match."""
    for node in graph.nodes():
        assert list(graph.iter_out_edges(node)) == graph.out_edges(node)
        assert list(graph.iter_in_edges(node)) == graph.in_edges(node)
        assert graph.out_degree(node) == len(graph.out_edges(node))
        assert graph.in_degree(node) == len(graph.in_edges(node))
    for edge in graph.edges():
        source, target = graph.endpoints(edge)
        assert edge in graph.iter_out_edges(source)
        assert edge in graph.iter_in_edges(target)


def _random_mutation(rng: random.Random, graph: LabeledGraph, counter: list[int]) -> None:
    nodes = sorted(graph.nodes(), key=str)
    edges = sorted(graph.edges(), key=str)
    op = rng.random()
    if op < 0.45 or not nodes:
        counter[0] += 1
        source = rng.choice(nodes) if nodes and rng.random() < 0.8 else f"x{counter[0]}"
        target = rng.choice(nodes) if nodes and rng.random() < 0.8 else f"y{counter[0]}"
        graph.add_edge(f"m{counter[0]}", source, target, rng.choice(EDGE_LABELS))
    elif op < 0.65 and edges:
        graph.remove_edge(rng.choice(edges))
    elif op < 0.78 and nodes:
        graph.remove_node(rng.choice(nodes))
    elif op < 0.9 and edges:
        graph.set_edge_label(rng.choice(edges), rng.choice(EDGE_LABELS))
    elif nodes:
        graph.set_node_label(rng.choice(nodes), rng.choice(NODE_LABELS))


@pytest.mark.parametrize("seed", range(8))
def test_labeled_graph_index_survives_random_interleavings(seed):
    rng = random.Random(seed)
    graph = random_labeled_graph(8, 16, node_labels=NODE_LABELS,
                                 edge_labels=EDGE_LABELS, rng=seed)
    counter = [0]
    for step in range(60):
        _random_mutation(rng, graph, counter)
        if step % 15 == 14:
            check_label_index_invariants(graph)
            check_incidence_invariants(graph)
    check_label_index_invariants(graph)
    check_incidence_invariants(graph)


@pytest.mark.parametrize("seed", range(4))
def test_property_graph_index_survives_random_interleavings(seed):
    rng = random.Random(100 + seed)
    graph = PropertyGraph()
    for i in range(6):
        graph.add_node(f"n{i}", rng.choice(NODE_LABELS), {"w": str(i)})
    counter = [0]
    for _ in range(50):
        _random_mutation(rng, graph, counter)
    check_label_index_invariants(graph)
    check_incidence_invariants(graph)


@pytest.mark.parametrize("seed", range(4))
def test_vector_graph_feature_index_survives_mutations(seed):
    rng = random.Random(200 + seed)
    dim = 3
    values = ("0", "1", "2")
    graph = VectorGraph(dim)
    for i in range(6):
        graph.add_node(f"v{i}", tuple(rng.choice(values) for _ in range(dim)))
    counter = 0
    for _ in range(60):
        nodes = sorted(graph.nodes(), key=str)
        edges = sorted(graph.edges(), key=str)
        op = rng.random()
        if op < 0.5 or not edges:
            counter += 1
            graph.add_edge(f"e{counter}", rng.choice(nodes), rng.choice(nodes),
                           tuple(rng.choice(values) for _ in range(dim)))
        elif op < 0.7:
            graph.remove_edge(rng.choice(edges))
        elif op < 0.82 and len(nodes) > 2:
            graph.remove_node(rng.choice(nodes))
        else:
            graph.set_edge_vector(rng.choice(edges),
                                  tuple(rng.choice(values) for _ in range(dim)))
    check_incidence_invariants(graph)
    for node in graph.nodes():
        for index in range(1, dim + 1):
            for value in values:
                expected_out = sorted(
                    (e for e in graph.out_edges(node)
                     if graph.edge_feature(e, index) == value), key=str)
                expected_in = sorted(
                    (e for e in graph.in_edges(node)
                     if graph.edge_feature(e, index) == value), key=str)
                assert sorted(graph.out_edges_with_feature(node, index, value),
                              key=str) == expected_out
                assert sorted(graph.in_edges_with_feature(node, index, value),
                              key=str) == expected_in
                assert sorted(graph.iter_out_edges_with_feature(node, index, value),
                              key=str) == expected_out
                assert sorted(graph.iter_in_edges_with_feature(node, index, value),
                              key=str) == expected_in


def test_converted_graphs_carry_consistent_indexes():
    base = random_labeled_graph(10, 25, node_labels=NODE_LABELS,
                                edge_labels=EDGE_LABELS, rng=11)
    check_label_index_invariants(base)

    prop = labeled_to_property(base)
    check_label_index_invariants(prop)
    check_incidence_invariants(prop)

    vector = property_to_vector(prop)
    check_incidence_invariants(vector)
    for node in vector.nodes():
        for label in EDGE_LABELS:
            expected = sorted(
                (e for e in vector.out_edges(node)
                 if vector.edge_feature(e, 1) == label), key=str)
            assert sorted(vector.out_edges_with_feature(node, 1, label),
                          key=str) == expected

    back = rdf_to_labeled(labeled_to_rdf(base))
    check_label_index_invariants(back)
    check_incidence_invariants(back)


def test_copy_and_subgraph_rebuild_indexes():
    graph = random_labeled_graph(8, 18, node_labels=NODE_LABELS,
                                 edge_labels=EDGE_LABELS, rng=21)
    clone = graph.copy()
    check_label_index_invariants(clone)
    victim = sorted(graph.nodes(), key=str)[0]
    reduced = graph.subgraph_without_node(victim)
    assert not reduced.has_node(victim)
    check_label_index_invariants(reduced)
    # The original is untouched by the derived copies.
    check_label_index_invariants(graph)


def test_rdf_subject_object_indexes_after_mutation():
    graph = RDFGraph([("a", "p", "b"), ("a", "q", "c"), ("b", "p", "c")])
    graph.add("c", "p", "a")
    graph.discard("a", "q", "c")
    graph.discard("nope", "p", "nope")  # no-op
    for subject in ("a", "b", "c", "zzz"):
        assert set(graph.triples_from(subject)) == {
            t for t in graph.triples() if t.subject == subject}
    for obj in ("a", "b", "c", "zzz"):
        assert set(graph.triples_to(obj)) == {
            t for t in graph.triples() if t.object == obj}
    merged = graph.merge(RDFGraph([("d", "p", "a")]))
    assert set(merged.triples_to("a")) == {
        t for t in merged.triples() if t.object == "a"}


# ---------------------------------------------------------------------------
# Parallel-edge multisets (PR 3 audit).
#
# Several edges may share one (src, dst, label) triple; removing one of them
# must evict exactly that edge's index entries and keep every surviving
# duplicate reachable through the label index.  The maintenance code keys
# all index buckets by *edge id*, so the audit found no eviction bug — these
# tests pin that behaviour down so a future "optimized" rewrite keyed by
# (src, dst, label) cannot regress it silently.
# ---------------------------------------------------------------------------


def test_removing_one_parallel_edge_keeps_duplicates_indexed():
    graph = LabeledGraph()
    graph.add_node("a", "person")
    graph.add_node("b", "person")
    for name in ("e1", "e2", "e3"):
        graph.add_edge(name, "a", "b", "contact")
    graph.remove_edge("e2")
    assert set(graph.out_edges_with_label("a", "contact")) == {"e1", "e3"}
    assert set(graph.in_edges_with_label("b", "contact")) == {"e1", "e3"}
    assert set(graph.edges_with_label("contact")) == {"e1", "e3"}
    check_label_index_invariants(graph)
    check_incidence_invariants(graph)
    # Remove down to one survivor, then to none.
    graph.remove_edge("e1")
    assert set(graph.edges_with_label("contact")) == {"e3"}
    graph.remove_edge("e3")
    assert set(graph.edges_with_label("contact")) == set()
    check_label_index_invariants(graph)


def test_parallel_self_loops_survive_partial_removal():
    graph = LabeledGraph()
    graph.add_node("a", "person")
    graph.add_edge("l1", "a", "a", "contact")
    graph.add_edge("l2", "a", "a", "contact")
    graph.remove_edge("l1")
    assert set(graph.out_edges_with_label("a", "contact")) == {"l2"}
    assert set(graph.in_edges_with_label("a", "contact")) == {"l2"}
    check_label_index_invariants(graph)


def test_parallel_edges_still_answer_rpq_after_removal():
    """End to end: the index-backed fetch plan still sees the survivor."""
    from repro.core.rpq import endpoint_pairs, parse_regex

    graph = LabeledGraph()
    for name in ("a", "b", "c"):
        graph.add_node(name, "person")
    graph.add_edge("e1", "a", "b", "contact")
    graph.add_edge("e2", "a", "b", "contact")  # exact duplicate of e1
    graph.add_edge("e3", "b", "c", "lives")
    graph.remove_edge("e1")
    assert endpoint_pairs(graph, parse_regex("contact")) == {("a", "b")}
    assert endpoint_pairs(graph, parse_regex("contact/lives")) == {("a", "c")}


def _parallel_biased_mutation(rng: random.Random, graph: LabeledGraph,
                              counter: list[int]) -> None:
    """Like _random_mutation, but half of all insertions duplicate an
    existing edge's exact (src, dst, label) triple."""
    nodes = sorted(graph.nodes(), key=str)
    edges = sorted(graph.edges(), key=str)
    op = rng.random()
    if op < 0.5 or not edges:
        counter[0] += 1
        if edges and rng.random() < 0.5:
            template = rng.choice(edges)
            source, target = graph.endpoints(template)
            label = graph.edge_label(template)
        else:
            source = rng.choice(nodes) if nodes else f"x{counter[0]}"
            target = rng.choice(nodes) if nodes else f"y{counter[0]}"
            label = rng.choice(EDGE_LABELS)
        graph.add_edge(f"p{counter[0]}", source, target, label)
    elif op < 0.8:
        graph.remove_edge(rng.choice(edges))
    elif op < 0.9 and nodes:
        graph.remove_node(rng.choice(nodes))
    else:
        graph.set_edge_label(rng.choice(edges), rng.choice(EDGE_LABELS))


@pytest.mark.parametrize("seed", range(6))
def test_label_index_survives_parallel_edge_fuzz(seed):
    rng = random.Random(1000 + seed)
    graph = random_labeled_graph(5, 10, node_labels=NODE_LABELS,
                                 edge_labels=EDGE_LABELS, rng=seed)
    counter = [0]
    for step in range(80):
        _parallel_biased_mutation(rng, graph, counter)
        if step % 20 == 19:
            check_label_index_invariants(graph)
            check_incidence_invariants(graph)
    check_label_index_invariants(graph)
    check_incidence_invariants(graph)
