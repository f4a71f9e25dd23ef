"""Property-graph store tests: label/property indexes and expansion."""

import random

from repro.storage import PropertyGraphStore


class TestIndexes:
    def test_nodes_by_label(self, fig2_property):
        store = PropertyGraphStore(fig2_property)
        assert store.nodes_with_label("person") == {"n1", "n4", "n7"}
        assert store.nodes_with_label("missing") == set()

    def test_edges_by_label(self, fig2_property):
        store = PropertyGraphStore(fig2_property)
        assert store.edges_with_label("rides") == {"e1", "e2", "e8"}

    def test_nodes_by_property(self, fig2_property):
        store = PropertyGraphStore(fig2_property)
        assert store.nodes_with_property("name", "Julia") == {"n1"}
        assert store.nodes_with_property("zip", "8320000") == {"n5"}
        assert store.nodes_with_property("name", "Nobody") == set()

    def test_labeled_adjacency(self, fig2_property):
        store = PropertyGraphStore(fig2_property)
        assert store.out_edges_labeled("n1", "rides") == ["e1"]
        assert set(store.in_edges_labeled("n3", "rides")) == {"e1", "e2", "e8"}
        assert store.out_edges_labeled("n1", "owns") == []

    def test_label_sets_and_counts(self, fig2_property):
        store = PropertyGraphStore(fig2_property)
        assert "bus" in store.labels()
        assert "rides" in store.edge_labels()
        assert store.node_count_for_label("person") == 3


class TestExpand:
    def test_expand_out(self, fig2_property):
        store = PropertyGraphStore(fig2_property)
        assert set(store.expand("n1", "rides")) == {("e1", "n3")}

    def test_expand_in(self, fig2_property):
        store = PropertyGraphStore(fig2_property)
        results = set(store.expand("n3", "rides", direction="in"))
        assert results == {("e1", "n1"), ("e2", "n2"), ("e8", "n7")}

    def test_expand_both_and_unlabeled(self, fig2_property):
        store = PropertyGraphStore(fig2_property)
        both = set(store.expand("n1", direction="both"))
        neighbors = {node for _, node in both}
        assert neighbors == {"n2", "n3", "n5", "n4"}

    def test_rebuild_after_mutation(self, fig2_property):
        store = PropertyGraphStore(fig2_property)
        assert store.nodes_with_property("name", "Zoe") == set()
        fig2_property.add_node("n9", "person", {"name": "Zoe"})
        assert "n9" in store.nodes_with_label("person")
        assert store.nodes_with_property("name", "Zoe") == {"n9"}


PROPS = ("name", "age", "zip")
VALUES = ("a", "b", "c")


def _scan(graph, prop, value) -> set:
    return {node for node in graph.nodes()
            if graph.node_properties(node).get(prop) == value}


class TestPropertyIndex:
    def test_index_matches_scan_under_mutation(self, fig2_property):
        """After node adds and removes, property sets and deletes,
        relabels and edge writes, every (property, value) lookup equals a
        scan of ``node_properties``."""
        graph = fig2_property
        store = PropertyGraphStore(graph)
        rng = random.Random(7)
        for step in range(120):
            nodes = sorted(graph.nodes())
            move = rng.choice(("add_node", "remove_node", "set", "delete",
                               "relabel", "add_edge"))
            if move == "add_node" or not nodes:
                graph.add_node(f"m{step}", rng.choice(("person", "bus")),
                               {rng.choice(PROPS): rng.choice(VALUES)})
            elif move == "remove_node":
                graph.remove_node(rng.choice(nodes))
            elif move == "set":
                graph.set_node_property(rng.choice(nodes), rng.choice(PROPS),
                                        rng.choice(VALUES))
            elif move == "delete":
                graph.delete_node_property(rng.choice(nodes),
                                           rng.choice(PROPS))
            elif move == "relabel":
                graph.set_node_label(rng.choice(nodes), "infected")
            else:
                graph.add_edge(f"x{step}", rng.choice(nodes),
                               rng.choice(nodes), "contact")
            # Query a random subset, so some indexes lag several writes.
            for prop in rng.sample(PROPS, 2):
                for value in VALUES:
                    assert store.nodes_with_property(prop, value) \
                        == _scan(graph, prop, value), (step, move, prop)

    def test_disjoint_write_keeps_index(self, fig2_property, monkeypatch):
        """An edge add, or a ``zip`` write while ``name`` is indexed, cannot
        change the ``name`` index: it is kept, not rebuilt by a scan."""
        graph = fig2_property
        store = PropertyGraphStore(graph)
        assert store.nodes_with_property("name", "Julia") == {"n1"}
        index = store._by_property["name"]
        reads = []
        real_node_properties = graph.node_properties

        def counted(node):
            reads.append(node)
            return real_node_properties(node)

        monkeypatch.setattr(graph, "node_properties", counted)
        graph.add_edge("e99", "n1", "n4", "contact")
        graph.set_node_property("n5", "zip", "8320001")
        assert store.nodes_with_property("name", "Julia") == {"n1"}
        assert reads == []
        assert store._by_property["name"] is index
        # A write it can see rebuilds it.
        graph.set_node_property("n4", "name", "Julia")
        assert store.nodes_with_property("name", "Julia") == {"n1", "n4"}
        assert reads and store._by_property["name"] is not index
