"""Unit tests for the cache subsystem: logs, footprints, and the LRU cache.

Covers the mechanics the metamorphic suite exercises only end-to-end:
version counting across the model hierarchy, conservative truncation,
weakref identity protection, LRU eviction and stale accounting.
"""

from __future__ import annotations

import gc

import pytest

from repro.cache import Footprint, MISS, MutationLog, QueryCache
from repro.cache.result_cache import (
    CURRENT,
    RESTAMPED,
    STALE,
    TRUNCATED,
    Entry,
    nodes_key,
)
from repro.cache.versioning import (
    DEFAULT_LOG_CAPACITY,
    LOG_HORIZON_ENV,
    default_log_capacity,
)
from repro.models.labeled import LabeledGraph
from repro.models.multigraph import MultiGraph
from repro.models.property import PropertyGraph
from repro.models.rdf import RDFGraph
from repro.models.vector import VectorGraph
from repro.storage import PropertyGraphStore, TripleStore


class TestMutationLog:
    def test_fresh_log_is_version_zero(self):
        log = MutationLog()
        assert log.version == 0
        assert log.horizon == 0
        assert len(log) == 0

    def test_record_bumps_version_and_returns_it(self):
        log = MutationLog()
        assert log.record("add_edge", structural_edges=True) == 1
        assert log.record("add_edge", edge_labels=("r",)) == 2
        assert log.version == 2

    def test_records_since_filters_by_version(self):
        log = MutationLog()
        log.record("a", edge_labels=("r",))
        log.record("b", edge_labels=("s",))
        records = log.records_since(1)
        assert [r.kind for r in records] == ["b"]
        assert log.records_since(2) == []

    def test_intersects_since_checks_footprints(self):
        log = MutationLog()
        log.record("add_edge", edge_labels=("r",), structural_edges=True)
        assert log.intersects_since(0, Footprint(edge_labels=frozenset("r")))
        assert not log.intersects_since(
            0, Footprint(edge_labels=frozenset("s")))
        # At or past the current version nothing can have intersected.
        assert not log.intersects_since(1, Footprint.everything())

    def test_truncation_is_conservative(self):
        log = MutationLog(capacity=3)
        for _ in range(5):
            log.record("tick", properties=("p",))
        assert log.version == 5
        assert log.horizon == 2
        assert log.records_since(1) is None
        # Even a footprint no record can touch invalidates past the horizon.
        assert log.intersects_since(1, Footprint(edge_labels=frozenset("z")))
        assert not log.intersects_since(
            2, Footprint(edge_labels=frozenset("z")))

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            MutationLog(capacity=0)

    def test_default_capacity(self):
        assert MutationLog().capacity == DEFAULT_LOG_CAPACITY

    def test_capacity_from_environment(self, monkeypatch):
        monkeypatch.setenv(LOG_HORIZON_ENV, "7")
        assert default_log_capacity() == 7
        assert MutationLog().capacity == 7
        # An explicit constructor argument still wins.
        assert MutationLog(capacity=3).capacity == 3

    def test_environment_capacity_must_be_a_positive_integer(
            self, monkeypatch):
        for bad in ("zero", "0", "-5", "1.5"):
            monkeypatch.setenv(LOG_HORIZON_ENV, bad)
            with pytest.raises(ValueError):
                default_log_capacity()
        monkeypatch.setenv(LOG_HORIZON_ENV, "  ")
        assert default_log_capacity() == DEFAULT_LOG_CAPACITY

    def test_environment_truncation_stays_conservative(self, monkeypatch):
        monkeypatch.setenv(LOG_HORIZON_ENV, "2")
        log = MutationLog()
        for _ in range(5):
            log.record("tick", properties=("p",))
        assert log.horizon == 3
        assert log.intersects_since(2, Footprint(edge_labels=frozenset("z")))

    def test_fast_forward_rejoins_a_version_timeline(self):
        log = MutationLog()
        log.record("old", properties=("p",))
        log.fast_forward(10)
        assert log.version == 10
        assert log.horizon == 10
        # Everything before the horizon is unanswerable, hence stale.
        assert log.records_since(3) is None
        assert log.intersects_since(3, Footprint(edge_labels=frozenset("z")))
        # From the horizon forward, normal operation resumes.
        assert log.records_since(10) == []
        log.record("new", properties=("q",))
        assert log.version == 11
        assert [r.kind for r in log.records_since(10)] == ["new"]

    def test_fast_forward_backwards_is_an_error(self):
        log = MutationLog()
        log.fast_forward(5)
        with pytest.raises(ValueError):
            log.fast_forward(4)
        log.fast_forward(5)  # idempotent at the same version


class TestFootprintAlgebra:
    def test_union_is_fieldwise(self):
        left = Footprint(edge_labels=frozenset("r"), all_nodes=True)
        right = Footprint(edge_labels=frozenset("s"),
                          properties=frozenset("p"))
        union = left | right
        assert union.edge_labels == frozenset("rs")
        assert union.properties == frozenset("p")
        assert union.all_nodes and not union.all_edges

    def test_all_edges_ignores_pure_property_writes(self):
        log = MutationLog()
        log.record("set_node_property", properties=("p",))
        assert not log.intersects_since(0, Footprint(all_edges=True,
                                                     all_nodes=True))
        assert log.intersects_since(0, Footprint(all_properties=True))

    def test_everything_intersects_any_nonempty_record(self):
        fp = Footprint.everything()
        log = MutationLog()
        log.record("set_edge_vector", features=(3,))
        assert log.intersects_since(0, fp)

    def test_to_dict_is_sorted_and_json_friendly(self):
        fp = Footprint(edge_labels=frozenset(("s", "r")),
                       features=frozenset((2, 1)))
        data = fp.to_dict()
        assert data["edge_labels"] == ["r", "s"]
        assert data["features"] == [1, 2]
        assert data["all_edges"] is False


class TestModelVersioning:
    def test_multigraph_counts_structural_mutations(self):
        graph = MultiGraph()
        assert graph.version == 0
        graph.add_node("a")
        graph.add_node("b")
        v = graph.version
        graph.add_node("a")  # already present: no mutation
        assert graph.version == v
        graph.add_edge("e", "a", "b")
        assert graph.version > v

    def test_layers_each_record_their_part(self):
        graph = PropertyGraph()
        graph.add_node("a", "person", {"name": "Ann"})
        kinds = [r.kind for r in graph.mutation_log.records_since(0)]
        assert "add_node" in kinds
        assert "add_node.label" in kinds
        assert "add_node.props" in kinds

    def test_noop_property_write_is_elided(self):
        graph = PropertyGraph()
        graph.add_node("a", "person", {"name": "Ann"})
        v = graph.version
        graph.set_node_property("a", "name", "Ann")
        assert graph.version == v
        graph.set_node_property("a", "name", "Bea")
        assert graph.version == v + 1

    def test_noop_vector_write_is_elided(self):
        graph = VectorGraph(2)
        graph.add_node("a", (1.0, 2.0))
        v = graph.version
        graph.set_node_vector("a", (1.0, 2.0))
        assert graph.version == v
        graph.set_node_vector("a", (1.0, 3.0))
        assert graph.version == v + 1
        (record,) = graph.mutation_log.records_since(v)
        assert record.features == frozenset((2,))

    def test_rdf_type_triples_record_node_labels(self):
        graph = RDFGraph()
        graph.add("ann", "rdf:type", "person")
        (record,) = graph.mutation_log.records_since(0)
        assert record.node_labels == frozenset(("person",))
        assert not record.edge_labels
        graph.add("ann", "knows", "bea")
        (record,) = graph.mutation_log.records_since(1)
        assert record.edge_labels == frozenset(("knows",))

    def test_triple_store_has_its_own_log(self):
        store = TripleStore()
        assert store.version == 0
        store.add("a", "r", "b")
        assert store.version == 1
        store.add("a", "r", "b")  # duplicate: no mutation
        assert store.version == 1
        store.remove("a", "r", "b")
        assert store.version == 2

    def test_property_store_delegates_to_live_graph(self):
        graph = PropertyGraph()
        graph.add_node("a", "person", {"name": "Ann"})
        store = PropertyGraphStore(graph)
        assert store.version == graph.version
        assert store.mutation_log is graph.mutation_log
        before = set(store.nodes_with_property("name", "Bea"))
        graph.set_node_property("a", "name", "Bea")
        # The lazy property index self-heals on version change.
        assert set(store.nodes_with_property("name", "Bea")) == {"a"}
        assert before == set()


class TestStructuralEquality:
    def test_equal_content_different_history(self):
        left = LabeledGraph()
        right = LabeledGraph()
        left.add_node("a", "x")
        right.add_node("a", "y")
        right.set_node_label("a", "x")  # extra mutation, same end state
        assert left == right
        assert left.version != right.version

    def test_different_content_differs(self):
        left = PropertyGraph()
        right = PropertyGraph()
        left.add_node("a", "x", {"p": 1})
        right.add_node("a", "x", {"p": 2})
        assert left != right

    def test_subclass_never_equals_base(self):
        base = LabeledGraph()
        sub = PropertyGraph()
        assert base != sub and sub != base


class TestNodesKey:
    def test_none_passes_through(self):
        assert nodes_key(None) is None

    def test_order_and_container_insensitive(self):
        assert nodes_key({2, 1}) == nodes_key([1, 2]) == nodes_key((2, 1))

    def test_result_is_reusable_as_restriction(self):
        key = nodes_key(["b", "a"])
        assert key == ("a", "b")


class TestEntry:
    """The one check every memo applies: its four outcomes."""

    R = Footprint(edge_labels=frozenset("r"))

    def test_current_when_nothing_was_logged(self):
        log = MutationLog()
        log.record("add_edge", edge_labels=["r"])
        entry = Entry("v", log.version, self.R)
        assert entry.check(log) == CURRENT
        assert entry.version == 1

    def test_restamped_across_disjoint_records(self):
        log = MutationLog()
        entry = Entry("v", log.version, self.R)
        log.record("add_edge", edge_labels=["s"])
        log.record("set_node_property", properties=["age"])
        assert entry.check(log) == RESTAMPED
        assert entry.version == log.version == 2
        assert entry.check(log) == CURRENT

    def test_stale_when_a_record_intersects(self):
        log = MutationLog()
        entry = Entry("v", log.version, self.R)
        log.record("add_edge", edge_labels=["s"])
        log.record("remove_edge", edge_labels=["r"])
        assert entry.check(log) == STALE
        assert entry.version == 0  # not moved: stale stays stale
        assert entry.check(log) == STALE

    def test_truncated_when_the_log_dropped_history(self):
        log = MutationLog(capacity=2)
        entry = Entry("v", log.version, self.R)
        for label in "stu":  # all disjoint, but one falls off the log
            log.record("add_edge", edge_labels=[label])
        assert entry.check(log) == TRUNCATED
        assert entry.version == 0

    def test_footprint_is_any_object_with_intersects(self):
        class NodeSets:
            @staticmethod
            def intersects(record):
                return record.structural_nodes

        log = MutationLog()
        entry = Entry("v", 0, NodeSets())
        log.record("set_node_label", node_labels=["a", "b"])
        assert entry.check(log) == RESTAMPED
        log.record("add_node", structural_nodes=True)
        assert entry.check(log) == STALE


class TestQueryCache:
    def _graph(self):
        graph = LabeledGraph()
        graph.add_node("a", "x")
        graph.add_node("b", "x")
        graph.add_edge("e", "a", "b", "r")
        return graph

    def test_miss_then_hit(self):
        graph = self._graph()
        cache = QueryCache()
        assert cache.lookup(graph, "k") is MISS
        cache.store(graph, "k", Footprint(edge_labels=frozenset("r")), 42)
        assert cache.lookup(graph, "k") == 42
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_disjoint_mutation_keeps_entry_valid(self):
        graph = self._graph()
        cache = QueryCache()
        cache.store(graph, "k", Footprint(edge_labels=frozenset("r")), 42)
        graph.add_edge("f", "a", "b", "s")  # outside the footprint
        assert cache.lookup(graph, "k") == 42
        # Re-stamped: a second lookup needs no log walk and still hits.
        assert cache.lookup(graph, "k") == 42
        assert cache.stats()["stale"] == 0

    def test_intersecting_mutation_evicts(self):
        graph = self._graph()
        cache = QueryCache()
        cache.store(graph, "k", Footprint(edge_labels=frozenset("r")), 42)
        graph.add_edge("f", "b", "a", "r")
        assert cache.lookup(graph, "k") is MISS
        assert cache.stats()["stale"] == 1
        assert len(cache) == 0

    def test_target_without_log_never_caches(self):
        cache = QueryCache()
        target = object()
        cache.store(target, "k", Footprint(), 42)
        assert cache.lookup(target, "k") is MISS
        assert len(cache) == 0

    def test_dead_graph_entry_is_not_served_to_id_reuse(self):
        cache = QueryCache()
        graph = self._graph()
        cache.store(graph, "k", Footprint(), 42)
        entry_key = next(iter(cache._entries))
        del graph
        gc.collect()
        # Forge a target with the same id (the stored weakref is dead, so
        # whatever object occupies that id must not hit).
        class Fake:
            mutation_log = MutationLog()
        fake = Fake()
        cache._entries[(id(fake), "k")] = cache._entries.pop(entry_key)
        assert cache.lookup(fake, "k") is MISS
        assert len(cache) == 0

    def test_lru_eviction(self):
        graph = self._graph()
        cache = QueryCache(max_entries=2)
        cache.store(graph, "k1", Footprint(), 1)
        cache.store(graph, "k2", Footprint(), 2)
        assert cache.lookup(graph, "k1") == 1  # refresh k1
        cache.store(graph, "k3", Footprint(), 3)  # evicts k2
        assert cache.lookup(graph, "k2") is MISS
        assert cache.lookup(graph, "k1") == 1
        assert cache.lookup(graph, "k3") == 3

    def test_max_entries_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryCache(max_entries=0)

    def test_clear(self):
        graph = self._graph()
        cache = QueryCache()
        cache.store(graph, "k", Footprint(), 1)
        cache.clear()
        assert cache.lookup(graph, "k") is MISS

    def test_truncated_history_counts_as_stale(self):
        graph = self._graph()
        cache = QueryCache()
        cache.store(graph, "k", Footprint(edge_labels=frozenset("z")), 1)
        # Overflow the log with mutations the footprint cannot see.
        for index in range(graph.mutation_log.capacity + 1):
            graph.add_node(f"n{index}")
        assert cache.lookup(graph, "k") is MISS
        assert cache.stats()["stale"] == 1


class _ReprCollider:
    """A hashable id whose repr collides with ``repr(1)`` — the case a
    bare ``key=repr`` sort cannot totally order."""

    def __repr__(self):
        return "1"

    def __hash__(self):
        return 99991

    def __eq__(self, other):
        return isinstance(other, _ReprCollider)


class TestNodesKeyCanonicalOrder:
    def test_repr_colliding_ids_key_identically(self):
        collider = _ReprCollider()
        assert nodes_key([1, collider]) == nodes_key([collider, 1])

    def test_mixed_type_ids_key_identically(self):
        assert nodes_key([1, "1", 2, "2"]) == nodes_key(["2", 2, "1", 1])

    def test_canonical_key_orders_by_type_then_repr(self):
        key = nodes_key(["b", 2, "a", 1])
        assert key == (1, 2, "a", "b")


class TestQueryCacheCanonicalRestrictionKeys:
    def _graph(self):
        graph = LabeledGraph()
        for node in (1, "1", 2):
            graph.add_node(node, "x")
        graph.add_edge("e", 1, "1", "r")
        return graph

    def test_one_entry_for_reordered_mixed_restrictions(self):
        """The same logical {1, "1"} restriction, iterated two ways, must
        file under one cache entry — not split into duplicate entries
        with spurious misses."""
        graph = self._graph()
        cache = QueryCache()
        first = ("pairs", "r", nodes_key([1, "1"]))
        second = ("pairs", "r", nodes_key(["1", 1]))
        cache.store(graph, first, Footprint(edge_labels=frozenset("r")), 42)
        assert cache.lookup(graph, second) == 42
        assert len(cache) == 1
        cache.store(graph, second, Footprint(edge_labels=frozenset("r")), 42)
        assert len(cache) == 1

    def test_repr_colliding_restriction_is_order_insensitive(self):
        graph = self._graph()
        collider = _ReprCollider()
        cache = QueryCache()
        cache.store(graph, ("k", nodes_key([1, collider])), Footprint(), 7)
        assert cache.lookup(graph, ("k", nodes_key([collider, 1]))) == 7
        assert len(cache) == 1
