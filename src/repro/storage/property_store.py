"""An indexed property-graph store (the Neo4j-style storage substrate).

Wraps a :class:`repro.models.PropertyGraph` with the secondary indexes a
graph database maintains.  Label and per-label adjacency lookups delegate to
the *live* indexes the labeled-graph model now maintains incrementally (so
they never go stale under mutation); the store itself keeps only the
(property, value) index the model does not have.  This is the storage layer
under the mini-Cypher engine of :mod:`repro.query.cypherish`.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.cache import Entry, Footprint
from repro.cache.result_cache import STALE, TRUNCATED
from repro.models.property import PropertyGraph


class PropertyGraphStore:
    """Index layer over a property graph (the graph itself stays the model).

    The store wraps the *live* graph, so versioning delegates straight to
    it: query results cached against a store are invalidated by mutations
    of the underlying :class:`PropertyGraph`.  The (property, value) index —
    the one piece of state the store owns — is built per property name on
    its first lookup and held in an :class:`~repro.cache.Entry` whose
    footprint is that property plus the node set, so it is rebuilt only
    after a write that can change it: a node added or removed or
    relabelled, or a value of that property written or deleted.
    """

    def __init__(self, graph: PropertyGraph) -> None:
        self.graph = graph
        self._by_property: dict = {}  # prop -> Entry of {value: nodes}

    @property
    def version(self) -> int:
        return self.graph.version

    @property
    def mutation_log(self):
        return self.graph.mutation_log

    # -- index lookups ---------------------------------------------------------

    def nodes_with_label(self, label) -> set:
        return set(self.graph.nodes_with_label(label))

    def edges_with_label(self, label) -> set:
        return set(self.graph.edges_with_label(label))

    def nodes_with_property(self, prop, value) -> set:
        graph = self.graph
        entry = self._by_property.get(prop)
        if entry is None or entry.check(graph.mutation_log) in (STALE,
                                                                TRUNCATED):
            by_value: dict = {}
            for node in graph.nodes():
                props = graph.node_properties(node)
                if prop in props:
                    by_value.setdefault(props[prop], set()).add(node)
            entry = self._by_property[prop] = Entry(
                by_value, graph.version,
                Footprint(properties=frozenset((prop,)), all_nodes=True))
        return set(entry.value.get(value, ()))

    def out_edges_labeled(self, node, label) -> list:
        """Outgoing edges of ``node`` with the given label (O(1) index hit)."""
        return self.graph.out_edges_with_label(node, label)

    def in_edges_labeled(self, node, label) -> list:
        return self.graph.in_edges_with_label(node, label)

    def expand(self, node, label=None, *, direction: str = "out",
               ) -> Iterator[tuple]:
        """Yield (edge, neighbor) pairs from ``node``.

        ``label=None`` expands over every edge label.  This is the
        traversal primitive whose cost the paper contrasts with join-based
        relational expansion.
        """
        graph = self.graph
        if direction in ("out", "both"):
            edges = (graph.iter_out_edges(node) if label is None
                     else graph.iter_out_edges_with_label(node, label))
            for edge in edges:
                yield edge, graph.target(edge)
        if direction in ("in", "both"):
            edges = (graph.iter_in_edges(node) if label is None
                     else graph.iter_in_edges_with_label(node, label))
            for edge in edges:
                yield edge, graph.source(edge)

    def node_count_for_label(self, label) -> int:
        return sum(1 for _ in self.graph.nodes_with_label(label))

    def labels(self) -> set:
        return self.graph.node_label_set()

    def edge_labels(self) -> set:
        return self.graph.edge_label_set()
