"""Labeled graphs: (N, E, rho, lambda) with lambda : N u E -> Const.

Both nodes and edges carry exactly one label, as in Figure 2(a) of the
paper ("heterogeneous graphs" in the literature; the paper prefers the plain
term *labeled graph*).

Beyond the bare model, this class maintains the *label-indexed adjacency*
that real graph engines (MillenniumDB, Neo4j) key their storage on: for
every (node, edge-label) pair the incident edges are available in O(1),
so a label-selective navigation step ``(a)-[:contact]->(b)`` touches only
matching edges instead of scanning the whole incidence list.  The RPQ
product construction (:mod:`repro.core.rpq.product`) drives its fast path
through this index.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import GraphError
from repro.models.multigraph import Const, MultiGraph

DEFAULT_LABEL = ""

_EMPTY: dict = {}


def _label_conflict(node: Const, existing: Const, label: Const) -> GraphError:
    return GraphError(
        f"node {node!r} already has label {existing!r}, not {label!r}")


class LabeledGraph(MultiGraph):
    """A multigraph whose nodes and edges each carry one label.

    Secondary indexes, maintained incrementally through every mutation:

    - ``(source, label) -> {edge}`` and ``(target, label) -> {edge}``
      adjacency (insertion-ordered, so iteration is deterministic);
    - ``label -> {node}`` for :meth:`nodes_with_label`;
    - ``label -> {edge}`` for :meth:`edges_with_label`.
    """

    def __init__(self) -> None:
        super().__init__()
        self._node_labels: dict[Const, Const] = {}
        self._edge_labels: dict[Const, Const] = {}
        self._out_by_label: dict[tuple[Const, Const], dict[Const, None]] = {}
        self._in_by_label: dict[tuple[Const, Const], dict[Const, None]] = {}
        self._nodes_by_label: dict[Const, dict[Const, None]] = {}
        self._edges_by_label: dict[Const, dict[Const, None]] = {}

    # -- construction ------------------------------------------------------

    def add_node(self, node: Const, label: Const | None = None) -> Const:
        """Add a node with a label.

        Re-adding an existing node with a *different* label is an error; with
        the same label (or no label) it is a no-op, so graphs can be merged.
        """
        existing = self._node_labels.get(node)
        if existing is not None and label is not None and existing != label:
            raise _label_conflict(node, existing, label)
        super().add_node(node)
        if node not in self._node_labels:
            resolved = DEFAULT_LABEL if label is None else label
            self._node_labels[node] = resolved
            self._nodes_by_label.setdefault(resolved, {})[node] = None
            self.mutation_log.record("add_node.label",
                                     node_labels=(resolved,),
                                     payload=(node, resolved))
        return node

    def add_edge(self, edge: Const, source: Const, target: Const,
                 label: Const | None = None) -> Const:
        super().add_edge(edge, source, target)
        resolved = DEFAULT_LABEL if label is None else label
        self._edge_labels[edge] = resolved
        self._index_edge(edge, source, target, resolved)
        self.mutation_log.record("add_edge.label", edge_labels=(resolved,),
                                 payload=(edge, source, target, resolved))
        return edge

    def remove_edge(self, edge: Const) -> None:
        source, target = self.endpoints(edge)
        label = self._edge_labels[edge]
        super().remove_edge(edge)
        del self._edge_labels[edge]
        self._unindex_edge(edge, source, target, label)
        self.mutation_log.record("remove_edge.label", edge_labels=(label,),
                                 payload=(edge, source, target, label))

    def remove_node(self, node: Const) -> None:
        label = self.node_label(node)
        super().remove_node(node)
        del self._node_labels[node]
        self._discard_from_bucket(self._nodes_by_label, label, node)
        self.mutation_log.record("remove_node.label", node_labels=(label,),
                                 payload=(node, label))

    def _index_edge(self, edge: Const, source: Const, target: Const,
                    label: Const) -> None:
        self._out_by_label.setdefault((source, label), {})[edge] = None
        self._in_by_label.setdefault((target, label), {})[edge] = None
        self._edges_by_label.setdefault(label, {})[edge] = None

    def _unindex_edge(self, edge: Const, source: Const, target: Const,
                      label: Const) -> None:
        self._discard_from_bucket(self._out_by_label, (source, label), edge)
        self._discard_from_bucket(self._in_by_label, (target, label), edge)
        self._discard_from_bucket(self._edges_by_label, label, edge)

    @staticmethod
    def _discard_from_bucket(index: dict, key, member) -> None:
        bucket = index.get(key)
        if bucket is not None:
            bucket.pop(member, None)
            if not bucket:
                del index[key]

    # -- labels ------------------------------------------------------------

    def node_label(self, node: Const) -> Const:
        self._require_node(node)
        return self._node_labels[node]

    def edge_label(self, edge: Const) -> Const:
        self.endpoints(edge)  # raises UnknownEdgeError if missing
        return self._edge_labels[edge]

    def set_node_label(self, node: Const, label: Const) -> None:
        self._require_node(node)
        old = self._node_labels[node]
        if old == label:
            return
        self._node_labels[node] = label
        self._discard_from_bucket(self._nodes_by_label, old, node)
        self._nodes_by_label.setdefault(label, {})[node] = None
        self.mutation_log.record("set_node_label", node_labels=(old, label),
                                 payload=(node, old, label))

    def set_edge_label(self, edge: Const, label: Const) -> None:
        source, target = self.endpoints(edge)
        old = self._edge_labels[edge]
        if old == label:
            return
        self._edge_labels[edge] = label
        self._unindex_edge(edge, source, target, old)
        self._index_edge(edge, source, target, label)
        self.mutation_log.record("set_edge_label", edge_labels=(old, label),
                                 payload=(edge, old, label))

    def nodes_with_label(self, label: Const) -> Iterator[Const]:
        """All nodes n with lambda(n) = label (O(1) index hit)."""
        return iter(self._nodes_by_label.get(label, _EMPTY))

    def edges_with_label(self, label: Const) -> Iterator[Const]:
        return iter(self._edges_by_label.get(label, _EMPTY))

    def label_edge_count(self, label: Const) -> int:
        """How many edges carry ``label`` (O(1): the bucket's size)."""
        return len(self._edges_by_label.get(label, _EMPTY))

    def node_label_set(self) -> set[Const]:
        return set(self._nodes_by_label)

    def edge_label_set(self) -> set[Const]:
        return set(self._edges_by_label)

    # -- label-indexed adjacency -------------------------------------------

    def out_edges_with_label(self, node: Const, label: Const) -> list[Const]:
        """Outgoing edges of ``node`` labeled ``label`` (fresh list)."""
        self._require_node(node)
        return list(self._out_by_label.get((node, label), _EMPTY))

    def in_edges_with_label(self, node: Const, label: Const) -> list[Const]:
        """Incoming edges of ``node`` labeled ``label`` (fresh list)."""
        self._require_node(node)
        return list(self._in_by_label.get((node, label), _EMPTY))

    def iter_out_edges_with_label(self, node: Const,
                                  label: Const) -> Iterable[Const]:
        """Zero-copy view of outgoing ``label``-edges; don't mutate while iterating."""
        self._require_node(node)
        bucket = self._out_by_label.get((node, label))
        return bucket.keys() if bucket is not None else ()

    def iter_in_edges_with_label(self, node: Const,
                                 label: Const) -> Iterable[Const]:
        """Zero-copy view of incoming ``label``-edges; don't mutate while iterating."""
        self._require_node(node)
        bucket = self._in_by_label.get((node, label))
        return bucket.keys() if bucket is not None else ()

    def label_adjacency_index(self) -> tuple[dict, dict]:
        """The raw ``(node, label) -> edge-bucket`` dicts, (out, in).

        Read-only view for bulk consumers (the product construction) that
        probe the index once per node per transition and cannot afford a
        method call plus membership check on every probe.  Iterating a
        bucket yields its edges in insertion order.  Callers must not
        mutate the dicts, and must only probe nodes they obtained from
        this graph.
        """
        return self._out_by_label, self._in_by_label

    # -- equality ----------------------------------------------------------

    def _eq_signature(self) -> tuple:
        return super()._eq_signature() + (self._node_labels, self._edge_labels)

    # -- derived graphs ----------------------------------------------------

    def copy(self) -> "LabeledGraph":
        clone = type(self)()
        clone._copy_structure_from(self)
        return clone

    def _copy_structure_from(self, other: MultiGraph) -> None:
        if not isinstance(other, LabeledGraph):
            super()._copy_structure_from(other)
            return
        for node in other.nodes():
            self.add_node(node, other.node_label(node))
        for edge in other.edges():
            source, target = other.endpoints(edge)
            self.add_edge(edge, source, target, other.edge_label(edge))

    # -- bulk loading ------------------------------------------------------

    @classmethod
    def build(cls, nodes: Iterable[tuple],
              edges: Iterable[tuple]) -> "LabeledGraph":
        """Build from (node, label) and (edge, source, target, label) rows.

        A subclass takes the rows its ``add_node``/``add_edge`` take
        (:class:`~repro.models.property.PropertyGraph` adds an optional
        property map).  One pass straight into the indexes, with the
        checks and insertion order of an ``add_node``/``add_edge`` loop:
        node rows first; a repeated node row merges as :meth:`add_node`
        does (a ``None`` label keeps the first label, a different one
        raises :class:`GraphError`); a repeated edge id raises; implicit
        endpoints get the label ``""``.  The result is at version 0 with
        an empty mutation log.
        """
        graph = cls()
        for row in nodes:
            graph._load_node(*row)
        for row in edges:
            graph._load_edge(*row)
        return graph

    def _load_node(self, node: Const, label: Const | None = None) -> None:
        existing = self._node_labels.get(node)
        if existing is None:
            super()._load_node(node)
            resolved = DEFAULT_LABEL if label is None else label
            self._node_labels[node] = resolved
            self._nodes_by_label.setdefault(resolved, {})[node] = None
        elif label is not None and existing != label:
            raise _label_conflict(node, existing, label)

    def _load_edge(self, edge: Const, source: Const, target: Const,
                   label: Const | None = None) -> None:
        super()._load_edge(edge, source, target)
        resolved = DEFAULT_LABEL if label is None else label
        self._edge_labels[edge] = resolved
        self._index_edge(edge, source, target, resolved)
