"""The base multigraph model: a tuple (N, E, rho).

Following the paper, nodes and edges are identified by constants (strings in
practice, any hashable value in this implementation), multiple edges may
connect the same pair of nodes, and ``rho`` maps each edge id to its ordered
(source, target) pair.  All richer models in this package extend this class.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator

from repro.cache.versioning import MutationLog
from repro.errors import DuplicateIdError, UnknownEdgeError, UnknownNodeError

Const = Hashable


class MultiGraph:
    """A directed multigraph (N, E, rho) with O(1) incidence lookups.

    Adjacency is indexed in both directions, so ``out_edges`` / ``in_edges``
    are cheap; this is the structural property the paper contrasts with the
    relational "two-attribute edge table" encoding, where every hop is a join.

    Per-node incidence is stored as insertion-ordered dicts keyed by edge id,
    so ``remove_edge`` is O(1) while iteration order stays deterministic
    (insertion order, exactly as the previous list-based representation).
    The node set is the key set of the outgoing index, so ``nodes()`` is in
    insertion order too, the same in every process whatever the string
    hash seed.

    Every graph owns a :class:`~repro.cache.versioning.MutationLog`: a
    monotonically increasing :attr:`version` plus label-granular records of
    what each mutation touched, which is what lets
    :class:`~repro.cache.QueryCache` prove cached answers still current.
    Each layer of the model hierarchy records the aspect it owns (structure
    here, labels/properties/features in subclasses), so one logical mutation
    may append several records.  The log never participates in equality or
    serialization: two structurally identical graphs with different
    histories compare equal.
    """

    def __init__(self) -> None:
        self._edges: dict[Const, tuple[Const, Const]] = {}
        self._out: dict[Const, dict[Const, None]] = {}
        self._in: dict[Const, dict[Const, None]] = {}
        self.mutation_log = MutationLog()

    @property
    def version(self) -> int:
        """Monotonically increasing mutation counter (0 for a fresh graph)."""
        return self.mutation_log.version

    # -- construction ------------------------------------------------------

    def add_node(self, node: Const) -> Const:
        """Add a node; adding an existing node is a no-op (graphs integrate)."""
        if node not in self._out:
            self._out[node] = {}
            self._in[node] = {}
            self.mutation_log.record("add_node", structural_nodes=True,
                                     payload=(node,))
        return node

    def add_edge(self, edge: Const, source: Const, target: Const) -> Const:
        """Add edge ``edge`` with rho(edge) = (source, target).

        Endpoints are created implicitly, matching the flexible grow-as-you-go
        character of graph models the paper emphasizes.  Re-adding an existing
        edge id raises :class:`DuplicateIdError`.
        """
        if edge in self._edges:
            raise DuplicateIdError("edge", edge)
        self.add_node(source)
        self.add_node(target)
        self._edges[edge] = (source, target)
        self._out[source][edge] = None
        self._in[target][edge] = None
        self.mutation_log.record("add_edge", structural_edges=True,
                                 payload=(edge, source, target))
        return edge

    def remove_edge(self, edge: Const) -> None:
        """Remove an edge in O(1); endpoints stay in the graph."""
        source, target = self.endpoints(edge)
        del self._edges[edge]
        del self._out[source][edge]
        del self._in[target][edge]
        self.mutation_log.record("remove_edge", structural_edges=True,
                                 payload=(edge, source, target))

    def remove_node(self, node: Const) -> None:
        """Remove a node and every edge incident to it."""
        self._require_node(node)
        for edge in list(self._out[node]) + list(self._in[node]):
            if edge in self._edges:
                self.remove_edge(edge)
        del self._out[node]
        del self._in[node]
        self.mutation_log.record("remove_node", structural_nodes=True,
                                 payload=(node,))

    # -- inspection --------------------------------------------------------

    def nodes(self) -> Iterator[Const]:
        """Every node, in insertion order (never string-hash order)."""
        return iter(self._out)

    def edges(self) -> Iterator[Const]:
        return iter(self._edges)

    def has_node(self, node: Const) -> bool:
        return node in self._out

    def has_edge(self, edge: Const) -> bool:
        return edge in self._edges

    def endpoints(self, edge: Const) -> tuple[Const, Const]:
        """Return rho(edge) = (source, target)."""
        try:
            return self._edges[edge]
        except KeyError:
            raise UnknownEdgeError(edge) from None

    def source(self, edge: Const) -> Const:
        return self.endpoints(edge)[0]

    def target(self, edge: Const) -> Const:
        return self.endpoints(edge)[1]

    def out_edges(self, node: Const) -> list[Const]:
        """Edge ids whose source is ``node`` (a fresh, caller-owned list)."""
        self._require_node(node)
        return list(self._out[node])

    def in_edges(self, node: Const) -> list[Const]:
        """Edge ids whose target is ``node`` (a fresh, caller-owned list)."""
        self._require_node(node)
        return list(self._in[node])

    def iter_out_edges(self, node: Const) -> Iterable[Const]:
        """Zero-copy view of the outgoing edge ids of ``node``.

        Hot loops should prefer this over :meth:`out_edges`, which allocates
        a defensive copy per call.  The view reflects the live graph: do not
        add or remove edges at ``node`` while iterating it.
        """
        self._require_node(node)
        return self._out[node].keys()

    def iter_in_edges(self, node: Const) -> Iterable[Const]:
        """Zero-copy view of the incoming edge ids of ``node``."""
        self._require_node(node)
        return self._in[node].keys()

    def incident_edges(self, node: Const) -> list[Const]:
        """Outgoing then incoming edges (a self-loop appears in both halves)."""
        return self.out_edges(node) + self.in_edges(node)

    def out_degree(self, node: Const) -> int:
        self._require_node(node)
        return len(self._out[node])

    def in_degree(self, node: Const) -> int:
        self._require_node(node)
        return len(self._in[node])

    def degree(self, node: Const) -> int:
        return self.out_degree(node) + self.in_degree(node)

    def successors(self, node: Const) -> Iterator[Const]:
        """Targets of outgoing edges (with multiplicity)."""
        self._require_node(node)
        return (self._edges[e][1] for e in self._out[node])

    def predecessors(self, node: Const) -> Iterator[Const]:
        """Sources of incoming edges (with multiplicity)."""
        self._require_node(node)
        return (self._edges[e][0] for e in self._in[node])

    def neighbors(self, node: Const) -> set[Const]:
        """All nodes adjacent to ``node`` in either direction, deduplicated."""
        self._require_node(node)
        result = {self._edges[e][1] for e in self._out[node]}
        result.update(self._edges[e][0] for e in self._in[node])
        return result

    def edges_between(self, source: Const, target: Const) -> list[Const]:
        """All parallel edges from ``source`` to ``target``."""
        self._require_node(target)
        self._require_node(source)
        return [e for e in self._out[source] if self._edges[e][1] == target]

    def node_count(self) -> int:
        return len(self._out)

    def edge_count(self) -> int:
        return len(self._edges)

    def __len__(self) -> int:
        return len(self._out)

    def __contains__(self, node: Const) -> bool:
        return node in self._out

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} nodes={self.node_count()} "
                f"edges={self.edge_count()}>")

    # -- equality ----------------------------------------------------------

    def _eq_signature(self) -> tuple:
        """The structural content compared by ``==`` (subclasses extend).

        Versions, mutation logs and secondary indexes are deliberately
        absent: equality is about the graph the paper's definitions see,
        not about how it was built.
        """
        return (self._out.keys(), self._edges)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._eq_signature() == other._eq_signature()

    # Structural equality with identity hashing: graphs are mutable, so a
    # content hash would silently corrupt any set/dict they already sit in.
    __hash__ = object.__hash__

    # -- derived graphs ----------------------------------------------------

    def copy(self) -> "MultiGraph":
        """Structural copy (subclasses override to carry labels and more)."""
        clone = type(self)()
        clone._copy_structure_from(self)
        return clone

    def subgraph_without_node(self, node: Const) -> "MultiGraph":
        """Copy of the graph with ``node`` (and its incident edges) removed.

        Used by the exact regex-constrained betweenness algorithm, which
        counts paths *avoiding* a node by deleting it.
        """
        clone = self.copy()
        if clone.has_node(node):
            clone.remove_node(node)
        return clone

    def _copy_structure_from(self, other: "MultiGraph") -> None:
        for node in other.nodes():
            self.add_node(node)
        for edge in other.edges():
            source, target = other.endpoints(edge)
            self.add_edge(edge, source, target)

    def _require_node(self, node: Const) -> None:
        if node not in self._out:
            raise UnknownNodeError(node)

    # -- bulk loading ------------------------------------------------------
    #
    # A loaded graph's content is not its history, so bulk builds skip the
    # mutation log.  ``_load_node``/``_load_edge`` are the unlogged
    # counterparts of ``add_node``/``add_edge``: each layer fills the
    # indexes it owns, with the same checks and in the same insertion
    # order, so a bulk build equals an ``add_*`` loop index for index —
    # only at version 0 with an empty log.  They write into a graph
    # nothing has observed yet; mutations of a live graph go through
    # the logged methods.

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[Const, Const, Const]]) -> "MultiGraph":
        """Build from (edge_id, source, target) triples in one pass.

        Endpoints are created implicitly and a repeated edge id raises
        :class:`DuplicateIdError`, as with :meth:`add_edge`; the result is
        at version 0 with an empty mutation log.
        """
        graph = cls()
        for edge, source, target in edges:
            graph._load_edge(edge, source, target)
        return graph

    def _load_node(self, node: Const) -> None:
        if node not in self._out:
            self._out[node] = {}
            self._in[node] = {}

    def _load_edge(self, edge: Const, source: Const, target: Const) -> None:
        if edge in self._edges:
            raise DuplicateIdError("edge", edge)
        # A node in the structural index already has every layer's entry,
        # so only new endpoints descend through the layers.
        if source not in self._out:
            self._load_node(source)
        if target not in self._out:
            self._load_node(target)
        self._edges[edge] = (source, target)
        self._out[source][edge] = None
        self._in[target][edge] = None
