"""The ``GraphBackend`` protocol: what evaluation needs from a graph.

"Foundations of Modern Query Languages for Graph Databases" frames query
languages as compositions over a small algebra of graph accessors; this
module writes that read surface down as a structural
:class:`typing.Protocol` so the RPQ core and the three frontends bind to
an *interface* rather than to the in-memory model classes.  Everything
that evaluates queries — the scalar product construction, the vectorized
kernel's array builder, the SPARQL/Cypher store adapters, the query cache
— uses only these members (plus optional, ``hasattr``-gated fast paths
such as ``label_adjacency_index``, with its O(1) companion
``label_edge_count``, and ``csr_arrays``).

Three families satisfy it today:

* the in-memory models (:class:`~repro.models.LabeledGraph`,
  :class:`~repro.models.PropertyGraph`), which carry a genuine
  :class:`~repro.cache.versioning.MutationLog`;
* :class:`~repro.storage.DurableGraph`, by delegation to its in-memory
  graph;
* :class:`~repro.storage.diskread.MmapCsrBackend`, the disk-backed
  cold-start path, whose log is pinned at the checkpoint version.

This is deliberately the seam the ROADMAP's external-engine adapters
(AGE/PostgreSQL) will later implement: a new backend only has to provide
these members to light up every frontend.

The protocol is ``runtime_checkable`` **for isinstance only** — with
non-method members (``mutation_log``) an ``issubclass`` check raises by
design.  Prefer :func:`missing_backend_attrs` in tests and error paths:
it names what is absent instead of answering yes/no.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Protocol, runtime_checkable


@runtime_checkable
class GraphBackend(Protocol):
    """The minimal read surface evaluation binds against.

    The directional fetches ``out_edges_with_label`` /
    ``in_edges_with_label`` are the per-transition *label-candidates*
    lookup the product construction performs (see
    :func:`label_candidates` for the direction-neutral spelling); the
    rest is iteration, endpoint/label resolution and the version stamp.
    """

    def nodes(self) -> Iterable: ...

    def edges(self) -> Iterable: ...

    def node_count(self) -> int: ...

    def endpoints(self, edge) -> tuple: ...

    def edge_label(self, edge): ...

    def nodes_with_label(self, label) -> Iterable: ...

    def edges_with_label(self, label) -> Iterable: ...

    def out_edges_with_label(self, node, label) -> Iterable: ...

    def in_edges_with_label(self, node, label) -> Iterable: ...

    @property
    def mutation_log(self):
        """Version stamp source for cache invalidation.

        Immutable backends return a log fast-forwarded to their
        checkpoint version; mutable ones return the live log.
        """
        ...


def label_candidates(backend: GraphBackend, node, label, *,
                     inverse: bool = False) -> Iterator:
    """Edges at ``node`` carrying ``label`` — the per-transition fetch.

    The direction-neutral spelling of the protocol's directional pair,
    matching how the product construction names the lookup.
    """
    if inverse:
        return iter(backend.in_edges_with_label(node, label))
    return iter(backend.out_edges_with_label(node, label))


#: Members a backend must provide (the Protocol's surface, by name —
#: what :func:`missing_backend_attrs` reports against).
REQUIRED_BACKEND_ATTRS = (
    "nodes",
    "edges",
    "node_count",
    "endpoints",
    "edge_label",
    "nodes_with_label",
    "edges_with_label",
    "out_edges_with_label",
    "in_edges_with_label",
    "mutation_log",
)


def missing_backend_attrs(target: object) -> list[str]:
    """The :data:`REQUIRED_BACKEND_ATTRS` that ``target`` lacks, in order."""
    return [name for name in REQUIRED_BACKEND_ATTRS
            if not hasattr(target, name)]


def is_graph_backend(target: object) -> bool:
    """Whether ``target`` provides the full backend read surface."""
    return not missing_backend_attrs(target)


def backend_note(target: object) -> dict:
    """The EXPLAIN ``backend`` detail: where this query's answers live.

    Asks the object itself first (:meth:`MmapCsrBackend.backend_info`),
    unwraps one level of delegation (``DurableGraph.graph``, the store
    adapters' ``.graph``), and otherwise reports an in-memory model.
    """
    info = getattr(target, "backend_info", None)
    if callable(info):
        return dict(info())
    inner = getattr(target, "graph", None)
    if inner is not None and inner is not target:
        info = getattr(inner, "backend_info", None)
        if callable(info):
            return dict(info())
        target = inner
    return {"kind": "memory", "model": type(target).__name__}
