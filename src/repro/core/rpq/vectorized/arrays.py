"""Array-ified graph snapshots for the vector kernel, memoized per graph.

:class:`GraphArrays` freezes one graph into the index form every vector
evaluation needs: a node order (id ↔ dense index remap — node ids may be
arbitrary hashable objects), int32 endpoint arrays over the edge list, and
per-label edge-position arrays mirroring the scalar label index.  It also
memoizes each edge transition's destination-sorted CSR
(:meth:`GraphArrays.transition_csr`) for the tests whose answer the
snapshot alone decides, so repeated label sets build once per snapshot.

:func:`graph_arrays` keeps the snapshots of the last eight graphs in a
:class:`~repro.cache.result_cache.Memo`, weakref-guarded per graph
identity, and reuses one while no record since its build touched what the
arrays encode: the node and edge *sets* and the edge labels.  Property,
feature and node-label writes re-stamp the snapshot instead (guards and
non-label tests are evaluated live against the graph).  A truncated log
answers conservatively: rebuild.  The CSR memo lives on the snapshot, so
the same check governs it: it is dropped with a rebuilt snapshot and kept
across a re-stamp, which is why it holds only CSRs that depend on nothing
a re-stamp lets through (exact label sets and the wildcard).
"""

from __future__ import annotations

from repro.cache.result_cache import MISS, Memo
from repro.core.rpq.ast import TrueTest
from repro.core.rpq.vectorized.engine import numpy_or_none

#: Number of graphs whose snapshots are retained.
_SNAPSHOT_ENTRIES = 8

#: Memo key of the wildcard test (no label set equals it).
_WILDCARD = "*"


class GraphArrays:
    """One graph flattened to numpy index arrays (read-only snapshot)."""

    __slots__ = ("nodes", "index", "n", "m", "edges", "src", "dst",
                 "label_positions", "_csr_memo")

    def __init__(self, graph) -> None:
        np = numpy_or_none()
        self._csr_memo: dict = {}
        builder = getattr(graph, "csr_arrays", None)
        if builder is not None:
            # Disk-backed graphs (``MmapCsrBackend``) already store the
            # CSR form this class builds: int32 endpoint arrays mapped
            # off the segment file and per-label position ranges.  Take
            # them wholesale instead of re-deriving edge by edge.
            self.nodes, self.edges, self.src, self.dst, \
                self.label_positions = builder()
            self.index = {node: i for i, node in enumerate(self.nodes)}
            self.n = len(self.nodes)
            self.m = len(self.edges)
            return
        self.nodes = list(graph.nodes())
        self.index = {node: i for i, node in enumerate(self.nodes)}
        self.n = len(self.nodes)
        self.edges = list(graph.edges())
        self.m = len(self.edges)
        src = np.empty(self.m, dtype=np.int32)
        dst = np.empty(self.m, dtype=np.int32)
        index = self.index
        endpoints = graph.endpoints
        for position, edge in enumerate(self.edges):
            source, target = endpoints(edge)
            src[position] = index[source]
            dst[position] = index[target]
        self.src = src
        self.dst = dst
        # Per-label edge positions, mirroring the scalar label index; None
        # when the model has no edge labels (every mask then re-checks).
        label_of = getattr(graph, "edge_label", None)
        positions = None
        if label_of is not None:
            buckets: dict = {}
            for position, edge in enumerate(self.edges):
                buckets.setdefault(label_of(edge), []).append(position)
            positions = {label: np.asarray(bucket, dtype=np.int32)
                         for label, bucket in buckets.items()}
        self.label_positions = positions

    def edge_mask(self, graph, test, use_label_index: bool = True):
        """Boolean mask over edge positions: which edges pass ``test``.

        Planning mirrors the scalar fetchers (`product._edge_fetchers`):
        a label-restricted test reads the label-position arrays, with a
        per-candidate ``matches_edge`` re-check unless the restriction is
        exact; everything else scans and tests every edge, so the error
        surface of exotic tests is identical to the scalar engine's.
        """
        np = numpy_or_none()
        if use_label_index and self.label_positions is not None:
            labels = test.label_candidates()
            if labels is not None:
                mask = self._label_mask(labels)
                if not test.label_candidates_exact():
                    edges = self.edges
                    for position in np.flatnonzero(mask):
                        if not test.matches_edge(graph, edges[position]):
                            mask[position] = False
                return mask
        if isinstance(test, TrueTest):
            return np.ones(self.m, dtype=bool)
        mask = np.empty(self.m, dtype=bool)
        for position, edge in enumerate(self.edges):
            mask[position] = test.matches_edge(graph, edge)
        return mask

    def transition_csr(self, graph, test, inverse: bool,
                       use_label_index: bool = True):
        """``((src_sorted, seg_starts, unique_dst), reused)`` for one edge
        transition: the edges passing ``test``, oriented source → target
        (swapped when ``inverse``), sorted by destination, with each
        destination's segment start and the distinct destinations.

        The CSR is memoized on this snapshot when the snapshot alone
        decides which edges pass: an exact label set read through the
        label index, keyed by (label set, direction), or the wildcard.
        Inexact tests (property, feature, negated) re-check edges against
        the live graph, whose property and node-label writes only
        re-stamp the snapshot, so they build afresh on every call.
        ``reused`` says whether the memo answered.
        """
        return self._memoized_csr(
            self._memo_key(test, use_label_index), inverse,
            lambda: self.edge_mask(graph, test, use_label_index))

    def label_csr(self, labels: frozenset, inverse: bool):
        """:meth:`transition_csr` of the exact label set ``labels``,
        sharing its memo entry: the edges whose label is in ``labels``."""
        return self._memoized_csr(labels, inverse,
                                  lambda: self._label_mask(labels))

    def _memoized_csr(self, key, inverse: bool, edge_mask):
        """The memoized CSR under ``(key, inverse)``, built from
        ``edge_mask()`` on a miss (``key=None``: never memoized)."""
        if key is not None:
            csr = self._csr_memo.get((key, inverse))
            if csr is not None:
                return csr, True
        mask = edge_mask()
        src = self.src[mask]
        dst = self.dst[mask]
        if inverse:
            src, dst = dst, src
        csr = _sorted_csr(src, dst)
        if key is not None:
            self._csr_memo[(key, inverse)] = csr
        return csr, False

    def _memo_key(self, test, use_label_index: bool):
        """The memo key of ``test``'s edge set, or ``None`` if unsafe."""
        if isinstance(test, TrueTest):
            return _WILDCARD
        if not use_label_index or self.label_positions is None:
            return None
        labels = test.label_candidates()
        if labels is None or not test.label_candidates_exact():
            return None
        return frozenset(labels)

    def _label_mask(self, labels):
        """Boolean mask over edge positions: the edges labelled in
        ``labels``, read off the label-position arrays."""
        np = numpy_or_none()
        mask = np.zeros(self.m, dtype=bool)
        empty = np.empty(0, dtype=np.int32)
        for label in sorted(labels, key=str):
            mask[self.label_positions.get(label, empty)] = True
        return mask

    def node_mask(self, graph, guard):
        """Boolean mask over node indices: which nodes satisfy ``guard``."""
        np = numpy_or_none()
        mask = np.empty(self.n, dtype=bool)
        for i, node in enumerate(self.nodes):
            mask[i] = guard.matches_node(graph, node)
        return mask


def _sorted_csr(src, dst):
    """``(src_sorted, seg_starts, unique_dst)`` of the (src, dst) edges."""
    np = numpy_or_none()
    order = np.argsort(dst, kind="stable")
    dst_sorted = dst[order]
    boundaries = np.empty(dst_sorted.size, dtype=bool)
    boundaries[:1] = True
    np.not_equal(dst_sorted[1:], dst_sorted[:-1], out=boundaries[1:])
    seg_starts = np.flatnonzero(boundaries)
    return src[order], seg_starts, dst_sorted[seg_starts]


class _Structure:
    """Footprint of a snapshot: the node and edge sets and the edge labels."""

    @staticmethod
    def intersects(record) -> bool:
        return bool(record.structural_edges or record.structural_nodes
                    or record.edge_labels)


_STRUCTURE = _Structure()

_SNAPSHOTS = Memo(_SNAPSHOT_ENTRIES)


def graph_arrays(graph) -> GraphArrays:
    """The (possibly memoized) :class:`GraphArrays` snapshot of ``graph``."""
    arrays = _SNAPSHOTS.lookup(graph, None)
    if arrays is MISS:
        arrays = GraphArrays(graph)
        _SNAPSHOTS.store(graph, None, _STRUCTURE, arrays)
    return arrays


def adjacency_cache_info() -> dict:
    """Counters of the process-wide snapshot memo: ``misses`` counts every
    build, ``rebuilds`` the builds that replaced an invalidated snapshot."""
    stats = _SNAPSHOTS.stats()
    return {"hits": stats["hits"], "misses": stats["misses"],
            "rebuilds": stats["stale"], "currsize": stats["entries"],
            "maxsize": stats["max_entries"]}


def clear_adjacency_cache() -> None:
    """Drop every memoized snapshot and reset the counters."""
    global _SNAPSHOTS
    _SNAPSHOTS = Memo(_SNAPSHOT_ENTRIES)
