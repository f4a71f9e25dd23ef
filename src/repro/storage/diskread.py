"""Disk-backed CSR reads: offset-indexed adjacency segments served via mmap.

PR 7 built the write half of the storage engine (WAL + snapshots); this is
the read half, in the MillenniumDB mold of a persistent RPQ-native store
with *compact adjacency*: a cold start should answer
:func:`~repro.core.rpq.endpoint_pairs` / ``count_paths_exact`` without
materializing the whole graph through :func:`repro.models.io.loads`.

**File layout.**  ``csr-<version>.seg`` is written at every
:meth:`~repro.storage.DurableGraph.checkpoint` next to
``snapshot-<version>.json``.  It starts with the 8-byte magic
``b"RCSR1\\n\\r\\n"`` followed by CRC-framed blocks in the WAL's framing::

    <u32 payload-length> <u32 crc32(payload)> <payload bytes>

The first frame is the **header**: canonical JSON naming the model, the
graph version, node/edge totals, and an offset table — byte offset and
framed length of the node table, of one edge segment *per edge label*, and
(for property stores) of the node/edge property rows.  Offsets are
relative to the end of the header frame, so the header never has to know
its own encoded size.

Per-label edge segments are little CSR slabs mirroring
:class:`~repro.core.rpq.vectorized.arrays.GraphArrays`: a ``<u32 k>
<u32 ids-length>`` prologue, the ``k`` edge ids as canonical JSON, then
two dense ``int32`` little-endian arrays — source and target *node
indexes* into the node table.  Node ids, labels and properties are stored
as JSON (a durable store only ever holds JSON-faithful values — the WAL
enforces that on every write), endpoints as fixed-width integers, which is
what lets the vector engine map them straight out of the file.

**Laziness.**  :class:`MmapCsrBackend` opens the file read-only via
``mmap`` and decodes the header and node table eagerly — everything else
on demand, one label segment at a time.  A label-restricted RPQ therefore
touches exactly the segments in its label footprint: the per-label
adjacency the product construction probes, the per-label edge positions
the vector kernel masks, and the ``label_edge_count`` the ``auto`` engine
heuristic reads straight from the header (no decode at all).  Wildcard
tests and whole-graph iteration decode every segment, as they must.
``stats()`` / ``decoded_labels()`` expose exactly what was decoded, so
tests can *prove* the bounded-materialization claim instead of assuming
it.

A frame that fails its CRC raises :class:`~repro.errors.SegmentError` at
decode time — at open for the header/node table (where
:func:`open_latest_segments` falls back to an older file, mirroring
snapshot recovery), at first touch for a lazily-read segment.
"""

from __future__ import annotations

import json
import mmap
import os
import re
import struct
import sys
import zlib
from array import array

from repro.cache.versioning import MutationLog
from repro.errors import SegmentError, UnknownEdgeError, UnknownNodeError
from repro.storage.wal import fsync_directory
from repro.util import canonical_sort_key

MAGIC = b"RCSR1\n\r\n"
CSR_FORMAT = "repro.storage.csr"
CSR_VERSION = 1

_FRAME = struct.Struct("<II")
_SEGMENT_PROLOGUE = struct.Struct("<II")

#: Any framed length beyond this is corruption, not a frame (WAL idiom).
MAX_FRAME_BYTES = 1 << 28

#: Node/edge counts must index into int32 arrays.
_INT32_MAX = 2 ** 31 - 1

_FILE_RE = re.compile(r"^csr-(\d+)\.seg$")


def segments_name(version: int) -> str:
    return f"csr-{version}.seg"


def list_segment_files(directory: str) -> list[tuple[int, str]]:
    """``(graph_version, path)`` for every segment file, newest first."""
    found = []
    for name in os.listdir(directory):
        match = _FILE_RE.match(name)
        if match:
            found.append((int(match.group(1)),
                          os.path.join(directory, name)))
    found.sort(reverse=True)
    return found


def prune_segment_files(directory: str, keep: int = 2) -> list[str]:
    """Delete all but the ``keep`` newest segment files; sweep tmp junk.

    Best-effort, like :func:`~repro.storage.snapshot.prune_snapshots`: an
    unremovable file waits for the next checkpoint.
    """
    removed = []
    doomed = [path for _, path in list_segment_files(directory)[keep:]]
    doomed.extend(os.path.join(directory, name)
                  for name in os.listdir(directory)
                  if name.endswith(".seg.tmp"))
    for path in doomed:
        try:
            os.remove(path)
            removed.append(path)
        except OSError:  # pragma: no cover - permission oddities
            pass
    return removed


def _canonical_json(value) -> bytes:
    return json.dumps(value, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _frame(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _pack_int32(values: list[int]) -> bytes:
    packed = array("i", values)
    if sys.byteorder == "big":  # pragma: no cover - LE everywhere we run
        packed.byteswap()
    return packed.tobytes()


def _unpack_int32(data: bytes) -> array:
    unpacked = array("i")
    unpacked.frombytes(data)
    if sys.byteorder == "big":  # pragma: no cover
        unpacked.byteswap()
    return unpacked


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def write_segments(directory: str, graph, version: int,
                   *, model: str | None = None) -> str:
    """Atomically write ``csr-<version>.seg`` for ``graph``; returns the path.

    Deterministic: nodes, labels and per-label edge ids are ordered by
    :func:`~repro.util.canonical_sort_key`, so equal graphs produce
    byte-identical segment files regardless of insertion order (the same
    contract :func:`~repro.models.io.dumps` gives snapshots).
    """
    if model is None:
        model = "property" if hasattr(graph, "node_properties") else "labeled"
    nodes = sorted(graph.nodes(), key=canonical_sort_key)
    if len(nodes) > _INT32_MAX:
        raise SegmentError(f"graph too large for int32 CSR: "
                           f"{len(nodes)} nodes")
    index = {node: position for position, node in enumerate(nodes)}

    by_label: dict = {}
    for edge in graph.edges():
        by_label.setdefault(graph.edge_label(edge), []).append(edge)
    labels = sorted(by_label, key=canonical_sort_key)

    frames: list[bytes] = []
    descriptors: list[dict] = []
    offset = 0

    def emit(payload: bytes) -> tuple[int, int]:
        nonlocal offset
        framed = _frame(payload)
        frames.append(framed)
        start = offset
        offset += len(framed)
        return start, len(framed)

    node_table = [[node, graph.node_label(node)] for node in nodes]
    node_offset, node_length = emit(_canonical_json(node_table))

    ordered_edges: list = []
    edge_count = 0
    for label in labels:
        bucket = sorted(by_label[label], key=canonical_sort_key)
        ordered_edges.extend(bucket)
        ids_payload = _canonical_json(bucket)
        src = []
        dst = []
        for edge in bucket:
            source, target = graph.endpoints(edge)
            src.append(index[source])
            dst.append(index[target])
        payload = (_SEGMENT_PROLOGUE.pack(len(bucket), len(ids_payload))
                   + ids_payload + _pack_int32(src) + _pack_int32(dst))
        seg_offset, seg_length = emit(payload)
        descriptors.append({"label": label, "edges": len(bucket),
                            "offset": seg_offset, "length": seg_length})
        edge_count += len(bucket)
    if edge_count > _INT32_MAX:
        raise SegmentError(f"graph too large for int32 CSR: "
                           f"{edge_count} edges")

    header: dict = {
        "format": CSR_FORMAT,
        "version": CSR_VERSION,
        "model": model,
        "graph_version": version,
        "nodes": len(nodes),
        "edges": edge_count,
        "node_table": {"offset": node_offset, "length": node_length},
        "labels": descriptors,
        "node_props": None,
        "edge_props": None,
    }
    if model == "property":
        node_props = [graph.node_properties(node) for node in nodes]
        props_offset, props_length = emit(_canonical_json(node_props))
        header["node_props"] = {"offset": props_offset,
                                "length": props_length}
        edge_props = [graph.edge_properties(edge) for edge in ordered_edges]
        props_offset, props_length = emit(_canonical_json(edge_props))
        header["edge_props"] = {"offset": props_offset,
                                "length": props_length}

    final_path = os.path.join(directory, segments_name(version))
    tmp_path = final_path + ".tmp"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(MAGIC)
            handle.write(_frame(_canonical_json(header)))
            for framed in frames:
                handle.write(framed)
            handle.flush()
            os.fsync(handle.fileno())
        os.rename(tmp_path, final_path)
        fsync_directory(directory)
    except OSError as error:
        raise SegmentError(
            f"cannot write CSR segments {final_path}: {error}") from error
    return final_path


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


class _LabelSegment:
    """One decoded per-label slab: edge ids + dense endpoint indexes."""

    __slots__ = ("edge_ids", "src", "dst", "start")

    def __init__(self, edge_ids, src, dst, start: int) -> None:
        self.edge_ids = edge_ids
        self.src = src
        self.dst = dst
        self.start = start  # global edge-position base of this segment


class _LazyAdjacency:
    """A read-only ``(node, label) -> edge-bucket`` view over the backend.

    Satisfies exactly what :func:`repro.core.rpq.product._edge_fetchers`
    needs from :meth:`~repro.models.labeled.LabeledGraph.label_adjacency_index`:
    one ``.get(key, default)`` probe per node per transition.  The first
    probe of a label decodes its segment and builds its buckets; labels a
    query never names are never touched.
    """

    __slots__ = ("_backend", "_direction")

    def __init__(self, backend: "MmapCsrBackend", direction: int) -> None:
        self._backend = backend
        self._direction = direction

    def get(self, key, default=None):
        label = key[1]
        backend = self._backend
        if label in backend._label_meta:
            backend._ensure_adjacency(label)
        buckets = (backend._in_buckets if self._direction
                   else backend._out_buckets)
        return buckets.get(key, default)

    def __getitem__(self, key):
        found = self.get(key)
        if found is None:
            raise KeyError(key)
        return found


class MmapCsrBackend:
    """Read-only graph views over one mmapped ``csr-<version>.seg`` file.

    Duck-types the read surface of the labeled in-memory models (the
    ``GraphBackend`` protocol of :mod:`repro.storage.backend` and then
    some), so the RPQ core, the three frontends and the stores can query
    it unchanged.  Mutation methods do not exist — this is the cold-start
    query path; writes go through :class:`~repro.storage.DurableGraph`.

    Decoding is lazy per label segment and strictly monotone: nothing is
    ever re-read, nothing is decoded twice, and :meth:`stats` /
    :meth:`decoded_labels` report exactly what a workload touched.
    """

    def __init__(self, path: str) -> None:
        self._attach(path, *_map_segment_file(path))

    def _attach(self, path: str, mm: mmap.mmap, header: dict,
                data_start: int) -> None:
        """Set up over a mapped file whose header is read and validated."""
        self._path = path
        self._mm = mm
        self._header = header
        self._data_start = data_start
        self._model = header["model"]
        self._n = header["nodes"]
        self._m = header["edges"]

        # Per-label descriptors, in file order; ``start`` is the global
        # edge-position base (segments concatenate to the edge universe).
        self._label_meta: dict = {}
        start = 0
        for descriptor in header["labels"]:
            label = _hashable_label(descriptor["label"], path)
            self._label_meta[label] = {
                "offset": descriptor["offset"],
                "length": descriptor["length"],
                "edges": descriptor["edges"],
                "start": start,
            }
            start += descriptor["edges"]
        if start != self._m:
            raise SegmentError(
                f"{path}: header edge total {self._m} != sum of label "
                f"segments {start}")

        # Node table: decoded eagerly — id <-> dense index and node labels
        # are needed by every query shape.
        table_meta = header["node_table"]
        payload, _ = self._read_frame(
            self._data_start + table_meta["offset"], "node table")
        try:
            table = json.loads(payload)
        except ValueError as error:
            raise SegmentError(
                f"{path}: node table is not valid JSON: {error}") from error
        if not isinstance(table, list) or len(table) != self._n:
            raise SegmentError(f"{path}: node table holds "
                               f"{len(table) if isinstance(table, list) else '?'}"
                               f" rows, header says {self._n}")
        self._nodes: list = []
        self._node_index: dict = {}
        self._node_labels: dict = {}
        self._nodes_by_label: dict = {}
        for row in table:
            if not isinstance(row, list) or len(row) != 2:
                raise SegmentError(f"{path}: malformed node-table row "
                                   f"{row!r}")
            node, label = row
            node = _hashable_label(node, path)
            label = _hashable_label(label, path)
            self._node_index[node] = len(self._nodes)
            self._nodes.append(node)
            self._node_labels[node] = label
            self._nodes_by_label.setdefault(label, []).append(node)
        if len(self._node_labels) != self._n:
            raise SegmentError(f"{path}: duplicate node ids in node table")

        self._segments: dict = {}          # label -> _LabelSegment
        self._edge_info: dict = {}         # edge -> (source, target, label)
        self._indexed: set = set()         # labels with adjacency buckets
        self._out_buckets: dict = {}       # (node, label) -> {edge: None}
        self._in_buckets: dict = {}
        self._out_incidence: dict | None = None  # node -> [edges] (full)
        self._in_incidence: dict | None = None
        self._lazy_out = _LazyAdjacency(self, 0)
        self._lazy_in = _LazyAdjacency(self, 1)
        self._node_props: list | None = None
        self._edge_props: dict | None = None
        self._segment_decodes = 0
        self._props_decodes = 0

        # A static mutation log fast-forwarded to the checkpoint version:
        # caches and the arrays LRU stamp entries against the same version
        # timeline the durable store uses, and (the graph being immutable)
        # every stored entry validates forever.
        self.mutation_log = MutationLog()
        self.mutation_log.fast_forward(header["graph_version"])

    # -- framing -----------------------------------------------------------

    def _read_frame(self, offset: int, what: str) -> tuple[bytes, int]:
        return _read_frame(self._mm, self._path, offset, what)

    # -- lazy decoding -----------------------------------------------------

    def _ensure_segment(self, label) -> _LabelSegment:
        segment = self._segments.get(label)
        if segment is not None:
            return segment
        meta = self._label_meta[label]
        payload, _ = self._read_frame(self._data_start + meta["offset"],
                                      f"label segment {label!r}")
        if len(payload) < _SEGMENT_PROLOGUE.size:
            raise SegmentError(f"{self._path}: label segment {label!r} "
                               f"too short")
        count, ids_length = _SEGMENT_PROLOGUE.unpack_from(payload, 0)
        expected = _SEGMENT_PROLOGUE.size + ids_length + 8 * count
        if count != meta["edges"] or len(payload) != expected:
            raise SegmentError(f"{self._path}: label segment {label!r} "
                               f"geometry mismatch")
        ids_start = _SEGMENT_PROLOGUE.size
        try:
            edge_ids = json.loads(payload[ids_start:ids_start + ids_length])
        except ValueError as error:
            raise SegmentError(f"{self._path}: label segment {label!r} "
                               f"edge ids are not valid JSON: "
                               f"{error}") from error
        if not isinstance(edge_ids, list) or len(edge_ids) != count:
            raise SegmentError(f"{self._path}: label segment {label!r} "
                               f"id count mismatch")
        edge_ids = [_hashable_label(edge, self._path) for edge in edge_ids]
        src_start = ids_start + ids_length
        src = _unpack_int32(payload[src_start:src_start + 4 * count])
        dst = _unpack_int32(payload[src_start + 4 * count:])
        nodes = self._nodes
        info = self._edge_info
        for position, edge in enumerate(edge_ids):
            source_index = src[position]
            target_index = dst[position]
            if not (0 <= source_index < self._n
                    and 0 <= target_index < self._n):
                raise SegmentError(f"{self._path}: label segment {label!r} "
                                   f"references node index out of range")
            if edge in info:
                raise SegmentError(f"{self._path}: duplicate edge id "
                                   f"{edge!r} across segments")
            info[edge] = (nodes[source_index], nodes[target_index], label)
        segment = _LabelSegment(edge_ids, src, dst, meta["start"])
        self._segments[label] = segment
        self._segment_decodes += 1
        return segment

    def _ensure_adjacency(self, label) -> None:
        if label in self._indexed:
            return
        segment = self._ensure_segment(label)
        out_buckets = self._out_buckets
        in_buckets = self._in_buckets
        nodes = self._nodes
        for position, edge in enumerate(segment.edge_ids):
            source = nodes[segment.src[position]]
            target = nodes[segment.dst[position]]
            out_buckets.setdefault((source, label), {})[edge] = None
            in_buckets.setdefault((target, label), {})[edge] = None
        self._indexed.add(label)

    def _ensure_all(self) -> None:
        for label in self._label_meta:
            self._ensure_segment(label)

    def _ensure_incidence(self) -> None:
        if self._out_incidence is not None:
            return
        self._ensure_all()
        out_incidence: dict = {node: [] for node in self._nodes}
        in_incidence: dict = {node: [] for node in self._nodes}
        for segment in self._segments.values():
            nodes = self._nodes
            for position, edge in enumerate(segment.edge_ids):
                out_incidence[nodes[segment.src[position]]].append(edge)
                in_incidence[nodes[segment.dst[position]]].append(edge)
        self._out_incidence = out_incidence
        self._in_incidence = in_incidence

    def _require_node(self, node) -> None:
        if node not in self._node_labels:
            raise UnknownNodeError(node)

    def _require_edge(self, edge) -> tuple:
        info = self._edge_info.get(edge)
        if info is None:
            # Not decoded yet (or genuinely absent): a point lookup of an
            # arbitrary edge id has no label to route by, so it forces the
            # remaining segments in.  Engines never hit this path — they
            # only ask about edges a fetcher already produced.
            self._ensure_all()
            info = self._edge_info.get(edge)
            if info is None:
                raise UnknownEdgeError(edge)
        return info

    # -- the graph read surface --------------------------------------------

    def nodes(self):
        return iter(self._nodes)

    def edges(self):
        for label in self._label_meta:
            yield from self._ensure_segment(label).edge_ids

    def has_node(self, node) -> bool:
        return node in self._node_labels

    def has_edge(self, edge) -> bool:
        if edge in self._edge_info:
            return True
        if len(self._segments) == len(self._label_meta):
            return False
        self._ensure_all()
        return edge in self._edge_info

    def node_count(self) -> int:
        return self._n

    def edge_count(self) -> int:
        return self._m

    def __len__(self) -> int:
        return self._n

    def __contains__(self, node) -> bool:
        return node in self._node_labels

    def endpoints(self, edge) -> tuple:
        info = self._require_edge(edge)
        return info[0], info[1]

    def source(self, edge):
        return self._require_edge(edge)[0]

    def target(self, edge):
        return self._require_edge(edge)[1]

    def edge_label(self, edge):
        return self._require_edge(edge)[2]

    def node_label(self, node):
        try:
            return self._node_labels[node]
        except KeyError:
            raise UnknownNodeError(node) from None

    def nodes_with_label(self, label):
        return iter(self._nodes_by_label.get(label, ()))

    def edges_with_label(self, label):
        if label not in self._label_meta:
            return iter(())
        return iter(self._ensure_segment(label).edge_ids)

    def node_label_set(self) -> set:
        return set(self._nodes_by_label)

    def edge_label_set(self) -> set:
        return set(self._label_meta)

    def label_edge_count(self, label) -> int:
        """Edges carrying ``label``, straight from the header — no decode.

        The ``auto`` engine's density signal
        (:func:`~repro.core.rpq.evaluate.footprint_edge_count`) reads
        this hook, so engine resolution on a disk-backed graph sizes
        itself from the segment header alone.
        """
        meta = self._label_meta.get(label)
        return 0 if meta is None else meta["edges"]

    def out_edges_with_label(self, node, label) -> list:
        self._require_node(node)
        if label in self._label_meta:
            self._ensure_adjacency(label)
        return list(self._out_buckets.get((node, label), ()))

    def in_edges_with_label(self, node, label) -> list:
        self._require_node(node)
        if label in self._label_meta:
            self._ensure_adjacency(label)
        return list(self._in_buckets.get((node, label), ()))

    def iter_out_edges_with_label(self, node, label):
        return iter(self.out_edges_with_label(node, label))

    def iter_in_edges_with_label(self, node, label):
        return iter(self.in_edges_with_label(node, label))

    def label_adjacency_index(self) -> tuple:
        """``(out, in)`` lazy views probed as ``view.get((node, label))``."""
        return self._lazy_out, self._lazy_in

    def out_edges(self, node) -> list:
        self._require_node(node)
        self._ensure_incidence()
        return list(self._out_incidence[node])

    def in_edges(self, node) -> list:
        self._require_node(node)
        self._ensure_incidence()
        return list(self._in_incidence[node])

    def iter_out_edges(self, node):
        self._require_node(node)
        self._ensure_incidence()
        return iter(self._out_incidence[node])

    def iter_in_edges(self, node):
        self._require_node(node)
        self._ensure_incidence()
        return iter(self._in_incidence[node])

    def incident_edges(self, node) -> list:
        return self.out_edges(node) + self.in_edges(node)

    def out_degree(self, node) -> int:
        return len(self.out_edges(node))

    def in_degree(self, node) -> int:
        return len(self.in_edges(node))

    def degree(self, node) -> int:
        return self.out_degree(node) + self.in_degree(node)

    def successors(self, node):
        seen = set()
        for edge in self.iter_out_edges(node):
            target = self._edge_info[edge][1]
            if target not in seen:
                seen.add(target)
                yield target

    def predecessors(self, node):
        seen = set()
        for edge in self.iter_in_edges(node):
            source = self._edge_info[edge][0]
            if source not in seen:
                seen.add(source)
                yield source

    def neighbors(self, node) -> set:
        return set(self.successors(node)) | set(self.predecessors(node))

    # -- vector-engine fast path -------------------------------------------

    def csr_arrays(self):
        """Array views for :class:`~repro.core.rpq.vectorized.GraphArrays`.

        Returns ``(nodes, edges, src, dst, label_positions)`` with the
        int32 endpoint arrays mapped straight off the mmapped file
        (``np.frombuffer`` — no per-edge Python loop) and the per-label
        position arrays as dense ranges, because the file stores edges
        grouped by label.  Decodes every segment's ids (the vector kernel
        re-checks candidates against edge ids), which is fine: a vector
        evaluation touches the whole edge universe by construction.
        """
        from repro.core.rpq.vectorized.engine import numpy_or_none

        np = numpy_or_none()
        if np is None:  # pragma: no cover - engine resolution gates this
            raise SegmentError("csr_arrays needs numpy")
        edges: list = []
        src_parts = []
        dst_parts = []
        positions = {}
        for label, meta in self._label_meta.items():
            segment = self._ensure_segment(label)
            edges.extend(segment.edge_ids)
            count = meta["edges"]
            payload_start = (self._data_start + meta["offset"] + _FRAME.size
                             + _SEGMENT_PROLOGUE.size
                             + (meta["length"] - _FRAME.size
                                - _SEGMENT_PROLOGUE.size - 8 * count))
            # payload tail layout: ids JSON, then src, then dst int32 runs.
            src_parts.append(np.frombuffer(self._mm, dtype="<i4",
                                           count=count,
                                           offset=payload_start))
            dst_parts.append(np.frombuffer(self._mm, dtype="<i4",
                                           count=count,
                                           offset=payload_start + 4 * count))
            positions[label] = np.arange(meta["start"],
                                         meta["start"] + count,
                                         dtype=np.int32)
        if src_parts:
            src = np.concatenate(src_parts).astype(np.int32, copy=False)
            dst = np.concatenate(dst_parts).astype(np.int32, copy=False)
        else:
            src = np.empty(0, dtype=np.int32)
            dst = np.empty(0, dtype=np.int32)
        return list(self._nodes), edges, src, dst, positions

    # -- introspection ------------------------------------------------------

    @property
    def version(self) -> int:
        return self._header["graph_version"]

    @property
    def model(self) -> str:
        return self._model

    @property
    def path(self) -> str:
        return self._path

    def decoded_labels(self) -> set:
        """Labels whose edge segment has been decoded so far — the probe
        the bounded-materialization tests assert against."""
        return set(self._segments)

    def stats(self) -> dict:
        return {
            "path": self._path,
            "model": self._model,
            "graph_version": self.version,
            "nodes": self._n,
            "edges": self._m,
            "labels": len(self._label_meta),
            "segment_decodes": self._segment_decodes,
            "decoded_labels": sorted(self._segments,
                                     key=canonical_sort_key),
            "decoded_edges": len(self._edge_info),
            "props_decodes": self._props_decodes,
            "full_incidence": self._out_incidence is not None,
        }

    def backend_info(self) -> dict:
        """The EXPLAIN ``backend`` note: where answers come from."""
        return {
            "kind": "mmap-csr",
            "path": self._path,
            "model": self._model,
            "graph_version": self.version,
            "nodes": self._n,
            "edges": self._m,
            "labels": len(self._label_meta),
        }

    def close(self) -> None:
        self._mm.close()

    def __enter__(self) -> "MmapCsrBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self._model} "
                f"path={self._path!r} version={self.version} "
                f"decoded={len(self._segments)}/{len(self._label_meta)}>")


class MmapCsrPropertyBackend(MmapCsrBackend):
    """The property-model read surface over a property store's segments.

    Split into a subclass (mirroring ``LabeledGraph``/``PropertyGraph``)
    so that *labeled* backends genuinely lack ``node_properties`` — layers
    that feature-detect the property surface (``hasattr``) see the same
    shape they would on the in-memory models.
    """

    def _ensure_node_props(self) -> list:
        if self._node_props is None:
            meta = self._header.get("node_props")
            if not isinstance(meta, dict):
                raise SegmentError(f"{self._path}: property store segments "
                                   f"lack a node_props frame")
            payload, _ = self._read_frame(self._data_start + meta["offset"],
                                          "node properties")
            rows = json.loads(payload)
            if not isinstance(rows, list) or len(rows) != self._n:
                raise SegmentError(f"{self._path}: node_props row count "
                                   f"mismatch")
            self._node_props = rows
            self._props_decodes += 1
        return self._node_props

    def _ensure_edge_props(self) -> dict:
        if self._edge_props is None:
            meta = self._header.get("edge_props")
            if not isinstance(meta, dict):
                raise SegmentError(f"{self._path}: property store segments "
                                   f"lack an edge_props frame")
            payload, _ = self._read_frame(self._data_start + meta["offset"],
                                          "edge properties")
            rows = json.loads(payload)
            if not isinstance(rows, list) or len(rows) != self._m:
                raise SegmentError(f"{self._path}: edge_props row count "
                                   f"mismatch")
            # Rows align with global edge positions; key them by edge id
            # (which means decoding every segment's ids — property reads
            # are row-store reads, not adjacency reads).
            self._ensure_all()
            keyed: dict = {}
            for label, segment in self._segments.items():
                for position, edge in enumerate(segment.edge_ids):
                    keyed[edge] = rows[segment.start + position]
            self._edge_props = keyed
            self._props_decodes += 1
        return self._edge_props

    def node_properties(self, node) -> dict:
        self._require_node(node)
        return dict(self._ensure_node_props()[self._node_index[node]])

    def node_property(self, node, prop):
        return self.node_properties(node).get(prop)

    def edge_properties(self, edge) -> dict:
        self._require_edge(edge)
        return dict(self._ensure_edge_props()[edge])

    def edge_property(self, edge, prop):
        return self.edge_properties(edge).get(prop)

    def property_names(self) -> set:
        names: set = set()
        for props in self._ensure_node_props():
            names.update(props)
        for props in self._ensure_edge_props().values():
            names.update(props)
        return names


def _hashable_label(value, path: str):
    """Decoded JSON values used as dict keys must be hashable.

    A durable store can only ever have written hashable ids/labels (the
    in-memory model indexes them in dicts), so an unhashable value here is
    file corruption, not a supported input.
    """
    if isinstance(value, (dict, list)):
        raise SegmentError(f"{path}: unhashable id/label {value!r}")
    return value


def _read_frame(mm: mmap.mmap, path: str, offset: int,
                what: str) -> tuple[bytes, int]:
    """The CRC-checked frame at ``offset``: ``(payload, end offset)``."""
    if offset + _FRAME.size > len(mm):
        raise SegmentError(f"{path}: truncated {what} frame "
                           f"header at offset {offset}")
    length, crc = _FRAME.unpack_from(mm, offset)
    if length > MAX_FRAME_BYTES:
        raise SegmentError(f"{path}: implausible {what} frame "
                           f"length {length}")
    start = offset + _FRAME.size
    end = start + length
    if end > len(mm):
        raise SegmentError(f"{path}: truncated {what} frame "
                           f"payload at offset {offset}")
    payload = mm[start:end]
    if zlib.crc32(payload) != crc:
        raise SegmentError(f"{path}: {what} frame checksum "
                           f"mismatch at offset {offset}")
    return payload, end


def _map_segment_file(path: str) -> tuple[mmap.mmap, dict, int]:
    """Map ``path`` read-only and decode its header frame.

    Returns the map, the validated header and the offset the data
    frames are relative to.
    """
    try:
        with open(path, "rb") as handle:
            mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError) as error:
        raise SegmentError(
            f"cannot open CSR segments {path}: {error}") from error
    if mm[:len(MAGIC)] != MAGIC:
        raise SegmentError(f"{path} is not a CSR segment file "
                           f"(bad magic)")
    header_payload, end = _read_frame(mm, path, len(MAGIC), "header")
    try:
        header = json.loads(header_payload)
    except ValueError as error:
        raise SegmentError(
            f"{path}: header is not valid JSON: {error}") from error
    if not isinstance(header, dict):
        raise SegmentError(f"{path}: header is not a JSON object")
    if header.get("format") != CSR_FORMAT:
        raise SegmentError(f"{path}: wrong format tag "
                           f"{header.get('format')!r}")
    if header.get("version") != CSR_VERSION:
        raise SegmentError(f"{path}: unsupported CSR version "
                           f"{header.get('version')!r}")
    for key, kind in (("model", str), ("graph_version", int),
                      ("nodes", int), ("edges", int),
                      ("node_table", dict), ("labels", list)):
        if not isinstance(header.get(key), kind):
            raise SegmentError(f"{path}: header field {key!r} "
                               f"missing or ill-typed")
    return mm, header, end


def open_segments(path: str) -> MmapCsrBackend:
    """Open one segment file as the backend class its model tag names.

    The header is read once, and the class picked before the node table
    is decoded.
    """
    mapped = _map_segment_file(path)
    cls = (MmapCsrPropertyBackend if mapped[1]["model"] == "property"
           else MmapCsrBackend)
    backend = cls.__new__(cls)
    backend._attach(path, *mapped)
    return backend


def open_latest_segments(directory: str) -> MmapCsrBackend:
    """The newest segment file in ``directory`` that opens cleanly.

    Mirrors snapshot recovery: a corrupt latest file is *skipped* (its
    reason recorded) in favor of the next-newest, and only when no file is
    usable does the open fail — with every per-file reason in the error.
    """
    try:
        candidates = list_segment_files(directory)
    except OSError as error:
        raise SegmentError(
            f"no CSR segment directory at {directory}: {error}") from error
    if not candidates:
        raise SegmentError(
            f"no CSR segment files in {directory} "
            f"(checkpoint the store first)")
    rejected = []
    for _, path in candidates:
        try:
            return open_segments(path)
        except SegmentError as error:
            rejected.append(f"{path}: {error}")
    raise SegmentError("every CSR segment file was rejected: "
                       + "; ".join(rejected))
