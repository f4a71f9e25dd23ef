"""Disk-backed CSR read path: segments, the mmap backend, cold starts.

The contract under test (DESIGN.md §4i): ``DurableGraph.checkpoint()``
writes ``csr-<version>.seg`` next to the snapshot; a *fresh process* (or
at least a fresh open) can mmap it and answer every frontend's queries
with results identical to in-memory evaluation, while decoding only the
label segments the query's footprint names — never running the snapshot
through ``loads()``.  Corruption surfaces as
:class:`~repro.errors.SegmentError` (at open for the header/node table,
at first touch for lazy segments), and a corrupt newest file falls back
to an older one exactly like snapshot recovery.

Seeds for the fuzz round-trips come from ``REPRO_FUZZ_SEEDS``
(comma-separated, default ``0,1,2``) so CI can aim a fresh set per run.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import pytest

from repro.cache import QueryCache
from repro.core.rpq import endpoint_pairs
from repro.core.rpq.evaluate import footprint_edge_count
from repro.core.rpq.nfa import compile_regex
from repro.core.rpq.parser import parse_regex
from repro.datasets import generate_contact_graph
from repro.errors import SegmentError, UnknownNodeError
from repro.models import (
    LabeledGraph,
    PropertyGraph,
    figure2_labeled,
    figure2_property,
)
from repro.storage import (
    DurableGraph,
    GraphBackend,
    MmapCsrBackend,
    MmapCsrPropertyBackend,
    backend_note,
    is_graph_backend,
    label_candidates,
    list_segment_files,
    missing_backend_attrs,
    open_latest_segments,
    open_segments,
    prune_segment_files,
    write_segments,
)

SEEDS = tuple(int(seed) for seed in
              os.environ.get("REPRO_FUZZ_SEEDS", "0,1,2").split(","))


def _checkpointed(tmp_path, graph, model):
    """Ingest ``graph`` into a fresh store, checkpoint, close; return dir."""
    directory = str(tmp_path / f"store-{model}")
    store = DurableGraph.open(directory, model=model)
    store.ingest(graph)
    store.checkpoint()
    store.close()
    return directory


def _same_graph(backend, graph) -> None:
    """Full read-surface equivalence between a backend and its source."""
    assert set(backend.nodes()) == set(graph.nodes())
    assert set(backend.edges()) == set(graph.edges())
    assert backend.node_count() == graph.node_count()
    assert backend.edge_count() == graph.edge_count()
    assert backend.node_label_set() == graph.node_label_set()
    assert backend.edge_label_set() == graph.edge_label_set()
    for node in graph.nodes():
        assert backend.node_label(node) == graph.node_label(node)
        assert sorted(backend.out_edges(node), key=repr) == \
            sorted(graph.out_edges(node), key=repr)
        assert sorted(backend.in_edges(node), key=repr) == \
            sorted(graph.in_edges(node), key=repr)
        assert set(backend.successors(node)) == set(graph.successors(node))
        assert set(backend.predecessors(node)) == \
            set(graph.predecessors(node))
        assert backend.out_degree(node) == graph.out_degree(node)
        assert backend.in_degree(node) == graph.in_degree(node)
    for edge in graph.edges():
        assert backend.endpoints(edge) == graph.endpoints(edge)
        assert backend.edge_label(edge) == graph.edge_label(edge)
    for label in graph.edge_label_set():
        assert set(backend.edges_with_label(label)) == \
            set(graph.edges_with_label(label))
        assert backend.label_edge_count(label) == \
            sum(1 for _ in graph.edges_with_label(label))
    for label in graph.node_label_set():
        assert set(backend.nodes_with_label(label)) == \
            set(graph.nodes_with_label(label))


class TestRoundTrip:
    def test_labeled_round_trip(self, tmp_path):
        graph = figure2_labeled()
        path = write_segments(str(tmp_path), graph, 7)
        backend = open_segments(path)
        assert type(backend) is MmapCsrBackend
        assert backend.version == 7
        _same_graph(backend, graph)

    def test_property_round_trip(self, tmp_path):
        graph = figure2_property()
        path = write_segments(str(tmp_path), graph, 9)
        backend = open_segments(path)
        assert type(backend) is MmapCsrPropertyBackend
        _same_graph(backend, graph)
        for node in graph.nodes():
            assert backend.node_properties(node) == \
                graph.node_properties(node)
        for edge in graph.edges():
            assert backend.edge_properties(edge) == \
                graph.edge_properties(edge)
        assert backend.property_names() == graph.property_names()

    def test_labeled_backend_has_no_property_surface(self, tmp_path):
        path = write_segments(str(tmp_path), figure2_labeled(), 1)
        backend = open_segments(path)
        assert not hasattr(backend, "node_properties")

    @pytest.mark.parametrize("graph", [figure2_labeled(), figure2_property()],
                             ids=["labeled", "property"])
    def test_open_decodes_header_and_node_table_once(self, tmp_path,
                                                     monkeypatch, graph):
        """The model tag that picks the backend class comes from the one
        header read: a property store is not opened a second time."""
        path = write_segments(str(tmp_path), graph, 1)
        decoded = []
        real_loads = json.loads

        def counting_loads(payload, *args, **kwargs):
            decoded.append(payload)
            return real_loads(payload, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        backend = open_segments(path)
        monkeypatch.undo()
        assert len(decoded) == 2  # the header and the node table
        _same_graph(backend, graph)

    def test_empty_graph(self, tmp_path):
        path = write_segments(str(tmp_path), LabeledGraph(), 0)
        backend = open_segments(path)
        assert backend.node_count() == 0
        assert backend.edge_count() == 0
        assert list(backend.nodes()) == []
        assert list(backend.edges()) == []

    def test_unknown_lookups_raise_model_errors(self, tmp_path):
        path = write_segments(str(tmp_path), figure2_labeled(), 1)
        backend = open_segments(path)
        with pytest.raises(UnknownNodeError):
            backend.node_label("nowhere")
        assert not backend.has_node("nowhere")
        assert not backend.has_edge("nowhere")
        assert list(backend.edges_with_label("no-such-label")) == []
        assert backend.label_edge_count("no-such-label") == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fuzz_round_trip(self, tmp_path, seed):
        graph = generate_contact_graph(12, 3, 5, 2, rng=seed)
        path = write_segments(str(tmp_path), graph, seed + 1)
        _same_graph(open_segments(path), graph)

    def test_write_is_insertion_order_independent(self, tmp_path):
        """Equal graphs -> byte-identical segment files, even when ids of
        different types collide under ``str`` (the canonical_sort_key
        contract the snapshot serializer also relies on)."""
        nodes = [(1, "person"), ("1", "person"), (2, "person"),
                 ("2", "person")]
        edges = [("e1", 1, "1", "knows"), ("e2", "1", 2, "knows"),
                 ("e3", "2", 1, "likes")]
        forward, backward = LabeledGraph(), LabeledGraph()
        for node, label in nodes:
            forward.add_node(node, label)
        for eid, source, target, label in edges:
            forward.add_edge(eid, source, target, label)
        for node, label in reversed(nodes):
            backward.add_node(node, label)
        for eid, source, target, label in reversed(edges):
            backward.add_edge(eid, source, target, label)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        path_a = write_segments(str(tmp_path / "a"), forward, 3)
        path_b = write_segments(str(tmp_path / "b"), backward, 3)
        assert open(path_a, "rb").read() == open(path_b, "rb").read()
        _same_graph(open_segments(path_a), forward)


class TestLaziness:
    """The bounded-materialization probe the acceptance criteria name."""

    def _backend(self, tmp_path):
        graph = figure2_labeled()
        return graph, open_segments(
            write_segments(str(tmp_path), graph, 1))

    def test_open_decodes_no_label_segment(self, tmp_path):
        _, backend = self._backend(tmp_path)
        assert backend.decoded_labels() == set()

    def test_scalar_rpq_decodes_only_footprint(self, tmp_path):
        graph, backend = self._backend(tmp_path)
        regex = parse_regex("contact/contact*")
        assert endpoint_pairs(backend, regex) == endpoint_pairs(graph, regex)
        # The graph carries contact/rides/owns/lives edges; the query's
        # label footprint is {contact} and that is all that was decoded.
        assert backend.decoded_labels() == {"contact"}

    def test_footprint_count_reads_header_only(self, tmp_path):
        graph, backend = self._backend(tmp_path)
        nfa = compile_regex(parse_regex("rides/rides*"))
        assert footprint_edge_count(backend, nfa) == \
            footprint_edge_count(graph, nfa)
        assert backend.decoded_labels() == set()

    def test_two_label_query_decodes_two(self, tmp_path):
        graph, backend = self._backend(tmp_path)
        regex = parse_regex("owns/rides")
        assert endpoint_pairs(backend, regex) == endpoint_pairs(graph, regex)
        assert backend.decoded_labels() == {"owns", "rides"}

    def test_label_candidates_fetch(self, tmp_path):
        graph, backend = self._backend(tmp_path)
        for node in graph.nodes():
            assert sorted(label_candidates(backend, node, "contact"),
                          key=repr) == \
                sorted(label_candidates(graph, node, "contact"), key=repr)
            assert sorted(label_candidates(backend, node, "contact",
                                           inverse=True), key=repr) == \
                sorted(label_candidates(graph, node, "contact",
                                        inverse=True), key=repr)


class TestVectorEngine:
    def test_forced_vector_matches_scalar(self, tmp_path):
        pytest.importorskip("numpy")
        graph = figure2_labeled()
        backend = open_segments(write_segments(str(tmp_path), graph, 1))
        for text in ("contact/contact*", "owns/rides", "rides/rides*"):
            regex = parse_regex(text)
            assert endpoint_pairs(backend, regex, engine="vector") == \
                endpoint_pairs(graph, regex, engine="scalar"), text

    def test_graph_arrays_use_csr_fast_path(self, tmp_path):
        np = pytest.importorskip("numpy")
        from repro.core.rpq.vectorized.arrays import GraphArrays

        graph = figure2_labeled()
        backend = open_segments(write_segments(str(tmp_path), graph, 1))
        from_backend = GraphArrays(backend)
        from_memory = GraphArrays(graph)
        assert from_backend.n == from_memory.n
        assert from_backend.m == from_memory.m
        # Same edges at possibly different positions; compare as endpoint
        # triples keyed by edge id.
        def triples(arrays):
            return {arrays.edges[k]: (arrays.nodes[arrays.src[k]],
                                      arrays.nodes[arrays.dst[k]])
                    for k in range(arrays.m)}
        assert triples(from_backend) == triples(from_memory)
        assert set(from_backend.label_positions) == \
            set(from_memory.label_positions)
        for label, positions in from_backend.label_positions.items():
            got = {from_backend.edges[k] for k in positions.tolist()}
            want = {from_memory.edges[k]
                    for k in from_memory.label_positions[label].tolist()}
            assert got == want, label
        assert from_backend.src.dtype == np.dtype("int32")


class TestCorruption:
    def _segment_file(self, tmp_path):
        return write_segments(str(tmp_path), figure2_labeled(), 1)

    def test_bad_magic(self, tmp_path):
        path = self._segment_file(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[0] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(SegmentError, match="magic"):
            open_segments(path)

    def test_truncated_file(self, tmp_path):
        path = self._segment_file(tmp_path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:len(data) // 2])
        with pytest.raises(SegmentError):
            backend = open_segments(path)
            list(backend.edges())  # whichever frame the cut landed in

    def test_empty_file(self, tmp_path):
        path = str(tmp_path / "csr-9.seg")
        open(path, "wb").close()
        with pytest.raises(SegmentError):
            open_segments(path)

    def test_header_corruption_detected_at_open(self, tmp_path):
        path = self._segment_file(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[12] ^= 0x01  # inside the header frame payload
        open(path, "wb").write(bytes(data))
        with pytest.raises(SegmentError, match="checksum|JSON"):
            open_segments(path)

    def test_lazy_segment_corruption_detected_at_first_touch(self, tmp_path):
        path = self._segment_file(tmp_path)
        backend = open_segments(path)
        meta = backend._label_meta["contact"]
        offset = backend._data_start + meta["offset"] + struct.calcsize("<II")
        backend.close()
        data = bytearray(open(path, "rb").read())
        data[offset + 10] ^= 0x01  # flip a bit inside the contact payload
        open(path, "wb").write(bytes(data))
        reopened = open_segments(path)  # header + node table still fine
        with pytest.raises(SegmentError, match="checksum"):
            list(reopened.edges_with_label("contact"))
        # Untouched segments still serve.
        assert list(reopened.edges_with_label("owns"))

    def test_open_latest_falls_back_past_corrupt_newest(self, tmp_path):
        graph = figure2_labeled()
        write_segments(str(tmp_path), graph, 1)
        newest = write_segments(str(tmp_path), graph, 2)
        data = bytearray(open(newest, "rb").read())
        data[3] ^= 0xFF
        open(newest, "wb").write(bytes(data))
        backend = open_latest_segments(str(tmp_path))
        assert backend.version == 1

    def test_open_latest_reports_every_rejection(self, tmp_path):
        newest = write_segments(str(tmp_path), figure2_labeled(), 1)
        open(newest, "wb").write(b"junk")
        with pytest.raises(SegmentError, match="rejected"):
            open_latest_segments(str(tmp_path))

    def test_open_latest_on_empty_directory(self, tmp_path):
        with pytest.raises(SegmentError, match="checkpoint"):
            open_latest_segments(str(tmp_path))

    def test_frame_crc_helper_rejects_flip(self, tmp_path):
        # Sanity-check the framing itself: crc covers the payload.
        payload = json.dumps({"x": 1}).encode()
        frame = struct.pack("<II", len(payload), zlib.crc32(payload))
        assert zlib.crc32(payload + b"x") != struct.unpack(
            "<II", frame)[1]


class TestCheckpointIntegration:
    def test_checkpoint_writes_segments(self, tmp_path):
        directory = _checkpointed(tmp_path, figure2_labeled(), "labeled")
        files = list_segment_files(directory)
        assert len(files) == 1
        backend = open_latest_segments(directory)
        store = DurableGraph.open(directory, read_only=True)
        assert backend.version == store.graph.version
        _same_graph(backend, store.graph)
        store.close()

    def test_prune_keeps_bounded_history(self, tmp_path):
        directory = str(tmp_path / "store")
        store = DurableGraph.open(directory, model="labeled",
                                  keep_snapshots=2)
        store.add_node("a", "x")
        store.checkpoint()
        store.add_node("b", "x")
        store.checkpoint()
        store.add_node("c", "x")
        store.checkpoint()
        assert len(list_segment_files(directory)) == 2
        store.close()

    def test_prune_segment_files_sweeps_tmp(self, tmp_path):
        write_segments(str(tmp_path), figure2_labeled(), 1)
        junk = tmp_path / "csr-9.seg.tmp"
        junk.write_bytes(b"half-written")
        prune_segment_files(str(tmp_path), keep=2)
        assert not junk.exists()
        assert len(list_segment_files(str(tmp_path))) == 1

    def test_mutations_after_checkpoint_not_visible_from_store(self,
                                                               tmp_path):
        directory = str(tmp_path / "store")
        store = DurableGraph.open(directory, model="labeled")
        store.add_node("a", "x")
        store.checkpoint()
        store.add_node("b", "x")  # WAL only, no checkpoint
        store.close()
        backend = open_latest_segments(directory)
        assert backend.has_node("a")
        assert not backend.has_node("b")


class TestProtocol:
    def test_models_and_backends_conform(self, tmp_path):
        path = write_segments(str(tmp_path), figure2_labeled(), 1)
        store_dir = _checkpointed(tmp_path, figure2_labeled(), "labeled")
        durable = DurableGraph.open(store_dir, read_only=True)
        try:
            for target in (LabeledGraph(), PropertyGraph(),
                           figure2_labeled(), figure2_property(),
                           open_segments(path), durable):
                assert missing_backend_attrs(target) == [], type(target)
                assert is_graph_backend(target)
                assert isinstance(target, GraphBackend)
        finally:
            durable.close()

    def test_non_backends_report_what_is_missing(self):
        missing = missing_backend_attrs(object())
        assert "endpoints" in missing and "mutation_log" in missing
        assert not is_graph_backend(object())
        assert not isinstance(object(), GraphBackend)

    def test_backend_note_shapes(self, tmp_path):
        backend = open_segments(
            write_segments(str(tmp_path), figure2_labeled(), 1))
        note = backend_note(backend)
        assert note["kind"] == "mmap-csr"
        assert note["graph_version"] == 1
        memory = backend_note(figure2_labeled())
        assert memory == {"kind": "memory", "model": "LabeledGraph"}

    def test_query_cache_accepts_backend(self, tmp_path):
        backend = open_segments(
            write_segments(str(tmp_path), figure2_labeled(), 1))
        cache = QueryCache()
        regex = parse_regex("contact/contact*")
        first = endpoint_pairs(backend, regex, cache=cache)
        second = endpoint_pairs(backend, regex, cache=cache)
        assert first == second
        stats = cache.stats()
        assert stats["hits"] >= 1


class TestColdStartMatrix:
    """The acceptance matrix: 22 shapes x 3 frontends, cold start vs RAM.

    Each world is checkpointed once; every test opens the segments fresh
    (a new mmap, nothing decoded) and compares DISTINCT endpoint pairs
    against in-memory evaluation.  ``loads`` is booby-trapped for the
    duration, proving the cold-start path never materializes the snapshot
    through the JSON decoder; the PathQL probe further asserts only the
    query's footprint labels were decoded.
    """

    @pytest.fixture(scope="class")
    def matrix(self, tmp_path_factory):
        from tests.test_cross_frontend import SHAPES

        base = tmp_path_factory.mktemp("coldstart")
        worlds = {"contact": generate_contact_graph(14, 3, 6, 2, rng=5),
                  "fig2": figure2_property()}
        directories = {}
        for key, graph in worlds.items():
            directory = str(base / f"store-{key}")
            store = DurableGraph.open(directory, model="property")
            store.ingest(graph)
            store.checkpoint()
            store.close()
            directories[key] = directory
        return SHAPES, worlds, directories

    @pytest.fixture()
    def no_loads(self, monkeypatch):
        import repro.models.io as io
        import repro.storage.snapshot as snapshot

        def bomb(text):
            raise AssertionError(
                "cold-start path materialized the snapshot via loads()")
        monkeypatch.setattr(io, "loads", bomb)
        monkeypatch.setattr(snapshot, "loads", bomb)

    def test_pathql_matrix_with_footprint_probe(self, matrix, no_loads):
        from tests.test_cross_frontend import _pathql_pairs

        from repro.cache import pathql_footprint
        from repro.query.pathql import parse_pathql

        shapes, worlds, directories = matrix
        for name, world, pathql, _, _ in shapes:
            expected = _pathql_pairs(worlds[world], pathql)
            backend = open_latest_segments(directories[world])
            got = _pathql_pairs(backend, pathql)
            assert got == expected, name
            footprint = pathql_footprint(parse_pathql(pathql))
            assert not footprint.all_edges, name
            assert backend.decoded_labels() <= set(
                footprint.edge_labels), name
            backend.close()

    def test_sparql_matrix(self, matrix, no_loads):
        from tests.test_cross_frontend import _pathql_pairs, _table_pairs

        from repro.query.sparql import run_sparql, store_for_graph

        shapes, worlds, directories = matrix
        for name, world, pathql, sparql, _ in shapes:
            expected = _pathql_pairs(worlds[world], pathql)
            backend = open_latest_segments(directories[world])
            store = store_for_graph(backend)
            assert _table_pairs(run_sparql(store, sparql).rows) == \
                expected, name
            backend.close()

    def test_cypher_matrix(self, matrix, no_loads):
        from tests.test_cross_frontend import _pathql_pairs, _table_pairs

        from repro.query.cypherish import run_cypher, store_for_graph

        shapes, worlds, directories = matrix
        for name, world, pathql, _, cypher in shapes:
            expected = _pathql_pairs(worlds[world], pathql)
            backend = open_latest_segments(directories[world])
            store = store_for_graph(backend)
            assert _table_pairs(run_cypher(store, cypher).rows) == \
                expected, name
            backend.close()

    def test_matrix_is_the_full_catalogue(self, matrix):
        shapes, _, _ = matrix
        assert len(shapes) >= 22


class TestExplainBackendNote:
    def test_pathql_explain_names_the_segment_backend(self, tmp_path):
        from repro.obs import explain_pathql

        backend = open_segments(
            write_segments(str(tmp_path), figure2_labeled(), 1))
        report = explain_pathql(
            backend, "PATHS MATCHING contact/contact* MAXLENGTH 6")
        assert report.details["backend"]["kind"] == "mmap-csr"
        in_memory = explain_pathql(
            figure2_labeled(), "PATHS MATCHING contact/contact* MAXLENGTH 6")
        assert in_memory.details["backend"]["kind"] == "memory"
