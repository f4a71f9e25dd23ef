"""`DurableGraph`: a crash-safe adapter over the mutable graph models.

The paper's storage/query split, made real: queries keep running against a
plain in-memory :class:`~repro.models.labeled.LabeledGraph` /
:class:`~repro.models.property.PropertyGraph` (every index, cache and
engine built in PR 1–6 works unchanged), while every mutation is made
durable through the write-ahead log before it is acknowledged.

**Write path.**  A mutation applies to the in-memory graph first (the
model's own validation runs and its :class:`~repro.cache.versioning.MutationLog`
assigns the post-mutation version), then the ``[version, op, args]`` entry
is appended to the WAL under the configured fsync policy, and only then
does the call return.  A crash at any point loses at most the unflushed
tail: either the entry never hit the log (the op was never acknowledged)
or it is fully framed and checksummed.  No-op mutations (the models elide
writes that change nothing) never reach the log, so replay stays perfectly
aligned with the version timeline.

**Recovery** (:meth:`DurableGraph.open`) loads the newest *valid* snapshot
(checksums can demote a corrupt one to its predecessor) through the
models' one-pass ``build``: its rows go straight into the indexes and
nothing is logged, so the loaded graph is at version 0 with an empty log.
Recovery fast-forwards that log to the snapshot version, so the recovered
``graph.version`` lines up with the cache/versioning horizon: every
pre-crash cache stamp is conservatively stale, every post-recovery stamp
validates normally.  It then replays the WAL tail in segment order through
the logged mutation methods, not a bulk build: each entry's version stamp
is the version the logged method reached when the write was acknowledged,
so replay must advance the log the same way for the stamps to keep lining
up.  Replay skips entries at or below the current version (snapshot
overlap, duplicate versions) and stops at the first record it cannot
accept — torn or corrupt framing, but equally a CRC-valid entry that is
unreplayable (unknown op, version-stamp mismatch, apply failure).  Either
way the stop point is *repaired on disk*: the owning segment is truncated
at the rejected record (its bytes preserved in a ``.quarantined`` file)
and all later segments are quarantined (renamed, never silently
replayed), because entries past a hole no longer connect to the recovered
state.  Repairing before the fresh writer attaches is what keeps writes
acknowledged *after* a recovered-with-loss open durable: the next
recovery replays straight through to them instead of re-stopping at the
old rejection point.

**Checkpoints** write a snapshot (temp file + atomic rename), rotate the
WAL to a fresh segment stamped with the snapshot version, and prune
snapshots/segments that no recovery path can need (the two newest
snapshots are kept, so even a corrupt latest snapshot recovers losslessly
from the previous one plus the retained log).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.errors import ReproError, StorageError, WalWriteError
from repro.exec.faults import StorageIO
from repro.models.labeled import LabeledGraph
from repro.models.property import PropertyGraph
from repro.storage import diskread
from repro.storage import snapshot as snap
from repro.storage import wal

META_NAME = "store.json"
META_FORMAT = "repro.storage.store"
META_VERSION = 1

#: Model tags a durable store can hold.
MODELS = {"labeled": LabeledGraph, "property": PropertyGraph}

#: The full replayable mutation vocabulary.  A CRC-valid entry naming any
#: other op is treated as corruption, never dispatched by name — the WAL
#: must not become an RPC surface into arbitrary graph methods.
REPLAYABLE_OPS = frozenset((
    "add_node", "add_edge", "remove_node", "remove_edge",
    "set_node_label", "set_edge_label",
    "set_node_property", "set_edge_property",
))

#: Ops that need the property model (sigma writes).
_PROPERTY_OPS = frozenset(("set_node_property", "set_edge_property"))

DEFAULT_KEEP_SNAPSHOTS = 2


@dataclass
class RecoveryReport:
    """What :meth:`DurableGraph.open` found and did.

    ``clean`` distinguishes an ordinary restart from a crash repair: it is
    ``False`` whenever recovery had to truncate a torn tail, quarantine
    unreachable segments, or skip a corrupt snapshot — all survivable, all
    worth surfacing (the CLI ``recover`` command turns it into a distinct
    exit code).
    """

    model: str
    snapshot_version: int = 0
    snapshot_path: str | None = None
    snapshots_rejected: list = field(default_factory=list)
    segments_scanned: int = 0
    entries_replayed: int = 0
    entries_skipped: int = 0
    truncated_bytes: int = 0
    truncated_reason: str | None = None
    quarantined: list = field(default_factory=list)
    final_version: int = 0

    @property
    def clean(self) -> bool:
        return (self.truncated_reason is None and self.truncated_bytes == 0
                and not self.quarantined and not self.snapshots_rejected)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "snapshot_version": self.snapshot_version,
            "snapshot_path": self.snapshot_path,
            "snapshots_rejected": [list(item) for item in
                                   self.snapshots_rejected],
            "segments_scanned": self.segments_scanned,
            "entries_replayed": self.entries_replayed,
            "entries_skipped": self.entries_skipped,
            "truncated_bytes": self.truncated_bytes,
            "truncated_reason": self.truncated_reason,
            "quarantined": list(self.quarantined),
            "final_version": self.final_version,
            "clean": self.clean,
        }


def _canonical_args(args: list) -> list:
    """Refuse arguments that do not round-trip through JSON unchanged.

    The WAL stores JSON, so a tuple node id or a dict with integer keys
    would silently come back *different* on replay — the recovered graph
    would diverge from the acknowledged one.  Failing the write up front
    (before anything is applied or logged) keeps the durable contract
    honest: what you were acknowledged is exactly what recovery rebuilds.
    """
    try:
        text = json.dumps(args, separators=(",", ":"))
        decoded = json.loads(text)
    except (TypeError, ValueError) as error:
        raise StorageError(
            f"mutation arguments are not JSON-serializable: {error}"
        ) from error
    if decoded != args:
        raise StorageError(
            f"mutation arguments are not JSON-faithful "
            f"(tuples or non-string dict keys?): {args!r}")
    return args


class DurableGraph:
    """A graph whose acknowledged mutations survive ``kill -9``.

    Construct via :meth:`open` (which *is* recovery — a fresh directory
    recovers to an empty graph).  Reads delegate to the live in-memory
    graph (also reachable as :attr:`graph` for query engines, caches and
    worker pools); the mutation methods mirror the model's signatures and
    write ahead to the log before acknowledging.
    """

    def __init__(self, *_, **__):
        raise TypeError("use DurableGraph.open(directory, ...)")

    @classmethod
    def open(cls, directory: str, *, model: str | None = None,
             fsync: str = "batch", batch_size: int = wal.DEFAULT_BATCH_SIZE,
             snapshot_every: int | None = None,
             keep_snapshots: int = DEFAULT_KEEP_SNAPSHOTS,
             io: StorageIO | None = None,
             retries: int = wal.DEFAULT_IO_RETRIES,
             backoff: float = wal.DEFAULT_IO_BACKOFF,
             read_only: bool = False) -> "DurableGraph":
        """Open (and recover) the store rooted at ``directory``.

        ``model`` is fixed at store creation (recorded in ``store.json``);
        passing a conflicting tag later is an error, passing ``None``
        adopts whatever the store holds (``"property"`` for new stores).
        ``read_only=True`` recovers in memory without repairing, rotating
        or writing anything on disk — the CLI query path.
        """
        self = object.__new__(cls)
        if fsync not in wal.FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; expected one of "
                f"{wal.FSYNC_POLICIES}")
        if snapshot_every is not None and snapshot_every < 1:
            raise ValueError("snapshot_every must be positive")
        if read_only:
            if not os.path.isdir(directory):
                raise StorageError(f"no durable store at {directory}")
        else:
            os.makedirs(directory, exist_ok=True)
        self._directory = directory
        self._read_only = read_only
        self._closed = False
        self._failed = False
        self._fsync = fsync
        self._batch_size = batch_size
        self._snapshot_every = snapshot_every
        self._keep_snapshots = keep_snapshots
        self._io = io if io is not None else StorageIO()
        self._retries = retries
        self._backoff = backoff
        self._ops_since_checkpoint = 0
        self._writer = None

        stored_model = self._read_meta()
        if stored_model is not None and model is not None \
                and stored_model != model:
            raise StorageError(
                f"store at {directory} holds model {stored_model!r}, "
                f"not {model!r}")
        self._model = stored_model or model or "property"
        if self._model not in MODELS:
            raise StorageError(f"unknown model tag {self._model!r}")
        if stored_model is None and not read_only:
            self._write_meta()

        self._recover()
        if not read_only:
            last_seq = max((seq for seq, _, _ in
                            wal.list_segments(directory)), default=0)
            self._writer = wal.WalWriter(
                os.path.join(directory,
                             wal.segment_name(last_seq + 1,
                                              self._graph.version)),
                fsync=fsync, batch_size=batch_size, io=self._io,
                retries=retries, backoff=backoff)
        return self

    # -- recovery ----------------------------------------------------------

    def _read_meta(self) -> str | None:
        path = os.path.join(self._directory, META_NAME)
        try:
            with open(path, encoding="utf-8") as handle:
                meta = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as error:
            raise StorageError(f"unreadable store metadata {path}: "
                               f"{error}") from error
        if not isinstance(meta, dict) or meta.get("format") != META_FORMAT:
            raise StorageError(f"{path} is not a durable-store metadata file")
        return meta.get("model")

    def _write_meta(self) -> None:
        path = os.path.join(self._directory, META_NAME)
        tmp = path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump({"format": META_FORMAT, "version": META_VERSION,
                           "model": self._model}, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.rename(tmp, path)
        except OSError as error:
            raise StorageError(
                f"cannot write store metadata {path}: {error}") from error
        wal.fsync_directory(self._directory)

    def _fresh_base(self, loaded: snap.SnapshotLoad | None):
        """The replay starting point: snapshot graph (fast-forwarded) or empty."""
        if loaded is None or loaded.graph is None:
            return MODELS[self._model]()
        graph = loaded.graph
        expected = MODELS[self._model]
        if type(graph) is not expected:
            raise StorageError(
                f"snapshot {loaded.path} decodes to "
                f"{type(graph).__name__}, store model is {self._model!r}")
        graph.mutation_log.fast_forward(loaded.version)
        return graph

    def _recover(self) -> None:
        report = RecoveryReport(model=self._model)
        loaded = snap.load_latest_snapshot(self._directory)
        report.snapshots_rejected = loaded.rejected
        if loaded.graph is not None:
            report.snapshot_version = loaded.version
            report.snapshot_path = loaded.path
        graph = self._fresh_base(loaded)

        segments = wal.list_segments(self._directory)
        entries: list[wal.WalEntry] = []
        origins: list[tuple[int, int]] = []  # per entry: (segment, offset)
        scans: list[wal.WalScan] = []
        stop_reason = None
        stop_segment_index = len(segments)
        for index, (_, _, path) in enumerate(segments):
            report.segments_scanned += 1
            scan = wal.read_wal(path)
            scans.append(scan)
            entries.extend(scan.entries)
            origins.extend((index, offset) for offset in scan.offsets)
            if scan.truncated is not None:
                stop_reason = scan.truncated
                stop_segment_index = index
                report.truncated_bytes += scan.total_bytes - scan.valid_bytes
                if not self._read_only:
                    wal.repair(path, scan)
                break

        replayed, skipped, replay_stop, stop_entry = self._replay(
            graph, entries, loaded)
        report.entries_replayed = replayed
        report.entries_skipped = skipped

        if replay_stop is not None:
            # Replay rejected a CRC-valid entry: repair the stop point on
            # disk, exactly as for a torn frame.  The owning segment is
            # truncated at the rejected record's frame (the discarded
            # bytes preserved in a quarantine file, never silently
            # replayed) *before* the fresh writer attaches — otherwise
            # every future recovery would re-stop here and silently drop
            # writes acknowledged after this open.
            stop_reason = replay_stop
            seg_index, start_offset = origins[stop_entry]
            stop_segment_index = seg_index
            scan = scans[seg_index]
            seg_path = segments[seg_index][2]
            report.truncated_bytes += scan.valid_bytes - start_offset
            if not self._read_only:
                report.quarantined.append(self._quarantine_tail(
                    seg_path, start_offset, scan.valid_bytes))
                wal.repair(seg_path, wal.WalScan(
                    entries=[], valid_bytes=start_offset,
                    total_bytes=scan.valid_bytes))
        report.truncated_reason = stop_reason

        if stop_reason is not None:
            for _, _, path in segments[stop_segment_index + 1:]:
                report.quarantined.append(
                    path if self._read_only else self._quarantine(path))

        self._graph = graph
        report.final_version = graph.version
        self.recovery = report

    def _replay(self, graph, entries: list[wal.WalEntry],
                loaded: snap.SnapshotLoad):
        """Apply WAL entries onto ``graph``.

        Returns ``(replayed, skipped, stop_reason, stop_index)`` where
        ``stop_index`` locates the rejected entry in ``entries`` (``None``
        for a clean replay) so the caller can repair the segment it came
        from.  Entries at or below the current version are skipped
        (snapshot overlap and duplicate-version records are both normal
        after a crash between checkpoint steps).  An entry that cannot be
        applied, or whose version stamp disagrees with the version the
        graph actually reached, stops replay — the remainder is
        unreachable history, handled by the caller.  A version mismatch
        discovered *after* applying rolls back by replaying the
        known-good prefix onto a fresh base, so the recovered graph never
        includes the mismatched op.
        """
        replayed = 0
        skipped = 0
        good: list[wal.WalEntry] = []
        for index, entry in enumerate(entries):
            if entry.version <= graph.version:
                skipped += 1
                continue
            if entry.op not in REPLAYABLE_OPS:
                return replayed, skipped, f"unknown op {entry.op!r}", index
            if entry.op in _PROPERTY_OPS and self._model != "property":
                return (replayed, skipped,
                        f"op {entry.op!r} invalid for model {self._model!r}",
                        index)
            try:
                getattr(graph, entry.op)(*entry.args)
            except (ReproError, TypeError) as error:
                return (replayed, skipped,
                        f"replay of {entry.op} failed: {error}", index)
            if graph.version != entry.version:
                rebuilt = self._fresh_base(
                    snap.load_latest_snapshot(self._directory)
                    if loaded.graph is not None else None)
                for prior in good:
                    getattr(rebuilt, prior.op)(*prior.args)
                graph.__dict__.update(rebuilt.__dict__)
                return (replayed, skipped,
                        f"version stamp mismatch at {entry.op} "
                        f"(expected {entry.version}, got {graph.version})",
                        index)
            good.append(entry)
            replayed += 1
        return replayed, skipped, None, None

    def _quarantine_target(self, path: str) -> str:
        target = path + ".quarantined"
        suffix = 0
        while os.path.exists(target):
            suffix += 1
            target = f"{path}.quarantined{suffix}"
        return target

    def _quarantine(self, path: str) -> str:
        target = self._quarantine_target(path)
        os.rename(path, target)
        return target

    def _quarantine_tail(self, path: str, start: int, end: int) -> str:
        """Preserve bytes ``[start, end)`` of a segment before truncation.

        The quarantine file holds the rejected record and everything after
        it in the segment — frames only, no magic, so it can never be
        mistaken for (or listed as) a live segment.
        """
        target = self._quarantine_target(path)
        with open(path, "rb") as source:
            source.seek(start)
            tail = source.read(max(0, end - start))
        with open(target, "wb") as handle:
            handle.write(tail)
            handle.flush()
            os.fsync(handle.fileno())
        wal.fsync_directory(self._directory)
        return target

    # -- the durable write path --------------------------------------------

    def _check_usable(self) -> None:
        if self._closed:
            raise StorageError("store is closed")
        if self._failed:
            raise StorageError(
                "store failed after an unrecoverable WAL write error; "
                "reopen to recover the acknowledged state")

    def _mutate(self, op: str, args: list) -> None:
        if self._read_only:
            raise StorageError("store was opened read-only")
        self._check_usable()
        _canonical_args(args)
        pre_version = self._graph.version
        getattr(self._graph, op)(*args)
        if self._graph.version == pre_version:
            return  # elided no-op: nothing happened, nothing to make durable
        try:
            self._writer.append(self._graph.version, op, args)
        except WalWriteError:
            # The in-memory graph is now ahead of the log.  Accepting more
            # writes would log them with version stamps that skip the lost
            # one, guaranteeing a replay stop on recovery — poison the
            # store instead, so the failure surfaces here, not as silent
            # data loss at the next open.
            self._failed = True
            raise
        self._ops_since_checkpoint += 1
        if self._snapshot_every is not None \
                and self._ops_since_checkpoint >= self._snapshot_every:
            self.checkpoint()

    def add_node(self, node, label=None, properties=None):
        if self._model == "property":
            self._mutate("add_node", [node, label, properties])
        else:
            if properties:
                raise StorageError(
                    "labeled stores have no properties; use a property store")
            self._mutate("add_node", [node, label])
        return node

    def add_edge(self, edge, source, target, label=None, properties=None):
        if self._model == "property":
            self._mutate("add_edge", [edge, source, target, label, properties])
        else:
            if properties:
                raise StorageError(
                    "labeled stores have no properties; use a property store")
            self._mutate("add_edge", [edge, source, target, label])
        return edge

    def remove_node(self, node):
        self._mutate("remove_node", [node])

    def remove_edge(self, edge):
        self._mutate("remove_edge", [edge])

    def set_node_label(self, node, label):
        self._mutate("set_node_label", [node, label])

    def set_edge_label(self, edge, label):
        self._mutate("set_edge_label", [edge, label])

    def set_node_property(self, node, prop, value):
        if self._model != "property":
            raise StorageError("labeled stores have no properties")
        self._mutate("set_node_property", [node, prop, value])

    def set_edge_property(self, edge, prop, value):
        if self._model != "property":
            raise StorageError("labeled stores have no properties")
        self._mutate("set_edge_property", [edge, prop, value])

    def ingest(self, graph) -> int:
        """Bulk-load another graph's content as durable mutations.

        Returns the number of mutations applied.  Deterministic order
        (sorted ids) so two ingests of equal graphs produce identical
        logs.  Id collisions surface as the model's own errors.
        """
        count = 0
        has_props = hasattr(graph, "node_properties")
        for node in sorted(graph.nodes(), key=str):
            label = graph.node_label(node) if hasattr(graph, "node_label") \
                else None
            props = graph.node_properties(node) if has_props else None
            self.add_node(node, label,
                          props if self._model == "property" else None)
            count += 1
        for edge in sorted(graph.edges(), key=str):
            source, target = graph.endpoints(edge)
            label = graph.edge_label(edge) if hasattr(graph, "edge_label") \
                else None
            props = graph.edge_properties(edge) if has_props else None
            self.add_edge(edge, source, target, label,
                          props if self._model == "property" else None)
            count += 1
        return count

    # -- checkpointing and lifecycle ---------------------------------------

    def checkpoint(self) -> str:
        """Snapshot the current state and rotate/prune the log.

        Order matters for crash safety: (1) fsync the WAL so the snapshot
        never claims writes the log does not hold, (2) write the snapshot
        via temp-file + atomic rename, (3) rotate to a fresh segment, (4)
        prune superseded snapshots and segments.  A crash between any two
        steps leaves a recoverable store — at worst with redundant files
        the next checkpoint sweeps.
        """
        if self._read_only:
            raise StorageError("store was opened read-only")
        self._check_usable()
        try:
            self._writer.flush()
        except WalWriteError:
            self._failed = True  # durability of acked writes now unknown
            raise
        version = self._graph.version
        path = snap.write_snapshot(self._directory, self._graph, version)
        # The disk-read half of the checkpoint: CSR segments a cold start
        # can mmap and query without replaying this store into memory.
        # Written after the snapshot so a crash in between still leaves a
        # recoverable (snapshot-only) checkpoint.
        diskread.write_segments(self._directory, self._graph, version,
                                model=self._model)
        self._writer.close()
        last_seq = max((seq for seq, _, _ in
                        wal.list_segments(self._directory)), default=0)
        self._writer = wal.WalWriter(
            os.path.join(self._directory,
                         wal.segment_name(last_seq + 1, version)),
            fsync=self._fsync, batch_size=self._batch_size, io=self._io,
            retries=self._retries, backoff=self._backoff)
        self._prune()
        self._ops_since_checkpoint = 0
        return path

    def _prune(self) -> None:
        snap.prune_snapshots(self._directory, keep=self._keep_snapshots)
        diskread.prune_segment_files(self._directory,
                                     keep=self._keep_snapshots)
        retained = snap.list_snapshots(self._directory)
        if not retained:
            return
        oldest_kept = retained[-1][0]
        segments = wal.list_segments(self._directory)
        # Segment i only holds versions below segment i+1's from-stamp;
        # once that stamp is covered by the oldest snapshot any recovery
        # can start from, segment i is unreachable history.
        for (_, _, path), (_, next_from, _) in zip(segments, segments[1:]):
            if next_from <= oldest_kept:
                try:
                    os.remove(path)
                except OSError:  # pragma: no cover - permission oddities
                    pass

    def flush(self) -> None:
        """Fsync the WAL now, regardless of policy."""
        if self._read_only or self._closed:
            return
        self._check_usable()
        try:
            self._writer.flush()
        except WalWriteError:
            self._failed = True
            raise

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._writer is not None:
            # A failed store must not fsync on the way out: the flush
            # would likely raise again (masking the original error in
            # ``__exit__``), and nothing after the poison point was
            # acknowledged anyway.
            self._writer.close(flush=not self._failed)

    def abort(self) -> None:
        """Drop the store without flushing anything — a simulated crash.

        The disk keeps exactly what the fsync policy had already made
        durable; the crash-fault harness uses this (after an injected
        :class:`~repro.exec.faults.WriteCrash`) to release file
        descriptors without giving the writer a chance to sync.
        """
        if self._closed:
            return
        self._closed = True
        if self._writer is not None:
            self._writer.close(flush=False)

    def __enter__(self) -> "DurableGraph":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection ------------------------------------------------------

    @property
    def graph(self):
        """The live in-memory graph: hand this to query engines and caches."""
        return self._graph

    @property
    def directory(self) -> str:
        return self._directory

    @property
    def model(self) -> str:
        return self._model

    @property
    def version(self) -> int:
        return self._graph.version

    def stats(self) -> dict:
        info = {
            "directory": self._directory,
            "model": self._model,
            "version": self._graph.version,
            "nodes": self._graph.node_count(),
            "edges": self._graph.edge_count(),
            "read_only": self._read_only,
            "failed": self._failed,
            "snapshots": [version for version, _ in
                          snap.list_snapshots(self._directory)],
            "segments": len(wal.list_segments(self._directory)),
        }
        if self._writer is not None:
            info["wal"] = self._writer.stats()
        return info

    def __getattr__(self, name: str):
        # Read-path delegation: anything not defined here (nodes, edges,
        # label indexes, mutation_log, ...) resolves against the live
        # graph, so a DurableGraph can stand in wherever a graph is read.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.__dict__["_graph"], name)

    def __repr__(self) -> str:
        return (f"<DurableGraph {self._model} dir={self._directory!r} "
                f"version={self._graph.version}>")
