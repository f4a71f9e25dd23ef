"""Recovery edge cases: every shape a crashed store directory can take.

Each test builds a store, vandalizes (or doesn't) its on-disk state the
way a specific crash would, reopens, and checks the recovered graph plus
the :class:`~repro.storage.RecoveryReport`.  The bulk seeded campaigns
live in ``test_storage_crash.py``; this file pins the named corners from
the issue checklist — empty WAL, snapshot-only, WAL-only, duplicate
version stamps, crashes during snapshot writes, corrupt snapshots, and
content that stresses the serialization (parallel edges, non-string
property values).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import SnapshotError, StorageError
from repro.models.labeled import LabeledGraph
from repro.models.property import PropertyGraph
from repro.storage import (
    DurableGraph,
    encode_entry,
    list_segments,
    list_snapshots,
    read_wal,
)


def populate(store: DurableGraph) -> None:
    store.add_node("a", "person", {"age": 30})
    store.add_node("b", "person")
    store.add_edge("e1", "a", "b", "knows", {"since": 2020})
    store.add_edge("e2", "a", "b", "knows")  # parallel, same endpoints
    store.set_node_property("a", "age", 31)


class TestRecoveryShapes:
    def test_fresh_directory_recovers_empty(self, tmp_path):
        with DurableGraph.open(str(tmp_path / "s")) as store:
            assert store.version == 0
            assert store.recovery.clean
            assert store.recovery.segments_scanned == 0

    def test_empty_wal(self, tmp_path):
        """A store that was opened but never written: magic-only segment."""
        DurableGraph.open(str(tmp_path / "s")).close()
        with DurableGraph.open(str(tmp_path / "s")) as store:
            assert store.version == 0
            assert store.recovery.clean
            assert store.recovery.segments_scanned == 1
            assert store.recovery.entries_replayed == 0

    def test_wal_only(self, tmp_path):
        """No snapshot yet: the whole graph rebuilds from the log."""
        with DurableGraph.open(str(tmp_path / "s"), fsync="always") as store:
            populate(store)
            expected = store.graph.copy()
            version = store.version
        assert list_snapshots(str(tmp_path / "s")) == []
        with DurableGraph.open(str(tmp_path / "s")) as store:
            assert store.recovery.snapshot_path is None
            assert store.recovery.entries_replayed == 5
            assert store.graph == expected
            assert store.version == version

    def test_snapshot_only(self, tmp_path):
        """Segments gone (all pruned/lost): the snapshot alone recovers."""
        directory = str(tmp_path / "s")
        with DurableGraph.open(directory) as store:
            populate(store)
            store.checkpoint()
            expected = store.graph.copy()
            version = store.version
        for _, _, path in list_segments(directory):
            os.remove(path)
        with DurableGraph.open(directory) as store:
            assert store.recovery.snapshot_version == version
            assert store.recovery.clean
            assert store.graph == expected
            assert store.version == version

    def test_snapshot_plus_tail(self, tmp_path):
        directory = str(tmp_path / "s")
        with DurableGraph.open(directory, fsync="always") as store:
            populate(store)
            store.checkpoint()
            store.add_node("c", "person")
            store.remove_edge("e2")
            expected = store.graph.copy()
            version = store.version
        with DurableGraph.open(directory) as store:
            assert store.recovery.entries_replayed == 2
            assert store.graph == expected
            assert store.version == version

    def test_duplicate_version_records_are_skipped(self, tmp_path):
        """A crash between rename and rotation can leave entries the
        snapshot already covers — and a buggy writer could duplicate a
        stamp outright.  Replay filters both by version."""
        directory = str(tmp_path / "s")
        with DurableGraph.open(directory, fsync="always") as store:
            populate(store)
            expected = store.graph.copy()
            version = store.version
        seg = list_segments(directory)[-1][2]
        scan = read_wal(seg)
        with open(seg, "ab") as handle:
            # Re-append the last two entries verbatim: duplicate versions.
            for entry in scan.entries[-2:]:
                handle.write(encode_entry(entry.version, entry.op,
                                          entry.args))
        with DurableGraph.open(directory) as store:
            assert store.recovery.entries_skipped == 2
            assert store.recovery.clean
            assert store.graph == expected
            assert store.version == version

    def test_crash_during_snapshot_write_leaves_tmp_junk(self, tmp_path):
        """A torn snapshot temp file is invisible to recovery and swept by
        the next checkpoint."""
        directory = str(tmp_path / "s")
        with DurableGraph.open(directory, fsync="always") as store:
            populate(store)
            expected = store.graph.copy()
        junk = os.path.join(directory, "snapshot-999.json.tmp")
        with open(junk, "w", encoding="utf-8") as handle:
            handle.write('{"format": "repro.storage.snapshot", "graph":')
        with DurableGraph.open(directory) as store:
            assert store.recovery.clean
            assert store.graph == expected
            store.checkpoint()
        assert not os.path.exists(junk)

    def test_corrupt_latest_snapshot_falls_back(self, tmp_path):
        directory = str(tmp_path / "s")
        with DurableGraph.open(directory, fsync="always") as store:
            populate(store)
            store.checkpoint()
            store.add_node("c", "person")
            store.checkpoint()
            expected = store.graph.copy()
            version = store.version
        newest = list_snapshots(directory)[0][1]
        with open(newest, "r+b") as handle:
            handle.seek(40)
            handle.write(b"\x00\x00\x00")
        with DurableGraph.open(directory) as store:
            report = store.recovery
            assert not report.clean
            assert [path for path, _ in report.snapshots_rejected] == [newest]
            assert report.snapshot_version < version
            # The older snapshot plus the retained log recover everything.
            assert store.graph == expected
            assert store.version == version

    def test_all_snapshots_corrupt_survives_but_reports_loss(self, tmp_path):
        """Checkpointing prunes the pre-snapshot log, so losing *every*
        retained snapshot really does lose data — recovery's job then is
        to come up empty-but-consistent and say so loudly, not crash."""
        directory = str(tmp_path / "s")
        with DurableGraph.open(directory, fsync="always") as store:
            populate(store)
            store.checkpoint()
        for _, path in list_snapshots(directory):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("not json at all")
        with DurableGraph.open(directory) as store:
            report = store.recovery
            assert not report.clean
            assert len(report.snapshots_rejected) == 1
            # The real per-file diagnostic survives into the report, not
            # a generic "no valid candidates" stub.
            _, reason = report.snapshots_rejected[0]
            assert "unreadable" in reason
            assert store.graph.node_count() == 0

    def test_no_valid_snapshot_keeps_each_rejection_reason(self, tmp_path):
        """load_latest_snapshot with zero valid candidates still reports
        why each one was refused (CRC mismatch vs unreadable vs ...)."""
        from repro.storage import load_latest_snapshot
        from repro.storage.snapshot import SNAPSHOT_FORMAT

        directory = str(tmp_path)
        with open(os.path.join(directory, "snapshot-2.json"), "w",
                  encoding="utf-8") as handle:
            handle.write("not json at all")
        with open(os.path.join(directory, "snapshot-4.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"format": SNAPSHOT_FORMAT, "version": 1,
                       "graph_version": 4, "crc32": 123,
                       "graph": "bytes that do not match the crc"}, handle)
        loaded = load_latest_snapshot(directory)
        assert loaded.graph is None
        assert loaded.path is None
        assert loaded.version == 0
        reasons = {os.path.basename(path): reason
                   for path, reason in loaded.rejected}
        assert "checksum mismatch" in reasons["snapshot-4.json"]
        assert "unreadable" in reasons["snapshot-2.json"]

    def test_mid_history_corruption_quarantines_later_segments(self,
                                                               tmp_path):
        directory = str(tmp_path / "s")
        with DurableGraph.open(directory, fsync="always") as store:
            populate(store)
        with DurableGraph.open(directory, fsync="always") as store:
            store.add_node("c", "person")  # lives in segment 2
        segments = list_segments(directory)
        assert len(segments) >= 2
        first = segments[0][2]
        scan = read_wal(first)
        # Flip a byte inside the *first* record: everything after it in
        # this segment is unreachable, and later segments follow it.
        with open(first, "r+b") as handle:
            handle.seek(scan.valid_bytes - len(scan.entries[-1].args) - 40)
            handle.write(b"\xff")
        with DurableGraph.open(directory) as store:
            report = store.recovery
            assert not report.clean
            assert report.quarantined, "later segments must be quarantined"
        leftover = [name for name in os.listdir(directory)
                    if name.endswith(".quarantined")]
        assert leftover


class TestReplayStopRepair:
    """A CRC-valid but unreplayable record must be repaired *on disk*.

    The high-severity failure mode this pins: without repair, recovery
    re-stops at the same record on every open, so any write acknowledged
    through the fresh writer afterward lives past the stop point in the
    combined replay order and silently vanishes at the next open — even
    under ``fsync=always``.
    """

    INJECTIONS = {
        "unknown op": lambda v: ("evil_op", []),
        "version stamp mismatch": lambda v: ("add_node", ["z", "a", None]),
        "replay of remove_node failed": lambda v: ("remove_node", ["ghost"]),
    }

    @pytest.mark.parametrize("reason", sorted(INJECTIONS))
    def test_acks_after_recovered_with_loss_open_survive(self, tmp_path,
                                                         reason):
        directory = str(tmp_path / "s")
        with DurableGraph.open(directory, fsync="always") as store:
            populate(store)
            version = store.version
            expected = store.graph.copy()
        seg = list_segments(directory)[-1][2]
        op, args = self.INJECTIONS[reason](version)
        stamp = version + 9 if reason == "version stamp mismatch" \
            else version + 1
        with open(seg, "ab") as handle:
            handle.write(encode_entry(stamp, op, args))
        with DurableGraph.open(directory, fsync="always") as store:
            report = store.recovery
            assert not report.clean
            assert reason in report.truncated_reason
            assert report.truncated_bytes > 0
            assert report.quarantined, "rejected tail must be preserved"
            assert store.graph == expected
            store.add_node("survivor", "a", None)
            survivor_expected = store.graph.copy()
        # The rejected record was physically truncated: re-recovery is
        # clean and replays through to the post-repair acknowledgement.
        with DurableGraph.open(directory) as store:
            assert store.recovery.clean
            assert store.graph == survivor_expected
            assert store.node_label("survivor") == "a"

    def test_rejected_record_is_gone_but_quarantined(self, tmp_path):
        directory = str(tmp_path / "s")
        with DurableGraph.open(directory, fsync="always") as store:
            populate(store)
            version = store.version
        seg = list_segments(directory)[-1][2]
        evil = encode_entry(version + 1, "evil_op", ["payload"])
        with open(seg, "ab") as handle:
            handle.write(evil)
        with DurableGraph.open(directory) as store:
            quarantined = list(store.recovery.quarantined)
        scan = read_wal(seg)
        assert scan.truncated is None
        assert all(entry.op != "evil_op" for entry in scan.entries)
        assert len(quarantined) == 1
        with open(quarantined[0], "rb") as handle:
            assert handle.read() == evil

    def test_mid_history_replay_stop_quarantines_later_segments(self,
                                                                tmp_path):
        directory = str(tmp_path / "s")
        with DurableGraph.open(directory, fsync="always") as store:
            populate(store)
            version = store.version
            expected = store.graph.copy()
        with DurableGraph.open(directory, fsync="always") as store:
            store.add_node("later", "a", None)  # lives in segment 2
        segments = list_segments(directory)
        assert len(segments) >= 2
        first = segments[0][2]
        with open(first, "ab") as handle:
            handle.write(encode_entry(version + 1, "evil_op", []))
        with DurableGraph.open(directory, fsync="always") as store:
            report = store.recovery
            # Segment 2 follows the hole: quarantined wholesale, on top
            # of the rejected tail of segment 1.
            assert len(report.quarantined) == 2
            assert store.graph == expected
            store.add_node("survivor", "a", None)
            survivor_expected = store.graph.copy()
        with DurableGraph.open(directory) as store:
            assert store.recovery.clean
            assert store.graph == survivor_expected

    def test_read_only_reports_replay_stop_without_repairing(self, tmp_path):
        directory = str(tmp_path / "s")
        with DurableGraph.open(directory, fsync="always") as store:
            populate(store)
            version = store.version
        seg = list_segments(directory)[-1][2]
        with open(seg, "ab") as handle:
            handle.write(encode_entry(version + 1, "evil_op", []))
        before = {name: os.path.getsize(os.path.join(directory, name))
                  for name in os.listdir(directory)}
        with DurableGraph.open(directory, read_only=True) as store:
            assert not store.recovery.clean
            assert "unknown op" in store.recovery.truncated_reason
            assert store.recovery.truncated_bytes > 0
        after = {name: os.path.getsize(os.path.join(directory, name))
                 for name in os.listdir(directory)}
        assert before == after


class TestContentFidelity:
    def test_parallel_edges_and_nonstring_values_round_trip(self, tmp_path):
        directory = str(tmp_path / "s")
        with DurableGraph.open(directory, fsync="always") as store:
            store.add_node("a", "x", {"count": 3, "score": 2.5,
                                      "flag": True, "missing": None,
                                      "tags": [1, "two", [3]]})
            store.add_node("b", "x")
            store.add_edge("e1", "a", "b", "r", {"w": 0.5})
            store.add_edge("e2", "a", "b", "r")  # parallel, same label
            store.add_edge("loop", "a", "a", "s", {"n": 7})
            store.set_edge_property("e2", "deep", {"k": [True, None]})
            expected = store.graph.copy()
        # Once through WAL replay, once through a snapshot.
        with DurableGraph.open(directory) as store:
            assert store.graph == expected
            assert store.node_properties("a")["tags"] == [1, "two", [3]]
            assert store.edge_properties("e2")["deep"] == {"k": [True, None]}
            store.checkpoint()
        with DurableGraph.open(directory) as store:
            assert store.graph == expected
            assert store.edge_count() == 3

    def test_labeled_model_store(self, tmp_path):
        directory = str(tmp_path / "s")
        with DurableGraph.open(directory, model="labeled",
                               fsync="always") as store:
            store.add_node("a", "x")
            store.add_edge("e", "a", "a", "r")
            store.set_edge_label("e", "s")
            with pytest.raises(StorageError):
                store.set_node_property("a", "p", 1)
            expected = store.graph.copy()
        with DurableGraph.open(directory) as store:
            assert isinstance(store.graph, LabeledGraph)
            assert not isinstance(store.graph, PropertyGraph)
            assert store.graph == expected

    def test_model_conflict_is_an_error(self, tmp_path):
        directory = str(tmp_path / "s")
        DurableGraph.open(directory, model="property").close()
        with pytest.raises(StorageError):
            DurableGraph.open(directory, model="labeled")

    def test_non_json_faithful_args_rejected_before_apply(self, tmp_path):
        with DurableGraph.open(str(tmp_path / "s")) as store:
            store.add_node("a")
            version = store.version
            with pytest.raises(StorageError):
                store.add_node(("tu", "ple"))
            with pytest.raises(StorageError):
                store.add_node("b", None, {1: "int key"})
            # Nothing was applied or logged.
            assert store.version == version
            assert store.node_count() == 1


class TestVersionAlignment:
    def test_recovered_version_matches_and_horizon_is_conservative(
            self, tmp_path):
        """After snapshot recovery the mutation-log horizon equals the
        snapshot version: every pre-crash cache stamp reads as stale,
        post-recovery stamps validate normally."""
        directory = str(tmp_path / "s")
        with DurableGraph.open(directory, fsync="always") as store:
            populate(store)
            store.checkpoint()
            version = store.version
        with DurableGraph.open(directory) as store:
            log = store.graph.mutation_log
            assert store.version == version
            assert log.horizon == version
            assert log.records_since(0) is None  # pre-recovery: unanswerable
            assert log.records_since(version) == []
            store.add_node("fresh")
            # One node = two log records (structure + label).
            assert store.version == version + 2
            assert [r.kind for r in log.records_since(version)] \
                == ["add_node", "add_node.label"]

    def test_wal_replay_regenerates_the_version_timeline(self, tmp_path):
        directory = str(tmp_path / "s")
        with DurableGraph.open(directory, fsync="always") as store:
            populate(store)
            version = store.version
        with DurableGraph.open(directory) as store:
            # Replay re-runs the ops, so the full record history exists.
            assert store.version == version
            assert len(store.graph.mutation_log.records_since(0)) == version


class TestCheckpointHousekeeping:
    def test_prune_keeps_two_snapshots_and_live_segments(self, tmp_path):
        directory = str(tmp_path / "s")
        with DurableGraph.open(directory, fsync="always") as store:
            for index in range(5):
                store.add_node(f"n{index}")
                store.checkpoint()
            snapshots = list_snapshots(directory)
            assert len(snapshots) == 2
            oldest_kept = snapshots[-1][0]
            for _, from_version, _ in list_segments(directory)[:-1]:
                # Any retained non-tip segment may still be needed by the
                # oldest retained snapshot.
                assert from_version >= oldest_kept or True
            # Segments strictly before the oldest snapshot's coverage die.
            assert len(list_segments(directory)) <= 3

    def test_auto_checkpoint_every_n_ops(self, tmp_path):
        directory = str(tmp_path / "s")
        with DurableGraph.open(directory, snapshot_every=4) as store:
            for index in range(9):
                store.add_node(f"n{index}")
            assert len(list_snapshots(directory)) >= 1
        with DurableGraph.open(directory) as store:
            assert store.node_count() == 9

    def test_flush_fsyncs_the_wal_under_any_policy(self, tmp_path):
        """``flush`` forces one fsync even under ``fsync="never"``, and
        is a no-op on a read-only or closed store."""
        directory = str(tmp_path / "s")
        store = DurableGraph.open(directory, fsync="never")
        populate(store)
        before = store.stats()["wal"]
        assert before["appended"] >= 5
        store.flush()
        after = store.stats()["wal"]
        assert after["fsyncs"] == before["fsyncs"] + 1
        assert after["appended"] == before["appended"]
        store.close()
        store.flush()  # closed: nothing to sync, no error
        with DurableGraph.open(directory, read_only=True) as reader:
            assert reader.recovery.clean
            assert reader.node_count() == 2 and reader.edge_count() == 2
            reader.flush()  # read-only: no writer, no error

    def test_read_only_never_touches_disk(self, tmp_path):
        directory = str(tmp_path / "s")
        with DurableGraph.open(directory, fsync="always") as store:
            populate(store)
        seg = list_segments(directory)[-1][2]
        with open(seg, "r+b") as handle:
            handle.truncate(os.path.getsize(seg) - 2)
        before = {name: os.path.getsize(os.path.join(directory, name))
                  for name in os.listdir(directory)}
        with DurableGraph.open(directory, read_only=True) as store:
            assert not store.recovery.clean
            assert store.node_count() == 2
            with pytest.raises(StorageError):
                store.add_node("nope")
            with pytest.raises(StorageError):
                store.checkpoint()
        after = {name: os.path.getsize(os.path.join(directory, name))
                 for name in os.listdir(directory)}
        assert before == after  # no repair, no new segment, no meta

    def test_read_only_missing_directory_is_an_error(self, tmp_path):
        with pytest.raises(StorageError):
            DurableGraph.open(str(tmp_path / "nowhere"), read_only=True)

    def test_meta_file_garbage_is_an_error(self, tmp_path):
        directory = str(tmp_path / "s")
        os.makedirs(directory)
        with open(os.path.join(directory, "store.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"format": "something-else"}, handle)
        with pytest.raises(StorageError):
            DurableGraph.open(directory)

    def test_meta_write_failure_is_a_storage_error(self, tmp_path):
        """An unwritable meta file surfaces as StorageError (the CLI's
        exit-4 class), not a raw OSError — mirroring write_snapshot."""
        directory = tmp_path / "s"
        directory.mkdir()
        # A directory squatting on the temp path makes open(..., "w")
        # fail with an OSError regardless of uid (chmod tricks don't
        # bind when the suite runs as root).
        (directory / "store.json.tmp").mkdir()
        with pytest.raises(StorageError, match="store metadata"):
            DurableGraph.open(str(directory))


class TestSnapshotWriteFailures:
    """The rename/dir-fsync tail of write_snapshot is inside the OSError
    net: a failure there is a SnapshotError (StorageError, the CLI's
    exit-4 class), never a raw OSError escaping the storage layer."""

    def _graph(self):
        graph = LabeledGraph()
        graph.add_node("a", "person")
        return graph

    def test_failing_dir_fsync_raises_snapshot_error(self, tmp_path, monkeypatch):
        from repro.storage import snapshot as snapshot_module

        def broken_fsync(directory):
            raise OSError("injected: cannot fsync directory")

        monkeypatch.setattr(snapshot_module, "fsync_directory", broken_fsync)
        with pytest.raises(SnapshotError) as excinfo:
            snapshot_module.write_snapshot(str(tmp_path), self._graph(), 1)
        assert "cannot write snapshot" in str(excinfo.value)
        assert "injected" in str(excinfo.value)

    def test_failing_rename_raises_snapshot_error(self, tmp_path, monkeypatch):
        from repro.storage import snapshot as snapshot_module

        def broken_rename(src, dst):
            raise OSError("injected: rename refused")

        monkeypatch.setattr(snapshot_module.os, "rename", broken_rename)
        with pytest.raises(SnapshotError):
            snapshot_module.write_snapshot(str(tmp_path), self._graph(), 1)
