"""Contract tests for every SpillStore backend, plus the segmented
file backend's durability edges (rotation, compaction, reopen,
torn-tail tolerance, corruption rejection)."""

import os
import pathlib

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.rounds import Round
from repro.crdt.gcounter import GCounter
from repro.errors import SpillCorruption
from repro.storage import (
    InMemorySpillStore,
    SegmentedSpillStore,
    SpillRecord,
    VolatileSpillStore,
)


def record(value: int = 1) -> SpillRecord:
    return SpillRecord(
        GCounter.of({"r0": value}), Round.initial().with_write_id()
    )


@pytest.fixture(params=["memory", "segmented", "volatile"])
def store(request, tmp_path):
    if request.param == "memory":
        yield InMemorySpillStore()
    elif request.param == "segmented":
        backend = SegmentedSpillStore(tmp_path / "spill")
        yield backend
        backend.close()
    else:
        yield VolatileSpillStore(InMemorySpillStore())


class TestContract:
    def test_put_get_round_trip(self, store):
        store.put("k", record(5))
        loaded = store.get("k")
        assert loaded.state.value() == 5
        assert loaded.round == Round.initial().with_write_id()
        assert loaded.learned_max is None

    def test_get_returns_a_fresh_object_each_time(self, store):
        store.put("k", record(5))
        assert store.get("k").state is not store.get("k").state

    def test_missing_key_is_none(self, store):
        assert store.get("nope") is None
        assert "nope" not in store

    def test_last_put_wins(self, store):
        store.put("k", record(1))
        store.put("k", record(2))
        assert store.get("k").state.value() == 2
        assert len(store) == 1

    def test_delete(self, store):
        store.put("k", record())
        assert store.delete("k")
        assert store.get("k") is None
        assert not store.delete("k")

    def test_keys_and_len(self, store):
        for i in range(5):
            store.put(f"k{i}", record(i + 1))
        assert sorted(store.keys()) == [f"k{i}" for i in range(5)]
        assert len(store) == 5

    def test_meta_round_trip(self, store):
        assert store.get_meta() is None
        store.put_meta({"batch_counter": 3, "learn_counter": 9})
        assert store.get_meta() == {"batch_counter": 3, "learn_counter": 9}
        store.put_meta({"batch_counter": 4})
        assert store.get_meta() == {"batch_counter": 4}

    def test_learned_max_persisted(self, store):
        learned = GCounter.of({"r0": 1, "r2": 8})
        store.put("k", SpillRecord(GCounter.of({"r0": 1}), Round.initial(), learned))
        assert store.get("k").learned_max == learned

    def test_hashable_non_string_keys(self, store):
        store.put(("composite", 3), record(7))
        assert store.get(("composite", 3)).state.value() == 7


class TestSegmented:
    def test_reopen_rebuilds_index_and_meta(self, tmp_path):
        first = SegmentedSpillStore(tmp_path)
        for i in range(200):
            first.put(f"k{i}", record(i + 1))
        first.put("k0", record(999))  # overwrite must win after reopen
        first.delete("k1")  # tombstone must survive reopen
        first.put_meta({"learn_counter": 5})
        first.close()

        reopened = SegmentedSpillStore(tmp_path)
        assert len(reopened) == 199
        assert reopened.get("k0").state.value() == 999
        assert reopened.get("k1") is None
        assert reopened.get("k150").state.value() == 151
        assert reopened.get_meta() == {"learn_counter": 5}
        reopened.close()

    def test_segments_rotate(self, tmp_path):
        store = SegmentedSpillStore(tmp_path, segment_bytes=4096)
        for i in range(300):
            store.put(f"k{i}", record(i + 1))
        assert len(list(pathlib.Path(tmp_path).glob("seg-*.spill"))) > 1
        assert store.get("k0").state.value() == 1
        store.close()

    def test_compaction_reclaims_dead_bytes(self, tmp_path):
        def fat_record(value: int) -> SpillRecord:
            # ~20 slots per payload keeps the live set above the
            # compaction floor, so the dead-byte ratio bound is active.
            entries = {f"replica-{j:02d}": value + j for j in range(20)}
            return SpillRecord(GCounter.of(entries), Round.initial())

        store = SegmentedSpillStore(tmp_path, segment_bytes=16384)
        for round_ in range(20):
            for i in range(200):  # overwrite the same 200 keys repeatedly
                store.put(f"k{i}", fat_record(round_ * 200 + i + 1))
        assert store.compactions > 0
        # The last put may itself have tipped the ratio and compacted, or
        # left the store just under it — either way dead bytes are
        # bounded by the ratio (plus one frame of slack).
        assert store.dead_bytes() <= store.total_bytes() * store.compact_ratio + 1024
        assert len(store) == 200
        assert store.get("k42").state.value() == sum(
            19 * 200 + 43 + j for j in range(20)
        )
        store.close()
        # Compacted store reopens cleanly with the same contents.
        reopened = SegmentedSpillStore(tmp_path)
        assert len(reopened) == 200
        assert reopened.get("k42").state.value() == sum(
            19 * 200 + 43 + j for j in range(20)
        )
        reopened.close()

    def test_torn_tail_is_tolerated_and_truncated(self, tmp_path):
        store = SegmentedSpillStore(tmp_path)
        for i in range(50):
            store.put(f"k{i}", record(i + 1))
        store.close()
        segment = sorted(pathlib.Path(tmp_path).glob("seg-*.spill"))[-1]
        data = segment.read_bytes()
        segment.write_bytes(data[:-7])  # the process died mid-append

        reopened = SegmentedSpillStore(tmp_path)
        assert reopened.torn_tail_bytes > 0
        assert len(reopened) == 49  # the torn record is rejected...
        assert reopened.get("k48").state.value() == 49  # ...the rest served
        assert reopened.get("k49") is None
        # The tail was truncated, so new appends produce a clean segment.
        reopened.put("k49", record(50))
        reopened.close()
        third = SegmentedSpillStore(tmp_path)
        assert third.torn_tail_bytes == 0
        assert third.get("k49").state.value() == 50
        third.close()

    def test_mid_segment_corruption_rejected(self, tmp_path):
        store = SegmentedSpillStore(tmp_path)
        for i in range(50):
            store.put(f"k{i}", record(i + 1))
        store.close()
        segments = sorted(pathlib.Path(tmp_path).glob("seg-*.spill"))
        assert len(segments) == 1
        data = bytearray(segments[0].read_bytes())
        data[len(data) // 2] ^= 0xFF  # bit-rot in the middle, not the tail
        # Appending a fresh segment afterwards makes the damaged one
        # non-last, so its corruption is NOT torn-write tolerable.
        segments[0].write_bytes(bytes(data))
        later = pathlib.Path(tmp_path) / "seg-00000001.spill"
        later.write_bytes(b"")
        with pytest.raises(SpillCorruption):
            SegmentedSpillStore(tmp_path)

    def test_corrupted_record_read_rejected(self, tmp_path):
        """Bit-rot after open: the CRC check on the read path catches it."""
        store = SegmentedSpillStore(tmp_path)
        store.put("k", record(3))
        store.flush()
        segment = sorted(pathlib.Path(tmp_path).glob("seg-*.spill"))[0]
        data = bytearray(segment.read_bytes())
        data[-3] ^= 0xFF
        segment.write_bytes(bytes(data))
        store._read_handles.clear()  # drop cached handles to see the rot
        with pytest.raises(SpillCorruption):
            store.get("k")
        store.close()

    def test_invalid_parameters_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SegmentedSpillStore(tmp_path, segment_bytes=16)
        with pytest.raises(ValueError):
            SegmentedSpillStore(tmp_path, compact_ratio=1.5)
        with pytest.raises(ValueError):
            SegmentedSpillStore(tmp_path, compaction_step_bytes=100)
        with pytest.raises(ValueError):
            SegmentedSpillStore(tmp_path, compact_floor_bytes=-1)

    def test_checkpoint_only_workload_still_compacts(self, tmp_path):
        """A cron of spill_all()-style checkpoints writes only meta
        frames; their dead bytes must trigger compaction like records'."""
        store = SegmentedSpillStore(tmp_path, segment_bytes=8192)
        meta = {"batch_counter": 0, "pad": "x" * 512}
        for i in range(500):
            store.put_meta({**meta, "batch_counter": i})
        assert store.compactions > 0
        assert store.total_bytes() < 500 * 512  # old frames reclaimed
        assert store.get_meta()["batch_counter"] == 499
        store.close()


# ----------------------------------------------------------------------
# Media faults a process kill cannot produce (the page cache survives
# SIGKILL): power loss cuts or garbles whatever was not yet fsynced.
# ----------------------------------------------------------------------
_MEDIA_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 5), st.integers(1, 10**6)),
        st.tuples(st.just("delete"), st.integers(0, 5), st.just(0)),
        st.tuples(st.just("meta"), st.just(0), st.integers(0, 10**6)),
        st.tuples(st.just("flush"), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=40,
)
_MEDIA_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _write_with_flush_points(directory, ops):
    """Apply ``ops`` to a fresh store; returns ``(segment path, frames,
    flushed)``: every frame as ``(kind, key, value, end offset)`` in
    write order and the segment size the last ``flush()`` covered."""
    store = SegmentedSpillStore(directory)
    frames, flushed = [], 0
    for kind, key, value in ops:
        if kind == "flush":
            store.flush()
            flushed = store._segments[store._active_id].size
            continue
        if kind == "put":
            store.put(f"k{key}", record(value))
        elif kind == "delete":
            if not store.delete(f"k{key}"):
                continue  # no record, no tombstone frame
        else:
            store.put_meta({"n": value})
        frames.append((kind, f"k{key}", value, store._segments[store._active_id].size))
    store.close()
    segments = sorted(pathlib.Path(directory).glob("seg-*.spill"))
    assert len(segments) == 1  # small enough never to rotate
    return segments[0], frames, flushed


def _replay(frames, upto):
    """What a store holding exactly the frames ending at or before
    ``upto`` must serve: ``(records, meta)``, last frame wins."""
    records, meta = {}, None
    for kind, key, value, end in frames:
        if end > upto:
            break
        if kind == "put":
            records[key] = value
        elif kind == "delete":
            records.pop(key, None)
        else:
            meta = {"n": value}
    return records, meta


def _damage(segment, damage, position):
    data = bytearray(segment.read_bytes())
    if damage == "truncate":
        del data[position:]
    else:
        data[position] ^= 0xFF
    segment.write_bytes(bytes(data))
    return len(data)


class TestMediaFaults:
    @_MEDIA_SETTINGS
    @given(
        ops=_MEDIA_OPS,
        damage=st.sampled_from(("truncate", "flip")),
        where=st.floats(0.0, 1.0),
    )
    def test_unflushed_tail_damage_is_tolerated(
        self, tmp_path_factory, ops, damage, where
    ):
        """Cut (or garble) the last segment anywhere at or past the last
        flushed byte: the reopen raises nothing, serves exactly the
        frames before the damage — every flushed one among them — and
        ``torn_tail_bytes`` accounts for the rest."""
        directory = tmp_path_factory.mktemp("media")
        segment, frames, flushed = _write_with_flush_points(directory, ops)
        total = frames[-1][3] if frames else 0
        # A cut may fall anywhere in [flushed, total]; a flip needs a byte.
        span = total - flushed + (1 if damage == "truncate" else 0)
        assume(span > 0)
        position = flushed + min(int(where * span), span - 1)
        damaged_size = _damage(segment, damage, position)

        # Frames wholly before the damaged byte survive; the frame it
        # hits and everything after it is torn tail.
        intact = max((end for *_, end in frames if end <= position), default=0)
        assert intact >= flushed
        records, meta = _replay(frames, intact)

        reopened = SegmentedSpillStore(directory)
        assert reopened.torn_tail_bytes == damaged_size - intact
        assert sorted(reopened.keys()) == sorted(records)
        for key, value in records.items():
            assert reopened.get(key).state.value() == value
        assert reopened.get_meta() == meta
        # The torn tail is gone from disk: appends land on a clean file.
        reopened.put("fresh", record(7))
        reopened.close()
        third = SegmentedSpillStore(directory)
        assert third.torn_tail_bytes == 0
        assert third.get("fresh").state.value() == 7
        third.close()

    @_MEDIA_SETTINGS
    @given(
        ops=_MEDIA_OPS,
        damage=st.sampled_from(("truncate", "flip")),
        where=st.floats(0.0, 1.0),
    )
    def test_same_damage_in_a_sealed_segment_is_corruption(
        self, tmp_path_factory, ops, damage, where
    ):
        """A sealed segment was fsynced before the next one opened, so
        damage there is not a torn write: refuse to serve a silently
        shortened history."""
        directory = tmp_path_factory.mktemp("media")
        segment, frames, _ = _write_with_flush_points(directory, ops)
        assume(frames)
        total = frames[-1][3]
        position = min(int(where * total), total - 1)
        # A cut on a frame boundary is indistinguishable from a shorter
        # segment; any other damage must be detected.
        assume(damage == "flip" or position not in {0, *(f[3] for f in frames)})
        _damage(segment, damage, position)
        (pathlib.Path(directory) / "seg-00000001.spill").write_bytes(b"")
        with pytest.raises(SpillCorruption):
            SegmentedSpillStore(directory)

    def test_sealing_a_segment_fsyncs_it(self, tmp_path, monkeypatch):
        """``flush()`` reaches only the active segment, so rotation must
        sync the file it seals — a group commit's puts may straddle it."""
        store = SegmentedSpillStore(tmp_path, segment_bytes=4096)
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            "os.fsync", lambda fd: (synced.append(os.fstat(fd).st_ino), real_fsync(fd))
        )
        first = os.stat(store._segments[0].path).st_ino
        for i in range(200):  # no flush() anywhere
            store.put(f"k{i}", record(i + 1))
        assert store._active_id > 0
        assert first in synced
        store.close()


class TestIncrementalCompaction:
    #: Small enough that a modest overwrite workload compacts, with a
    #: step budget far below the segment size so one compaction takes
    #: several calls — the window a kill must be able to land in.
    KW = dict(
        segment_bytes=4096, compaction_step_bytes=1024, compact_floor_bytes=4096
    )

    def _churn_until_mid_compaction(self, store) -> None:
        for i in range(5000):
            store.put(f"k{i % 40}", record(i + 1))
            if store._compact_victim is not None and store._compact_offset > 0:
                return
        raise AssertionError("workload never caught a compaction mid-victim")

    def test_per_call_work_is_bounded(self, tmp_path):
        """No put ever pays for a whole segment: a compaction drains its
        victim across multiple bounded steps instead of one big stall."""
        store = SegmentedSpillStore(tmp_path, **self.KW)
        for i in range(3000):
            store.put(f"k{i % 40}", record(i + 1))
        assert store.compactions > 0
        assert store.compaction_steps > store.compactions
        store.close()

    def test_kill_mid_compaction_reopens_consistently(self, tmp_path):
        """kill -9 with a victim half-drained: the directory holds the
        still-present victim AND duplicate copies of some of its frames
        in a higher segment.  The reopen scan resolves them last-wins, so
        every key reads back its latest value and the interrupted
        compaction simply restarts from scratch."""
        store = SegmentedSpillStore(tmp_path, **self.KW)
        self._churn_until_mid_compaction(store)
        expect = {key: store.get(key).state.value() for key in store.keys()}
        meta = store.get_meta()
        # The kill: no close, no finishing the victim — a new process
        # just opens the same directory.
        reopened = SegmentedSpillStore(tmp_path, **self.KW)
        assert reopened._compact_victim is None  # cursor died with the process
        assert {k: reopened.get(k).state.value() for k in reopened.keys()} == expect
        assert reopened.get_meta() == meta
        # The survivor keeps compacting and stays fully readable.
        reopened.compact()
        assert {k: reopened.get(k).state.value() for k in reopened.keys()} == expect
        reopened.close()
        store.close()

    def test_compact_runs_to_completion(self, tmp_path):
        store = SegmentedSpillStore(tmp_path, **self.KW)
        for i in range(2000):
            store.put(f"k{i % 40}", record(i + 1))
        store.put_meta({"learn_counter": 7})
        entry_segments = set(store._segments)
        store.compact()
        # Every entry-time segment was drained and dropped; what remains
        # is freshly written copies, so almost nothing is dead (a meta
        # frame superseded during the pass at most).
        assert not entry_segments & set(store._segments)
        assert store.dead_bytes() <= 1024
        assert len(store) == 40
        assert store.get("k7").state.value() > 0
        assert store.get_meta() == {"learn_counter": 7}
        store.close()


class TestVolatile:
    def test_reads_see_the_unflushed_overlay(self):
        store = VolatileSpillStore(InMemorySpillStore())
        store.put("k", record(3))
        store.put_meta({"learn_counter": 2})
        assert store.get("k").state.value() == 3
        assert store.get_meta() == {"learn_counter": 2}
        assert len(store.delegate) == 0  # nothing durable yet
        assert store.pending_writes() == 2

    def test_flush_is_the_fsync_point(self):
        store = VolatileSpillStore(InMemorySpillStore())
        store.put("a", record(1))
        store.put("b", record(2))
        store.delete("a")
        store.put_meta({"learn_counter": 5})
        store.flush()
        assert store.pending_writes() == 0
        assert store.delegate.get("a") is None
        assert store.delegate.get("b").state.value() == 2
        assert store.delegate.get_meta() == {"learn_counter": 5}

    def test_crash_drops_everything_since_the_last_flush(self):
        store = VolatileSpillStore(InMemorySpillStore())
        store.put("a", record(1))
        store.flush()
        store.put("a", record(99))
        store.put("b", record(2))
        store.put_meta({"learn_counter": 9})
        store.crash()
        assert store.get("a").state.value() == 1  # pre-flush value survives
        assert store.get("b") is None
        assert store.get_meta() is None
        assert store.crashes == 1

    def test_buffered_delete_shadows_durable_record(self):
        store = VolatileSpillStore(InMemorySpillStore())
        store.put("k", record(4))
        store.flush()
        assert store.delete("k")
        assert store.get("k") is None
        assert "k" not in store
        assert "k" not in store.keys()
        # ...but the plug pulled before the flush resurrects it.
        store.crash()
        assert store.get("k").state.value() == 4
