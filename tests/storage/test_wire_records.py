"""Spill records and store meta are wire bodies.

The spill tier stores the acceptor's ``(payload, round, learned-max)``
triple in the wire codec: a payload's spilled bytes are its wire bytes
(a large payload is stored as the blob it already travels as, and comes
back through the intern table), every record type and the ownership
marks in the meta survive a reopen on every byte-holding backend, the
segment directory is fsynced where new files appear and victims vanish,
and a segment left behind by the retired pickle format is refused
without being touched.
"""

import gc
import os
import pathlib
import shutil
import stat

import pytest

from repro.core.keyspace import GroupOwnership, _OutboundMigration
from repro.core.rounds import Round, proposer_id
from repro.crdt.lwwmap import LWWMap
from repro.crdt.registry import crdt_registry, initial_state
from repro.errors import SpillCorruption
from repro.sharding.routing import RoutingTable
from repro.storage import (
    InMemorySpillStore,
    SegmentedSpillStore,
    SpillRecord,
    VolatileSpillStore,
)
from repro.storage.base import encode_record
from repro.wire import SIZED_CROSSOVER, encode_body

from tests.wire.test_roundtrip import EXEMPLARS

FIXTURE = pathlib.Path(__file__).parent / "data" / "pickle_format_segment.spill"

_ROUND = Round(7, proposer_id(3, 1))


def big_map() -> LWWMap:
    return LWWMap(
        tuple(
            (f"f{i:03d}", (f"value-{i:04d}", (float(i), 1, "r0")))
            for i in range(40)
        )
    )


class Reopenable:
    """A store plus how to get it back the way a restarted process would."""

    def __init__(self, kind: str, directory: pathlib.Path) -> None:
        self.kind = kind
        self.directory = directory
        self.store = self._open()

    def _open(self):
        if self.kind == "segmented":
            return SegmentedSpillStore(self.directory)
        if self.kind == "volatile":
            return VolatileSpillStore(SegmentedSpillStore(self.directory))
        return InMemorySpillStore()

    def reopen(self):
        if self.kind != "memory":  # nothing outlives an in-memory store
            self.store.close()
            self.store = self._open()
        return self.store


@pytest.fixture(params=["segmented", "memory", "volatile"])
def reopenable(request, tmp_path):
    handle = Reopenable(request.param, tmp_path / "spill")
    yield handle
    handle.store.close()


def exemplar(cls):
    return next(value for value in EXEMPLARS if type(value) is cls)


# ----------------------------------------------------------------------
# Round trips through a reopen
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(crdt_registry))
def test_every_crdt_type_with_its_learned_max_survives_a_reopen(reopenable, name):
    cls, _ = crdt_registry[name]
    state, learned = exemplar(cls), initial_state(name)
    reopenable.store.put(name, SpillRecord(state, _ROUND, learned))
    reopenable.store.flush()
    loaded = reopenable.reopen().get(name)
    assert type(loaded.state) is cls and loaded.state == state
    assert loaded.round == _ROUND
    assert type(loaded.learned_max) is cls and loaded.learned_max == learned


def test_meta_with_ownership_marks_survives_a_reopen(reopenable):
    ownership = GroupOwnership("g0", RoutingTable(["g0", "g1"], epoch=2))
    ownership.note_epoch(9)
    ownership.moved_out[("cart", 42)] = (5, "g1")
    ownership.moved_in["k7"] = 6
    ownership.freezing[frozenset({"a", "b"})] = _OutboundMigration("m3", 9, "g2")
    meta = {
        "batch_counter": 300,
        "learn_counter": 12,
        "round_id_counter": 2**40,
        "clean_shutdown": False,
        "node_epoch": 3,
        "durability": "write_through",
        **ownership.snapshot(),
    }
    reopenable.store.put_meta(meta)
    reopenable.store.flush()
    loaded = reopenable.reopen().get_meta()
    assert loaded == meta
    restored = GroupOwnership("g0", RoutingTable(["g0", "g1"], epoch=2))
    restored.restore(loaded)
    assert restored.max_epoch == 9
    assert restored.moved_out == ownership.moved_out
    assert restored.moved_in == ownership.moved_in
    [(key, out)] = restored.freezing.items()
    assert key == frozenset({"a", "b"})
    assert (out.request_id, out.epoch, out.target) == ("m3", 9, "g2")


# ----------------------------------------------------------------------
# One representation: disk bytes are wire bytes
# ----------------------------------------------------------------------
def test_a_record_is_the_wire_body_of_its_triple():
    state = exemplar(crdt_registry["or-set"][0])
    record = SpillRecord(state, _ROUND, None)
    assert encode_record(record) == encode_body((state, _ROUND, None))


def test_a_large_payload_is_stored_as_the_blob_it_travels_as(tmp_path):
    state = big_map()
    encode_body(state)  # sent once: the blob is memoised on the payload
    blob = state.wire_blob()
    assert blob is not None and len(blob) >= SIZED_CROSSOVER
    store = SegmentedSpillStore(tmp_path)
    store.put("k", SpillRecord(state, _ROUND))
    store.close()
    (segment,) = tmp_path.glob("seg-*.spill")
    assert segment.read_bytes().count(blob) == 1


def test_rehydrating_a_large_payload_goes_through_the_intern_table(tmp_path):
    state = big_map()
    store = SegmentedSpillStore(tmp_path)
    store.put("k", SpillRecord(state, _ROUND, state))
    loaded = store.get("k")
    # Resident: the very object, payload and learned max alike.
    assert loaded.state is state and loaded.learned_max is state
    del state, loaded
    gc.collect()
    # Not resident any more: a fresh, equal payload.
    assert store.get("k").state == big_map()
    store.close()


# ----------------------------------------------------------------------
# Directory fsync points
# ----------------------------------------------------------------------
@pytest.fixture
def sync_log(monkeypatch):
    """Every fsync (``"file"``/``"dir"``) and unlink, in order."""
    events = []
    real_fsync, real_unlink = os.fsync, pathlib.Path.unlink

    def fsync(fd):
        events.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        real_fsync(fd)

    def unlink(path, *args, **kwargs):
        events.append("unlink")
        real_unlink(path, *args, **kwargs)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(pathlib.Path, "unlink", unlink)
    return events


def record(value: int) -> SpillRecord:
    return SpillRecord(exemplar(crdt_registry["g-counter"][0]), Round(value, (0, 0, 0)))


def test_a_new_segment_is_in_the_directory_before_its_first_flush_returns(
    tmp_path, sync_log
):
    store = SegmentedSpillStore(tmp_path, segment_bytes=4096)
    assert sync_log == []  # opening syncs nothing yet
    store.put("k0", record(0))
    store.flush()
    assert sync_log == ["file", "dir"]
    store.put("k1", record(1))
    store.flush()
    assert sync_log == ["file", "dir", "file"]  # not once per flush
    first = store._active_id
    i = 2
    while store._active_id == first:  # rotate into a fresh segment
        store.put(f"k{i}", record(i))
        i += 1
    del sync_log[:]
    store.put("after-rotation", record(0))
    store.flush()
    assert sync_log == ["file", "dir"]
    store.close()


def test_every_compaction_unlink_is_followed_by_a_directory_fsync(
    tmp_path, sync_log
):
    store = SegmentedSpillStore(
        tmp_path, segment_bytes=4096, compaction_step_bytes=1024,
        compact_floor_bytes=1024,
    )
    for i in range(600):
        store.put(f"k{i % 5}", record(i))  # overwrites: mostly dead bytes
    assert store.compactions >= 2
    unlinks = [at for at, event in enumerate(sync_log) if event == "unlink"]
    assert len(unlinks) == store.compactions
    for at in unlinks:
        assert sync_log[at + 1] == "dir"
    store.close()


# ----------------------------------------------------------------------
# The retired pickle format is refused, never truncated
# ----------------------------------------------------------------------
@pytest.mark.parametrize("followed_by_an_empty_segment", [False, True])
def test_a_pickle_format_segment_is_refused_and_left_byte_identical(
    tmp_path, followed_by_an_empty_segment
):
    original = FIXTURE.read_bytes()
    segment = tmp_path / "seg-00000000.spill"
    shutil.copyfile(FIXTURE, segment)
    if followed_by_an_empty_segment:
        # What a reopen by the old build left behind.
        (tmp_path / "seg-00000001.spill").write_bytes(b"")
    before = sorted(path.name for path in tmp_path.iterdir())
    with pytest.raises(SpillCorruption, match="retired pickle spill format"):
        SegmentedSpillStore(tmp_path)
    assert segment.read_bytes() == original
    assert sorted(path.name for path in tmp_path.iterdir()) == before
