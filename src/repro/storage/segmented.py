"""Append-mostly segmented file backend for the spill tier.

Layout: a directory of numbered segment files (``seg-<n>.spill``).
Every ``put`` appends one framed record to the active segment and
updates an in-memory index (``key → (segment, offset, length)``); the
active segment rotates past ``segment_bytes``.  Overwrites and deletes
never touch old bytes — they only grow the *dead* byte count, and when
dead bytes exceed ``compact_ratio`` of the total the store compacts.
This is the classic Bitcask/LSM-lite shape: sequential writes, one seek
per read, bounded garbage.

Compaction is *incremental*: one victim segment (always the oldest
sealed one) is drained at most ``compaction_step_bytes`` of input per
store operation, its still-live frames re-appended to the active
segment, and the victim unlinked only after the copies are flushed and
fsynced.  No operation ever pays a stop-the-world rewrite, and the
protocol is crash-safe at every point: until the unlink both the
original and the copies are on disk, and the recovery replay resolves
the duplicates because copies live in strictly higher segment ids
(last frame per key wins).  Tombstones in the victim are dropped — the
oldest segment shadows nothing older.  :meth:`compact` runs the same
step loop to completion over every sealed segment.

Frame format (all integers little-endian)::

    magic   2 bytes  b"Sw"
    kind    1 byte   b"R" record | b"D" delete tombstone | b"M" meta
    crc32   4 bytes  zlib.crc32 of body
    length  4 bytes  body length
    body    length bytes

Every body is made of wire bodies (:mod:`repro.wire`): a record body is
``u32 key-length + encoded key + encoded record``
(:func:`~repro.storage.base.encode_record`, the body of the
``(payload, round, learned-max)`` triple — a large payload is stored as
the very blob it travels as); a tombstone body is the encoded key; a
meta body is the encoded meta dict.  The CRC is verified on every read
and during the recovery scan, so a corrupted frame is rejected before
any decoding happens; a CRC-valid body the codec refuses is
:class:`~repro.errors.SpillCorruption` too.

Segments written in the retired pickle format (frame magic ``b"SG"``)
are refused with :class:`~repro.errors.SpillCorruption` naming that
format, before anything is read into the index or truncated: the scan
must not mistake a whole readable segment for a torn tail.

Directory fsync points.  A segment's frames are only durable once its
directory entry is, so the first :meth:`flush` after a segment file is
created (on open and on every rotation) fsyncs the directory after the
file; a compaction victim's unlink is followed by a directory fsync at
once, so a victim whose tombstones were dropped cannot reappear after a
power loss and resurrect the keys they deleted.  No other flush touches
the directory.

Recovery scan semantics (:class:`SegmentedSpillStore` constructor):
segments are replayed in order and the index is rebuilt, last frame per
key winning.  A damaged frame at the *tail of the last* segment is a
torn write (the process died mid-append): the tail is ignored and its
size reported in :attr:`torn_tail_bytes`.  A damaged frame anywhere
else is real corruption and raises
:class:`~repro.errors.SpillCorruption` — serving a silently shortened
history would hand the protocol a regressed acceptor state, which is
exactly the regression the (payload, round) pair exists to prevent.
"""

from __future__ import annotations

import os
import pathlib
import struct
import zlib
from typing import Any, Hashable

from repro.errors import SerializationError, SpillCorruption
from repro.storage.base import (
    SpillRecord,
    SpillStore,
    decode_meta,
    decode_record,
    encode_meta,
    encode_record,
)

_MAGIC = b"Sw"
#: Frame magic of the retired pickle format; such segments are refused.
_PICKLE_MAGIC = b"SG"
_KIND_RECORD = b"R"
_KIND_DELETE = b"D"
_KIND_META = b"M"
_HEADER = struct.Struct("<2ss I I")  # magic, kind, crc32, body length

#: Compaction never triggers below this many total bytes (tiny stores
#: would churn files for nothing).
_COMPACT_FLOOR_BYTES = 64 * 1024


def _frame(kind: bytes, body: bytes) -> bytes:
    return _HEADER.pack(_MAGIC, kind, zlib.crc32(body), len(body)) + body


# The key codec is imported at call time: the codec's class registry
# imports the keyed replica, which imports the storage package.
def _encode_key(key: Hashable) -> bytes:
    from repro.wire.keys import encode_key

    return encode_key(key)


def _decode_key(data: bytes) -> Any:
    from repro.wire.keys import decode_key

    return decode_key(data)


def _decode(decode: Any, data: bytes, what: str, path: pathlib.Path) -> Any:
    """Run one body decoder; a body the codec refuses is corruption."""
    try:
        return decode(data)
    except SerializationError as exc:
        raise SpillCorruption(f"undecodable {what} in {path}: {exc}") from exc


class _Segment:
    """One segment file's bookkeeping."""

    __slots__ = ("path", "size", "live")

    def __init__(self, path: pathlib.Path, size: int = 0, live: int = 0) -> None:
        self.path = path
        self.size = size  # total bytes on disk
        self.live = live  # bytes of frames the index still points at


class SegmentedSpillStore(SpillStore):
    """Segmented append-mostly spill store with compaction."""

    def __init__(
        self,
        directory: str | os.PathLike,
        segment_bytes: int = 1 << 20,
        compact_ratio: float = 0.5,
        compaction_step_bytes: int = 1 << 16,
        compact_floor_bytes: int = _COMPACT_FLOOR_BYTES,
    ) -> None:
        if segment_bytes < 4096:
            raise ValueError(f"segment_bytes must be >= 4096, got {segment_bytes}")
        if not 0.0 < compact_ratio < 1.0:
            raise ValueError(f"compact_ratio must be in (0, 1), got {compact_ratio}")
        if compaction_step_bytes < 1024:
            raise ValueError(
                f"compaction_step_bytes must be >= 1024, got {compaction_step_bytes}"
            )
        if compact_floor_bytes < 0:
            raise ValueError(
                f"compact_floor_bytes must be >= 0, got {compact_floor_bytes}"
            )
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = segment_bytes
        self.compact_ratio = compact_ratio
        self.compaction_step_bytes = compaction_step_bytes
        self.compact_floor_bytes = compact_floor_bytes

        #: key → (segment id, frame offset, frame length)
        self._index: dict[Hashable, tuple[int, int, int]] = {}
        self._segments: dict[int, _Segment] = {}
        self._meta: dict[str, Any] | None = None
        self._meta_address: tuple[int, int] | None = None
        self._active_id = 0
        self._active_file = None
        #: The active segment's directory entry has not been fsynced.
        self._entry_unsynced = False
        self._read_handles: dict[int, Any] = {}
        self._closed = False
        #: In-progress incremental compaction: victim segment id, a
        #: snapshot of its bytes (sealed segments never change, so the
        #: snapshot stays valid across interleaved puts) and the replay
        #: cursor into it.
        self._compact_victim: int | None = None
        self._compact_data: bytes = b""
        self._compact_offset = 0

        #: Observability.
        self.puts = 0
        self.gets = 0
        self.bytes_written = 0
        self.compactions = 0
        self.compaction_steps = 0
        self.torn_tail_bytes = 0

        self._recover_scan()
        #: Running totals mirroring the per-segment bookkeeping, so the
        #: compaction trigger on every put/delete is O(1) instead of a
        #: sum over all segments.
        self._total_bytes = sum(s.size for s in self._segments.values())
        self._live_bytes = sum(s.live for s in self._segments.values())
        self._open_active()

    # ------------------------------------------------------------------
    # Recovery scan
    # ------------------------------------------------------------------
    def _segment_path(self, segment_id: int) -> pathlib.Path:
        return self.directory / f"seg-{segment_id:08d}.spill"

    def _recover_scan(self) -> None:
        paths = sorted(self.directory.glob("seg-*.spill"))
        ids = []
        for path in paths:
            try:
                ids.append(int(path.stem.split("-")[1]))
            except (IndexError, ValueError):
                continue
        ids.sort()
        for position, segment_id in enumerate(ids):
            last = position == len(ids) - 1
            self._scan_segment(segment_id, tolerate_torn_tail=last)
        self._active_id = (ids[-1] + 1) if ids else 0

    def _scan_segment(self, segment_id: int, tolerate_torn_tail: bool) -> None:
        path = self._segment_path(segment_id)
        segment = _Segment(path)
        self._segments[segment_id] = segment
        data = path.read_bytes()
        if data.startswith(_PICKLE_MAGIC):
            raise SpillCorruption(
                f"{path} is a segment in the retired pickle spill format "
                f"(frame magic {_PICKLE_MAGIC!r}); this build reads only "
                f"wire-codec segments (frame magic {_MAGIC!r})"
            )
        offset = 0
        while offset < len(data):
            frame = self._parse_frame(data, offset)
            if frame is None:  # damaged from here on
                if tolerate_torn_tail:
                    self.torn_tail_bytes += len(data) - offset
                    segment.size = offset
                    with open(path, "r+b") as fh:  # drop the torn tail
                        fh.truncate(offset)
                    return
                raise SpillCorruption(
                    f"corrupted spill frame in {path} at offset {offset}"
                )
            kind, body, frame_len = frame
            self._replay_frame(segment_id, offset, frame_len, kind, body, path)
            offset += frame_len
        segment.size = offset

    def _parse_frame(
        self, data: bytes, offset: int
    ) -> tuple[bytes, bytes, int] | None:
        """(kind, body, frame length) or None when the frame is damaged."""
        header_end = offset + _HEADER.size
        if header_end > len(data):
            return None
        magic, kind, crc, length = _HEADER.unpack_from(data, offset)
        if magic != _MAGIC or kind not in (_KIND_RECORD, _KIND_DELETE, _KIND_META):
            return None
        body_end = header_end + length
        if body_end > len(data):
            return None
        body = data[header_end:body_end]
        if zlib.crc32(body) != crc:
            return None
        return kind, body, _HEADER.size + length

    def _replay_frame(
        self,
        segment_id: int,
        offset: int,
        frame_len: int,
        kind: bytes,
        body: bytes,
        path: pathlib.Path,
    ) -> None:
        segment = self._segments[segment_id]
        if kind == _KIND_META:
            self._meta = _decode(decode_meta, body, "meta frame", path)
            self._meta_address = (segment_id, offset)
            return
        if kind == _KIND_DELETE:
            key = _decode(_decode_key, body, "tombstone key", path)
            previous = self._index.pop(key, None)
            if previous is not None:
                self._segments[previous[0]].live -= previous[2]
            return
        key = self._record_key(body, path)
        previous = self._index.get(key)
        if previous is not None:
            self._segments[previous[0]].live -= previous[2]
        self._index[key] = (segment_id, offset, frame_len)
        segment.live += frame_len

    @staticmethod
    def _record_key(body: bytes, path: pathlib.Path) -> Any:
        if len(body) < 4:
            raise SpillCorruption(f"record body too short for a key in {path}")
        (key_len,) = struct.unpack_from("<I", body, 0)
        return _decode(_decode_key, body[4 : 4 + key_len], "record key", path)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _open_active(self) -> None:
        path = self._segment_path(self._active_id)
        self._segments.setdefault(self._active_id, _Segment(path))
        self._active_file = open(path, "ab")
        self._entry_unsynced = True

    def _seal_active(self) -> None:
        """Close the active segment for good and open the next one.

        The sealed file is fsynced first: :meth:`flush` only ever syncs
        the *active* segment, so frames appended since the last flush
        would otherwise ride into a file no later flush covers — and a
        group commit's batch routinely straddles a rotation.
        """
        self.flush()
        self._active_file.close()
        cached = self._read_handles.pop(self._active_id, None)
        if cached is not None:
            cached.close()
        self._active_id += 1
        self._open_active()

    def _rotate_if_needed(self) -> None:
        if self._segments[self._active_id].size >= self.segment_bytes:
            self._seal_active()

    def _append(self, kind: bytes, body: bytes) -> tuple[int, int, int]:
        """Append one frame to the active segment; returns its address."""
        self._rotate_if_needed()
        segment = self._segments[self._active_id]
        frame = _frame(kind, body)
        offset = segment.size
        self._active_file.write(frame)
        self._active_file.flush()
        segment.size += len(frame)
        self._total_bytes += len(frame)
        self.bytes_written += len(frame)
        return self._active_id, offset, len(frame)

    def put(self, key: Hashable, record: SpillRecord) -> None:
        key_bytes = _encode_key(key)
        body = struct.pack("<I", len(key_bytes)) + key_bytes + encode_record(record)
        previous = self._index.get(key)
        segment_id, offset, frame_len = self._append(_KIND_RECORD, body)
        self._index[key] = (segment_id, offset, frame_len)
        self._segments[segment_id].live += frame_len
        self._live_bytes += frame_len
        if previous is not None:
            self._segments[previous[0]].live -= previous[2]
            self._live_bytes -= previous[2]
        self.puts += 1
        self._maybe_compact()

    def delete(self, key: Hashable) -> bool:
        previous = self._index.pop(key, None)
        if previous is None:
            return False
        self._segments[previous[0]].live -= previous[2]
        self._live_bytes -= previous[2]
        self._append(_KIND_DELETE, _encode_key(key))
        self._maybe_compact()
        return True

    def put_meta(self, meta: dict[str, Any]) -> None:
        self._meta = dict(meta)
        segment_id, offset, _ = self._append(_KIND_META, encode_meta(meta))
        self._meta_address = (segment_id, offset)
        # Meta frames are never live (only the last one matters and it is
        # rewritten by compaction), so a checkpoint-only workload of
        # periodic spill_all() calls accumulates dead bytes here too —
        # without this trigger those segments would grow forever.
        self._maybe_compact()

    def get_meta(self) -> dict[str, Any] | None:
        return dict(self._meta) if self._meta is not None else None

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _read_frame(self, segment_id: int, offset: int, length: int) -> bytes:
        handle = self._read_handles.get(segment_id)
        if handle is None:
            handle = open(self._segment_path(segment_id), "rb")
            self._read_handles[segment_id] = handle
        handle.seek(offset)
        data = handle.read(length)
        if len(data) != length:
            raise SpillCorruption(
                f"short read in {self._segment_path(segment_id)} at {offset}"
            )
        return data

    def get(self, key: Hashable) -> SpillRecord | None:
        address = self._index.get(key)
        if address is None:
            return None
        segment_id, offset, length = address
        data = self._read_frame(segment_id, offset, length)
        frame = self._parse_frame(data, 0)
        if frame is None or frame[0] != _KIND_RECORD:
            raise SpillCorruption(
                f"indexed frame failed integrity checks in "
                f"{self._segment_path(segment_id)} at offset {offset}"
            )
        _, body, _ = frame
        (key_len,) = struct.unpack_from("<I", body, 0)
        try:
            record = decode_record(body[4 + key_len :])
        except SerializationError as exc:
            raise SpillCorruption(
                f"undecodable record in {self._segment_path(segment_id)} "
                f"at offset {offset}: {exc}"
            ) from exc
        self.gets += 1
        return record

    def keys(self) -> list[Hashable]:
        return list(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def total_bytes(self) -> int:
        return self._total_bytes

    def dead_bytes(self) -> int:
        return self._total_bytes - self._live_bytes

    def _maybe_compact(self) -> None:
        # O(1): the running totals make this affordable on every put.
        # An in-progress victim is always advanced (leaving it half-drained
        # forever would strand its duplicate copies); a new one is only
        # started when the dead-byte ratio is exceeded.
        if self._compact_victim is not None:
            self._compact_step()
            return
        total = self._total_bytes
        if total < self.compact_floor_bytes:
            return
        if self.dead_bytes() > self.compact_ratio * total:
            if self._start_victim():
                self._compact_step()

    def _start_victim(self) -> bool:
        """Select the oldest sealed segment as the compaction victim."""
        sealed = [sid for sid in self._segments if sid != self._active_id]
        if not sealed:
            # Only the active segment exists: seal it so its dead bytes
            # become reclaimable, then pick it up as the victim.
            if self._segments[self._active_id].size == 0:
                return False
            self._seal_active()
            sealed = [sid for sid in self._segments if sid != self._active_id]
        victim_id = min(sealed)
        self._compact_victim = victim_id
        # Sealed segments are immutable, so one read snapshots the victim.
        self._compact_data = self._segments[victim_id].path.read_bytes()
        self._compact_offset = 0
        return True

    def _compact_step(self) -> None:
        """Drain up to ``compaction_step_bytes`` of the victim.

        Live record frames (the index still points at their victim
        address) are re-appended to the active segment; dead records,
        tombstones and stale meta frames are dropped.  When the cursor
        reaches the victim's end, the active segment is flushed and
        fsynced *before* the victim is unlinked — a crash at any earlier
        point leaves both original and copies on disk, and replay picks
        the copies (higher segment id, last-wins).
        """
        victim_id = self._compact_victim
        assert victim_id is not None
        data = self._compact_data
        budget = self.compaction_step_bytes
        victim = self._segments[victim_id]
        while budget > 0 and self._compact_offset < len(data):
            offset = self._compact_offset
            frame = self._parse_frame(data, offset)
            if frame is None:
                raise SpillCorruption(
                    f"frame failed integrity checks during compaction "
                    f"({victim.path} at offset {offset})"
                )
            kind, body, frame_len = frame
            self._compact_offset += frame_len
            budget -= frame_len
            if kind == _KIND_RECORD:
                key = self._record_key(body, victim.path)
                if self._index.get(key) == (victim_id, offset, frame_len):
                    victim.live -= frame_len
                    self._live_bytes -= frame_len
                    new_id, new_offset, new_len = self._append(_KIND_RECORD, body)
                    self._index[key] = (new_id, new_offset, new_len)
                    self._segments[new_id].live += new_len
                    self._live_bytes += new_len
            elif kind == _KIND_META:
                if self._meta_address == (victim_id, offset):
                    new_id, new_offset, _ = self._append(_KIND_META, body)
                    self._meta_address = (new_id, new_offset)
            # Tombstones are dropped: the victim is the oldest segment,
            # so its deletes shadow nothing that will survive it.
        self.compaction_steps += 1
        if self._compact_offset >= len(data):
            self._finish_victim(victim_id)

    def _finish_victim(self, victim_id: int) -> None:
        self.flush()  # copies durable before the originals vanish
        cached = self._read_handles.pop(victim_id, None)
        if cached is not None:
            cached.close()
        victim = self._segments.pop(victim_id)
        self._total_bytes -= victim.size
        try:
            victim.path.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        self._sync_directory()
        self._compact_victim = None
        self._compact_data = b""
        self._compact_offset = 0
        self.compactions += 1

    def compact(self) -> None:
        """Run the incremental machinery over every segment present at
        entry — one full pass.  Copies land in freshly rotated segments,
        which hold only live frames and are *not* re-drained: a live set
        larger than ``segment_bytes`` would otherwise be re-copied
        forever and the call would never return.
        """
        entry_max = self._active_id
        while True:
            if self._compact_victim is not None:
                self._compact_step()
                continue
            sealed = [sid for sid in self._segments if sid != self._active_id]
            if not sealed:
                # Only the active remains; if it is the entry-era one,
                # seal and drain it once so its dead bytes go too.
                if self._active_id > entry_max or not self._start_victim():
                    break
                continue
            if min(sealed) > entry_max:
                break
            self._start_victim()

    # ------------------------------------------------------------------
    def flush(self) -> None:
        if self._active_file is not None and not self._active_file.closed:
            self._active_file.flush()
            os.fsync(self._active_file.fileno())
            if self._entry_unsynced:
                self._sync_directory()
                self._entry_unsynced = False

    def _sync_directory(self) -> None:
        """Make the directory's entries (created or unlinked segment
        files) durable."""
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for handle in self._read_handles.values():
            handle.close()
        self._read_handles.clear()
        if self._active_file is not None:
            self._active_file.close()
