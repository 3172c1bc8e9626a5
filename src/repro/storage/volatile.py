"""Volatile write-buffer wrapper modelling fsync semantics.

A real disk acknowledges writes into a volatile cache; only an fsync
makes them power-loss durable.  The segmented backend cannot model that
distinction in-process (its ``write()`` reaches the OS page cache, which
survives a *process* kill), so crash campaigns that want power-loss /
fsync fidelity wrap any backend in :class:`VolatileSpillStore`: puts,
deletes and meta writes are buffered in RAM, :meth:`flush` applies the
buffer to the delegate in order (then flushes it — the fsync point), and
:meth:`crash` throws the buffer away, exactly like pulling the plug
between fsyncs.

Reads see the buffered overlay (read-your-writes), so a replica
operating normally cannot tell the wrapper is there; only a crash can.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.storage.base import (
    SpillRecord,
    SpillStore,
    decode_meta,
    decode_record,
    encode_meta,
    encode_record,
)

#: Overlay sentinel for a buffered (not yet durable) delete.
_TOMBSTONE = object()


class VolatileSpillStore(SpillStore):
    """Buffers writes until ``flush``; ``crash()`` drops unflushed ones."""

    def __init__(self, delegate: SpillStore) -> None:
        self.delegate = delegate
        #: key → encoded record | _TOMBSTONE, in write order (dict is
        #: ordered) — bytes, like the cache of a real disk would hold.
        self._buffer: dict[Hashable, Any] = {}
        self._meta_buffer: bytes | None = None
        #: Observability.
        self.puts = 0
        self.flushes = 0
        self.crashes = 0
        #: Buffered writes a crash discarded — non-zero means a kill
        #: landed between a put and the flush that would have covered it.
        self.dropped_writes = 0

    # ------------------------------------------------------------------
    def put(self, key: Hashable, record: SpillRecord) -> None:
        # Re-insert so flush replays in last-write order.
        self._buffer.pop(key, None)
        self._buffer[key] = encode_record(record)
        self.puts += 1

    def get(self, key: Hashable) -> SpillRecord | None:
        buffered = self._buffer.get(key)
        if buffered is _TOMBSTONE:
            return None
        if buffered is not None:
            return decode_record(buffered)
        return self.delegate.get(key)

    def delete(self, key: Hashable) -> bool:
        existed = key in self
        self._buffer.pop(key, None)
        self._buffer[key] = _TOMBSTONE
        return existed

    def keys(self) -> list[Hashable]:
        merged = {
            key: None for key in self.delegate.keys() if self._buffer.get(key) is not _TOMBSTONE
        }
        for key, value in self._buffer.items():
            if value is not _TOMBSTONE:
                merged[key] = None
        return list(merged)

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, key: Hashable) -> bool:
        buffered = self._buffer.get(key)
        if buffered is _TOMBSTONE:
            return False
        if buffered is not None:
            return True
        return key in self.delegate

    # ------------------------------------------------------------------
    def put_meta(self, meta: dict[str, Any]) -> None:
        self._meta_buffer = encode_meta(meta)

    def get_meta(self) -> dict[str, Any] | None:
        if self._meta_buffer is not None:
            return decode_meta(self._meta_buffer)
        return self.delegate.get_meta()

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Apply every buffered write to the delegate, then fsync it."""
        for key, value in self._buffer.items():
            if value is _TOMBSTONE:
                self.delegate.delete(key)
            else:
                self.delegate.put(key, decode_record(value))
        self._buffer.clear()
        if self._meta_buffer is not None:
            self.delegate.put_meta(decode_meta(self._meta_buffer))
            self._meta_buffer = None
        self.delegate.flush()
        self.flushes += 1

    def crash(self) -> None:
        """Drop everything not yet flushed — the power-loss event."""
        self.dropped_writes += self.pending_writes()
        self._buffer.clear()
        self._meta_buffer = None
        self.crashes += 1

    def pending_writes(self) -> int:
        """Buffered (volatile) record writes awaiting the next flush."""
        return len(self._buffer) + (1 if self._meta_buffer is not None else 0)

    def close(self) -> None:
        self.delegate.close()
