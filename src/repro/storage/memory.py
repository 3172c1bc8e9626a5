"""In-memory spill backend for tests and the adversarial explorer.

Byte-faithful on purpose: records and meta round-trip through the wire
codec (:func:`~repro.storage.base.encode_record`) on every write and
read even though a dict of live objects would do, so a value that cannot
survive encoding fails in the in-memory tests — not only once a file
backend is attached.  A rehydrated payload is the one a disk read would
give: a fresh object, or — for a payload large enough to travel as an
interned blob — the equal payload already resident in this process.
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


class InMemorySpillStore(SpillStore):
    """Dict of encoded records; shares the file backend's observability."""

    def __init__(self) -> None:
        self._records: dict[Hashable, bytes] = {}
        self._meta: bytes | None = None
        #: Observability (mirrors SegmentedSpillStore's counters).
        self.puts = 0
        self.gets = 0
        self.bytes_written = 0

    # ------------------------------------------------------------------
    def put(self, key: Hashable, record: SpillRecord) -> None:
        data = encode_record(record)
        self._records[key] = data
        self.puts += 1
        self.bytes_written += len(data)

    def get(self, key: Hashable) -> SpillRecord | None:
        data = self._records.get(key)
        if data is None:
            return None
        self.gets += 1
        return decode_record(data)

    def delete(self, key: Hashable) -> bool:
        return self._records.pop(key, None) is not None

    def keys(self) -> list[Hashable]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._records

    # ------------------------------------------------------------------
    def put_meta(self, meta: dict[str, Any]) -> None:
        self._meta = encode_meta(meta)

    def get_meta(self) -> dict[str, Any] | None:
        return decode_meta(self._meta) if self._meta is not None else None

    # ------------------------------------------------------------------
    def stored_bytes(self) -> int:
        """Total encoded record bytes currently held (RSS accounting)."""
        return sum(len(data) for data in self._records.values())
