"""Last-writer-wins map with tombstoned removal.

Each key independently behaves like an LWW register whose stamps are
``(timestamp, sequence, replica)`` triples; a removal is a tombstone write
under the same stamp discipline, so adds and removes of one key resolve by
recency while distinct keys never interact.  The payload order is the
product order over keys, with an absent key at the bottom of its component.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Hashable

from repro.crdt.base import QueryOp, StateCRDT, UpdateOp
from repro.net.message import wire_size as _wire_size

Stamp = tuple[float, int, str]
Entry = tuple[Hashable, tuple[Any, Stamp]]

_INITIAL_STAMP: Stamp = (float("-inf"), 0, "")

#: Sentinel stored as the value of a removed key.
TOMBSTONE = "\x00__tombstone__"


def _sort_key(entry: Entry) -> str:
    return repr(entry[0])


@dataclass(frozen=True, slots=True)
class LWWMap(StateCRDT):
    """Immutable LWW-Map payload.

    ``entries`` maps key → ``(value, stamp)``, sorted by ``repr(key)``; a
    value equal to :data:`TOMBSTONE` marks a removed key.  The sort is an
    invariant every constructor call in this module maintains, so a
    write or a join keeps it by replacing or inserting the entries that
    changed rather than by sorting the map again.
    """

    entries: tuple[Entry, ...] = ()

    @staticmethod
    def initial() -> "LWWMap":
        return LWWMap()

    # ------------------------------------------------------------------
    def _positions(self) -> dict[Hashable, int]:
        """key → index into ``entries``, built on first use.  A map
        derived by replacing entries has the same keys in the same
        places and is handed this very dict (see :meth:`_updated`)."""
        positions = self.__dict__.get("_crdt_positions")
        if positions is None:
            positions = {key: i for i, (key, _) in enumerate(self.entries)}
            object.__setattr__(self, "_crdt_positions", positions)
        return positions

    def _entry(self, key: Hashable) -> tuple[Any, Stamp] | None:
        position = self._positions().get(key)
        return None if position is None else self.entries[position][1]

    def get(self, key: Hashable) -> Any:
        """Current value for ``key`` or None if absent/removed."""
        entry = self._entry(key)
        if entry is None or entry[0] == TOMBSTONE:
            return None
        return entry[0]

    def __contains__(self, key: Hashable) -> bool:
        entry = self._entry(key)
        return entry is not None and entry[0] != TOMBSTONE

    def live_keys(self) -> frozenset:
        return frozenset(
            key for key, (value, _) in self.entries if value != TOMBSTONE
        )

    def _stamp_of(self, key: Hashable) -> Stamp:
        entry = self._entry(key)
        return _INITIAL_STAMP if entry is None else entry[1]

    def _updated(self, incoming: tuple[Entry, ...]) -> "LWWMap":
        """This map with every ``incoming`` entry that beats (or adds to)
        what it holds; ``self`` if none does.  Costs a pass over
        ``incoming`` and one copy of ``entries``."""
        positions = self._positions()
        entries: list[Entry] | None = None
        added: list[Entry] = []
        for entry in incoming:
            position = positions.get(entry[0])
            if position is None:
                added.append(entry)
            elif self.entries[position][1][1] < entry[1][1]:
                if entries is None:
                    entries = list(self.entries)
                entries[position] = entry
        if not added:
            if entries is None:
                return self
            updated = LWWMap(tuple(entries))
            object.__setattr__(updated, "_crdt_positions", positions)
            return updated
        if entries is None:
            entries = list(self.entries)
        for entry in added:
            rank = _sort_key(entry)
            entries.insert(bisect_left(entries, rank, key=_sort_key), entry)
        return LWWMap(tuple(entries))

    def with_write(
        self, key: Hashable, value: Any, timestamp: float, replica_id: str
    ) -> "LWWMap":
        current = self._stamp_of(key)
        new_stamp: Stamp = (timestamp, current[1] + 1, replica_id)
        if new_stamp <= current:
            return self
        return self._updated(((key, (value, new_stamp)),))

    def entry_delta(self, key: Hashable) -> "LWWMap":
        """The one-entry map holding this map's entry for ``key`` (the
        bottom map if it has none): the delta of any write to ``key``."""
        entry = self._entry(key)
        return LWWMap() if entry is None else LWWMap(((key, entry),))

    # ------------------------------------------------------------------
    def merge(self, other: "LWWMap") -> "LWWMap":
        if other is self:
            return self
        # Fold the shorter side into the longer: a one-entry delta joins
        # a 128-entry state in one probe and one tuple copy.
        if len(other.entries) > len(self.entries):
            return other._updated(self.entries)
        return self._updated(other.entries)

    def compare(self, other: "LWWMap") -> bool:
        if other is self:
            return True
        if len(self.entries) > len(other.entries):
            return False
        positions = other._positions()
        theirs = other.entries
        for key, (_, stamp) in self.entries:
            position = positions.get(key)
            if position is None or theirs[position][1][1] < stamp:
                return False
        return True

    def wire_size(self) -> int:
        return 8 + sum(
            _wire_size(key) + _wire_size(value) + 24
            for key, (value, _) in self.entries
        )


class LWWMapPut(UpdateOp):
    """Write ``key = value`` with a caller-provided timestamp."""

    __slots__ = ("key", "value", "timestamp")

    def __init__(self, key: Hashable, value: Any, timestamp: float) -> None:
        if value == TOMBSTONE:
            raise ValueError("cannot store the tombstone sentinel as a value")
        self.key = key
        self.value = value
        self.timestamp = timestamp

    def apply(self, state: LWWMap, replica_id: str) -> LWWMap:
        return state.with_write(self.key, self.value, self.timestamp, replica_id)

    def delta(self, before: LWWMap, after: LWWMap, replica_id: str) -> LWWMap:
        # Keys never interact, so the written entry alone reproduces the
        # put wherever it is merged; after a stale put (``after`` is
        # ``before``) it is the entry that beat it, which changes nothing.
        return after.entry_delta(self.key)

    def wire_size(self) -> int:
        return 16 + _wire_size(self.key) + _wire_size(self.value)

    def __repr__(self) -> str:
        return f"LWWMapPut({self.key!r}, {self.value!r}, ts={self.timestamp})"


class LWWMapRemove(UpdateOp):
    """Remove ``key`` (a tombstone write; later puts can resurrect it)."""

    __slots__ = ("key", "timestamp")

    def __init__(self, key: Hashable, timestamp: float) -> None:
        self.key = key
        self.timestamp = timestamp

    def apply(self, state: LWWMap, replica_id: str) -> LWWMap:
        return state.with_write(self.key, TOMBSTONE, self.timestamp, replica_id)

    def delta(self, before: LWWMap, after: LWWMap, replica_id: str) -> LWWMap:
        return after.entry_delta(self.key)  # the tombstone entry; see LWWMapPut

    def wire_size(self) -> int:
        return 16 + _wire_size(self.key)

    def __repr__(self) -> str:
        return f"LWWMapRemove({self.key!r}, ts={self.timestamp})"


class LWWMapGet(QueryOp):
    """Read one key's value (None if absent or removed)."""

    __slots__ = ("key",)

    def __init__(self, key: Hashable) -> None:
        self.key = key

    def apply(self, state: LWWMap) -> Any:
        return state.get(self.key)

    def __repr__(self) -> str:
        return f"LWWMapGet({self.key!r})"


class LWWMapKeys(QueryOp):
    """All live (non-removed) keys."""

    def apply(self, state: LWWMap) -> frozenset:
        return state.live_keys()

    def __repr__(self) -> str:
        return "LWWMapKeys()"
