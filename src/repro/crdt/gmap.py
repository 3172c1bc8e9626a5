"""Grow-only map of nested CRDTs, merged pointwise.

The composition pattern behind Riak-style CRDT maps: each key holds a
nested state-based CRDT, ``merge`` joins matching keys pointwise (the union
of key sets), and the payload order is the product order with absent keys
at the bottom.  Keys can never be removed — removal of nested entries is a
concern of the nested type (e.g. nest an :class:`~repro.crdt.orset.ORSet`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.crdt.base import QueryOp, StateCRDT, UpdateOp


@dataclass(frozen=True, slots=True)
class GMap(StateCRDT):
    """Immutable grow-only map payload: key → nested CRDT state."""

    entries: tuple[tuple[Hashable, StateCRDT], ...] = ()

    @staticmethod
    def initial() -> "GMap":
        return GMap()

    def as_dict(self) -> dict[Hashable, StateCRDT]:
        return dict(self.entries)

    def get(self, key: Hashable) -> StateCRDT | None:
        for candidate, value in self.entries:
            if candidate == key:
                return value
        return None

    def __contains__(self, key: Hashable) -> bool:
        return any(candidate == key for candidate, _ in self.entries)

    def keys(self) -> frozenset:
        return frozenset(key for key, _ in self.entries)

    def with_entry(self, key: Hashable, value: StateCRDT) -> "GMap":
        entries = self.as_dict()
        existing = entries.get(key)
        if existing is not None:
            joined = existing.join(value)
            if joined is existing:  # nested value already subsumed
                return self
            entries[key] = joined
            # Key set unchanged: the existing order is already sorted.
            return GMap(tuple((k, entries[k]) for k, _ in self.entries))
        entries[key] = value
        return GMap(tuple(sorted(entries.items(), key=lambda kv: repr(kv[0]))))

    # ------------------------------------------------------------------
    def merge(self, other: "GMap") -> "GMap":
        """Pointwise LUB with per-entry short-circuits.

        Nested values fold with :meth:`~repro.crdt.base.StateCRDT.join`,
        whose digest cache proves "already subsumed" in O(1) — so merging
        a map that changes nothing returns ``self`` untouched (no re-sort,
        no allocation), and a merge touching one entry re-sorts only when
        the key *set* grew (otherwise the existing order is reused).
        """
        if other is self:
            return self
        if not self.entries:
            return other
        if not other.entries:
            return self
        merged = self.as_dict()
        changed = False
        grew = False
        for key, value in other.entries:
            existing = merged.get(key)
            if existing is None:
                merged[key] = value
                changed = grew = True
            else:
                joined = existing.join(value)
                if joined is not existing:
                    merged[key] = joined
                    changed = True
        if not changed:
            return self
        if not grew:
            # Same key set: preserve the already-sorted entry order.
            return GMap(tuple((k, merged[k]) for k, _ in self.entries))
        return GMap(tuple(sorted(merged.items(), key=lambda kv: repr(kv[0]))))

    def compare(self, other: "GMap") -> bool:
        if other is self:
            return True
        theirs = other.as_dict()
        for key, value in self.entries:
            if key not in theirs or not value.compare(theirs[key]):
                return False
        return True


class GMapApply(UpdateOp):
    """Apply a nested update to the CRDT stored under ``key``.

    If the key is absent it is created from ``initial`` first, so the
    operation is deterministic wherever it is applied.
    """

    __slots__ = ("key", "initial", "update")

    def __init__(self, key: Hashable, initial: StateCRDT, update: UpdateOp) -> None:
        self.key = key
        self.initial = initial
        self.update = update

    def apply(self, state: GMap, replica_id: str) -> GMap:
        current = state.get(self.key)
        base = self.initial if current is None else current
        return state.with_entry(self.key, self.update.apply(base, replica_id))

    def delta(self, before: GMap, after: GMap, replica_id: str) -> GMap:
        # One entry: the nested update's own delta under ``key``.  Where
        # the key is new the whole nested value goes — it is all update,
        # and unlike the nested delta it includes ``initial``.
        nested = after.get(self.key)
        current = before.get(self.key)
        if current is not None:
            nested = self.update.delta(current, nested, replica_id)
        return GMap(((self.key, nested),))

    def __repr__(self) -> str:
        return f"GMapApply({self.key!r}, {self.update!r})"


class GMapGet(QueryOp):
    """Evaluate a nested query against the CRDT stored under ``key``.

    Returns None when the key is absent.
    """

    __slots__ = ("key", "query")

    def __init__(self, key: Hashable, query: QueryOp) -> None:
        self.key = key
        self.query = query

    def apply(self, state: GMap) -> object:
        nested = state.get(self.key)
        if nested is None:
            return None
        return self.query.apply(nested)

    def __repr__(self) -> str:
        return f"GMapGet({self.key!r}, {self.query!r})"
