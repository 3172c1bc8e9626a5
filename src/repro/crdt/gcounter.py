"""Grow-only counter — Algorithm 1 of the paper.

The payload maps replica ids to per-replica increment totals.  ``merge``
takes the pointwise maximum, ``compare`` is pointwise ``≤`` (absent slots
count as zero), and the counter's value is the sum of all slots.  Each
replica only ever raises its own slot, so no increment can be lost.

The paper uses this exact data type (replicated on three nodes) for every
benchmark; it is also the type for which the correctness checker can verify
*inclusion* of individual updates precisely, because the k-th increment
applied at replica ``r`` is included in a state iff slot ``r`` is ≥ k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.crdt.base import QueryOp, StateCRDT, UpdateOp


@dataclass(frozen=True, slots=True)
class GCounter(StateCRDT):
    """Immutable G-Counter payload: ``entries[replica] = local total``."""

    entries: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def initial() -> "GCounter":
        """The bottom element — a shared singleton.  Payloads are
        immutable, and a keyed store creates one bottom per key; sharing
        it makes cold keys cost zero payload bytes until they diverge."""
        return _BOTTOM

    @classmethod
    def of(cls, mapping: Mapping[str, int]) -> "GCounter":
        for replica, count in mapping.items():
            if count < 0:
                raise ValueError(f"negative slot for {replica}: {count}")
        return cls(tuple(sorted(mapping.items())))

    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, int]:
        return dict(self.entries)

    def slot(self, replica_id: str) -> int:
        for replica, count in self.entries:
            if replica == replica_id:
                return count
        return 0

    def value(self) -> int:
        return sum(count for _, count in self.entries)

    def incremented(self, replica_id: str, amount: int = 1) -> "GCounter":
        if amount <= 0:
            raise ValueError(f"increment must be positive, got {amount}")
        entries = self.as_dict()
        entries[replica_id] = entries.get(replica_id, 0) + amount
        return GCounter(tuple(sorted(entries.items())))

    # ------------------------------------------------------------------
    # Lattice interface
    # ------------------------------------------------------------------
    def merge(self, other: "GCounter") -> "GCounter":
        if other is self:
            return self
        merged = self.as_dict()
        for replica, count in other.entries:
            if count > merged.get(replica, 0):
                merged[replica] = count
        return GCounter(tuple(sorted(merged.items())))

    def compare(self, other: "GCounter") -> bool:
        if other is self:
            return True
        theirs = other.as_dict()
        return all(count <= theirs.get(replica, 0) for replica, count in self.entries)


#: Shared bottom element returned by :meth:`GCounter.initial`.
_BOTTOM = GCounter()


class Increment(UpdateOp):
    """``update()`` of Algorithm 1: raise the applying replica's slot."""

    __slots__ = ("amount",)

    def __init__(self, amount: int = 1) -> None:
        if amount <= 0:
            raise ValueError(f"increment must be positive, got {amount}")
        self.amount = amount

    def apply(self, state: GCounter, replica_id: str) -> GCounter:
        return state.incremented(replica_id, self.amount)

    def delta(self, before: GCounter, after: GCounter, replica_id: str) -> GCounter:
        # A single slot suffices: slot values are per-replica monotone, so
        # merging ``{replica: new total}`` reproduces the increment anywhere.
        return GCounter(((replica_id, after.slot(replica_id)),))

    def __repr__(self) -> str:
        return f"Increment({self.amount})"


class GCounterValue(QueryOp):
    """``query()`` of Algorithm 1: the sum of all slots."""

    def apply(self, state: GCounter) -> int:
        return state.value()

    def __repr__(self) -> str:
        return "GCounterValue()"
