"""Multi-value register.

Unlike the LWW register, concurrent writes are *preserved*: the payload is
an antichain of ``(value, version vector)`` entries, and a read returns all
values whose version vectors are maximal.  A write observes every current
entry (its vector is the join of theirs, ticked at the writing replica) and
therefore supersedes them, collapsing the antichain to one entry until the
next concurrency.

Lattice structure: antichains of the version-vector poset under the Hoare
order — ``a ⊑ b`` iff every entry of ``a`` is dominated by (or equal to)
some entry of ``b``; the join is the set of maximal elements of the union.
Uniqueness of version vectors per write (each write ticks its replica's
slot) keeps the order antisymmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.crdt.base import QueryOp, StateCRDT, UpdateOp
from repro.crdt.vector_clock import VectorClock

Entry = tuple[Any, VectorClock]


def _maximal_entries(entries: frozenset) -> frozenset:
    """Drop entries whose version vector is strictly dominated by another."""
    kept = []
    for value, clock in entries:
        dominated = any(
            clock.compare(other_clock) and not other_clock.compare(clock)
            for other_value, other_clock in entries
            if (other_value, other_clock) != (value, clock)
        )
        if not dominated:
            kept.append((value, clock))
    return frozenset(kept)


@dataclass(frozen=True, slots=True)
class MVRegister(StateCRDT):
    """Immutable MV-Register payload: an antichain of stamped values."""

    entries: frozenset = frozenset()

    @staticmethod
    def initial() -> "MVRegister":
        return MVRegister()

    def values(self) -> frozenset:
        """All concurrently-written current values."""
        return frozenset(value for value, _ in self.entries)

    def written(self, value: Any, replica_id: str) -> "MVRegister":
        observed = VectorClock()
        for _, clock in self.entries:
            observed = observed.merge(clock)
        return MVRegister(frozenset({(value, observed.ticked(replica_id))}))

    # ------------------------------------------------------------------
    def merge(self, other: "MVRegister") -> "MVRegister":
        if other is self:
            return self
        return MVRegister(_maximal_entries(self.entries | other.entries))

    def compare(self, other: "MVRegister") -> bool:
        if other is self:
            return True
        return all(
            any(clock.compare(other_clock) for _, other_clock in other.entries)
            for _, clock in self.entries
        )


class MVWrite(UpdateOp):
    """Write a value, superseding every currently observed entry."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def apply(self, state: MVRegister, replica_id: str) -> MVRegister:
        return state.written(self.value, replica_id)

    def __repr__(self) -> str:
        return f"MVWrite({self.value!r})"


class MVValues(QueryOp):
    """Read all concurrent values (a frozenset; empty if never written)."""

    def apply(self, state: MVRegister) -> frozenset:
        return state.values()

    def __repr__(self) -> str:
        return "MVValues()"
