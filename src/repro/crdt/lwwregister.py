"""Last-writer-wins register.

Every write carries a totally ordered stamp ``(timestamp, replica sequence,
replica id)``; ``merge`` keeps the entry with the larger stamp.  Total
order of stamps makes the payload set a chain-structured semilattice.

The replica-sequence component breaks ties between writes that carry the
same client timestamp and are applied at the same replica — without it two
such writes with different values would violate the lattice laws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.crdt.base import QueryOp, StateCRDT, UpdateOp

#: Stamp of the initial (never written) register: below every real write.
_INITIAL_STAMP: tuple[float, int, str] = (float("-inf"), 0, "")


@dataclass(frozen=True, slots=True)
class LWWRegister(StateCRDT):
    """Immutable LWW-Register payload."""

    value: Any = None
    stamp: tuple[float, int, str] = _INITIAL_STAMP

    @staticmethod
    def initial() -> "LWWRegister":
        return LWWRegister()

    def written(
        self, value: Any, timestamp: float, replica_id: str
    ) -> "LWWRegister":
        sequence = self.stamp[1] + 1
        new_stamp = (timestamp, sequence, replica_id)
        if new_stamp <= self.stamp:
            # Late write with an older stamp loses; state is unchanged,
            # which keeps the update inflationary.
            return self
        return LWWRegister(value, new_stamp)

    # ------------------------------------------------------------------
    def merge(self, other: "LWWRegister") -> "LWWRegister":
        if other is self:
            return self
        return self if self.stamp >= other.stamp else other

    def compare(self, other: "LWWRegister") -> bool:
        if other is self:
            return True
        return self.stamp <= other.stamp


class LWWSet(UpdateOp):
    """Write a value with a caller-provided timestamp."""

    __slots__ = ("value", "timestamp")

    def __init__(self, value: Any, timestamp: float) -> None:
        self.value = value
        self.timestamp = timestamp

    def apply(self, state: LWWRegister, replica_id: str) -> LWWRegister:
        return state.written(self.value, self.timestamp, replica_id)

    def __repr__(self) -> str:
        return f"LWWSet({self.value!r}, ts={self.timestamp})"


class LWWValue(QueryOp):
    """Read the register's current value (None if never written)."""

    def apply(self, state: LWWRegister) -> Any:
        return state.value

    def __repr__(self) -> str:
        return "LWWValue()"
