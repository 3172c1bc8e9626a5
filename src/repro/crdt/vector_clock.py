"""Version vectors (vector clocks) — themselves a join semilattice.

Used by :class:`~repro.crdt.mvregister.MVRegister` to track causality of
concurrent writes, and independently useful as a CRDT of per-replica event
counters merged by pointwise maximum (structurally a G-Counter, but with
happened-before comparison semantics as the API focus).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.crdt.base import StateCRDT


@dataclass(frozen=True, slots=True)
class VectorClock(StateCRDT):
    """Immutable version vector: ``entries[replica] = events observed``."""

    entries: tuple[tuple[str, int], ...] = ()

    @classmethod
    def of(cls, mapping: Mapping[str, int]) -> "VectorClock":
        return cls(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[str, int]:
        return dict(self.entries)

    def get(self, replica_id: str) -> int:
        for replica, count in self.entries:
            if replica == replica_id:
                return count
        return 0

    def ticked(self, replica_id: str) -> "VectorClock":
        """Advance this replica's component by one."""
        entries = self.as_dict()
        entries[replica_id] = entries.get(replica_id, 0) + 1
        return VectorClock(tuple(sorted(entries.items())))

    # ------------------------------------------------------------------
    # Causality predicates
    # ------------------------------------------------------------------
    def dominates(self, other: "VectorClock") -> bool:
        """True iff ``other ⊑ self`` (self has seen everything other has)."""
        return other.compare(self)

    def concurrent_with(self, other: "VectorClock") -> bool:
        """True iff neither clock dominates the other."""
        return not self.compare(other) and not other.compare(self)

    # ------------------------------------------------------------------
    # Lattice interface
    # ------------------------------------------------------------------
    def merge(self, other: "VectorClock") -> "VectorClock":
        if other is self:
            return self
        merged = self.as_dict()
        for replica, count in other.entries:
            if count > merged.get(replica, 0):
                merged[replica] = count
        return VectorClock(tuple(sorted(merged.items())))

    def compare(self, other: "VectorClock") -> bool:
        if other is self:
            return True
        theirs = other.as_dict()
        return all(count <= theirs.get(replica, 0) for replica, count in self.entries)
