"""Two-phase set: add-once, remove-once, remove wins.

The payload is a pair of grow-only sets ``(added, removed)`` ordered
componentwise by inclusion.  An element is a member iff it has been added
and not removed; once removed it can never return (the tombstone persists).
This is the simplest set CRDT with removal, at the cost of tombstone
accumulation — the "state inflation" issue the paper's related-work section
points at garbage-collection research for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.crdt.base import QueryOp, StateCRDT, UpdateOp


@dataclass(frozen=True, slots=True)
class TwoPhaseSet(StateCRDT):
    """Immutable 2P-Set payload."""

    added: frozenset = frozenset()
    removed: frozenset = frozenset()

    @staticmethod
    def initial() -> "TwoPhaseSet":
        return TwoPhaseSet()

    def live_elements(self) -> frozenset:
        return self.added - self.removed

    def __contains__(self, element: Hashable) -> bool:
        return element in self.added and element not in self.removed

    def with_added(self, element: Hashable) -> "TwoPhaseSet":
        if element in self.added:
            return self
        return TwoPhaseSet(self.added | {element}, self.removed)

    def with_removed(self, element: Hashable) -> "TwoPhaseSet":
        """Tombstone an element.

        Removing an element that was never added is recorded as well: the
        tombstone then suppresses any concurrent or later add, keeping the
        remove-wins semantics deterministic.
        """
        if element in self.removed:
            return self
        return TwoPhaseSet(self.added, self.removed | {element})

    # ------------------------------------------------------------------
    def merge(self, other: "TwoPhaseSet") -> "TwoPhaseSet":
        if other is self:
            return self
        return TwoPhaseSet(self.added | other.added, self.removed | other.removed)

    def compare(self, other: "TwoPhaseSet") -> bool:
        if other is self:
            return True
        return self.added <= other.added and self.removed <= other.removed


class TwoPhaseAdd(UpdateOp):
    """Insert an element (ineffective if it was ever removed)."""

    __slots__ = ("element",)

    def __init__(self, element: Hashable) -> None:
        self.element = element

    def apply(self, state: TwoPhaseSet, replica_id: str) -> TwoPhaseSet:
        return state.with_added(self.element)

    def __repr__(self) -> str:
        return f"TwoPhaseAdd({self.element!r})"


class TwoPhaseRemove(UpdateOp):
    """Tombstone an element permanently."""

    __slots__ = ("element",)

    def __init__(self, element: Hashable) -> None:
        self.element = element

    def apply(self, state: TwoPhaseSet, replica_id: str) -> TwoPhaseSet:
        return state.with_removed(self.element)

    def __repr__(self) -> str:
        return f"TwoPhaseRemove({self.element!r})"


class TwoPhaseContains(QueryOp):
    """Membership test against the live (non-tombstoned) elements."""

    __slots__ = ("element",)

    def __init__(self, element: Hashable) -> None:
        self.element = element

    def apply(self, state: TwoPhaseSet) -> bool:
        return self.element in state

    def __repr__(self) -> str:
        return f"TwoPhaseContains({self.element!r})"


class TwoPhaseElements(QueryOp):
    """The live membership as a frozenset."""

    def apply(self, state: TwoPhaseSet) -> frozenset:
        return state.live_elements()

    def __repr__(self) -> str:
        return "TwoPhaseElements()"
