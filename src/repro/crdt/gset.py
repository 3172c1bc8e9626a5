"""Grow-only set.

Payloads are finite sets ordered by inclusion; ``merge`` is set union.
Elements must be hashable and encodable by the wire codec
(:mod:`repro.wire`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from repro.crdt.base import QueryOp, StateCRDT, UpdateOp


@dataclass(frozen=True, slots=True)
class GSet(StateCRDT):
    """Immutable grow-only set payload."""

    elements: frozenset = frozenset()

    @staticmethod
    def initial() -> "GSet":
        return GSet()

    @classmethod
    def of(cls, *elements: Hashable) -> "GSet":
        return cls(frozenset(elements))

    def added(self, element: Hashable) -> "GSet":
        if element in self.elements:
            return self
        return GSet(self.elements | {element})

    def __contains__(self, element: Hashable) -> bool:
        return element in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    # ------------------------------------------------------------------
    def merge(self, other: "GSet") -> "GSet":
        if other is self:
            return self
        return GSet(self.elements | other.elements)

    def compare(self, other: "GSet") -> bool:
        if other is self:
            return True
        return self.elements <= other.elements


class GSetAdd(UpdateOp):
    """Insert an element (idempotent)."""

    __slots__ = ("element",)

    def __init__(self, element: Hashable) -> None:
        self.element = element

    def apply(self, state: GSet, replica_id: str) -> GSet:
        return state.added(self.element)

    def delta(self, before: GSet, after: GSet, replica_id: str) -> GSet:
        return GSet(frozenset({self.element}))

    def __repr__(self) -> str:
        return f"GSetAdd({self.element!r})"


class Contains(QueryOp):
    """Membership test."""

    __slots__ = ("element",)

    def __init__(self, element: Hashable) -> None:
        self.element = element

    def apply(self, state: GSet) -> bool:
        return self.element in state

    def __repr__(self) -> str:
        return f"Contains({self.element!r})"


class Elements(QueryOp):
    """The full membership as a frozenset."""

    def apply(self, state: GSet) -> frozenset:
        return state.elements

    def __repr__(self) -> str:
        return "Elements()"
