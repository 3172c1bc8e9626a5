"""Largest-value-wins register.

The simplest non-trivial join semilattice: totally ordered values under
``max``.  Useful on its own (high-water marks, epoch numbers) and as the
smallest fixture for property-based tests of the replication protocols.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crdt.base import QueryOp, StateCRDT, UpdateOp


@dataclass(frozen=True, slots=True)
class MaxRegister(StateCRDT):
    """Immutable max-register payload."""

    value: int = 0

    @staticmethod
    def initial() -> "MaxRegister":
        return MaxRegister()

    def merge(self, other: "MaxRegister") -> "MaxRegister":
        if other is self:
            return self
        return self if self.value >= other.value else other

    def compare(self, other: "MaxRegister") -> bool:
        if other is self:
            return True
        return self.value <= other.value


class MaxSet(UpdateOp):
    """Raise the register to at least ``value`` (no-op if already higher)."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def apply(self, state: MaxRegister, replica_id: str) -> MaxRegister:
        return state if state.value >= self.value else MaxRegister(self.value)

    def __repr__(self) -> str:
        return f"MaxSet({self.value})"


class MaxValue(QueryOp):
    """Read the current maximum."""

    def apply(self, state: MaxRegister) -> int:
        return state.value

    def __repr__(self) -> str:
        return "MaxValue()"
