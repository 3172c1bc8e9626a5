"""Increment/decrement counter built from two G-Counters.

The classic PN-Counter: one grow-only counter ``p`` accumulates increments,
a second one ``n`` accumulates decrements; the value is ``p − n``.  The
product of two semilattices ordered componentwise is again a semilattice,
so all CRDT laws are inherited from :class:`~repro.crdt.gcounter.GCounter`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crdt.base import QueryOp, StateCRDT, UpdateOp
from repro.crdt.gcounter import GCounter


@dataclass(frozen=True, slots=True)
class PNCounter(StateCRDT):
    """Immutable PN-Counter payload: a pair of G-Counters."""

    positive: GCounter = GCounter()
    negative: GCounter = GCounter()

    @staticmethod
    def initial() -> "PNCounter":
        return PNCounter()

    def value(self) -> int:
        return self.positive.value() - self.negative.value()

    def incremented(self, replica_id: str, amount: int = 1) -> "PNCounter":
        return PNCounter(self.positive.incremented(replica_id, amount), self.negative)

    def decremented(self, replica_id: str, amount: int = 1) -> "PNCounter":
        return PNCounter(self.positive, self.negative.incremented(replica_id, amount))

    # ------------------------------------------------------------------
    def merge(self, other: "PNCounter") -> "PNCounter":
        if other is self:
            return self
        return PNCounter(
            self.positive.merge(other.positive),
            self.negative.merge(other.negative),
        )

    def compare(self, other: "PNCounter") -> bool:
        if other is self:
            return True
        return self.positive.compare(other.positive) and self.negative.compare(
            other.negative
        )


class PNIncrement(UpdateOp):
    """Add ``amount`` to the counter."""

    __slots__ = ("amount",)

    def __init__(self, amount: int = 1) -> None:
        if amount <= 0:
            raise ValueError(f"increment must be positive, got {amount}")
        self.amount = amount

    def apply(self, state: PNCounter, replica_id: str) -> PNCounter:
        return state.incremented(replica_id, self.amount)

    def delta(self, before: PNCounter, after: PNCounter, replica_id: str) -> PNCounter:
        return PNCounter(
            GCounter(((replica_id, after.positive.slot(replica_id)),)),
            GCounter(),
        )

    def __repr__(self) -> str:
        return f"PNIncrement({self.amount})"


class Decrement(UpdateOp):
    """Subtract ``amount`` from the counter."""

    __slots__ = ("amount",)

    def __init__(self, amount: int = 1) -> None:
        if amount <= 0:
            raise ValueError(f"decrement must be positive, got {amount}")
        self.amount = amount

    def apply(self, state: PNCounter, replica_id: str) -> PNCounter:
        return state.decremented(replica_id, self.amount)

    def delta(self, before: PNCounter, after: PNCounter, replica_id: str) -> PNCounter:
        return PNCounter(
            GCounter(),
            GCounter(((replica_id, after.negative.slot(replica_id)),)),
        )

    def __repr__(self) -> str:
        return f"Decrement({self.amount})"


class PNCounterValue(QueryOp):
    """The counter's value: total increments minus total decrements."""

    def apply(self, state: PNCounter) -> int:
        return state.value()

    def __repr__(self) -> str:
        return "PNCounterValue()"
