"""Observed-remove set (OR-Set) with add-wins semantics.

Every add is tagged with a unique ``(replica, sequence)`` pair; a remove
tombstones exactly the tags it has *observed* for the element.  An add that
is concurrent with a remove therefore survives (its tag was not observed),
which gives the intuitive "add wins" behaviour that made OR-Sets the
workhorse of systems like Riak.

Payload order: ``(entries, tombstones)`` pairs ordered componentwise by set
inclusion, so ``merge`` is the pairwise union — a join semilattice.

Tag uniqueness without external coordination: update functions execute
serially at one replica (the protocols apply them at the proposer's local
acceptor), so the next sequence number for replica ``r`` can be derived
deterministically from the payload itself — one more than the largest
sequence ``r`` has ever used in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.crdt.base import QueryOp, StateCRDT, UpdateOp

Tag = tuple[str, int]


@dataclass(frozen=True, slots=True)
class ORSet(StateCRDT):
    """Immutable OR-Set payload.

    ``entries`` holds ``(element, tag)`` pairs; ``tombstones`` holds tags
    whose adds have been removed.  Tombstoned pairs are *kept* in
    ``entries`` — dropping them would make payloads incomparable across
    replicas and break the lattice order.
    """

    entries: frozenset = frozenset()
    tombstones: frozenset = frozenset()

    @staticmethod
    def initial() -> "ORSet":
        return ORSet()

    # ------------------------------------------------------------------
    def live_tags(self, element: Hashable) -> frozenset:
        return frozenset(
            tag
            for (candidate, tag) in self.entries
            if candidate == element and tag not in self.tombstones
        )

    def live_elements(self) -> frozenset:
        return frozenset(
            element
            for (element, tag) in self.entries
            if tag not in self.tombstones
        )

    def __contains__(self, element: Hashable) -> bool:
        return any(
            candidate == element and tag not in self.tombstones
            for (candidate, tag) in self.entries
        )

    def next_sequence(self, replica_id: str) -> int:
        highest = 0
        for _, (replica, seq) in self.entries:
            if replica == replica_id and seq > highest:
                highest = seq
        for replica, seq in self.tombstones:
            if replica == replica_id and seq > highest:
                highest = seq
        return highest + 1

    def with_add(self, element: Hashable, replica_id: str) -> "ORSet":
        tag: Tag = (replica_id, self.next_sequence(replica_id))
        return ORSet(self.entries | {(element, tag)}, self.tombstones)

    def with_remove(self, element: Hashable) -> "ORSet":
        observed = self.live_tags(element)
        if not observed:
            return self
        return ORSet(self.entries, self.tombstones | observed)

    # ------------------------------------------------------------------
    def merge(self, other: "ORSet") -> "ORSet":
        if other is self:
            return self
        return ORSet(
            self.entries | other.entries,
            self.tombstones | other.tombstones,
        )

    def compare(self, other: "ORSet") -> bool:
        if other is self:
            return True
        return (
            self.entries <= other.entries
            and self.tombstones <= other.tombstones
        )


class ORSetAdd(UpdateOp):
    """Add an element under a fresh unique tag."""

    __slots__ = ("element",)

    def __init__(self, element: Hashable) -> None:
        self.element = element

    def apply(self, state: ORSet, replica_id: str) -> ORSet:
        return state.with_add(self.element, replica_id)

    def delta(self, before: ORSet, after: ORSet, replica_id: str) -> ORSet:
        return ORSet(after.entries - before.entries, frozenset())

    def __repr__(self) -> str:
        return f"ORSetAdd({self.element!r})"


class ORSetRemove(UpdateOp):
    """Remove an element by tombstoning all tags observed *in the state the
    update is applied to* — unobserved concurrent adds survive."""

    __slots__ = ("element",)

    def __init__(self, element: Hashable) -> None:
        self.element = element

    def apply(self, state: ORSet, replica_id: str) -> ORSet:
        return state.with_remove(self.element)

    def delta(self, before: ORSet, after: ORSet, replica_id: str) -> ORSet:
        # Tombstones alone reproduce the removal when merged anywhere; a
        # receiver lacking the tagged entries just records them early.
        return ORSet(frozenset(), after.tombstones - before.tombstones)

    def __repr__(self) -> str:
        return f"ORSetRemove({self.element!r})"


class ORSetContains(QueryOp):
    """Membership test."""

    __slots__ = ("element",)

    def __init__(self, element: Hashable) -> None:
        self.element = element

    def apply(self, state: ORSet) -> bool:
        return self.element in state

    def __repr__(self) -> str:
        return f"ORSetContains({self.element!r})"


class ORSetElements(QueryOp):
    """The live membership as a frozenset."""

    def apply(self, state: ORSet) -> frozenset:
        return state.live_elements()

    def __repr__(self) -> str:
        return "ORSetElements()"
