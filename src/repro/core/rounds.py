"""Rounds — the protocol's only coordination metadata.

A round is a pair ``(number, id)`` (§3.2 conventions).  Numbers order
concurrent requests; ids make every request's round unique.  Rounds are
totally ordered lexicographically: first by number, then by id.

Three id namespaces exist, encoded as comparable integer triples:

* ``BOTTOM_ID`` — the id of the initial acceptor round ``(0, ⊥)``; it can
  never be generated by a proposer.
* ``WRITE_ID``  — the reserved marker an acceptor installs as its round id
  whenever its payload is modified by an update (``r_id ← write`` in
  Algorithm 2, lines 30/34).  This is the mechanism that invalidates
  in-flight votes and yields Update Stability: a VOTE only succeeds if the
  acceptor's round is *exactly* the prepared round, and any interleaved
  update has changed the id.
* proposer-generated ids — ``(counter, proposer index)`` pairs, unique
  because each proposer increments its own counter.

An *incremental* prepare leaves the round number undefined (``⊥``,
represented by :data:`INCREMENTAL_NUMBER`); each acceptor substitutes its
own ``current number + 1``, so such a prepare is always accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

RoundId = tuple[int, int, int]

_KIND_BOTTOM = 0
_KIND_WRITE = 1
_KIND_PROPOSER = 2

#: Id of the initial round; not generable by proposers.
BOTTOM_ID: RoundId = (_KIND_BOTTOM, 0, 0)

#: Reserved id installed by updates (the ``write`` marker).
WRITE_ID: RoundId = (_KIND_WRITE, 0, 0)

#: Round number standing for ``⊥`` in an incremental prepare.
INCREMENTAL_NUMBER = -1


def proposer_id(counter: int, proposer_index: int) -> RoundId:
    """Build a unique proposer-generated round id."""
    return (_KIND_PROPOSER, counter, proposer_index)


@dataclass(frozen=True, order=True, slots=True)
class Round:
    """A totally ordered round ``(number, id)``."""

    number: int
    rid: RoundId

    @staticmethod
    def initial() -> "Round":
        """The acceptor's starting round ``(0, ⊥)`` (a shared singleton —
        every fresh acceptor starts here, and a keyed store creates one
        acceptor per key)."""
        return _INITIAL_ROUND

    @staticmethod
    def incremental(rid: RoundId) -> "Round":
        """A prepare round with undefined (``⊥``) number."""
        return Round(INCREMENTAL_NUMBER, rid)

    @property
    def is_incremental(self) -> bool:
        return self.number == INCREMENTAL_NUMBER

    def with_write_id(self) -> "Round":
        """The round after a local payload modification (``r_id ← write``)."""
        return Round(self.number, WRITE_ID)

    def concretized(self, acceptor_number: int) -> "Round":
        """Resolve an incremental round at an acceptor (line 39)."""
        return Round(acceptor_number + 1, self.rid)

    def __repr__(self) -> str:
        number = "⊥" if self.is_incremental else str(self.number)
        return f"Round({number}, {self.rid})"


_INITIAL_ROUND = Round(0, BOTTOM_ID)


class RoundIdGenerator:
    """Per-proposer source of unique round ids."""

    def __init__(self, proposer_index: int) -> None:
        self._proposer_index = proposer_index
        self._counter = 0

    def fresh(self) -> RoundId:
        self._counter += 1
        return proposer_id(self._counter, self._proposer_index)

    @property
    def counter(self) -> int:
        """Highest counter issued so far (persisted across restarts)."""
        return self._counter

    def restore(self, counter: int) -> None:
        """Fast-forward past ids issued by a previous process generation.

        A restarted node must never regenerate a round id that may still
        be in flight from before the restart — reusing one could let a
        stale PREPARE's round collide with a fresh attempt's.  Restoring
        only ever moves the counter forward.
        """
        self._counter = max(self._counter, counter)
