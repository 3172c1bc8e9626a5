"""Multi-Paxos wire messages.

Ballots are ``(counter, node index)`` pairs, totally ordered; slots are
1-indexed log positions.  Commit knowledge piggybacks on Phase 2 and
heartbeat traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


Ballot = tuple[int, int]


@dataclass(frozen=True, slots=True)
class PaxEntry:
    """A log-slot value: an update command or a no-op gap filler."""

    kind: str  # "update" | "read" | "noop"
    command: Any = None
    client: str = ""
    request_id: str = ""


@dataclass(frozen=True, slots=True)
class Phase1a:
    """Leadership bid: promise me everything from ``from_slot`` on."""

    ballot: Ballot
    from_slot: int


@dataclass(frozen=True, slots=True)
class Phase1b:
    """Promise (or refusal) with the acceptor's accepted tail.

    ``accepted`` maps slot → (ballot, entry) for slots ≥ the requested
    ``from_slot``.  If part of that range is already compacted here,
    ``snapshot`` carries the machine state at ``snapshot_slot`` so the new
    leader can catch up.
    """

    ballot: Ballot
    granted: bool
    accepted: tuple[tuple[int, Ballot, PaxEntry], ...] = ()
    commit_index: int = 0
    snapshot_slot: int = 0
    snapshot: Any = None


@dataclass(frozen=True, slots=True)
class Phase2a:
    """Propose ``entry`` for ``slot`` under ``ballot``."""

    ballot: Ballot
    slot: int
    entry: PaxEntry
    commit_index: int


@dataclass(frozen=True, slots=True)
class Phase2b:
    """Acceptance of one slot (or a refusal carrying the higher ballot)."""

    ballot: Ballot
    slot: int
    accepted: bool


@dataclass(frozen=True, slots=True)
class Heartbeat:
    """Leader liveness + lease renewal + commit dissemination."""

    ballot: Ballot
    commit_index: int


@dataclass(frozen=True, slots=True)
class HeartbeatAck:
    ballot: Ballot
    #: The follower's applied frontier, so the leader can detect laggards.
    applied_index: int


@dataclass(frozen=True, slots=True)
class CatchupRequest:
    """A follower asks the leader for slots it is missing."""

    from_slot: int


@dataclass(frozen=True, slots=True)
class CatchupReply:
    """Entries (or a snapshot) repairing a follower's gap."""

    entries: tuple[tuple[int, Ballot, PaxEntry], ...]
    commit_index: int
    snapshot_slot: int = 0
    snapshot: Any = None
