"""Shared building blocks for the log-based baseline protocols.

The paper's baselines replicate a *simple integer* (not a CRDT) through a
command log: "For Multi-Paxos and Raft, we used a simple replicated
integer as the counter."  :class:`IntCounter` is that integer;
:class:`StateMachine` is the generic interface so tests can replicate
richer machines too.

Client traffic uses one protocol-agnostic message family (``Rsm*``) so the
workload generator can drive Multi-Paxos, Raft and CRDT Paxos through the
same adapter seam.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any


class StateMachine(ABC):
    """A deterministic state machine replicated via a command log."""

    @abstractmethod
    def apply_update(self, command: Any) -> None:
        """Apply a state-modifying command (no return value)."""

    @abstractmethod
    def apply_query(self, command: Any) -> Any:
        """Evaluate a read-only command against the current state."""

    @abstractmethod
    def snapshot(self) -> Any:
        """Serializable copy of the full state (for log truncation)."""

    @abstractmethod
    def restore(self, snapshot: Any) -> None:
        """Replace the state with a snapshot."""


class IntCounter(StateMachine):
    """The replicated integer counter used in the paper's evaluation.

    Update commands: ``("incr", amount)``.  Query commands: ``("read",)``.
    """

    def __init__(self) -> None:
        self.value = 0

    def apply_update(self, command: Any) -> None:
        kind, amount = command
        if kind != "incr":
            raise ValueError(f"unknown update command: {command!r}")
        self.value += amount

    def apply_query(self, command: Any) -> Any:
        (kind,) = command
        if kind != "read":
            raise ValueError(f"unknown query command: {command!r}")
        return self.value

    def snapshot(self) -> Any:
        return self.value

    def restore(self, snapshot: Any) -> None:
        self.value = snapshot


# ----------------------------------------------------------------------
# Protocol-agnostic client messages
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class RsmUpdate:
    """Client-submitted update command."""

    request_id: str
    command: Any


@dataclass(frozen=True, slots=True)
class RsmQuery:
    """Client-submitted read command."""

    request_id: str
    command: Any


@dataclass(frozen=True, slots=True)
class RsmUpdateDone:
    """Update applied (committed and executed at the serving replica)."""

    request_id: str


@dataclass(frozen=True, slots=True)
class RsmQueryDone:
    """Read completed with its result.

    ``served_by`` names the answering replica, and ``via`` how the read
    was served (``"lease"``, ``"log"``, …) — diagnostics for experiments.
    """

    request_id: str
    result: Any
    served_by: str = ""
    via: str = ""


@dataclass(frozen=True, slots=True)
class Forwarded:
    """A client command relayed to the leader by a non-leader replica.

    Carries the original client address so the leader can reply directly.
    """

    client: str
    message: RsmUpdate | RsmQuery
