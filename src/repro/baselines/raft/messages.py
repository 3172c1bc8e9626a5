"""Raft RPCs, modelled as one-way messages (reply is a separate send)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.baselines.raft.log import LogEntry


@dataclass(frozen=True, slots=True)
class RequestVote:
    term: int
    candidate: str
    last_log_index: int
    last_log_term: int


@dataclass(frozen=True, slots=True)
class RequestVoteReply:
    term: int
    granted: bool


@dataclass(frozen=True, slots=True)
class AppendEntries:
    term: int
    leader: str
    prev_log_index: int
    prev_log_term: int
    entries: tuple[LogEntry, ...]
    leader_commit: int
    #: Per-peer RPC sequence number, echoed by the reply.  The leader only
    #: acts on the reply to its *latest* RPC; without this, a heartbeat
    #: retransmission racing a pipelined append would spawn a duplicate
    #: self-perpetuating reply stream and melt the leader.
    seq: int = 0


@dataclass(frozen=True, slots=True)
class AppendEntriesReply:
    term: int
    success: bool
    #: On success: highest index known replicated.  On failure: the
    #: follower's last log index, used as a back-off hint.
    match_index: int
    seq: int = 0


@dataclass(frozen=True, slots=True)
class InstallSnapshot:
    term: int
    leader: str
    last_included_index: int
    last_included_term: int
    snapshot: Any
    seq: int = 0


@dataclass(frozen=True, slots=True)
class InstallSnapshotReply:
    term: int
    last_included_index: int
    seq: int = 0
