"""The Raft command log with snapshot-based compaction.

Entries are 1-indexed as in the Raft paper.  After compaction the list
holds only entries with index > ``base_index``; ``base_index`` /
``base_term`` describe the snapshot boundary.  This is exactly the
auxiliary state CRDT Paxos exists to avoid — kept here in full so the
baseline is honest about its costs (the benchmarks report log sizes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One replicated command.

    ``kind`` is ``"update"``, ``"read"`` (the ra-style read-through-log) or
    ``"noop"`` (appended by a fresh leader to learn the commit frontier).
    ``client`` / ``request_id`` route the completion back; they are only
    meaningful on the leader that accepted the command.
    """

    term: int
    kind: str
    command: Any = None
    client: str = ""
    request_id: str = ""


class RaftLog:
    """1-indexed entry storage with a compacted prefix."""

    def __init__(self) -> None:
        self._entries: list[LogEntry] = []
        self.base_index = 0
        self.base_term = 0

    # ------------------------------------------------------------------
    @property
    def last_index(self) -> int:
        return self.base_index + len(self._entries)

    @property
    def last_term(self) -> int:
        if self._entries:
            return self._entries[-1].term
        return self.base_term

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, index: int) -> LogEntry | None:
        """The entry at a global index, or None if compacted/absent."""
        offset = index - self.base_index
        if offset < 1 or offset > len(self._entries):
            return None
        return self._entries[offset - 1]

    def term_at(self, index: int) -> int | None:
        """Term of the entry at ``index`` (knows the snapshot boundary)."""
        if index == self.base_index:
            return self.base_term
        entry = self.entry(index)
        return None if entry is None else entry.term

    def slice_from(self, index: int, limit: int) -> tuple[LogEntry, ...]:
        """Up to ``limit`` entries starting at global ``index``."""
        offset = index - self.base_index
        if offset < 1:
            raise IndexError(f"index {index} is compacted (base {self.base_index})")
        return tuple(self._entries[offset - 1 : offset - 1 + limit])

    # ------------------------------------------------------------------
    def append(self, entry: LogEntry) -> int:
        """Append one entry; returns its global index."""
        self._entries.append(entry)
        return self.last_index

    def truncate_from(self, index: int) -> None:
        """Drop the entry at ``index`` and everything after it."""
        offset = index - self.base_index
        if offset < 1:
            raise IndexError(f"cannot truncate into compacted prefix ({index})")
        del self._entries[offset - 1 :]

    def compact_to(self, index: int) -> None:
        """Discard entries up to and including ``index`` (snapshotted)."""
        term = self.term_at(index)
        if term is None:
            raise IndexError(f"cannot compact to unknown index {index}")
        offset = index - self.base_index
        self._entries = self._entries[offset:]
        self.base_index = index
        self.base_term = term

    def reset_to_snapshot(self, index: int, term: int) -> None:
        """Replace everything with a snapshot boundary (InstallSnapshot)."""
        self._entries = []
        self.base_index = index
        self.base_term = term
