"""Protocol adapters: one op-level workload, many wire dialects.

The load generator speaks typed CRDT operations
(:class:`~repro.crdt.base.UpdateOp` / :class:`~repro.crdt.base.QueryOp`,
produced by a :class:`~repro.workload.profiles.OpProfile`); an adapter
compiles them into one protocol's client messages and normalizes the
replies.  CRDT Paxos compiles through :mod:`repro.api.codec` — the same
path the :class:`~repro.api.store.Store` frontends use — so the
benchmarks measure exactly what the public API emits, keyed or not.
The log-based RSM baselines (Multi-Paxos, Raft, GLA) only replicate an
integer counter, so their adapter accepts the counter profile's ops and
translates them to the shared RSM command tuples.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Hashable

from repro.api.codec import (
    UNKEYED,
    Completion,
    compile_query,
    compile_update,
    parse_completion,
)
from repro.baselines.common import (
    RsmQuery,
    RsmQueryDone,
    RsmUpdate,
    RsmUpdateDone,
)
from repro.crdt.base import QueryOp, UpdateOp
from repro.crdt.gcounter import GCounterValue, Increment
from repro.errors import ConfigurationError


class OpAdapter(ABC):
    """Builds requests from typed ops and parses replies for one dialect."""

    @abstractmethod
    def update_message(
        self, request_id: str, op: UpdateOp, key: Hashable = UNKEYED
    ) -> Any:
        """A 'submit update function' request (optionally key-addressed)."""

    @abstractmethod
    def query_message(
        self, request_id: str, op: QueryOp, key: Hashable = UNKEYED
    ) -> Any:
        """A 'submit query function' request (optionally key-addressed)."""

    @abstractmethod
    def parse_reply(self, message: Any) -> Completion | None:
        """Normalize a reply; None if the message is not a completion."""


class CrdtPaxosOpAdapter(OpAdapter):
    """CRDT Paxos dialect: the Store API's compilation path, verbatim."""

    def update_message(
        self, request_id: str, op: UpdateOp, key: Hashable = UNKEYED
    ) -> Any:
        return compile_update(request_id, op, key=key)

    def query_message(
        self, request_id: str, op: QueryOp, key: Hashable = UNKEYED
    ) -> Any:
        return compile_query(request_id, op, key=key)

    def parse_reply(self, message: Any) -> Completion | None:
        return parse_completion(message)


class RsmOpAdapter(OpAdapter):
    """Replicated-integer dialect for Multi-Paxos, Raft and GLA.

    The baselines replicate one integer, so only the counter profile's
    operations translate; anything else is a configuration error (the
    runner rejects such combinations up front).
    """

    def update_message(
        self, request_id: str, op: UpdateOp, key: Hashable = UNKEYED
    ) -> Any:
        if key is not UNKEYED:
            raise ConfigurationError("RSM baselines have no keyed deployment")
        if not isinstance(op, Increment):
            raise ConfigurationError(
                f"RSM baselines only replicate a counter; got {op!r}"
            )
        return RsmUpdate(request_id=request_id, command=("incr", op.amount))

    def query_message(
        self, request_id: str, op: QueryOp, key: Hashable = UNKEYED
    ) -> Any:
        if key is not UNKEYED:
            raise ConfigurationError("RSM baselines have no keyed deployment")
        if not isinstance(op, GCounterValue):
            raise ConfigurationError(
                f"RSM baselines only read a counter value; got {op!r}"
            )
        return RsmQuery(request_id=request_id, command=("read",))

    def parse_reply(self, message: Any) -> Completion | None:
        if isinstance(message, RsmUpdateDone):
            return Completion(request_id=message.request_id, kind="update")
        if isinstance(message, RsmQueryDone):
            return Completion(
                request_id=message.request_id,
                kind="read",
                result=message.result,
                learned_via=message.via,
            )
        return None
