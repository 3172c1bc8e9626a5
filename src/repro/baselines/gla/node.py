"""The Falerio-style generalized lattice agreement node.

Lattice: finite sets of *commands* under union.  Every client command —
update or read — becomes a uniquely tagged command joined into proposals.

The proposal loop follows the wait-free algorithm's shape:

1. a proposer's value is the union of everything it has accepted plus its
   buffered new commands;
2. it sends ``Propose(seq, value)`` to all acceptors;
3. an acceptor ACKs iff its accepted set is contained in the proposal
   (then adopts the proposal); otherwise it NACKs with the union of both;
4. a quorum of ACKs *learns* the value; any NACK folds the returned set in
   and re-proposes with a higher sequence number.

Each refinement can only grow the value, and a value can grow at most once
per concurrent proposer between rounds, which bounds the number of
refinements — the O(N) wait-freedom argument.  A command completes when it
appears in a learned value: updates are then acknowledged; a read's result
is computed by folding all update commands of the learned value into the
state machine (updates commute, so set semantics suffice).

There is deliberately **no truncation**: ``accepted`` and every proposal
carry the full command history.  ``GlaNode.stats`` exposes the growth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.baselines.common import (
    RsmQuery,
    RsmQueryDone,
    RsmUpdate,
    RsmUpdateDone,
    StateMachine,
)
from repro.net.node import Effects, ProtocolNode
from repro.errors import ConfigurationError

#: A command: (unique id, kind, payload).  Kind "read" commands are
#: position markers and do not modify the state machine.
Command = tuple[str, str, Any]


@dataclass(frozen=True, slots=True)
class Propose:
    seq: int
    value: frozenset


@dataclass(frozen=True, slots=True)
class ProposeAck:
    seq: int


@dataclass(frozen=True, slots=True)
class ProposeNack:
    seq: int
    value: frozenset


@dataclass
class GlaConfig:
    """GLA knobs; only request supervision is configurable."""

    request_timeout: float | None = 1.0

    def __post_init__(self) -> None:
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ConfigurationError("request_timeout must be positive or None")


class GlaNode(ProtocolNode):
    """Proposer + acceptor + learner for set-union lattice agreement."""

    def __init__(
        self,
        node_id: str,
        peers: list[str],
        machine_factory: Any,
        config: GlaConfig | None = None,
    ) -> None:
        super().__init__(node_id)
        if node_id not in peers:
            raise ValueError(f"node_id {node_id!r} must be listed in peers")
        self.peers = list(peers)
        self.remotes = [p for p in peers if p != node_id]
        self.majority = len(peers) // 2 + 1
        self.config = config or GlaConfig()
        self._machine_factory = machine_factory

        # Acceptor state: the ever-growing accepted command set.
        self.accepted: frozenset = frozenset()

        # Proposer state.
        self._seq = 0
        self._proposal: frozenset | None = None
        self._acks: set[str] = set()
        self.learned: frozenset = frozenset()
        self._buffer: list[Command] = []
        self._pending: dict[str, tuple[str, str, str]] = {}  # cmd id → route
        self._command_counter = 0

        # Observability.
        self.proposals_sent = 0
        self.refinements = 0

    # ------------------------------------------------------------------
    def on_start(self, now: float) -> Effects:
        return Effects()

    def on_message(self, src: str, message: Any, now: float) -> Effects:
        if isinstance(message, RsmUpdate):
            return self._submit(src, message.request_id, "update", message.command)
        if isinstance(message, RsmQuery):
            return self._submit(src, message.request_id, "read", message.command)
        if isinstance(message, Propose):
            return self._on_propose(src, message)
        if isinstance(message, ProposeAck):
            return self._on_ack(src, message)
        if isinstance(message, ProposeNack):
            return self._on_nack(src, message)
        return Effects()

    def on_timer(self, key: str, now: float) -> Effects:
        if key == "retry" and self._proposal is not None:
            return self._send_proposal(self._proposal)
        return Effects()

    # ------------------------------------------------------------------
    # Client commands
    # ------------------------------------------------------------------
    def _submit(
        self, client: str, request_id: str, kind: str, payload: Any
    ) -> Effects:
        self._command_counter += 1
        command: Command = (
            f"{self.node_id}:{self._command_counter}",
            kind,
            payload,
        )
        self._pending[command[0]] = (client, request_id, kind)
        self._buffer.append(command)
        if self._proposal is None:
            return self._start_proposal()
        return Effects()

    def _start_proposal(self) -> Effects:
        value = self.accepted | frozenset(self._buffer)
        self._buffer = []
        self._proposal = value
        return self._send_proposal(value)

    def _send_proposal(self, value: frozenset) -> Effects:
        self._seq += 1
        self._acks = set()
        self.proposals_sent += 1
        effects = Effects()
        message = Propose(seq=self._seq, value=value)
        effects.broadcast(self.remotes, message)
        # The local acceptor adopts its own proposal immediately.
        self.accepted = self.accepted | value
        self._acks.add(self.node_id)
        if self.config.request_timeout is not None:
            effects.set_timer("retry", self.config.request_timeout)
        if len(self._acks) >= self.majority:  # single-node group
            effects.merge(self._learn(value))
        return effects

    # ------------------------------------------------------------------
    # Acceptor
    # ------------------------------------------------------------------
    def _on_propose(self, src: str, msg: Propose) -> Effects:
        effects = Effects()
        if self.accepted <= msg.value:
            self.accepted = msg.value
            effects.send(src, ProposeAck(seq=msg.seq))
        else:
            self.accepted = self.accepted | msg.value
            effects.send(src, ProposeNack(seq=msg.seq, value=self.accepted))
        return effects

    # ------------------------------------------------------------------
    # Proposer replies
    # ------------------------------------------------------------------
    def _on_ack(self, src: str, msg: ProposeAck) -> Effects:
        if self._proposal is None or msg.seq != self._seq:
            return Effects()
        self._acks.add(src)
        if len(self._acks) >= self.majority:
            return self._learn(self._proposal)
        return Effects()

    def _on_nack(self, src: str, msg: ProposeNack) -> Effects:
        if self._proposal is None or msg.seq != self._seq:
            return Effects()
        self.refinements += 1
        refined = self._proposal | msg.value
        self._proposal = refined
        return self._send_proposal(refined)

    # ------------------------------------------------------------------
    # Learner
    # ------------------------------------------------------------------
    def _learn(self, value: frozenset) -> Effects:
        effects = Effects()
        effects.cancel_timer("retry")
        self.learned = self.learned | value
        self._proposal = None

        completed = [
            command for command in self.learned if command[0] in self._pending
        ]
        if completed:
            # Reads fold every learned *update* into a fresh machine; the
            # update commands commute, so any application order works.
            machine: StateMachine | None = None
            for command in sorted(completed):
                client, request_id, kind = self._pending.pop(command[0])
                if kind == "update":
                    effects.send(client, RsmUpdateDone(request_id=request_id))
                    continue
                if machine is None:
                    machine = self._machine_factory()
                    for cmd_id, cmd_kind, payload in sorted(self.learned):
                        if cmd_kind == "update":
                            machine.apply_update(payload)
                effects.send(
                    client,
                    RsmQueryDone(
                        request_id=request_id,
                        result=machine.apply_query(command[2]),
                        served_by=self.node_id,
                        via="gla",
                    ),
                )

        if self._buffer:
            effects.merge(self._start_proposal())
        return effects
