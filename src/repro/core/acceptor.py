"""The acceptor role of CRDT Paxos (Algorithm 2, right column).

An acceptor's entire state is the CRDT payload ``s`` plus the highest round
``r`` it has observed — this is the paper's "memory overhead of a single
counter per replica".  There is no log.

All handlers are pure with respect to IO: they mutate the acceptor and
return the reply message for the replica to route back.
"""

from __future__ import annotations

from repro.core.messages import (
    Merge,
    Merged,
    Prepare,
    PrepareAck,
    PrepareNack,
    Vote,
    Voted,
    VoteNack,
)
from repro.core.rounds import Round
from repro.crdt.base import StateCRDT, UpdateOp


class AcceptorStats:
    """Observability counters; not part of protocol state.

    A standalone object so a keyed replica can share one sink across all
    per-key acceptors (the counters aggregate per node) while the
    single-instance replica keeps a private 1:1 sink — the same flyweight
    pattern as :class:`~repro.core.proposer.ProposerStats`.
    """

    __slots__ = (
        "merges_handled",
        "prepares_accepted",
        "prepares_rejected",
        "prepares_matched",
        "votes_granted",
        "votes_denied",
    )

    def __init__(self) -> None:
        self.merges_handled = 0
        self.prepares_accepted = 0
        self.prepares_rejected = 0
        #: Digest-first PREPAREs whose fingerprint matched this acceptor's
        #: state, answered with ``state=None`` instead of the payload.
        self.prepares_matched = 0
        self.votes_granted = 0
        self.votes_denied = 0

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class Acceptor:
    """Replicated storage for one CRDT: payload state + highest round.

    Slotted: a keyed replica hosts one acceptor per resident key, so the
    per-instance footprint is the scaling floor of the whole store.  The
    *durable* protocol state is exactly ``(state, round)`` — the keyed
    store's cold-key eviction freezes those two fields and discards the
    rest (the stats sink is observability, shared per node in keyed
    deployments).
    """

    __slots__ = ("state", "round", "stats")

    def __init__(
        self,
        initial_state: StateCRDT,
        round: Round | None = None,
        stats: AcceptorStats | None = None,
    ) -> None:
        self.state = initial_state
        self.round = round if round is not None else Round.initial()
        self.stats = stats if stats is not None else AcceptorStats()

    # ------------------------------------------------------------------
    # Update commands
    # ------------------------------------------------------------------
    def apply_update(self, op: UpdateOp, replica_id: str) -> StateCRDT:
        """Apply ``f_u`` locally (lines 28–31); returns the new payload.

        The round id becomes the ``write`` marker so that any in-flight
        vote prepared against the previous state is invalidated.
        """
        self.state = op.apply(self.state, replica_id)
        self.round = self.round.with_write_id()
        return self.state

    def handle_merge(self, msg: Merge) -> Merged:
        """Fold a remote payload into ours by LUB (lines 32–35).

        ``join`` skips the copy when the incoming payload is already
        subsumed; the round's write marker is bumped regardless, exactly
        as in the paper's algorithm.

        When the Merge carries an anti-entropy ``digest`` (the sender's
        full-state fingerprint, delta mode), the ack reports whether this
        acceptor's post-join state fingerprints differently — the probe
        the proposer's anti-entropy repair loop watches.
        """
        self.state = self.state.join(msg.state)
        self.round = self.round.with_write_id()
        self.stats.merges_handled += 1
        if msg.digest is None:
            return Merged(request_id=msg.request_id)
        from repro.wire.digest import fingerprint

        return Merged(
            request_id=msg.request_id,
            diverged=fingerprint(self.state) != msg.digest,
        )

    # ------------------------------------------------------------------
    # Query commands
    # ------------------------------------------------------------------
    def handle_prepare(self, msg: Prepare) -> PrepareAck | PrepareNack:
        """Phase 1 (lines 36–42).

        The carried payload is merged *unconditionally* (line 37) — even a
        rejected prepare still disseminates state.  Incremental prepares
        are always accepted; fixed prepares only with a strictly larger
        round number.

        A digest-first PREPARE states the proposer's payload by its
        fingerprint (``bytes``) instead: it joins nothing and moves only
        the round, and when this acceptor's state has that fingerprint
        the reply carries ``state=None`` — "equal to what you stated" —
        instead of shipping the payload back.
        """
        matched = False
        if type(msg.state) is bytes:
            from repro.wire.digest import fingerprint

            matched = fingerprint(self.state) == msg.state
            self.stats.prepares_matched += matched
        elif msg.state is not None:
            self.state = self.state.join(msg.state)
        state = None if matched else self.state

        proposed = msg.round
        if proposed.is_incremental:
            proposed = proposed.concretized(self.round.number)

        if proposed.number > self.round.number:
            self.round = proposed
            self.stats.prepares_accepted += 1
            return PrepareAck(
                request_id=msg.request_id,
                attempt=msg.attempt,
                round=self.round,
                state=state,
            )
        self.stats.prepares_rejected += 1
        return PrepareNack(
            request_id=msg.request_id,
            attempt=msg.attempt,
            round=self.round,
            state=state,
        )

    def handle_vote(self, msg: Vote) -> Voted | VoteNack:
        """Phase 2 (lines 43–47).

        The proposed payload is merged unconditionally (line 44); the vote
        is granted only if our round still equals the prepared round — any
        interleaved update or competing prepare has changed it (invariant
        I4 / the ``write`` marker), in which case the proposer must retry.
        """
        self.state = self.state.join(msg.state)
        if msg.round == self.round:
            self.stats.votes_granted += 1
            return Voted(request_id=msg.request_id, attempt=msg.attempt)
        self.stats.votes_denied += 1
        return VoteNack(
            request_id=msg.request_id,
            attempt=msg.attempt,
            round=self.round,
            state=self.state,
        )
