"""Wire messages of CRDT Paxos.

Replica-to-replica messages carry at most one payload state and one round —
the paper's "message size overhead for coordination consists of a single
counter per message".  ``request_id`` strings correlate replies with the
originating request (or batch); acceptors echo them verbatim.

VOTED deliberately carries **no payload** (§3.6): the proposer already
knows the state it proposed.  For the same reason a *large* payload is
not shipped in either direction of a PREPARE when both ends already hold
it: the proposer states it by its 128-bit fingerprint
(:func:`repro.wire.digest.fingerprint`), and an acceptor holding a state
with that fingerprint acks with ``state=None`` — "equal to what you
stated" — so a read of an unchanged 8 kB state moves a few dozen bytes.

Sizes are not declared here: a message's size is the length of its
encoded wire body (:func:`repro.net.message.wire_size`), and a large
payload's body is memoised on the payload itself (:mod:`repro.wire`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.rounds import Round
from repro.crdt.base import QueryOp, StateCRDT, UpdateOp


# ----------------------------------------------------------------------
# Client ↔ proposer
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ClientUpdate:
    """Submit an update function ``f_u ∈ U``; completes with UpdateDone."""

    request_id: str
    op: UpdateOp


@dataclass(frozen=True, slots=True)
class ClientQuery:
    """Submit a query function ``f_q ∈ Q``; completes with QueryDone."""

    request_id: str
    op: QueryOp


@dataclass(frozen=True, slots=True)
class UpdateDone:
    """Update completed (a quorum stores it).

    ``inclusion_tag`` is an opaque token identifying the update's effect in
    later payload states (e.g. ``(replica, slot value)`` for a G-Counter
    increment); the correctness checker uses it to verify Update Stability
    and Update Visibility.  It is None unless the replica was configured
    with an extractor.
    """

    request_id: str
    inclusion_tag: Any = None


@dataclass(frozen=True, slots=True)
class QueryDone:
    """Query completed with ``result = f_q(learned state)``.

    Diagnostic fields: how many round trips the request cost, over how many
    attempts, whether the final learn came from the consistent-quorum fast
    path (``"fast"``) or a vote (``"vote"``), and the per-proposer learn
    sequence number (used to check GLA-Stability).
    """

    request_id: str
    result: Any
    round_trips: int
    attempts: int
    learned_via: str
    proposer: str
    learn_seq: int


@dataclass(frozen=True, slots=True)
class Refused:
    """The replica gave up on a request and says so instead of going dark.

    ``code`` names the provable obstacle: ``"quorum"`` (the proposer's
    bounded re-drive budget expired without assembling a quorum — §2.1
    liveness needs a majority, and none is answering) or ``"storage"``
    (a ``write_through`` persist failed, so the ack that would promise
    durability is withheld).  A refusal is *not* a completion: the
    operation may be retried verbatim once the fault heals, and nothing
    about it has been promised to the client.
    """

    request_id: str
    code: str
    detail: str = ""


# ----------------------------------------------------------------------
# Sharded routing / key migration (repro.sharding)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class WrongGroup:
    """Refusal: this replica's group does not (or no longer does) own
    the key the command addressed.

    ``epoch`` is the highest routing epoch the refusing replica can
    attest for the key and ``group`` the owner it forwards to — a frozen
    or moved-out key answers with its migration's target, an
    unowned-by-table key with the ring owner.  Stale clients converge by
    folding ``(epoch, group)`` into their routing snapshot and retrying
    at the hint; like :class:`Refused`, nothing about the operation has
    been performed or promised.
    """

    request_id: str
    epoch: int
    group: str


@dataclass(frozen=True, slots=True)
class MigrateFreeze:
    """Coordinator → source replicas: freeze one key for migration.

    On receipt the replica stops serving the key (clients get
    :class:`WrongGroup` forwarding to ``target`` at ``epoch``, peer
    protocol traffic for the key is dropped) and snapshots its §3.3
    ``(payload, round, learned-max)`` triple in a :class:`MigrateFrozen`
    reply.  The freeze is what makes the coordinator's quorum read
    sound: a frozen replica can never again ack a merge or vote, so any
    update that ever completes has pre-freeze acks at a quorum — which
    intersects the snapshot quorum.
    """

    request_id: str
    epoch: int
    target: str


@dataclass(frozen=True, slots=True)
class MigrateFrozen:
    """Source replica → coordinator: the frozen key's durable triple."""

    request_id: str
    epoch: int
    round: Round
    state: StateCRDT
    learned_max: StateCRDT | None = None


@dataclass(frozen=True, slots=True)
class MigrateInstall:
    """Coordinator → destination replicas: install the joined triple.

    ``state`` is the join over a source read quorum of frozen snapshots,
    ``round`` their maximum — exactly the rejoin-style refresh a
    hard-killed replica performs, pointed at a different group.  The
    destination folds the triple into its local pair (join / max) and
    buffers client commands for the key until :class:`MigrateCommit`.
    """

    request_id: str
    epoch: int
    round: Round
    state: StateCRDT
    learned_max: StateCRDT | None = None


@dataclass(frozen=True, slots=True)
class MigrateInstalled:
    """Destination replica → coordinator: the triple is durable here."""

    request_id: str
    epoch: int


@dataclass(frozen=True, slots=True)
class MigrateCommit:
    """Coordinator → source *and* destination replicas: the move is law.

    Sent once a write quorum of the destination group holds the
    installed triple.  Source replicas drop the key's record and keep a
    durable moved-out mark (``epoch``/``target``) so late traffic gets a
    forwarding :class:`WrongGroup`; destination replicas mark the key
    moved-in and replay the client commands they buffered since install.
    """

    request_id: str
    epoch: int
    target: str


@dataclass(frozen=True, slots=True)
class MigrateCommitAck:
    """Replica → coordinator: commit applied (idempotent re-ack)."""

    request_id: str
    epoch: int


# ----------------------------------------------------------------------
# Proposer → acceptor (and replies)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Merge:
    """Update path: merge this payload into the acceptor's state.

    ``digest`` is the anti-entropy probe (delta mode only, see
    ``config.anti_entropy``): the 128-bit fingerprint of the proposer's
    *full* state at send time.  The acceptor compares it against its own
    post-join fingerprint and flags divergence in the MERGED ack.
    ``None`` (the default, and always in full-state mode) disables the
    comparison.
    """

    request_id: str
    state: StateCRDT
    digest: bytes | None = None


@dataclass(frozen=True, slots=True)
class Merged:
    """Acceptor acknowledgement of a Merge.

    ``diverged`` answers the Merge's anti-entropy probe: the acceptor's
    post-join full state fingerprints differently from the sender's —
    the two replicas hold different payloads (either may hold updates
    the other lacks).  Always ``False`` when the Merge carried no digest.
    """

    request_id: str
    diverged: bool = False


@dataclass(frozen=True, slots=True)
class Prepare:
    """Phase 1: announce intent to learn; round may be incremental.

    ``state`` is optional (§3.6: never ship ``s0``; shipping a recent local
    state speeds convergence but is not needed for safety).  It is one of:

    * ``None`` — nothing stated;
    * a payload — joined by the acceptor unconditionally (line 37);
    * ``bytes`` — the 16-byte fingerprint of a large payload the proposer
      holds (*digest-first*): the acceptor joins nothing, and acks with
      ``state=None`` when its own state has that fingerprint.

    A proposer states by fingerprint only once its payloads are past the
    codec's sized crossover, so every small PREPARE keeps its exact
    bytes; a field carrying either type is why the format is wire v3.
    """

    request_id: str
    attempt: int
    round: Round
    state: StateCRDT | bytes | None = None


@dataclass(frozen=True, slots=True)
class PrepareAck:
    """Acceptor accepted the prepare; carries its round and payload.

    ``state=None`` answers a digest-first PREPARE: the acceptor's payload
    has the fingerprint the proposer stated, so the proposer uses the
    object it stated (equal payloads answer every query alike).  Any other
    ack carries the acceptor's full payload.
    """

    request_id: str
    attempt: int
    round: Round
    state: StateCRDT | None


@dataclass(frozen=True, slots=True)
class PrepareNack:
    """Acceptor rejected a fixed prepare with a stale round number.

    Carries the acceptor's current round and payload so the proposer can
    retry with a larger number and a fresher state (§3.2, Retrying
    Requests) — ``None`` for the payload the proposer stated, exactly as
    in :class:`PrepareAck`.
    """

    request_id: str
    attempt: int
    round: Round
    state: StateCRDT | None


@dataclass(frozen=True, slots=True)
class Vote:
    """Phase 2: propose to learn ``state`` under the prepared round."""

    request_id: str
    attempt: int
    round: Round
    state: StateCRDT


@dataclass(frozen=True, slots=True)
class Voted:
    """Acceptor voted for the proposal (payload elided, §3.6)."""

    request_id: str
    attempt: int


@dataclass(frozen=True, slots=True)
class VoteNack:
    """Acceptor denied the vote (its round moved); proposer must retry."""

    request_id: str
    attempt: int
    round: Round
    state: StateCRDT
