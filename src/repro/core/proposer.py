"""The proposer role of CRDT Paxos (Algorithm 2, left column).

A proposer turns client commands into protocol exchanges:

* **updates** — apply the update function at the co-located acceptor, then
  broadcast the resulting payload in a single ``MERGE`` round trip; done
  when a quorum (counting the local acceptor) acknowledged.
* **queries** — learn a payload state first: PREPARE to all acceptors; on
  a quorum of ACKs either (a) all payloads are equivalent → *learned by
  consistent quorum*, one round trip; or (b) all rounds are equal → VOTE
  the LUB, *learned by vote* on a quorum of VOTEDs; or (c) retry with a
  fixed prepare above every observed round number.  NACKs abort the
  attempt and retry (incremental by default — the §3.5 liveness argument).

Proposers keep **no durable state**: only bookkeeping for open requests.
Batching (§3.6) buffers commands per proposer and applies them locally, so
message count and size are independent of batch size.

Commands are grouped into batches even when batching is off (a batch of
one); this gives a single code path and matches the paper's observation
that the batched and unbatched protocols are the same machine.

**Flyweight sharing** (:class:`ProposerShared`): everything that is
identical for every proposer one replica hosts — node identity, peer
list, quorum system, config, batching phase, backoff factor, the round-id
source and the stats sink — lives in one shared context object.  A keyed
deployment (:class:`~repro.core.keyspace.KeyedCrdtReplica`) hosts one
proposer *per key*; hoisting the shared state means a hot key costs a
handful of machine words of bookkeeping, not a private copy of the whole
replica configuration.  The single-instance replica simply owns a 1:1
context.  Sharing the :class:`~repro.core.rounds.RoundIdGenerator` is
safe: round ids only need to be unique, and a node-wide counter is
strictly more unique than a per-key one.

**Admission control** (``config.update_pipeline``): because CRDT merges
commute and are idempotent, update batches from one proposer need no
ordering between themselves — the proposer may broadcast a new MERGE batch
while up to ``update_pipeline - 1`` earlier batches still await their
quorum of acks, hiding the merge round trip instead of stalling a full
batch window per in-flight batch.  The window bounds in-flight MERGE
traffic in *every* mode: batched proposals wait for the next flush tick,
and unbatched commands past the window queue and are admitted (one
batch-of-one per completion) as earlier round trips finish.  Queries
remain single-flight per batched proposer (the §3.5 liveness argument
relies on one prepare front per proposer).  ``ProposerStats`` exposes the
observed pipeline depth.

**Digest-first PREPARE**: a proposer whose payloads are past the codec's
sized crossover states its payload to peers by the 128-bit fingerprint
(:func:`repro.wire.digest.fingerprint`) instead of the state.  A peer
whose state has that fingerprint acks with ``state=None`` and the
proposer folds in the object it stated — the two are equal, and equal
payloads answer every query alike — so a read of an unchanged large state
moves no payload at all; any other peer acks with its full state, as
before.  Shipping the state is always safe, so when the proposer cannot
tell cheaply that its payload is large (no memoised blob yet) it ships.

**Hot-path accumulation**: quorum folds use
:class:`~repro.crdt.base.MergeAccumulator` and the payloads' digest/join
short-circuits, so a quorum acking with equal payloads is folded without
copying and compared against the LUB in O(1) instead of two full lattice
passes per ack.

**Re-drive freshness**: an update-timeout re-drive does not resend the
original batch payload.  Without ``delta_merge`` it sends the acceptor's
*current* state (which subsumes the batch and disseminates everything
learned since); with ``delta_merge`` it sends the batch's accumulated
delta — the original delta joined with the deltas of every update batch
started since — still far smaller than the full payload but fresher than
the original fragment.  Both are safe: a MERGED ack certifies the peer
stores a superset of the batch's updates.  Peers that already acked are
skipped.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.core.acceptor import Acceptor
from repro.core.config import CrdtPaxosConfig
from repro.core.messages import (
    Merge,
    Merged,
    Prepare,
    PrepareAck,
    PrepareNack,
    QueryDone,
    Refused,
    UpdateDone,
    Vote,
    Voted,
    VoteNack,
)
from repro.core.rounds import Round, RoundIdGenerator
from repro.crdt.base import (
    MergeAccumulator,
    QueryOp,
    StateCRDT,
    UpdateOp,
    join_all,
)
from repro.net.node import Effects
from repro.quorum.system import QuorumSystem


@dataclass
class _UpdateItem:
    client: str
    request_id: str
    op: UpdateOp


@dataclass
class _QueryItem:
    client: str
    request_id: str
    op: QueryOp


@dataclass
class _UpdateBatch:
    batch_id: str
    items: list[_UpdateItem]
    payload: StateCRDT
    tags: list[Any]
    acked: set[str] = field(default_factory=set)
    #: Delta-mode re-drive payload: the batch delta plus the deltas of
    #: every update batch started while this one was in flight.
    redrive: MergeAccumulator | None = None
    #: Consecutive fruitless re-drive rounds (no new MERGED ack since the
    #: last timeout); drives the exponential backoff and the give-up limit.
    redrive_rounds: int = 0


@dataclass
class _QueryBatch:
    batch_id: str
    items: list[_QueryItem]
    accumulator: MergeAccumulator
    attempt: int = 0
    phase: str = "prepare"  # prepare | vote | backoff
    sent_round: Round | None = None
    acks: dict[str, tuple[Round, StateCRDT]] = field(default_factory=dict)
    voted: set[str] = field(default_factory=set)
    proposed: StateCRDT | None = None
    #: The payload the current attempt's PREPARE stated (None if it stated
    #: none): what a ``state=None`` ack or nack of that attempt stands for.
    stated: StateCRDT | None = None
    max_round_number: int = 0
    round_trips: int = 0
    retry_kind: str = "incremental"
    #: Consecutive fruitless supervision rounds (query timeouts with no
    #: intervening PREPARE-ACK); see ``_UpdateBatch.redrive_rounds``.
    redrive_rounds: int = 0

    @property
    def accumulated(self) -> StateCRDT:
        """The LUB of everything this batch has observed so far."""
        return self.accumulator.value


class ProposerStats:
    """Aggregate counters exposed for benchmarks and debugging.

    Slotted: a single-instance replica owns one and a keyed replica shares
    one across every per-key proposer it hosts.
    """

    __slots__ = (
        "updates_completed",
        "queries_completed",
        "fast_path_learns",
        "vote_learns",
        "prepare_retries",
        "vote_retries",
        "timeouts",
        "quorum_refusals",
        "max_update_pipeline",
        "pipeline_stalls",
        "anti_entropy_pushes",
    )

    def __init__(self) -> None:
        self.updates_completed = 0
        self.queries_completed = 0
        self.fast_path_learns = 0
        self.vote_learns = 0
        self.prepare_retries = 0
        self.vote_retries = 0
        self.timeouts = 0
        #: Requests abandoned with ``Refused(code="quorum")`` after the
        #: ``redrive_limit`` was exhausted without reaching a quorum.
        self.quorum_refusals = 0
        #: Deepest concurrent-update-batch pipeline observed.
        self.max_update_pipeline = 0
        #: Ticks/commands where a full pipeline window held a batch back.
        self.pipeline_stalls = 0
        #: Full-state catch-up MERGEs sent to persistently divergent peers
        #: (``config.anti_entropy``).
        self.anti_entropy_pushes = 0

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class ProposerShared:
    """Flyweight context: per-replica state identical for every proposer.

    One instance per replica (or per replica *group* membership).  The
    single-instance :class:`~repro.core.replica.CrdtPaxosReplica` owns a
    1:1 context; :class:`~repro.core.keyspace.KeyedCrdtReplica` shares one
    across all per-key proposers, which is what makes a million-key store
    affordable: config, peer lists, quorum system, the round-id source,
    batching phase, backoff factor and the stats sink are stored once per
    node instead of once per key.
    """

    __slots__ = (
        "node_id",
        "proposer_index",
        "remotes",
        "quorum",
        "config",
        "flush_phase",
        "backoff_factor",
        "rid_gen",
        "stats",
        "_batch_counter",
        "_learn_counter",
    )

    def __init__(
        self,
        node_id: str,
        peers: list[str],
        quorum: QuorumSystem,
        config: CrdtPaxosConfig,
        stats: ProposerStats | None = None,
    ) -> None:
        self.node_id = node_id
        self.proposer_index = sorted(peers).index(node_id)
        self.remotes = tuple(p for p in peers if p != node_id)
        self.quorum = quorum
        self.config = config
        members = max(len(peers), 1)
        # Stagger the batching cadence across proposers (clock drift does
        # this in any real deployment).  If every proposer flushed at the
        # same instant, each read batch would systematically collide with
        # the other proposers' merge fronts and retry — the opposite of
        # what batching is for (§3.6).
        self.flush_phase = config.batch_window * self.proposer_index / members
        # Per-proposer backoff factor: identical retry delays re-align
        # dueling proposers (the §3.5 liveness hazard); distinct periods
        # let them drift apart, like randomized timeouts do in practice.
        self.backoff_factor = 1.0 + self.proposer_index / members
        self.rid_gen = RoundIdGenerator(self.proposer_index)
        self.stats = stats if stats is not None else ProposerStats()
        self._batch_counter = 0
        self._learn_counter = 0

    def next_batch(self) -> int:
        """Node-wide unique batch number.  Shared (not per-proposer) so a
        key evicted and rehydrated — whose fresh proposer starts from
        scratch — can never reuse a batch id a stale in-flight reply from
        the previous proposer generation might still answer."""
        self._batch_counter += 1
        return self._batch_counter

    def next_learn(self) -> int:
        """Node-wide monotone learn sequence (see ``QueryDone.learn_seq``).
        Shared for the same reason as :meth:`next_batch`: the GLA checker
        orders a node's learns by this number, and a rehydrated proposer
        restarting at 1 would collide with its previous generation."""
        self._learn_counter += 1
        return self._learn_counter

    def counter_snapshot(self) -> dict[str, int]:
        """The node-wide monotone counters, for durable spill metadata.

        The uniqueness arguments for batch ids, learn sequence numbers
        and round ids (:meth:`next_batch`, :meth:`next_learn`,
        :class:`~repro.core.rounds.RoundIdGenerator`) span *process
        generations* too: a replica recovered from a spill store must
        resume these counters, or a stale in-flight reply from before the
        restart could answer a fresh batch, and post-restart learns could
        order before pre-restart ones.
        """
        return {
            "batch_counter": self._batch_counter,
            "learn_counter": self._learn_counter,
            "round_id_counter": self.rid_gen.counter,
        }

    def restore_counters(self, snapshot: dict[str, int]) -> None:
        """Fast-forward the monotone counters past a previous generation's
        snapshot (restores only ever move forward)."""
        self._batch_counter = max(
            self._batch_counter, int(snapshot.get("batch_counter", 0))
        )
        self._learn_counter = max(
            self._learn_counter, int(snapshot.get("learn_counter", 0))
        )
        self.rid_gen.restore(int(snapshot.get("round_id_counter", 0)))


class Proposer:
    """Sans-io proposer; all handlers return :class:`Effects`.

    Slotted and flyweight-backed: per-proposer state is only the open
    request bookkeeping (plus two flags and the §3.4 learned maximum);
    everything configuration-shaped lives in :class:`ProposerShared`.
    """

    __slots__ = (
        "_shared",
        "_acceptor",
        "_initial_state",
        "_update_batches",
        "_query_batches",
        "_update_buffer",
        "_query_buffer",
        "_updates_in_flight",
        "_query_in_flight",
        "_flush_armed",
        "_flush_ever_armed",
        "_learned_max",
        "_ae_divergent",
        "_ae_last_push",
        "_sized",
    )

    def __init__(
        self,
        shared: ProposerShared,
        acceptor: Acceptor,
        initial_state: StateCRDT,
        learned_max: StateCRDT | None = None,
    ) -> None:
        self._shared = shared
        self._acceptor = acceptor
        self._initial_state = initial_state
        self._update_batches: dict[str, _UpdateBatch] = {}
        self._query_batches: dict[str, _QueryBatch] = {}
        self._update_buffer: list[_UpdateItem] = []
        self._query_buffer: list[_QueryItem] = []
        self._updates_in_flight = 0
        self._query_in_flight = False
        self._flush_armed = False
        self._flush_ever_armed = False
        # ``learned_max`` seeds the §3.4 monotone learned maximum — the
        # keyed store passes the value persisted in a frozen record so the
        # GLA-Stability window survives a freeze/thaw cycle.
        self._learned_max: StateCRDT | None = learned_max
        # Anti-entropy bookkeeping, allocated on first use only — keyed
        # deployments host one proposer per key and the flyweight design
        # keeps idle per-key footprint at a handful of words.
        self._ae_divergent: dict[str, int] | None = None
        self._ae_last_push: dict[str, float] | None = None
        # Set once a payload this proposer stated carries a memoised wire
        # blob, i.e. its payloads are past the codec's sized crossover:
        # from then on PREPAREs state by fingerprint (digest-first) even a
        # fresh payload that has no blob yet.  A small payload never gets
        # a blob, so a G-Counter never encodes anything to find out it is
        # small.
        self._sized = False

    # ------------------------------------------------------------------
    # Flyweight accessors
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> str:
        return self._shared.node_id

    @property
    def stats(self) -> ProposerStats:
        return self._shared.stats

    @property
    def _config(self) -> CrdtPaxosConfig:
        return self._shared.config

    @property
    def _remotes(self) -> tuple[str, ...]:
        return self._shared.remotes

    @property
    def _quorum(self) -> QuorumSystem:
        return self._shared.quorum

    @property
    def learned_max(self) -> StateCRDT | None:
        """The §3.4 learned maximum (None unless ``gla_stability`` ran).

        Exposed so the keyed store can persist it into a frozen record on
        eviction and seed the rehydrated proposer with it.
        """
        return self._learned_max

    @property
    def idle(self) -> bool:
        """No open requests, buffered commands or armed flush timer.

        An idle proposer holds no state the protocol can lose: all its
        remaining fields are either derivable (counters) or optimizations
        whose guarantees only span open requests (``_learned_max``
        matters only for *overlapping* queries, §3.4 — and an overlapping
        query would be an open batch).  The keyed store's cold-key
        eviction relies on this.
        """
        return not (
            self._update_batches
            or self._query_batches
            or self._update_buffer
            or self._query_buffer
            or self._flush_armed
        )

    # ------------------------------------------------------------------
    # Client entry points
    # ------------------------------------------------------------------
    def client_update(
        self, client: str, request_id: str, op: UpdateOp, now: float
    ) -> Effects:
        item = _UpdateItem(client, request_id, op)
        if not self._config.batching:
            # Unbatched admission control: the pipeline window bounds
            # in-flight MERGE traffic in every mode.  Commands past the
            # window queue here and are admitted as their own batch of one
            # when an earlier round trip completes.
            if self._updates_in_flight < self._config.update_pipeline:
                return self._start_update_batch([item])
            self._update_buffer.append(item)
            self.stats.pipeline_stalls += 1
            return Effects()
        effects = Effects()
        self._update_buffer.append(item)
        self._ensure_flush_timer(effects)
        return effects

    def client_query(
        self, client: str, request_id: str, op: QueryOp, now: float
    ) -> Effects:
        item = _QueryItem(client, request_id, op)
        if not self._config.batching:
            return self._start_query_batch([item])
        effects = Effects()
        self._query_buffer.append(item)
        self._ensure_flush_timer(effects)
        return effects

    # ------------------------------------------------------------------
    # Batching cadence (§3.6)
    # ------------------------------------------------------------------
    def _ensure_flush_timer(self, effects: Effects) -> None:
        if not self._flush_armed:
            self._flush_armed = True
            delay = self._config.batch_window
            if not self._flush_ever_armed:
                self._flush_ever_armed = True
                delay += self._shared.flush_phase
            effects.set_timer("flush", delay)

    def on_flush_timer(self, now: float) -> Effects:
        self._flush_armed = False
        effects = Effects()
        if self._update_buffer:
            if self._updates_in_flight < self._config.update_pipeline:
                items, self._update_buffer = self._update_buffer, []
                effects.merge(self._start_update_batch(items))
            else:
                self.stats.pipeline_stalls += 1
        if self._query_buffer and not self._query_in_flight:
            items, self._query_buffer = self._query_buffer, []
            effects.merge(self._start_query_batch(items))
        if (
            self._update_buffer
            or self._query_buffer
            or self._updates_in_flight
            or self._query_in_flight
        ):
            self._ensure_flush_timer(effects)
        return effects

    # ------------------------------------------------------------------
    # Update path (single round trip)
    # ------------------------------------------------------------------
    def _start_update_batch(self, items: list[_UpdateItem]) -> Effects:
        batch_id = f"{self.node_id}/u{self._shared.next_batch()}"
        effects = Effects()

        deltas = MergeAccumulator()
        tags: list[Any] = []
        for item in items:
            before = self._acceptor.state
            after = self._acceptor.apply_update(item.op, self.node_id)
            if self._config.inclusion_tagger is not None:
                tags.append(self._config.inclusion_tagger(after, self.node_id))
            else:
                tags.append(None)
            if self._config.delta_merge:
                deltas.add(item.op.delta(before, after, self.node_id))

        if self._config.delta_merge:
            payload = deltas.value
            # Keep earlier in-flight batches' re-drive payloads fresh:
            # their next re-send carries this batch's updates too.
            for open_batch in self._update_batches.values():
                if open_batch.redrive is None:
                    continue
                open_batch.redrive.add(payload)
                if open_batch.redrive_rounds > 0:
                    # That batch's latest re-driven MERGE may still be
                    # parked in a coalesce outbox, materialized with the
                    # pre-fold accumulator value.  Re-send so the parked
                    # slot is superseded with a payload that carries this
                    # batch's updates too — otherwise the flush ships the
                    # stale fragment and the fold above never reaches
                    # peers until the *next* timeout.
                    refreshed = self._merge_message(
                        open_batch.batch_id, open_batch.redrive.value
                    )
                    for peer in self._remotes:
                        if peer not in open_batch.acked:
                            effects.send(peer, refreshed)
            redrive = MergeAccumulator(payload)
        else:
            payload = self._acceptor.state
            redrive = None
        assert payload is not None
        batch = _UpdateBatch(
            batch_id, items, payload, tags, acked={self.node_id}, redrive=redrive
        )
        self._update_batches[batch_id] = batch
        self._updates_in_flight += 1
        self.stats.max_update_pipeline = max(
            self.stats.max_update_pipeline, self._updates_in_flight
        )

        if self._quorum.is_quorum(batch.acked):
            # Degenerate single-replica group: already durable.
            effects.merge(self._complete_update(batch))
            return effects

        message = self._merge_message(batch_id, payload)
        effects.broadcast(self._remotes, message)
        if self._config.request_timeout is not None:
            effects.set_timer(f"uto:{batch_id}", self._config.request_timeout)
        return effects

    def _merge_message(self, request_id: str, state: StateCRDT) -> Merge:
        """A MERGE, fingerprint-stamped when the anti-entropy probe is on."""
        if not self._config.anti_entropy:
            return Merge(request_id=request_id, state=state)
        from repro.wire.digest import fingerprint

        return Merge(
            request_id=request_id,
            state=state,
            digest=fingerprint(self._acceptor.state),
        )

    def on_merged(self, src: str, msg: Merged, now: float) -> Effects:
        effects = Effects()
        if self._config.anti_entropy:
            effects.merge(self._note_divergence(src, msg.diverged, now))
        batch = self._update_batches.get(msg.request_id)
        if batch is None:
            return effects
        if src not in batch.acked:
            batch.acked.add(src)
            # Progress: a previously silent peer answered — reset the
            # supervision backoff so re-drives stay snappy.
            batch.redrive_rounds = 0
        if self._quorum.is_quorum(batch.acked):
            effects.merge(self._complete_update(batch))
        return effects

    def _note_divergence(self, src: str, diverged: bool, now: float) -> Effects:
        """Anti-entropy repair loop (``config.anti_entropy``).

        Counts *consecutive* divergent MERGED acks per peer; at the
        threshold the peer gets one full-state MERGE (request id prefixed
        ``ae:`` — never a live batch id, so its ack certifies nothing and
        is dropped by the batch lookup), rate-limited per peer.  Any
        non-divergent ack resets the count: transient divergence is
        normal in delta mode (the peer may simply hold updates we lack;
        the query path heals *our* side).
        """
        if self._ae_divergent is None:
            self._ae_divergent = {}
            self._ae_last_push = {}
        if not diverged:
            self._ae_divergent[src] = 0
            return Effects()
        count = self._ae_divergent.get(src, 0) + 1
        self._ae_divergent[src] = count
        if count < self._config.anti_entropy_threshold:
            return Effects()
        assert self._ae_last_push is not None
        last = self._ae_last_push.get(src)
        if last is not None and now - last < self._config.anti_entropy_interval:
            return Effects()
        self._ae_last_push[src] = now
        self._ae_divergent[src] = 0
        self.stats.anti_entropy_pushes += 1
        effects = Effects()
        effects.send(
            src,
            # Full state, no digest: after the join the peer's state is a
            # superset of ours, so probing it against *our* digest would
            # read any extra updates it holds as divergence again.
            Merge(
                request_id=f"ae:{self.node_id}/{self._shared.next_batch()}",
                state=self._acceptor.state,
            ),
        )
        return effects

    def _complete_update(self, batch: _UpdateBatch) -> Effects:
        effects = Effects()
        del self._update_batches[batch.batch_id]
        effects.cancel_timer(f"uto:{batch.batch_id}")
        for item, tag in zip(batch.items, batch.tags):
            effects.send(
                item.client,
                UpdateDone(request_id=item.request_id, inclusion_tag=tag),
            )
            self.stats.updates_completed += 1
        self._updates_in_flight -= 1
        if (
            not self._config.batching
            and self._update_buffer
            and self._updates_in_flight < self._config.update_pipeline
        ):
            # Unbatched admission: each completion admits one queued
            # command as its own batch, preserving batch-of-one semantics.
            effects.merge(self._start_update_batch([self._update_buffer.pop(0)]))
        return effects

    # ------------------------------------------------------------------
    # Query path (prepare / vote)
    # ------------------------------------------------------------------
    def _start_query_batch(self, items: list[_QueryItem]) -> Effects:
        batch_id = f"{self.node_id}/q{self._shared.next_batch()}"
        batch = _QueryBatch(
            batch_id=batch_id,
            items=items,
            accumulator=MergeAccumulator(self._acceptor.state),
        )
        self._query_batches[batch_id] = batch
        self._query_in_flight = True
        effects = self._start_attempt(batch, self._config.initial_prepare)
        if self._config.request_timeout is not None and batch_id in self._query_batches:
            effects.set_timer(f"qto:{batch_id}", self._config.request_timeout)
        return effects

    def _start_attempt(self, batch: _QueryBatch, kind: str) -> Effects:
        """Send PREPAREs for a fresh attempt (incremental or fixed).

        Digest-first: once this proposer's payloads are large (see
        ``_sized``) the peers' PREPARE states the payload by its
        fingerprint, and a peer holding an equal state acks without
        shipping it back.  The co-located acceptor still gets the payload
        itself — handing it over costs nothing.
        """
        batch.attempt += 1
        batch.phase = "prepare"
        batch.acks = {}
        batch.voted = set()
        batch.proposed = None
        batch.round_trips += 1

        rid = self._shared.rid_gen.fresh()
        if kind == "incremental":
            round_ = Round.incremental(rid)
        else:
            round_ = Round(batch.max_round_number + 1, rid)
        batch.sent_round = round_

        stated: StateCRDT | None = None
        if self._config.include_state_in_prepare and not batch.accumulated.equivalent(
            self._initial_state
        ):
            stated = batch.accumulated
        batch.stated = stated

        message = Prepare(
            request_id=batch.batch_id,
            attempt=batch.attempt,
            round=round_,
            state=stated,
        )
        remote = message
        if stated is not None and (self._sized or stated.wire_blob() is not None):
            from repro.wire.digest import fingerprint

            remote = Prepare(
                request_id=batch.batch_id,
                attempt=batch.attempt,
                round=round_,
                state=fingerprint(stated),
            )
        effects = Effects()
        effects.broadcast(self._remotes, remote)
        # The co-located acceptor handles its PREPARE synchronously.
        local_reply = self._acceptor.handle_prepare(message)
        if isinstance(local_reply, PrepareAck):
            effects.merge(self.on_prepare_ack(self.node_id, local_reply, 0.0))
        else:
            effects.merge(self.on_prepare_nack(self.node_id, local_reply, 0.0))
        return effects

    def _current(self, request_id: str, attempt: int) -> _QueryBatch | None:
        batch = self._query_batches.get(request_id)
        if batch is None or batch.attempt != attempt:
            return None
        return batch

    def on_prepare_ack(self, src: str, msg: PrepareAck, now: float) -> Effects:
        batch = self._current(msg.request_id, msg.attempt)
        if batch is None or batch.phase != "prepare":
            return Effects()
        if src != self.node_id and src not in batch.acks:
            # Progress means a *peer* answered.  The co-located acceptor
            # acks synchronously on every fresh attempt, so counting it
            # would reset the supervision backoff each re-drive and a
            # partitioned minority proposer would re-prepare forever
            # instead of refusing at ``redrive_limit``.
            batch.redrive_rounds = 0  # see on_merged
        # ``None``: the acceptor holds exactly what this attempt stated
        # (digest-first match), so the stated object stands in for it.
        state = batch.stated if msg.state is None else msg.state
        batch.acks[src] = (msg.round, state)
        batch.accumulator.add(state)
        batch.max_round_number = max(batch.max_round_number, msg.round.number)
        if not self._quorum.is_quorum(batch.acks.keys()):
            return Effects()
        return self._evaluate_prepare_quorum(batch)

    def _evaluate_prepare_quorum(self, batch: _QueryBatch) -> Effects:
        """Lines 11–21: act on the first quorum of ACKs."""
        states = [state for _, state in batch.acks.values()]
        rounds = [round_ for round_, _ in batch.acks.values()]
        lub = join_all(states, source="prepare-quorum ack states")

        if self._config.fast_path and all(s.equivalent(lub) for s in states):
            # (a) learned by consistent quorum — the second phase is skipped.
            return self._learn(batch, lub, "fast")

        first = rounds[0]
        if all(r == first for r in rounds):
            # (b) consistent rounds: propose the LUB under that round.
            batch.phase = "vote"
            batch.proposed = lub
            batch.round_trips += 1
            message = Vote(
                request_id=batch.batch_id,
                attempt=batch.attempt,
                round=first,
                state=lub,
            )
            effects = Effects()
            effects.broadcast(self._remotes, message)
            local_reply = self._acceptor.handle_vote(message)
            if isinstance(local_reply, Voted):
                effects.merge(self.on_voted(self.node_id, local_reply, 0.0))
            else:
                effects.merge(self.on_vote_nack(self.node_id, local_reply, 0.0))
            return effects

        # (c) inconsistent rounds: retry with a fixed prepare above all
        # observed round numbers (only reachable from incremental prepares).
        self.stats.prepare_retries += 1
        return self._retry(batch, "fixed")

    def on_prepare_nack(self, src: str, msg: PrepareNack, now: float) -> Effects:
        batch = self._current(msg.request_id, msg.attempt)
        if batch is None or batch.phase != "prepare":
            return Effects()
        batch.accumulator.add(batch.stated if msg.state is None else msg.state)
        batch.max_round_number = max(batch.max_round_number, msg.round.number)
        self.stats.prepare_retries += 1
        return self._retry(batch, self._config.retry_prepare)

    def on_voted(self, src: str, msg: Voted, now: float) -> Effects:
        batch = self._current(msg.request_id, msg.attempt)
        if batch is None or batch.phase != "vote":
            return Effects()
        batch.voted.add(src)
        if self._quorum.is_quorum(batch.voted):
            assert batch.proposed is not None
            return self._learn(batch, batch.proposed, "vote")
        return Effects()

    def on_vote_nack(self, src: str, msg: VoteNack, now: float) -> Effects:
        batch = self._current(msg.request_id, msg.attempt)
        if batch is None or batch.phase != "vote":
            return Effects()
        batch.accumulator.add(msg.state)
        batch.max_round_number = max(batch.max_round_number, msg.round.number)
        self.stats.vote_retries += 1
        return self._retry(batch, self._config.retry_prepare)

    def _backoff_delay(self, base: float, rounds: int, token: str) -> float:
        """Jittered exponential backoff: ``base · multiplier^rounds``.

        Capped at ``backoff_cap``; the jitter fraction is derived from a
        CRC over ``token`` so it de-synchronizes duelling proposers (every
        token embeds the node id) while staying bit-identical across
        seeded runs (``hash()`` is salted per process, so it cannot be
        used here).
        """
        config = self._config
        delay = min(base * config.backoff_multiplier**rounds, config.backoff_cap)
        if config.backoff_jitter > 0.0:
            frac = (zlib.crc32(token.encode()) % 1000) / 999.0
            delay *= 1.0 + config.backoff_jitter * frac
        return delay

    def _retry(self, batch: _QueryBatch, kind: str) -> Effects:
        if self._config.retry_backoff > 0:
            # Park the batch; replies from the aborted attempt are ignored
            # by the phase guards until the retry timer fires.  The delay
            # grows exponentially with the attempt count (§3.5: growing
            # periods let duelling proposers drift apart) — the first
            # retry keeps the classic ``retry_backoff · backoff_factor``.
            batch.phase = "backoff"
            batch.proposed = None
            batch.sent_round = None
            batch.retry_kind = kind
            effects = Effects()
            effects.set_timer(
                f"retry:{batch.batch_id}",
                self._backoff_delay(
                    self._config.retry_backoff * self._shared.backoff_factor,
                    max(batch.attempt - 1, 0),
                    f"{batch.batch_id}:r{batch.attempt}",
                ),
            )
            return effects
        return self._start_attempt(batch, kind)

    def _learn(self, batch: _QueryBatch, state: StateCRDT, via: str) -> Effects:
        """Complete every query in the batch against the learned state."""
        if self._config.gla_stability:
            # §3.4: answer with the largest state ever learned here.  The
            # Consistency condition guarantees comparability.
            if self._learned_max is not None and not self._learned_max.compare(state):
                state = self._learned_max
            self._learned_max = state

        stated = batch.stated
        if not self._sized and stated is not None and stated.wire_blob() is not None:
            # The statement crossed the wire as a sized blob: this key's
            # payloads are large, so later queries state by fingerprint.
            self._sized = True

        effects = Effects()
        del self._query_batches[batch.batch_id]
        effects.cancel_timer(f"qto:{batch.batch_id}")
        learn_seq = self._shared.next_learn()
        if via == "fast":
            self.stats.fast_path_learns += 1
        else:
            self.stats.vote_learns += 1
        for item in batch.items:
            result = item.op.apply(state)
            effects.send(
                item.client,
                QueryDone(
                    request_id=item.request_id,
                    result=result,
                    round_trips=batch.round_trips,
                    attempts=batch.attempt,
                    learned_via=via,
                    proposer=self.node_id,
                    learn_seq=learn_seq,
                ),
            )
            self.stats.queries_completed += 1
        self._query_in_flight = False
        return effects

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def on_timer(self, key: str, now: float) -> Effects:
        if key == "flush":
            return self.on_flush_timer(now)
        if key.startswith("retry:"):
            batch = self._query_batches.get(key.removeprefix("retry:"))
            if batch is None or batch.phase != "backoff":
                return Effects()
            return self._start_attempt(batch, batch.retry_kind)
        if key.startswith("uto:"):
            return self._on_update_timeout(key.removeprefix("uto:"))
        if key.startswith("qto:"):
            return self._on_query_timeout(key.removeprefix("qto:"))
        return Effects()

    def _on_update_timeout(self, batch_id: str) -> Effects:
        batch = self._update_batches.get(batch_id)
        if batch is None:
            return Effects()
        self.stats.timeouts += 1
        limit = self._config.redrive_limit
        if limit is not None and batch.redrive_rounds >= limit:
            return self._refuse_update(batch)
        batch.redrive_rounds += 1
        effects = Effects()
        # Re-drive freshness: never resend the original (possibly stale)
        # batch payload.  The current acceptor state — or, in delta mode,
        # the accumulated delta — subsumes it, so a MERGED ack still
        # certifies durability of this batch's updates.
        if batch.redrive is not None:
            payload = batch.redrive.value
        else:
            payload = self._acceptor.state
        message = self._merge_message(batch.batch_id, payload)
        for peer in self._remotes:
            if peer not in batch.acked:
                effects.send(peer, message)
        effects.set_timer(
            f"uto:{batch_id}",
            self._backoff_delay(
                self._config.request_timeout or 1.0,
                batch.redrive_rounds,
                f"{batch_id}:u{batch.redrive_rounds}",
            ),
        )
        return effects

    def _on_query_timeout(self, batch_id: str) -> Effects:
        batch = self._query_batches.get(batch_id)
        if batch is None:
            return Effects()
        self.stats.timeouts += 1
        limit = self._config.redrive_limit
        if limit is not None and batch.redrive_rounds >= limit:
            return self._refuse_query(batch)
        batch.redrive_rounds += 1
        effects = self._start_attempt(batch, self._config.retry_prepare)
        if batch_id in self._query_batches:
            effects.set_timer(
                f"qto:{batch_id}",
                self._backoff_delay(
                    self._config.request_timeout or 1.0,
                    batch.redrive_rounds,
                    f"{batch_id}:q{batch.redrive_rounds}",
                ),
            )
        return effects

    # ------------------------------------------------------------------
    # Graceful refusal (redrive_limit exhausted without a quorum)
    # ------------------------------------------------------------------
    def _refuse_update(self, batch: _UpdateBatch) -> Effects:
        """Give up on an update batch: tell every waiting client *why*.

        Safe at any point: the updates are already applied at the local
        acceptor and may yet reach a quorum through later merges — the
        refusal only says "not promised durable"; no completion is
        fabricated and the client may retry verbatim (CRDT merges are
        idempotent, so a duplicate apply is harmless).
        """
        effects = Effects()
        del self._update_batches[batch.batch_id]
        effects.cancel_timer(f"uto:{batch.batch_id}")
        missing = len(self._remotes) + 1 - len(batch.acked)
        for item in batch.items:
            effects.send(
                item.client,
                Refused(
                    request_id=item.request_id,
                    code="quorum",
                    detail=f"no quorum after {batch.redrive_rounds} re-drives "
                    f"({missing} peers silent)",
                ),
            )
            self.stats.quorum_refusals += 1
        self._updates_in_flight -= 1
        if (
            not self._config.batching
            and self._update_buffer
            and self._updates_in_flight < self._config.update_pipeline
        ):
            effects.merge(self._start_update_batch([self._update_buffer.pop(0)]))
        return effects

    def _refuse_query(self, batch: _QueryBatch) -> Effects:
        """Give up on a query batch — nothing was learned, nothing is lost."""
        effects = Effects()
        del self._query_batches[batch.batch_id]
        effects.cancel_timer(f"qto:{batch.batch_id}")
        effects.cancel_timer(f"retry:{batch.batch_id}")
        for item in batch.items:
            effects.send(
                item.client,
                Refused(
                    request_id=item.request_id,
                    code="quorum",
                    detail=f"no prepare quorum after {batch.redrive_rounds} "
                    f"supervision rounds",
                ),
            )
            self.stats.quorum_refusals += 1
        self._query_in_flight = False
        return effects
