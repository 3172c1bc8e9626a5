"""Configuration of the CRDT Paxos protocol.

Defaults mirror the paper's base protocol; the optimizations of §3.6 and
the GLA-Stability extension of §3.4 are opt-in flags so experiments can
ablate them individually.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.crdt.base import StateCRDT
from repro.errors import ConfigurationError

#: Extracts an opaque inclusion token from (payload after update, replica).
InclusionTagger = Callable[[StateCRDT, str], Any]


@dataclass
class CrdtPaxosConfig:
    """Protocol knobs for one replica group.

    ``initial_prepare`` / ``retry_prepare``
        ``"incremental"`` leaves the round number ``⊥`` (always accepted;
        required for the eventual-liveness argument of §3.5) while
        ``"fixed"`` picks ``highest observed number + 1``.  The paper's
        proposers start incremental and retry incremental.
    ``fast_path``
        Enables learning by *consistent quorum* (§3.2 case (a)) — skipping
        the vote phase when a quorum answered with equivalent payloads.
        Disabling it is an ablation, not a recommended mode.
    ``include_state_in_prepare``
        Ship the proposer's local payload in PREPARE messages to speed up
        convergence (never ships ``s0``; §3.6).
    ``batching`` / ``batch_window``
        Per-proposer update and query batches (§3.6).  Buffered commands
        are applied locally; message count and size are independent of the
        batch size.
    ``update_pipeline``
        How many *update* batches one proposer may have in flight at once
        when batching.  CRDT merges commute and are idempotent, so update
        batches need no ordering between them — a new batch may be
        broadcast while earlier ones still await their quorum of MERGED
        acks, hiding the round-trip latency.  Queries stay single-flight
        per proposer: interleaving prepare rounds from one proposer would
        reintroduce the dueling-proposer hazard of the §3.5 liveness
        argument.  ``1`` (the default) reproduces the paper's
        stop-and-wait behaviour.
    ``gla_stability``
        §3.4: proposers remember their largest learned state so states
        learned at the same proposer increase monotonically even across
        concurrent (overlapping) queries.
    ``delta_merge``
        Extension (related-work pointer to delta-CRDTs): MERGE messages
        carry only the update's delta instead of the full payload.  A
        quorum still durably stores every completed update, so the §3.1
        conditions are preserved; payload convergence then relies on the
        query path.
    ``anti_entropy`` / ``anti_entropy_threshold`` / ``anti_entropy_interval``
        Delta-mode repair loop (requires ``delta_merge``).  Every MERGE
        carries the proposer's full-state digest; each MERGED ack says
        whether the acceptor's post-join state hashed differently.  A peer
        answering ``diverged`` ``anti_entropy_threshold`` consecutive
        times gets one full-state MERGE push (request id prefixed
        ``ae:``), rate-limited to one push per peer per
        ``anti_entropy_interval`` seconds.  This closes the delta-mode
        dissemination gap: a peer that missed a delta (dropped MERGE whose
        batch reached quorum without it) would otherwise stay divergent
        until the next query touches it.  Off by default — the probe costs
        a canonical encoding of every *new* full state on both sides (the
        digest is a CRC32 of the state's memoised wire blob, so a state
        already encoded for a PREPARE, or unchanged since the last probe,
        is fingerprinted without encoding it again; a small state, below
        the codec's sized crossover, is cheap to encode each time).
    ``request_timeout``
        Client-request supervision: how long a proposer waits before
        re-driving an open request (resending MERGEs / starting a fresh
        query attempt).  ``None`` disables (fine on lossless fabrics).
    ``retry_backoff``
        Delay before a failed query attempt is retried.  0 retries
        immediately, which matches the evaluation's behaviour.
    ``backoff_multiplier`` / ``backoff_cap`` / ``backoff_jitter``
        Adaptive supervision: each fruitless re-drive round (an update
        timeout with no new MERGED ack, a query timeout, a contended query
        retry, a rejoin re-broadcast that learned nothing) multiplies the
        next delay by ``backoff_multiplier``, capped at ``backoff_cap``
        seconds, with a deterministic per-request jitter of up to
        ``backoff_jitter`` (fraction of the delay) to de-synchronize
        duelling proposers (§3.5 observes growing timeouts restore
        liveness).  Progress — a new ack from a previously silent peer —
        resets the round counter.  ``backoff_multiplier=1.0`` reproduces
        the old fixed timers.
    ``redrive_limit``
        Give up gracefully: after this many consecutive fruitless re-drive
        rounds the proposer abandons the request and answers the client
        with ``Refused(code="quorum")`` instead of re-driving forever —
        the fail-fast half of partition tolerance.  ``None`` (default)
        keeps the retry-forever behaviour (correct, but a client behind a
        durable partition only ever observes its own timeout).
    ``inclusion_tagger``
        Optional extractor of inclusion tokens for the correctness checker
        (see :class:`~repro.core.messages.UpdateDone`).
    ``keyed_max_resident``
        Keyed deployments only: soft cap on fully materialized per-key
        instances one :class:`~repro.core.keyspace.KeyedCrdtReplica`
        keeps resident.  Past the cap, the least-recently-touched
        *quiescent* keys are demoted to a compact frozen record (payload +
        round watermark) and rehydrated on the next touch.  Safe without a
        log because the acceptor's durable state is exactly those two
        fields (§3.3); keys with open requests are never evicted.  ``None``
        (default) disables capacity eviction.
    ``keyed_idle_evict_s``
        Keyed deployments only: demote a quiescent key after this many
        seconds without a touch, swept periodically.  ``None`` (default)
        disables idle eviction.
    ``keyed_max_frozen``
        Keyed deployments only: soft cap on RAM-frozen records a
        :class:`~repro.core.keyspace.KeyedCrdtReplica` keeps before the
        oldest-frozen records are *spilled* — their ``(payload, round,
        learned-max)`` triple serialized to the replica's
        :class:`~repro.storage.base.SpillStore` and dropped from RAM,
        rehydrating transparently on the next touch.  Extends the same
        no-log safety argument to disk: the spilled triple is the
        acceptor's entire durable state (§3.3).  Requires a spill store
        to be attached; ``None`` (default) keeps every frozen record in
        RAM.
    ``keyed_coalesce_window``
        Keyed deployments only: buffer peer-bound :class:`Keyed` envelopes
        for up to this many seconds and flush them as one framed
        :class:`~repro.core.keyspace.KeyedBatch` per destination — at high
        key counts one replica emits many small per-key messages to the
        same peer per tick, and batching them amortizes the per-envelope
        overhead.  Replies to clients are never delayed.  ``None``
        (default) sends every envelope immediately.
    ``keyed_coalesce_adaptive`` / ``keyed_coalesce_min_window``
        Adapt the coalesce window to the observed per-peer traffic rate:
        an EWMA of the enqueue interval per destination sizes the next
        window at roughly eight envelopes' worth of arrivals, clamped to
        ``[keyed_coalesce_min_window, keyed_coalesce_window]`` — a hot
        peer flushes near the floor (latency), a trickling peer waits the
        full window (batching).  ``keyed_coalesce_min_window=None``
        defaults the floor to an eighth of the window.  Requires
        ``keyed_coalesce_window``.
    ``keyed_outbox_byte_budget``
        Flush a destination's parked envelopes early once their summed
        wire size exceeds this many bytes, regardless of the window —
        bounds both the burst one KeyedBatch frame puts on the wire and
        the staleness a byte-heavy peer accumulates.  ``None`` (default)
        leaves flushing purely time-driven.
    ``durability``
        Keyed deployments only: when a spill store is attached, how the
        §3.3 ``(payload, round)`` pair is persisted relative to the acks
        the replica emits.  ``"none"`` (default) persists only on
        demotion/``spill_all`` — a hard kill may lose promises.
        ``"write_through"`` and ``"group_sync"`` are one mechanism: a
        key's ``(payload, round, learned-max)`` triple is ``put`` inside
        the handling step, the step's certifying acks (MERGED /
        PREPARE-ACK / VOTED / the client's done messages / migration
        replies) park, and a sync tick flushes once for everything put
        since the last tick before releasing them — the log-less
        analogue of an acceptor's group-committed fsync; every ack a
        peer or client sees rests on durable state.  ``write_through``
        arms the tick at delay 0 (the end of the driver turn: the fsync
        is the batching window, batch size follows load);
        ``group_sync`` arms it ``durability_sync_window`` seconds out.
    ``durability_sync_window``
        The delay ``group_sync`` arms the sync tick with, i.e. how long
        acks may park before the batched flush releases them.  Under
        either durable mode it is also the retry cadence after a failed
        flush.
    """

    batching: bool = False
    batch_window: float = 0.005
    update_pipeline: int = 1
    initial_prepare: str = "incremental"
    retry_prepare: str = "incremental"
    retry_backoff: float = 0.0
    request_timeout: float | None = 1.0
    backoff_multiplier: float = 2.0
    backoff_cap: float = 30.0
    backoff_jitter: float = 0.1
    redrive_limit: int | None = None
    gla_stability: bool = False
    fast_path: bool = True
    include_state_in_prepare: bool = True
    delta_merge: bool = False
    anti_entropy: bool = False
    anti_entropy_threshold: int = 3
    anti_entropy_interval: float = 1.0
    inclusion_tagger: InclusionTagger | None = None
    keyed_max_resident: int | None = None
    keyed_max_frozen: int | None = None
    keyed_idle_evict_s: float | None = None
    keyed_coalesce_window: float | None = None
    keyed_coalesce_adaptive: bool = False
    keyed_coalesce_min_window: float | None = None
    keyed_outbox_byte_budget: int | None = None
    durability: str = "none"
    durability_sync_window: float = 0.002

    def __post_init__(self) -> None:
        for field_name in ("initial_prepare", "retry_prepare"):
            value = getattr(self, field_name)
            if value not in ("incremental", "fixed"):
                raise ConfigurationError(
                    f"{field_name} must be 'incremental' or 'fixed', got {value!r}"
                )
        if self.batch_window <= 0:
            raise ConfigurationError("batch_window must be positive")
        if self.update_pipeline < 1:
            raise ConfigurationError(
                f"update_pipeline must be >= 1, got {self.update_pipeline}"
            )
        if self.retry_backoff < 0:
            raise ConfigurationError("retry_backoff must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError(
                f"backoff_multiplier must be >= 1.0, got {self.backoff_multiplier}"
            )
        if self.backoff_cap <= 0:
            raise ConfigurationError("backoff_cap must be positive")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ConfigurationError(
                f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}"
            )
        if self.redrive_limit is not None and self.redrive_limit < 1:
            raise ConfigurationError(
                f"redrive_limit must be >= 1 or None, got {self.redrive_limit}"
            )
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ConfigurationError("request_timeout must be positive or None")
        if self.keyed_max_resident is not None and self.keyed_max_resident < 1:
            raise ConfigurationError(
                f"keyed_max_resident must be >= 1 or None, got {self.keyed_max_resident}"
            )
        if self.keyed_max_frozen is not None and self.keyed_max_frozen < 0:
            raise ConfigurationError(
                f"keyed_max_frozen must be >= 0 or None, got {self.keyed_max_frozen}"
            )
        if self.keyed_idle_evict_s is not None and self.keyed_idle_evict_s <= 0:
            raise ConfigurationError("keyed_idle_evict_s must be positive or None")
        if self.keyed_coalesce_window is not None and self.keyed_coalesce_window <= 0:
            raise ConfigurationError(
                "keyed_coalesce_window must be positive or None"
            )
        if self.anti_entropy and not self.delta_merge:
            raise ConfigurationError(
                "anti_entropy requires delta_merge (full-state MERGEs are "
                "their own anti-entropy)"
            )
        if self.anti_entropy_threshold < 1:
            raise ConfigurationError(
                f"anti_entropy_threshold must be >= 1, got {self.anti_entropy_threshold}"
            )
        if self.anti_entropy_interval <= 0:
            raise ConfigurationError("anti_entropy_interval must be positive")
        if self.keyed_coalesce_adaptive and self.keyed_coalesce_window is None:
            raise ConfigurationError(
                "keyed_coalesce_adaptive requires keyed_coalesce_window (the "
                "adaptive window's ceiling)"
            )
        if self.keyed_coalesce_min_window is not None:
            if self.keyed_coalesce_min_window <= 0:
                raise ConfigurationError(
                    "keyed_coalesce_min_window must be positive or None"
                )
            if (
                self.keyed_coalesce_window is not None
                and self.keyed_coalesce_min_window > self.keyed_coalesce_window
            ):
                raise ConfigurationError(
                    "keyed_coalesce_min_window must not exceed keyed_coalesce_window"
                )
        if self.keyed_outbox_byte_budget is not None and self.keyed_outbox_byte_budget < 1:
            raise ConfigurationError(
                f"keyed_outbox_byte_budget must be >= 1 or None, got "
                f"{self.keyed_outbox_byte_budget}"
            )
        if self.durability not in ("none", "write_through", "group_sync"):
            raise ConfigurationError(
                "durability must be 'none', 'write_through' or 'group_sync', "
                f"got {self.durability!r}"
            )
        if self.durability_sync_window <= 0:
            raise ConfigurationError("durability_sync_window must be positive")
