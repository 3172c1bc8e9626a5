"""Keyed CRDT store: many independent protocol instances on one replica.

The paper's implementation lives inside the Scalaris key-value store —
"linearizable access on CRDT data on a fine-granular scale" (§1).  This
module provides that deployment shape: a :class:`KeyedCrdtReplica` hosts
one protocol instance *per key*, created on first touch from a per-key
initial state.  Keys are completely independent — an update to
``"cart:42"`` never synchronizes with a read of ``"views:7"`` — which is
exactly why the fine-granular deployment scales: contention is per key,
not per store.

Wire format: client messages and the inter-replica protocol messages are
wrapped in :class:`Keyed` envelopes carrying the key; unwrapped handling
is delegated to the shared peer-message router
(:mod:`repro.core.router`) against the per-key acceptor/proposer pair.

Million-key scaling rests on three mechanisms:

* **Flyweight sharing** — all per-key-identical state (config, peer
  list, quorum system, round-id source, batching phase, stats sink)
  lives in one :class:`~repro.core.proposer.ProposerShared` per replica;
  a key's own footprint is its acceptor (payload + round + counters) and,
  only if it ever proposes, slim open-request bookkeeping.
* **Lazy proposers** — a key materializes its proposer on the first
  *local* client command.  Keys this replica only ever serves acceptor
  traffic for (every key has exactly one such replica per client in the
  common single-home pattern, and N-1 such replicas in general) stay
  proposer-free forever.
* **Cold-key eviction** — past ``config.keyed_max_resident`` (or after
  ``config.keyed_idle_evict_s`` without a touch) the least-recently
  touched *quiescent* keys are demoted to a compact frozen record and
  rehydrated on the next touch.
* **Frozen-record spill** — with a :class:`~repro.storage.base.SpillStore`
  attached and ``config.keyed_max_frozen`` set, the oldest RAM-frozen
  records past the cap serialize their ``(payload, round, learned-max)``
  triple to the store and leave RAM entirely; a touch rehydrates them
  transparently.  The keyspace is then bounded by storage, not RAM.

**Two-tier demotion** (every arrow is transparent to clients)::

      resident instance  --freeze-->  RAM-frozen record  --spill-->  SpillStore
      (acceptor [+ lazy      |        (payload, round,       |       (same triple,
       proposer])            |         learned-max)          |        serialized)
            ^                |              ^                |
            +---- touch -----+              +---- touch -----+
                (rehydrate)                   (load + decode)

**Why eviction — and spill — needs no log (safety argument).**  The
paper's acceptor is logless: its entire durable state is the lattice
payload ``s`` and the highest observed round ``r`` (§3.3, "memory
overhead of a single counter per replica").  A frozen key preserves
exactly that pair, so rehydration is indistinguishable from an acceptor
that simply received no messages in between — there is no log suffix to
lose and no applied index to corrupt.  The same argument extends the
pair to disk: a spilled record *is* the acceptor's durable state, so
recovery (:meth:`KeyedCrdtReplica.recover`) needs no replay — attach
the store and every key's state is already final (Zheng & Garg make the
identical observation for lattice-agreement RSMs: join-semilattice
state subsumes the log).  Proposer state is bookkeeping for *open*
requests only; eviction requires
:attr:`~repro.core.proposer.Proposer.idle` (no open batches, buffers or
armed flush), and the one cross-request proposer field, the §3.4
learned maximum, only strengthens overlapping queries — which would
themselves be open batches and block eviction.  The only state that
must *outlive* keys is the trio of node-wide monotone counters (batch
ids, learn sequence, round ids); ``spill_all`` persists their snapshot
as store metadata so a recovered node can never reuse an identifier a
stale in-flight message might still answer.

Timer routing stays O(1) in the number of keys (a namespace→key index,
maintained on proposer materialization, replaces any scan).

**GLA-Stability across eviction.**  The §3.4 learned maximum is
persisted in the frozen record next to the acceptor pair and seeds the
rehydrated proposer, so states learned at this node for one key stay
monotone in learn order across freeze/thaw generations (learn sequence
numbers already come from a node-wide counter).

**Surviving kill -9.**  ``config.durability`` turns the spill store into
the acceptor's fsync target.  Under ``write_through`` a key's triple is
``put`` inside the handling step, the step's certifying acks park, and a
sync tick armed at delay 0 ("the end of this driver turn") flushes once
for every key put since the last tick and then releases them, so no ack
escapes before a flush that covers the state it attests and every
message handled in one driver turn shares one fsync (see
:mod:`repro.storage` for the mode semantics).
A replica recovered from a store *without* those guarantees (no
clean-shutdown marker, dead generation ran ``durability="none"``) must
pass ``rejoin=True`` to :meth:`KeyedCrdtReplica.recover`: every stored
key is then refreshed from a read quorum — one §3.3 prepare, no log
shipping — before it serves traffic again (:meth:`rejoin`).
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Hashable

from repro.core.acceptor import Acceptor, AcceptorStats
from repro.core.config import CrdtPaxosConfig
from repro.core.messages import (
    ClientQuery,
    ClientUpdate,
    Merged,
    MigrateCommit,
    MigrateCommitAck,
    MigrateFreeze,
    MigrateFrozen,
    MigrateInstall,
    MigrateInstalled,
    Prepare,
    PrepareAck,
    PrepareNack,
    QueryDone,
    Refused,
    UpdateDone,
    Voted,
    WrongGroup,
)
from repro.core.proposer import Proposer, ProposerShared, ProposerStats
from repro.core.rounds import Round
from repro.core.router import dispatch_peer_message
from repro.crdt.base import StateCRDT
from repro.errors import ConfigurationError, StaleRecoveryError, StorageUnavailable
from repro.net.node import Effects, ProtocolNode
from repro.quorum.system import MajorityQuorum, QuorumSystem
from repro.storage.base import SpillRecord, SpillStore

#: Reserved timer key for the idle-eviction sweep.  Cannot collide with
#: per-key timers, which are always namespaced ``<repr(key)>|<timer>``
#: (a repr never equals this bare token).
_SWEEP_TIMER = "keyspace-sweep"

#: Reserved timer key for the group-commit flush (the durable sync tick).
_SYNC_TIMER = "keyspace-sync"

#: How long the sync tick waits before retrying a failed flush.  Must be
#: positive: a zero-delay re-arm against a sick disk would spin the
#: driver without ever letting time (and the heal) pass.
_SYNC_RETRY_DELAY = 0.002

#: Per-key timer token for re-driving an open quorum-rejoin refresh.
#: Namespaced like proposer timers (``<repr(key)>|rejoin``); proposer
#: timer keys are ``flush``/``retry:*``/``uto:*``/``qto:*``, so no clash.
_REJOIN_TIMER = "rejoin"

#: Proactive :meth:`KeyedCrdtReplica.rejoin` keeps at most this many key
#: refreshes open at once (each is one PREPARE per remote peer).  Sized
#: well under the transport's per-peer outbox so a cold start over
#: thousands of stored keys is never shed, and small enough that the
#: refreshing keys ride above the resident cap only briefly.
_REJOIN_WINDOW = 32

#: How far ahead of the persisted watermark the node-wide monotone
#: counters are reserved.  Persisting every bump would double the write
#: rate; instead the meta snapshot leases a margin and a recovered node
#: skips to the end of it (ids may be skipped, never reused).
_COUNTER_LEASE = 256

#: Message types whose receipt certifies durable state at this replica —
#: the protocol acks a learn certificate can rest on (MERGED /
#: PREPARE-ACK / VOTED) plus the client-visible completions.  The
#: migration replies belong here too: a MIGRATE-FROZEN snapshot, an
#: installed triple and a commit ack are promises the coordinator builds
#: the move on, so they must rest on persisted state.  Under a durable
#: mode these park until a flush covers the state they attest; requests
#: and nacks leak nothing a certificate can use, so they flow.
_CERTIFYING = (
    Merged,
    PrepareAck,
    Voted,
    UpdateDone,
    QueryDone,
    MigrateFrozen,
    MigrateInstalled,
    MigrateCommitAck,
)

#: Migration commands a replica handles from a coordinator (the replies
#: above are the coordinator's side of the conversation).
_MIGRATION_COMMANDS = (MigrateFreeze, MigrateInstall, MigrateCommit)


@dataclass(frozen=True, slots=True)
class Keyed:
    """Wrapper routing any protocol or client message to one key."""

    key: Hashable
    message: Any

    @property
    def request_id(self) -> Any:
        """Delegate correlation ids so request/reply clients (e.g. the
        asyncio client) can match keyed replies transparently."""
        return getattr(self.message, "request_id", None)


class _FrozenKey:
    """A demoted quiescent key: the acceptor's entire durable state.

    Payload plus round watermark — the paper's logless acceptor state,
    bit for bit — plus the §3.4 learned maximum when GLA-Stability is on,
    so the per-proposer monotonicity window survives freeze/thaw.
    Everything else about the instance is reconstructed on rehydration
    (observability counters restart at zero).
    """

    __slots__ = ("state", "round", "learned_max", "stored")

    def __init__(
        self,
        state: StateCRDT,
        round: Any,
        learned_max: StateCRDT | None = None,
        stored: bool = False,
    ) -> None:
        self.state = state
        self.round = round
        self.learned_max = learned_max
        #: The spill store already holds exactly this triple (the
        #: durable persist step wrote it), so demotion past the frozen
        #: cap drops the RAM record without writing it again.
        self.stored = stored


def _stamp_covers(stamp: tuple | None, acceptor: Acceptor, learned_max: Any) -> bool:
    """Is ``stamp`` (the last triple put for a key) exactly its current
    triple?  Identity on the immutable payloads, equality on the round."""
    return (
        stamp is not None
        and acceptor.state is stamp[0]
        and acceptor.round == stamp[1]
        and learned_max is stamp[2]
    )


class _KeyInstance:
    """One resident key's machinery: acceptor always, proposer lazily."""

    __slots__ = (
        "acceptor",
        "proposer",
        "touch_seq",
        "touched_at",
        "learned_max",
    )

    def __init__(self, acceptor: Acceptor) -> None:
        self.acceptor = acceptor
        self.proposer: Proposer | None = None
        #: Monotonic recency stamp (LRU order for capacity eviction).
        self.touch_seq = 0
        #: Driver time of the last message/timer touch (idle eviction).
        #: None until the first clocked touch — admissions via bare
        #: instance()/materialize_proposer() carry no clock.
        self.touched_at: float | None = None
        #: §3.4 learned maximum thawed from a frozen record, parked here
        #: until (unless) the key materializes a proposer to adopt it.
        self.learned_max: StateCRDT | None = None


class _RejoinState:
    """One key's open quorum refresh on a rejoining replica.

    Client commands arriving before the quorum answers are buffered and
    replayed through the normal path once the refreshed pair is in
    place; peer protocol requests are dropped (loss-tolerant by design)
    until then — a possibly-stale pair must not grant promises or votes.
    """

    __slots__ = ("request_id", "replied", "buffered", "rounds")

    def __init__(self, request_id: str) -> None:
        self.request_id = request_id
        self.replied: set[str] = set()
        self.buffered: list[tuple[str, Any]] = []
        #: Consecutive fruitless re-broadcast rounds (no new peer replied
        #: since the last one) — drives the jittered exponential backoff
        #: on the re-drive timer; reset whenever a new peer answers.
        self.rounds = 0


class _OutboundMigration:
    """A key frozen at this (source) replica, awaiting commit."""

    __slots__ = ("request_id", "epoch", "target")

    def __init__(self, request_id: str, epoch: int, target: str) -> None:
        self.request_id = request_id
        self.epoch = epoch
        self.target = target


class _InboundMigration:
    """A key installed at this (destination) replica, awaiting commit.

    Client commands arriving between install and commit buffer here:
    serving them early would let a destination read quorum form before
    the installed triple is replicated widely enough to be learned.
    """

    __slots__ = ("request_id", "epoch", "buffered")

    def __init__(
        self,
        request_id: str,
        epoch: int,
        buffered: list[tuple[str, Any]] | None = None,
    ) -> None:
        self.request_id = request_id
        self.epoch = epoch
        self.buffered: list[tuple[str, Any]] = buffered if buffered is not None else []


class GroupOwnership:
    """Which keys this replica's group serves — table plus migration marks.

    ``table`` is the routing table the replica was born under (duck-typed:
    ``.epoch`` and ``.owner(key)`` — see
    :class:`repro.sharding.routing.RoutingTable`); it never changes in
    place.  Every later change of ownership arrives as an explicit,
    epoch-stamped migration and leaves a per-key mark:

    * ``moved_out[key] = (epoch, target)`` — committed away; refuse with
      a forwarding :class:`~repro.core.messages.WrongGroup`.
    * ``moved_in[key] = epoch`` — committed here; serve even though the
      birth table says another group owns it (this is also how a group
      added *after* the ring was born acquires its keys: its replicas
      own nothing by default and accrue keys move by move).
    * ``freezing[key]`` — freeze received, commit pending: refuse
      clients with the forwarding hint, drop peer protocol traffic (a
      frozen replica must never ack again — that is what makes the
      coordinator's snapshot quorum intersect every completed update's
      write quorum).
    * ``incoming[key]`` — install received, commit pending: buffer
      client commands, drop peer traffic.

    ``max_epoch`` tracks the highest routing epoch this replica has
    attested; it is persisted in the spill meta (with the moved marks)
    so ownership survives recovery and only ever moves forward.
    """

    __slots__ = (
        "group",
        "table",
        "max_epoch",
        "moved_out",
        "moved_in",
        "freezing",
        "incoming",
    )

    def __init__(self, group: str, table: Any) -> None:
        self.group = group
        self.table = table
        self.max_epoch = int(table.epoch)
        self.moved_out: dict[Hashable, tuple[int, str]] = {}
        self.moved_in: dict[Hashable, int] = {}
        self.freezing: dict[Hashable, _OutboundMigration] = {}
        self.incoming: dict[Hashable, _InboundMigration] = {}

    def note_epoch(self, epoch: int) -> None:
        if epoch > self.max_epoch:
            self.max_epoch = epoch

    def owns(self, key: Hashable) -> bool:
        """Does this group serve the key (ignoring in-flight freezes)?"""
        if key in self.moved_in:
            return True
        return self.table.owner(key) == self.group

    def forward_hint(self, key: Hashable) -> tuple[int, str] | None:
        """The ``(epoch, owner)`` to refuse with, or None when served."""
        mark = self.moved_out.get(key)
        if mark is not None:
            return mark
        out = self.freezing.get(key)
        if out is not None:
            return (out.epoch, out.target)
        if not self.owns(key):
            return (self.table.epoch, self.table.owner(key))
        return None

    # -- spill-meta persistence -------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Ownership fields for the spill meta (see ``_write_meta``)."""
        return {
            "routing_epoch": self.max_epoch,
            "moved_out": [
                [key, epoch, target]
                for key, (epoch, target) in self.moved_out.items()
            ],
            "moved_in": [[key, epoch] for key, epoch in self.moved_in.items()],
            "migrating_out": [
                [key, out.request_id, out.epoch, out.target]
                for key, out in self.freezing.items()
            ],
        }

    def restore(self, meta: dict[str, Any]) -> None:
        """Fold a recovered meta snapshot in (forward-only epochs).

        Freeze marks are restored as freezes: a source replica that
        snapshotted, died and recovered must stay frozen — serving (or
        acking) again could complete an update the coordinator's already
        collected snapshot quorum never saw.  Inbound installs need no
        mark: the installed triple lives in the key's own spill record,
        and the re-driven commit re-marks moved-in.
        """
        self.note_epoch(int(meta.get("routing_epoch", 0)))
        for key, epoch, target in meta.get("moved_out", ()):  # type: ignore[misc]
            current = self.moved_out.get(key)
            if current is None or current[0] < epoch:
                self.moved_out[key] = (int(epoch), target)
        for key, epoch in meta.get("moved_in", ()):  # type: ignore[misc]
            if self.moved_in.get(key, -1) < epoch:
                self.moved_in[key] = int(epoch)
        for key, request_id, epoch, target in meta.get("migrating_out", ()):  # type: ignore[misc]
            out = self.freezing.get(key)
            if out is None or out.epoch < epoch:
                self.freezing[key] = _OutboundMigration(
                    request_id, int(epoch), target
                )


class KeyedCrdtReplica(ProtocolNode):
    """A replica hosting an independent CRDT Paxos instance per key.

    Parameters
    ----------
    initial_state_for:
        ``key → bottom payload`` factory; called once per key on first
        touch and must be deterministic across replicas (all members must
        agree on a key's type).
    """

    def __init__(
        self,
        node_id: str,
        peers: list[str],
        initial_state_for: Callable[[Hashable], StateCRDT],
        config: CrdtPaxosConfig | None = None,
        quorum: QuorumSystem | None = None,
        spill_store: SpillStore | None = None,
        ownership: GroupOwnership | None = None,
    ) -> None:
        super().__init__(node_id)
        if node_id not in peers:
            raise ValueError(f"node_id {node_id!r} must be listed in peers")
        self.peers = list(peers)
        self.config = config or CrdtPaxosConfig()
        self.quorum = quorum or MajorityQuorum(peers)
        self._initial_state_for = initial_state_for
        if self.config.keyed_max_frozen is not None and spill_store is None:
            raise ConfigurationError(
                "keyed_max_frozen requires a spill_store (frozen records "
                "past the cap must have somewhere to go)"
            )
        if self.config.durability != "none" and spill_store is None:
            raise ConfigurationError(
                f"durability={self.config.durability!r} requires a spill_store "
                "(persist-before-ack must have somewhere to write)"
            )
        self._spill_store = spill_store
        self._durability = self.config.durability
        #: Sharded deployments: which keys this replica's group serves
        #: (None = unsharded, every key is ours — today's behaviour).
        self._ownership = ownership
        #: Flyweight context shared by every per-key proposer (stats too:
        #: the counters aggregate across keys, one sink per replica).
        self._shared = ProposerShared(
            node_id, self.peers, self.quorum, self.config, stats=ProposerStats()
        )
        #: One acceptor-stats sink per replica too (counters aggregate).
        self._acceptor_stats = AcceptorStats()
        self._resident: dict[Hashable, _KeyInstance] = {}
        self._frozen: dict[Hashable, _FrozenKey] = {}
        self._remote_peers = frozenset(peers) - {node_id}
        #: Timer-namespace index: ``repr(key)`` → key.  Keeps
        #: :meth:`on_timer` O(1) in the number of keys.  Registered only
        #: when a key materializes a proposer — acceptor-only keys never
        #: arm timers, so they never pay the repr-string entry.
        self._namespaces: dict[str, Hashable] = {}
        self._touch_seq = 0
        #: Lazy min-heap over (touch_seq, key): capacity eviction and the
        #: idle sweep pop the genuinely oldest entries instead of sorting
        #: the whole resident set.  Entries whose key was re-touched are
        #: stale (the instance's touch_seq moved on) and discarded on pop.
        self._evict_heap: list[tuple[int, Hashable]] = []
        #: Durability stamps, kept beside the instances
        #: rather than on them: the last (payload, round, learned-max)
        #: triple persisted per key, so the per-step persist hook is a
        #: no-op when the step changed nothing.  A side table because
        #: only durable builds pay for it — the flyweight density rail
        #: covers ``durability="none"``, where this stays empty.
        self._durable_stamps: dict[Hashable, tuple] = {}
        #: Group commit: certifying acks wait here until a flush covers
        #: the state they attest.  The sync tick is armed at delay 0 —
        #: "the end of this driver turn", so the fsync itself is the
        #: batching window.
        self._sync_parked: list[tuple[str, Keyed]] = []
        self._sync_dirty = False
        self._sync_armed = False
        #: Durable-generation bookkeeping: bumped on every recover and
        #: stamped into spill meta, so artifacts of a dead generation
        #: (rejoin request ids, stale stores) are distinguishable.
        self._node_epoch = 0
        self._dirty_marked = False
        self._counter_watermarks: dict[str, int] = {}
        #: Quorum re-join: keys recovered from a possibly-stale store that
        #: must refresh their pair from a read quorum before first use.
        self._rejoin_pending: set[Hashable] = set()
        self._rejoin_active: dict[Hashable, _RejoinState] = {}
        #: Pending keys a proactive :meth:`rejoin` has yet to open, in
        #: opening order (popped from the end); empty unless one runs.
        self._rejoin_queue: list[Hashable] = []
        self._rejoin_seq = 0
        #: Sharding observability: client commands refused with a
        #: forwarding WrongGroup, and migrations committed out of / into
        #: this replica's group at this replica.
        self.wrong_group_refusals = 0
        self.migrations_out = 0
        self.migrations_in = 0
        #: Eviction observability.
        self.evictions = 0
        self.rehydrations = 0
        #: Heap pops performed by eviction/sweep passes — the O(evicted)
        #: bound on sweep work is asserted against this.
        self.evict_scan_ops = 0
        #: Spill-tier observability: records demoted to / loaded from the
        #: spill store (spill_loads also count toward rehydrations).  A
        #: demotion whose triple a durable persist already wrote counts
        #: as a spill but costs no second put.
        self.spills = 0
        self.spill_loads = 0
        #: Durability observability: in-step persists (puts) of a key's
        #: triple, sync-tick flushes that covered them, the certifying
        #: acks those flushes released (persists / commits = steps per
        #: fsync), and per-key quorum refreshes completed by a rejoining
        #: replica.
        self.write_through_persists = 0
        self.group_commits = 0
        self.group_commit_acks = 0
        self.rejoin_refreshes = 0
        #: Handling steps whose persist failed: certifying acks were
        #: suppressed and client completions answered with
        #: ``Refused(code="storage")`` instead of escaping un-durable.
        self.persist_refusals = 0

    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        spill_store: SpillStore,
        node_id: str,
        peers: list[str],
        initial_state_for: Callable[[Hashable], StateCRDT],
        config: CrdtPaxosConfig | None = None,
        quorum: QuorumSystem | None = None,
        rejoin: bool = False,
        ownership: GroupOwnership | None = None,
    ) -> "KeyedCrdtReplica":
        """Rebuild a replica purely from its spill store after a restart.

        Recovery is O(1) in the number of keys: no record is replayed or
        even read — every spilled ``(payload, round, learned-max)``
        triple *is* its key's final durable state (§3.3; there is no
        log), so keys stay in the store and rehydrate lazily on first
        touch.  The only eagerly restored state is the store's metadata
        snapshot of the node-wide monotone counters (batch ids, learn
        sequence, round ids), which must survive the restart so the new
        process generation cannot reuse an identifier a stale in-flight
        message might still answer.

        Whether the store is *trustworthy* depends on how the previous
        generation died.  A clean-shutdown marker (written by
        :meth:`spill_all`) or a generation that ran write-through
        durability means every externally visible promise is in the
        store; otherwise the records may predate promises the dead
        process made after its last write, and serving them directly
        could break linearizability — :class:`StaleRecoveryError` is
        raised unless ``rejoin=True``, which instead marks every stored
        key pending a read-quorum refresh (a §3.3 prepare) before it is
        served (see :meth:`rejoin`).
        """
        replica = cls(
            node_id,
            peers,
            initial_state_for,
            config,
            quorum,
            spill_store=spill_store,
            ownership=ownership,
        )
        meta = spill_store.get_meta()
        if meta is not None:
            replica._shared.restore_counters(meta)
            if ownership is not None:
                # Routing epochs and moved-out/frozen marks are part of
                # the durable state: a recovered source replica must keep
                # refusing (and must stay frozen) for keys that migrated
                # away while it was alive — or mid-kill.
                ownership.restore(meta)
        clean = (
            meta.get("clean_shutdown") is True
            if meta is not None
            else len(spill_store) == 0
        )
        dead_mode = meta.get("durability", "none") if meta is not None else "none"
        if not clean and not rejoin and dead_mode == "none":
            raise StaleRecoveryError(
                f"spill store for {node_id!r} has no clean-shutdown marker and "
                "the dead generation did not run write-through durability; its "
                "records may predate promises that escaped before the crash — "
                "recover with rejoin=True to refresh each key from a read "
                "quorum before serving it"
            )
        replica._node_epoch = (
            int(meta.get("node_epoch", 0)) if meta is not None else 0
        ) + 1
        if rejoin and not replica.quorum.is_quorum({node_id}):
            # When this node alone is a read quorum (single-member
            # group) there is no peer to refresh from — and none whose
            # certificate could outrun the local pair — so rejoin
            # degenerates to a plain recovery.
            replica._rejoin_pending = set(spill_store.keys())
        if not clean or replica._durability != "none":
            # This generation is live (and may itself die hard): persist
            # the bumped epoch and an opened-dirty marker up front.
            replica._write_meta(clean=False)
            if replica._durability != "none":
                spill_store.flush()
        return replica

    @property
    def stats(self) -> ProposerStats:
        """Aggregate proposer counters across every key (flyweight sink)."""
        return self._shared.stats

    @property
    def acceptor_stats(self) -> AcceptorStats:
        """Aggregate acceptor counters across every key."""
        return self._acceptor_stats

    def instance(self, key: Hashable, now: float | None = None) -> _KeyInstance:
        """The per-key machinery, created (or rehydrated) on first touch.

        Capacity eviction deliberately does NOT run here: the caller may
        be mid-delivery, about to open protocol state on this instance,
        and evicting it (or a key the caller also holds) under its feet
        would orphan that state.  :meth:`on_message`/:meth:`on_timer`
        evict *after* the handling step, when open requests are visible
        to the quiescence check.
        """
        inst = self._resident.get(key)
        if inst is None:
            inst = self._admit(key)
        self._note_touch(key, inst, now)
        return inst

    def _note_touch(self, key: Hashable, inst: _KeyInstance, now: float | None) -> None:
        """Bump a key's recency and record it in the eviction heap.

        The heap is lazy: a re-touched key's older entries stay behind
        and are discarded when popped (the stamp no longer matches).
        When stale entries outnumber residents ~4:1 the heap is rebuilt
        from the resident set, keeping its size O(resident) amortized.
        """
        self._touch_seq += 1
        inst.touch_seq = self._touch_seq
        if now is not None:
            inst.touched_at = now
        heap = self._evict_heap
        heapq.heappush(heap, (self._touch_seq, key))
        if len(heap) > 4 * len(self._resident) + 64:
            self._evict_heap = [
                (resident.touch_seq, resident_key)
                for resident_key, resident in self._resident.items()
            ]
            heapq.heapify(self._evict_heap)

    def _admit(self, key: Hashable) -> _KeyInstance:
        frozen = self._frozen.pop(key, None)
        if frozen is None and self._spill_store is not None:
            # Second demotion tier: the key may live in the spill store
            # (either spilled by this generation or recovered from a
            # previous one).  The loaded triple is bit-for-bit the frozen
            # record, so rehydration is the same code path.
            record = self._spill_store.get(key)
            if record is not None:
                frozen = _FrozenKey(
                    record.state, record.round, record.learned_max, stored=True
                )
                self.spill_loads += 1
        if frozen is not None:
            acceptor = Acceptor(
                frozen.state, round=frozen.round, stats=self._acceptor_stats
            )
            self.rehydrations += 1
        else:
            acceptor = Acceptor(
                self._initial_state_for(key), stats=self._acceptor_stats
            )
        inst = _KeyInstance(acceptor)
        if frozen is not None:
            inst.learned_max = frozen.learned_max
        # The admitted snapshot counts as durable when the store holds
        # it (a loaded triple, or a thawed one whose last persist
        # landed) or when it is a fresh bottom, reconstructible from
        # initial_state_for alone.  A thawed record whose last persist
        # failed gets no stamp: its next step re-puts the full triple.
        if self._durability != "none" and (frozen is None or frozen.stored):
            self._durable_stamps[key] = (
                acceptor.state,
                acceptor.round,
                inst.learned_max,
            )
        self._resident[key] = inst
        return inst

    def _materialize(self, key: Hashable, inst: _KeyInstance) -> Proposer:
        """Build the key's proposer on its first local client command."""
        if inst.proposer is None:
            inst.proposer = Proposer(
                self._shared,
                inst.acceptor,
                self._initial_state_for(key),
                learned_max=inst.learned_max,
            )
            # First registration wins, matching the old first-match scan
            # for (pathological) distinct keys sharing a repr.
            self._namespaces.setdefault(repr(key), key)
        return inst.proposer

    def materialize_proposer(self, key: Hashable) -> Proposer:
        """Public hook (benchmarks, warm-up): force a key's proposer."""
        return self._materialize(key, self.instance(key))

    def keys(self) -> list[Hashable]:
        known: dict[Hashable, None] = dict.fromkeys(self._resident)
        known.update(dict.fromkeys(self._frozen))
        if self._spill_store is not None:
            # A rehydrated key may still hold a (stale) spilled record;
            # the dict union dedupes it.
            known.update(dict.fromkeys(self._spill_store.keys()))
        return list(known)

    def resident_count(self) -> int:
        return len(self._resident)

    def frozen_count(self) -> int:
        return len(self._frozen)

    def spilled_count(self) -> int:
        """Records currently held by the spill store (may include stale
        copies of keys that have since been rehydrated; refreshed on the
        next spill of those keys)."""
        return len(self._spill_store) if self._spill_store is not None else 0

    def state_of(self, key: Hashable) -> StateCRDT:
        """Diagnostic peek at a key's payload — never admits or rehydrates.

        Checks the three tiers in order (resident, RAM-frozen, spilled);
        a key this replica has never seen answers with its bottom
        element, exactly what a fresh admission would hold, without
        creating one (a monitoring scan over a watchlist must not grow
        the resident set past its cap).
        """
        resident = self._resident.get(key)
        if resident is not None:
            return resident.acceptor.state
        frozen = self._frozen.get(key)
        if frozen is not None:  # no rehydration churn
            return frozen.state
        if self._spill_store is not None:
            record = self._spill_store.get(key)
            if record is not None:  # decode without admitting
                return record.state
        return self._initial_state_for(key)

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _freeze(self, key: Hashable, inst: _KeyInstance) -> bool:
        """Demote one quiescent key to its frozen record; False if busy."""
        proposer = inst.proposer
        if proposer is not None and not proposer.idle:
            return False
        # Persist the §3.4 learned maximum alongside the acceptor pair —
        # either the live proposer's or one thawed earlier that never got
        # adopted (the key froze again before proposing locally).
        learned_max = (
            proposer.learned_max if proposer is not None else inst.learned_max
        )
        acceptor = inst.acceptor
        stamp = self._durable_stamps.pop(key, None)
        self._frozen[key] = _FrozenKey(
            acceptor.state,
            acceptor.round,
            learned_max,
            stored=_stamp_covers(stamp, acceptor, learned_max),
        )
        del self._resident[key]
        namespace = repr(key)
        if self._namespaces.get(namespace) == key:
            del self._namespaces[namespace]
        self.evictions += 1
        return True

    def _evict_excess(self) -> None:
        cap = self.config.keyed_max_resident
        if cap is None or len(self._resident) <= cap:
            return
        # Demote ~10% below the cap (at least one extra) so a store
        # sitting at capacity does not rework the heap on every admission.
        # The heap pops the genuinely least-recently-touched keys — cost
        # O(evicted · log n) plus stale entries (amortized against their
        # pushes) instead of the old full O(n log n) sort.  Busy keys are
        # deferred back onto the heap — the cap is soft by design; open
        # protocol requests pin their instances until they quiesce.
        target = (len(self._resident) - cap) + max(1, cap // 10)
        heap = self._evict_heap
        deferred: list[tuple[int, Hashable]] = []
        while target > 0 and heap:
            seq, key = heapq.heappop(heap)
            self.evict_scan_ops += 1
            inst = self._resident.get(key)
            if inst is None or inst.touch_seq != seq:
                continue  # stale: evicted already or re-touched since
            if self._freeze(key, inst):
                target -= 1
            else:
                deferred.append((seq, key))
        for entry in deferred:
            heapq.heappush(heap, entry)
        self._spill_excess()

    def _spill_excess(self) -> None:
        """Second demotion tier: oldest RAM-frozen records past
        ``keyed_max_frozen`` serialize to the spill store and leave RAM.

        Freeze order is dict insertion order, so iteration from the
        front spills the records frozen longest ago — the coldest of the
        cold.  Safe by the same §3.3 argument as freezing itself: the
        serialized triple is the acceptor's entire durable state.
        """
        cap = self.config.keyed_max_frozen
        if cap is None or len(self._frozen) <= cap:
            return
        store = self._spill_store
        assert store is not None  # enforced at construction
        overflow = len(self._frozen) - cap
        for key in list(self._frozen)[:overflow]:
            frozen = self._frozen.pop(key)
            if not frozen.stored:
                try:
                    store.put(
                        key,
                        SpillRecord(frozen.state, frozen.round, frozen.learned_max),
                    )
                except (StorageUnavailable, OSError):
                    # Disk brownout: keep the record in RAM (the frozen
                    # cap is soft, like the resident one) and stop
                    # demoting — the store is sick, later pressure retries.
                    self._frozen[key] = frozen
                    self.persist_refusals += 1
                    return
            self.spills += 1

    def spill_all(self) -> Effects:
        """Persist a complete durable snapshot (shutdown/kill hook).

        Writes *every* key's ``(payload, round, learned-max)`` triple to
        the spill store: frozen records are spilled and dropped from RAM,
        quiescent resident keys are frozen, spilled and dropped, and busy
        resident keys (open batches pin them) are snapshotted but stay
        resident — their open client requests die with the process,
        exactly like a crash, but their acceptor state is durable.  A
        triple a durable persist already put is not put again.  Finally
        the shared monotone counters are persisted as store metadata and
        the store is flushed.

        Returns the group-commit acks this releases; a driver shutting
        the node down should still deliver them (they are acks and
        replies that "made it out" before the process died).
        """
        store = self._spill_store
        if store is None:
            raise ConfigurationError(
                "spill_all requires a spill_store attached to this replica"
            )
        effects = Effects()
        # Release group-commit-parked acks: the store is flushed below,
        # *before* the driver executes these effects, so every released
        # ack still rests on durable state.
        for dst, keyed in self._sync_parked:
            effects.send(dst, keyed)
        self._sync_parked = []
        self._sync_dirty = False
        for key, frozen in list(self._frozen.items()):
            if not frozen.stored:
                store.put(
                    key, SpillRecord(frozen.state, frozen.round, frozen.learned_max)
                )
            del self._frozen[key]
            self.spills += 1
        for key, inst in list(self._resident.items()):
            proposer = inst.proposer
            learned_max = (
                proposer.learned_max if proposer is not None else inst.learned_max
            )
            acceptor = inst.acceptor
            if not _stamp_covers(self._durable_stamps.get(key), acceptor, learned_max):
                store.put(
                    key, SpillRecord(acceptor.state, acceptor.round, learned_max)
                )
            self.spills += 1
            if self._freeze(key, inst):
                # Quiescent: _freeze moved it to the frozen dict (and
                # cleaned up its namespace entry); it is already spilled,
                # so drop the RAM record too.
                del self._frozen[key]
        self._write_meta(clean=True)
        store.flush()
        return effects

    def flush(self) -> Effects:
        """Operator-side maintenance flush (the api ``Store.flush()``).

        With a spill store attached, persists the full durable snapshot
        via :meth:`spill_all` and returns the acks it releases; without
        one there is nothing to flush.
        """
        if self._spill_store is not None:
            return self.spill_all()
        return Effects()

    def _sweep(self, now: float) -> Effects:
        """Idle eviction, O(evicted) per sweep instead of O(resident).

        Touch sequence order and clock order agree (driver time is
        monotone and every clocked touch bumps the sequence), so the
        heap's front is the oldest-touched resident: the sweep pops until
        it meets an entry younger than the cutoff and stops — untouched
        younger keys are never even looked at.  Keys that cannot freeze
        (busy, or admitted without a clock) are re-stamped and deferred
        behind current traffic.
        """
        effects = Effects()
        idle_s = self.config.keyed_idle_evict_s
        if idle_s is None:
            return effects
        cutoff = now - idle_s
        heap = self._evict_heap
        deferred: list[tuple[int, Hashable]] = []
        while heap:
            seq, key = heap[0]
            inst = self._resident.get(key)
            if inst is None or inst.touch_seq != seq:
                heapq.heappop(heap)
                self.evict_scan_ops += 1
                continue
            if inst.touched_at is not None and inst.touched_at > cutoff:
                break  # everything behind it is younger still
            heapq.heappop(heap)
            self.evict_scan_ops += 1
            if inst.touched_at is None:
                # Admitted without a clock (warm-up via instance() or
                # materialize_proposer()): start its idle window at this
                # sweep instead of freezing the just-warmed key.
                inst.touched_at = now
                self._touch_seq += 1
                inst.touch_seq = self._touch_seq
                deferred.append((inst.touch_seq, key))
            elif not self._freeze(key, inst):
                # Busy: re-sort behind current traffic and retry later.
                self._touch_seq += 1
                inst.touch_seq = self._touch_seq
                deferred.append((inst.touch_seq, key))
        for entry in deferred:
            heapq.heappush(heap, entry)
        self._spill_excess()
        effects.set_timer(_SWEEP_TIMER, idle_s)
        return effects

    # ------------------------------------------------------------------
    def on_start(self, now: float) -> Effects:
        effects = Effects()
        if self.config.keyed_idle_evict_s is not None:
            effects.set_timer(_SWEEP_TIMER, self.config.keyed_idle_evict_s)
        # Crash recovery loses timers but not internal state: acks parked
        # for group commit must get a fresh sync tick.
        self._sync_armed = False
        if self._sync_dirty or self._sync_parked:
            self._sync_armed = True
            effects.set_timer(_SYNC_TIMER, 0.0)
        return effects

    def on_message(self, src: str, message: Any, now: float) -> Effects:
        if not isinstance(message, Keyed):
            return Effects()  # unkeyed traffic is not ours
        key = message.key
        inner = message.message
        if self._ownership is not None:
            if isinstance(inner, _MIGRATION_COMMANDS):
                return self._on_migration_message(key, src, inner, now)
            gated = self._ownership_gate(key, src, inner)
            if gated is not None:
                return gated
        instance = self.instance(key, now)

        rejoining = self._rejoin_pending and key in self._rejoin_pending
        if rejoining:
            effects = self._rejoin_gate(key, instance, src, inner, now)
        elif isinstance(inner, (ClientUpdate, ClientQuery)):
            effects = self._handle_client(key, instance, src, inner, now)
        else:
            effects = self._on_peer_message(instance, src, inner, now)
        # Persist-before-ack: the key's triple is put here, and _wrap
        # parks the step's certifying acks until the sync tick's flush
        # covers it — the log-less analogue of an acceptor fsyncing
        # before its reply escapes, one fsync per driver turn.
        if not self._persist_step(key, instance):
            effects = self._suppress_unpersisted(effects)
        wrapped = self._wrap(key, effects)
        if rejoining and self._rejoin_queue:
            # A refresh may just have completed: keep the proactive
            # rejoin's window full.
            self._rejoin_fill(wrapped)
        self._evict_excess()
        return wrapped

    def _handle_client(
        self, key: Hashable, instance: _KeyInstance, src: str, inner: Any, now: float
    ) -> Effects:
        if isinstance(inner, ClientUpdate):
            return self._materialize(key, instance).client_update(
                src, inner.request_id, inner.op, now
            )
        return self._materialize(key, instance).client_query(
            src, inner.request_id, inner.op, now
        )

    def _on_peer_message(
        self, instance: _KeyInstance, src: str, inner: Any, now: float
    ) -> Effects:
        effects = dispatch_peer_message(
            instance.acceptor, instance.proposer, src, inner, now
        )
        return effects if effects is not None else Effects()

    # ------------------------------------------------------------------
    # Sharded ownership (repro.sharding)
    # ------------------------------------------------------------------
    def _client_command(
        self, key: Hashable, inst: _KeyInstance, src: str, inner: Any, now: float
    ) -> Effects:
        """Serve, buffer or refuse one client command, ownership-aware.

        The replay paths (rejoin refresh, migration commit) must come
        back through this check too: ownership may have changed while a
        command sat buffered — a key can finish its quorum refresh only
        to discover an install landed meanwhile.
        """
        own = self._ownership
        if own is not None:
            hint = own.forward_hint(key)
            if hint is not None:
                self.wrong_group_refusals += 1
                effects = Effects()
                effects.send(
                    src,
                    WrongGroup(
                        request_id=inner.request_id, epoch=hint[0], group=hint[1]
                    ),
                )
                return effects
            incoming = own.incoming.get(key)
            if incoming is not None:
                incoming.buffered.append((src, inner))
                return Effects()
        return self._handle_client(key, inst, src, inner, now)

    def _ownership_gate(
        self, key: Hashable, src: str, inner: Any
    ) -> Effects | None:
        """Consume traffic for keys this group does not serve.

        Returns wrapped effects when the gate handled the message, None
        when the key is owned and the normal path should run.  Client
        commands for unowned keys refuse with a forwarding
        :class:`WrongGroup` *without admitting the key* (a moved-out key
        must not be resurrected as a fresh bottom instance by stray
        traffic); peer protocol messages for frozen or moved-out keys
        are dropped — a frozen replica that granted one more promise or
        ack would break the snapshot-quorum intersection argument.
        """
        own = self._ownership
        is_client = isinstance(inner, (ClientUpdate, ClientQuery))
        hint = own.forward_hint(key)
        if hint is not None:
            if is_client:
                self.wrong_group_refusals += 1
                effects = Effects()
                effects.send(
                    src,
                    WrongGroup(
                        request_id=inner.request_id, epoch=hint[0], group=hint[1]
                    ),
                )
                return self._wrap(key, effects)
            return Effects()  # peer traffic for a key we no longer serve
        incoming = own.incoming.get(key)
        if incoming is not None:
            if is_client:
                incoming.buffered.append((src, inner))
            return Effects()  # buffered until commit; peer traffic drops
        return None

    def _on_migration_message(
        self, key: Hashable, src: str, inner: Any, now: float
    ) -> Effects:
        """Handle one coordinator command (freeze / install / commit).

        Every reply here is certifying (the coordinator builds the move
        on it), so the persist-before-ack discipline applies: the key's
        triple *and* the ownership marks go to the store before the
        reply escapes, and a failed persist suppresses it — the
        coordinator re-drives, exactly like a lost message.
        """
        own = self._ownership
        own.note_epoch(inner.epoch)
        if isinstance(inner, MigrateFreeze):
            return self._on_migrate_freeze(key, src, inner, now)
        if isinstance(inner, MigrateInstall):
            return self._on_migrate_install(key, src, inner, now)
        return self._on_migrate_commit(key, src, inner, now)

    def _on_migrate_freeze(
        self, key: Hashable, src: str, inner: MigrateFreeze, now: float
    ) -> Effects:
        own = self._ownership
        mark = own.moved_out.get(key)
        if mark is not None and mark[0] >= inner.epoch:
            # The move already committed here; nothing left to snapshot.
            # The coordinator is past freeze (it sent the commit), so
            # this is a stale re-drive — drop it.
            return Effects()
        if self._rejoin_pending and key in self._rejoin_pending:
            # A possibly-stale pair must not be snapshotted: its record
            # may predate acks the dead generation gave away.  Kick the
            # quorum refresh and let the coordinator re-drive the freeze
            # (it only needs a quorum of source snapshots, which the
            # still-live peers provide meanwhile).
            inst = self.instance(key, now)
            effects = Effects()
            if key not in self._rejoin_active:
                self._start_rejoin(key, inst, effects)
            return self._wrap(key, effects)
        out = own.freezing.get(key)
        if out is None or out.epoch < inner.epoch:
            out = _OutboundMigration(inner.request_id, inner.epoch, inner.target)
            own.freezing[key] = out
        inst = self.instance(key, now)
        proposer = inst.proposer
        learned_max = (
            proposer.learned_max if proposer is not None else inst.learned_max
        )
        effects = Effects()
        effects.send(
            src,
            MigrateFrozen(
                request_id=out.request_id,
                epoch=out.epoch,
                round=inst.acceptor.round,
                state=inst.acceptor.state,
                learned_max=learned_max,
            ),
        )
        if not (self._persist_step(key, inst) and self._persist_marks()):
            effects = self._suppress_unpersisted(effects)
        wrapped = self._wrap(key, effects)
        self._evict_excess()
        return wrapped

    def _on_migrate_install(
        self, key: Hashable, src: str, inner: MigrateInstall, now: float
    ) -> Effects:
        own = self._ownership
        effects = Effects()
        if own.moved_in.get(key, -1) >= inner.epoch:
            # Commit already landed here; the re-driven install only
            # needs its (idempotent) ack.
            effects.send(
                src,
                MigrateInstalled(request_id=inner.request_id, epoch=inner.epoch),
            )
            return self._wrap(key, effects)
        mark = own.moved_out.get(key)
        if mark is not None and mark[0] < inner.epoch:
            del own.moved_out[key]  # the key is migrating back to us
        incoming = own.incoming.get(key)
        if incoming is None or incoming.epoch < inner.epoch:
            buffered = incoming.buffered if incoming is not None else None
            incoming = _InboundMigration(inner.request_id, inner.epoch, buffered)
            own.incoming[key] = incoming
        # Rejoin-style refresh, pointed at another group's quorum: fold
        # the joined snapshot into the local pair (join / max).  Joining
        # is monotone, so this is safe even on a rejoin-pending pair.
        inst = self.instance(key, now)
        acceptor = inst.acceptor
        acceptor.state = acceptor.state.join(inner.state)
        if inner.round.number > acceptor.round.number:
            acceptor.round = inner.round
        if inner.learned_max is not None and inst.proposer is None:
            inst.learned_max = (
                inner.learned_max
                if inst.learned_max is None
                else inst.learned_max.join(inner.learned_max)
            )
        effects.send(
            src,
            MigrateInstalled(request_id=incoming.request_id, epoch=incoming.epoch),
        )
        if not (self._persist_step(key, inst) and self._persist_marks()):
            effects = self._suppress_unpersisted(effects)
        wrapped = self._wrap(key, effects)
        self._evict_excess()
        return wrapped

    def _on_migrate_commit(
        self, key: Hashable, src: str, inner: MigrateCommit, now: float
    ) -> Effects:
        own = self._ownership
        effects = Effects()
        out = own.freezing.get(key)
        if out is not None and out.epoch <= inner.epoch:
            del own.freezing[key]
        incoming = own.incoming.get(key)
        persist_inst: _KeyInstance | None = None
        if inner.target == own.group:
            # Destination side: the key is ours from this epoch on.
            if own.moved_in.get(key, -1) < inner.epoch:
                own.moved_in[key] = inner.epoch
                self.migrations_in += 1
            moved_out = own.moved_out.get(key)
            if moved_out is not None and moved_out[0] < inner.epoch:
                del own.moved_out[key]
            if incoming is not None and incoming.epoch <= inner.epoch:
                del own.incoming[key]
                persist_inst = self.instance(key, now)
                for held_src, held_inner in incoming.buffered:
                    effects.merge(
                        self._client_command(
                            key, persist_inst, held_src, held_inner, now
                        )
                    )
        else:
            # Source (or returning-stale) side: drop the record, keep a
            # durable forwarding mark, and refuse everything any gate
            # was holding for the key — those clients re-route.
            mark = own.moved_out.get(key)
            if mark is None or mark[0] < inner.epoch:
                own.moved_out[key] = (inner.epoch, inner.target)
                self.migrations_out += 1
            if own.moved_in.get(key, -1) <= inner.epoch:
                own.moved_in.pop(key, None)
            held: list[tuple[str, Any]] = []
            rejoin_state = self._rejoin_active.pop(key, None)
            if rejoin_state is not None:
                held.extend(rejoin_state.buffered)
                effects.cancel_timer(_REJOIN_TIMER)
            self._rejoin_pending.discard(key)
            if incoming is not None:
                del own.incoming[key]
                held.extend(incoming.buffered)
            for held_src, held_inner in held:
                self.wrong_group_refusals += 1
                effects.send(
                    held_src,
                    WrongGroup(
                        request_id=held_inner.request_id,
                        epoch=inner.epoch,
                        group=inner.target,
                    ),
                )
            self._drop_key(key)
        effects.send(
            src, MigrateCommitAck(request_id=inner.request_id, epoch=inner.epoch)
        )
        persisted = self._persist_marks()
        if persist_inst is not None:
            persisted = self._persist_step(key, persist_inst) and persisted
        if not persisted:
            effects = self._suppress_unpersisted(effects)
        wrapped = self._wrap(key, effects)
        self._evict_excess()
        return wrapped

    def _drop_key(self, key: Hashable) -> None:
        """Forget a moved-out key entirely (RAM tiers + spill record).

        The moved-out mark is the only thing that must survive; a stale
        spill record would be harmless (the mark gates every read of it)
        but wastes the store, so the delete is best-effort.
        """
        inst = self._resident.pop(key, None)
        if inst is not None:
            namespace = repr(key)
            if self._namespaces.get(namespace) == key:
                del self._namespaces[namespace]
        self._frozen.pop(key, None)
        self._durable_stamps.pop(key, None)
        if self._spill_store is not None:
            try:
                self._spill_store.delete(key)
            except (StorageUnavailable, OSError):
                pass

    def _persist_marks(self) -> bool:
        """Persist the ownership marks before a migration reply escapes.

        Same discipline as :meth:`_persist_step`, for the meta record
        (put here, flushed by the sync tick the reply parks behind): a
        frozen mark that failed to reach the store must suppress the
        MIGRATE-FROZEN reply — otherwise a hard-killed source replica
        could recover unfrozen and ack an update the coordinator's
        snapshot never saw.  Under ``durability="none"`` nothing durable
        is promised anyway, so a failed write only costs recovery
        fidelity (and hard kills are out of model there).
        """
        if self._ownership is None or self._spill_store is None:
            return True
        try:
            self._write_meta(clean=False)
            if self._durability != "none":
                self._sync_dirty = True
        except (StorageUnavailable, OSError):
            self.persist_refusals += 1
            return self._durability == "none"
        return True

    def on_timer(self, key: str, now: float) -> Effects:
        if key == _SWEEP_TIMER:
            return self._sweep(now)
        if key == _SYNC_TIMER:
            return self._sync_commit()
        # Timer keys are namespaced "<repr(key)>|<proposer key>"; the
        # namespace index resolves them in O(1) regardless of keyspace
        # size.  Split at the LAST '|' — proposer timer keys never
        # contain one, but a key's repr may.  A timer for an evicted (or
        # never-proposing) key is stale by construction — eviction
        # requires an idle proposer, whose timers have all fired or been
        # cancelled — and is dropped.
        namespace, _, proposer_key = key.rpartition("|")
        candidate = self._namespaces.get(namespace)
        if candidate is None:
            return Effects()
        if proposer_key == _REJOIN_TIMER:
            state = self._rejoin_active.get(candidate)
            if state is None:
                return Effects()  # refresh completed; stale re-drive
            instance = self.instance(candidate, now)
            effects = Effects()
            # The previous round expired with no quorum: back off.
            state.rounds += 1
            self._rejoin_broadcast(instance, state, effects)
            if not self._persist_step(candidate, instance):
                effects = self._suppress_unpersisted(effects)
            wrapped = self._wrap(candidate, effects)
            self._evict_excess()
            return wrapped
        instance = self._resident.get(candidate)
        if instance is None or instance.proposer is None:
            return Effects()
        self._note_touch(candidate, instance, now)
        effects = instance.proposer.on_timer(proposer_key, now)
        if not self._persist_step(candidate, instance):
            effects = self._suppress_unpersisted(effects)
        wrapped = self._wrap(candidate, effects)
        self._evict_excess()
        return wrapped

    # ------------------------------------------------------------------
    def _wrap(self, key: Hashable, effects: Effects) -> Effects:
        """Wrap outgoing sends in Keyed envelopes and namespace timers.

        Replies to clients are wrapped too, so client code can route by
        key; adapters unwrap transparently.  A broadcast lists the same
        inner message once per destination; the sends share one ``Keyed``
        wrapper, so a transport that encodes per message object encodes a
        broadcast once.
        """
        wrapped = Effects()
        shared: dict[int, Keyed] = {}
        for dst, message in effects.sends:
            keyed = shared.get(id(message))
            if keyed is None:
                keyed = Keyed(key=key, message=message)
                shared[id(message)] = keyed
            if self._sync_dirty and isinstance(message, _CERTIFYING):
                # Group commit: this ack attests state the store has not
                # flushed yet — park it until the sync tick fsyncs.  Any
                # key's dirtiness holds the window (the unflushed batch
                # is store-wide, not per key).  Requests and nacks flow:
                # no learn certificate can rest on them.
                self._sync_parked.append((dst, keyed))
            else:
                wrapped.send(dst, keyed)
        for timer_key, delay in effects.timers:
            wrapped.set_timer(f"{key!r}|{timer_key}", delay)
        for timer_key in effects.cancels:
            wrapped.cancel_timer(f"{key!r}|{timer_key}")
        if not self._sync_armed and (self._sync_dirty or self._sync_parked):
            self._sync_armed = True
            wrapped.set_timer(_SYNC_TIMER, 0.0)
        return wrapped

    # ------------------------------------------------------------------
    # Durability: put in-step, park the acks, flush on the sync tick
    # ------------------------------------------------------------------
    def _persist_step(self, key: Hashable, inst: _KeyInstance) -> bool:
        """Put the key's triple after a handling step, before its
        effects escape (called between the handler and :meth:`_wrap`).

        The put is left unflushed and the window marked dirty, which
        makes :meth:`_wrap` park the step's certifying acks and arm the
        sync tick (:meth:`_sync_commit`) — there is no flush here.  The
        node-wide monotone counters ride along via leased meta snapshots
        (:meth:`_lease_counters`), so a learn sequence number in an
        escaped QUERY-DONE can never be reissued by the next generation.

        Returns False when the put *failed*: the
        durable stamp is dropped — the next step re-persists from scratch
        once the store heals — and the caller must run the step's effects
        through :meth:`_suppress_unpersisted` so no ack escapes resting
        on state that never reached disk.  An IO fault degrades the
        replica, it never crashes it.
        """
        if self._durability == "none":
            if self._dirty_marked:
                # A rejoin generation on an unclean store still leases
                # its counters — identifiers must not be reused even if
                # record persistence stays demotion-driven.  A lease
                # failure here is retried on the next step (no ack rests
                # on the lease; only identifier uniqueness does, and the
                # watermark is unchanged on failure).
                try:
                    self._lease_counters()
                except (StorageUnavailable, OSError):
                    pass
            return True
        store = self._spill_store
        acceptor = inst.acceptor
        proposer = inst.proposer
        learned_max = (
            proposer.learned_max if proposer is not None else inst.learned_max
        )
        dirty = not _stamp_covers(
            self._durable_stamps.get(key), acceptor, learned_max
        )
        try:
            if dirty:
                store.put(
                    key, SpillRecord(acceptor.state, acceptor.round, learned_max)
                )
                self._durable_stamps[key] = (
                    acceptor.state,
                    acceptor.round,
                    learned_max,
                )
                self.write_through_persists += 1
            leased = self._lease_counters()
            if dirty or leased:
                self._sync_dirty = True
            return True
        except (StorageUnavailable, OSError):
            # The put may have half-landed; nothing of it can be relied
            # on.  Dropping the stamp forces the next step on this key
            # to re-put the full triple.
            self._durable_stamps.pop(key, None)
            self.persist_refusals += 1
            return False

    def _suppress_unpersisted(self, effects: Effects) -> Effects:
        """Strip a failed-persist step's effects of everything that would
        promise durability.

        Certifying peer acks (MERGED / PREPARE-ACK / VOTED) are dropped —
        indistinguishable from message loss, which peers already tolerate
        by re-driving.  Client completions become ``Refused(code=
        "storage")``: the operation may have applied in RAM, but its
        durability was never certified, so the client must not be told
        it completed (it may retry verbatim — merges are idempotent).
        Requests, nacks and timers flow: re-drives are exactly how the
        replica resumes service once the store heals.
        """
        safe = Effects()
        for dst, message in effects.sends:
            if isinstance(message, (UpdateDone, QueryDone)):
                safe.send(
                    dst,
                    Refused(
                        request_id=message.request_id,
                        code="storage",
                        detail="write-through persist failed",
                    ),
                )
            elif isinstance(message, _CERTIFYING):
                continue  # dropped: peers re-drive (loss-tolerant)
            else:
                safe.send(dst, message)
        for timer_key, delay in effects.timers:
            safe.set_timer(timer_key, delay)
        for timer_key in effects.cancels:
            safe.cancel_timer(timer_key)
        return safe

    def _lease_counters(self) -> bool:
        """Persist counter watermarks with a lease margin when exceeded."""
        snapshot = self._shared.counter_snapshot()
        for name, value in snapshot.items():
            if value >= self._counter_watermarks.get(name, 0):
                self._write_meta(clean=False)
                return True
        return False

    def _write_meta(self, clean: bool) -> None:
        """Write the store meta: counters, markers, epoch, durability.

        Dirty snapshots lease the counters ahead (:data:`_COUNTER_LEASE`)
        so one meta write covers many bumps; a recovering node skips to
        the lease end (identifiers may be skipped, never reused).
        Watermarks only move forward — a clean shutdown's exact snapshot
        must not regress a previously persisted reservation.
        """
        store = self._spill_store
        if store is None:
            return
        snapshot = self._shared.counter_snapshot()
        if not clean:
            snapshot = {
                name: value + _COUNTER_LEASE for name, value in snapshot.items()
            }
        for name, value in snapshot.items():
            previous = self._counter_watermarks.get(name, 0)
            if value < previous:
                snapshot[name] = previous
        meta: dict[str, Any] = dict(snapshot)
        meta["clean_shutdown"] = clean
        meta["node_epoch"] = self._node_epoch
        meta["durability"] = self._durability
        if self._ownership is not None:
            # Ownership marks ride in the same meta record: moved-out
            # forwarding, moved-in grants and open freezes must survive
            # a hard kill (a recovered source replica that forgot its
            # freeze could ack an update the migration snapshot missed).
            meta.update(self._ownership.snapshot())
        store.put_meta(meta)
        self._counter_watermarks = snapshot
        self._dirty_marked = not clean

    def _sync_commit(self) -> Effects:
        """Sync tick: one flush covers everything put since the last
        tick — every key, every inbound connection — then every parked
        certifying ack is released (it now attests durable state).

        A failed flush releases *nothing*: the parked acks stay parked
        and the tick re-arms :data:`_SYNC_RETRY_DELAY` out — the replica
        keeps retrying and the acks go out on the first flush that succeeds
        after the store heals.
        """
        self._sync_armed = False
        effects = Effects()
        if self._sync_dirty:
            try:
                self._spill_store.flush()
            except (StorageUnavailable, OSError):
                self.persist_refusals += 1
                self._sync_armed = True
                effects.set_timer(_SYNC_TIMER, _SYNC_RETRY_DELAY)
                return effects
            self._sync_dirty = False
            self.group_commits += 1
        parked, self._sync_parked = self._sync_parked, []
        self.group_commit_acks += len(parked)
        for dst, keyed in parked:
            effects.send(dst, keyed)
        return effects

    # ------------------------------------------------------------------
    # Quorum re-join
    # ------------------------------------------------------------------
    def rejoin_pending_count(self) -> int:
        """Keys still awaiting their read-quorum refresh."""
        return len(self._rejoin_pending)

    def rejoin(self) -> Effects:
        """Proactively start the read-quorum refresh of every pending key.

        Recovery with ``rejoin=True`` marks each stored key pending and
        refreshes lazily on first touch; this hook (surfaced as the api
        ``Store.rejoin()``) instead works through all of them so a
        rejoining replica converges while idle.  It paces itself: at
        most :data:`_REJOIN_WINDOW` refreshes are open at once, and each
        one that completes opens the next (:meth:`on_message`), so
        neither the resident cap nor the transport's outbox is overrun
        however many keys the store holds.  Returns the first window's
        broadcast effects, which the driver must execute.
        """
        self._rejoin_queue = [
            key for key in self._rejoin_pending if key not in self._rejoin_active
        ]
        effects = Effects()
        self._rejoin_fill(effects)
        self._evict_excess()
        return effects

    def _rejoin_fill(self, effects: Effects) -> None:
        """Open queued refreshes until the window is full; their wrapped
        broadcasts are appended to ``effects``."""
        queue = self._rejoin_queue
        while queue and len(self._rejoin_active) < _REJOIN_WINDOW:
            key = queue.pop()
            if key not in self._rejoin_pending or key in self._rejoin_active:
                continue  # refreshed (or opened) by traffic meanwhile
            opened = Effects()
            self._start_rejoin(key, self.instance(key), opened)
            effects.merge(self._wrap(key, opened))

    def _rejoin_gate(
        self, key: Hashable, inst: _KeyInstance, src: str, inner: Any, now: float
    ) -> Effects:
        """Traffic filter for a key whose pair is possibly stale.

        Client commands buffer behind the refresh and replay once it
        completes.  Peer protocol requests are *dropped* (and trigger the
        refresh): a §3.3 prepare answered from a stale pair could grant
        a promise the dead generation already gave away, and message
        loss is tolerated by design — peers re-drive.  Only the
        refresh's own quorum replies are folded in.
        """
        state = self._rejoin_active.get(key)
        if isinstance(inner, (ClientUpdate, ClientQuery)):
            effects = Effects()
            if state is None:
                state = self._start_rejoin(key, inst, effects)
            state.buffered.append((src, inner))
            return effects
        if (
            state is not None
            and isinstance(inner, (PrepareAck, PrepareNack))
            and getattr(inner, "request_id", None) == state.request_id
        ):
            return self._on_rejoin_reply(key, inst, state, src, inner, now)
        effects = Effects()
        if state is None:
            self._start_rejoin(key, inst, effects)
        return effects

    def _start_rejoin(
        self, key: Hashable, inst: _KeyInstance, effects: Effects
    ) -> _RejoinState:
        self._rejoin_seq += 1
        # The epoch distinguishes this generation's refreshes from any
        # stale rejoin traffic still in flight from a previous life.
        request_id = f"rejoin:{self._node_epoch}:{self._rejoin_seq}"
        state = _RejoinState(request_id)
        self._rejoin_active[key] = state
        # Acceptor-only keys never registered a timer namespace; the
        # rejoin re-drive timer needs one.
        self._namespaces.setdefault(repr(key), key)
        self._rejoin_broadcast(inst, state, effects)
        return state

    def _rejoin_broadcast(
        self, inst: _KeyInstance, state: _RejoinState, effects: Effects
    ) -> None:
        """One §3.3 prepare round refreshes the pair — no log shipping.

        Incremental round: always accepted, and every PREPARE-ACK (or
        NACK — both carry ``(round, state)``) returns the peer's pair to
        fold in.  The locally stored payload is shipped when configured:
        it was durable, so disseminating it can only help convergence.

        The re-drive timer backs off exponentially with each fruitless
        round (``config.backoff_multiplier`` / ``backoff_cap`` /
        ``backoff_jitter``) so a rejoin pinned behind sustained loss or
        a partition re-broadcasts a handful of times, not once per fixed
        timeout forever; a new peer reply resets the cadence
        (:meth:`_on_rejoin_reply`).
        """
        prepare = Prepare(
            request_id=state.request_id,
            attempt=0,
            round=Round.incremental(self._shared.rid_gen.fresh()),
            state=(
                inst.acceptor.state
                if self.config.include_state_in_prepare
                else None
            ),
        )
        for dst in self._remote_peers:
            effects.send(dst, prepare)
        if self.config.request_timeout is not None:
            config = self.config
            delay = min(
                config.request_timeout * config.backoff_multiplier**state.rounds,
                config.backoff_cap,
            )
            if config.backoff_jitter > 0.0:
                # Deterministic per-(refresh, round) jitter: hash() is
                # salted per process, so a CRC keeps seeded runs
                # bit-identical while de-synchronizing replicas.
                token = f"{state.request_id}:{state.rounds}"
                frac = (zlib.crc32(token.encode()) % 1000) / 999.0
                delay *= 1.0 + config.backoff_jitter * frac
            effects.set_timer(_REJOIN_TIMER, delay)

    def _on_rejoin_reply(
        self,
        key: Hashable,
        inst: _KeyInstance,
        state: _RejoinState,
        src: str,
        inner: Any,
        now: float,
    ) -> Effects:
        acceptor = inst.acceptor
        acceptor.state = acceptor.state.join(inner.state)
        if inner.round.number > acceptor.round.number:
            acceptor.round = inner.round
        if src not in state.replied:
            state.replied.add(src)
            # Progress: a previously silent peer answered — re-broadcasts
            # (if still needed) return to the base cadence.
            state.rounds = 0
        effects = Effects()
        if not self.quorum.is_quorum(state.replied | {self.node_id}):
            return effects
        # Quorum reached: the pair now subsumes every certificate this
        # replica may have contributed to (quorum intersection), so the
        # key can serve again.  Replay what the refresh held back.
        del self._rejoin_active[key]
        self._rejoin_pending.discard(key)
        self.rejoin_refreshes += 1
        if self.config.request_timeout is not None:
            effects.cancel_timer(_REJOIN_TIMER)
        for buffered_src, buffered_inner in state.buffered:
            # Ownership-aware replay: an install may have landed for the
            # key while it sat behind the refresh — the command must
            # buffer (or refuse) there, not bypass the migration gate.
            effects.merge(
                self._client_command(key, inst, buffered_src, buffered_inner, now)
            )
        return effects
