"""Durable spill tier for the keyed CRDT store.

See :mod:`repro.storage.base` for the contract and the safety argument
(the paper's logless acceptor pair is the *entire* durable state, so
spilled records need no log and recovery needs no replay).

Durability modes
================

How much of that pair survives a hard kill is governed by
``CrdtPaxosConfig.durability``, which decides *when* the keyed replica
writes to its spill store relative to the acks it emits:

``"none"`` (default)
    Records reach the store only on demotion (frozen-tier overflow) and
    on the planned ``spill_all()`` shutdown hook.  Cheapest, and exactly
    as safe as the paper's in-memory acceptor: a kill -9 loses promises
    made since the last spill, so a recovered replica must not serve its
    stale pairs directly — ``KeyedCrdtReplica.recover`` refuses a store
    without a clean-shutdown marker unless ``rejoin=True`` refreshes
    each key from a read quorum (a §3.3 prepare) before first use.

``"write_through"`` and ``"group_sync"``
    One mechanism, two delays.  After every handling step that changed a
    key's ``(payload, round, learned-max)`` triple the triple is ``put``
    in-step, the step's *certifying* effects (the MERGED / PREPARE-ACK /
    VOTED acks, the client's done messages, the migration replies) are
    parked, and a sync tick is armed; the tick runs one ``flush()`` — a
    group commit over every key and every connection that put since the
    last one — and only then releases the parked acks.  The §3.3 rule is
    "the pair is durable before the ack that attests it escapes", not
    "one fsync per message": any promise a peer or client has seen rests
    on flushed state, so recovery is sound without a rejoin.
    Non-certifying traffic (requests, nacks) is never parked — a learn
    certificate can only rest on ack-type messages, so leaking unflushed
    state via a nack is safe.  A failed flush releases nothing and the
    tick re-arms; a failed ``put`` refuses the step's acks outright.

    The modes differ only in the delay the tick is armed with.
    ``write_through`` arms it at **0** — "the end of this driver turn" —
    so the fsync itself is the batching window: messages that arrive
    while one flush blocks queue in the socket buffers and share the
    next, and batch size follows load with nothing to tune.
    ``group_sync`` arms it at ``durability_sync_window`` seconds, trading
    that much ack latency for fewer, larger commits.

:class:`VolatileSpillStore` models the volatile-cache half of a real
disk for crash campaigns: it buffers writes until ``flush()`` and its
``crash()`` drops the buffer, so a hard kill under either durable mode
genuinely loses whatever the group commit had not yet covered.
Reopening a :class:`SegmentedSpillStore` directory instead models a
*process* kill (the OS page cache survives).

:class:`FaultySpillStore` injects put/fsync failures and torn partial
writes into any of the above (raising
:class:`~repro.errors.StorageUnavailable`), for nemesis campaigns that
check the persist-before-ack contract: a durable replica whose persist
fails must refuse (put) or keep parked (flush) the step's acks, never
emit them.
"""

from repro.storage.base import SpillRecord, SpillStore
from repro.storage.faulty import FaultySpillStore
from repro.storage.latency import LatencySpillStore
from repro.storage.memory import InMemorySpillStore
from repro.storage.segmented import SegmentedSpillStore
from repro.storage.volatile import VolatileSpillStore

__all__ = [
    "SpillRecord",
    "SpillStore",
    "InMemorySpillStore",
    "SegmentedSpillStore",
    "LatencySpillStore",
    "FaultySpillStore",
    "VolatileSpillStore",
]
