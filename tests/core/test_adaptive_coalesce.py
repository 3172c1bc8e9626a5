"""ISSUE-9: traffic-adaptive coalesce windows and byte-budget flushes.

The fixed ``keyed_coalesce_window`` trades latency for batching with one
number for every peer and load level.  Two refinements make the outbox
load-aware:

* ``keyed_coalesce_adaptive`` sizes the next flush window from a
  per-peer EWMA of the enqueue interval (about eight arrivals' worth,
  clamped to ``[min_window, window]``) — a hot peer flushes near the
  floor, a trickle waits the full window.
* ``keyed_outbox_byte_budget`` flushes one peer's parked envelopes the
  moment their summed wire size crosses the budget, bounding both the
  burst one KeyedBatch puts on the wire and byte-heavy staleness.
"""

from dataclasses import replace

import pytest

from repro.core.config import CrdtPaxosConfig
from repro.core.keyspace import Keyed, KeyedBatch, KeyedCrdtReplica
from repro.core.messages import ClientUpdate, Merge
from repro.crdt.gcounter import GCounter, Increment
from repro.errors import ConfigurationError
from repro.net.message import wire_size

PEERS = ["r0", "r1", "r2"]


def build_replica(**overrides) -> KeyedCrdtReplica:
    knobs: dict = dict(request_timeout=None)
    knobs.update(overrides)
    return KeyedCrdtReplica(
        "r0",
        list(PEERS),
        lambda key: GCounter.initial(),
        CrdtPaxosConfig(**knobs),
    )


def update(replica, key, request_id, now):
    return replica.on_message(
        "c", Keyed(key=key, message=ClientUpdate(request_id, Increment(1))), now
    )


def coalesce_delays(effects):
    return [delay for key, delay in effects.timers if key == "keyspace-coalesce"]


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
def test_adaptive_requires_a_window_ceiling():
    with pytest.raises(ConfigurationError):
        CrdtPaxosConfig(keyed_coalesce_adaptive=True)
    CrdtPaxosConfig(keyed_coalesce_adaptive=True, keyed_coalesce_window=0.01)


def test_min_window_validation():
    with pytest.raises(ConfigurationError):
        CrdtPaxosConfig(keyed_coalesce_min_window=0.0)
    with pytest.raises(ConfigurationError):
        CrdtPaxosConfig(
            keyed_coalesce_window=0.01, keyed_coalesce_min_window=0.02
        )


def test_byte_budget_validation():
    with pytest.raises(ConfigurationError):
        CrdtPaxosConfig(keyed_outbox_byte_budget=0)
    CrdtPaxosConfig(keyed_outbox_byte_budget=1)


# ----------------------------------------------------------------------
# Byte-budget early flush
# ----------------------------------------------------------------------
def test_byte_budget_flushes_a_peer_without_waiting_for_the_window():
    replica = build_replica(
        keyed_coalesce_window=1.0, keyed_outbox_byte_budget=1
    )
    effects = update(replica, "k", "u1", 0.0)
    # Budget 1: the very first parked envelope crosses it, so the MERGE
    # broadcast leaves in the same handling step instead of parking for
    # up to a full second.
    merges = [
        (dst, keyed)
        for dst, keyed in effects.sends
        if isinstance(keyed, Keyed) and isinstance(keyed.message, Merge)
    ]
    assert {dst for dst, _ in merges} == {"r1", "r2"}
    assert replica._outbox == {}
    assert replica.acceptor_stats.keyed_budget_flushes == 2  # one per peer


def test_byte_budget_flush_packs_one_batch_and_unpins_keys():
    replica = build_replica(
        keyed_coalesce_window=1.0, keyed_outbox_byte_budget=10_000
    )
    # Park several envelopes below the budget...
    for i in range(3):
        effects = update(replica, f"k{i}", f"u{i}", float(i) * 0.01)
        assert effects.sends == []  # everything parked
    parked = sum(len(bucket) for bucket in replica._outbox.values())
    assert parked == 6  # 3 keys x 2 peers
    # ...then drop the budget under what is parked and park once more:
    # the triggering peer flushes as one KeyedBatch carrying every key.
    replica.config = replace(replica.config, keyed_outbox_byte_budget=1)
    effects = update(replica, "k3", "u3", 0.05)
    batches = [
        (dst, m) for dst, m in effects.sends if isinstance(m, KeyedBatch)
    ]
    assert {dst for dst, _ in batches} == {"r1", "r2"}
    for _, batch in batches:
        assert {item.key for item in batch.items} == {"k0", "k1", "k2", "k3"}
    assert replica._outbox == {}
    assert replica._parked_count == {}
    assert replica._parked_bytes == {}
    assert replica.acceptor_stats.keyed_budget_flushes == 2


def test_parked_bytes_accounting_is_supersede_aware():
    replica = build_replica(
        keyed_coalesce_window=1.0,
        keyed_outbox_byte_budget=10_000,
        request_timeout=0.5,
    )
    effects = update(replica, "k", "u1", 0.0)
    (uto_key,) = [key for key, _ in effects.timers if "|uto:" in key]
    before = dict(replica._parked_bytes)
    # The re-driven MERGE supersedes the parked one in place; the byte
    # ledger must swap the old envelope's size out, not stack the two.
    replica.on_timer(uto_key, 0.4)
    for dst in ("r1", "r2"):
        (keyed,) = [
            k
            for k, _ in replica._outbox[dst].values()
            if isinstance(k.message, Merge)
        ]
        # Exactly the live envelope's size — not stacked on the old one.
        assert replica._parked_bytes[dst] == wire_size(keyed)
        assert replica._parked_bytes[dst] < before[dst] + wire_size(keyed)
    assert replica.acceptor_stats.keyed_envelopes_superseded == 2


# ----------------------------------------------------------------------
# Adaptive window
# ----------------------------------------------------------------------
def test_first_arm_without_a_rate_estimate_uses_the_full_window():
    replica = build_replica(
        keyed_coalesce_window=0.8, keyed_coalesce_adaptive=True
    )
    effects = update(replica, "k", "u1", 0.0)
    assert coalesce_delays(effects) == [0.8]


def test_hot_peer_shrinks_the_window_toward_the_floor():
    replica = build_replica(
        keyed_coalesce_window=0.8,
        keyed_coalesce_adaptive=True,
        keyed_coalesce_min_window=0.005,
        update_pipeline=16,
    )
    # A burst of updates 1ms apart trains the per-peer EWMA.
    now = 0.0
    for i in range(10):
        update(replica, f"k{i}", f"u{i}", now)
        now += 0.001
    replica.on_timer("keyspace-coalesce", now)
    # The next arm sizes the window from the observed rate: about eight
    # arrivals' worth (~8ms), nowhere near the 800ms ceiling.
    effects = update(replica, "k-next", "u-next", now)
    (delay,) = coalesce_delays(effects)
    assert 0.005 <= delay < 0.1
    assert delay < 0.8


def test_trickling_peer_keeps_the_full_window():
    replica = build_replica(
        keyed_coalesce_window=0.2,
        keyed_coalesce_adaptive=True,
        update_pipeline=16,
    )
    # Updates arriving much slower than window/8 apart: the EWMA-sized
    # window would exceed the ceiling, so the clamp keeps it at window.
    now = 0.0
    for i in range(4):
        update(replica, f"k{i}", f"u{i}", now)
        now += 5.0
        replica.on_timer("keyspace-coalesce", now)
    effects = update(replica, "k-next", "u-next", now)
    assert coalesce_delays(effects) == [0.2]


def test_min_window_defaults_to_an_eighth_of_the_window():
    replica = build_replica(
        keyed_coalesce_window=0.8,
        keyed_coalesce_adaptive=True,
        update_pipeline=16,
    )
    # Arrivals effectively back-to-back: the EWMA-sized window collapses
    # to the floor, which without an explicit min defaults to window/8.
    now = 0.0
    for i in range(10):
        update(replica, f"k{i}", f"u{i}", now)
        now += 1e-6
    replica.on_timer("keyspace-coalesce", now)
    effects = update(replica, "k-next", "u-next", now)
    assert coalesce_delays(effects) == [pytest.approx(0.1)]
