"""Keyed store at 100k–1M keys: memory density and timer-routing rails.

The ROADMAP's north star is a store hosting millions of independent
lattice registers.  Two things have to hold for that to be real:

* **Resident bytes/key must be flyweight.**  Acceptor-only keys (the
  common case: every key proposes at one home replica and is pure
  acceptor state at the others) must cost a small multiple of the
  payload itself — not a private copy of the whole replica machinery.
  The benchmark compares the flyweight build against the recorded
  resident bytes/key of the pre-flyweight shape (eager proposer, private
  per-key context and stats, eager namespace entry;
  :data:`EAGER_BYTES_PER_KEY`) and asserts the flyweight is at least 4×
  denser at 100k keys.
* **Timer routing must be O(1) in the keyspace.**  A naive
  :meth:`KeyedCrdtReplica.on_timer` resolves its namespace by scanning
  ``repr(key)`` over every hosted key; the namespace index makes it a
  dict lookup.  The per-call cost on the last key must not grow from 100
  to 10k keys (within 5×; the old scan measured >50×), and 100k keys
  must stay within 20% of the 10k rail.  The polled key's proposer is
  materialized explicitly (proposers are lazy), so the timer routes
  through the real flush path.

A third, slower check (marked ``slow``) exercises the 1M-key shape so
the store's big-O story is occasionally validated end to end; the
asserted bounds live at 100k to keep the default run fast.
"""

import pytest

from conftest import (
    build_keyed_replica,
    keyed_resident_bytes_per_key,
    keyed_timer_seconds,
)

#: Flyweight acceptor-only keys must be at least this many times denser
#: than eager full instances.
DENSITY_FACTOR = 4.0

#: Traced resident bytes/key of 100k acceptor-only keys built in the
#: pre-flyweight eager shape, measured with ``tracemalloc`` on Python
#: 3.11.7 at commit 0812958, the last commit that could still build it
#: (the flyweight measured 320.3 B/key there).
EAGER_BYTES_PER_KEY = 1354.7

#: Timer routing at 10k keys may cost at most this many times the
#: 100-key call (generous headroom for cache effects and noise).
O1_TOLERANCE = 5.0

#: Timer throughput at 100k keys must stay within this fraction of the
#: 10k rail (O(1) routing: a 10× keyspace must not slow the hot tick).
RAIL_TOLERANCE = 0.20


def test_flyweight_density_at_100k_keys():
    flyweight = keyed_resident_bytes_per_key(100_000)
    assert flyweight * DENSITY_FACTOR <= EAGER_BYTES_PER_KEY, (
        f"flyweight acceptor-only keys are only "
        f"{EAGER_BYTES_PER_KEY / flyweight:.2f}× denser than eager instances "
        f"({flyweight:.0f} vs {EAGER_BYTES_PER_KEY:.0f} B/key); "
        f"need ≥{DENSITY_FACTOR}×"
    )


def test_acceptor_only_keys_have_no_proposers():
    replica = build_keyed_replica(10_000)
    assert all(
        replica.instance(f"key-{i}").proposer is None for i in range(0, 10_000, 97)
    )


def test_timer_routing_is_o1_in_keys():
    cost_small = keyed_timer_seconds(100)
    cost_large = keyed_timer_seconds(10_000)
    assert cost_large <= cost_small * O1_TOLERANCE, (
        f"timer routing scales with keys: {cost_small * 1e6:.2f}µs @100 vs "
        f"{cost_large * 1e6:.2f}µs @10k"
    )


def test_timer_rail_holds_at_100k_keys():
    rail_10k = 1.0 / keyed_timer_seconds(10_000)
    rate_100k = 1.0 / keyed_timer_seconds(100_000)
    floor = rail_10k * (1.0 - RAIL_TOLERANCE)
    assert rate_100k >= floor, (
        f"keyed timer routing degraded with keyspace size: "
        f"{rate_100k:,.0f} events/s @100k vs {rail_10k:,.0f} @10k "
        f"(floor {floor:,.0f})"
    )


def test_timer_routing_throughput_at_10k_keys(benchmark):
    replica = build_keyed_replica(10_000, poll_key="key-9999")
    benchmark(replica.on_timer, f"{'key-9999'!r}|flush", 0.0)


def test_eviction_caps_resident_set_at_scale():
    """With a cap, a long scan over 50k keys keeps the resident set near
    the cap and every key remains readable (frozen peeks)."""
    from repro.core.config import CrdtPaxosConfig
    from repro.core.keyspace import Keyed, KeyedCrdtReplica
    from repro.core.messages import Merge
    from repro.crdt.gcounter import GCounter, Increment

    replica = KeyedCrdtReplica(
        "r0",
        ["r0", "r1", "r2"],
        lambda key: GCounter.initial(),
        CrdtPaxosConfig(keyed_max_resident=1_000),
    )
    payload = Increment(1).apply(GCounter.initial(), "r1")
    for i in range(50_000):
        replica.on_message(
            "r1",
            Keyed(key=f"key-{i}", message=Merge(request_id=f"m{i}", state=payload)),
            float(i),
        )
    assert replica.resident_count() <= 1_100  # cap + eviction hysteresis
    assert replica.frozen_count() >= 48_000
    assert replica.evictions >= 48_000
    # Every key is still readable without rehydration churn.
    assert replica.state_of("key-0").value() == 1
    assert replica.state_of("key-49999").value() == 1


def test_million_key_zipf_spill_bounded_memory():
    """ISSUE-4 acceptance: a 1M-key Zipf workload with
    ``keyed_max_resident=512`` and the frozen-record spill tier enabled
    completes with the RAM tiers bounded by their caps — resident
    instances by the resident cap (plus the 10% eviction hysteresis),
    RAM-frozen records by ``keyed_max_frozen`` — while the rest of the
    touched keyspace lives in the spill store and every key stays
    readable."""
    from repro.core.config import CrdtPaxosConfig
    from repro.storage import InMemorySpillStore
    from repro.workload.runner import run_workload
    from repro.workload.spec import WorkloadSpec

    resident_cap, frozen_cap = 512, 1_024
    config = CrdtPaxosConfig(
        keyed_max_resident=resident_cap, keyed_max_frozen=frozen_cap
    )
    stores = {}

    def spill_factory(node_id):
        stores[node_id] = InMemorySpillStore()
        return stores[node_id]

    result = run_workload(
        "crdt-paxos",
        WorkloadSpec(
            n_clients=32,
            read_ratio=0.5,
            duration=1.0,
            warmup=0.2,
            client_timeout=2.0,
            n_keys=1_000_000,
            key_skew=1.1,
        ),
        seed=0,
        crdt_config=config,
        spill_store_factory=spill_factory,
    )
    assert result.completed_ops() > 0
    touched = result.distinct_keys_touched()
    assert touched > resident_cap + frozen_cap, (
        f"workload only touched {touched} distinct keys; the run cannot "
        "exercise the spill tier below the combined RAM caps"
    )
    for address, stats in result.keyed_stats.items():
        assert stats["resident"] <= resident_cap + resident_cap // 10 + 1, (
            f"{address}: resident {stats['resident']} exceeds the cap"
        )
        assert stats["frozen"] <= frozen_cap, (
            f"{address}: frozen {stats['frozen']} exceeds keyed_max_frozen"
        )
        assert stats["spills"] > 0, f"{address}: spill tier never engaged"
        # RAM holds at most the two capped tiers; everything else it ever
        # saw sits in the spill store.
        assert stats["resident"] + stats["frozen"] <= (
            resident_cap + resident_cap // 10 + 1 + frozen_cap
        )


def test_idle_sweep_cost_is_o_evicted_not_o_resident():
    """The heap-backed idle sweep pays per *evicted* key, not per
    resident key.  The pre-heap implementation sorted the whole resident
    set by last touch on every sweep — O(resident·log resident) even
    when nothing was idle.  Now a sweep peeks the heap front and stops
    at the first young entry: a no-op sweep costs O(1) regardless of
    keyspace size, and a sweep evicting K keys pays ~K heap pops."""
    from repro.core.config import CrdtPaxosConfig
    from repro.core.keyspace import Keyed, KeyedCrdtReplica
    from repro.core.messages import Merge
    from repro.crdt.gcounter import GCounter, Increment

    idle_s = 10.0

    def touched_replica(n_keys):
        replica = KeyedCrdtReplica(
            "r0",
            ["r0", "r1", "r2"],
            lambda key: GCounter.initial(),
            CrdtPaxosConfig(keyed_idle_evict_s=idle_s),
        )
        payload = Increment(1).apply(GCounter.initial(), "r1")
        for i in range(n_keys):
            replica.on_message(
                "r1",
                Keyed(key=f"key-{i}", message=Merge(request_id=f"m{i}", state=payload)),
                float(i) * 1e-3,
            )
        return replica

    # Nothing idle: the sweep must look at O(1) heap entries no matter
    # how many keys are resident.
    noop_costs = []
    for n_keys in (1_000, 10_000):
        replica = touched_replica(n_keys)
        before = replica.evict_scan_ops
        replica.on_timer("keyspace-sweep", (n_keys - 1) * 1e-3 + 1e-4)
        noop_costs.append(replica.evict_scan_ops - before)
    assert all(cost <= 4 for cost in noop_costs), (
        f"a no-op sweep scanned {noop_costs} heap entries; the heap front "
        "peek should stop at the first young key"
    )
    assert noop_costs[1] <= noop_costs[0] + 4, (
        f"no-op sweep cost grew with keyspace size: {noop_costs}"
    )

    # K idle keys: the sweep pays ~K pops and freezes exactly those K.
    n_keys, k = 10_000, 250
    replica = touched_replica(n_keys)  # key i last touched at i·1ms
    before_ops = replica.evict_scan_ops
    before_frozen = replica.frozen_count()
    replica.on_timer("keyspace-sweep", (k - 1) * 1e-3 + idle_s + 5e-4)
    assert replica.frozen_count() - before_frozen == k
    assert replica.evict_scan_ops - before_ops <= k + 8, (
        f"evicting {k} keys cost {replica.evict_scan_ops - before_ops} "
        "scan ops; the sweep should not look past the idle prefix"
    )


@pytest.mark.slow
def test_million_key_shape():
    """1M acceptor-only keys materialize and route timers; density stays
    in the same class as at 100k (no superlinear blow-up)."""
    bytes_100k = keyed_resident_bytes_per_key(100_000)
    bytes_1m = keyed_resident_bytes_per_key(1_000_000)
    assert bytes_1m <= bytes_100k * 1.5
