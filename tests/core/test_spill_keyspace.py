"""Two-tier demotion (resident → RAM-frozen → spilled) in the keyed
replica, and the shutdown snapshot (``spill_all``) on top of it."""

import pytest

from repro.core.config import CrdtPaxosConfig
from repro.core.keyspace import Keyed, KeyedCrdtReplica
from repro.core.messages import ClientUpdate, Merge
from repro.crdt.gcounter import GCounter, Increment
from repro.errors import ConfigurationError
from repro.storage import InMemorySpillStore

PEERS = ["r0", "r1", "r2"]


def replica_with_spill(
    max_resident=4, max_frozen=4, store=None, durability="none"
):
    store = store if store is not None else InMemorySpillStore()
    replica = KeyedCrdtReplica(
        "r0",
        list(PEERS),
        lambda key: GCounter.initial(),
        CrdtPaxosConfig(
            keyed_max_resident=max_resident,
            keyed_max_frozen=max_frozen,
            durability=durability,
        ),
        spill_store=store,
    )
    return replica, store


def merge(replica, key, value=1, now=0.0):
    payload = Increment(value).apply(GCounter.initial(), "r1")
    return replica.on_message(
        "r1",
        Keyed(key=key, message=Merge(request_id=f"m-{key}-{value}", state=payload)),
        now,
    )


class TestTwoTierDemotion:
    def test_frozen_overflow_spills_oldest_first(self):
        replica, store = replica_with_spill(max_resident=2, max_frozen=2)
        for i in range(10):
            merge(replica, f"k{i}", now=float(i))
        assert replica.resident_count() <= 2
        assert replica.frozen_count() <= 2
        assert replica.spilled_count() == replica.spills > 0
        # The earliest-frozen (coldest) keys are the spilled ones.
        assert "k0" in store

    def test_touch_rehydrates_transparently_from_spill(self):
        replica, store = replica_with_spill(max_resident=2, max_frozen=1)
        for i in range(8):
            merge(replica, f"k{i}", now=float(i))
        assert "k0" in store
        before = replica.rehydrations
        merge(replica, "k0", value=2, now=99.0)  # touch a spilled key
        assert replica.spill_loads >= 1
        assert replica.rehydrations > before
        # The rehydrated acceptor merged on top of the spilled payload.
        assert replica.state_of("k0").value() == 2

    def test_state_of_peeks_every_tier_without_admitting(self):
        replica, store = replica_with_spill(max_resident=2, max_frozen=1)
        for i in range(8):
            merge(replica, f"k{i}", now=float(i))
        resident_before = replica.resident_count()
        loads_before = replica.spill_loads
        assert replica.state_of("k0").value() == 1  # spilled tier
        assert replica.resident_count() == resident_before
        assert replica.spill_loads == loads_before  # a peek, not a load
        # A never-seen key answers bottom without being admitted — a
        # monitoring scan must not grow the resident set past its cap.
        assert replica.state_of("never-seen").value() == 0
        assert replica.resident_count() == resident_before
        assert "never-seen" not in replica.keys()
        # keys() unions all three tiers without duplicates.
        assert sorted(replica.keys()) == sorted(f"k{i}" for i in range(8))

    def test_keyed_max_frozen_requires_a_store(self):
        with pytest.raises(ConfigurationError):
            KeyedCrdtReplica(
                "r0",
                list(PEERS),
                lambda key: GCounter.initial(),
                CrdtPaxosConfig(keyed_max_frozen=4),
            )

    def test_zero_frozen_cap_spills_immediately(self):
        replica, store = replica_with_spill(max_resident=2, max_frozen=0)
        for i in range(8):
            merge(replica, f"k{i}", now=float(i))
        assert replica.frozen_count() == 0
        assert replica.spilled_count() >= 5

    def test_rehydrated_key_refreshes_its_stale_spilled_record(self):
        replica, store = replica_with_spill(max_resident=1, max_frozen=0)
        merge(replica, "a", value=1, now=0.0)
        merge(replica, "b", value=1, now=1.0)  # demotes "a" → spilled
        assert store.get("a").state.value() == 1
        merge(replica, "a", value=3, now=2.0)  # rehydrate + merge more
        merge(replica, "b", value=2, now=3.0)  # demote "a" again
        assert store.get("a").state.value() == 3  # record refreshed


class CountingStore(InMemorySpillStore):
    """An in-memory store that counts record puts per key."""

    def __init__(self):
        super().__init__()
        self.key_puts = {}

    def put(self, key, record):
        self.key_puts[key] = self.key_puts.get(key, 0) + 1
        super().put(key, record)


class TestSpillAll:
    def test_snapshot_does_not_re_put_what_the_store_holds(self):
        """Under write-through every merge already put its key's triple,
        so neither the frozen records nor the resident keys are put a
        second time by the shutdown snapshot — and recovery still finds
        every key."""
        store = CountingStore()
        replica, _ = replica_with_spill(
            max_resident=2, max_frozen=None, store=store, durability="write_through"
        )
        keys = [f"k{i}" for i in range(6)]
        for i, key in enumerate(keys):
            merge(replica, key, now=float(i))
        assert replica.frozen_count() > 0
        assert all(frozen.stored for frozen in replica._frozen.values())
        before = dict(store.key_puts)
        assert before == {key: 1 for key in keys}
        effects = replica.spill_all()
        assert store.key_puts == before
        # The group-commit acks the snapshot releases still go out.
        assert {dst for dst, _ in effects.sends} == {"r1"}
        assert replica.spills == len(keys)

        recovered = KeyedCrdtReplica.recover(
            store,
            "r0",
            list(PEERS),
            lambda key: GCounter.initial(),
            CrdtPaxosConfig(keyed_max_resident=2),
        )
        assert sorted(recovered.keys()) == keys
        for key in keys:
            assert recovered.state_of(key).value() == 1

    def test_snapshot_puts_records_no_persist_wrote(self):
        store = CountingStore()
        replica, _ = replica_with_spill(max_resident=2, max_frozen=None, store=store)
        keys = [f"k{i}" for i in range(6)]
        for i, key in enumerate(keys):
            merge(replica, key, now=float(i))
        assert store.key_puts == {}
        replica.spill_all()
        assert store.key_puts == {key: 1 for key in keys}
