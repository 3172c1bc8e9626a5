"""FaultySpillStore: injected IO faults and the persist-before-ack bar.

The satellite contract under test: a failed ``write_through`` persist
must never let the acceptor's ack escape — a failed put refuses the step
gracefully (``Refused(code="storage")`` to clients, silence to peers)
instead of crashing or, worse, acking; a failed flush keeps the acks
parked — and service resumes by itself once the IO faults clear, with no
operator intervention.
"""

import pytest

from repro.core.config import CrdtPaxosConfig
from repro.core.keyspace import _SYNC_TIMER, Keyed, KeyedCrdtReplica
from repro.core.messages import ClientUpdate, Merged, Refused, UpdateDone
from repro.crdt.gcounter import GCounter, Increment
from repro.errors import StorageUnavailable
from repro.storage import (
    FaultySpillStore,
    InMemorySpillStore,
    SpillRecord,
    VolatileSpillStore,
)


def _record(value: int = 1) -> SpillRecord:
    from repro.core.rounds import Round

    return SpillRecord(
        GCounter.initial().incremented("r0", value), Round.initial(), None
    )


class TestFaultInjection:
    def test_brownout_fails_every_write_then_heals(self):
        store = FaultySpillStore(InMemorySpillStore())
        store.put("k", _record())
        store.break_io()
        with pytest.raises(StorageUnavailable):
            store.put("k", _record(2))
        with pytest.raises(StorageUnavailable):
            store.flush()
        # Reads pass through — the cache half of a browned-out disk.
        assert store.get("k").state.value() == 1
        assert "k" in store and len(store) == 1
        store.heal_io()
        store.put("k", _record(3))
        store.flush()
        assert store.get("k").state.value() == 3
        assert store.put_failures == 1
        assert store.flush_failures == 1

    def test_probabilistic_faults_are_seed_deterministic(self):
        def run(seed):
            store = FaultySpillStore(
                InMemorySpillStore(), seed=seed, put_failure_probability=0.5
            )
            outcomes = []
            for i in range(20):
                try:
                    store.put(f"k{i}", _record())
                    outcomes.append(True)
                except StorageUnavailable:
                    outcomes.append(False)
            return outcomes

        assert run(7) == run(7)
        assert run(7) != run(8)
        assert not all(run(7)) and any(run(7))

    def test_partial_write_counted_separately_and_keeps_previous(self):
        store = FaultySpillStore(
            InMemorySpillStore(), partial_write_probability=1.0
        )
        store.put("k", _record(1))
        store.break_io()
        with pytest.raises(StorageUnavailable, match="partial"):
            store.put("k", _record(9))
        assert store.partial_writes == 1
        # Torn frame: the previous record stays authoritative.
        assert store.get("k").state.value() == 1

    def test_delegate_extras_forwarded(self):
        inner = InMemorySpillStore()
        store = FaultySpillStore(inner)
        assert store.delegate is inner
        store.put_meta({"clean_shutdown": True})
        assert store.get_meta() == {"clean_shutdown": True}
        assert store.keys() == []
        store.close()

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FaultySpillStore(InMemorySpillStore(), put_failure_probability=1.5)


def _write_through_replica(store, peers=("r0",)):
    return KeyedCrdtReplica(
        "r0",
        list(peers),
        lambda key: GCounter.initial(),
        CrdtPaxosConfig(durability="write_through"),
        spill_store=store,
    )


def _update(replica, rid, amount=1):
    return replica.on_message(
        "c", Keyed(key="k", message=ClientUpdate(rid, Increment(amount))), 0.0
    )


class TestPersistBeforeAckUnderFaults:
    def test_failed_persist_refuses_instead_of_acking(self):
        """Satellite: the acceptor's ack must not escape a failed
        write-through persist — the client is *refused*, not crashed on
        and not lied to."""
        store = FaultySpillStore(InMemorySpillStore())
        replica = _write_through_replica(store)
        store.break_io()
        effects = _update(replica, "u1", amount=5)
        payloads = [m.message for _, m in effects.sends]
        assert not any(isinstance(m, (UpdateDone, Merged)) for m in payloads)
        refusals = [m for m in payloads if isinstance(m, Refused)]
        assert refusals and refusals[0].code == "storage"
        assert replica.persist_refusals == 1
        # Nothing of the step reached the store.
        assert len(store.delegate) == 0

    def test_non_certifying_requests_still_flow_during_brownout(self):
        """A quorum-needing update's outgoing MERGE *requests* are not
        certifying — they must still reach peers during the brownout so
        the cluster keeps making progress around the sick disk."""
        from repro.core.messages import Merge

        store = FaultySpillStore(InMemorySpillStore())
        replica = _write_through_replica(store, peers=("r0", "r1", "r2"))
        store.break_io()
        effects = _update(replica, "u1", amount=5)
        payloads = [m.message for _, m in effects.sends]
        assert any(isinstance(m, Merge) for m in payloads)
        assert not any(
            isinstance(m, (UpdateDone, Merged)) for m in payloads
        )
        assert len(store.delegate) == 0

    def test_service_resumes_once_io_heals(self):
        """Satellite: the refusal is retryable — after ``heal_io`` the
        client's retried update persists and the dropped durable stamp
        forces the *full* triple to land (covering the refused step's
        RAM-only change too); the ack is absent from the handler's
        effects and arrives with the sync tick, after the flush.
        Updates are at-least-once under retry, exactly like the Store's
        fail-over."""
        store = FaultySpillStore(VolatileSpillStore(InMemorySpillStore()))
        disk = store.delegate.delegate
        replica = _write_through_replica(store)
        store.break_io()
        _update(replica, "u1", amount=5)
        store.heal_io()
        effects = _update(replica, "u2", amount=5)  # client retry
        payloads = [m.message for _, m in effects.sends]
        assert not any(isinstance(m, (UpdateDone, Refused)) for m in payloads)
        assert (_SYNC_TIMER, 0.0) in effects.timers
        assert disk.get("k") is None  # put, not yet flushed
        released = replica.on_timer(_SYNC_TIMER, 0.0)
        assert any(isinstance(m.message, UpdateDone) for _, m in released.sends)
        # The retried step re-put the whole triple and the tick flushed
        # it — the refused step's RAM-only merge included (10 = both).
        assert disk.get("k").state.value() == replica.state_of("k").value() == 10
        recovered = KeyedCrdtReplica.recover(
            store,
            "r0",
            ["r0", "r1", "r2"],
            lambda key: GCounter.initial(),
            CrdtPaxosConfig(durability="write_through"),
            rejoin=True,
        )
        assert recovered.state_of("k").value() == 10

    def test_failed_flush_releases_nothing_and_rearms(self):
        """The put lands but the tick's fsync fails: the parked ack stays
        parked, the tick re-arms on the sync-window cadence (not at
        delay 0 — a sick disk must not spin the driver), and the first
        flush that succeeds after the heal releases it."""
        store = FaultySpillStore(VolatileSpillStore(InMemorySpillStore()))
        disk = store.delegate.delegate
        replica = _write_through_replica(store)
        _update(replica, "u1", amount=5)
        store.flush_failure_probability = 1.0
        failed = replica.on_timer(_SYNC_TIMER, 0.0)
        assert failed.sends == []
        assert failed.timers == [(_SYNC_TIMER, replica.config.durability_sync_window)]
        assert replica.persist_refusals == 1 and replica.group_commits == 0
        assert disk.get("k") is None
        store.flush_failure_probability = 0.0
        released = replica.on_timer(_SYNC_TIMER, 0.002)
        assert any(isinstance(m.message, UpdateDone) for _, m in released.sends)
        assert disk.get("k").state.value() == 5
        assert (replica.group_commits, replica.group_commit_acks) == (1, 1)
