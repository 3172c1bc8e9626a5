"""End-to-end tests of the synchronous Store frontend over the simulator."""

import pytest

from repro.api import SimStore
from repro.core import CrdtPaxosReplica
from repro.core.keyspace import KeyedCrdtReplica
from repro.crdt import (
    GCounter,
    GCounterValue,
    LWWMap,
    ORSet,
    ORSetElements,
)
from repro.errors import RequestTimeout
from repro.net.sim_transport import SimNetwork
from repro.runtime.cluster import SimCluster
from repro.sim.kernel import Simulator


def initial_state_for(key):
    if str(key).startswith("tags:"):
        return ORSet.initial()
    if str(key).startswith("profile:"):
        return LWWMap.initial()
    return GCounter.initial()


def keyed_cluster(seed=0):
    sim = Simulator(seed=seed)
    network = SimNetwork(sim)
    cluster = SimCluster(
        sim,
        network,
        lambda nid, peers: KeyedCrdtReplica(nid, peers, initial_state_for),
        n_replicas=3,
    )
    return cluster


def plain_cluster(seed=0, initial=None):
    sim = Simulator(seed=seed)
    network = SimNetwork(sim)
    cluster = SimCluster(
        sim,
        network,
        lambda nid, peers: CrdtPaxosReplica(
            nid, peers, initial if initial is not None else GCounter.initial()
        ),
        n_replicas=3,
    )
    return cluster


def test_counter_round_trip_unkeyed():
    store = SimStore(plain_cluster(), client="t")
    counter = store.counter()
    for _ in range(4):
        counter.incr()
    counter.incr(6)
    assert counter.value(via="r2") == 10


def test_generic_query_returns_full_receipt():
    store = SimStore(plain_cluster(seed=3), client="t")
    counter = store.counter()
    counter.incr()
    receipt = counter.query(GCounterValue(), via="r1")
    assert receipt.value == 1
    assert receipt.round_trips >= 1
    assert receipt.learned_via in ("fast", "vote")
    assert receipt.proposer == "r1"
    assert receipt.client_attempts == 1


def test_keyed_store_heterogeneous_types():
    store = SimStore(keyed_cluster(), client="t")
    views = store.counter("views:home")
    tags = store.orset("tags:p1")
    profile = store.lwwmap("profile:1")

    views.incr()
    views.incr(2)
    tags.add("new")
    tags.add("sale")
    tags.remove("new")
    profile.put("name", "ada", timestamp=1.0)

    assert views.value() == 3
    assert tags.elements() == frozenset({"sale"})
    assert profile.get("name") == "ada"
    assert profile.keys() == frozenset({"name"})


def test_keys_are_independent_instances():
    store = SimStore(keyed_cluster(seed=5), client="t")
    store.counter("views:a").incr(7)
    assert store.counter("views:b").value() == 0
    assert store.counter("views:a").value() == 7


def test_read_method_defaults_to_identity_query():
    store = SimStore(plain_cluster(seed=6), client="t")
    counter = store.counter()
    counter.incr(2)
    state = counter.read()
    assert isinstance(state, GCounter)
    assert state.value() == 2


def test_failover_after_home_replica_crash():
    cluster = plain_cluster(seed=7)
    store = SimStore(cluster, client="t", home="r0", timeout=0.5)
    store.counter().incr()
    cluster.crash("r0")
    receipt = store.counter().query(GCounterValue())
    # The store timed out on the dead home and failed over.
    assert receipt.replica != "r0"
    assert receipt.client_attempts > 1
    assert receipt.value == 1
    # Fail-over is sticky: the next operation goes straight to a live one.
    second = store.counter().incr()
    assert second.replica != "r0"
    assert second.client_attempts == 1


def test_one_off_via_pin_does_not_rehome_the_store():
    cluster = plain_cluster(seed=11)
    store = SimStore(cluster, client="t", home="r0")
    store.counter().incr()
    # A pinned diagnostic read elsewhere must not move the home replica.
    store.counter().query(GCounterValue(), via="r2")
    receipt = store.counter().incr()
    assert receipt.replica == "r0"


def test_request_timeout_when_no_quorum():
    cluster = plain_cluster(seed=8)
    cluster.crash("r1")
    cluster.crash("r2")
    store = SimStore(cluster, client="t", timeout=0.2, max_attempts=3)
    with pytest.raises(RequestTimeout):
        store.counter().incr()


def test_orset_receipt_through_generic_handle():
    store = SimStore(plain_cluster(seed=9, initial=ORSet.initial()), client="t")
    cart = store.orset()
    cart.add("milk")
    cart.add("beans")
    cart.remove("milk")
    receipt = cart.query(ORSetElements(), via="r2")
    assert receipt.value == frozenset({"beans"})


def test_flush_persists_keyed_replicas_to_their_spill_stores():
    """Store.flush() drives every keyed replica's spill_all: after the
    flush a fresh replica recovered from any store serves the data."""
    from repro.core.config import CrdtPaxosConfig
    from repro.storage import InMemorySpillStore

    stores = {}

    def factory(nid, peers):
        stores[nid] = InMemorySpillStore()
        return KeyedCrdtReplica(
            nid,
            peers,
            initial_state_for,
            CrdtPaxosConfig(keyed_max_resident=8, keyed_max_frozen=8),
            spill_store=stores[nid],
        )

    sim = Simulator(seed=5)
    network = SimNetwork(sim)
    cluster = SimCluster(sim, network, factory, n_replicas=3)
    store = SimStore(cluster, client="t")
    for page in range(4):
        store.counter(f"views:p{page}").incr(page + 1)
    store.orset("tags:all").add("crdt")

    flushed = store.flush()
    assert set(flushed) == {"r0", "r1", "r2"}
    assert all(spills > 0 for spills in flushed.values())
    for nid, spill_store in stores.items():
        recovered = KeyedCrdtReplica.recover(
            spill_store, nid, ["r0", "r1", "r2"], initial_state_for
        )
        assert recovered.state_of("views:p3").value() == 4
        assert "crdt" in recovered.state_of("tags:all").live_elements()


def test_flush_without_a_spill_store_reports_zero_spills():
    """Without a spill tier there is nothing to persist: flush visits
    every keyed replica and reports no spills."""
    sim = Simulator(seed=6)
    network = SimNetwork(sim)
    cluster = SimCluster(
        sim,
        network,
        lambda nid, peers: KeyedCrdtReplica(nid, peers, initial_state_for),
        n_replicas=3,
    )
    store = SimStore(cluster, client="t", timeout=20.0)
    receipt = store.counter("views:home").incr()
    assert receipt is not None
    flushed = store.flush()
    assert set(flushed) == {"r0", "r1", "r2"}
    assert all(spills == 0 for spills in flushed.values())


def test_flush_is_a_noop_on_unkeyed_clusters():
    store = SimStore(plain_cluster(seed=12), client="t")
    store.counter().incr()
    assert store.flush() == {}


# ----------------------------------------------------------------------
# Health-aware fail-over (nemesis satellite): sticky expiry, hedging,
# typed fail-fast errors
# ----------------------------------------------------------------------
def test_failover_stickiness_expires_when_home_recovers():
    """Regression (failing before the fix): fail-over used to re-home the
    store permanently — after the configured home recovered, traffic
    kept going to the fail-over target forever.  Stickiness must expire
    with the home's suspicion window."""
    cluster = plain_cluster(seed=21)
    store = SimStore(cluster, client="t", home="r0", timeout=0.5)
    store.counter().incr()
    cluster.crash("r0")
    receipt = store.counter().query(GCounterValue())
    assert receipt.replica != "r0"  # failed over...
    sticky = receipt.replica
    assert store.counter().incr().replica == sticky  # ...and sticky
    cluster.recover("r0")
    # While r0 is still suspected the store stays on the sticky target.
    assert store.counter().incr().replica == sticky
    # Let every strike's suspicion window expire in virtual time.
    cluster.sim.run(until=cluster.sim.now + 60.0)
    receipt = store.counter().incr()
    assert receipt.replica == "r0"  # went home again
    assert receipt.client_attempts == 1


def test_suspected_replicas_sort_to_the_back_of_the_rotation():
    cluster = plain_cluster(seed=22)
    store = SimStore(cluster, client="t", home="r0", timeout=0.5)
    cluster.crash("r0")
    store.counter().incr()  # strikes r0, serves via fail-over
    assert store.health.suspected("r0")
    targets = store._attempt_targets(None)
    assert targets[-1] == "r0"  # suspect last, still tried eventually
    # An explicit via= pin is honored verbatim, suspicion or not.
    assert store._attempt_targets("r0")[0] == "r0"


def test_hedged_attempt_timeout_on_suspects():
    cluster = plain_cluster(seed=23)
    store = SimStore(
        cluster, client="t", home="r0", timeout=1.0, hedge_factor=0.25
    )
    assert store._attempt_timeout("r0") == 1.0
    store.health.record_failure("r0")
    assert store._attempt_timeout("r0") == 0.25  # hedged while suspected
    store.health.record_success("r0")
    assert store._attempt_timeout("r0") == 1.0


def test_quorum_unavailable_is_typed_and_bounded():
    """With the majority dead and ``redrive_limit`` set, every replica
    refuses in bounded time and the store surfaces the typed
    ``QuorumUnavailable`` (a ``RequestTimeout`` subclass) instead of
    burning the full timeout budget on silence."""
    from repro.core.config import CrdtPaxosConfig
    from repro.errors import QuorumUnavailable

    sim = Simulator(seed=24)
    network = SimNetwork(sim)
    cluster = SimCluster(
        sim,
        network,
        lambda nid, peers: CrdtPaxosReplica(
            nid,
            peers,
            GCounter.initial(),
            CrdtPaxosConfig(request_timeout=0.05, redrive_limit=2),
        ),
        n_replicas=3,
    )
    cluster.crash("r1")
    cluster.crash("r2")
    store = SimStore(cluster, client="t", timeout=5.0, max_attempts=2)
    with pytest.raises(QuorumUnavailable) as excinfo:
        store.counter().incr()
    assert "quorum" in str(excinfo.value)
    # Bounded: the refusal came from the replica's re-drive budget
    # (~0.05 · 2^k seconds), far under the 5s-per-attempt silence path.
    assert sim.now < 2.0
    # QuorumUnavailable still satisfies legacy RequestTimeout handlers.
    assert isinstance(excinfo.value, RequestTimeout)


def test_storage_unavailable_and_failover_around_a_broken_disk():
    """A write-through proposer with a browned-out disk refuses with
    ``code="storage"``: pinned to it the store raises the typed
    :class:`StorageUnavailable`; free to fail over it completes the
    update through a healthy proposer (the sick disk's own Merged ack is
    withheld, but the other two replicas form the quorum)."""
    from repro.core.config import CrdtPaxosConfig
    from repro.errors import StorageUnavailable
    from repro.storage import FaultySpillStore, InMemorySpillStore

    stores = {}

    def factory(nid, peers):
        stores[nid] = FaultySpillStore(InMemorySpillStore())
        return KeyedCrdtReplica(
            nid,
            peers,
            initial_state_for,
            CrdtPaxosConfig(durability="write_through"),
            spill_store=stores[nid],
        )

    sim = Simulator(seed=25)
    network = SimNetwork(sim)
    cluster = SimCluster(sim, network, factory, n_replicas=3)
    pinned = SimStore(
        cluster, client="t", home="r0", timeout=2.0, max_attempts=1
    )
    pinned.counter("k").incr()  # healthy first: baseline works
    stores["r0"].break_io()
    with pytest.raises(StorageUnavailable):
        pinned.counter("k").incr()
    assert cluster.node("r0").persist_refusals > 0
    # Free to fail over, the same update completes elsewhere.
    roaming = SimStore(
        cluster, client="t2", home="r0", timeout=2.0, max_attempts=3
    )
    receipt = roaming.counter("k").incr()
    assert receipt.replica != "r0"
    assert receipt.client_attempts > 1
    # Heal: the pinned store resumes at its home, no intervention.
    stores["r0"].heal_io()
    assert pinned.counter("k").incr().replica == "r0"
