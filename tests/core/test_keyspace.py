"""Tests for the keyed CRDT store (per-key protocol instances)."""

from typing import Any

from repro.core.config import CrdtPaxosConfig
from repro.core.keyspace import Keyed, KeyedCrdtReplica
from repro.core.messages import ClientQuery, ClientUpdate, Merge, QueryDone, UpdateDone
from repro.crdt.gcounter import GCounter, GCounterValue, Increment
from repro.crdt.gset import Elements, GSet, GSetAdd
from repro.net.latency import ConstantLatency
from repro.net.sim_transport import SimNetwork
from repro.runtime.cluster import ClientEndpoint, SimCluster
from repro.sim.kernel import Simulator


def initial_state_for(key):
    if str(key).startswith("set:"):
        return GSet.initial()
    return GCounter.initial()


class KeyedHarness:
    def __init__(self, seed: int = 1) -> None:
        self.sim = Simulator(seed=seed)
        self.network = SimNetwork(self.sim, latency=ConstantLatency(delay=1e-3))
        self.cluster = SimCluster(
            self.sim,
            self.network,
            lambda nid, peers: KeyedCrdtReplica(nid, peers, initial_state_for),
            n_replicas=3,
        )
        self.replies: dict[str, Any] = {}
        self.client = ClientEndpoint(self.sim, self.network, "c", self._on_reply)
        self._counter = 0

    def _on_reply(self, src: str, message: Any) -> None:
        if isinstance(message, Keyed) and isinstance(
            message.message, (UpdateDone, QueryDone)
        ):
            self.replies[message.message.request_id] = message.message

    def update(self, replica: str, key, op) -> str:
        self._counter += 1
        request_id = f"u{self._counter}"
        self.client.send(
            replica,
            Keyed(key=key, message=ClientUpdate(request_id=request_id, op=op)),
        )
        return request_id

    def query(self, replica: str, key, op) -> str:
        self._counter += 1
        request_id = f"q{self._counter}"
        self.client.send(
            replica,
            Keyed(key=key, message=ClientQuery(request_id=request_id, op=op)),
        )
        return request_id

    def run(self, duration: float = 1.0) -> None:
        self.sim.run(until=self.sim.now + duration)


def test_independent_keys_do_not_interact():
    harness = KeyedHarness()
    harness.update("r0", "views:home", Increment(3))
    harness.update("r1", "views:about", Increment(5))
    harness.run(1.0)
    q1 = harness.query("r2", "views:home", GCounterValue())
    q2 = harness.query("r2", "views:about", GCounterValue())
    harness.run(1.0)
    assert harness.replies[q1].result == 3
    assert harness.replies[q2].result == 5


def test_heterogeneous_types_per_key():
    harness = KeyedHarness()
    harness.update("r0", "views:home", Increment())
    harness.update("r0", "set:tags", GSetAdd("crdt"))
    harness.update("r1", "set:tags", GSetAdd("paxos"))
    harness.run(1.0)
    q = harness.query("r2", "set:tags", Elements())
    harness.run(1.0)
    assert harness.replies[q].result == frozenset({"crdt", "paxos"})


def test_many_keys_scale_without_cross_talk():
    harness = KeyedHarness()
    request_ids = []
    for i in range(20):
        request_ids.append(
            harness.update(f"r{i % 3}", f"counter:{i % 5}", Increment())
        )
    harness.run(2.0)
    assert all(rid in harness.replies for rid in request_ids)
    totals = []
    for i in range(5):
        qid = harness.query("r0", f"counter:{i}", GCounterValue())
        harness.run(1.0)
        totals.append(harness.replies[qid].result)
    assert sum(totals) == 20
    assert all(t == 4 for t in totals)


def test_per_key_memory_is_payload_plus_round():
    harness = KeyedHarness()
    harness.update("r0", "k1", Increment())
    harness.run(1.0)
    node = harness.cluster.node("r0")
    assert set(node.keys()) == {"k1"}
    assert node.state_of("k1").value() == 1


def test_linearizable_read_per_key():
    harness = KeyedHarness()
    rid = harness.update("r0", "k", Increment(7))
    harness.run(1.0)
    assert rid in harness.replies
    qid = harness.query("r1", "k", GCounterValue())
    harness.run(1.0)
    reply = harness.replies[qid]
    assert reply.result == 7
    assert reply.round_trips >= 1


def test_unkeyed_messages_ignored():
    harness = KeyedHarness()
    harness.client.send("r0", "stray string")
    harness.run(0.5)  # must not crash
    assert harness.replies == {}


# ----------------------------------------------------------------------
# Flyweight / lazy-proposer / eviction unit tests (sans-io)
# ----------------------------------------------------------------------
PEERS = ["r0", "r1", "r2"]


def make_replica(**config_kwargs) -> KeyedCrdtReplica:
    return KeyedCrdtReplica(
        "r0",
        list(PEERS),
        lambda key: GCounter.initial(),
        CrdtPaxosConfig(**config_kwargs),
    )


def payload(amount: int, replica: str = "r1") -> GCounter:
    return Increment(amount).apply(GCounter.initial(), replica)


def deliver_merge(replica, key, amount=1, rid="m1", now=0.0):
    return replica.on_message(
        "r1",
        Keyed(key=key, message=Merge(request_id=rid, state=payload(amount))),
        now,
    )


class TestLazyProposer:
    def test_acceptor_traffic_stays_proposer_free(self):
        replica = make_replica()
        effects = deliver_merge(replica, "k", amount=5)
        inst = replica.instance("k")
        assert inst.proposer is None
        assert replica.state_of("k").value() == 5
        # The Merged ack still went back, wrapped.
        assert any(dst == "r1" for dst, _ in effects.sends)

    def test_client_command_materializes_proposer(self):
        replica = make_replica()
        replica.on_message(
            "client",
            Keyed(key="k", message=ClientUpdate(request_id="u1", op=Increment())),
            0.0,
        )
        assert replica.instance("k").proposer is not None

    def test_stale_proposer_reply_for_lazy_key_is_dropped(self):
        from repro.core.messages import Merged

        replica = make_replica()
        effects = replica.on_message(
            "r1", Keyed(key="k", message=Merged(request_id="r9/u9")), 0.0
        )
        assert effects.sends == []
        assert replica.instance("k").proposer is None


class TestColdKeyEviction:
    def test_capacity_eviction_demotes_lru_quiescent_keys(self):
        replica = make_replica(keyed_max_resident=2)
        deliver_merge(replica, "k1", amount=1, rid="m1")
        deliver_merge(replica, "k2", amount=2, rid="m2")
        deliver_merge(replica, "k3", amount=3, rid="m3")
        assert replica.evictions >= 1
        assert replica.resident_count() <= 2
        assert "k1" not in replica._resident  # least recently touched
        assert set(replica.keys()) == {"k1", "k2", "k3"}  # frozen still listed
        assert replica.state_of("k1").value() == 1  # frozen peek, no churn
        assert replica.rehydrations == 0

    def test_rehydration_preserves_payload_and_round(self):
        replica = make_replica(keyed_max_resident=2)
        deliver_merge(replica, "k1", amount=7, rid="m1")
        round_before = replica.instance("k1").acceptor.round
        deliver_merge(replica, "k2", rid="m2")
        deliver_merge(replica, "k3", rid="m3")
        assert "k1" in replica._frozen
        inst = replica.instance("k1")  # touch → rehydrate
        assert replica.rehydrations == 1
        assert inst.acceptor.state.value() == 7
        assert inst.acceptor.round == round_before

    def test_busy_keys_are_never_evicted(self):
        replica = make_replica(keyed_max_resident=1)
        # Open an update batch on k1: quorum of 2 needed, only self acked.
        replica.on_message(
            "client",
            Keyed(key="k1", message=ClientUpdate(request_id="u1", op=Increment())),
            0.0,
        )
        deliver_merge(replica, "k2", rid="m2")
        deliver_merge(replica, "k3", rid="m3")
        assert "k1" in replica._resident  # pinned by the open batch
        assert not replica.instance("k1").proposer.idle

    def test_idle_sweep_demotes_untouched_keys(self):
        replica = make_replica(keyed_idle_evict_s=1.0)
        start = replica.on_start(0.0)
        assert any(key == "keyspace-sweep" for key, _ in start.timers)
        deliver_merge(replica, "k1", amount=4, rid="m1", now=0.0)
        deliver_merge(replica, "k2", amount=9, rid="m2", now=5.0)
        effects = replica.on_timer("keyspace-sweep", 5.5)
        assert "k1" in replica._frozen  # idle > 1s
        assert "k2" in replica._resident  # touched 0.5s ago
        assert any(key == "keyspace-sweep" for key, _ in effects.timers)  # re-armed
        assert replica.state_of("k1").value() == 4

    def test_sweep_gives_clockless_keys_a_full_idle_window(self):
        """Keys admitted without a clock (warm-up via instance() or
        materialize_proposer) must not be frozen by the first sweep."""
        replica = make_replica(keyed_idle_evict_s=1.0)
        replica.materialize_proposer("warm")
        replica.on_timer("keyspace-sweep", 100.0)
        assert "warm" in replica._resident  # idle window starts now
        replica.on_timer("keyspace-sweep", 101.0)
        assert "warm" in replica._frozen

    def test_stale_timer_for_frozen_key_is_dropped(self):
        replica = make_replica(keyed_max_resident=1, batching=True)
        # Materialize a proposer (and its namespace entry) on k1, let it
        # complete nothing — buffer then flush nothing meaningful.
        replica.materialize_proposer("k1")
        deliver_merge(replica, "k2", rid="m2")
        deliver_merge(replica, "k3", rid="m3")
        assert "k1" in replica._frozen
        effects = replica.on_timer(f"{'k1'!r}|flush", 1.0)
        assert effects.sends == [] and effects.timers == []
