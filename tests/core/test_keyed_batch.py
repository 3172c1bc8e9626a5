"""Unit tests for cross-key envelope coalescing (KeyedBatch) and for
GLA-Stability persistence across freeze/thaw."""

from repro.api.codec import compile_query, compile_update
from repro.core.config import CrdtPaxosConfig
from repro.core.keyspace import Keyed, KeyedBatch, KeyedCrdtReplica
from repro.core.messages import Merge
from repro.crdt import GCounter, GCounterValue, Increment
from repro.net.message import ENVELOPE_OVERHEAD_BYTES, wire_size

PEERS = ["r0", "r1", "r2"]


def make_replica(node_id="r0", **config_kwargs):
    config = CrdtPaxosConfig(**config_kwargs)
    return KeyedCrdtReplica(
        node_id, list(PEERS), lambda key: GCounter.initial(), config
    )


def sends_to(effects, dst):
    return [message for target, message in effects.sends if target == dst]


def timer_keys(effects):
    return [key for key, _delay in effects.timers]


class TestCoalescing:
    def test_peer_sends_detour_through_outbox(self):
        replica = make_replica(keyed_coalesce_window=0.002)
        effects = replica.on_message(
            "c0", compile_update("u1", Increment(), key="a"), 0.0
        )
        # The MERGE broadcast to r1/r2 is parked; only the coalesce
        # flush timer (plus the per-key request timer) is armed.
        assert sends_to(effects, "r1") == []
        assert sends_to(effects, "r2") == []
        assert "keyspace-coalesce" in timer_keys(effects)

    def test_flush_packs_one_batch_per_peer(self):
        replica = make_replica(keyed_coalesce_window=0.002)
        replica.on_message("c0", compile_update("u1", Increment(), key="a"), 0.0)
        replica.on_message("c0", compile_update("u2", Increment(), key="b"), 0.0)
        flushed = replica.on_timer("keyspace-coalesce", 0.002)
        for peer in ("r1", "r2"):
            messages = sends_to(flushed, peer)
            assert len(messages) == 1
            (batch,) = messages
            assert isinstance(batch, KeyedBatch)
            assert [item.key for item in batch.items] == ["a", "b"]
            assert all(isinstance(item, Keyed) for item in batch.items)
        stats = replica.acceptor_stats
        assert stats.keyed_batches_packed == 2  # one per peer
        assert stats.keyed_batch_messages == 4
        # One envelope's framing saved per coalesced message beyond the first.
        assert stats.keyed_batch_bytes_saved == 2 * ENVELOPE_OVERHEAD_BYTES

    def test_single_message_flushes_unframed(self):
        replica = make_replica(keyed_coalesce_window=0.002)
        replica.on_message("c0", compile_update("u1", Increment(), key="a"), 0.0)
        flushed = replica.on_timer("keyspace-coalesce", 0.002)
        (message,) = sends_to(flushed, "r1")
        assert isinstance(message, Keyed)  # no pointless framing
        assert replica.acceptor_stats.keyed_batches_packed == 0

    def test_client_replies_are_never_delayed(self):
        # A single-replica group completes the update synchronously; the
        # UpdateDone to the client must leave immediately.
        replica = KeyedCrdtReplica(
            "r0",
            ["r0"],
            lambda key: GCounter.initial(),
            CrdtPaxosConfig(keyed_coalesce_window=0.002),
        )
        effects = replica.on_message(
            "c0", compile_update("u1", Increment(), key="a"), 0.0
        )
        (reply,) = sends_to(effects, "c0")
        assert isinstance(reply, Keyed)
        assert reply.message.request_id == "u1"

    def test_unpacking_routes_every_item(self):
        sender = make_replica("r0", keyed_coalesce_window=0.002)
        sender.on_message("c0", compile_update("u1", Increment(), key="a"), 0.0)
        sender.on_message("c0", compile_update("u2", Increment(2), key="b"), 0.0)
        flushed = sender.on_timer("keyspace-coalesce", 0.002)
        (batch,) = sends_to(flushed, "r1")

        receiver = make_replica("r1")
        effects = receiver.on_message("r0", batch, 0.0)
        assert receiver.acceptor_stats.keyed_batches_unpacked == 1
        assert receiver.state_of("a").value() == 1
        assert receiver.state_of("b").value() == 2
        # Both MERGED acks go back to the proposer replica.
        acks = sends_to(effects, "r0")
        assert len(acks) == 2

    def test_receiver_coalesces_the_unpacked_replies(self):
        sender = make_replica("r0", keyed_coalesce_window=0.002)
        sender.on_message("c0", compile_update("u1", Increment(), key="a"), 0.0)
        sender.on_message("c0", compile_update("u2", Increment(), key="b"), 0.0)
        (batch,) = sends_to(sender.on_timer("keyspace-coalesce", 0.002), "r1")

        receiver = make_replica("r1", keyed_coalesce_window=0.002)
        effects = receiver.on_message("r0", batch, 0.0)
        # Replies parked; one flush later they leave as a single batch.
        assert sends_to(effects, "r0") == []
        flushed = receiver.on_timer("keyspace-coalesce", 0.002)
        (reply_batch,) = sends_to(flushed, "r0")
        assert isinstance(reply_batch, KeyedBatch)
        assert len(reply_batch.items) == 2

    def test_batch_wire_size_is_items_plus_framing(self):
        inner = [
            Keyed(key="a", message=Merge(request_id="m1", state=GCounter.initial())),
            Keyed(key="b", message=Merge(request_id="m2", state=GCounter.initial())),
        ]
        batch = KeyedBatch(items=tuple(inner))
        framing = wire_size(KeyedBatch(items=()))
        assert wire_size(batch) == framing + sum(wire_size(item) for item in inner)

    def test_restart_rearms_flush_for_parked_traffic(self):
        replica = make_replica(keyed_coalesce_window=0.002)
        replica.on_message("c0", compile_update("u1", Increment(), key="a"), 0.0)
        # Crash loses the armed timer; on_start must re-arm it or the
        # parked MERGE would wait for the request-timeout re-drive.
        effects = replica.on_start(1.0)
        assert "keyspace-coalesce" in timer_keys(effects)
        flushed = replica.on_timer("keyspace-coalesce", 1.002)
        assert sends_to(flushed, "r1") or sends_to(flushed, "r2")

    def test_disabled_by_default(self):
        replica = make_replica()
        effects = replica.on_message(
            "c0", compile_update("u1", Increment(), key="a"), 0.0
        )
        assert len(sends_to(effects, "r1")) == 1
        assert "keyspace-coalesce" not in timer_keys(effects)


class TestLearnedMaxPersistence:
    def single_node(self, **config_kwargs):
        config = CrdtPaxosConfig(gla_stability=True, **config_kwargs)
        return KeyedCrdtReplica(
            "r0", ["r0"], lambda key: GCounter.initial(), config
        )

    def learned_value(self, replica, key, rid):
        effects = replica.on_message(
            "c0", compile_query(rid, GCounterValue(), key=key), 0.0
        )
        (reply,) = [m for dst, m in effects.sends if dst == "c0"]
        return reply.message.result

    def test_learned_max_survives_freeze_thaw(self):
        replica = self.single_node()
        replica.on_message("c0", compile_update("u1", Increment(5), key="a"), 0.0)
        assert self.learned_value(replica, "a", "q1") == 5
        inst = replica.instance("a")
        assert inst.proposer.learned_max is not None
        assert inst.proposer.learned_max.value() == 5

        assert replica._freeze("a", inst)
        frozen = replica._frozen["a"]
        assert frozen.learned_max is not None
        assert frozen.learned_max.value() == 5

        # Rehydrate via a fresh local query: the new proposer generation
        # starts from the persisted maximum, not from scratch.
        assert self.learned_value(replica, "a", "q2") == 5
        thawed = replica.instance("a")
        assert thawed.proposer.learned_max.value() == 5

    def test_learned_max_survives_acceptor_only_generations(self):
        # Freeze → thaw via *peer* traffic only (no proposer) → freeze
        # again: the parked maximum must not be lost in between.
        replica = self.single_node()
        replica.on_message("c0", compile_update("u1", Increment(3), key="a"), 0.0)
        assert self.learned_value(replica, "a", "q1") == 3
        assert replica._freeze("a", replica.instance("a"))

        state = GCounter.initial().incremented("r1", 1)
        replica.on_message(
            "r1", Keyed(key="a", message=Merge(request_id="m", state=state)), 0.0
        )
        inst = replica.instance("a")
        assert inst.proposer is None  # acceptor-only generation
        assert replica._freeze("a", inst)
        assert replica._frozen["a"].learned_max.value() == 3

    def test_no_learned_max_without_gla_stability(self):
        replica = KeyedCrdtReplica(
            "r0", ["r0"], lambda key: GCounter.initial(), CrdtPaxosConfig()
        )
        replica.on_message("c0", compile_update("u1", Increment(), key="a"), 0.0)
        self.learned_value(replica, "a", "q1")
        inst = replica.instance("a")
        assert inst.proposer.learned_max is None
        assert replica._freeze("a", inst)
        assert replica._frozen["a"].learned_max is None
