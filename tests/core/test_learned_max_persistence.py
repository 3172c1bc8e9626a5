"""GLA-Stability persistence across freeze/thaw: the §3.4 learned
maximum rides the frozen record and seeds the rehydrated proposer."""

from repro.api.codec import compile_query, compile_update
from repro.core.config import CrdtPaxosConfig
from repro.core.keyspace import Keyed, KeyedCrdtReplica
from repro.core.messages import Merge
from repro.crdt import GCounter, GCounterValue, Increment


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
