"""Peer-bound keyed traffic leaves in the step that produced it.

The keyed replica has one outbound path: every ``Keyed`` envelope a
handling step emits is in that step's effects, addressed to its
destination, with no replica-side parking, flush timer or framing
envelope.  The socket transport's per-turn write is the only batching
layer below it.  Group-commit ack parking under a durable mode is the
one deliberate hold (covered in ``test_spill_keyspace`` and the durable
campaigns); everything here runs with ``durability="none"``.

Update re-drives follow from the same rule: a timed-out batch re-sends
its MERGE directly to the peers that have not acked, and a later
batch's delta reaches the wire inside the earlier batch's *next*
re-drive — folding it in sends nothing by itself.
"""

import pytest

from repro.api.codec import compile_query, compile_update
from repro.core.acceptor import AcceptorStats
from repro.core.config import CrdtPaxosConfig
from repro.core.keyspace import Keyed, KeyedCrdtReplica
from repro.core.messages import (
    ClientUpdate,
    Merge,
    Merged,
    Prepare,
    PrepareAck,
    UpdateDone,
)
from repro.crdt import GCounter, GCounterValue, Increment
from repro.storage.memory import InMemorySpillStore

PEERS = ["r0", "r1", "r2"]


def make_replica(node_id="r0", peers=PEERS, **config_kwargs):
    return KeyedCrdtReplica(
        node_id,
        list(peers),
        lambda key: GCounter.initial(),
        CrdtPaxosConfig(**config_kwargs),
    )


def sends_to(effects, dst):
    return [message for target, message in effects.sends if target == dst]


def inner_of(effects, message_type):
    return [
        (dst, message.message)
        for dst, message in effects.sends
        if isinstance(message.message, message_type)
    ]


def update(replica, rid, amount=1, key="k", now=0.0):
    return replica.on_message(
        "c0", Keyed(key=key, message=ClientUpdate(rid, Increment(amount))), now
    )


def redrive_timer(effects):
    (timer_key,) = [key for key, _ in effects.timers if "|uto:" in key]
    return timer_key


class TestUpdatePath:
    def test_merge_reaches_every_peer_in_the_same_step(self):
        replica = make_replica()
        effects = update(replica, "u1")
        for peer in ("r1", "r2"):
            (message,) = sends_to(effects, peer)
            assert isinstance(message, Keyed)
            assert message.key == "k"
            assert isinstance(message.message, Merge)
            assert message.message.state.value() == 1
        assert sends_to(effects, "r0") == []  # the local accept is in-step

    def test_broadcast_shares_one_envelope(self):
        replica = make_replica()
        effects = update(replica, "u1")
        (to_r1,) = sends_to(effects, "r1")
        (to_r2,) = sends_to(effects, "r2")
        assert to_r1 is to_r2

    def test_only_per_key_timers_are_armed(self):
        replica = make_replica()
        effects = update(replica, "u1")
        assert effects.timers
        for timer_key, _delay in effects.timers:
            assert timer_key.startswith("'k'|"), timer_key

    def test_no_timers_without_a_request_timeout(self):
        replica = make_replica(request_timeout=None)
        effects = update(replica, "u1")
        assert effects.timers == []
        assert len(effects.sends) == 2

    def test_two_keys_leave_as_two_envelopes_per_peer(self):
        replica = make_replica()
        first = update(replica, "u1", key="a")
        second = update(replica, "u2", key="b")
        for peer in ("r1", "r2"):
            (a,) = sends_to(first, peer)
            (b,) = sends_to(second, peer)
            assert (a.key, b.key) == ("a", "b")
            assert a.message.request_id != b.message.request_id

    def test_single_member_group_replies_in_step(self):
        replica = make_replica(peers=["r0"])
        effects = update(replica, "u1")
        (reply,) = sends_to(effects, "c0")
        assert isinstance(reply, Keyed)
        assert isinstance(reply.message, UpdateDone)
        assert reply.message.request_id == "u1"
        assert effects.timers == []

    def test_quorum_ack_completes_the_update_in_step(self):
        replica = make_replica()
        effects = update(replica, "u1")
        (request_id,) = {merge.request_id for _, merge in inner_of(effects, Merge)}
        done = replica.on_message(
            "r1", Keyed(key="k", message=Merged(request_id=request_id)), 0.0
        )
        (reply,) = sends_to(done, "c0")
        assert reply.message.request_id == "u1"
        assert reply.key == "k"

    def test_client_codec_update_takes_the_same_path(self):
        replica = make_replica()
        effects = replica.on_message(
            "c0", compile_update("u1", Increment(), key="a"), 0.0
        )
        assert len(sends_to(effects, "r1")) == 1
        assert len(sends_to(effects, "r2")) == 1


class TestAcceptorReplies:
    def test_merged_ack_goes_straight_back(self):
        receiver = make_replica("r1")
        merge = Merge(request_id="r0/u1", state=GCounter.initial().incremented("r0", 2))
        effects = receiver.on_message("r0", Keyed(key="k", message=merge), 0.0)
        (ack,) = sends_to(effects, "r0")
        assert isinstance(ack.message, Merged)
        assert ack.message.request_id == "r0/u1"
        assert receiver.state_of("k").value() == 2
        assert effects.timers == []

    def test_acks_for_two_keys_leave_as_two_envelopes(self):
        receiver = make_replica("r1")
        effects = []
        for key in ("a", "b"):
            merge = Merge(request_id=f"r0/{key}", state=GCounter.initial())
            effects.append(
                receiver.on_message("r0", Keyed(key=key, message=merge), 0.0)
            )
        keys = [ack.key for step in effects for ack in sends_to(step, "r0")]
        assert keys == ["a", "b"]
        assert receiver.acceptor_stats.merges_handled == 2

    def test_prepare_ack_goes_straight_back(self):
        origin = make_replica("r0")
        query = origin.on_message(
            "c0", compile_query("q1", GCounterValue(), key="k"), 0.0
        )
        prepares = inner_of(query, Prepare)
        assert {dst for dst, _ in prepares} == {"r1", "r2"}
        (to_r1,) = sends_to(query, "r1")

        receiver = make_replica("r1")
        effects = receiver.on_message("r0", to_r1, 0.0)
        (reply,) = sends_to(effects, "r0")
        assert isinstance(reply.message, PrepareAck)
        assert reply.key == "k"

    def test_a_whole_update_round_trip_needs_no_timer(self):
        nodes = {peer: make_replica(peer, request_timeout=None) for peer in PEERS}
        pending = [("c0", "r0", Keyed(key="k", message=ClientUpdate("u1", Increment(3))))]
        replies = []
        while pending:
            src, dst, message = pending.pop(0)
            if dst == "c0":
                replies.append(message)
                continue
            effects = nodes[dst].on_message(src, message, 0.0)
            assert effects.timers == []
            pending.extend((dst, target, sent) for target, sent in effects.sends)
        assert [reply.message.request_id for reply in replies] == ["u1"]
        assert all(node.state_of("k").value() == 3 for node in nodes.values())


class TestRedrive:
    def test_timeout_re_sends_the_merge_directly(self):
        replica = make_replica(request_timeout=0.5)
        effects = update(replica, "u1")
        redrive = replica.on_timer(redrive_timer(effects), 0.6)
        merges = inner_of(redrive, Merge)
        assert {dst for dst, _ in merges} == {"r1", "r2"}
        assert all(merge.request_id == "r0/u1" for _, merge in merges)

    def test_redrive_carries_state_merged_since(self):
        replica = make_replica(request_timeout=0.5)
        effects = update(replica, "u1")
        remote = Increment(5).apply(GCounter.initial(), "r2")
        replica.on_message(
            "r2", Keyed(key="k", message=Merge(request_id="m9", state=remote)), 0.1
        )
        redrive = replica.on_timer(redrive_timer(effects), 0.6)
        merges = inner_of(redrive, Merge)
        assert merges
        assert all(merge.state.value() == 6 for _, merge in merges)

    def test_redrive_skips_peers_that_acked(self):
        # Five members: local + one remote ack is not yet a quorum, so the
        # batch stays open across the ack and the re-drive.
        replica = make_replica(peers=["r0", "r1", "r2", "r3", "r4"], request_timeout=0.5)
        effects = update(replica, "u1")
        assert {dst for dst, _ in effects.sends} == {"r1", "r2", "r3", "r4"}
        replica.on_message("r1", Keyed(key="k", message=Merged(request_id="r0/u1")), 0.2)
        redrive = replica.on_timer(redrive_timer(effects), 0.6)
        assert {dst for dst, _ in inner_of(redrive, Merge)} == {"r2", "r3", "r4"}

    def test_redrive_after_completion_sends_nothing(self):
        replica = make_replica(request_timeout=0.5)
        effects = update(replica, "u1")
        replica.on_message("r1", Keyed(key="k", message=Merged(request_id="r0/u1")), 0.2)
        assert inner_of(replica.on_timer(redrive_timer(effects), 0.6), Merge) == []

    def test_folding_a_new_batch_sends_only_its_own_merge(self):
        replica = make_replica(
            request_timeout=0.5, update_pipeline=2, delta_merge=True
        )
        first = update(replica, "u1", amount=1)
        replica.on_timer(redrive_timer(first), 0.6)  # batch 1 re-driven once
        second = update(replica, "u2", amount=2, now=0.65)
        request_ids = {merge.request_id for _, merge in inner_of(second, Merge)}
        assert request_ids == {"r0/u2"}

    def test_folded_delta_rides_the_next_redrive(self):
        replica = make_replica(
            request_timeout=0.5, update_pipeline=2, delta_merge=True
        )
        first = update(replica, "u1", amount=1)
        timer_key = redrive_timer(first)
        replica.on_timer(timer_key, 0.6)
        update(replica, "u2", amount=2, now=0.65)
        redrive = replica.on_timer(timer_key, 2.0)
        merges = [
            merge for _, merge in inner_of(redrive, Merge)
            if merge.request_id == "r0/u1"
        ]
        assert {dst for dst, _ in inner_of(redrive, Merge)} == {"r1", "r2"}
        assert merges
        assert all(merge.state.value() == 3 for merge in merges)


class TestNodeLifecycle:
    def test_restart_arms_nothing_for_a_plain_replica(self):
        replica = make_replica()
        update(replica, "u1")
        assert replica.on_start(1.0).timers == []

    def test_restart_re_arms_the_idle_sweep(self):
        replica = make_replica(keyed_idle_evict_s=5.0)
        update(replica, "u1")
        effects = replica.on_start(1.0)
        assert [key for key, _ in effects.timers] == ["keyspace-sweep"]

    def test_flush_without_a_spill_store_has_nothing_to_send(self):
        replica = make_replica()
        update(replica, "u1")
        effects = replica.flush()
        assert effects.sends == [] and effects.timers == []

    def test_spill_all_under_no_durability_releases_no_acks(self):
        store = InMemorySpillStore()
        replica = KeyedCrdtReplica(
            "r0",
            list(PEERS),
            lambda key: GCounter.initial(),
            CrdtPaxosConfig(),
            spill_store=store,
        )
        update(replica, "u1", key="a")
        update(replica, "u2", key="b")
        assert replica.spill_all().sends == []
        assert "a" in store and "b" in store


@pytest.mark.parametrize(
    "name",
    [
        "keyed_coalesce_window",
        "keyed_coalesce_adaptive",
        "keyed_coalesce_min_window",
        "keyed_outbox_byte_budget",
    ],
)
def test_replica_side_batching_knobs_are_gone(name):
    with pytest.raises(TypeError):
        CrdtPaxosConfig(**{name: 1})


def test_acceptor_stats_count_protocol_steps_only():
    assert set(AcceptorStats().snapshot()) == {
        "merges_handled",
        "prepares_accepted",
        "prepares_rejected",
        "prepares_matched",
        "votes_granted",
        "votes_denied",
    }
