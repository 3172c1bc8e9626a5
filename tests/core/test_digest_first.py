"""Digest-first PREPARE: a large payload is stated by its fingerprint.

A proposer whose payloads are past the codec's sized crossover sends
peers the 16-byte fingerprint of the payload it states instead of the
payload; an acceptor holding a state with that fingerprint acks with
``state=None`` and the proposer uses the object it stated.  These tests
pin both roles, the stale-reply filtering the substitution relies on,
and what must not change: small payloads, rejoin refreshes.
"""

from collections import deque

from repro.core.acceptor import Acceptor
from repro.core.config import CrdtPaxosConfig
from repro.core.keyspace import Keyed, KeyedCrdtReplica
from repro.core.messages import (
    ClientQuery,
    ClientUpdate,
    Prepare,
    PrepareAck,
    PrepareNack,
    QueryDone,
    UpdateDone,
)
from repro.core.replica import CrdtPaxosReplica
from repro.core.rounds import Round
from repro.crdt.base import IdentityQuery
from repro.crdt.gcounter import GCounter, GCounterValue, Increment
from repro.crdt.lwwmap import LWWMap, LWWMapPut
from repro.storage import InMemorySpillStore, SpillRecord
from repro.wire import decode_body, encode_body, fingerprint

PEERS = ["r0", "r1", "r2"]
_ROUND = Round(4, (7, 2, 1))


def big_map(salt: int = 0, fields: int = 40, epoch: float = 0.0) -> LWWMap:
    """An LWW-Map comfortably above the sized crossover; a later
    ``epoch`` wins every field."""
    return LWWMap(
        tuple(
            (f"f{i:03d}", (f"value-{salt}-{i:04d}", (epoch + i, 1, "r0")))
            for i in range(fields)
        )
    )


def encoded(state):
    """``state`` after crossing the wire once (its blob memoised)."""
    encode_body(state)
    assert state.wire_blob() is not None
    return state


def replica_holding(state) -> CrdtPaxosReplica:
    replica = CrdtPaxosReplica(
        "r0", list(PEERS), LWWMap.initial(), CrdtPaxosConfig(request_timeout=None)
    )
    replica.acceptor.state = state
    return replica


def start_query(replica, request_id="q1"):
    effects = replica.on_message(
        "client", ClientQuery(request_id=request_id, op=IdentityQuery()), 0.0
    )
    prepares = [msg for _, msg in effects.sends if isinstance(msg, Prepare)]
    assert len(prepares) == 2  # one per remote
    assert prepares[0] == prepares[1]
    return prepares[0]


def done_of(effects):
    return [msg for _, msg in effects.sends if isinstance(msg, QueryDone)]


# ----------------------------------------------------------------------
# Acceptor
# ----------------------------------------------------------------------
class TestAcceptor:
    def test_matching_fingerprint_acks_without_the_state(self):
        held = encoded(big_map())
        acceptor = Acceptor(held)
        stated = big_map()  # equal, but another object
        reply = acceptor.handle_prepare(
            Prepare("q1", 1, Round.incremental((7, 2, 1)), fingerprint(stated))
        )
        assert isinstance(reply, PrepareAck) and reply.state is None
        assert reply.round.number == 1 and acceptor.round == reply.round
        assert acceptor.state is held
        assert acceptor.stats.prepares_matched == 1

    def test_mismatch_acks_with_the_full_state_and_joins_nothing(self):
        held = big_map(salt=0)
        acceptor = Acceptor(held)
        reply = acceptor.handle_prepare(
            Prepare("q1", 1, Round.incremental((7, 2, 1)), fingerprint(big_map(1)))
        )
        assert isinstance(reply, PrepareAck) and reply.state is held
        assert acceptor.state is held  # a fingerprint is not a payload
        assert acceptor.stats.prepares_matched == 0

    def test_matching_stale_fixed_prepare_nacks_without_the_state(self):
        acceptor = Acceptor(big_map(), round=Round(9, (1, 1, 1)))
        stated = fingerprint(big_map())
        reply = acceptor.handle_prepare(Prepare("q1", 1, _ROUND, stated))
        assert isinstance(reply, PrepareNack) and reply.state is None
        assert reply.round == Round(9, (1, 1, 1))


# ----------------------------------------------------------------------
# Proposer
# ----------------------------------------------------------------------
class TestProposer:
    def test_large_encoded_payload_is_stated_by_fingerprint(self):
        held = encoded(big_map())
        replica = replica_holding(held)
        prepare = start_query(replica)
        assert prepare.state == fingerprint(held)
        assert len(encode_body(prepare)) < 64

    def test_first_statement_ships_the_state_then_fingerprints_follow(self):
        replica = replica_holding(big_map())  # computed here: no blob yet
        first = start_query(replica, "q1")
        assert first.state is replica.acceptor.state
        decode_body(encode_body(first))  # the send memoises the blob
        replica.on_message(
            "r1", PrepareAck(first.request_id, 1, _ROUND, replica.acceptor.state), 0.0
        )
        # A fresh state (no blob of its own) is stated by fingerprint now:
        # the proposer knows its payloads are large.
        replica.acceptor.state = big_map(salt=1)
        assert replica.acceptor.state.wire_blob() is None
        second = start_query(replica, "q2")
        assert second.state == fingerprint(replica.acceptor.state)

    def test_a_none_ack_learns_the_stated_object_on_the_fast_path(self):
        held = encoded(big_map())
        replica = replica_holding(held)
        prepare = start_query(replica)
        effects = replica.on_message(
            "r1", PrepareAck(prepare.request_id, prepare.attempt, _ROUND, None), 0.0
        )
        (done,) = done_of(effects)
        assert done.result is held and done.learned_via == "fast"

    def test_a_none_ack_from_an_earlier_attempt_is_ignored(self):
        held = encoded(big_map())
        replica = replica_holding(held)
        prepare = start_query(replica)
        # r1 nacks with a newer state: the proposer retries with attempt 2
        # stating the join, whose fingerprint differs from attempt 1's.
        newer = encoded(big_map(salt=1, epoch=100.0))
        retry = replica.on_message(
            "r1", PrepareNack(prepare.request_id, 1, Round(9, (1, 1, 1)), newer), 0.0
        )
        (attempt_2,) = {msg for _, msg in retry.sends if isinstance(msg, Prepare)}
        assert attempt_2.attempt == 2 and attempt_2.state != prepare.state
        late = replica.on_message(
            "r2", PrepareAck(prepare.request_id, 1, _ROUND, None), 0.0
        )
        assert late.empty  # attempt 1's "equal to what you stated" is void
        effects = replica.on_message(
            "r2", PrepareAck(prepare.request_id, 2, _ROUND, None), 0.0
        )
        (done,) = done_of(effects)
        assert done.attempts == 2

    def test_a_nack_without_a_state_folds_in_the_stated_object(self):
        held = encoded(big_map())
        replica = replica_holding(held)
        prepare = start_query(replica)
        retry = replica.on_message(
            "r1", PrepareNack(prepare.request_id, 1, Round(9, (1, 1, 1)), None), 0.0
        )
        (attempt_2,) = {msg for _, msg in retry.sends if isinstance(msg, Prepare)}
        assert attempt_2.attempt == 2
        assert attempt_2.state == prepare.state  # nothing new was learned
        (batch,) = replica.proposer._query_batches.values()
        assert batch.accumulated is held and batch.stated is held

    def test_state_free_prepares_state_no_fingerprint_either(self):
        replica = CrdtPaxosReplica(
            "r0",
            list(PEERS),
            LWWMap.initial(),
            CrdtPaxosConfig(request_timeout=None, include_state_in_prepare=False),
        )
        replica.acceptor.state = encoded(big_map())
        assert start_query(replica).state is None


# ----------------------------------------------------------------------
# What does not change
# ----------------------------------------------------------------------
def test_rejoin_prepares_ship_full_states_and_their_acks_carry_one():
    held = encoded(big_map())
    store = InMemorySpillStore()
    store.put("k", SpillRecord(held, Round.initial()))
    r0 = KeyedCrdtReplica.recover(
        store, "r0", list(PEERS), lambda key: LWWMap.initial(), CrdtPaxosConfig(),
        rejoin=True,
    )
    r1 = KeyedCrdtReplica("r1", list(PEERS), lambda key: LWWMap.initial())
    r1.instance("k").acceptor.state = held  # the peer holds the same state
    prepares = [
        (dst, msg) for dst, msg in r0.rejoin().sends if isinstance(msg, Keyed)
    ]
    assert prepares
    for dst, keyed in prepares:
        assert isinstance(keyed.message, Prepare)
        assert type(keyed.message.state) is not bytes
        assert keyed.message.state == held
    (reply,) = [
        msg for _, msg in r1.on_message("r0", prepares[0][1], 0.0).sends
    ]
    assert isinstance(reply.message, PrepareAck)
    assert reply.message.state == held
    assert r1.acceptor_stats.prepares_matched == 0


def test_sub_crossover_prepare_bytes_are_unchanged():
    # Bodies as written by wire v2: a small statement is still the state.
    counter = GCounter((("r0", 3), ("r1", 1)))
    assert encode_body(Prepare("r0/q7", 2, _ROUND, counter)).hex() == (
        "0b3f04050572302f713703040b300203080703030e030403020b000107020702"
        "0502723003060702050272310302"
    )
    stateless = Prepare("r0/q7", 1, Round.incremental((7, 2, 1)), None)
    assert encode_body(stateless).hex() == (
        "0b3f04050572302f713703020b300203010703030e0304030200"
    )
    assert encode_body(PrepareAck("r0/q7", 2, _ROUND, counter)).hex() == (
        "0b4004050572302f713703040b300203080703030e030403020b000107020702"
        "0502723003060702050272310302"
    )


def test_small_payload_query_performs_no_encode(monkeypatch):
    """A G-Counter never encodes to learn that it is small: in a run
    without a codec (in-process delivery), a query encodes nothing."""

    def no_encode(*args, **kwargs):
        raise AssertionError("a small-payload run must not encode")

    import repro.wire.digest
    import repro.wire.framing
    import repro.wire.values

    monkeypatch.setattr(repro.wire.values, "encode_value", no_encode)
    monkeypatch.setattr(repro.wire.framing, "encode_value", no_encode)
    monkeypatch.setattr(repro.wire.digest, "fingerprint", no_encode)
    config = CrdtPaxosConfig(request_timeout=None)
    replicas = {
        nid: CrdtPaxosReplica(nid, list(PEERS), GCounter.initial(), config)
        for nid in PEERS
    }
    replies = []

    def pump(message):
        queue = deque([("client", "r0", message)])
        while queue:
            src, dst, msg = queue.popleft()
            if dst not in replicas:
                replies.append(msg)
                continue
            effects = replicas[dst].on_message(src, msg, 0.0)
            queue.extend((dst, out, sent) for out, sent in effects.sends)

    for i in range(3):
        pump(ClientUpdate(request_id=f"u{i}", op=Increment()))
    pump(ClientQuery(request_id="q", op=GCounterValue()))
    assert sum(isinstance(r, UpdateDone) for r in replies) == 3
    (done,) = [r for r in replies if isinstance(r, QueryDone)]
    assert done.result == 3


def test_lwwmap_cluster_reads_its_writes_digest_first():
    """End to end through the simulated network (which encodes every
    message for its byte accounting): reads of large maps match
    fingerprints and still see every completed write."""
    from repro.net.latency import ConstantLatency
    from repro.net.sim_transport import SimNetwork
    from repro.runtime.cluster import ClientEndpoint, SimCluster
    from repro.sim.kernel import Simulator

    sim = Simulator(seed=3)
    network = SimNetwork(sim, latency=ConstantLatency(delay=1e-3))
    cluster = SimCluster(
        sim,
        network,
        lambda nid, peers: CrdtPaxosReplica(
            nid, peers, LWWMap.initial(), CrdtPaxosConfig()
        ),
        n_replicas=3,
    )
    replies = {}

    def on_reply(src, msg):
        replies[msg.request_id] = msg

    client = ClientEndpoint(sim, network, "client", on_reply)
    for i in range(60):
        put = LWWMapPut(f"f{i:03d}", "x" * 24, float(i))
        client.send("r0", ClientUpdate(f"u{i}", put))
        sim.run(until=sim.now + 0.01)
    for i in range(6):
        client.send(f"r{i % 3}", ClientQuery(f"q{i}", IdentityQuery()))
        sim.run(until=sim.now + 0.01)
    results = [replies[f"q{i}"].result for i in range(6)]
    assert all(len(result.entries) == 60 for result in results)
    matched = sum(node.acceptor.stats.prepares_matched for node in cluster.nodes())
    assert matched > 0
