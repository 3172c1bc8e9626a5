"""Spill/rehydrate round-trips of the durable record codec.

Every CRDT type in the registry must survive ``encode_record`` →
``decode_record`` unchanged — the spill tier stores exactly the paper's
(payload, round, learned-max) triple, so a codec that loses structure
would regress an acceptor's durable state on rehydration.  A record is
the wire body of that triple, so its bytes are the payload's wire bytes.
"""

import pytest

from repro.core.rounds import Round, proposer_id
from repro.crdt.gcounter import GCounter
from repro.crdt.gset import GSet
from repro.crdt.lwwmap import LWWMap
from repro.crdt.lwwregister import LWWRegister
from repro.crdt.orset import ORSet
from repro.crdt.pncounter import PNCounter
from repro.crdt.registry import crdt_registry, initial_state
from repro.errors import SerializationError
from repro.storage.base import SpillRecord, decode_record, encode_record
from repro.wire import decode_key, encode_body, encode_key


def round_trip(state, round_, learned_max=None):
    record = decode_record(encode_record(SpillRecord(state, round_, learned_max)))
    return record.state, record.round, record.learned_max


def mutated_payloads():
    """One non-bottom payload per CRDT type the keyed store serves."""
    counter = GCounter.of({"r0": 3, "r1": 7})
    pn = PNCounter().incremented("r0", 5).decremented("r1", 2)
    orset = (
        ORSet.initial()
        .with_add("apple", "r0")
        .with_add(("tuple", 1), "r1")
        .with_remove("apple")
    )
    gset = GSet.of("a", 42, ("nested", "tuple"))
    lwwmap = (
        LWWMap.initial()
        .with_write("name", "ada", 1.0, "r0")
        .with_write("age", 36, 2.0, "r1")
    )
    lwwreg = LWWRegister.initial().written({"any": "value"}, 3.0, "r2")
    return {
        "g-counter": counter,
        "pn-counter": pn,
        "or-set": orset,
        "g-set": gset,
        "lww-map": lwwmap,
        "lww-register": lwwreg,
    }


@pytest.mark.parametrize("name,payload", sorted(mutated_payloads().items()))
def test_mutated_payload_round_trip(name, payload):
    round_ = Round(4, proposer_id(9, 1))
    state, decoded_round, learned_max = round_trip(payload, round_)
    assert state == payload
    assert state.equivalent(payload)
    assert decoded_round == round_
    assert learned_max is None


@pytest.mark.parametrize("name", sorted(crdt_registry))
def test_every_registered_type_round_trips_bottom(name):
    bottom = initial_state(name)
    state, round_, learned_max = round_trip(bottom, Round.initial())
    assert type(state) is type(bottom)
    assert state.equivalent(bottom)
    assert round_ == Round.initial()
    assert learned_max is None


def test_learned_max_round_trips_alongside_the_pair():
    payload = GCounter.of({"r0": 2})
    learned = GCounter.of({"r0": 2, "r1": 9})
    state, round_, learned_max = round_trip(
        payload, Round.initial().with_write_id(), learned
    )
    assert state == payload
    assert round_ == Round.initial().with_write_id()
    assert learned_max == learned


def test_identity_caches_are_stripped_not_shipped():
    payload = GCounter.of({"r0": 1})
    payload.digest()  # populate the process-local caches
    payload.version_stamp()
    state, _, _ = round_trip(payload, Round.initial())
    assert "_crdt_digest" not in state.__dict__
    assert "_crdt_stamp" not in state.__dict__
    # Caches re-derive lazily on the decoded object.
    assert state.same_payload(payload)


def test_bad_magic_and_version_rejected():
    # A record carries no magic of its own — the segment frame does; the
    # leading value tag is what marks a record, and bytes that are not a
    # wire triple are refused.
    blob = encode_record(SpillRecord(GCounter.of({"r0": 1}), Round.initial()))
    with pytest.raises(SerializationError):
        decode_record(b"XX" + blob[2:])
    with pytest.raises(SerializationError):
        decode_record(blob[:2] + bytes([99]) + blob[3:])
    with pytest.raises(SerializationError):
        decode_record(b"")


def test_non_crdt_payload_rejected_on_encode_and_decode():
    with pytest.raises(SerializationError):
        encode_record(SpillRecord("not a crdt", Round.initial()))
    with pytest.raises(SerializationError):
        encode_record(SpillRecord(GCounter.initial(), "not a round"))
    # Well-formed wire bodies of the wrong shape are rejected on decode.
    for wrong in (
        ("a", "b"),
        ("a", Round.initial(), None),
        (GCounter.initial(), Round.initial(), "not a crdt"),
        [GCounter.initial(), Round.initial(), None],
    ):
        with pytest.raises(SerializationError):
            decode_record(encode_body(wrong))


def test_keys_round_trip_arbitrary_hashables():
    for key in ("k1", 42, ("composite", 7), frozenset({"a"}), None):
        assert decode_key(encode_key(key)) == key
