"""Wire format v2: sized payload blobs, the encode memo and the intern table.

A CRDT payload whose body reaches ``SIZED_CROSSOVER`` bytes crosses the
wire as a length-prefixed blob that is memoised on the payload and
interned by the decoder.  These tests pin what that buys (identity on
repeat decodes, one encode per payload) and what it must never cost
(leaks, identity across classes, a pickle reaching a strict send,
hash-seed-dependent bytes).
"""

import gc
import os
import subprocess
import sys

import pytest

from repro.core.messages import Merge, PrepareAck
from repro.core.rounds import Round
from repro.crdt.base import resident_payload_count
from repro.crdt.gcounter import GCounter
from repro.crdt.gset import GSet
from repro.crdt.lwwmap import LWWMap, LWWMapPut
from repro.crdt.orset import ORSet
from repro.errors import SerializationError
from repro.wire import (
    SIZED_CROSSOVER,
    decode_body,
    encode_body,
    encode_frame,
    stable_digest,
)
from repro.wire.values import T_OBJ, T_SIZED


def big_map(salt: int = 0, fields: int = 40) -> LWWMap:
    """An LWW-Map comfortably above the crossover."""
    return LWWMap(
        tuple(
            (f"f{i:03d}", (f"value-{salt}-{i:04d}", (float(i), 1, "r0")))
            for i in range(fields)
        )
    )


def clone(payload):
    """An equal payload that shares nothing with ``payload``: no memo,
    no identity."""
    return type(payload)(*(getattr(payload, name) for name in payload.__slots__))


_baseline = 0


def resident() -> int:
    """Payloads resident on this test's account."""
    return resident_payload_count() - _baseline


@pytest.fixture(autouse=True)
def table_returns_to_baseline():
    """Each test must end with nothing more resident than it started
    with (other modules' long-lived payloads are the baseline): a
    payload the table kept alive past its last reference shows up here."""
    global _baseline
    gc.collect()
    _baseline = resident_payload_count()
    yield
    gc.collect()
    assert resident() == 0


# ----------------------------------------------------------------------
# The format
# ----------------------------------------------------------------------
def test_large_payload_is_a_sized_blob_and_small_one_keeps_the_bare_bytes():
    large, small = big_map(), GCounter((("r0", 3), ("r1", 1)))
    body = encode_body(large)
    assert body[0] == T_SIZED and len(body) > SIZED_CROSSOVER
    assert large.wire_blob() is not None and body.endswith(large.wire_blob())
    assert encode_body(small)[0] == T_OBJ
    assert small.wire_blob() is None
    assert decode_body(encode_body(small)) is not small


def test_crossover_is_decided_by_the_encoded_body_length():
    def counter(slots):
        return GCounter(tuple((f"replica-{i:04d}", i + 1) for i in range(slots)))

    sizes = {}
    for slots in range(20, 60):
        payload = counter(slots)
        body = encode_body(payload)
        bare = len(body) if body[0] == T_OBJ else len(payload.wire_blob())
        sizes[bare] = body[0]
    below = [tag for size, tag in sizes.items() if size < SIZED_CROSSOVER]
    above = [tag for size, tag in sizes.items() if size >= SIZED_CROSSOVER]
    assert below and set(below) == {T_OBJ}
    assert above and set(above) == {T_SIZED}


def test_sized_payloads_nest_inside_messages_and_round_trip():
    state = big_map()
    message = PrepareAck("q1", 1, Round(4, (7, 2, 1)), state)
    decoded = decode_body(encode_body(message, strict=True))
    assert decoded == message
    assert decoded.state is state


# ----------------------------------------------------------------------
# Identity while referenced, nothing once released
# ----------------------------------------------------------------------
def test_equal_payloads_decoded_twice_are_one_object_while_referenced():
    body = encode_body(big_map())  # the encoded original dies right here
    gc.collect()
    assert resident() == 0
    first = decode_body(body)
    second = decode_body(body)
    assert first is second
    assert first == big_map()
    assert resident() == 1


def test_table_is_empty_after_the_last_reference_drops():
    body = encode_body(big_map())
    held = decode_body(body)
    assert resident() == 1
    del held
    gc.collect()
    assert resident() == 0
    # ... and the bytes still decode, to a fresh object.
    assert decode_body(body) == big_map()


def test_encoding_makes_the_sender_resident_for_its_own_bytes():
    state = big_map()
    body = encode_body(state)
    assert decode_body(body) is state


def test_second_encode_reuses_the_blob():
    state = big_map()
    first = encode_body(Merge("m1", state), strict=True)
    blob = state.wire_blob()
    second = encode_body(Merge("m2", state), strict=True)
    assert state.wire_blob() is blob
    assert first.count(blob) == second.count(blob) == 1


def test_same_payload_repoints_the_table_at_the_survivor():
    local = big_map()  # computed locally: never encoded, no blob
    body = encode_body(clone(local))
    gc.collect()
    duplicate = decode_body(body)
    assert duplicate is not local and local.wire_blob() is None
    assert local.join(duplicate) is local  # proves them equal
    assert local.wire_blob() == duplicate.wire_blob()
    assert decode_body(body) is local
    del duplicate
    gc.collect()
    assert decode_body(body) is local
    assert resident() == 1


def test_identity_never_crosses_class_tags():
    # Same field values, different registered classes: the class tag is
    # part of the blob, so neither can be handed out for the other.
    elements = frozenset(f"element-{i:04d}" for i in range(60))
    as_set = GSet(elements)
    as_orset = ORSet(elements, frozenset())
    set_body, orset_body = encode_body(as_set), encode_body(as_orset)
    assert set_body[0] == orset_body[0] == T_SIZED
    assert as_set.wire_blob() != as_orset.wire_blob()
    assert decode_body(set_body) is as_set
    assert decode_body(orset_body) is as_orset
    assert type(decode_body(set_body)) is GSet


def test_stable_digest_is_the_crc_of_the_memoised_blob():
    import zlib

    state = big_map()
    assert stable_digest(state) == zlib.crc32(state.wire_blob())
    blob = state.wire_blob()
    assert stable_digest(state) == zlib.crc32(blob)
    assert state.wire_blob() is blob
    assert stable_digest(clone(state)) == stable_digest(state)
    small = GCounter((("r0", 3),))
    assert stable_digest(small) == zlib.crc32(encode_body(small, strict=True))


# ----------------------------------------------------------------------
# Strict / non-strict soundness
# ----------------------------------------------------------------------
class Unregistered:
    """A value the codec can only pickle."""

    def __init__(self, n):
        self.n = n

    def __eq__(self, other):
        return isinstance(other, Unregistered) and other.n == self.n

    def __hash__(self):
        return hash(self.n)


def test_a_non_strict_blob_is_not_served_to_a_strict_send():
    tainted = GSet(frozenset(Unregistered(i) for i in range(80)))
    body = encode_body(tainted)  # sizing / sim path: non-strict
    assert len(body) > SIZED_CROSSOVER
    assert body[0] == T_OBJ  # bare encoding, pickles inside
    assert tainted.wire_blob() is None  # never memoised ...
    assert decode_body(body) == tainted
    assert decode_body(body).wire_blob() is None  # ... nor interned
    with pytest.raises(SerializationError):
        encode_frame(Merge("m", tainted), strict=True)
    with pytest.raises(SerializationError):
        stable_digest(tainted)


def test_the_memo_survives_neither_pickle_nor_deepcopy():
    import copy
    import pickle

    state = big_map()
    encode_body(state)
    assert state.wire_blob() is not None
    assert b"_crdt_blob" not in pickle.dumps(state)
    for twin in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
        assert twin == state and twin.wire_blob() is None


# ----------------------------------------------------------------------
# Canonical bytes
# ----------------------------------------------------------------------
_SEED_PROBE = """
import sys
from repro.core.messages import Merge
from repro.crdt.lwwmap import LWWMap, LWWMapPut
from repro.crdt.orset import ORSet
from repro.wire import encode_frame
orset = ORSet(frozenset((f"e{i}", ("r0", i)) for i in range(80)),
              frozenset((f"e{i}", ("r1", i)) for i in range(40)))
lww = LWWMap.initial()
for i in range(64):
    lww = LWWMapPut(("k", i), f"v{i}", float(i)).apply(lww, "r0")
for state in (orset, lww):
    frame = encode_frame(Merge("m", state), strict=True)
    assert frame == encode_frame(Merge("m", state), strict=True)
    sys.stdout.write(frame.hex() + "\\n")
"""


def test_bytes_are_identical_under_two_hash_seeds():
    outputs = []
    for seed in ("1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        result = subprocess.run(
            [sys.executable, "-c", _SEED_PROBE],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert all(len(line) > 2 * SIZED_CROSSOVER for line in outputs[0].split())
