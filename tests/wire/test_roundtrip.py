"""ISSUE-9 satellite: codec round-trips for the whole registered surface.

``EXEMPLARS`` holds at least one representative instance of every
wire-registered class; a coverage test pins the corpus to the registry,
so adding a protocol class without a round-trip exemplar fails here.
The framing tests reject the stream-level corruption modes a socket
transport actually sees: truncation, bit rot (CRC), unknown versions,
and foreign bytes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.common import (
    Forwarded,
    RsmQuery,
    RsmQueryDone,
    RsmUpdate,
    RsmUpdateDone,
)
from repro.baselines.gla.node import Propose, ProposeAck, ProposeNack
from repro.baselines.multipaxos.messages import (
    CatchupReply,
    CatchupRequest,
    Heartbeat,
    HeartbeatAck,
    PaxEntry,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
)
from repro.baselines.raft.log import LogEntry
from repro.baselines.raft.messages import (
    AppendEntries,
    AppendEntriesReply,
    InstallSnapshot,
    InstallSnapshotReply,
    RequestVote,
    RequestVoteReply,
)
from repro.core.keyspace import Keyed, KeyedBatch
from repro.core.messages import (
    ClientQuery,
    ClientUpdate,
    Merge,
    Merged,
    MigrateCommit,
    MigrateCommitAck,
    MigrateFreeze,
    MigrateFrozen,
    MigrateInstall,
    MigrateInstalled,
    Prepare,
    PrepareAck,
    PrepareNack,
    QueryDone,
    Refused,
    UpdateDone,
    Vote,
    Voted,
    VoteNack,
    WrongGroup,
)
from repro.core.rounds import Round
from repro.crdt.base import IdentityQuery
from repro.crdt.gcounter import GCounter, GCounterValue, Increment
from repro.crdt.gmap import GMap, GMapApply, GMapGet
from repro.crdt.graph import (
    AddEdge,
    AddVertex,
    AsNetworkX,
    HasEdge,
    HasVertex,
    RemoveEdge,
    RemoveVertex,
    TwoPhaseGraph,
)
from repro.crdt.gset import Contains, Elements, GSet, GSetAdd
from repro.crdt.lwwmap import (
    LWWMap,
    LWWMapGet,
    LWWMapKeys,
    LWWMapPut,
    LWWMapRemove,
)
from repro.crdt.lwwregister import LWWRegister, LWWSet, LWWValue
from repro.crdt.maxregister import MaxRegister, MaxSet, MaxValue
from repro.crdt.mvregister import MVRegister, MVValues, MVWrite
from repro.crdt.orset import (
    ORSet,
    ORSetAdd,
    ORSetContains,
    ORSetElements,
    ORSetRemove,
)
from repro.crdt.pncounter import (
    Decrement,
    PNCounter,
    PNCounterValue,
    PNIncrement,
)
from repro.crdt.twophase_set import (
    TwoPhaseAdd,
    TwoPhaseContains,
    TwoPhaseElements,
    TwoPhaseRemove,
    TwoPhaseSet,
)
from repro.crdt.vector_clock import VectorClock
from repro.errors import SerializationError
from repro.net.control import (
    GarbageInject,
    GarbageInjectDone,
    NetStats,
    NetStatsReply,
    Sever,
    SeverDone,
)
from repro.wire import (
    SIZED_CROSSOVER,
    WIRE_MAGIC,
    WIRE_VERSION,
    FrameDecoder,
    decode_body,
    decode_frame,
    encode_body,
    encode_frame,
    registered_classes,
)

_GC = GCounter((("r0", 3), ("r1", 1)))
_ROUND = Round(4, (7, 2, 1))
_KEYED = Keyed(key="cart:42", message=Merge(request_id="r0/u1", state=_GC))

#: At least one instance per registered class (coverage-pinned below).
EXEMPLARS = [
    # CRDT payloads
    _GC,
    PNCounter(GCounter((("r0", 5),)), GCounter((("r0", 2),))),
    MaxRegister(17),
    GSet(frozenset({"a", "b", 3})),
    TwoPhaseSet(frozenset({"a", "b"}), frozenset({"b"})),
    ORSet(frozenset({("x", ("r0", 1))}), frozenset({("y", ("r1", 2))})),
    LWWRegister("v", (1.5, 1, "r0")),
    MVRegister(frozenset({("v", VectorClock((("r0", 1),)))})),
    LWWMap((("k", ("v", (1.5, 1, "r0"))),)),
    GMap((("k", _GC),)),
    TwoPhaseGraph(
        frozenset({"a", "b"}),
        frozenset(),
        frozenset({("a", "b")}),
        frozenset(),
    ),
    VectorClock((("r0", 4), ("r1", 2))),
    # Update / query ops
    Increment(3),
    GCounterValue(),
    PNIncrement(2),
    Decrement(1),
    PNCounterValue(),
    MaxSet(9),
    MaxValue(),
    GSetAdd("e"),
    Contains("e"),
    Elements(),
    TwoPhaseAdd("e"),
    TwoPhaseRemove("e"),
    TwoPhaseContains("e"),
    TwoPhaseElements(),
    ORSetAdd("e"),
    ORSetRemove("e"),
    ORSetContains("e"),
    ORSetElements(),
    LWWSet("v", 2.5),
    LWWValue(),
    MVWrite("v"),
    MVValues(),
    LWWMapPut("k", "v", 2.5),
    LWWMapRemove("k", 3.0),
    LWWMapGet("k"),
    LWWMapKeys(),
    GMapApply("k", GCounter.initial(), Increment(1)),
    GMapGet("k", GCounterValue()),
    AddVertex("a"),
    RemoveVertex("a"),
    AddEdge("a", "b"),
    RemoveEdge("a", "b"),
    HasVertex("a"),
    HasEdge("a", "b"),
    AsNetworkX(),
    IdentityQuery(),
    # Core protocol
    _ROUND,
    ClientUpdate("u1", Increment(1)),
    ClientQuery("q1", GCounterValue()),
    UpdateDone("u1", ("r0", 3)),
    QueryDone("q1", 4, 2, 1, "vote", "r0", 9),
    Refused("u1", "storage", "write-through persist failed"),
    WrongGroup("u1", 3, "g1"),
    MigrateFreeze("m1", 3, "g1"),
    MigrateFrozen("m1", 3, _ROUND, _GC, _GC),
    MigrateInstall("m1", 3, _ROUND, _GC, None),
    MigrateInstalled("m1", 3),
    MigrateCommit("m1", 3, "g1"),
    MigrateCommitAck("m1", 3),
    Merge(request_id="r0/u1", state=_GC),
    Merge(request_id="r0/u2", state=_GC, digest=bytes(range(16))),
    Merged(request_id="r0/u1"),
    Merged(request_id="r0/u2", diverged=True),
    Prepare("q1", 0, _ROUND, None),
    Prepare("q1", 1, _ROUND, _GC),
    Prepare("q1", 2, _ROUND, bytes(range(16))),  # digest-first
    PrepareAck("q1", 1, _ROUND, _GC),
    PrepareNack("q1", 1, _ROUND, _GC),
    Vote("q1", 1, _ROUND, _GC),
    Voted("q1", 1),
    VoteNack("q1", 1, _ROUND, _GC),
    _KEYED,
    KeyedBatch(items=(_KEYED, Keyed(key=("t", 7), message=Merged("r0/u1")))),
    # Baseline RSMs
    LogEntry(2, "update", Increment(1), "c1", "u1"),
    RequestVote(3, "r1", 10, 2),
    RequestVoteReply(3, True),
    AppendEntries(3, "r0", 9, 2, (LogEntry(2, "update", Increment(1), "c1", "u1"),), 8, 4),
    AppendEntriesReply(3, False, 9, 4),
    InstallSnapshot(3, "r0", 10, 2, {"total": 4}, 5),
    InstallSnapshotReply(3, 10, 5),
    PaxEntry("update", Increment(1), "c1", "u1"),
    Phase1a((2, 1), 4),
    Phase1b((2, 1), True, ((4, (2, 1), PaxEntry("noop", None, "", "")),), 3, 0, None),
    Phase2a((2, 1), 4, PaxEntry("update", Increment(1), "c1", "u1"), 3),
    Phase2b((2, 1), 4, True),
    Heartbeat((2, 1), 3),
    HeartbeatAck((2, 1), 3),
    CatchupRequest(4),
    CatchupReply(((4, (2, 1), PaxEntry("noop", None, "", "")),), 3, 0, None),
    Propose(2, frozenset({("r0", 1)})),
    ProposeAck(2),
    ProposeNack(2, frozenset({("r1", 2)})),
    NetStats("s1"),
    NetStatsReply("s1", "r0", 10, 2048, 9, 1900, 1, 2, 3, 1, 4),
    Sever("n1"),
    SeverDone("n1", "r0", 3),
    GarbageInject("n2", "r1", b"\xde\xad"),
    GarbageInjectDone("n2", "r0", True),
    # Baseline client messages
    RsmUpdate("u1", ("incr", 1)),
    RsmQuery("q1", ("read",)),
    RsmUpdateDone("u1"),
    RsmQueryDone("q1", 4, "r0", "lease"),
    Forwarded("c1", RsmUpdate("u1", ("incr", 1))),
]


def same_wire_value(a, b) -> bool:
    """Structural equality via canonical bytes.

    The slotted op classes define no ``__eq__`` (they are compared by
    identity in the protocol), so round-trips are checked the way the
    wire itself defines sameness: equal types, equal canonical encoding.
    """
    return type(a) is type(b) and encode_body(a) == encode_body(b)


def test_corpus_covers_every_registered_class():
    covered = {type(message) for message in EXEMPLARS}
    missing = set(registered_classes()) - covered
    assert not missing, (
        f"wire-registered classes without a round-trip exemplar: "
        f"{sorted(cls.__name__ for cls in missing)}"
    )


@pytest.mark.parametrize(
    "message", EXEMPLARS, ids=lambda m: type(m).__name__
)
def test_body_roundtrip(message):
    decoded = decode_body(encode_body(message))
    assert same_wire_value(decoded, message)


@pytest.mark.parametrize(
    "message", EXEMPLARS, ids=lambda m: type(m).__name__
)
def test_frame_roundtrip(message):
    frame = encode_frame(message)
    decoded, consumed = decode_frame(frame)
    assert consumed == len(frame)
    assert same_wire_value(decoded, message)


def test_encoding_is_deterministic_across_container_order():
    # frozensets and dicts hash-iterate differently across seeds; the
    # codec sorts by encoded bytes, so equal values equal bytes.
    a = GSet(frozenset(["a", "b", "c", 1, 2, 3]))
    b = GSet(frozenset([3, "c", 2, "b", 1, "a"]))
    assert encode_body(a) == encode_body(b)
    snap_a = InstallSnapshot(3, "r0", 10, 2, {"x": 1, "y": 2}, 5)
    snap_b = InstallSnapshot(3, "r0", 10, 2, {"y": 2, "x": 1}, 5)
    assert encode_body(snap_a) == encode_body(snap_b)


# ----------------------------------------------------------------------
# Framing rejection: the corruption modes a socket stream actually sees.
# ----------------------------------------------------------------------
def test_truncated_frames_are_rejected_at_every_length():
    frame = encode_frame(_KEYED)
    for cut in range(len(frame)):
        with pytest.raises(SerializationError):
            decode_frame(frame[:cut])


def test_crc_rot_is_rejected_wherever_the_bit_flips():
    frame = bytearray(encode_frame(Merge(request_id="r0/u1", state=_GC)))
    for pos in range(len(WIRE_MAGIC) + 1, len(frame)):
        rotted = bytearray(frame)
        rotted[pos] ^= 0x40
        with pytest.raises(SerializationError):
            decode_frame(bytes(rotted))


def test_unknown_version_is_rejected():
    frame = bytearray(encode_frame(Merged(request_id="m")))
    frame[len(WIRE_MAGIC)] = 99
    with pytest.raises(SerializationError):
        decode_frame(bytes(frame))


def test_version_1_frames_are_rejected():
    # There is no version-1 or version-2 reader: a frame from a
    # pre-sized-payload or pre-digest-first build is refused at the
    # header, by either entry point.
    assert WIRE_VERSION == 3
    for old in (1, 2):
        frame = bytearray(encode_frame(Merged(request_id="m")))
        frame[len(WIRE_MAGIC)] = old
        with pytest.raises(SerializationError, match=f"unsupported wire version {old}"):
            decode_frame(bytes(frame))
        with pytest.raises(SerializationError, match=f"unsupported wire version {old}"):
            FrameDecoder().feed(bytes(frame))


def test_digest_first_acks_round_trip_without_a_state():
    for message in (
        PrepareAck("q1", 2, _ROUND, None),
        PrepareNack("q1", 2, _ROUND, None),
    ):
        decoded = decode_body(encode_body(message))
        assert decoded == message and decoded.state is None


def test_foreign_magic_is_rejected():
    frame = bytearray(encode_frame(Merged(request_id="m")))
    frame[0] ^= 0xFF
    with pytest.raises(SerializationError):
        decode_frame(bytes(frame))


def test_trailing_garbage_after_the_body_is_rejected():
    with pytest.raises(SerializationError):
        decode_body(encode_body(Merged(request_id="m")) + b"\x00")


# ----------------------------------------------------------------------
# Codec robustness: corrupt bytes raise SerializationError and nothing
# else, and are never answered with a payload already in memory.
# ----------------------------------------------------------------------
def _sized_state() -> LWWMap:
    return LWWMap(
        tuple(
            (f"f{i:02d}", (f"value-{i:02d}", (float(i), i, "r0")))
            for i in range(24)
        )
    )


def _decode_or_reject(decode, data):
    """``decode(data)``, or ``SerializationError`` itself if that is
    what it raised; anything else raised is the failure under test."""
    try:
        return decode(data)
    except SerializationError as rejected:
        return rejected


def test_every_truncation_and_bit_flip_of_a_sized_payload_frame_is_rejected():
    state = _sized_state()  # stays referenced: resident for its blob
    frame = encode_frame(PrepareAck("q1", 1, _ROUND, state))
    assert len(state.wire_blob()) >= SIZED_CROSSOVER
    assert decode_frame(frame)[0].state is state
    for cut in range(len(frame)):
        for decode in (decode_frame, FrameDecoder().feed):
            outcome = _decode_or_reject(decode, frame[:cut])
            # The stream decoder waits for the rest; the one-shot refuses.
            assert outcome == [] or isinstance(outcome, SerializationError)
    for bit in range(len(frame) * 8):
        rotted = bytearray(frame)
        rotted[bit >> 3] ^= 1 << (bit & 7)
        for decode in (decode_frame, FrameDecoder().feed):
            outcome = _decode_or_reject(decode, bytes(rotted))
            # A flip in the length prefix can leave the stream decoder
            # waiting for a longer frame; nothing else may come back.
            assert outcome == [] or isinstance(outcome, SerializationError)


def test_corrupt_bodies_past_the_crc_raise_only_serialization_error():
    # What the CRC would normally stop: every truncation and every
    # single-bit flip of the *body*, fed straight to the value decoder.
    state = _sized_state()
    body = encode_body(PrepareAck("q1", 1, _ROUND, state))
    blob = state.wire_blob()
    blob_at = body.index(blob)
    for cut in range(len(body)):
        assert isinstance(
            _decode_or_reject(decode_body, body[:cut]), SerializationError
        )
    for bit in range(len(body) * 8):
        rotted = bytearray(body)
        rotted[bit >> 3] ^= 1 << (bit & 7)
        outcome = _decode_or_reject(decode_body, bytes(rotted))
        if blob_at <= bit >> 3 < blob_at + len(blob):
            # Different blob bytes: whatever they decode to, it is not
            # the payload that is resident for the original bytes.
            assert getattr(outcome, "state", None) is not state


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=96))
def test_arbitrary_bytes_raise_only_serialization_error(data):
    _decode_or_reject(decode_body, data)
    _decode_or_reject(decode_frame, data)
    _decode_or_reject(FrameDecoder().feed, data)


@pytest.mark.parametrize(
    "body",
    [
        b"\x0a\x01\x08\x00\x00",  # dict keyed by a list
        b"\x09\x01\x08\x00",  # frozenset holding a list
        b"\x05\x02\xff\xfe",  # string that is not UTF-8
        b"\x04\x00\x00",  # float cut short
        b"\x07\x01" * 5000 + b"\x00",  # tuples nested past the stack
        b"\x0d\x00",  # sized blob of nothing
        b"\x0d\x02\x03\x02",  # sized blob holding a bare int
        b"\x0d\x03\x0b\x0d\x00",  # sized blob holding GCounterValue(), no payload
        b"\x63",  # no such value tag
    ],
    ids=[
        "unhashable-dict-key", "unhashable-set-element", "bad-utf8",
        "short-float", "deep-nesting", "empty-sized", "sized-scalar",
        "sized-non-payload", "unknown-tag",
    ],
)
def test_malformed_values_are_serialization_errors(body):
    with pytest.raises(SerializationError):
        decode_body(body)


# ----------------------------------------------------------------------
# FrameDecoder: socket-stream reassembly.
# ----------------------------------------------------------------------
def test_decoder_reassembles_byte_dribbled_frames():
    messages = [EXEMPLARS[i] for i in range(0, len(EXEMPLARS), 7)]
    stream = b"".join(encode_frame(m) for m in messages)
    decoder = FrameDecoder()
    decoded = []
    for i in range(0, len(stream), 3):  # arbitrary small chunks
        decoded.extend(decoder.feed(stream[i : i + 3]))
    assert len(decoded) == len(messages)
    for got, want in zip(decoded, messages):
        assert same_wire_value(got, want)


def test_decoder_yields_all_frames_from_one_large_read():
    messages = [Merged(request_id=f"m{i}") for i in range(50)]
    stream = b"".join(encode_frame(m) for m in messages)
    assert FrameDecoder().feed(stream) == messages


def test_decoder_rejects_mid_stream_rot_rather_than_resyncing():
    good = encode_frame(Merged(request_id="a"))
    rotted = bytearray(encode_frame(Merged(request_id="b")))
    rotted[-1] ^= 0x01  # CRC byte
    decoder = FrameDecoder()
    assert decoder.feed(good) == [Merged(request_id="a")]
    with pytest.raises(SerializationError):
        decoder.feed(bytes(rotted))
