"""A deleted class keeps its wire tag: ``KeyedBatch`` is retired, not removed.

Class tags are positional, so dropping ``KeyedBatch`` from the registry
outright would have shifted every class registered after it.  Its tag
stays reserved instead: every other class decodes under the tag it had
while ``KeyedBatch`` existed, ``WIRE_VERSION`` does not move, and a
frame carrying the retired tag is refused like any malformed frame.
"""

import zlib

import pytest

from repro.core.keyspace import Keyed
from repro.core.messages import Merged
from repro.errors import SerializationError
from repro.wire import decode_body, decode_frame, encode_body, registered_classes
from repro.wire.framing import WIRE_MAGIC, WIRE_VERSION
from repro.wire.values import T_OBJ, T_TUPLE, spec_for
from repro.wire.varint import write_uvarint

#: The tag ``KeyedBatch`` was registered under.
RETIRED_TAG = 70

#: Every wire-registered class name in tag order as of wire version 3,
#: with ``KeyedBatch`` at :data:`RETIRED_TAG`.
TAG_ORDER = (
    "GCounter PNCounter MaxRegister GSet TwoPhaseSet ORSet LWWRegister "
    "MVRegister LWWMap GMap TwoPhaseGraph VectorClock "
    "Increment GCounterValue PNIncrement Decrement PNCounterValue MaxSet "
    "MaxValue GSetAdd Contains Elements TwoPhaseAdd TwoPhaseRemove "
    "TwoPhaseContains TwoPhaseElements ORSetAdd ORSetRemove ORSetContains "
    "ORSetElements LWWSet LWWValue MVWrite MVValues LWWMapPut LWWMapRemove "
    "LWWMapGet LWWMapKeys GMapApply GMapGet AddVertex RemoveVertex AddEdge "
    "RemoveEdge HasVertex HasEdge AsNetworkX IdentityQuery "
    "Round ClientUpdate ClientQuery UpdateDone QueryDone Refused WrongGroup "
    "MigrateFreeze MigrateFrozen MigrateInstall MigrateInstalled "
    "MigrateCommit MigrateCommitAck Merge Merged Prepare PrepareAck "
    "PrepareNack Vote Voted VoteNack Keyed KeyedBatch "
    "LogEntry RequestVote RequestVoteReply AppendEntries AppendEntriesReply "
    "InstallSnapshot InstallSnapshotReply PaxEntry Phase1a Phase1b Phase2a "
    "Phase2b Heartbeat HeartbeatAck CatchupRequest CatchupReply Propose "
    "ProposeAck ProposeNack NetStats NetStatsReply Sever SeverDone "
    "GarbageInject GarbageInjectDone RsmUpdate RsmQuery RsmUpdateDone "
    "RsmQueryDone Forwarded"
).split()


def uvarint(value: int) -> bytes:
    out = bytearray()
    write_uvarint(out, value)
    return bytes(out)


def old_keyed_batch_body() -> bytes:
    """A one-item ``KeyedBatch`` body as the class encoded it: the class
    tag, its one field, and that field's tuple of ``Keyed`` envelopes."""
    item = encode_body(Keyed(key="k", message=Merged("r0/u1")))
    return (
        bytes([T_OBJ]) + uvarint(RETIRED_TAG) + bytes([1])
        + bytes([T_TUPLE, 1]) + item
    )


def frame_around(body: bytes) -> bytes:
    header = WIRE_MAGIC + bytes([WIRE_VERSION]) + uvarint(len(body))
    return header + body + zlib.crc32(body).to_bytes(4, "big")


def test_wire_version_stays_3():
    assert WIRE_VERSION == 3


def test_every_other_class_keeps_its_tag():
    assert TAG_ORDER[RETIRED_TAG] == "KeyedBatch"
    tags = {cls.__name__: spec_for(cls).tag for cls in registered_classes()}
    expected = {
        name: tag for tag, name in enumerate(TAG_ORDER) if tag != RETIRED_TAG
    }
    assert tags == expected


@pytest.mark.parametrize(
    "decode",
    [decode_body, lambda body: decode_frame(frame_around(body))],
    ids=["body", "frame"],
)
def test_the_retired_tag_is_refused(decode):
    match = f"retired wire class tag {RETIRED_TAG}"
    with pytest.raises(SerializationError, match=match):
        decode(old_keyed_batch_body())


def test_the_retired_tag_is_refused_when_nested():
    body = bytes([T_TUPLE, 2, 0]) + old_keyed_batch_body()
    with pytest.raises(SerializationError):
        decode_body(body)
