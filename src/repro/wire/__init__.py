"""repro.wire — the binary wire stack, and the one codec.

Everything that turns a value into bytes, or asks how many bytes a value
is, goes through this package: socket and in-process frames, spill
records and store meta on disk (:mod:`repro.storage`), spill keys and
ring placement, state digests, and the byte accounting of every
simulated network (:func:`repro.net.message.wire_size` is the length of
the encoded body).  There is no second serializer and no estimator, so a
payload's spilled bytes and its wire bytes are the same bytes, and a
value the codec cannot encode can neither be sent, stored nor counted.

Wire format & delta replication
===============================

**Value codec** (:mod:`repro.wire.values`).  One recursive tagged
encoding covers scalars, containers, and every registered protocol
class (CRDT payloads, update/query ops, ``Round``, core + keyed +
migration messages, the baselines' RSM messages).  Integers are
zig-zag varints; unordered containers are serialized with elements
sorted by encoded bytes, so the same value yields the same bytes in
every process — the property ring placement, spill keys, and digests
all lean on.  Registered classes encode as ``class tag · field count ·
fields``; the tag order in :mod:`repro.wire.registry` is part of the
format (append-only).

**Framing** (:mod:`repro.wire.framing`).  A frame is ``"Cw" · version ·
uvarint length · body · CRC32``.  :func:`~repro.wire.framing.encode_frame`
/ :func:`~repro.wire.framing.decode_frame` handle one message;
:class:`~repro.wire.framing.FrameDecoder` incrementally splits a socket
byte stream, parsing whole frames out of each chunk where they lie and
buffering only an incomplete tail.  Foreign magic, unknown versions,
truncation, and CRC rot are all rejected with
:class:`~repro.errors.SerializationError` before any value decoding,
and malformed bytes past those checks raise nothing else either.

Wire format v2
==============

Version 2 adds one value tag and changes nothing else: every value that
does not contain a large CRDT payload has exactly its version-1 bytes
(only the frame's version byte differs).  There is no version-1 reader;
a version-1 frame is refused with "unsupported wire version".

**The sized-payload tag.**  A registered
:class:`~repro.crdt.base.StateCRDT` whose encoded body — its ordinary
``class tag · field count · fields`` encoding — is at least
:data:`~repro.wire.values.SIZED_CROSSOVER` bytes is written as
``T_SIZED (13) · uvarint length · body``.  The length prefix is what the
rest hangs on: it lets both ends treat the body as one opaque *blob*.

* *Encode once.*  The blob is memoised on the payload object (payloads
  are immutable), beside its digest and stamp.  Broadcasting a PREPARE
  to N peers, acknowledging with an acceptor state that has not changed
  since it was last sent, and fingerprinting a state
  (:func:`~repro.wire.digest.fingerprint`) all reuse it: the second and
  later sends are a ``memcpy``.
* *Decode at most once.*  The decoder slices the blob out and looks it
  up in the process's intern table before parsing.  A hit returns the
  payload already resident — the same object, so the proposer's
  "did the quorum answer with my state?" check is an identity
  comparison, and joins and accumulators short-circuit on ``is``.  A
  miss parses the blob, memoises it on the result and enters that.
* *Duplicates fold.*  A state this process computed itself has no blob
  until it is first sent, so the first equal state to arrive is parsed
  into a duplicate.  The moment ``same_payload`` proves the two equal
  (every ``join`` asks) the blob is given to both and the table is
  pointed at the object the join keeps; from then on those bytes decode
  to the resident state.

**The crossover, and why it exists.**  The memo costs a slot write, a
copy of the body and a weak-table entry per payload object, and a lookup
costs hashing the blob.  A 23-byte G-Counter that changes with every
update never sends the same bytes twice, so it would pay that on every
message for nothing (measured at ~7 % more CPU per op when applied to
every payload).  Parsing costs ~45 ns a byte and the bookkeeping a
couple of microseconds, so from 512 bytes up the bookkeeping is under a
tenth of the work it can save.  The crossover is a constant of the
format, not a setting: it decides which bytes are written.

**Lifetime of the intern table.**  The table maps blob → payload with
weak values: an entry exists exactly as long as something else in the
process references its payload (an acceptor's state, an open batch, a
recorded history) and vanishes with it, so the table has no size limit
and needs none.  Its key is the payload's own memoised blob object, so
an entry holds no second copy of the bytes.  Sub-crossover payloads
never enter it.  A spill record holds its payload in this same
encoding, so persisting a large state already sent is a copy of its
blob, and rehydrating it while an equal state is resident returns that
resident object.

Equal payloads have equal blobs in every process under every hash seed,
so digests, ring placement and spill keys are functions of canonical
bytes alone.  Interning is invisible to the protocol: a hit and a parse
return equal payloads, and equal payloads answer every query alike.

Wire format v3
==============

Version 3 changes no encoding; it changes what two message fields may
hold.  ``Prepare.state`` may be ``bytes`` — the 16-byte fingerprint of
the payload the proposer states — and ``PrepareAck.state`` /
``PrepareNack.state`` may be ``None``, meaning "equal to the payload you
stated".  A version-2 reader would join the bytes as a payload, so the
version byte moves and a version-2 frame is refused like a version-1
one.  A proposer states by fingerprint only once its
payloads reach the sized crossover (they carry a memoised blob), so every
small PREPARE — every G-Counter read — has exactly its version-2 body.
See :mod:`repro.core.messages` and :func:`repro.wire.digest.fingerprint`.

**Sizing.**  :func:`repro.net.message.wire_size` (re-exported here as
``exact_wire_size``) is ``len(encode_body(value))``: simulator byte
accounting reports the real encoded length of every message.

**Stable keys & fingerprints** (:mod:`repro.wire.keys`,
:mod:`repro.wire.digest`).  ``encode_key`` gives spill files and the
sharding ring one canonical byte string per key across processes.
``fingerprint`` is the one cross-process state digest: 128 bits of
BLAKE2b over a payload's canonical encoding (its memoised blob when it
has one), memoised on the payload.  Digest-first PREPAREs *trust* a
match — the acceptor's ack then carries no state and the proposer uses
its own equal payload — which is why it is 128 bits and not a checksum;
delta anti-entropy compares the same fingerprint as a hint.

**Delta replication** (see :mod:`repro.core.proposer`).  With
``delta_merge`` a proposer ships join-decompositions — the op's delta,
and on re-drive the accumulated deltas since the batch opened — instead
of full states.  A delta MERGE carries the proposer's full-state
fingerprint; the acceptor answers MERGED with whether its post-join
fingerprint differs, and when a peer keeps disagreeing (it likely missed earlier
deltas, e.g. across a partition or restart) the proposer pushes one
full-state MERGE to re-sync it (``anti_entropy`` config).  Shipping a
full state is always safe — it is exactly the pre-delta wire payload —
so a false mismatch there costs bandwidth, never safety.

The transports put all of this on the wire: the asyncio network and
the socket transport (:mod:`repro.net.stream`, one process per replica
in ``perf/``) move length-prefixed frames over real sockets, and the
sim/adversarial drivers route every delivered payload through encode→decode so checker
campaigns exercise the codec end to end.
"""

from repro.wire import registry as _registry  # noqa: F401  (assigns wire tags)
from repro.wire.digest import fingerprint
from repro.wire.framing import (
    WIRE_MAGIC,
    WIRE_VERSION,
    FrameDecoder,
    decode_body,
    decode_frame,
    encode_body,
    encode_frame,
)
from repro.wire.keys import decode_key, encode_key, stable_key_hash
from repro.wire.values import SIZED_CROSSOVER, registered_classes, spec_for

from repro.net.message import wire_size as exact_wire_size

__all__ = [
    "SIZED_CROSSOVER",
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "FrameDecoder",
    "decode_body",
    "decode_frame",
    "decode_key",
    "encode_body",
    "encode_frame",
    "encode_key",
    "exact_wire_size",
    "fingerprint",
    "registered_classes",
    "spec_for",
    "stable_key_hash",
]
