"""The one sizer: a message's size is its encoded body length.

:func:`repro.net.message.wire_size` (exported by :mod:`repro.wire` as
``exact_wire_size``) is ``len(encode_body(message))`` — for every class
in the round-trip corpus, the baseline client messages included.  The
one estimate left in byte accounting is the simulator's fixed per-
envelope overhead (:data:`~repro.net.message.ENVELOPE_OVERHEAD_BYTES`)
standing in for addressing and framing; these tests pin it against the
frame a socket really carries for the message:

* the envelope figure is exactly body + overhead;
* it never undercounts the real frame and overcounts it by less than
  the overhead itself, for every message in the corpus;
* on large payloads, where accounting matters most, the difference
  washes out.
"""

import pytest

from repro.baselines.raft.log import LogEntry
from repro.baselines.raft.messages import AppendEntries
from repro.core.messages import Merge
from repro.crdt.gcounter import GCounter, Increment
from repro.crdt.gset import GSet
from repro.net.message import ENVELOPE_OVERHEAD_BYTES, Envelope, wire_size
from repro.wire import encode_body, encode_frame, exact_wire_size

from tests.wire.test_roundtrip import EXEMPLARS


def socket_frame_bytes(message) -> int:
    """What a stream server writes for ``message``: one frame of
    ``(sender, message)``."""
    return len(encode_frame(("r0", message)))


@pytest.mark.parametrize(
    "message", EXEMPLARS, ids=lambda m: type(m).__name__
)
def test_installed_sizer_reports_exact_encoded_length(message):
    assert wire_size(message) == len(encode_body(message))
    assert exact_wire_size(message) == wire_size(message)


@pytest.mark.parametrize(
    "message", EXEMPLARS, ids=lambda m: type(m).__name__
)
def test_estimator_stays_inside_the_fidelity_band(message):
    # The envelope estimate charges a fixed overhead where the socket
    # path writes magic, version, a length varint, the sender id and a
    # CRC: it may overcount, never undercount, and by less than the
    # overhead it adds.
    estimate = Envelope(src="r0", dst="r1", payload=message).size_bytes()
    assert estimate == ENVELOPE_OVERHEAD_BYTES + len(encode_body(message))
    real = socket_frame_bytes(message)
    assert real <= estimate < real + ENVELOPE_OVERHEAD_BYTES


@pytest.mark.parametrize(
    "payload",
    [
        GCounter(tuple((f"replica-{i}", i * 7) for i in range(200))),
        GSet(frozenset(f"element-{i}" for i in range(500))),
        Merge(
            request_id="r0/u1",
            state=GCounter(tuple((f"replica-{i}", i) for i in range(100))),
        ),
        AppendEntries(
            3,
            "r0",
            9,
            2,
            tuple(
                LogEntry(2, "update", Increment(i + 1), "c1", f"u{i}")
                for i in range(64)
            ),
            8,
            4,
        ),
    ],
    ids=["gcounter-200", "gset-500", "merge-100", "append-entries-64"],
)
def test_estimator_converges_on_large_payloads(payload):
    real = socket_frame_bytes(payload)
    estimate = Envelope(src="r0", dst="r1", payload=payload).size_bytes()
    assert real <= estimate <= 1.02 * real, (
        f"{type(payload).__name__}: envelope {estimate} vs frame {real} — "
        f"the fixed overhead should wash out at this size"
    )


def test_envelope_accounting_uses_the_exact_body_length():
    payload = Merge(request_id="r0/u1", state=GCounter((("r0", 3),)))
    envelope = Envelope(src="r0", dst="r1", payload=payload)
    assert envelope.size_bytes() == ENVELOPE_OVERHEAD_BYTES + len(
        encode_body(payload)
    )
