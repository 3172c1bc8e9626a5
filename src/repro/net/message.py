"""Message envelopes and wire-size accounting.

Protocol messages are plain dataclasses.  For bandwidth accounting (one of
the paper's claims is that coordination overhead is *a single counter per
message*) a message's size is the length of its body in the binary wire
codec (:mod:`repro.wire`) — the bytes a socket carries for it, less the
frame's header and checksum — so every figure is exact and every runtime
counts the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: Fixed per-envelope overhead: source/destination addresses, message tag,
#: transport framing.  A rough but consistent figure; only *relative* sizes
#: matter for the experiments.
ENVELOPE_OVERHEAD_BYTES = 32


def wire_size(obj: Any) -> int:
    """The length of ``obj``'s encoded wire body in bytes.

    A value the codec cannot encode raises
    :class:`~repro.errors.SerializationError`: there is no estimate to
    fall back on, so a message that could not cross a socket cannot be
    counted as if it had.
    """
    # Imported at call time: the codec's class registry imports the
    # protocol modules, which import this one.
    from repro.wire.framing import encode_body

    return len(encode_body(obj))


@dataclass(frozen=True)
class Envelope:
    """A routed message: source address, destination address, payload."""

    src: str
    dst: str
    payload: Any

    def size_bytes(self) -> int:
        """Total wire size; memoized — sizing a large payload (e.g. a
        64-entry AppendEntries batch) is the hottest loop in big runs."""
        cached = self.__dict__.get("_size")
        if cached is None:
            cached = ENVELOPE_OVERHEAD_BYTES + wire_size(self.payload)
            object.__setattr__(self, "_size", cached)
        return cached

    def readdressed(self, src: str, dst: str) -> Envelope:
        """The same payload on another link, sharing the memoized size
        (a broadcast sizes its one payload object once, not per peer)."""
        envelope = Envelope(src=src, dst=dst, payload=self.payload)
        cached = self.__dict__.get("_size")
        if cached is not None:
            object.__setattr__(envelope, "_size", cached)
        return envelope
