"""Durable encoding of the acceptor's logless state.

The paper's acceptor keeps *all* durable state in the pair
``(payload, round)`` (§3.3) — extended by the §3.4 learned maximum when
GLA-Stability is on.  This module turns that triple into bytes and back,
for the :mod:`repro.storage` spill tier and any future snapshot
transport.

Encoding is a framed pickle: payloads are arbitrary immutable Python
value objects (set elements, map keys and register values are
caller-chosen hashables), so a structural per-type codec would re-invent
pickle badly.  What the frame adds on top is what pickle lacks:

* a **magic + version prefix** so a foreign or future-format blob is
  rejected before any unpickling happens;
* strict **shape validation** after decoding — the result must be a
  ``(StateCRDT, Round, StateCRDT | None)`` triple or
  :class:`SerializationError` is raised (a spill store must never hand
  the protocol a payload of the wrong type);
* cache hygiene: the hot-path caches (``_crdt_digest``,
  ``_crdt_stamp``, ``_crdt_eq_stamps``, the memoised wire blob
  ``_crdt_blob`` and the LWW-Map's ``_crdt_positions`` index) are
  process-local or derived and are stripped by
  :meth:`repro.crdt.base.StateCRDT.__getstate__`, so a record holds the
  payload once and a decoded payload re-derives them lazily instead of
  trusting stale ones.

Integrity (checksums, truncation detection) is deliberately *not* this
module's job: the storage layer frames every record with a CRC over the
encoded bytes, so corruption is caught before :func:`decode_frozen` ever
runs — decoding only validates shape, not bit-rot.
"""

from __future__ import annotations

import pickle
from typing import Any, Hashable

from repro.core.rounds import Round
from repro.crdt.base import StateCRDT
from repro.errors import SerializationError

#: Format prefix: magic (2 bytes) + version (1 byte).
_MAGIC = b"Cf"
_VERSION = 1
_PREFIX = _MAGIC + bytes([_VERSION])


def encode_frozen(
    state: StateCRDT,
    round_: Round,
    learned_max: StateCRDT | None = None,
) -> bytes:
    """Encode a frozen record's ``(payload, round, learned_max)`` triple."""
    if not isinstance(state, StateCRDT):
        raise SerializationError(
            f"frozen payload must be a StateCRDT, got {type(state).__name__}"
        )
    if not isinstance(round_, Round):
        raise SerializationError(
            f"frozen round must be a Round, got {type(round_).__name__}"
        )
    if learned_max is not None and not isinstance(learned_max, StateCRDT):
        raise SerializationError(
            "frozen learned_max must be a StateCRDT or None, got "
            f"{type(learned_max).__name__}"
        )
    return _PREFIX + pickle.dumps(
        (state, round_, learned_max), protocol=pickle.HIGHEST_PROTOCOL
    )


def decode_frozen(data: bytes) -> tuple[StateCRDT, Round, StateCRDT | None]:
    """Decode :func:`encode_frozen` output; raises on any malformed blob."""
    if len(data) < len(_PREFIX) or data[: len(_MAGIC)] != _MAGIC:
        raise SerializationError("not a frozen-record blob (bad magic)")
    version = data[len(_MAGIC)]
    if version != _VERSION:
        raise SerializationError(
            f"unsupported frozen-record version {version} (expected {_VERSION})"
        )
    try:
        decoded = pickle.loads(data[len(_PREFIX) :])
    except Exception as exc:  # unpickling failures are data errors here
        raise SerializationError(f"undecodable frozen record: {exc!r}") from exc
    if not (isinstance(decoded, tuple) and len(decoded) == 3):
        raise SerializationError(
            f"frozen record must decode to a triple, got {type(decoded).__name__}"
        )
    state, round_, learned_max = decoded
    if not isinstance(state, StateCRDT):
        raise SerializationError(
            f"decoded payload is not a StateCRDT: {type(state).__name__}"
        )
    if not isinstance(round_, Round):
        raise SerializationError(
            f"decoded round is not a Round: {type(round_).__name__}"
        )
    if learned_max is not None and not isinstance(learned_max, StateCRDT):
        raise SerializationError(
            f"decoded learned_max is not a StateCRDT: {type(learned_max).__name__}"
        )
    return state, round_, learned_max


def encode_key(key: Hashable) -> bytes:
    """Encode a store key (any hashable the keyed deployment accepts).

    Delegates to the wire codec's canonical key encoding
    (:mod:`repro.wire.keys`): the same bytes the router hashes for ring
    placement index spill records, so a recovered process looks keys up
    by exactly what it persisted regardless of hash seed.  Imported
    lazily — this module sits inside the protocol-package init chain the
    wire registry closes over, so the binding resolves at first use,
    after every package is fully loaded.
    """
    from repro.wire.keys import encode_key as wire_encode_key

    return wire_encode_key(key)


def decode_key(data: bytes) -> Any:
    from repro.wire.keys import decode_key as wire_decode_key

    return wire_decode_key(data)
