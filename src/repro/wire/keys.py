"""Stable cross-process key encoding.

Two distant subsystems hash or persist store keys and must agree across
Python versions, hash seeds, and OS processes:

* the spill index (:mod:`repro.storage.segmented`) persists
  ``encode_key`` bytes and looks records up by them after a restart;
* consistent-hash routing (:mod:`repro.sharding.routing`) places keys
  on the ring by an integer digest of the key.

``repr``-based hashing breaks on any container whose iteration order
depends on the per-process hash seed (frozensets).  Here a key is the
wire body of its value: scalars, tuples and frozensets get one
canonical byte string everywhere, and a key of any other shape is
refused with :class:`~repro.errors.SerializationError` rather than
given bytes that could differ between processes.
"""

from __future__ import annotations

import zlib
from typing import Any, Hashable

from repro.wire.framing import decode_body, encode_body


def encode_key(key: Hashable) -> bytes:
    """Encode a store key (None/bool/int/float/str/bytes/tuple/frozenset
    or a registered class)."""
    return encode_body(key)


def decode_key(data: bytes) -> Any:
    """Invert :func:`encode_key`."""
    return decode_body(data)


def stable_key_hash(key: Hashable) -> int:
    """Process-independent 32-bit digest of a key (ring placement)."""
    return zlib.crc32(encode_key(key))
