"""Stable state digests for delta anti-entropy.

:meth:`repro.crdt.base.StateCRDT.digest` is built on salted ``hash()``
— perfect for process-local memo keys, useless for comparing states
across processes.  Anti-entropy needs the latter: a proposer stamps its
MERGE with a digest of its full local state, and an acceptor whose
post-merge state hashes differently may have missed earlier deltas.

The digest here is a CRC32 over the state's canonical wire encoding
(sorted-container value codec), so two replicas holding equal payloads
always agree on it, in any process, under any hash seed.  A payload
large enough to carry a memoised wire blob is fingerprinted from that
blob — a checksum pass over bytes already in memory, not a fresh
encode.  Digest
*equality* implies payload equality only probabilistically (32-bit) —
the protocol uses mismatch as a **hint** to ship a full state, which is
always safe, so a collision can cost at most one skipped catch-up.
"""

from __future__ import annotations

import zlib
from typing import Any

from repro.wire.values import payload_blob

_registry_loaded = False


def _ensure_registry() -> None:
    # Lazy: the tag registry imports the protocol modules, which may be
    # mid-import when a core module imports *us* at module level.
    global _registry_loaded
    if not _registry_loaded:
        import repro.wire.registry  # noqa: F401  (populates the registry)

        _registry_loaded = True


def stable_digest(state: Any) -> int:
    """Canonical cross-process digest of a CRDT payload."""
    _ensure_registry()
    return zlib.crc32(payload_blob(state))
