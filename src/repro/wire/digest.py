"""Payload fingerprints: one 128-bit digest of a state's canonical bytes.

:meth:`repro.crdt.base.StateCRDT.digest` is built on salted ``hash()``
— perfect for process-local memo keys, useless for comparing states
across processes.  Two protocol paths need the latter, and both use
:func:`fingerprint`:

* **Digest-first PREPARE.**  A proposer stating a large payload sends
  its fingerprint instead of the state; an acceptor whose own state has
  the same fingerprint acks with ``state=None`` ("equal to what you
  stated") and the proposer folds in its own object.  Equality here is
  *trusted*: a collision would let the proposer fast-path learn a state
  that lacks a completed update.  Hence 128 bits of BLAKE2b, not a
  checksum — a collision is as likely as a CRC-clean frame carrying a
  wrong payload, far below any hardware fault rate.
* **Delta anti-entropy.**  A delta MERGE carries the proposer's
  full-state fingerprint; an acceptor whose post-merge state differs
  flags divergence and may get a full state pushed.  There a mismatch is
  only a hint — shipping a full state is always safe.

The fingerprint is a hash of the state's canonical wire encoding
(sorted-container value codec), so two replicas holding equal payloads
agree on it in any process, under any hash seed.  It is memoised on the
(immutable) payload, and a payload large enough to carry a memoised wire
blob is hashed from that blob — one pass over bytes already in memory,
not a fresh encode.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Any

from repro.wire.values import payload_blob

#: Bytes in a fingerprint.
FINGERPRINT_BYTES = 16

_registry_loaded = False


def _ensure_registry() -> None:
    # Lazy: the tag registry imports the protocol modules, which may be
    # mid-import when a core module imports *us* at module level.
    global _registry_loaded
    if not _registry_loaded:
        import repro.wire.registry  # noqa: F401  (populates the registry)

        _registry_loaded = True


def fingerprint(state: Any) -> bytes:
    """The canonical cross-process 128-bit fingerprint of a CRDT payload.

    Memoised in the payload's ``_crdt_fingerprint`` slot, which
    :meth:`~repro.crdt.base.StateCRDT.__getstate__` strips like every
    other ``_crdt_`` cache.
    """
    cached = state.__dict__.get("_crdt_fingerprint")
    if cached is None:
        _ensure_registry()
        cached = blake2b(payload_blob(state), digest_size=FINGERPRINT_BYTES).digest()
        object.__setattr__(state, "_crdt_fingerprint", cached)
    return cached
