"""Fault-injecting spill-store wrapper for nemesis campaigns.

A disk does not fail by raising a polite exception at a convenient
moment: writes error mid-burst, fsyncs return failure after the page
cache accepted the bytes, and a torn frame may sit at the end of a
segment.  :class:`FaultySpillStore` wraps any backend and injects
exactly those failures — deterministically under a seed, or on command
via an explicit brownout window — so the keyed replica's
persist-before-ack contract can be exercised: a failed write-through
persist must *refuse* the step's acks (never crash, never ack), and
service must resume by itself once the faults clear.

Failure model
=============

* ``put`` / ``put_meta`` — raise :class:`~repro.errors.StorageUnavailable`
  with probability ``put_failure_probability`` (or always, inside a
  :meth:`break_io` window).  With ``partial_write_probability`` the
  failure is recorded as a *partial* (torn) write: the new frame never
  becomes visible — segmented backends discard torn tails on recovery,
  so the delegate keeps the previous record — but bytes hit the device,
  which is why it is counted separately.
* ``flush`` — raise with ``flush_failure_probability`` (or inside a
  brownout): the fsync itself failed, so nothing since the last
  successful flush may be assumed durable.
* Reads (``get`` / ``keys`` / ``get_meta``) pass through unharmed: a
  brownout device typically still serves its cache, and failing reads
  would only mask the interesting write-path bugs.

Everything else (``crash``, byte counters, …) is forwarded to the
delegate, so the wrapper composes with
:class:`~repro.storage.volatile.VolatileSpillStore` in either order.
"""

from __future__ import annotations

import random
from typing import Any, Hashable

from repro.errors import StorageUnavailable
from repro.storage.base import SpillRecord, SpillStore


class FaultySpillStore(SpillStore):
    """Wraps any backend, injecting seeded put/fsync failures."""

    def __init__(
        self,
        delegate: SpillStore,
        seed: int = 0,
        put_failure_probability: float = 0.0,
        flush_failure_probability: float = 0.0,
        partial_write_probability: float = 0.0,
    ) -> None:
        for name, p in (
            ("put_failure_probability", put_failure_probability),
            ("flush_failure_probability", flush_failure_probability),
            ("partial_write_probability", partial_write_probability),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        self.delegate = delegate
        self._rng = random.Random(seed)
        self.put_failure_probability = put_failure_probability
        self.flush_failure_probability = flush_failure_probability
        self.partial_write_probability = partial_write_probability
        self._broken = False
        self.put_failures = 0
        self.flush_failures = 0
        self.partial_writes = 0

    # ------------------------------------------------------------------
    # Brownout window
    # ------------------------------------------------------------------
    @property
    def broken(self) -> bool:
        """Inside a :meth:`break_io` window (every write fails)."""
        return self._broken

    def break_io(self) -> None:
        """Start a brownout: every put/flush fails until :meth:`heal_io`."""
        self._broken = True

    def heal_io(self) -> None:
        """End the brownout; probabilistic faults (if any) still apply."""
        self._broken = False

    def _fail_write(self, op: str) -> None:
        if self.partial_write_probability > 0.0 and (
            self._rng.random() < self.partial_write_probability
        ):
            # Bytes hit the device but the frame is torn: recovery
            # discards it, so the previous record stays authoritative.
            self.partial_writes += 1
            raise StorageUnavailable(
                f"injected partial {op}: frame torn mid-write, previous "
                "record remains authoritative"
            )
        raise StorageUnavailable(f"injected {op} failure")

    def _maybe_fail_put(self, op: str) -> None:
        if self._broken or (
            self.put_failure_probability > 0.0
            and self._rng.random() < self.put_failure_probability
        ):
            self.put_failures += 1
            self._fail_write(op)

    # ------------------------------------------------------------------
    # SpillStore contract
    # ------------------------------------------------------------------
    def put(self, key: Hashable, record: SpillRecord) -> None:
        self._maybe_fail_put("put")
        self.delegate.put(key, record)

    def get(self, key: Hashable) -> SpillRecord | None:
        return self.delegate.get(key)

    def delete(self, key: Hashable) -> bool:
        self._maybe_fail_put("delete")
        return self.delegate.delete(key)

    def keys(self) -> list[Hashable]:
        return self.delegate.keys()

    def __len__(self) -> int:
        return len(self.delegate)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.delegate

    def put_meta(self, meta: dict[str, Any]) -> None:
        self._maybe_fail_put("put_meta")
        self.delegate.put_meta(meta)

    def get_meta(self) -> dict[str, Any] | None:
        return self.delegate.get_meta()

    def flush(self) -> None:
        if self._broken or (
            self.flush_failure_probability > 0.0
            and self._rng.random() < self.flush_failure_probability
        ):
            self.flush_failures += 1
            self._fail_write("flush")
        self.delegate.flush()

    def close(self) -> None:
        self.delegate.close()

    # ------------------------------------------------------------------
    def __getattr__(self, name: str) -> Any:
        # Forward delegate extras (crash, byte counters…) so the wrapper
        # composes with the volatile store.
        return getattr(self.delegate, name)
