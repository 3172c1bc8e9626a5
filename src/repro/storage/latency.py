"""Latency-modelled spill backend for the deterministic simulator.

The sans-io protocol nodes call the spill store synchronously from
inside their handlers, so a simulated deployment cannot *block* on a
disk model — instead this wrapper does what the simulator's
:class:`~repro.sim.process.ServiceModel` does for CPU time: it accounts
deterministic virtual seconds for every store operation and lets the
driver charge them.  :meth:`drain_accrued` hands the accumulated cost to
whoever owns the clock (a service model extending a node's busy time, a
benchmark adding IO time to a latency budget), resetting the meter.

Costs are per operation plus per byte, so both a seek-bound and a
bandwidth-bound device can be modelled.  Determinism: identical call
sequences accrue identical costs — there is no randomness here, which
keeps explorer campaigns reproducible under their seeds.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.storage.base import SpillRecord, SpillStore, encode_record


class LatencySpillStore(SpillStore):
    """Wraps any backend, metering deterministic virtual IO time."""

    def __init__(
        self,
        delegate: SpillStore,
        read_seconds: float = 100e-6,
        write_seconds: float = 150e-6,
        per_byte_seconds: float = 0.0,
        flush_seconds: float = 0.0,
    ) -> None:
        if min(read_seconds, write_seconds, per_byte_seconds, flush_seconds) < 0:
            raise ValueError("latency parameters must be non-negative")
        self.delegate = delegate
        self.read_seconds = read_seconds
        self.write_seconds = write_seconds
        self.per_byte_seconds = per_byte_seconds
        self.flush_seconds = flush_seconds
        self.reads = 0
        self.writes = 0
        self.accrued_seconds = 0.0

    # ------------------------------------------------------------------
    def _charge_read(self) -> None:
        self.reads += 1
        self.accrued_seconds += self.read_seconds

    def drain_accrued(self) -> float:
        """Return and reset the virtual seconds accrued since last drain."""
        accrued, self.accrued_seconds = self.accrued_seconds, 0.0
        return accrued

    def _charged_write(self, write, fallback_record: SpillRecord | None = None):
        """Run a backend write, charging write_seconds plus the bytes the
        backend reports having written (both backends keep a
        bytes_written counter, so the record is not encoded a second
        time just to be measured)."""
        self.writes += 1
        cost = self.write_seconds
        if self.per_byte_seconds:
            before = getattr(self.delegate, "bytes_written", None)
            result = write()
            if before is not None:
                written = self.delegate.bytes_written - before
            elif fallback_record is not None:  # unfamiliar backend
                written = len(encode_record(fallback_record))
            else:
                written = 0
            cost += written * self.per_byte_seconds
        else:
            result = write()
        self.accrued_seconds += cost
        return result

    # ------------------------------------------------------------------
    def put(self, key: Hashable, record: SpillRecord) -> None:
        self._charged_write(lambda: self.delegate.put(key, record), record)

    def get(self, key: Hashable) -> SpillRecord | None:
        record = self.delegate.get(key)
        if record is not None:
            self._charge_read()
        return record

    def delete(self, key: Hashable) -> bool:
        # A delete is a real write on append-mostly backends (tombstone
        # frame); charge it like one.
        return self._charged_write(lambda: self.delegate.delete(key))

    def keys(self) -> list[Hashable]:
        return self.delegate.keys()

    def __len__(self) -> int:
        return len(self.delegate)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.delegate

    def put_meta(self, meta: dict[str, Any]) -> None:
        self._charged_write(lambda: self.delegate.put_meta(meta))

    def get_meta(self) -> dict[str, Any] | None:
        return self.delegate.get_meta()

    def flush(self) -> None:
        self.delegate.flush()
        self.accrued_seconds += self.flush_seconds

    def close(self) -> None:
        self.delegate.close()
