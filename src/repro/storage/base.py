"""The spill-store contract: durable homes for frozen key records.

The paper's central observation (§3.3) is that an acceptor's *entire*
durable state is the pair ``(payload, round)`` — there is no log, so
there is nothing to replay.  A keyed replica already demotes cold keys
to exactly that record in RAM (:class:`~repro.core.keyspace.KeyedCrdtReplica`);
a :class:`SpillStore` is the second demotion tier, holding the same
records on disk (or any byte store) so the keyspace is bounded only by
storage, not by RAM.  Zheng & Garg make the same point for lattice
agreement RSMs: join-semilattice state subsumes the log, so recovery
from a snapshot needs no replay.

A store maps an arbitrary hashable key to one :class:`SpillRecord`
(payload, round watermark, §3.4 learned maximum) — last ``put`` wins —
plus one optional node-level *meta* mapping used to persist the shared
monotone counters (batch ids, learn sequence, round ids) across a
restart so a recovered node can never reuse an identifier a stale
in-flight reply might still answer.

Records and meta are stored as wire bodies (:mod:`repro.wire`):
:func:`encode_record` writes a record as the body of its
``(payload, round, learned-max)`` triple, so a spilled payload and the
same payload on the wire are the same bytes (a large payload persists as
the blob it already carries), and :func:`decode_record` refuses any body
that is not such a triple.  Meta is the body of its ``str``-keyed dict.

Backends:

* :class:`~repro.storage.memory.InMemorySpillStore` — byte-faithful
  dict backend for tests (records and meta still round-trip through the
  codec, so serialization bugs cannot hide behind object sharing);
* :class:`~repro.storage.segmented.SegmentedSpillStore` — append-mostly
  segmented files with an in-memory index and compaction;
* :class:`~repro.storage.volatile.VolatileSpillStore` and
  :class:`~repro.storage.faulty.FaultySpillStore` — wrappers modelling
  power loss and disk faults over any backend.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Hashable

from repro.core.rounds import Round
from repro.crdt.base import StateCRDT
from repro.errors import SerializationError


class SpillRecord:
    """One spilled key: the acceptor's durable state, nothing else.

    Mirrors the in-RAM frozen record bit for bit: lattice payload, round
    watermark, and (when GLA-Stability ran) the §3.4 learned maximum.
    """

    __slots__ = ("state", "round", "learned_max")

    def __init__(
        self,
        state: StateCRDT,
        round: Round,
        learned_max: StateCRDT | None = None,
    ) -> None:
        self.state = state
        self.round = round
        self.learned_max = learned_max

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SpillRecord(state={self.state!r}, round={self.round!r}, "
            f"learned_max={self.learned_max!r})"
        )


def _check_triple(state: Any, round_: Any, learned_max: Any) -> None:
    """A store must never hand the protocol a payload of the wrong type."""
    if not isinstance(state, StateCRDT):
        raise SerializationError(
            f"spill record payload is not a StateCRDT: {type(state).__name__}"
        )
    if not isinstance(round_, Round):
        raise SerializationError(
            f"spill record round is not a Round: {type(round_).__name__}"
        )
    if learned_max is not None and not isinstance(learned_max, StateCRDT):
        raise SerializationError(
            "spill record learned_max is not a StateCRDT or None: "
            f"{type(learned_max).__name__}"
        )


# The codec is imported at call time below: its class registry imports
# the keyed replica, which imports this module.
def encode_record(record: SpillRecord) -> bytes:
    """The wire body of ``record``'s ``(payload, round, learned-max)``."""
    from repro.wire.framing import encode_body

    _check_triple(record.state, record.round, record.learned_max)
    return encode_body((record.state, record.round, record.learned_max))


def decode_record(data: bytes) -> SpillRecord:
    """Invert :func:`encode_record`; anything but a well-typed triple
    raises :class:`SerializationError`."""
    from repro.wire.framing import decode_body

    triple = decode_body(data)
    if type(triple) is not tuple or len(triple) != 3:
        raise SerializationError(
            f"spill record must decode to a triple, got {type(triple).__name__}"
        )
    _check_triple(*triple)
    return SpillRecord(*triple)


def encode_meta(meta: dict[str, Any]) -> bytes:
    """The wire body of a store's meta mapping."""
    from repro.wire.framing import encode_body

    return encode_body(meta)


def decode_meta(data: bytes) -> dict[str, Any]:
    """Invert :func:`encode_meta`; anything but a ``str``-keyed dict
    raises :class:`SerializationError`."""
    from repro.wire.framing import decode_body

    meta = decode_body(data)
    if type(meta) is not dict or not all(type(name) is str for name in meta):
        raise SerializationError("store meta must decode to a str-keyed dict")
    return meta


class SpillStore(ABC):
    """Durable key → :class:`SpillRecord` mapping (last put wins)."""

    @abstractmethod
    def put(self, key: Hashable, record: SpillRecord) -> None:
        """Store (or overwrite) one key's record."""

    @abstractmethod
    def get(self, key: Hashable) -> SpillRecord | None:
        """The key's latest record, or None if never spilled."""

    @abstractmethod
    def delete(self, key: Hashable) -> bool:
        """Drop a key's record; True if one existed."""

    @abstractmethod
    def keys(self) -> list[Hashable]:
        """Every key currently holding a record."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of keys with a record."""

    def __contains__(self, key: Hashable) -> bool:
        return self.get(key) is not None

    # ------------------------------------------------------------------
    # Node-level metadata (shared counters; see module docstring)
    # ------------------------------------------------------------------
    @abstractmethod
    def put_meta(self, meta: dict[str, Any]) -> None:
        """Persist the node-level meta mapping (last put wins)."""

    @abstractmethod
    def get_meta(self) -> dict[str, Any] | None:
        """The latest meta mapping, or None if never written."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Make every completed ``put`` durable (fsync point)."""

    def close(self) -> None:
        """Release resources; the store must be reopenable by path."""
