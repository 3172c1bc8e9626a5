"""Foundations of the state-based CRDT model (§2.2, Definitions 1–3).

A state-based CRDT payload lives in a join semilattice: a set with a
partial order ``⊑`` (here :meth:`StateCRDT.compare`) and a least upper
bound ``⊔`` for every pair (here :meth:`StateCRDT.merge`).  All payloads in
this package are immutable value objects; ``merge`` returns a new payload.

Updates and queries are first-class objects (:class:`UpdateOp`,
:class:`QueryOp`) because the replication protocols ship them to replicas:
a client submits ``f_u ∈ U`` or ``f_q ∈ Q`` and the receiving replica
applies it to its local payload.  ``UpdateOp.apply`` receives the id of the
applying replica — exactly like ``my_replica_id()`` in Algorithm 1 of the
paper, which a G-Counter increment needs to pick its slot.
"""

from __future__ import annotations

import itertools
import weakref
from abc import ABC, abstractmethod
from typing import Any, Iterable, TypeVar

S = TypeVar("S", bound="StateCRDT")

#: Process-wide monotonic stamp source (see :meth:`StateCRDT.version_stamp`).
_next_stamp = itertools.count(1).__next__

#: The intern table: canonical wire blob → the payload resident in this
#: process that encodes to it (see :meth:`StateCRDT.adopt_wire_blob`).
#: Weak-valued, so an entry lives exactly as long as its payload and the
#: table needs no size limit; the key is the payload's own memoised blob
#: object, so an entry costs no second copy of the bytes.
_RESIDENT: "weakref.WeakValueDictionary[bytes, StateCRDT]" = (
    weakref.WeakValueDictionary()
)


def resident_payload(blob: bytes) -> "StateCRDT | None":
    """The live payload whose canonical wire encoding is ``blob``, if any."""
    return _RESIDENT.get(blob)


def resident_payload_count() -> int:
    """How many payloads the intern table currently points at."""
    return len(_RESIDENT)


class StateCRDT(ABC):
    """A payload state in a join semilattice.

    Subclasses must guarantee the semilattice laws, which the property-based
    test-suite checks for every type in the package:

    * ``merge`` is idempotent, commutative and associative;
    * ``compare`` is a partial order and ``a.compare(a.merge(b))`` holds
      (the LUB is an upper bound);
    * ``merge(a, b)`` is the *least* upper bound: it is ``⊑`` any other
      common upper bound.

    Payloads are immutable value objects, which makes two cheap identity
    facts available to the hot paths (quorum evaluation, LUB folding):

    * :meth:`digest` — a cached structural digest.  Equal payloads always
      have equal digests, so an unequal digest proves two payloads differ
      structurally in O(1) (after the first computation); an equal digest
      plus ``==`` proves equivalence without two ``compare`` passes.
    * :meth:`version_stamp` — a process-wide monotonic identity stamp.
      Unlike ``id()`` it is never reused after garbage collection, so
      accumulators may memoize "already folded this payload object" by
      stamp.  (Named ``version_stamp`` rather than ``stamp`` so payloads
      with a ``stamp`` field, e.g. the LWW register, do not shadow it.)
    """

    @abstractmethod
    def merge(self: S, other: S) -> S:
        """Return the least upper bound ``self ⊔ other`` (pure)."""

    @abstractmethod
    def compare(self: S, other: S) -> bool:
        """Return True iff ``self ⊑ other`` in the lattice order."""

    # ------------------------------------------------------------------
    # Identity helpers (hot-path short-circuits)
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Strip the identity caches when a payload is copied.

        Digests are built on ``hash()`` (salted per process) and version
        stamps are process-local counters; carrying either into another
        process would poison its caches.  The checker deep-copies
        payloads, and anything outside this package may copy or
        serialize them with the standard protocols (the wire and spill
        paths use the wire codec, which writes only a payload's fields);
        every ``_crdt_``-prefixed slot — the memoised wire blob included
        — stays behind and is re-derived lazily.
        """
        state = super().__getstate__()
        if isinstance(state, tuple) and state and isinstance(state[0], dict):
            filtered = {
                key: value
                for key, value in state[0].items()
                if not key.startswith("_crdt_")
            }
            return (filtered or None, *state[1:])
        return state

    def digest(self) -> int:
        """A cached structural digest of this (immutable) payload.

        Computed once per object; payloads that are ``==`` have equal
        digests.  The converse does not hold (hashes collide), so digest
        equality is always confirmed with ``==`` before it is trusted, and
        digest *inequality* is never taken to mean non-equivalence — a
        lattice may hold equivalent-but-unequal payloads (e.g. a zero
        counter slot), for which :meth:`equivalent` still runs the full
        two-pass ``compare``.
        """
        cached = self.__dict__.get("_crdt_digest")
        if cached is None:
            try:
                cached = hash(self)
            except TypeError:
                # Unhashable payloads fall back to an identity digest:
                # fast-path equality then only triggers on the same object.
                cached = self.version_stamp()
            object.__setattr__(self, "_crdt_digest", cached)
        return cached

    def version_stamp(self) -> int:
        """A monotonic identity stamp, assigned lazily on first access.

        Distinct payload objects always carry distinct stamps, and stamps
        strictly increase in assignment order — a GC-safe substitute for
        ``id()`` in memoization keys (:class:`MergeAccumulator`).
        """
        cached = self.__dict__.get("_crdt_stamp")
        if cached is None:
            cached = _next_stamp()
            object.__setattr__(self, "_crdt_stamp", cached)
        return cached

    def wire_blob(self) -> bytes | None:
        """This payload's memoised canonical wire encoding, if it has one.

        Set by the codec (:mod:`repro.wire.values`) the first time a
        payload at or above the sized crossover is encoded or decoded;
        payloads are immutable, so the bytes stay right for the object's
        whole life.
        """
        return self.__dict__.get("_crdt_blob")

    def adopt_wire_blob(self, blob: bytes) -> None:
        """Memoise ``blob`` as this payload's encoding and make this the
        object the intern table hands out for those bytes."""
        object.__setattr__(self, "_crdt_blob", blob)
        _RESIDENT[blob] = self

    def same_payload(self: S, other: S) -> bool:
        """True for the same object or structurally equal payloads.

        The digest check makes the common negative case O(1) once both
        digests are cached; a positive digest match is confirmed by ``==``.
        Because payloads are immutable, a confirmed equality is memoized
        under the partner's :meth:`version_stamp` (bounded per object), so
        re-comparing the same pair — every ack of a read-heavy workload
        against an unchanged acceptor state — is O(1) after the first hit.

        A proven equality also settles which of the two the intern table
        keeps: equal payloads are interchangeable (they answer every
        query alike), so if either carries a wire blob both get it and
        the table is re-pointed at ``self`` — the side :meth:`join` and
        every accumulator keep.  A freshly decoded duplicate of a
        resident state is thereby the last of its kind: the next arrival
        of those bytes decodes to the resident object itself.
        """
        if self is other:
            return True
        if type(self) is not type(other) or self.digest() != other.digest():
            return False
        known_equal = self.__dict__.get("_crdt_eq_stamps")
        other_stamp = other.version_stamp()
        if known_equal is not None and other_stamp in known_equal:
            return True
        if self != other:
            return False
        blob = other.__dict__.get("_crdt_blob") or self.__dict__.get("_crdt_blob")
        if blob is not None:
            object.__setattr__(other, "_crdt_blob", blob)
            self.adopt_wire_blob(blob)
        for payload, partner_stamp in (
            (self, other_stamp),
            (other, self.version_stamp()),
        ):
            cache = payload.__dict__.get("_crdt_eq_stamps")
            if cache is None:
                cache = set()
                object.__setattr__(payload, "_crdt_eq_stamps", cache)
            if len(cache) < 64:  # bound the memo on pathological churn
                cache.add(partner_stamp)
        return True

    def equivalent(self: S, other: S) -> bool:
        """Payload equivalence: ``self ⊑ other`` and ``other ⊑ self``.

        Two equivalent payloads answer every query identically (§2.2).
        Identity and structural equality short-circuit the two ``compare``
        passes — the dominant case on the query fast path, where a quorum
        of acceptors acks with identical payloads.
        """
        if self.same_payload(other):
            return True
        return self.compare(other) and other.compare(self)

    def comparable(self: S, other: S) -> bool:
        """True iff the two payloads are ordered either way."""
        return self.compare(other) or other.compare(self)

    def join(self: S, other: S) -> S:
        """``merge`` with copy-avoiding short-circuits.

        Returns ``self`` (or ``other``) unchanged whenever one side already
        subsumes the other, so folding a quorum of equal payloads performs
        no allocation at all.  Semantically identical to :meth:`merge`.
        """
        if other is self:
            return self
        if self.same_payload(other):
            return self
        if other.compare(self):
            return self
        if self.compare(other):
            return other
        return self.merge(other)


def equivalent(a: StateCRDT, b: StateCRDT) -> bool:
    """Module-level alias of :meth:`StateCRDT.equivalent`."""
    return a.equivalent(b)


def join_all(states: Iterable[S], *, source: str = "join_all") -> S:
    """Fold the LUB over a non-empty iterable of payloads.

    Uses :meth:`StateCRDT.join`, so already-subsumed payloads are skipped
    instead of re-copied — a fold over n equal payloads returns the first
    object untouched.  ``source`` names the caller's iterable in the error
    raised for empty input.
    """
    result: S | None = None
    for state in states:
        result = state if result is None else result.join(state)
    if result is None:
        raise ValueError(
            f"{source} requires at least one state, but the iterable was empty"
        )
    return result


class MergeAccumulator:
    """Copy-on-write builder for the LUB of a stream of payloads.

    Used on the query fast path (one fold per PREPARE ack) and for delta
    folding in update batches.  Three properties make it cheaper than a
    naive ``merge`` chain:

    * the first payload is adopted as-is (no copy);
    * each further payload is folded with :meth:`StateCRDT.join`, so a
      payload the current value already subsumes costs one ``compare``
      pass and zero allocations;
    * payload objects already folded once (tracked by their GC-safe
      :meth:`StateCRDT.version_stamp`) are skipped outright — duplicated acks are
      free.  This is sound because the accumulated value only ever grows.
    """

    __slots__ = ("_value", "_folded")

    def __init__(self, initial: StateCRDT | None = None) -> None:
        self._value: StateCRDT | None = None
        self._folded: set[int] = set()
        if initial is not None:
            self.add(initial)

    @property
    def value(self) -> StateCRDT:
        if self._value is None:
            raise ValueError("MergeAccumulator holds no payload yet")
        return self._value

    @property
    def empty(self) -> bool:
        return self._value is None

    def add(self, state: StateCRDT) -> StateCRDT:
        """Fold one payload in; returns the accumulated LUB so far."""
        value = self._value
        if value is None:
            self._value = state
            self._folded.add(state.version_stamp())
            return state
        if state is value:
            return value
        mark = state.version_stamp()
        if mark in self._folded:
            return value
        self._folded.add(mark)
        self._value = value.join(state)
        return self._value

    def add_all(self, states: Iterable[StateCRDT]) -> StateCRDT:
        for state in states:
            self.add(state)
        return self.value


class UpdateOp(ABC):
    """A monotonically non-decreasing update function ``f_u ∈ U``.

    ``apply`` must be *inflationary*: ``state ⊑ apply(state, replica)`` for
    every state — Definition 3 of the paper.  It must also be deterministic
    in ``(state, replica_id)`` so that re-applying at the same point in a
    replica's serial history yields the same payload.
    """

    @abstractmethod
    def apply(self, state: Any, replica_id: str) -> Any:
        """Return the new payload after applying this update at a replica."""

    def delta(self, before: Any, after: Any, replica_id: str) -> Any:
        """A (possibly much smaller) payload carrying just this update.

        Must satisfy ``before ⊔ delta ≡ after`` and, when merged into *any*
        other payload, must make that payload include this update.  The
        default is the full ``after`` state, which trivially satisfies
        both; delta-capable ops override this with a minimal fragment
        (the delta-mutation idea of Almeida et al., referenced in §5).
        """
        return after


class QueryOp(ABC):
    """A side-effect-free query function ``f_q ∈ Q``."""

    @abstractmethod
    def apply(self, state: Any) -> Any:
        """Evaluate the query against a payload state."""


class IdentityQuery(QueryOp):
    """Returns the full learned payload state.

    Used by the correctness checker, which needs the *state* a query
    learned (not just a derived value) to verify the lattice conditions of
    §3.1 on recorded histories.
    """

    def apply(self, state: Any) -> Any:
        return state

    def __repr__(self) -> str:
        return "IdentityQuery()"
