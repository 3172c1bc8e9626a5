"""Shared exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid parameters."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class TransportError(ReproError):
    """A message could not be routed, e.g. to an unregistered address."""


class ProtocolError(ReproError):
    """A replication protocol observed a message it cannot have produced.

    This indicates a bug in the protocol implementation (or a corrupted
    test harness), never a legal run-time condition: the protocols in this
    package tolerate loss, duplication and reordering by design.
    """


class QuorumError(ReproError):
    """A quorum system was queried with processes it does not know."""


class RequestTimeout(ReproError):
    """A client request did not complete within its deadline."""


class NotLeader(ReproError):
    """A leader-based protocol rejected a request at a non-leader node."""


class QuorumUnavailable(RequestTimeout):
    """A replica gave up on a request because no quorum is reachable.

    Raised by the :class:`~repro.api.store.Store` frontends when a replica
    answers with a ``Refused(code="quorum")`` — the proposer exhausted its
    bounded re-drive budget without assembling a quorum, so failing over to
    another replica of the *same* group is pointless.  Subclasses
    :class:`RequestTimeout` so existing "the request did not complete"
    handlers keep working; new code can catch it for the sharper diagnosis.
    """


class StorageUnavailable(RequestTimeout):
    """A durable write could not be persisted, so its ack was withheld.

    Raised by the spill-store layer when a ``write_through`` persist fails
    (injected or real IO fault) and surfaced by the ``Store`` frontends
    when every attempted replica answered ``Refused(code="storage")``.
    The protocol state itself is fine — retry once the store heals.
    """


class WrongGroupError(ReproError):
    """A sharded replica refused a command: its group does not own the key.

    Carries the refusing replica's forwarding hint — the highest routing
    ``epoch`` it can attest for the key and the ``group`` it believes
    owns it — so a stale client can fold the hint into its routing
    snapshot and retry at the right group.  Deliberately *not* a
    :class:`RequestTimeout`: the operation was answered promptly and was
    never attempted, it just knocked on the wrong door.
    """

    def __init__(self, message: str, *, epoch: int = 0, group: str = "") -> None:
        super().__init__(message)
        self.epoch = epoch
        self.group = group


class SerializationError(ReproError):
    """A value could not be encoded or decoded.

    Raised by the wire codec (:mod:`repro.wire`) for a type it cannot
    encode and for malformed bytes, and by the spill stores for a record
    or meta body of the wrong shape.
    """


class SpillCorruption(SerializationError):
    """A spill-store segment failed its integrity checks.

    Distinguished from plain :class:`SerializationError` so recovery code
    can tell "this blob is not ours" from "our segment file is damaged".
    """


class StaleRecoveryError(ReproError):
    """A spill store was opened for recovery without a clean-shutdown marker.

    The store's records may predate promises the dead process made after
    its last durable write (a hard kill), so serving them directly could
    break linearizability.  Recover with ``rejoin=True`` (refreshing each
    key from a read quorum before first use) or run under
    ``durability="write_through"`` where every ack is persisted first.
    """


class HistoryViolation(ReproError):
    """A recorded operation history violates a correctness condition.

    Raised by :mod:`repro.checker` with a human-readable explanation of the
    violated condition (Validity, Stability, Consistency, Update Stability,
    Update Visibility or GLA-Stability).
    """
