"""Out-of-band control messages for real-network deployments.

These never touch the consensus protocol: the multi-process bench rig
uses them to collect transport counters from replica processes over the
same wire connection the workload rides, so byte accounting reflects
what each OS process actually wrote to its sockets; the process-level
nemesis (:mod:`repro.nemesis.process`) uses them to sever established
TCP connections and inject garbage bytes into live streams from outside
the replica process, exercising the transport's supervision layer
without cooperation from the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class NetStats:
    """Driver → replica process: report your transport counters."""

    request_id: str


@dataclass(frozen=True, slots=True)
class NetStatsReply:
    """Replica process → driver: cumulative socket-level counters.

    The trailing block are the transport *fault* counters the nemesis
    campaigns assert exercised-ness against (and operators watch for
    link health): decode errors observed on inbound streams, connections
    dropped (decode poison, peer resets, evicted dead outbound streams,
    severs), redial attempts against peers, backoff windows closed by a
    successful reconnect, and outbox messages shed by the bounded
    per-destination queues.
    """

    request_id: str
    node: str
    messages_sent: int
    bytes_sent: int
    messages_received: int
    bytes_received: int
    frame_decode_errors: int = 0
    connections_dropped: int = 0
    redials: int = 0
    backoff_resets: int = 0
    outbox_shed: int = 0

    @property
    def is_refusal(self) -> bool:  # mirrors the client-message protocol
        return False


@dataclass(frozen=True, slots=True)
class Sever:
    """Nemesis → replica process: drop every established connection now.

    Models an external connection reset (conntrack flush, middlebox
    reboot, NAT timeout): all inbound and cached outbound streams are
    torn down except the connection this request arrived on (so the
    acknowledgement has a route back).  The transport must recover by
    redialing under its backoff policy; the protocol must not notice
    beyond re-driven messages.
    """

    request_id: str


@dataclass(frozen=True, slots=True)
class SeverDone:
    """Replica process → nemesis: connections actually torn down."""

    request_id: str
    node: str
    connections_dropped: int

    @property
    def is_refusal(self) -> bool:
        return False


@dataclass(frozen=True, slots=True)
class GarbageInject:
    """Nemesis → replica process: write garbage into a live stream.

    The replica writes ``payload`` (or a built-in non-frame byte string
    when empty) raw into its outbound stream to ``dst``, desyncing the
    peer's frame decoder mid-connection — the bit-rot/misbehaving-peer
    case.  The peer must tear the poisoned connection down and the
    sender must redial; one injected frame must never wedge the link
    permanently or corrupt protocol state (the CRC/magic checks reject
    it before any decoding).
    """

    request_id: str
    dst: str
    payload: bytes = b""


@dataclass(frozen=True, slots=True)
class GarbageInjectDone:
    """Replica process → nemesis: whether the garbage hit a live stream."""

    request_id: str
    node: str
    injected: bool

    @property
    def is_refusal(self) -> bool:
        return False
