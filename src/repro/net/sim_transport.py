"""The simulated network fabric.

Routes envelopes between registered endpoints through a latency model and a
fault plan.  Reordering needs no special machinery: two messages on the same
link sample independent delays, so a later send regularly overtakes an
earlier one — exactly the asynchrony the protocols must survive.

The fabric also keeps per-message-type traffic statistics which the
message-overhead experiment (Falerio GLA vs. CRDT Paxos) reads out.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Protocol

from repro.errors import TransportError
from repro.net.faults import FaultPlan
from repro.net.latency import LatencyModel, LogNormalLatency
from repro.net.message import Envelope
from repro.sim.kernel import Simulator


class Endpoint(Protocol):
    """Anything that can receive an envelope at its arrival instant."""

    def deliver(self, envelope: Envelope) -> None: ...


class CallbackEndpoint:
    """Adapter turning a plain callable into an :class:`Endpoint`."""

    def __init__(self, callback: Callable[[Envelope], None]) -> None:
        self._callback = callback

    def deliver(self, envelope: Envelope) -> None:
        self._callback(envelope)


class NetworkStats:
    """Aggregate traffic counters, broken down by payload type name."""

    def __init__(self) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.bytes_sent = 0
        self.count_by_type: dict[str, int] = defaultdict(int)
        self.bytes_by_type: dict[str, int] = defaultdict(int)

    def record_send(self, type_name: str, size: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += size
        self.count_by_type[type_name] += 1
        self.bytes_by_type[type_name] += size

    def mean_bytes(self, type_name: str) -> float:
        count = self.count_by_type.get(type_name, 0)
        if count == 0:
            return 0.0
        return self.bytes_by_type[type_name] / count


class SimNetwork:
    """Unreliable, reordering message fabric over the simulator.

    ``send`` is fire-and-forget, mirroring the system model: the sender
    learns nothing about loss or delay.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel | None = None,
        faults: FaultPlan | None = None,
        fifo_links: bool = False,
    ) -> None:
        self._sim = sim
        self._latency = latency or LogNormalLatency()
        self._rng = sim.rng.stream("network")
        self.faults = faults or FaultPlan()
        self.stats = NetworkStats()
        self._endpoints: dict[str, Endpoint] = {}
        #: With ``fifo_links`` messages on one (src, dst) link never
        #: overtake each other — the TCP behaviour of the paper's Erlang
        #: test bed.  Off by default: the *protocols* must tolerate
        #: reordering (§2.1), and the correctness tests rely on it.
        self.fifo_links = fifo_links
        self._link_clock: dict[tuple[str, str], float] = {}

    # ------------------------------------------------------------------
    def register(self, address: str, endpoint: Endpoint) -> None:
        if address in self._endpoints:
            raise TransportError(f"address already registered: {address}")
        self._endpoints[address] = endpoint

    def unregister(self, address: str) -> None:
        self._endpoints.pop(address, None)

    def addresses(self) -> list[str]:
        return sorted(self._endpoints)

    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, payload: Any) -> None:
        """Route one message; may drop, duplicate, and delays arbitrarily."""
        envelope = Envelope(src=src, dst=dst, payload=payload)
        size = envelope.size_bytes()
        self.stats.record_send(type(payload).__name__, size)

        if dst not in self._endpoints:
            # Sends to crashed-and-removed or unknown endpoints vanish,
            # which the unreliable-channel model already permits.
            self.stats.messages_dropped += 1
            return
        if self.faults.should_drop(self._rng, src, dst, self._sim.now):
            self.stats.messages_dropped += 1
            return

        copies = 2 if self.faults.should_duplicate(self._rng, src, dst, self._sim.now) else 1
        if copies == 2:
            self.stats.messages_duplicated += 1
        spike = self.faults.extra_delay(self._rng, src, dst, self._sim.now)
        for _ in range(copies):
            delay = self._latency.sample(self._rng, size) + spike
            arrival = self._sim.now + delay
            if self.fifo_links:
                link = (src, dst)
                arrival = max(arrival, self._link_clock.get(link, 0.0) + 1e-9)
                self._link_clock[link] = arrival
            self._sim.schedule(arrival - self._sim.now, self._deliver, envelope)

    def _deliver(self, envelope: Envelope) -> None:
        endpoint = self._endpoints.get(envelope.dst)
        if endpoint is None:
            self.stats.messages_dropped += 1
            return
        self.stats.messages_delivered += 1
        endpoint.deliver(envelope)
