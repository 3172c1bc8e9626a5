"""Adversarially scheduled message delivery.

The paper's authors tested their Erlang implementation "using a protocol
scheduler that enforces random interleavings of incoming messages".  This
module is that scheduler's network half: instead of sampling latencies, all
in-flight messages sit in a pool and an explorer picks the next one to
deliver uniformly at random (optionally dropping or duplicating picks).

Uniform pick-next explores far more hostile interleavings than randomized
latency — a message can be overtaken by arbitrarily many later ones — while
remaining fully deterministic under a seed.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import TransportError
from repro.net.message import Envelope
from repro.net.sim_transport import Endpoint, NetworkStats
from repro.sim.kernel import Simulator

#: Virtual time consumed by one adversarial delivery.  Non-zero so that
#: "now" is strictly increasing and timestamps remain a total order.
DELIVERY_EPSILON = 1e-9


class AdversarialNetwork:
    """Drop-in replacement for :class:`~repro.net.sim_transport.SimNetwork`
    whose delivery order is controlled by an explorer, not by latencies."""

    def __init__(self, sim: Simulator, wire_fidelity: bool = True) -> None:
        self._sim = sim
        self._rng = sim.rng.stream("adversary")
        self.stats = NetworkStats()
        self._endpoints: dict[str, Endpoint] = {}
        self._pool: list[Envelope] = []
        #: With ``wire_fidelity`` every registered protocol message is
        #: encoded to its binary wire body at send time and decoded at
        #: delivery, so campaigns exercise the real codec on every hop:
        #: what the handler sees is what crossed the (virtual) wire, and
        #: a codec bug fails the campaign's invariants, not just a
        #: round-trip unit test.  Unregistered payloads (raw test probes)
        #: pass through unchanged.
        self.wire_fidelity = wire_fidelity
        from repro.wire import decode_body, encode_body, spec_for

        self._encode_body = encode_body
        self._decode_body = decode_body
        self._spec_for = spec_for
        #: Which envelopes the channel may duplicate.  Client sessions are
        #: usually dedup'd (TCP/request ids), so explorers restrict
        #: duplication to replica↔replica links; the protocol itself makes
        #: no at-most-once assumption there.
        self.duplicable: Callable[[Envelope], bool] = lambda envelope: True
        #: Nemesis link-block predicate ``(src, dst) -> bool``.  A blocked
        #: pick is *held* (parked until :meth:`release_held`), not dropped:
        #: a healed partition may deliver long-delayed traffic, which is
        #: strictly more hostile than silently losing it.
        self.blocked: Callable[[str, str], bool] | None = None
        #: Nemesis per-link loss ``(src, dst) -> probability``, applied at
        #: pick time on top of the explorer's global drop probability.
        self.link_loss: Callable[[str, str], float] | None = None
        self._held: list[Envelope] = []
        self.messages_held = 0

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
        envelope = Envelope(src=src, dst=dst, payload=payload)
        self.stats.record_send(type(payload).__name__, envelope.size_bytes())
        if self.wire_fidelity and self._spec_for(type(payload)) is not None:
            # Freeze the payload to wire bytes *now* (send semantics);
            # each delivery decodes a fresh object from these bytes.
            object.__setattr__(envelope, "_wire_body", self._encode_body(payload))
        self._pool.append(envelope)

    @property
    def pending(self) -> int:
        return len(self._pool)

    @property
    def held(self) -> int:
        return len(self._held)

    def release_held(self) -> int:
        """Return every held (link-blocked) envelope to the delivery pool.

        Call when the nemesis heals a partition; the envelopes then race
        with fresh traffic under the usual uniform pick-next schedule.
        Returns how many were released.
        """
        released = len(self._held)
        self._pool.extend(self._held)
        self._held.clear()
        return released

    def deliver_random(self, drop_probability: float = 0.0, duplicate_probability: float = 0.0) -> bool:
        """Deliver (or drop) one uniformly chosen pending message.

        Returns False when the pool is empty.  A duplicated pick is
        delivered now *and* returned to the pool for a second, later
        delivery — modelling channel duplication.
        """
        if not self._pool:
            return False
        index = self._rng.randrange(len(self._pool))
        envelope = self._pool.pop(index)
        if self.blocked is not None and self.blocked(envelope.src, envelope.dst):
            self._held.append(envelope)
            self.messages_held += 1
            return True
        if self.link_loss is not None:
            loss = self.link_loss(envelope.src, envelope.dst)
            if loss > 0.0 and self._rng.random() < loss:
                self.stats.messages_dropped += 1
                return True
        if drop_probability > 0.0 and self._rng.random() < drop_probability:
            self.stats.messages_dropped += 1
            return True
        if (
            duplicate_probability > 0.0
            and self.duplicable(envelope)
            and self._rng.random() < duplicate_probability
        ):
            self.stats.messages_duplicated += 1
            self._pool.append(envelope)
        self._deliver(envelope)
        return True

    def drain(self, max_deliveries: int = 1_000_000) -> int:
        """Deliver every pending message (in random order) until quiescent.

        New messages produced by handlers join the pool and are themselves
        randomly scheduled.  Returns the number of deliveries performed.
        """
        delivered = 0
        while self._pool and delivered < max_deliveries:
            self.deliver_random()
            delivered += 1
        return delivered

    # ------------------------------------------------------------------
    def _deliver(self, envelope: Envelope) -> None:
        endpoint = self._endpoints.get(envelope.dst)
        if endpoint is None:
            self.stats.messages_dropped += 1
            return
        self._sim.now += DELIVERY_EPSILON
        self.stats.messages_delivered += 1
        body = envelope.__dict__.get("_wire_body")
        if body is not None:
            # The handler receives what the wire carried, not the sender's
            # object graph — duplicated picks each decode independently.
            envelope = Envelope(
                src=envelope.src, dst=envelope.dst, payload=self._decode_body(body)
            )
        endpoint.deliver(envelope)
