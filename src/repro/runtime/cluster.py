"""Simulated cluster runtime: nodes, CPUs, timers, crash/recovery."""

from __future__ import annotations

from typing import Any, Callable

from repro.net.message import Envelope
from repro.net.node import Effects, ProtocolNode
from repro.net.sim_transport import SimNetwork
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.process import SerialProcess, ServiceModel


class SimNodeRuntime:
    """Drives one :class:`ProtocolNode` under the simulator.

    Arriving envelopes queue at a :class:`SerialProcess` modelling the
    node's CPU; handler effects are executed when service completes.
    Crash/recovery follows §2.1: a crashed node receives nothing and its
    timers are lost, but its internal state is intact on recovery.
    """

    def __init__(
        self,
        sim: Simulator,
        network: SimNetwork,
        node: ProtocolNode,
        service_model: ServiceModel | None = None,
    ) -> None:
        self._sim = sim
        self._network = network
        self.node = node
        self._service_model = service_model or ServiceModel()
        self._process = SerialProcess(sim, self._handle, self._service_model)
        self._timers: dict[str, Event] = {}
        self.crashed = False
        network.register(node.node_id, self)

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._apply(self.node.on_start(self._sim.now))

    def deliver(self, envelope: Envelope) -> None:
        """Network ingress — called by the fabric at the arrival instant."""
        if self.crashed:
            return
        self._process.submit(envelope, envelope.size_bytes())

    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash the node: drop queued work, lose timers, refuse ingress."""
        if self.crashed:
            return
        self.crashed = True
        self._process.pause()
        for event in self._timers.values():
            event.cancel()
        self._timers.clear()

    def recover(self) -> None:
        """Recover with internal state preserved (crash-recovery model)."""
        if not self.crashed:
            return
        self.crashed = False
        self._process.resume()
        self._apply(self.node.on_recover(self._sim.now))

    # ------------------------------------------------------------------
    def apply_effects(self, effects: Effects) -> None:
        """Execute effects produced outside the message/timer path.

        Maintenance hooks (e.g. :meth:`KeyedCrdtReplica.spill_all`, which
        returns a final outbox flush) are invoked directly on the node by
        operator-side code; their effects still need this runtime to
        reach the network and the timer wheel.
        """
        self._apply(effects)

    def _handle(self, envelope: Envelope) -> None:
        effects = self.node.on_message(envelope.src, envelope.payload, self._sim.now)
        self._apply(effects)

    def _fire_timer(self, key: str) -> None:
        if self.crashed:
            return
        self._timers.pop(key, None)
        self._apply(self.node.on_timer(key, self._sim.now))

    def _apply(self, effects: Effects) -> None:
        for key in effects.cancels:
            event = self._timers.pop(key, None)
            if event is not None:
                event.cancel()
        for key, delay in effects.timers:
            existing = self._timers.pop(key, None)
            if existing is not None:
                existing.cancel()
            self._timers[key] = self._sim.schedule(delay, self._fire_timer, key)
        for dst, message in effects.sends:
            self._network.send(self.node.node_id, dst, message)
        if effects.sends:
            send_cost = self._service_model.send_time(len(effects.sends))
            if send_cost > 0.0:
                self._process.extend_busy(send_cost)


class ClientEndpoint:
    """A load-generator-side endpoint: replies invoke a callback.

    Client machines are not CPU-modelled — the paper used dedicated load
    generators that were never the bottleneck.
    """

    def __init__(
        self,
        sim: Simulator,
        network: SimNetwork,
        address: str,
        on_reply: Callable[[str, Any], None],
    ) -> None:
        self._sim = sim
        self._network = network
        self.address = address
        self._on_reply = on_reply
        network.register(address, self)

    def deliver(self, envelope: Envelope) -> None:
        self._on_reply(envelope.src, envelope.payload)

    def send(self, dst: str, message: Any) -> None:
        self._network.send(self.address, dst, message)


#: Builds the protocol node for one replica: (node_id, all peer ids) → node.
ReplicaFactory = Callable[[str, list[str]], ProtocolNode]


class SimCluster:
    """A replica group under the simulator, with fault-injection helpers."""

    def __init__(
        self,
        sim: Simulator,
        network: SimNetwork,
        replica_factory: ReplicaFactory,
        n_replicas: int = 3,
        name_prefix: str = "r",
        service_model: ServiceModel | None = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.addresses = [f"{name_prefix}{i}" for i in range(n_replicas)]
        self.runtimes: dict[str, SimNodeRuntime] = {}
        for address in self.addresses:
            node = replica_factory(address, list(self.addresses))
            self.runtimes[address] = SimNodeRuntime(
                sim, network, node, service_model
            )
        for runtime in self.runtimes.values():
            runtime.start()

    # ------------------------------------------------------------------
    def node(self, address: str) -> ProtocolNode:
        return self.runtimes[address].node

    def nodes(self) -> list[ProtocolNode]:
        return [self.runtimes[a].node for a in self.addresses]

    def crash(self, address: str) -> None:
        self.runtimes[address].crash()

    def recover(self, address: str) -> None:
        self.runtimes[address].recover()

    def crash_at(self, time: float, address: str) -> None:
        self.sim.at(time, self.crash, address)

    def recover_at(self, time: float, address: str) -> None:
        self.sim.at(time, self.recover, address)

    def hard_kill(
        self, address: str, rebuild: Callable[[str], ProtocolNode]
    ) -> None:
        """kill -9 one replica and bring up a *rebuilt* process in place.

        Unlike :meth:`crash`/:meth:`recover` (which models a pause with
        internal state intact), a hard kill loses everything in RAM: the
        queued work and timers are dropped and the node object itself is
        replaced by whatever ``rebuild(address)`` returns — typically
        ``KeyedCrdtReplica.recover(spill_store, ..., rejoin=True)``
        against the dead generation's store.  If the fresh node exposes a
        ``rejoin()`` hook its effects are applied, so the replica starts
        its read-quorum refreshes immediately.
        """
        runtime = self.runtimes[address]
        runtime.crash()
        fresh = rebuild(address)
        runtime.node = fresh
        runtime.recover()  # resumes the CPU; on_recover == on_start here
        rejoin = getattr(fresh, "rejoin", None)
        if rejoin is not None:
            runtime.apply_effects(rejoin())

    def hard_kill_at(
        self, time: float, address: str, rebuild: Callable[[str], ProtocolNode]
    ) -> None:
        self.sim.at(time, self.hard_kill, address, rebuild)

    def alive(self) -> list[str]:
        return [a for a in self.addresses if not self.runtimes[a].crashed]
