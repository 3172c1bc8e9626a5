"""Tests for the simulated node runtime and cluster harness."""

from typing import Any

from repro.net.latency import ConstantLatency
from repro.net.node import Effects, ProtocolNode
from repro.net.sim_transport import SimNetwork
from repro.runtime.cluster import ClientEndpoint, SimCluster, SimNodeRuntime
from repro.runtime.failures import FailureEvent, FailureSchedule
from repro.sim.kernel import Simulator
from repro.sim.process import ServiceModel


class EchoNode(ProtocolNode):
    """Replies to every message; tracks timers for the tests."""

    def __init__(self, node_id: str) -> None:
        super().__init__(node_id)
        self.started = 0
        self.recovered = 0
        self.timer_fired = []
        self.received = []

    def on_start(self, now: float) -> Effects:
        self.started += 1
        effects = Effects()
        effects.set_timer("tick", 0.1)
        return effects

    def on_message(self, src: str, message: Any, now: float) -> Effects:
        self.received.append(message)
        effects = Effects()
        effects.send(src, ("echo", message))
        return effects

    def on_timer(self, key: str, now: float) -> Effects:
        self.timer_fired.append((key, now))
        return Effects()

    def on_recover(self, now: float) -> Effects:
        self.recovered += 1
        return super().on_recover(now)


def build(seed=1, service_model=None):
    sim = Simulator(seed=seed)
    network = SimNetwork(sim, latency=ConstantLatency(delay=0.001))
    node = EchoNode("n1")
    runtime = SimNodeRuntime(sim, network, node, service_model)
    runtime.start()
    return sim, network, node, runtime


def test_start_invoked_and_timer_fires():
    sim, _, node, _ = build()
    sim.run(until=0.2)
    assert node.started == 1
    assert node.timer_fired == [("tick", 0.1)]


def test_message_round_trip():
    sim, network, node, _ = build()
    replies = []
    ClientEndpoint(sim, network, "client", lambda src, m: replies.append((src, m)))
    network.send("client", "n1", "hello")
    sim.run(until=0.1)
    assert node.received == ["hello"]
    assert replies == [("n1", ("echo", "hello"))]


def test_crash_drops_ingress_and_timers():
    sim, network, node, runtime = build()
    runtime.crash()
    network.send("x", "n1", "lost")
    sim.run(until=0.5)
    assert node.received == []
    assert node.timer_fired == []  # boot timer cancelled by the crash


def test_recover_invokes_hook_and_rearms_timers():
    sim, network, node, runtime = build()
    runtime.crash()
    sim.run(until=0.05)
    runtime.recover()
    sim.run(until=0.5)
    assert node.recovered == 1
    assert node.timer_fired  # re-armed via on_recover → on_start


def test_double_crash_and_recover_are_idempotent():
    sim, _, node, runtime = build()
    runtime.crash()
    runtime.crash()
    runtime.recover()
    runtime.recover()
    assert node.recovered == 1


def test_timer_rearm_replaces_previous():
    class RearmingNode(EchoNode):
        def on_start(self, now):
            effects = Effects()
            effects.set_timer("t", 0.3)
            effects.set_timer("t", 0.1)  # replaces the first
            return effects

    sim = Simulator()
    network = SimNetwork(sim, latency=ConstantLatency(delay=0.001))
    node = RearmingNode("n1")
    SimNodeRuntime(sim, network, node).start()
    sim.run(until=1.0)
    assert node.timer_fired == [("t", 0.1)]


def test_cancel_timer_effect():
    class CancellingNode(EchoNode):
        def on_message(self, src, message, now):
            effects = Effects()
            effects.cancel_timer("tick")
            return effects

    sim = Simulator()
    network = SimNetwork(sim, latency=ConstantLatency(delay=0.001))
    node = CancellingNode("n1")
    SimNodeRuntime(sim, network, node).start()
    network.send("x", "n1", "cancel-please")
    sim.run(until=1.0)
    assert node.timer_fired == []


def test_send_cost_charged_to_service_time():
    sim = Simulator()
    network = SimNetwork(sim, latency=ConstantLatency(delay=0.0))
    node = EchoNode("n1")
    runtime = SimNodeRuntime(
        sim, network, node, ServiceModel(base=0.01, per_send=0.05)
    )
    runtime.start()
    network.send("x", "n1", "a")
    network.send("x", "n1", "b")
    sim.run()
    # Message b waits for a's service (0.01) plus a's send cost (0.05).
    assert runtime._process.busy_time >= 0.12


class TestSimCluster:
    def test_builds_and_starts_all_replicas(self):
        sim = Simulator()
        network = SimNetwork(sim, latency=ConstantLatency(delay=0.001))
        cluster = SimCluster(
            sim, network, lambda nid, peers: EchoNode(nid), n_replicas=3
        )
        assert cluster.addresses == ["r0", "r1", "r2"]
        assert all(isinstance(n, EchoNode) for n in cluster.nodes())
        assert all(n.started == 1 for n in cluster.nodes())

    def test_crash_and_alive_tracking(self):
        sim = Simulator()
        network = SimNetwork(sim, latency=ConstantLatency(delay=0.001))
        cluster = SimCluster(
            sim, network, lambda nid, peers: EchoNode(nid), n_replicas=3
        )
        cluster.crash("r1")
        assert cluster.alive() == ["r0", "r2"]
        cluster.recover("r1")
        assert cluster.alive() == ["r0", "r1", "r2"]

    def test_scheduled_failures(self):
        sim = Simulator()
        network = SimNetwork(sim, latency=ConstantLatency(delay=0.001))
        cluster = SimCluster(
            sim, network, lambda nid, peers: EchoNode(nid), n_replicas=3
        )
        schedule = FailureSchedule(
            [
                FailureEvent(1.0, "crash", "r0"),
                FailureEvent(2.0, "recover", "r0"),
            ]
        )
        schedule.install(cluster)
        sim.run(until=1.5)
        assert cluster.alive() == ["r1", "r2"]
        sim.run(until=2.5)
        assert cluster.alive() == ["r0", "r1", "r2"]

    def test_failure_schedule_builder_sorts(self):
        schedule = FailureSchedule().recover(2.0, "a").crash(1.0, "a")
        assert [e.action for e in schedule.events] == ["crash", "recover"]
        assert len(schedule) == 2
