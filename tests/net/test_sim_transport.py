"""Unit tests for the simulated network fabric."""

import pytest

from repro.errors import TransportError
from repro.net.faults import FaultPlan
from repro.net.latency import ConstantLatency
from repro.net.sim_transport import CallbackEndpoint, SimNetwork
from repro.sim.kernel import Simulator


def make_network(**kwargs):
    sim = Simulator(seed=1)
    network = SimNetwork(sim, latency=ConstantLatency(delay=0.001), **kwargs)
    return sim, network


def test_delivery_after_latency():
    sim, network = make_network()
    received = []
    network.register("b", CallbackEndpoint(lambda env: received.append((sim.now, env))))
    network.send("a", "b", "hello")
    sim.run()
    assert len(received) == 1
    time, envelope = received[0]
    assert time == pytest.approx(0.001)
    assert envelope.src == "a" and envelope.dst == "b"
    assert envelope.payload == "hello"


def test_send_to_unknown_address_is_dropped():
    sim, network = make_network()
    network.send("a", "ghost", "x")
    sim.run()
    assert network.stats.messages_dropped == 1
    assert network.stats.messages_delivered == 0


def test_duplicate_registration_rejected():
    _, network = make_network()
    network.register("a", CallbackEndpoint(lambda env: None))
    with pytest.raises(TransportError):
        network.register("a", CallbackEndpoint(lambda env: None))


def test_unregister_then_reregister():
    sim, network = make_network()
    network.register("a", CallbackEndpoint(lambda env: None))
    network.unregister("a")
    network.register("a", CallbackEndpoint(lambda env: None))
    assert network.addresses() == ["a"]


def test_loss_faults_drop_messages():
    sim = Simulator(seed=2)
    network = SimNetwork(
        sim,
        latency=ConstantLatency(delay=0.001),
        faults=FaultPlan(loss_probability=0.5),
    )
    received = []
    network.register("b", CallbackEndpoint(received.append))
    for _ in range(400):
        network.send("a", "b", "x")
    sim.run()
    assert 100 < len(received) < 300
    assert network.stats.messages_dropped == 400 - len(received)


def test_duplication_delivers_twice():
    sim = Simulator(seed=3)
    network = SimNetwork(
        sim,
        latency=ConstantLatency(delay=0.001),
        faults=FaultPlan(duplicate_probability=0.99),
    )
    received = []
    network.register("b", CallbackEndpoint(received.append))
    network.send("a", "b", "x")
    sim.run()
    assert len(received) == 2


def test_stats_by_type():
    sim, network = make_network()
    network.register("b", CallbackEndpoint(lambda env: None))
    network.send("a", "b", "payload")
    network.send("a", "b", 42)
    sim.run()
    assert network.stats.count_by_type["str"] == 1
    assert network.stats.count_by_type["int"] == 1
    assert network.stats.mean_bytes("int") > 0
    assert network.stats.mean_bytes("missing") == 0.0


def test_unregistered_at_delivery_time_is_dropped():
    sim, network = make_network()
    network.register("b", CallbackEndpoint(lambda env: None))
    network.send("a", "b", "x")
    network.unregister("b")
    sim.run()
    assert network.stats.messages_dropped == 1


class CountingSizes:
    """Counts how often the wire codec sizes a payload."""

    def __init__(self, monkeypatch):
        import repro.net.message as message

        self.calls = 0
        real = message.wire_size

        def counting(obj):
            self.calls += 1
            return real(obj)

        monkeypatch.setattr(message, "wire_size", counting)


def test_broadcast_sizes_its_payload_once(monkeypatch):
    sim, network = make_network()
    received = []
    for peer in ("b", "c", "d"):
        network.register(peer, CallbackEndpoint(received.append))
    sizes = CountingSizes(monkeypatch)
    payload = ("merge", 12345)
    for peer in ("b", "c", "d"):
        network.send("a", peer, payload)
    sim.run()
    assert sizes.calls == 1
    assert sorted(env.dst for env in received) == ["b", "c", "d"]
    assert all(env.src == "a" for env in received)
    assert len({env.size_bytes() for env in received}) == 1
    assert network.stats.bytes_by_type["tuple"] == 3 * received[0].size_bytes()


def test_same_payload_in_a_later_step_is_sized_again(monkeypatch):
    sim, network = make_network()
    received = []
    network.register("b", CallbackEndpoint(received.append))
    sizes = CountingSizes(monkeypatch)
    payload = ["grows"]
    network.send("a", "b", payload)
    sim.run()
    payload.append("between steps")
    sim.schedule(0.0, network.send, "a", "b", payload)
    sim.run()
    assert sizes.calls == 2
    first, second = (env.size_bytes() for env in received)
    assert second > first
    assert network.stats.bytes_by_type["list"] == first + second


def test_distinct_payloads_are_sized_separately(monkeypatch):
    sim, network = make_network()
    network.register("b", CallbackEndpoint(lambda env: None))
    sizes = CountingSizes(monkeypatch)
    network.send("a", "b", ["x", 1])
    network.send("a", "b", ["x", 1])
    assert sizes.calls == 2
