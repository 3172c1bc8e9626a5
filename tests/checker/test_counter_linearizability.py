"""Counter-linearizability checks, unit level and against live protocols.

The cross-protocol campaign is the repository's strongest apples-to-apples
correctness statement: the same recorded client history type is validated
for CRDT Paxos, Multi-Paxos, Raft and GLA.
"""

import pytest

from repro.checker.counter_linearizability import (
    CounterHistory,
    check_counter_linearizable,
)
from repro.crdt.gcounter import GCounterValue, Increment
from repro.errors import HistoryViolation
from repro.net.latency import ConstantLatency
from repro.net.sim_transport import SimNetwork
from repro.runtime.cluster import ClientEndpoint, SimCluster
from repro.sim.kernel import Simulator
from repro.workload.adapters import CrdtPaxosOpAdapter, OpAdapter, RsmOpAdapter


class TestUnitChecks:
    def make_history(self):
        history = CounterHistory()
        increment = history.begin_increment("u1", 5, now=1.0)
        increment.completed_at = 2.0
        return history

    def test_read_within_window_accepted(self):
        history = self.make_history()
        read = history.begin_read("q1", now=3.0)
        read.completed_at = 4.0
        read.result = 5
        check_counter_linearizable(history)

    def test_stale_read_detected(self):
        history = self.make_history()
        read = history.begin_read("q1", now=3.0)  # after u1 completed
        read.completed_at = 4.0
        read.result = 0  # missed the completed increment
        with pytest.raises(HistoryViolation, match="window"):
            check_counter_linearizable(history)

    def test_phantom_read_detected(self):
        history = self.make_history()
        read = history.begin_read("q1", now=3.0)
        read.completed_at = 4.0
        read.result = 12  # more than was ever submitted
        with pytest.raises(HistoryViolation, match="window"):
            check_counter_linearizable(history)

    def test_concurrent_increment_optional(self):
        history = CounterHistory()
        history.begin_increment("u1", 3, now=1.0)  # never completes
        read = history.begin_read("q1", now=2.0)
        read.completed_at = 3.0
        for result in (0, 3):  # both linearizable
            read.result = result
            check_counter_linearizable(history)

    def test_non_monotone_reads_detected(self):
        history = self.make_history()
        first = history.begin_read("q1", now=3.0)
        first.completed_at = 4.0
        first.result = 5
        second = history.begin_read("q2", now=5.0)
        second.completed_at = 6.0
        second.result = 5
        check_counter_linearizable(history)
        # A later read may not go backward even within its own window.
        later_inc = history.begin_increment("u2", 1, now=6.5)
        later_inc.completed_at = 7.0
        third = history.begin_read("q3", now=8.0)
        third.completed_at = 9.0
        third.result = 6
        check_counter_linearizable(history)

    def test_read_without_result_rejected(self):
        history = CounterHistory()
        read = history.begin_read("q1", now=1.0)
        read.completed_at = 2.0
        with pytest.raises(HistoryViolation, match="without a result"):
            check_counter_linearizable(history)


class _RecordingCounterClient:
    """Drives one protocol via its adapter and stamps a CounterHistory."""

    def __init__(self, sim, network, address, adapter: OpAdapter, history):
        self._sim = sim
        self._adapter = adapter
        self._history = history
        self._endpoint = ClientEndpoint(sim, network, address, self._on_reply)
        self._open = {}
        self._counter = 0
        self.address = address

    def increment(self, replica: str, amount: int = 1) -> None:
        self._counter += 1
        op_id = f"{self.address}#u{self._counter}"
        self._open[op_id] = self._history.begin_increment(
            op_id, amount, self._sim.now
        )
        message = self._adapter.update_message(op_id, Increment(amount))
        self._endpoint.send(replica, message)

    def read(self, replica: str) -> None:
        self._counter += 1
        op_id = f"{self.address}#q{self._counter}"
        self._open[op_id] = self._history.begin_read(op_id, self._sim.now)
        message = self._adapter.query_message(op_id, GCounterValue())
        self._endpoint.send(replica, message)

    def _on_reply(self, src, message) -> None:
        parsed = self._adapter.parse_reply(message)
        if parsed is None:
            return
        op = self._open.pop(parsed.request_id, None)
        if op is None:
            return
        op.completed_at = self._sim.now
        if parsed.kind == "read":
            op.result = parsed.result


def _build_cluster(protocol: str, sim, network):
    if protocol == "crdt-paxos":
        from repro.core import CrdtPaxosReplica
        from repro.crdt.gcounter import GCounter

        factory = lambda nid, peers: CrdtPaxosReplica(  # noqa: E731
            nid, peers, GCounter.initial()
        )
        adapter: OpAdapter = CrdtPaxosOpAdapter()
    elif protocol == "raft":
        from repro.baselines.common import IntCounter
        from repro.baselines.raft import RaftConfig, RaftNode

        factory = lambda nid, peers: RaftNode(  # noqa: E731
            nid, peers, IntCounter(), RaftConfig(), rng=sim.rng.stream(f"r:{nid}")
        )
        adapter = RsmOpAdapter()
    elif protocol == "multi-paxos":
        from repro.baselines.common import IntCounter
        from repro.baselines.multipaxos import MultiPaxosConfig, MultiPaxosNode

        factory = lambda nid, peers: MultiPaxosNode(  # noqa: E731
            nid, peers, IntCounter(), MultiPaxosConfig(), rng=sim.rng.stream(f"m:{nid}")
        )
        adapter = RsmOpAdapter()
    else:  # gla
        from repro.baselines.common import IntCounter
        from repro.baselines.gla import GlaNode

        factory = lambda nid, peers: GlaNode(nid, peers, IntCounter)  # noqa: E731
        adapter = RsmOpAdapter()
    cluster = SimCluster(sim, network, factory, n_replicas=3)
    return cluster, adapter


@pytest.mark.parametrize("protocol", ["crdt-paxos", "raft", "multi-paxos", "gla"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_protocol_counter_histories_linearize(protocol, seed):
    sim = Simulator(seed=seed)
    network = SimNetwork(sim, latency=ConstantLatency(delay=1e-3))
    cluster, adapter = _build_cluster(protocol, sim, network)
    history = CounterHistory()
    clients = [
        _RecordingCounterClient(sim, network, f"c{i}", adapter, history)
        for i in range(3)
    ]
    rng = sim.rng.stream("driver")

    sim.run(until=1.0)  # leader election for the baselines
    # Interleave increments and reads from three concurrent clients with
    # random think times so operations genuinely overlap.
    for step in range(40):
        client = clients[step % 3]
        replica = f"r{rng.randrange(3)}"
        if rng.random() < 0.5:
            client.increment(replica)
        else:
            client.read(replica)
        sim.run(until=sim.now + rng.uniform(0.0, 0.004))
    sim.run(until=sim.now + 3.0)

    completed = [op for op in history.ops if op.complete]
    assert len(completed) >= 30, f"only {len(completed)} ops completed"
    check_counter_linearizable(history)
