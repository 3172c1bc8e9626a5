"""Experiment runner: build a cluster, drive clients, collect results.

``run_workload`` is the single entry point used by every benchmark figure
and by integration tests.  It is deterministic for a given seed — the
simulator, the network, the protocols' randomized timers and the clients'
operation mixes all draw from seed-derived streams.

PR 3 made the runner speak the same surface as :mod:`repro.api`: the
workload is expressed as typed CRDT operations (selected by
``spec.crdt_type``), compiled per protocol by the op adapters, and — when
``spec.n_keys`` is set — addressed to the fine-granular keyed deployment
(:class:`~repro.core.keyspace.KeyedCrdtReplica`) with Zipf key
popularity, so the e2e metrics cover the shape the keyed store
optimizes.  ``record_histories=True`` additionally captures per-key
operation histories ready for the lattice-linearizability checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Hashable

from repro.baselines.common import IntCounter
from repro.baselines.gla import GlaConfig, GlaNode
from repro.baselines.multipaxos import MultiPaxosConfig, MultiPaxosNode
from repro.baselines.raft import RaftConfig, RaftNode
from repro.checker.history import History
from repro.core import CrdtPaxosConfig, CrdtPaxosReplica
from repro.core.keyspace import KeyedCrdtReplica
from repro.errors import ConfigurationError
from repro.net.faults import FaultPlan
from repro.net.latency import LatencyModel, LogNormalLatency
from repro.net.sim_transport import SimNetwork
from repro.runtime.cluster import SimCluster
from repro.runtime.failures import FailureSchedule
from repro.sim.kernel import Simulator
from repro.sim.process import ServiceModel
from repro.stats.summary import MedianCI, median_with_ci, percentile
from repro.stats.timeseries import WindowedPercentile, WindowedThroughput
from repro.workload.adapters import CrdtPaxosOpAdapter, OpAdapter, RsmOpAdapter
from repro.workload.clients import ClosedLoopClient, HistoryTap, OpRecord, Recorder
from repro.workload.profiles import OpProfile, profile_for
from repro.workload.sampler import ZipfKeySampler
from repro.workload.spec import WorkloadSpec

#: Canonical protocol names understood by :func:`run_workload`.
PROTOCOLS = (
    "crdt-paxos",
    "crdt-paxos-batching",
    "multi-paxos",
    "raft",
    "gla",
)

#: Spelling variants accepted and normalized (``crdtpaxos``,
#: ``crdt_paxos``, ... → ``crdt-paxos``): every canonical name with its
#: dashes dropped or swapped for underscores.
_ALIASES = {
    canonical.replace("-", separator): canonical
    for canonical in PROTOCOLS
    for separator in ("", "_")
}


def canonical_protocol(protocol: str) -> str:
    """Normalize a protocol spelling to its canonical dashed name."""
    name = protocol.strip().lower()
    return _ALIASES.get(name, name)


@dataclass
class RunResult:
    """Everything a figure needs from one run."""

    protocol: str
    spec: WorkloadSpec
    records: list[OpRecord]
    client_timeouts: int
    bytes_by_type: dict[str, int]
    count_by_type: dict[str, int]
    proposer_stats: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Keyed runs only: per-replica eviction/rehydration/residency counts.
    keyed_stats: dict[str, dict[str, int]] = field(default_factory=dict)
    #: ``record_histories=True`` runs only: checkable operation histories,
    #: one per key (keyed runs) or a single entry keyed ``None``.
    histories: dict[Hashable, History] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def _steady(self, kind: str | None = None) -> list[OpRecord]:
        return [
            record
            for record in self.records
            if record.completed_at >= self.spec.warmup
            and (kind is None or record.kind == kind)
        ]

    def throughput(self, window: float = 1.0) -> MedianCI:
        """Median requests/second over fixed windows (paper methodology:
        1 s aggregation).  For runs whose steady-state interval is shorter
        than a few windows the window shrinks so at least four fit —
        otherwise short CI runs would report nothing.
        """
        steady_span = self.spec.duration - self.spec.warmup
        effective = max(min(window, steady_span / 4), 1e-3)
        windows = WindowedThroughput(window=effective)
        for record in self._steady():
            windows.add(record.completed_at)
        rates = windows.rates(start=self.spec.warmup, end=self.spec.duration)
        if not rates:
            return MedianCI(0.0, 0.0, 0.0, 0.99)
        return median_with_ci(rates, confidence=0.99)

    def latency_percentile(self, kind: str, p: float = 95.0) -> float | None:
        """The p-th percentile latency of steady-state ``kind`` requests."""
        latencies = [record.latency for record in self._steady(kind)]
        if not latencies:
            return None
        return percentile(latencies, p)

    def latency_timeline(
        self, kind: str, p: float = 95.0, window: float = 10.0
    ) -> list[tuple[float, float | None]]:
        """Windowed latency percentile over elapsed time (Figure 4)."""
        series = WindowedPercentile(window=window)
        for record in self.records:
            if record.kind == kind:
                series.add(record.completed_at, record.latency)
        return series.series(p, start=0.0, end=self.spec.duration)

    def read_round_trips(self) -> list[int]:
        """Round trips of every steady-state read (Figure 3's sample)."""
        return [record.round_trips for record in self._steady("read")]

    def round_trip_cdf(self, max_rt: int = 15) -> list[tuple[int, float]]:
        """Cumulative percentage of reads completing within k round trips."""
        round_trips = self.read_round_trips()
        if not round_trips:
            return []
        total = len(round_trips)
        cdf = []
        for k in range(0, max_rt + 1):
            within = sum(1 for rt in round_trips if rt <= k)
            cdf.append((k, 100.0 * within / total))
        return cdf

    def completed_ops(self) -> int:
        return len(self._steady())

    def distinct_keys_touched(self) -> int:
        """How many distinct keys completed at least one operation."""
        return len({r.key for r in self.records if r.key is not None})


# ----------------------------------------------------------------------
def _build_protocol(
    protocol: str,
    spec: WorkloadSpec,
    profile: OpProfile,
    sim: Simulator,
    crdt_config: CrdtPaxosConfig | None,
    raft_config: RaftConfig | None,
    multipaxos_config: MultiPaxosConfig | None,
    gla_config: GlaConfig | None,
    spill_store_factory: Any = None,
) -> tuple[Any, OpAdapter]:
    """Return (replica factory, client adapter) for a protocol name."""
    if protocol in ("crdt-paxos", "crdt-paxos-batching"):
        config = crdt_config or CrdtPaxosConfig()
        if protocol == "crdt-paxos-batching":
            config.batching = True

        if spec.keyed:

            def factory(node_id: str, peers: list[str]) -> KeyedCrdtReplica:
                spill_store = (
                    spill_store_factory(node_id)
                    if spill_store_factory is not None
                    else None
                )
                return KeyedCrdtReplica(
                    node_id,
                    peers,
                    lambda key: profile.initial_state(),
                    config,
                    spill_store=spill_store,
                )

        else:

            def factory(node_id: str, peers: list[str]) -> CrdtPaxosReplica:
                return CrdtPaxosReplica(
                    node_id, peers, profile.initial_state(), config
                )

        return factory, CrdtPaxosOpAdapter()

    # The log-based baselines replicate one integer counter and have no
    # keyed deployment; reject anything the dialect cannot express.
    if protocol in ("raft", "multi-paxos", "gla"):
        if spec.keyed:
            raise ConfigurationError(
                f"protocol {protocol!r} has no keyed deployment; "
                "n_keys requires crdt-paxos"
            )
        if spec.crdt_type != "g-counter":
            raise ConfigurationError(
                f"protocol {protocol!r} only replicates a counter; "
                f"crdt_type {spec.crdt_type!r} requires crdt-paxos"
            )

    if protocol == "raft":
        config = raft_config or RaftConfig()

        def factory(node_id: str, peers: list[str]) -> RaftNode:
            return RaftNode(
                node_id,
                peers,
                IntCounter(),
                config,
                rng=sim.rng.stream(f"raft:{node_id}"),
            )

        return factory, RsmOpAdapter()

    if protocol == "multi-paxos":
        config = multipaxos_config or MultiPaxosConfig()

        def factory(node_id: str, peers: list[str]) -> MultiPaxosNode:
            return MultiPaxosNode(
                node_id,
                peers,
                IntCounter(),
                config,
                rng=sim.rng.stream(f"multipaxos:{node_id}"),
            )

        return factory, RsmOpAdapter()

    if protocol == "gla":
        config = gla_config or GlaConfig()

        def factory(node_id: str, peers: list[str]) -> GlaNode:
            return GlaNode(node_id, peers, IntCounter, config)

        return factory, RsmOpAdapter()

    raise ConfigurationError(
        f"unknown protocol {protocol!r}; known: {', '.join(PROTOCOLS)}"
    )


def run_workload(
    protocol: str,
    spec: WorkloadSpec,
    *,
    seed: int = 0,
    n_replicas: int = 3,
    latency: LatencyModel | None = None,
    faults: FaultPlan | None = None,
    service_model: ServiceModel | None = None,
    failure_schedule: FailureSchedule | None = None,
    fifo_links: bool = True,
    record_histories: bool = False,
    crdt_config: CrdtPaxosConfig | None = None,
    raft_config: RaftConfig | None = None,
    multipaxos_config: MultiPaxosConfig | None = None,
    gla_config: GlaConfig | None = None,
    spill_store_factory: Any = None,
) -> RunResult:
    """Run one benchmark configuration end to end and return its result.

    ``fifo_links`` defaults to True: the paper's test bed spoke Erlang
    distribution over TCP, which never reorders one link's messages.
    Protocol-correctness tests use reordering networks instead.

    ``record_histories`` (CRDT Paxos only) switches reads to the
    profile's identity query, installs the profile's inclusion tagger,
    and returns per-key :class:`~repro.checker.history.History` objects
    in ``RunResult.histories`` — ready for
    :func:`repro.checker.lattice_linearizability.check_all`.

    ``spill_store_factory`` (keyed CRDT Paxos only): ``node_id →
    SpillStore`` builder attaching a frozen-record spill tier to every
    replica, enabling ``crdt_config.keyed_max_frozen`` — the deployment
    shape where RAM holds only the hot keys and the rest of the keyspace
    lives in storage.
    """
    protocol = canonical_protocol(protocol)
    profile = profile_for(spec.crdt_type, increment_amount=spec.increment_amount)

    if spill_store_factory is not None and (
        protocol not in ("crdt-paxos", "crdt-paxos-batching") or not spec.keyed
    ):
        raise ConfigurationError(
            "spill_store_factory requires a keyed CRDT Paxos deployment "
            "(crdt-paxos protocol with spec.n_keys set); it would be "
            "silently ignored here"
        )

    history_tap: HistoryTap | None = None
    if record_histories:
        if protocol not in ("crdt-paxos", "crdt-paxos-batching"):
            raise ConfigurationError(
                "record_histories requires a CRDT Paxos protocol"
            )
        history_tap = HistoryTap()
        tagger = profile.inclusion_tagger()
        if tagger is not None:
            base = crdt_config or CrdtPaxosConfig()
            crdt_config = replace(base, inclusion_tagger=tagger)

    sim = Simulator(seed=seed)
    network = SimNetwork(
        sim,
        latency=latency or LogNormalLatency(),
        faults=faults,
        fifo_links=fifo_links,
    )
    factory, adapter = _build_protocol(
        protocol,
        spec,
        profile,
        sim,
        crdt_config,
        raft_config,
        multipaxos_config,
        gla_config,
        spill_store_factory,
    )
    cluster = SimCluster(
        sim, network, factory, n_replicas=n_replicas, service_model=service_model
    )
    if failure_schedule is not None:
        failure_schedule.install(cluster)

    key_sampler = None
    if spec.keyed:
        assert spec.n_keys is not None
        key_sampler = ZipfKeySampler(spec.n_keys, spec.key_skew, seed=seed)

    recorder = Recorder()
    clients = []
    for index in range(spec.n_clients):
        client = ClosedLoopClient(
            sim=sim,
            network=network,
            address=f"c{index}",
            replicas=list(cluster.addresses),
            home_replica=index,
            adapter=adapter,
            profile=profile,
            recorder=recorder,
            rng=sim.rng.stream(f"client:{index}"),
            read_ratio=spec.read_ratio,
            stop_time=spec.duration,
            client_timeout=spec.client_timeout,
            key_sampler=key_sampler,
            history_tap=history_tap,
        )
        clients.append(client)
        client.start()

    sim.run(until=spec.duration)

    proposer_stats: dict[str, dict[str, int]] = {}
    keyed_stats: dict[str, dict[str, int]] = {}
    for address in cluster.addresses:
        node = cluster.node(address)
        if isinstance(node, CrdtPaxosReplica):
            proposer_stats[address] = node.proposer.stats.snapshot()
        elif isinstance(node, KeyedCrdtReplica):
            proposer_stats[address] = node.stats.snapshot()
            keyed_stats[address] = {
                "resident": node.resident_count(),
                "frozen": node.frozen_count(),
                "spilled": node.spilled_count(),
                "evictions": node.evictions,
                "rehydrations": node.rehydrations,
                "spills": node.spills,
                "spill_loads": node.spill_loads,
                "write_through_persists": node.write_through_persists,
                "group_commits": node.group_commits,
                "group_commit_acks": node.group_commit_acks,
                "rejoin_refreshes": node.rejoin_refreshes,
                "evict_scan_ops": node.evict_scan_ops,
            }

    return RunResult(
        protocol=protocol,
        spec=spec,
        records=recorder.records,
        client_timeouts=recorder.timeouts,
        bytes_by_type=dict(network.stats.bytes_by_type),
        count_by_type=dict(network.stats.count_by_type),
        proposer_stats=proposer_stats,
        keyed_stats=keyed_stats,
        histories=history_tap.histories if history_tap is not None else {},
    )
