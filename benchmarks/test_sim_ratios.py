"""Machine-independent ratios of two simulated runs: scale-out and
degradation under a partition.

Each test runs the same closed loop twice in the deterministic simulator
(seed 0, virtual time), changing exactly one thing, and asserts a bound
on the ratio of the two throughputs — so the result depends on the
protocol, not on the speed of the machine running it.

* **Sharding scales.**  The Zipf-keyed loop over a 2-group ring against
  the same loop on one group must be at least 1.6× as fast.
* **A partition degrades gracefully.**  The read-heavy loop with one
  replica cut away from the majority for the middle half of the steady
  state must keep at least a quarter of its fault-free throughput.
"""

from dataclasses import replace

from repro.bench.calibration import crdt_paxos_config, paper_latency, service_model_for
from repro.nemesis import NemesisSchedule, Partition
from repro.net.faults import FaultPlan
from repro.net.latency import LogNormalLatency
from repro.sim.process import ServiceModel
from repro.workload.runner import run_workload
from repro.workload.sharded import run_sharded_workload
from repro.workload.spec import WorkloadSpec

#: Two groups must serve at least this multiple of one group's ops/s.
MIN_SHARDED_SPEEDUP = 1.6

#: The partitioned run must keep at least this share of fault-free ops/s.
MIN_PARTITION_RETENTION = 0.25


def test_two_groups_outrun_one():
    """The comparison must run CPU-bound, or it measures nothing: a
    closed loop whose per-op latency is dominated by link RTTs (or the
    keyed coalesce window's 2 ms floor) scales with client count on a
    single group forever, and sharding shows a speedup of ~1.0
    regardless of server capacity.  So both sides run with near-zero
    link latency, the coalesce window off and a deliberately heavy
    per-message :class:`ServiceModel` — identical spec, seed, latency
    and service model, so the ratio isolates one group's worth of
    replica CPU versus two."""
    spec = WorkloadSpec(
        n_clients=32,
        read_ratio=0.5,
        duration=1.2,
        warmup=0.4,
        client_timeout=2.0,
        n_keys=5_000,
        key_skew=0.8,
    )
    config = crdt_paxos_config()
    config.keyed_max_resident = 512
    config.keyed_coalesce_window = 0.0
    common = dict(
        seed=0,
        latency=LogNormalLatency(median=20e-6, sigma=0.25, per_byte=8e-10),
        service_model=ServiceModel(base=150e-6, per_byte=1.5e-9, per_send=30e-6),
        crdt_config=config,
    )
    single = run_workload("crdt-paxos", spec, **common).throughput().median
    sharded = run_sharded_workload(spec, groups=("g0", "g1"), **common)
    speedup = sharded.throughput().median / single
    assert speedup >= MIN_SHARDED_SPEEDUP, (
        f"two groups are only {speedup:.2f}× one group "
        f"(need ≥ {MIN_SHARDED_SPEEDUP}×)"
    )


def test_partition_keeps_a_quarter_of_the_throughput():
    """The config arms the machinery the partition exercises: a short
    ``request_timeout`` plus ``redrive_limit`` so the minority replica
    answers ``Refused(code="quorum")`` after its bounded re-drive budget
    (~0.14 s, well inside the partition window), and the closed-loop
    clients fail over on the refusal instead of burning
    ``client_timeout`` on silence."""
    spec = WorkloadSpec(
        n_clients=32,
        read_ratio=0.9,
        duration=1.2,
        warmup=0.4,
        client_timeout=2.0,
    )
    common = dict(
        seed=0,
        latency=paper_latency(),
        service_model=service_model_for("crdt-paxos"),
        crdt_config=replace(crdt_paxos_config(), request_timeout=0.02, redrive_limit=2),
    )
    fault_free = run_workload("crdt-paxos", spec, **common)

    steady = spec.duration - spec.warmup
    heal = spec.warmup + 0.75 * steady
    schedule = NemesisSchedule(
        "partition_majority",
        [
            Partition(
                start=spec.warmup + 0.25 * steady,
                until=heal,
                side_a=frozenset({"r0"}),
                side_b=frozenset({"r1", "r2"}),
            )
        ],
    )
    plan = FaultPlan()
    schedule.install_sim(plan)  # link-only: the runner builds the cluster
    partitioned = run_workload("crdt-paxos", spec, faults=plan, **common)
    assert partitioned.client_timeouts > 0, (
        "the partition never bit (no refusal/timeout fail-overs); "
        "the retention figure would be meaningless"
    )
    assert any(record.completed_at >= heal for record in partitioned.records), (
        "no operation completed after the heal"
    )
    retention = partitioned.throughput().median / fault_free.throughput().median
    assert retention >= MIN_PARTITION_RETENTION, (
        f"the partitioned run kept only {retention:.2f} of its fault-free "
        f"throughput (need ≥ {MIN_PARTITION_RETENTION})"
    )
