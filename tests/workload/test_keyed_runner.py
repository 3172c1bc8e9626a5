"""The keyed workload path end to end: Zipf sampling, the keyed
closed-loop runner, checkable histories, and the op adapters."""

import random

import pytest

from repro.checker.lattice_linearizability import check_all
from repro.core import CrdtPaxosConfig
from repro.errors import ConfigurationError
from repro.crdt.gcounter import GCounterValue, Increment
from repro.workload import (
    CrdtPaxosOpAdapter,
    RsmOpAdapter,
    WorkloadSpec,
    ZipfKeySampler,
    canonical_protocol,
    profile_for,
    run_workload,
)

#: Small but real: 10k keys at the acceptance skew, short closed loop.
KEYED_SPEC = WorkloadSpec(
    n_clients=4,
    read_ratio=0.5,
    duration=0.25,
    warmup=0.05,
    client_timeout=1.0,
    n_keys=10_000,
    key_skew=1.1,
)


class TestZipfSampler:
    def test_uniform_when_skew_zero(self):
        sampler = ZipfKeySampler(100, 0.0, seed=1)
        rng = random.Random(2)
        draws = {sampler.sample(rng) for _ in range(2000)}
        assert len(draws) > 80  # almost every key shows up

    def test_skew_concentrates_on_hot_keys(self):
        sampler = ZipfKeySampler(1000, 1.1, seed=1)
        rng = random.Random(3)
        counts: dict[str, int] = {}
        for _ in range(5000):
            key = sampler.sample(rng)
            counts[key] = counts.get(key, 0) + 1
        hottest = max(counts.values()) / 5000
        assert hottest > 0.05  # uniform would give ~0.001

    def test_hottest_matches_observed_popularity(self):
        sampler = ZipfKeySampler(50, 1.2, seed=7)
        rng = random.Random(4)
        counts: dict[str, int] = {}
        for _ in range(20_000):
            key = sampler.sample(rng)
            counts[key] = counts.get(key, 0) + 1
        assert max(counts, key=counts.get) == sampler.hottest(1)[0]

    def test_deterministic_per_seed(self):
        a, b = ZipfKeySampler(100, 1.0, seed=5), ZipfKeySampler(100, 1.0, seed=5)
        rng_a, rng_b = random.Random(6), random.Random(6)
        assert [a.sample(rng_a) for _ in range(50)] == [
            b.sample(rng_b) for _ in range(50)
        ]

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            ZipfKeySampler(0)
        with pytest.raises(ValueError):
            ZipfKeySampler(10, -0.5)


class TestSpecValidation:
    def test_keyed_flag(self):
        assert KEYED_SPEC.keyed
        assert not WorkloadSpec(n_clients=1, read_ratio=0.5, duration=1.0).keyed

    def test_invalid_keyed_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(n_clients=1, read_ratio=0.5, duration=1.0, n_keys=0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(n_clients=1, read_ratio=0.5, duration=1.0, key_skew=-1)
        with pytest.raises(ConfigurationError):
            # Skew without a keyspace is meaningless.
            WorkloadSpec(n_clients=1, read_ratio=0.5, duration=1.0, key_skew=1.0)

    def test_unknown_crdt_type_rejected_by_runner(self):
        spec = WorkloadSpec(
            n_clients=1, read_ratio=0.5, duration=0.1, warmup=0.0, crdt_type="bogus"
        )
        with pytest.raises(ConfigurationError):
            run_workload("crdt-paxos", spec)


class TestProtocolAliases:
    def test_acceptance_spelling(self):
        assert canonical_protocol("crdtpaxos") == "crdt-paxos"

    @pytest.mark.parametrize(
        "alias,canonical",
        [
            ("crdt_paxos", "crdt-paxos"),
            ("CRDT-Paxos", "crdt-paxos"),
            ("multipaxos", "multi-paxos"),
            ("crdtpaxosbatching", "crdt-paxos-batching"),
            ("raft", "raft"),
        ],
    )
    def test_aliases(self, alias, canonical):
        assert canonical_protocol(alias) == canonical


class TestKeyedRunner:
    def test_keyed_zipf_run_is_lattice_linearizable(self):
        """The PR's acceptance shape: ``crdtpaxos`` + n_keys=10_000 +
        key_skew=1.1, per-key read results through the checker."""
        result = run_workload(
            "crdtpaxos", KEYED_SPEC, seed=3, record_histories=True
        )
        assert result.protocol == "crdt-paxos"
        assert result.completed_ops() > 0
        assert result.distinct_keys_touched() > 10
        assert result.histories
        for history in result.histories.values():
            check_all(history)

    def test_eviction_churn_under_closed_loop_load(self):
        config = CrdtPaxosConfig(keyed_max_resident=32)
        result = run_workload(
            "crdt-paxos",
            KEYED_SPEC,
            seed=4,
            crdt_config=config,
            record_histories=True,
        )
        evictions = sum(s["evictions"] for s in result.keyed_stats.values())
        rehydrations = sum(s["rehydrations"] for s in result.keyed_stats.values())
        assert evictions > 0 and rehydrations > 0
        for history in result.histories.values():
            check_all(history)

    def test_keyed_records_carry_keys(self):
        result = run_workload("crdt-paxos", KEYED_SPEC, seed=6)
        assert result.records
        assert all(r.key is not None for r in result.records)

    def test_zipf_skew_shows_in_completed_ops(self):
        result = run_workload("crdt-paxos", KEYED_SPEC, seed=7)
        counts: dict[str, int] = {}
        for record in result.records:
            counts[record.key] = counts.get(record.key, 0) + 1
        assert max(counts.values()) / len(result.records) > 0.02

    def test_keyed_run_is_deterministic(self):
        a = run_workload("crdt-paxos", KEYED_SPEC, seed=9)
        b = run_workload("crdt-paxos", KEYED_SPEC, seed=9)
        assert len(a.records) == len(b.records)
        assert [r.key for r in a.records[:100]] == [r.key for r in b.records[:100]]

    def test_rsm_protocols_reject_keyed_specs(self):
        for protocol in ("raft", "multi-paxos", "gla"):
            with pytest.raises(ConfigurationError):
                run_workload(protocol, KEYED_SPEC, seed=1)

    def test_rsm_protocols_reject_non_counter_profiles(self):
        spec = WorkloadSpec(
            n_clients=2, read_ratio=0.5, duration=0.2, warmup=0.0, crdt_type="or-set"
        )
        with pytest.raises(ConfigurationError):
            run_workload("raft", spec, seed=1)

    def test_orset_profile_runs_unkeyed(self):
        spec = WorkloadSpec(
            n_clients=4, read_ratio=0.5, duration=0.3, warmup=0.1, crdt_type="or-set"
        )
        result = run_workload("crdt-paxos", spec, seed=2)
        assert result.completed_ops() > 0
        reads = [r for r in result.records if r.kind == "read"]
        assert reads

    def test_unkeyed_histories_use_single_entry(self):
        spec = WorkloadSpec(
            n_clients=2, read_ratio=0.5, duration=0.2, warmup=0.05
        )
        result = run_workload("crdt-paxos", spec, seed=8, record_histories=True)
        assert set(result.histories) == {None}
        check_all(result.histories[None])

    def test_record_histories_rejected_for_rsm(self):
        spec = WorkloadSpec(n_clients=2, read_ratio=0.5, duration=0.2, warmup=0.0)
        with pytest.raises(ConfigurationError):
            run_workload("raft", spec, record_histories=True)


class TestAdapters:
    def test_crdt_paxos_op_adapter_counter_messages(self):
        adapter = CrdtPaxosOpAdapter()
        update = adapter.update_message("u1", Increment(3))
        assert update.op.amount == 3
        assert adapter.parse_reply("noise") is None

    def test_rsm_op_adapter_counter_messages(self):
        adapter = RsmOpAdapter()
        assert adapter.update_message("u1", Increment(2)).command == ("incr", 2)
        assert adapter.query_message("q1", GCounterValue()).command == ("read",)

    def test_profile_for_unknown_type(self):
        with pytest.raises(ConfigurationError):
            profile_for("no-such-crdt")


def test_spill_factory_rejected_for_non_spill_capable_deployments():
    """spill_store_factory must fail fast where it would be ignored."""
    import pytest

    from repro.errors import ConfigurationError
    from repro.storage import InMemorySpillStore
    from repro.workload.runner import run_workload
    from repro.workload.spec import WorkloadSpec

    unkeyed = WorkloadSpec(n_clients=1, read_ratio=0.5, duration=0.1, warmup=0.0)
    with pytest.raises(ConfigurationError):
        run_workload(
            "crdt-paxos",
            unkeyed,
            spill_store_factory=lambda nid: InMemorySpillStore(),
        )
    with pytest.raises(ConfigurationError):
        run_workload(
            "raft",
            unkeyed,
            spill_store_factory=lambda nid: InMemorySpillStore(),
        )
