"""Adversarial kill/restart campaigns over the spill store.

Mid-run, one replica persists its durable snapshot (``spill_all`` — the
shutdown hook), dies, and is rebuilt purely from the spill store via
``KeyedCrdtReplica.recover`` while protocol traffic is still in flight.
Per-key lattice linearizability must hold *across* the restart: an
update that completed before the kill is durable at a quorum that
includes the victim's spilled pair, so no later learn may miss it.

Operations open at the victim when it died may never complete (their
clients observed a crash), so these campaigns check every completed
operation without asserting ``all_complete``.

A second family keeps ``request_timeout`` alive under the adversary
(``keep_timeouts=True``) so update-timeout re-drives race deliveries,
eviction churn and restarts in arbitrary order.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checker.lattice_linearizability import check_all
from repro.checker.scheduler import KeyedInterleavingExplorer
from repro.core.config import CrdtPaxosConfig
from repro.storage import InMemorySpillStore

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Kill/restart recovery
# ----------------------------------------------------------------------
@_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n_ops=st.integers(12, 40),
    read_fraction=st.floats(0.2, 0.8),
    restart_at=st.integers(3, 20),
)
def test_restart_recovery_campaign(seed, n_ops, read_fraction, restart_at):
    explorer = KeyedInterleavingExplorer(
        seed=seed,
        n_keys=4,
        config=CrdtPaxosConfig(keyed_max_resident=2, keyed_max_frozen=1),
        spill_factory=InMemorySpillStore,
    )
    report = explorer.run(
        n_ops=n_ops,
        read_fraction=read_fraction,
        restart_at_injection=min(restart_at, n_ops - 1),
    )
    for history in report.histories.values():
        check_all(history)


@_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n_ops=st.integers(12, 30),
    duplicate=st.floats(0.0, 0.2),
)
def test_restart_with_duplicating_network_campaign(seed, n_ops, duplicate):
    """Stale duplicates from before the restart must not confuse the
    recovered generation (monotone counters restored from meta)."""
    explorer = KeyedInterleavingExplorer(
        seed=seed,
        n_keys=4,
        config=CrdtPaxosConfig(keyed_max_resident=2, keyed_max_frozen=1),
        spill_factory=InMemorySpillStore,
    )
    report = explorer.run(
        n_ops=n_ops,
        read_fraction=0.5,
        duplicate_probability=duplicate,
        restart_at_injection=n_ops // 2,
    )
    for history in report.histories.values():
        check_all(history)


@_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n_ops=st.integers(12, 30),
    read_fraction=st.floats(0.3, 0.7),
)
def test_restart_gla_stability_campaign(seed, n_ops, read_fraction):
    """§3.4 across a restart: the learned maximum rides the spilled
    record and the learn sequence resumes from the persisted counter, so
    learns at the recovered node stay monotone with its previous life."""
    explorer = KeyedInterleavingExplorer(
        seed=seed,
        n_keys=4,
        config=CrdtPaxosConfig(
            keyed_max_resident=2, keyed_max_frozen=1, gla_stability=True
        ),
        spill_factory=InMemorySpillStore,
    )
    report = explorer.run(
        n_ops=n_ops,
        read_fraction=read_fraction,
        restart_at_injection=n_ops // 2,
    )
    for history in report.histories.values():
        check_all(history, expect_gla_stability=True)


@_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n_ops=st.integers(15, 35),
)
def test_restart_under_armed_sync_timer_campaign(seed, n_ops):
    """Write-through durability parks certifying acks behind the sync
    tick, and the adversary may kill the victim while that timer is
    armed — spill_all must release the parked acks so nothing is
    stranded."""
    explorer = KeyedInterleavingExplorer(
        seed=seed,
        n_keys=4,
        config=CrdtPaxosConfig(
            keyed_max_resident=2,
            keyed_max_frozen=1,
            durability="write_through",
        ),
        spill_factory=InMemorySpillStore,
    )
    report = explorer.run(
        n_ops=n_ops, read_fraction=0.5, restart_at_injection=n_ops // 2
    )
    for history in report.histories.values():
        check_all(history)


@_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n_ops=st.integers(15, 30),
    drop=st.floats(0.0, 0.15),
)
def test_restart_with_loss_redrives_and_spill_campaign(seed, n_ops, drop):
    """The harshest composition: lossy links, live request timeouts
    (adversarially fired re-drives), spill churn AND a mid-run
    kill/restart — safety must hold through all of it at once."""
    explorer = KeyedInterleavingExplorer(
        seed=seed,
        n_keys=4,
        config=CrdtPaxosConfig(
            keyed_max_resident=2,
            keyed_max_frozen=1,
            request_timeout=0.05,
        ),
        spill_factory=InMemorySpillStore,
        keep_timeouts=True,
    )
    report = explorer.run(
        n_ops=n_ops,
        read_fraction=0.5,
        drop_probability=drop,
        restart_at_injection=n_ops // 2,
    )
    assert report.restarts == 1
    for history in report.histories.values():
        check_all(history)


def test_restart_and_spill_are_exercised():
    """The campaigns are vacuous unless replicas actually restart,
    records actually spill, and recovered keys actually reload."""
    restarts = spills = spill_loads = 0
    for seed in range(15):
        explorer = KeyedInterleavingExplorer(
            seed=seed,
            n_keys=4,
            config=CrdtPaxosConfig(keyed_max_resident=2, keyed_max_frozen=1),
            spill_factory=InMemorySpillStore,
        )
        report = explorer.run(n_ops=30, read_fraction=0.4, restart_at_injection=10)
        restarts += report.restarts
        spills += report.spills
        spill_loads += report.spill_loads
        # The restarted replica's store holds its snapshot.
        assert any(len(store) > 0 for store in explorer.spill_stores.values())
    assert restarts == 15
    assert spills > 0
    assert spill_loads > 0


# ----------------------------------------------------------------------
# Adversarial re-drives (keep_timeouts)
# ----------------------------------------------------------------------
@_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n_ops=st.integers(10, 30),
    read_fraction=st.floats(0.1, 0.9),
)
def test_redrives_race_deliveries_campaign(seed, n_ops, read_fraction):
    explorer = KeyedInterleavingExplorer(
        seed=seed,
        n_keys=4,
        config=CrdtPaxosConfig(keyed_max_resident=2, request_timeout=0.05),
        keep_timeouts=True,
    )
    report = explorer.run(n_ops=n_ops, read_fraction=read_fraction)
    for history in report.histories.values():
        check_all(history)
    assert report.all_complete


def test_redrives_actually_fire():
    """Meaningfulness check: across seeds, the adversary really does
    fire update/query timeouts, so the campaign above re-drives."""
    timeouts = 0
    for seed in range(25):
        explorer = KeyedInterleavingExplorer(
            seed=seed,
            n_keys=3,
            config=CrdtPaxosConfig(keyed_max_resident=2, request_timeout=0.05),
            keep_timeouts=True,
        )
        report = explorer.run(n_ops=25, read_fraction=0.2)
        timeouts += report.timeouts
    assert timeouts > 0
