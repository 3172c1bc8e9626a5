"""Adversarial kill -9 campaigns: no shutdown hook, only durability.

Unlike the restart campaigns (``spill_all`` runs before the kill), here
the victim gets *nothing*: mid-traffic — possibly mid-compaction, with
puts the sync tick has not flushed yet — the process dies.
Only what the durability policy already persisted survives, the store
itself crashes too (a SegmentedSpillStore directory is reopened the way
a fresh process would; a VolatileSpillStore drops its unflushed buffer,
the power-loss model), and the fresh node *rejoins*: every recovered
key's ``(payload, round)`` pair is refreshed from a read quorum (a §3.3
prepare) before the key serves traffic.

Safety must hold anyway, and for the same §3.1 reason as everywhere
else: a completed update is durable at a *quorum*, and under
``write_through`` every certifying ack the victim ever emitted rested
on flushed state — so the read quorum the rejoin intersects cannot
have lost anything a certificate was built on.

Operations open at the victim when it died may never complete (their
clients crash-observed the kill), so no ``all_complete`` assertion.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checker.lattice_linearizability import check_all
from repro.checker.scheduler import KeyedInterleavingExplorer
from repro.core.config import CrdtPaxosConfig
from repro.storage import InMemorySpillStore, SegmentedSpillStore, VolatileSpillStore

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Tiny segments + a tiny floor so incremental compaction is routinely
#: in progress when the kill lands — the reopen then replays a directory
#: with a half-drained victim and duplicate frames (last-wins).
_SEGMENT_KW = dict(
    segment_bytes=4096, compaction_step_bytes=1024, compact_floor_bytes=2048
)


def _segment_factory(tmp_path):
    counter = {"n": 0}

    def factory():
        counter["n"] += 1
        return SegmentedSpillStore(tmp_path / f"store{counter['n']}", **_SEGMENT_KW)

    return factory


def _segment_reopen(replica_id, store):
    store.close()
    return SegmentedSpillStore(store.directory, **_SEGMENT_KW)


def _volatile_factory():
    return VolatileSpillStore(InMemorySpillStore())


# ----------------------------------------------------------------------
# Campaign A: write_through + reopened segmented store (process kill)
# ----------------------------------------------------------------------
@_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n_ops=st.integers(15, 45),
    read_fraction=st.floats(0.2, 0.8),
    kill_at=st.integers(3, 25),
)
def test_hard_kill_write_through_segmented_campaign(
    tmp_path_factory, seed, n_ops, read_fraction, kill_at
):
    tmp_path = tmp_path_factory.mktemp("wt")
    explorer = KeyedInterleavingExplorer(
        seed=seed,
        n_keys=4,
        config=CrdtPaxosConfig(
            keyed_max_resident=2, keyed_max_frozen=1, durability="write_through"
        ),
        spill_factory=_segment_factory(tmp_path),
        spill_reopen=_segment_reopen,
    )
    report = explorer.run(
        n_ops=n_ops,
        read_fraction=read_fraction,
        hard_kill_at_injection=min(kill_at, n_ops - 1),
    )
    assert report.hard_kills == 1
    for history in report.histories.values():
        check_all(history)


@_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n_ops=st.integers(15, 35),
    read_fraction=st.floats(0.3, 0.7),
)
def test_hard_kill_gla_stability_campaign(
    tmp_path_factory, seed, n_ops, read_fraction
):
    """§3.4 across a kill -9: the learned maximum is part of the
    write-through triple and the learn sequence resumes from the leased
    counter watermark, so learns at the rejoined node stay monotone with
    its previous life even though the process never shut down cleanly."""
    tmp_path = tmp_path_factory.mktemp("gla")
    explorer = KeyedInterleavingExplorer(
        seed=seed,
        n_keys=4,
        config=CrdtPaxosConfig(
            keyed_max_resident=2,
            keyed_max_frozen=1,
            durability="write_through",
            gla_stability=True,
        ),
        spill_factory=_segment_factory(tmp_path),
        spill_reopen=_segment_reopen,
    )
    report = explorer.run(
        n_ops=n_ops, read_fraction=read_fraction, hard_kill_at_injection=n_ops // 2
    )
    for history in report.histories.values():
        check_all(history, expect_gla_stability=True)


# ----------------------------------------------------------------------
# Campaign B: write_through + volatile buffer (power loss between
# fsyncs).  The adversary fires the sync tick whenever it likes, so the
# kill can land between a put and the flush that would have covered it.
# ----------------------------------------------------------------------
_POWER_LOSS_CONFIG = CrdtPaxosConfig(
    keyed_max_resident=2, keyed_max_frozen=1, durability="write_through"
)


@_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n_ops=st.integers(15, 45),
    read_fraction=st.floats(0.2, 0.8),
    kill_at=st.integers(3, 25),
)
def test_hard_kill_write_through_power_loss_campaign(
    seed, n_ops, read_fraction, kill_at
):
    """The kill drops whatever the group commit had not flushed — safe,
    because the acks certifying that state were parked behind the same
    flush and died with the process, unseen."""
    explorer = KeyedInterleavingExplorer(
        seed=seed,
        n_keys=4,
        config=_POWER_LOSS_CONFIG,
        spill_factory=_volatile_factory,
    )
    report = explorer.run(
        n_ops=n_ops,
        read_fraction=read_fraction,
        hard_kill_at_injection=min(kill_at, n_ops - 1),
    )
    assert report.hard_kills == 1
    for history in report.histories.values():
        check_all(history)


@_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n_ops=st.integers(15, 35),
    duplicate=st.floats(0.0, 0.2),
)
def test_hard_kill_with_duplicating_network_campaign(seed, n_ops, duplicate):
    """Stale duplicates from before the kill arrive at the rejoined
    generation; leased counters (never reused across the kill) and the
    rejoin gate must keep them harmless."""
    explorer = KeyedInterleavingExplorer(
        seed=seed,
        n_keys=4,
        config=_POWER_LOSS_CONFIG,
        spill_factory=_volatile_factory,
    )
    report = explorer.run(
        n_ops=n_ops,
        read_fraction=0.5,
        duplicate_probability=duplicate,
        hard_kill_at_injection=n_ops // 2,
    )
    for history in report.histories.values():
        check_all(history)


# ----------------------------------------------------------------------
# Exercised-ness: the campaigns really kill, persist, rejoin and compact
# ----------------------------------------------------------------------
def test_hard_kill_write_through_is_exercised(tmp_path):
    """Vacuity guard for campaign A: kills happen, write-through really
    persists before acks escape, rejoins really refresh keys from a
    quorum, and the tiny segments really compact (so some kills land
    with a compaction victim half-drained on disk)."""
    kills = rejoins = persists = compactions = steps = 0
    for seed in range(15):
        explorer = KeyedInterleavingExplorer(
            seed=seed,
            n_keys=4,
            config=CrdtPaxosConfig(
                keyed_max_resident=2,
                keyed_max_frozen=1,
                durability="write_through",
            ),
            spill_factory=_segment_factory(tmp_path / f"s{seed}"),
            spill_reopen=_segment_reopen,
        )
        report = explorer.run(n_ops=40, read_fraction=0.4, hard_kill_at_injection=12)
        kills += report.hard_kills
        rejoins += report.rejoin_refreshes
        persists += report.write_through_persists
        for store in explorer.spill_stores.values():
            compactions += store.compactions
            steps += store.compaction_steps
        # Durable state survived the kill without any spill_all.
        assert any(len(store) > 0 for store in explorer.spill_stores.values())
    assert kills == 15
    assert rejoins > 0
    assert persists > 0
    assert compactions > 0
    # Incremental: compactions take multiple bounded steps, so kills can
    # land between them.
    assert steps > compactions


def test_hard_kill_write_through_power_loss_is_exercised():
    """Vacuity guard for campaign B: group commits actually batch (more
    persists than flushes), the volatile stores actually crash, and some
    crashes actually discard unflushed writes."""
    kills = rejoins = persists = commits = acks = crashes = dropped = 0
    for seed in range(15):
        explorer = KeyedInterleavingExplorer(
            seed=seed,
            n_keys=4,
            config=_POWER_LOSS_CONFIG,
            spill_factory=_volatile_factory,
        )
        report = explorer.run(n_ops=40, read_fraction=0.4, hard_kill_at_injection=12)
        kills += report.hard_kills
        rejoins += report.rejoin_refreshes
        persists += report.write_through_persists
        commits += report.group_commits
        acks += report.group_commit_acks
        for store in explorer.spill_stores.values():
            crashes += store.crashes
            dropped += store.dropped_writes
    assert kills == 15
    assert rejoins > 0
    assert persists > 0
    assert 0 < commits < persists  # batching: many persists per fsync
    assert acks > 0  # the flushes really released parked acks
    assert crashes == 15  # exactly the killed replica's buffer dropped
    # Kills really landed between a put and its covering flush.
    assert dropped > 0


def test_hard_kill_requires_spill_factory():
    explorer = KeyedInterleavingExplorer(seed=0, n_keys=2)
    with pytest.raises(ValueError, match="hard_kill_at_injection"):
        explorer.run(n_ops=10, hard_kill_at_injection=5)
