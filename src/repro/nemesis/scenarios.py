"""Named nemesis scenarios: composed fault schedules with a registry.

Each builder takes the replica id list and returns a
:class:`~repro.nemesis.schedule.NemesisSchedule` on a ~one-unit-per-act
timeline (seconds on the sim path; the explorer driver rescales).  They
are compositions, not primitives — ``flapping_link`` is several short
partitions plus a loss burst, ``disk_brownout`` staggers IO-fault
windows so quorums always include a healthy disk, and so on.  All of
them heal: :meth:`NemesisSchedule.heal_time` is finite, and every
campaign asserts the system resumes service after it with no manual
intervention.

Use :func:`scenario` to build one by name, :data:`SCENARIOS` to iterate
all of them (the scenario sweep tests do).
"""

from __future__ import annotations

from typing import Callable

from repro.nemesis.schedule import (
    Crash,
    DelaySpike,
    DuplicationBurst,
    HardKill,
    IoFault,
    LossBurst,
    NemesisSchedule,
    Partition,
)


def partition_majority(replicas: list[str]) -> NemesisSchedule:
    """Cut one replica away from the connected majority for a while.

    The majority side keeps a quorum and must keep committing; clients
    homed on the minority replica see bounded-time ``QuorumUnavailable``
    refusals (its re-drives exhaust) and fail over.  After the heal the
    minority catches up via normal re-drives — no rejoin needed, its
    state was never lost.
    """
    minority = frozenset(replicas[:1])
    majority = frozenset(replicas[1:])
    return NemesisSchedule(
        "partition_majority",
        [Partition(start=1.0, until=3.0, side_a=minority, side_b=majority)],
    )


def flapping_link(replicas: list[str]) -> NemesisSchedule:
    """One link flaps: short cuts, loss between them, a one-way episode.

    The nastiest schedule for backoff logic — a fixed retry timer either
    hammers the dead link or sits out the healthy windows; jittered
    exponential backoff with reset-on-progress must ride through.
    """
    a, b = frozenset(replicas[:1]), frozenset(replicas[1:2])
    events = [
        Partition(start=0.5, until=1.0, side_a=a, side_b=b),
        LossBurst(start=1.0, until=1.5, probability=0.4, src=a, dst=b),
        Partition(start=1.5, until=2.0, side_a=a, side_b=b, symmetric=False),
        LossBurst(start=2.0, until=2.5, probability=0.4, src=a, dst=b),
        Partition(start=2.5, until=3.0, side_a=a, side_b=b),
    ]
    return NemesisSchedule("flapping_link", events)


def rolling_hard_kill(replicas: list[str]) -> NemesisSchedule:
    """kill -9 every replica in turn, one at a time, rejoin between.

    Staggered so each victim's rejoin has a healthy quorum to refresh
    from before the next kill lands.  Requires durable spill stores
    (``durability="write_through"``) — each generation restarts from
    whatever its policy persisted.
    """
    return NemesisSchedule(
        "rolling_hard_kill",
        [
            HardKill(at=1.0 + i, replica=replica)
            for i, replica in enumerate(replicas)
        ],
    )


def disk_brownout(replicas: list[str]) -> NemesisSchedule:
    """Staggered spill-store IO-fault windows across the cluster.

    While a replica's disk is browned out, every ``write_through``
    persist fails; the replica must *refuse* the affected acks (clients
    see ``Refused(code="storage")`` and retry elsewhere) and resume by
    itself when the window closes.  Windows are staggered so a healthy
    write quorum always exists.
    """
    events: list = [
        IoFault(start=1.0 + 0.5 * i, until=1.5 + 0.5 * i, replica=replica)
        for i, replica in enumerate(replicas)
    ]
    return NemesisSchedule("disk_brownout", events)


def kill_during_rejoin(replicas: list[str]) -> NemesisSchedule:
    """Hard-kill a second replica while the first is still rejoining.

    The second kill lands immediately after the first victim restarts,
    so its read-quorum refreshes race the second victim's death — the
    quorum available to each rejoin shrinks to the bare majority.  (The
    explorer-side campaign uses the predicate-triggered
    :class:`~repro.nemesis.campaign.KillDuringRejoin` driver instead,
    which watches the rejoin state rather than trusting timing.)
    """
    return NemesisSchedule(
        "kill_during_rejoin",
        [
            HardKill(at=1.0, replica=replicas[1 % len(replicas)]),
            HardKill(at=1.02, replica=replicas[2 % len(replicas)]),
        ],
    )


def delay_storm(replicas: list[str]) -> NemesisSchedule:
    """Cluster-wide delay spikes with duplication — no loss at all.

    Reordering and duplication without drops: the pure §2.1 asynchrony
    adversary.  Exercises stale-reply discipline (request ids) and the
    idempotence of re-driven merges.
    """
    everyone = frozenset(replicas)
    return NemesisSchedule(
        "delay_storm",
        [
            DelaySpike(
                start=0.5, until=2.5, extra_delay=0.05, jitter=0.1,
                src=everyone, dst=everyone,
            ),
            DuplicationBurst(
                start=0.5, until=2.5, probability=0.3,
                src=everyone, dst=everyone,
            ),
        ],
    )


def crash_quorum_edge(replicas: list[str]) -> NemesisSchedule:
    """Crash a minority (pause, state intact) right at the quorum edge.

    With ``2f+1`` replicas, ``f`` sleep through the window; the rest
    must keep serving with the bare quorum, and the sleepers' timers are
    lost — on recovery their re-drives restart from backoff zero.
    """
    f = (len(replicas) - 1) // 2
    return NemesisSchedule(
        "crash_quorum_edge",
        [
            Crash(at=1.0, replica=replica, recover_at=2.5)
            for replica in replicas[:f]
        ],
    )


#: Name → builder registry; the sweep campaigns iterate this.
SCENARIOS: dict[str, Callable[[list[str]], NemesisSchedule]] = {
    "partition_majority": partition_majority,
    "flapping_link": flapping_link,
    "rolling_hard_kill": rolling_hard_kill,
    "disk_brownout": disk_brownout,
    "kill_during_rejoin": kill_during_rejoin,
    "delay_storm": delay_storm,
    "crash_quorum_edge": crash_quorum_edge,
}


def scenario(name: str, replicas: list[str]) -> NemesisSchedule:
    """Build the named scenario for this replica set."""
    try:
        builder = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None
    return builder(replicas)
