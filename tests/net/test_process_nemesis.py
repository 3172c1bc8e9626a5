"""ISSUE-10: the process-level nemesis on real sockets.

The socket-rig counterpart of the simulator's nemesis campaigns: one OS
process per replica, SIGKILL mid-traffic, cold restart over the spill
store with ``recover(rejoin=True)``, and checker-grade acceptance — the
restarted replica must answer a linearizable read containing an op it
missed while dead.  Plus garbage-byte injection into a live
replica-to-replica stream: the connection is recycled, the protocol is
unharmed.

Everything spawns processes and binds loopback sockets, so the module
uses the established skip pattern.
"""

import asyncio

import pytest

from repro.core.keyspace import Keyed
from repro.core.messages import ClientQuery, ClientUpdate, QueryDone, UpdateDone
from repro.crdt.gset import Elements, GSetAdd
from repro.nemesis import ProcessCluster, run_kill_campaign
from repro.nemesis.process import sockets_available
from repro.net.stream import StreamClient

pytestmark = pytest.mark.skipif(
    not sockets_available(),
    reason="loopback sockets unavailable in this sandbox",
)


def _start_cluster(**kwargs) -> ProcessCluster:
    cluster = ProcessCluster(**kwargs)
    try:
        cluster.start()
    except (OSError, PermissionError, TimeoutError):
        cluster.stop()
        pytest.skip("process spawning unavailable in this sandbox")
    return cluster


def test_kill_minus_nine_rejoin_linearizable_read():
    """The ISSUE-10 acceptance cycle: SIGKILL a replica process while
    clients are writing, keep the closed loop flowing by fail-over,
    cold-restart the victim over its spill directory, and make the
    *restarted* process answer a linearizable read that includes the
    marker op committed while it was dead."""
    cluster = _start_cluster(n_replicas=3, durable=True)
    try:
        report = asyncio.run(
            run_kill_campaign(cluster, ops=30, kill_after=10, restart_after=20)
        )
    finally:
        cluster.stop()

    assert report.ops_total == 30
    # Fail-over carried traffic through the outage — the kill was not
    # scheduled into dead air.
    assert report.ops_during_outage > 0
    assert report.failovers >= 1
    # The linearizable acceptance read at the restarted victim saw the
    # marker op it missed: log-less recovery + §3.3 rejoin refresh.
    assert report.missed_op_visible
    assert report.recovery_seconds > 0.0
    # Exercised-ness: the SIGKILL reset established connections, so at
    # least one survivor dropped a dead stream and redialed the victim.
    assert report.victim_stats is not None
    survivors = report.survivor_stats
    assert len(survivors) == 2
    assert any(stats.connections_dropped >= 1 for stats in survivors)
    assert any(stats.redials >= 1 for stats in survivors)


def test_garbage_injection_recycles_connection_protocol_unharmed():
    """Garbage bytes into a live replica→replica stream poison exactly
    one connection.  The receiver counts the decode error, tears the
    connection down, the sender redials — and the replicated state
    machine keeps acknowledging (and not losing) updates."""
    cluster = _start_cluster(n_replicas=3, durable=False)

    async def scenario():
        client = StreamClient("c0", cluster.placements)
        elements = set()
        try:
            # Prime r0→r1 with real merge traffic.
            reply = await client.request(
                "r0",
                Keyed(key="k", message=ClientUpdate("c0/u0", GSetAdd("seed"))),
                timeout=10.0,
            )
            assert isinstance(reply.message, UpdateDone)
            elements.add("seed")

            done = await client.inject_garbage("r0", "r1", timeout=10.0)
            assert done.injected, "no live r0→r1 stream to poison"

            # The receiver notices the desync and drops the connection.
            deadline = asyncio.get_running_loop().time() + 5.0
            while asyncio.get_running_loop().time() < deadline:
                stats = await client.transport_stats("r1")
                if stats.frame_decode_errors >= 1:
                    break
                await asyncio.sleep(0.05)
            assert stats.frame_decode_errors >= 1
            assert stats.connections_dropped >= 1

            # Protocol unharmed: updates through the sender still commit
            # (its merge quorum needs a recycled or surviving link) …
            for i in range(1, 5):
                reply = await client.request(
                    "r0",
                    Keyed(
                        key="k",
                        message=ClientUpdate(f"c0/u{i}", GSetAdd(f"e{i}")),
                    ),
                    timeout=10.0,
                )
                assert isinstance(reply.message, UpdateDone)
                elements.add(f"e{i}")

            # … and a linearizable read *through the poisoned receiver*
            # sees every acknowledged element.
            reply = await client.request(
                "r1",
                Keyed(key="k", message=ClientQuery("c0/q0", Elements())),
                timeout=10.0,
            )
            assert isinstance(reply.message, QueryDone)
            assert elements <= set(reply.message.result)
        finally:
            await client.close()

    try:
        asyncio.run(scenario())
    finally:
        cluster.stop()


def test_restart_without_durability_is_refused():
    """A non-durable replica has no post-kill identity: restart must
    fail loudly instead of silently resurrecting an amnesiac acceptor
    (which could re-grant promises and break the §3.3 invariants)."""
    cluster = ProcessCluster(n_replicas=3, durable=False)
    with pytest.raises(ValueError, match="durable"):
        cluster.restart("r0")
