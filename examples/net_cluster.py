#!/usr/bin/env python3
"""Four OS processes, one replicated counter, real sockets, one SIGKILL.

Everything the other examples do in one process, this one does across
real process boundaries: three replica processes (each a keyed
CRDT-Paxos replica behind a framed TCP socket — :mod:`repro.net.stream`,
the :mod:`repro.wire` binary codec on every frame, a durable spill store
on disk) and this parent process as a plain socket client.

Act one — ten increments land on one replica; the linearizable read is
served by a *different* replica, so the answer can only be right if real
MERGE/MERGED coordination crossed the wire.

Act two — the nemesis: ``kill -9`` the replica that took the writes.
The client fails over (dead connections are rejected fail-fast, not
timed out) and keeps incrementing through the outage.  Then the victim
cold-restarts over its spill directory — ``recover(rejoin=True)``, the
paper's log-less §3.3 recovery — and answers a linearizable read that
includes every increment it missed while dead.

Run:  python examples/net_cluster.py
(The demo skips itself cleanly where sandboxes forbid loopback sockets.)
"""

import asyncio
import sys
import time

from repro.core.keyspace import Keyed
from repro.core.messages import ClientQuery, ClientUpdate, QueryDone, UpdateDone
from repro.crdt.gcounter import GCounterValue, Increment
from repro.nemesis import ProcessCluster
from repro.nemesis.process import sockets_available
from repro.net.stream import StreamClient


async def _increment(client: StreamClient, request_id: str) -> None:
    reply = await client.request_any(
        Keyed(key="hits", message=ClientUpdate(request_id, Increment(1))),
        timeout=10.0,
    )
    assert isinstance(reply.message, UpdateDone), reply


async def _read_hits(client: StreamClient, replica: str, request_id: str) -> int:
    reply = await client.request(
        replica,
        Keyed(key="hits", message=ClientQuery(request_id, GCounterValue())),
        timeout=15.0,
    )
    assert isinstance(reply.message, QueryDone), reply
    return reply.message.result


async def drive(cluster: ProcessCluster) -> None:
    client = StreamClient("demo", cluster.placements, preferred="r0")
    try:
        # Act one: ten increments at r0, linearizable read at r1.
        for i in range(10):
            await _increment(client, f"demo/u{i}")
        hits = await _read_hits(client, "r1", "demo/q0")
        assert hits == 10, hits
        print(f"linearizable read over real sockets: hits = {hits}")

        stats = await client.transport_stats("r0")
        print(
            f"replica r0 socket traffic: {stats.messages_sent} frames / "
            f"{stats.bytes_sent} bytes sent, {stats.messages_received} "
            f"frames received"
        )

        # Act two: kill -9 the replica that took every write.
        cluster.kill("r0")
        for i in range(10, 15):
            await _increment(client, f"demo/u{i}")
        print(
            f"SIGKILL r0: fail-over kept 5 increments flowing "
            f"(failovers = {client.failovers})"
        )

        # Cold restart over the spill directory: stored keys refresh
        # from a read quorum (§3.3 prepare) before r0 serves again.
        await asyncio.to_thread(cluster.restart, "r0")
        hits = await _read_hits(client, "r0", "demo/q1")
        assert hits == 15, hits
        print(
            f"restarted r0 answered the linearizable read: hits = {hits} "
            f"(including 5 it missed while dead)"
        )
    finally:
        await client.close()


def main() -> int:
    if not sockets_available():
        print("net_cluster demo skipped: loopback sockets unavailable")
        return 0
    cluster = ProcessCluster(n_replicas=3, state="gcounter", durable=True)
    try:
        cluster.start()
        started = time.perf_counter()
        asyncio.run(drive(cluster))
        elapsed = time.perf_counter() - started
        print(f"four processes, one counter, {elapsed * 1e3:.0f} ms: OK")
    finally:
        cluster.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
