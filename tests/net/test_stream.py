"""ISSUE-9 smoke: the framed TCP transport.

Tier-1 coverage for the production wire path: a keyed CRDT-Paxos cluster
on real loopback sockets (one event loop, three
:class:`~repro.net.stream.StreamNodeServer` instances) serving an update
and a linearizable read.  Skips cleanly where the sandbox forbids
sockets — the simulator suites cover the protocol itself; this only pins
that the socket plumbing carries it (the multi-process cluster is
covered by ``test_process_nemesis.py`` and ``perf/test_perf_smoke.py``).
"""

import asyncio

import pytest

from repro.core.config import CrdtPaxosConfig
from repro.core.keyspace import Keyed, KeyedCrdtReplica
from repro.core.messages import ClientQuery, ClientUpdate, QueryDone, UpdateDone
from repro.crdt.gcounter import GCounter, GCounterValue, Increment
from repro.nemesis.process import sockets_available
from repro.net.stream import StreamClient, StreamNodeServer

pytestmark = pytest.mark.skipif(
    not sockets_available(),
    reason="loopback sockets unavailable in this sandbox",
)

HOST = "127.0.0.1"
NAMES = ["r0", "r1", "r2"]


async def start_cluster() -> tuple[dict[str, StreamNodeServer], dict[str, int]]:
    """Three keyed replicas behind ephemeral-port servers on one loop.

    Ports are unknown until ``start()`` binds them, so peers are filled
    in afterwards — ``StreamNodeServer`` dials lazily, never at start.
    """
    servers = {
        nid: StreamNodeServer(
            KeyedCrdtReplica(
                nid, list(NAMES), lambda key: GCounter.initial(), CrdtPaxosConfig()
            ),
            HOST,
            0,
        )
        for nid in NAMES
    }
    for server in servers.values():
        await server.start()
    ports = {nid: server.port for nid, server in servers.items()}
    for nid, server in servers.items():
        server.peers = {p: (HOST, ports[p]) for p in NAMES if p != nid}
    return servers, ports


async def _update_then_read() -> None:
    servers, ports = await start_cluster()
    client = StreamClient("c0", {nid: (HOST, port) for nid, port in ports.items()})
    try:
        reply = await client.request(
            "r0",
            Keyed(key="counter", message=ClientUpdate("c0/u1", Increment(5))),
            timeout=10.0,
        )
        assert isinstance(reply, Keyed) and isinstance(reply.message, UpdateDone)

        # Linearizable read through a *different* replica: the answer
        # must include the update just acknowledged, which forces real
        # MERGE/MERGED traffic across the sockets.
        reply = await client.request(
            "r1",
            Keyed(key="counter", message=ClientQuery("c0/q1", GCounterValue())),
            timeout=10.0,
        )
        assert isinstance(reply.message, QueryDone)
        assert reply.message.result == 5

        stats = await client.transport_stats("r0")
        assert stats.node == "r0"
        assert stats.messages_sent > 0 and stats.bytes_sent > 0
        assert stats.messages_received > 0 and stats.bytes_received > 0
    finally:
        await client.close()
        for server in servers.values():
            await server.close()


def test_socket_cluster_serves_a_linearizable_read():
    asyncio.run(_update_then_read())
