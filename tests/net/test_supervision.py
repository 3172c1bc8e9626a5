"""ISSUE-10: connection supervision on the framed TCP transport.

Regression coverage for the socket stack's fault handling: fail-fast
pending-future rejection when a client's connection dies, backoff-gated redial
instead of a tight retry loop against a dead peer, dead-stream eviction,
bounded drop-oldest outboxes, strict wire mode, and the transport fault
counters behind :class:`~repro.net.control.NetStats`.

Tests that dial real loopback sockets use the established skip pattern;
the supervisor-logic tests monkeypatch the dialer and run on a bare
event loop, so they hold even in socketless sandboxes.
"""

import asyncio
import time

import pytest

from repro.bench import netbench
from repro.core.config import CrdtPaxosConfig
from repro.core.keyspace import Keyed, KeyedCrdtReplica
from repro.core.messages import ClientUpdate, UpdateDone
from repro.crdt.gcounter import GCounter, Increment
from repro.errors import SerializationError, TransportError
from repro.net import stream as stream_mod
from repro.net.stream import (
    StreamClient,
    StreamNodeServer,
    SupervisionPolicy,
)

HOST = "127.0.0.1"

needs_sockets = pytest.mark.skipif(
    not netbench.sockets_available(),
    reason="loopback sockets unavailable in this sandbox",
)


class _IdleNode:
    """Minimal sans-io node: never sends, never arms timers."""

    def __init__(self, node_id="n0"):
        self.node_id = node_id

    def on_start(self, now):
        from repro.net.node import Effects

        return Effects()

    def on_message(self, src, message, now):
        from repro.net.node import Effects

        return Effects()

    def on_timer(self, key, now):
        from repro.net.node import Effects

        return Effects()


# ----------------------------------------------------------------------
# Supervisor logic (no real sockets: the dialer is monkeypatched)
# ----------------------------------------------------------------------
def test_dial_failure_is_backoff_gated_not_tight_looped(monkeypatch):
    """Regression: a burst of sends to an unreachable peer used to retry
    the dial once per queued message with no delay.  Under supervision
    the attempts must be gated by the exponential backoff window."""
    attempts = []

    async def refusing_dial(host, port, owner, strict=False, limit=0):
        attempts.append(time.perf_counter())
        raise ConnectionRefusedError("nobody home")

    monkeypatch.setattr(stream_mod, "open_stream", refusing_dial)

    async def scenario():
        server = StreamNodeServer(
            _IdleNode(),
            HOST,
            0,
            peers={"dead": (HOST, 1)},
            policy=SupervisionPolicy(
                redial_base=0.05, redial_multiplier=2.0, redial_cap=1.0
            ),
        )
        for i in range(20):
            server._send("dead", ("msg", i))
        await asyncio.sleep(0.3)
        await server.close()
        return server

    server = asyncio.run(scenario())
    # Tight-loop behaviour would burn ~20 attempts instantly; backoff
    # (50ms, 100ms, 200ms, ...) allows at most a handful in 300ms.
    assert 1 <= len(attempts) <= 6, attempts
    health = server.link_health()["dead"]
    assert health["connected"] is False
    assert health["failures"] == len(attempts)


def test_send_failure_evicts_dead_stream_and_redials(monkeypatch):
    """A cached outbound stream whose connection dies must be evicted
    (not poisoned forever) and the next message must redial.  Sends only
    queue, so the death is reported the way a transport reports it: the
    stream tells its owner ``stream_lost``."""

    class FlakyStream:
        def __init__(self, owner):
            self.owner = owner
            self.sends = 0

        def send_frame(self, frame):
            self.sends += 1
            if self.sends > 1:
                self.owner.stream_lost(self, ConnectionResetError("peer died"))
            return 0

        def close(self):
            pass

    dials = []

    async def dialer(host, port, owner, strict=False, limit=0):
        stream = FlakyStream(owner)
        dials.append(stream)
        return stream

    monkeypatch.setattr(stream_mod, "open_stream", dialer)

    async def scenario():
        server = StreamNodeServer(
            _IdleNode(),
            HOST,
            0,
            peers={"peer": (HOST, 1)},
            policy=SupervisionPolicy(redial_base=0.01),
        )
        server._send("peer", "first")   # dial #1, send ok
        await asyncio.sleep(0.05)
        server._send("peer", "second")  # link dies: evict + arm backoff
        await asyncio.sleep(0.05)
        server._send("peer", "third")   # must redial (dial #2)
        await asyncio.sleep(0.1)
        await server.close()
        return server

    server = asyncio.run(scenario())
    assert len(dials) == 2, "dead stream was not evicted and redialed"
    assert server.connections_dropped == 1
    assert server.redials == 1
    assert server.backoff_resets >= 1  # the successful redial reset it


def test_outbox_is_bounded_with_drop_oldest_accounting(monkeypatch):
    """An unreachable-but-addressed peer must not grow memory without
    bound: beyond the limit the oldest message is shed and counted."""

    async def refusing_dial(host, port, owner, strict=False, limit=0):
        raise ConnectionRefusedError("nobody home")

    monkeypatch.setattr(stream_mod, "open_stream", refusing_dial)

    async def scenario():
        server = StreamNodeServer(
            _IdleNode(),
            HOST,
            0,
            peers={"dead": (HOST, 1)},
            policy=SupervisionPolicy(redial_base=10.0, outbox_limit=8),
        )
        for i in range(50):
            server._send("dead", ("msg", i))
        await asyncio.sleep(0.02)
        queued = server.link_health()["dead"]["queued"]
        shed = server.outbox_shed
        await server.close()
        return queued, shed

    queued, shed = asyncio.run(scenario())
    assert queued <= 8
    # 50 puts into a limit-8 box while the dial is refused and the
    # backoff window holds: everything past the limit is shed drop-oldest.
    assert shed == 42


def test_messages_to_unknown_destinations_are_still_dropped():
    async def scenario():
        server = StreamNodeServer(_IdleNode(), HOST, 0)
        server._send("stranger", "hello")
        await asyncio.sleep(0.02)
        assert server.messages_sent == 0
        await server.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Strict wire mode
# ----------------------------------------------------------------------
def test_encode_frame_strict_rejects_unregistered_types():
    from repro.wire import decode_frame, encode_frame

    class AdHoc:
        pass

    with pytest.raises(SerializationError):
        encode_frame(AdHoc(), strict=True)
    # The non-strict escape hatch still pickles (and round-trips).
    message, _ = decode_frame(encode_frame(("tag", 3)))
    assert message == ("tag", 3)


def test_strict_send_sheds_message_but_keeps_drain_alive(monkeypatch):
    """A strict-mode encode failure must drop that message loudly
    (counted) and nothing else: later messages to the same destination
    still go out."""

    class CountingStream:
        def __init__(self):
            self.payloads = []

        def send_frame(self, frame):
            from repro.wire import decode_frame

            self.payloads.append(decode_frame(frame)[0])
            return 0

        def close(self):
            pass

    streams = []

    async def dialer(host, port, owner, strict=False, limit=0):
        stream = CountingStream()
        streams.append(stream)
        return stream

    monkeypatch.setattr(stream_mod, "open_stream", dialer)

    class AdHoc:
        pass

    async def scenario():
        server = StreamNodeServer(_IdleNode(), HOST, 0, peers={"peer": (HOST, 1)})
        server._send("peer", AdHoc())       # refused at the encoder
        server._send("peer", ("fine", 1))   # must still go out
        await asyncio.sleep(0.05)
        await server.close()
        return server

    server = asyncio.run(scenario())
    assert server.encode_errors == 1
    assert len(streams) == 1
    sent_payloads = streams[0].payloads
    assert len(sent_payloads) == 1
    assert sent_payloads[0][1] == ("fine", 1)


# ----------------------------------------------------------------------
# Real-socket behaviour
# ----------------------------------------------------------------------
async def _start_cluster(names=("r0", "r1", "r2")):
    servers = {
        nid: StreamNodeServer(
            KeyedCrdtReplica(
                nid, list(names), lambda key: GCounter.initial(), CrdtPaxosConfig()
            ),
            HOST,
            0,
        )
        for nid in names
    }
    for server in servers.values():
        await server.start()
    ports = {nid: server.port for nid, server in servers.items()}
    for nid, server in servers.items():
        server.peers = {p: (HOST, ports[p]) for p in names if p != nid}
    return servers, ports


@needs_sockets
def test_pump_death_fails_pending_futures_immediately():
    """Regression: a replica that accepts a request and then dies used
    to leave the caller hanging for its full request timeout.  The pump
    death must reject the pending future with a typed TransportError
    as soon as the connection drops."""

    async def scenario():
        async def accept_then_hang_up(reader, writer):
            await reader.read(64)  # swallow the request frame (partially)
            writer.close()  # and hang up without ever replying

        server = await asyncio.start_server(accept_then_hang_up, HOST, 0)
        port = server.sockets[0].getsockname()[1]
        client = StreamClient("c0", {"r0": (HOST, port)})
        started = time.perf_counter()
        try:
            with pytest.raises(TransportError):
                await client.request(
                    "r0",
                    Keyed(key="k", message=ClientUpdate("c0/u0", Increment(1))),
                    timeout=30.0,
                )
            return time.perf_counter() - started
        finally:
            await client.close()
            server.close()
            await server.wait_closed()

    elapsed = asyncio.run(scenario())
    # Failing-before: the old client waited out the full 30s timeout.
    assert elapsed < 10.0, f"caller hung {elapsed:.1f}s on a dead connection"


@needs_sockets
def test_request_any_fails_over_to_a_live_replica():
    async def scenario():
        servers, ports = await _start_cluster()
        # The preferred replica's placement points at a dead port.
        dead_port = netbench.reserve_ports(1)[0]
        placements = {nid: (HOST, port) for nid, port in ports.items()}
        placements["r0"] = (HOST, dead_port)
        client = StreamClient("c0", placements, preferred="r0")
        try:
            reply = await client.request_any(
                Keyed(key="k", message=ClientUpdate("c0/u0", Increment(2))),
                timeout=10.0,
            )
            assert isinstance(reply.message, UpdateDone)
            assert client.failovers >= 1
            # Sticky: the second request goes straight to the live one.
            before = client.failovers
            reply = await client.request_any(
                Keyed(key="k", message=ClientUpdate("c0/u1", Increment(3))),
                timeout=10.0,
            )
            assert isinstance(reply.message, UpdateDone)
            assert client.failovers == before
        finally:
            await client.close()
            for server in servers.values():
                await server.close()

    asyncio.run(scenario())


@needs_sockets
def test_strict_client_rejects_ad_hoc_payload_at_the_sender():
    class AdHoc:
        pass

    async def scenario():
        servers, ports = await _start_cluster()
        client = StreamClient(
            "c0", {nid: (HOST, port) for nid, port in ports.items()}
        )
        try:
            message = Keyed(key="k", message=ClientUpdate("c0/u0", AdHoc()))
            with pytest.raises(SerializationError):
                await client.request("r0", message, timeout=5.0)
            # The connection itself is fine afterwards: a real update
            # still completes on the same client.
            reply = await client.request(
                "r0",
                Keyed(key="k", message=ClientUpdate("c0/u1", Increment(1))),
                timeout=10.0,
            )
            assert isinstance(reply.message, UpdateDone)
        finally:
            await client.close()
            for server in servers.values():
                await server.close()

    asyncio.run(scenario())


@needs_sockets
def test_garbage_injection_recycles_the_connection_not_the_protocol():
    """Garbage bytes in a live replica→replica stream must poison only
    that connection: the receiver tears it down (counted), the sender
    redials, and the protocol keeps serving."""

    async def scenario():
        servers, ports = await _start_cluster()
        client = StreamClient(
            "c0", {nid: (HOST, port) for nid, port in ports.items()}
        )
        try:
            # Prime r0's outbound stream to r1 with real traffic.
            reply = await client.request(
                "r0",
                Keyed(key="k", message=ClientUpdate("c0/u0", Increment(1))),
                timeout=10.0,
            )
            assert isinstance(reply.message, UpdateDone)

            done = await client.inject_garbage("r0", "r1", timeout=10.0)
            assert done.injected, "no live r0→r1 stream to poison"

            # r1 must notice the desync and drop the connection.
            deadline = time.perf_counter() + 5.0
            while time.perf_counter() < deadline:
                stats = await client.transport_stats("r1")
                if stats.frame_decode_errors >= 1:
                    break
                await asyncio.sleep(0.05)
            assert stats.frame_decode_errors >= 1
            assert stats.connections_dropped >= 1

            # The protocol is unharmed: further updates through r0 (whose
            # MERGE traffic needs the recycled r0→r1 link) still commit,
            # and r0 eventually notices the dead outbound and evicts it.
            deadline = time.perf_counter() + 10.0
            i = 0
            stats0 = await client.transport_stats("r0")
            while time.perf_counter() < deadline:
                i += 1
                reply = await client.request(
                    "r0",
                    Keyed(
                        key="k",
                        message=ClientUpdate(f"c0/u{i}", Increment(1)),
                    ),
                    timeout=10.0,
                )
                assert isinstance(reply.message, UpdateDone)
                stats0 = await client.transport_stats("r0")
                if stats0.connections_dropped >= 1 and i >= 3:
                    break
            assert stats0.connections_dropped >= 1  # evicted dead outbound
        finally:
            await client.close()
            for server in servers.values():
                await server.close()

    asyncio.run(scenario())


@needs_sockets
def test_sever_drops_connections_and_the_transport_recovers():
    async def scenario():
        servers, ports = await _start_cluster()
        client = StreamClient(
            "c0", {nid: (HOST, port) for nid, port in ports.items()}
        )
        try:
            reply = await client.request(
                "r0",
                Keyed(key="k", message=ClientUpdate("c0/u0", Increment(1))),
                timeout=10.0,
            )
            assert isinstance(reply.message, UpdateDone)

            done = await client.sever("r0", timeout=10.0)
            assert done.connections_dropped >= 1

            # Fresh traffic redials severed links and still commits.
            reply = await client.request(
                "r0",
                Keyed(key="k", message=ClientUpdate("c0/u1", Increment(1))),
                timeout=10.0,
            )
            assert isinstance(reply.message, UpdateDone)
            stats = await client.transport_stats("r0")
            assert stats.connections_dropped >= 1
        finally:
            await client.close()
            for server in servers.values():
                await server.close()

    asyncio.run(scenario())


@needs_sockets
def test_net_stats_reply_carries_fault_counters():
    async def scenario():
        servers, ports = await _start_cluster()
        client = StreamClient(
            "c0", {nid: (HOST, port) for nid, port in ports.items()}
        )
        try:
            await client.request(
                "r0",
                Keyed(key="k", message=ClientUpdate("c0/u0", Increment(1))),
                timeout=10.0,
            )
            stats = await client.transport_stats("r0")
            for field in (
                "frame_decode_errors",
                "connections_dropped",
                "redials",
                "backoff_resets",
                "outbox_shed",
            ):
                assert getattr(stats, field) == 0, field  # healthy link
        finally:
            await client.close()
            for server in servers.values():
                await server.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# ISSUE-24: one dial per replica, back-pressure without drain(), teardown
# ----------------------------------------------------------------------
@needs_sockets
def test_concurrent_first_requests_share_one_connection():
    """Regression: N concurrent first callers used to open N connections,
    of which N-1 leaked (never closed by ``close()``)."""

    from repro.net.control import NetStats

    async def scenario():
        server = StreamNodeServer(_IdleNode("r0"), HOST, 0)
        await server.start()
        client = StreamClient("c0", {"r0": (HOST, server.port)})
        try:
            replies = await asyncio.gather(*(
                client.request("r0", NetStats(request_id=f"s{i}"), timeout=10.0)
                for i in range(8)
            ))
            assert [r.request_id for r in replies] == [f"s{i}" for i in range(8)]
            assert len(server._inbound) == 1  # accepted exactly one connection
            assert len(client._streams) == 1
        finally:
            await client.close()
            await server.close()

    asyncio.run(scenario())


class _Sink(asyncio.Protocol):
    """A peer that accepts and does not read until told to."""

    def __init__(self):
        from repro.wire import FrameDecoder

        self.decoder = FrameDecoder()
        self.received = []
        self.transport = None

    def connection_made(self, transport):
        self.transport = transport
        transport.pause_reading()

    def data_received(self, data):
        self.received.extend(m for _, m in self.decoder.feed(data))


async def _listening_sink():
    """A listener whose one accepted connection is a :class:`_Sink`."""
    sinks = []

    def accept():
        sinks.append(_Sink())
        return sinks[-1]

    listener = await asyncio.get_running_loop().create_server(accept, HOST, 0)
    return listener, listener.sockets[0].getsockname()[1], sinks


@needs_sockets
def test_slow_peer_is_back_pressured_with_bounded_memory():
    """Without ``drain()`` the bound comes from ``pause_writing``: frames
    park in the connection's bounded drop-oldest outbox, the transport
    buffer stops at its high-water mark plus one flush, and when the
    peer reads again everything parked leaves in order on the same
    connection."""
    limit = 64
    blob = b"x" * 4096

    async def scenario():
        loop = asyncio.get_running_loop()
        listener, port, sinks = await _listening_sink()
        server = StreamNodeServer(
            _IdleNode(), HOST, 0, peers={"sink": (HOST, port)},
            policy=SupervisionPolicy(outbox_limit=limit),
        )
        server._send("sink", (-1, b""))
        await asyncio.sleep(0.05)  # connected
        stream = server._links["sink"].stream
        transport = stream._transport
        _, high = transport.get_write_buffer_limits()
        frame_len = server.bytes_sent + len(blob)
        peak = 0
        for i in range(5000):
            server._send("sink", (i, blob))
            if i % 16 == 15:
                await asyncio.sleep(0)
                peak = max(peak, transport.get_write_buffer_size())
                assert len(stream.outbox) <= limit
        assert stream._paused, "a never-reading peer must pause the writer"
        assert peak <= high + (limit + 1) * frame_len
        assert server.outbox_shed > 0
        shed_at_resume = server.outbox_shed

        sinks[0].transport.resume_reading()
        deadline = loop.time() + 10.0
        while (stream._paused or stream.outbox) and loop.time() < deadline:
            await asyncio.sleep(0.01)
        server._send("sink", (5000, b"marker"))
        while (not sinks[0].received or sinks[0].received[-1][0] != 5000):
            assert loop.time() < deadline, "traffic did not resume"
            await asyncio.sleep(0.01)
        order = [i for i, _ in sinks[0].received]
        assert order == sorted(order) and order[0] == -1  # FIFO, with gaps
        assert len(order) == 5002 - shed_at_resume
        assert server.outbox_shed == shed_at_resume
        assert server.redials == 0 and server.connections_dropped == 0
        assert len(sinks) == 1  # no redial: the same connection throughout
        await server.close()
        listener.close()

    asyncio.run(scenario())


@needs_sockets
def test_close_flushes_queued_frames_before_closing():
    async def scenario():
        listener, port, sinks = await _listening_sink()
        server = StreamNodeServer(
            _IdleNode(), HOST, 0, peers={"sink": (HOST, port)}
        )
        server._send("sink", 0)
        await asyncio.sleep(0.05)
        for i in range(1, 6):
            server._send("sink", i)
        await server.close()  # same turn: none of the five was written yet
        sinks[0].transport.resume_reading()
        await asyncio.sleep(0.05)
        assert sinks[0].received == [0, 1, 2, 3, 4, 5]
        listener.close()

    asyncio.run(scenario())


_TEARDOWN_SCRIPT = """
import asyncio
from repro.core.config import CrdtPaxosConfig
from repro.core.keyspace import Keyed, KeyedCrdtReplica
from repro.core.messages import ClientUpdate
from repro.crdt.gcounter import GCounter, Increment
from repro.net.stream import StreamClient, StreamNodeServer

NAMES = ["r0", "r1", "r2"]

async def main():
    servers = {
        n: StreamNodeServer(
            KeyedCrdtReplica(n, NAMES, lambda k: GCounter.initial(), CrdtPaxosConfig()),
            "127.0.0.1", 0,
        )
        for n in NAMES
    }
    for server in servers.values():
        await server.start()
    for n, server in servers.items():
        server.peers = {p: ("127.0.0.1", servers[p].port) for p in NAMES if p != n}
    client = StreamClient("c0", {n: ("127.0.0.1", s.port) for n, s in servers.items()})
    pending = [
        asyncio.ensure_future(client.request(
            NAMES[i % 3], Keyed(key="k", message=ClientUpdate(f"u{i}", Increment(1)))
        ))
        for i in range(12)
    ]
    await asyncio.gather(*pending[:6])
    # Tear down with requests, peer traffic and a dial to a dead port in flight.
    servers["r0"].peers["ghost"] = ("127.0.0.1", 1)
    servers["r0"]._send("ghost", "anyone?")
    await client.close()
    for server in servers.values():
        await server.close()
    await asyncio.gather(*pending, return_exceptions=True)

asyncio.run(main())
print("done")
"""


@needs_sockets
def test_teardown_leaves_stderr_empty():
    """No ``Task was destroyed but it is pending`` / ``CancelledError``
    traceback / never-retrieved exception when everything is closed with
    traffic still in flight."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-c", _TEARDOWN_SCRIPT],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0 and done.stdout.strip() == "done", done.stderr
    assert done.stderr == "", done.stderr
