"""ISSUE-24: per-turn write coalescing, encode-once broadcast and framing
on the protocol-based socket transport.

Everything here is socketless: a real :class:`FrameStream` talks to a
fake transport, the dial seam (``open_stream``) is monkeypatched to hand
out such streams, and only ``call_soon`` on a bare event loop is needed —
so the tests hold in sandboxes without loopback.
"""

import asyncio

import pytest

from repro.errors import RequestTimeout, SerializationError, TransportError
from repro.net import stream as stream_mod
from repro.net.control import NetStats, NetStatsReply
from repro.net.node import Effects
from repro.net.stream import (
    FrameStream,
    StreamClient,
    StreamNodeServer,
    SupervisionPolicy,
)
from repro.wire import FrameDecoder, encode_frame

HOST = "127.0.0.1"


class FakeTransport:
    """Records writes; reports its death the way asyncio does — a
    ``connection_lost`` callback on the next loop turn."""

    def __init__(self, protocol):
        self.protocol = protocol
        self.writes = []
        self.closing = False
        self.fail_writes = False

    def write(self, data):
        if self.fail_writes:
            raise ConnectionResetError("peer died")
        self.writes.append(bytes(data))

    def is_closing(self):
        return self.closing

    def close(self):
        if not self.closing:
            self.closing = True
            asyncio.get_running_loop().call_soon(
                self.protocol.connection_lost, None
            )

    abort = close

    def messages(self):
        """Every message written so far, decoded, in order."""
        return FrameDecoder().feed(b"".join(self.writes))


def connected(owner, strict=True, limit=512):
    stream = FrameStream(owner, strict, limit)
    stream.connection_made(FakeTransport(stream))
    return stream


class Recorder:
    """A FrameStream owner that only takes notes."""

    def __init__(self):
        self.writes = 0
        self.chunks = []
        self.lost = []

    def stream_messages(self, stream, messages, nbytes):
        self.chunks.append(list(messages))

    def stream_lost(self, stream, exc):
        self.lost.append(exc)

    @property
    def messages(self):
        return [m for chunk in self.chunks for m in chunk]


class RecordingNode:
    node_id = "n0"

    def __init__(self):
        self.received = []

    def on_start(self, now):
        return Effects()

    def on_message(self, src, message, now):
        self.received.append((src, message))
        return Effects()

    def on_timer(self, key, now):
        return Effects()


@pytest.fixture
def fake_dials(monkeypatch):
    """``open_stream`` hands out real streams on fake transports."""
    dialed = []

    async def dialer(host, port, owner, strict=False, limit=512):
        stream = connected(owner, strict, limit)
        dialed.append(stream)
        return stream

    monkeypatch.setattr(stream_mod, "open_stream", dialer)
    return dialed


def stats_reply(request_id, node="r0"):
    return encode_frame((node, NetStatsReply(request_id, node, 0, 0, 0, 0)))


async def turns(n=3):
    for _ in range(n):
        await asyncio.sleep(0)


# ----------------------------------------------------------------------
# (i) one write per peer per loop turn
# ----------------------------------------------------------------------
def test_sends_in_one_callback_share_one_write_in_order(fake_dials):
    async def scenario():
        server = StreamNodeServer(
            RecordingNode(), HOST, 0, peers={"peer": (HOST, 1)}
        )
        server._send("peer", ("parked", 0))  # dials; leaves first
        await turns()
        transport = fake_dials[0]._transport
        assert len(transport.writes) == 1

        for i in range(7):  # k sends inside one callback
            server._send("peer", ("burst", i))
        await turns()
        assert len(transport.writes) == 2
        burst = FrameDecoder().feed(transport.writes[1])
        assert burst == [("n0", ("burst", i)) for i in range(7)]

        server._send("peer", ("turn", 1))  # two successive loop turns
        await asyncio.sleep(0)
        server._send("peer", ("turn", 2))
        await turns()
        assert len(transport.writes) == 4
        assert server.writes == 4 and server.messages_sent == 10
        assert [m for _, m in transport.messages()] == (
            [("parked", 0)] + [("burst", i) for i in range(7)]
            + [("turn", 1), ("turn", 2)]
        )
        await server.close()

    asyncio.run(scenario())


def test_frames_parked_before_connect_leave_first_and_fifo_holds(monkeypatch):
    async def scenario():
        opened = asyncio.Event()
        dialed = []

        async def slow_dialer(host, port, owner, strict=False, limit=512):
            await opened.wait()
            dialed.append(connected(owner, strict, limit))
            return dialed[0]

        monkeypatch.setattr(stream_mod, "open_stream", slow_dialer)
        server = StreamNodeServer(
            RecordingNode(), HOST, 0, peers={"peer": (HOST, 1)}
        )
        for i in range(5):
            server._send("peer", i)
            await asyncio.sleep(0)  # parked over several turns
        assert server.messages_sent == 0  # nothing handed to a link yet
        opened.set()
        await turns()
        server._send("peer", 5)
        await turns()
        transport = dialed[0]._transport
        assert [m for _, m in transport.messages()] == [0, 1, 2, 3, 4, 5]
        assert len(transport.writes) == 2  # the parked five shared one
        assert server.messages_sent == 6
        await server.close()

    asyncio.run(scenario())


def test_client_requests_in_one_turn_share_a_write_and_a_reply_chunk(fake_dials):
    async def scenario():
        client = StreamClient("c0", {"r0": (HOST, 1)})
        requests = [
            client.request("r0", NetStats(request_id=f"q{i}"), timeout=5.0)
            for i in range(4)
        ]
        gathered = asyncio.gather(*requests)
        await turns(6)
        stream = fake_dials[0]
        assert len(fake_dials) == 1 and len(stream._transport.writes) == 1
        sent = stream._transport.messages()
        assert [m.request_id for _, m in sent] == ["q0", "q1", "q2", "q3"]
        # All four replies in one chunk resolve from one data_received.
        stream.data_received(b"".join(stats_reply(f"q{i}") for i in range(4)))
        replies = await gathered
        assert [r.request_id for r in replies] == ["q0", "q1", "q2", "q3"]
        assert client.writes == 1 and not client._pending
        await client.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# (ii) a broadcast encodes once
# ----------------------------------------------------------------------
def test_broadcast_of_one_object_encodes_once(fake_dials, monkeypatch):
    calls = []
    real = stream_mod.encode_frame

    def counting(message, strict=False):
        calls.append(message)
        return real(message, strict=strict)

    # The module attribute is the seam perf/trace.py patches: it must be
    # looked up at call time.
    monkeypatch.setattr(stream_mod, "encode_frame", counting)

    async def scenario():
        server = StreamNodeServer(
            RecordingNode(), HOST, 0, peers={"p1": (HOST, 1), "p2": (HOST, 2)}
        )
        message = ("merge", 7, "payload")
        effects = Effects()
        effects.broadcast(["p1", "p2"], message)
        server.apply_effects(effects)
        await turns()
        assert len(calls) == 1 and calls[0] == ("n0", message)
        assert server.messages_sent == 2  # counted per destination
        first, second = (s._transport.messages() for s in fake_dials)
        assert first == second == [("n0", message)]

        twin = tuple(list(message))  # equal, distinct
        assert twin == message and twin is not message
        server._send("p1", twin)
        assert len(calls) == 2
        await server.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# (iii) framing survives any chunking
# ----------------------------------------------------------------------
def test_data_received_is_chunking_invariant():
    messages = [("r1", ("m", i, "x" * (i * 37))) for i in range(6)]
    data = b"".join(encode_frame(m) for m in messages)

    whole = Recorder()
    connected(whole).data_received(data)
    assert whole.messages == messages and len(whole.chunks) == 1

    bytewise = Recorder()
    stream = connected(bytewise)
    for i in range(len(data)):
        stream.data_received(data[i:i + 1])
    assert bytewise.messages == messages

    for cut in range(1, len(data)):
        halves = Recorder()
        stream = connected(halves)
        stream.data_received(data[:cut])
        stream.data_received(data[cut:])
        assert halves.messages == messages, cut
        assert not halves.lost


# ----------------------------------------------------------------------
# (iv) desync drops one connection, loudly
# ----------------------------------------------------------------------
def test_garbage_and_torn_eof_drop_only_that_connection():
    async def scenario():
        node = RecordingNode()
        server = StreamNodeServer(node, HOST, 0)
        healthy, poisoned, torn = (server._accept() for _ in range(3))
        for stream in (healthy, poisoned, torn):
            stream.connection_made(FakeTransport(stream))
        good = encode_frame(("c0", ("hello", 1)))

        # Valid frames that precede a bad one in the same chunk are lost
        # with it: feed() is all-or-nothing per chunk.
        poisoned.data_received(good + b"XX\x00\x08not-a-frame\xde\xad\xbe\xef")
        torn.data_received(good[: len(good) // 2])
        torn.eof_received()  # EOF mid-frame
        await turns()
        assert node.received == []
        assert server.frame_decode_errors == 2
        assert server.connections_dropped == 2
        assert server._inbound == {healthy}

        healthy.data_received(good)
        # The peer's redial is a fresh connection with a fresh decoder.
        redialed = server._accept()
        redialed.connection_made(FakeTransport(redialed))
        redialed.data_received(good)
        assert node.received == [("c0", ("hello", 1))] * 2
        assert server.frame_decode_errors == 2
        await server.close()

    asyncio.run(scenario())


def test_clean_eof_is_not_a_fault():
    async def scenario():
        server = StreamNodeServer(RecordingNode(), HOST, 0)
        stream = server._accept()
        stream.connection_made(FakeTransport(stream))
        stream.data_received(encode_frame(("c0", ("hello", 1))))
        assert "c0" in server._routes
        stream.eof_received()
        stream.connection_lost(None)
        assert server.frame_decode_errors == 0
        assert server.connections_dropped == 0
        assert not server._inbound and not server._routes
        await server.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Eviction is idempotent per dead stream
# ----------------------------------------------------------------------
def test_one_dead_stream_is_one_drop_one_failure_one_backoff(fake_dials):
    async def scenario():
        server = StreamNodeServer(
            RecordingNode(), HOST, 0, peers={"peer": (HOST, 1)},
            policy=SupervisionPolicy(redial_base=5.0, redial_jitter=0.0),
        )
        server._send("peer", "first")
        await turns()
        stream = fake_dials[0]
        stream._transport.fail_writes = True
        server._send("peer", "second")  # the write fails: report #1 ...
        await turns()
        link = server._links["peer"]
        window = link.not_before
        # ... and connection_lost reports the same death again.
        stream.connection_lost(ConnectionResetError("peer died"))
        stream.connection_lost(ConnectionResetError("peer died"))
        assert server.connections_dropped == 1
        assert link.failures == 1 and link.not_before == window
        assert server.link_health()["peer"]["connected"] is False
        await server.close()

    asyncio.run(scenario())


def test_deliberate_close_is_not_a_failure(fake_dials):
    async def scenario():
        server = StreamNodeServer(
            RecordingNode(), HOST, 0, peers={"peer": (HOST, 1)}
        )
        server._send("peer", "first")
        await turns()
        asker = server._accept()
        asker.connection_made(FakeTransport(asker))
        server._sever("c0", stream_mod.Sever(request_id="s"), keep=asker)
        await turns()
        link = server._links["peer"]
        assert server.connections_dropped == 1  # the sever's own count
        assert link.failures == 0 and link.not_before == 0.0
        assert fake_dials[0]._transport.closing
        server._send("peer", "second")  # redials at once: no window
        await turns()
        assert len(fake_dials) == 2 and server.backoff_resets == 0
        await server.close()
        assert link.failures == 0 and link.not_before == 0.0

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Pause / resume without drain()
# ----------------------------------------------------------------------
def test_paused_stream_parks_bounded_and_resumes_in_order():
    async def scenario():
        owner = Recorder()
        stream = connected(owner, limit=8)
        transport = stream._transport
        stream.pause_writing()
        shed = sum(stream.send_frame(encode_frame(i)) for i in range(20))
        await turns()
        assert transport.writes == [] and len(stream.outbox) == 8
        assert shed == 12  # drop-oldest
        stream.resume_writing()
        await turns()
        assert len(transport.writes) == 1
        assert transport.messages() == list(range(12, 20))
        assert owner.writes == 1

    asyncio.run(scenario())


def test_close_flushes_what_is_queued():
    async def scenario():
        owner = Recorder()
        stream = connected(owner)
        for i in range(3):
            stream.send_frame(encode_frame(i))
        stream.close()  # same turn: nothing was flushed yet
        assert stream._transport.messages() == [0, 1, 2]
        await turns()
        assert owner.lost == [None]

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# StreamClient: one dial per replica, fail-fast, timeouts
# ----------------------------------------------------------------------
def test_concurrent_first_callers_share_one_dial(monkeypatch):
    dials = []

    async def slow_dialer(host, port, owner, strict=False, limit=512):
        dials.append(port)
        await asyncio.sleep(0.01)
        if port == 2:
            raise ConnectionRefusedError("nobody home")
        return connected(owner, strict, limit)

    monkeypatch.setattr(stream_mod, "open_stream", slow_dialer)

    async def scenario():
        client = StreamClient("c0", {"up": (HOST, 1), "down": (HOST, 2)})
        streams = await asyncio.gather(
            *(client._stream_to("up") for _ in range(8))
        )
        assert dials == [1] and len({id(s) for s in streams}) == 1
        failures = await asyncio.gather(
            *(client._stream_to("down") for _ in range(8)),
            return_exceptions=True,
        )
        assert dials == [1, 2]
        assert all(isinstance(f, TransportError) for f in failures)
        assert len({id(f) for f in failures}) == 1  # the same error
        assert not client._dials
        await client.close()

    asyncio.run(scenario())


def test_dead_connection_rejects_exactly_its_own_pending(fake_dials):
    async def scenario():
        client = StreamClient("c0", {"r0": (HOST, 1), "r1": (HOST, 2)})
        doomed = asyncio.ensure_future(
            client.request("r0", NetStats(request_id="a"), timeout=30.0)
        )
        safe = asyncio.ensure_future(
            client.request("r1", NetStats(request_id="b"), timeout=30.0)
        )
        await turns(6)
        to_r0, to_r1 = fake_dials
        to_r0.data_received(b"garbage-that-is-not-a-frame!")
        await turns()
        with pytest.raises(TransportError):
            await doomed
        assert not safe.done() and "r0" not in client._streams
        to_r1.data_received(stats_reply("b", "r1"))
        assert (await safe).node == "r1"
        await client.close()

    asyncio.run(scenario())


def test_silence_times_out_with_one_timer_and_late_replies_are_stray(fake_dials):
    async def scenario():
        client = StreamClient("c0", {"r0": (HOST, 1)})
        with pytest.raises(RequestTimeout):
            await client.request("r0", NetStats(request_id="a"), timeout=0.02)
        assert not client._pending
        fake_dials[0].data_received(stats_reply("a"))
        assert client.stray_replies == 1
        await client.close()

    asyncio.run(scenario())


def test_strict_send_refuses_at_the_sender_and_queues_nothing(fake_dials):
    class AdHoc:
        request_id = "x"

    async def scenario():
        client = StreamClient("c0", {"r0": (HOST, 1)})
        with pytest.raises(SerializationError):
            await client.request("r0", AdHoc(), timeout=1.0)
        await turns()
        assert fake_dials[0]._transport.writes == [] and not client._pending
        await client.close()

    asyncio.run(scenario())
