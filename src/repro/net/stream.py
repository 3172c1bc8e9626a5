"""Framed TCP transport: sans-io nodes on real sockets, supervised.

The production face of the wire stack.  One :class:`FrameStream` is the
:class:`asyncio.Protocol` of a TCP connection and moves length-prefixed
:mod:`repro.wire` frames; a :class:`StreamNodeServer` hosts any sans-io
protocol node (a :class:`~repro.core.keyspace.KeyedCrdtReplica`, a
baseline RSM node, …) behind a listening socket, with peer-to-peer
traffic over supervised outbound connections and timers on the event
loop; a :class:`StreamClient` is the awaitable request/reply side.

Every frame on the wire is a ``(sender id, message)`` tuple — the
destination is implied by the connection — so a server learns the return
route for a client the moment its first frame arrives.

The multi-process bench rig (``python -m repro.bench net``) spawns one
OS process per :class:`StreamNodeServer` and measures ops/s and
bytes/op through this module, so its numbers are hardware numbers:
real serialization, real syscalls, real scheduling.

Batching and ordering
=====================

Sending only queues; nothing on the send path awaits or touches the
socket.  The first frame queued on a connection arms one
``loop.call_soon`` flush, so **every frame queued for one connection
during one event-loop iteration leaves in one ``transport.write``** —
whichever socket chunks, timer fires or client calls produced them.  The
loop turn is the batch window: no timer, nothing to tune; an idle system
pays no latency (the flush runs before the loop polls again) and a busy
one batches more because more happens per turn.  Receiving is symmetric:
one ``recv`` hands ``data_received`` a chunk, and every message the
chunk completes reaches the node (or resolves its client future) from
that one call — no reader task, no per-message wake-up.

* **FIFO per link.**  One outbox, one connection, one write per turn in
  queue order: frames to one destination arrive in send order, and
  frames parked while the link was dialing leave before later ones.
  Nothing orders *different* links; the protocol relies on neither.
* **A broadcast encodes once.**  The server reuses the last frame it
  encoded when handed the *same message object* again (a broadcast is
  one ``Keyed`` shared by its destinations); an equal but distinct
  object is encoded afresh.  The bytes are identical either way.
* **Counters.**  ``messages_sent``/``bytes_sent`` count frames handed to
  a live connection's outbox, not frames the kernel took: one still
  queued when its connection dies was counted and is lost.  ``writes``
  counts ``transport.write`` calls; ``messages_sent / writes`` is the
  measured frames per write.

Fault model
===========

The transport assumes the protocol it carries tolerates message loss,
duplication and reordering (it does — §2.1), so supervision never
buffers unboundedly or retries a *message*; it supervises *links*:

* **What a failure is.**  A send cannot fail — it queues.  A link fails
  when a dial is refused or its connection is lost (reset, EOF, a write
  the transport rejects, frame desync).  One dead connection is one
  ``connections_dropped``, one step of the link's backoff and the loss
  of whatever it still had queued, however many code paths report the
  death.  Closing a connection on purpose (``Sever``, ``close()``) is
  not a failure and arms no backoff.

* **What is retried.**  Outbound peer connections.  While frames wait
  for a peer, a dial task redials it under jittered exponential backoff
  (:class:`SupervisionPolicy`: ``redial_base`` doubling per consecutive
  failure up to ``redial_cap``, ±``redial_jitter`` deterministic
  per-link jitter so a restarted replica is not hit by a synchronized
  dial storm).  The first successful reconnect resets the backoff
  (counted in ``backoff_resets``).  Return routes to clients are never
  redialed — the server cannot dial a client; a dead client route drops
  traffic.

* **What waits, and what is shed.**  Frames wait in a bounded outbox
  (``outbox_limit``) in two situations: the peer is dialing or inside
  its backoff window (the link's outbox), or the transport's buffer
  passed its high-water mark and called ``pause_writing`` (the
  connection's outbox; ``resume_writing`` flushes it in order).  A full
  outbox sheds its *oldest* frame (``outbox_shed``) — loss is allowed by
  the model, unbounded memory against a slow or dead peer is not.
  Nothing is requeued: the protocol's own re-drive timers are the retry
  mechanism with end-to-end semantics.

* **Frame desync.**  A malformed frame — or EOF inside one — poisons
  that connection's decoder: frame boundaries are lost, so the only safe
  reaction is teardown.  The receiver counts ``frame_decode_errors`` and
  aborts the connection; valid frames that *preceded* the bad one in the
  same chunk are lost with it (``FrameDecoder.feed`` is all-or-nothing
  per chunk, and loss is allowed).  The sender sees the connection die
  and redials: a fresh connection with a fresh decoder, so the poison
  never outlives the socket.

* **Strict wire mode.**  Sends encode with ``strict=True`` by default:
  an unregistered type raises :class:`SerializationError` *at the
  sender* — only that message is dropped (``encode_errors``) — instead
  of silently crossing the wire as a pickle blob.

All of it is observable: :class:`~repro.net.control.NetStats` returns
the fault counters next to the byte counters, and the process-level
nemesis (:mod:`repro.nemesis.process`) asserts campaigns actually
exercised them.
"""

from __future__ import annotations

import asyncio
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.errors import RequestTimeout, SerializationError, TransportError
from repro.net.control import (
    GarbageInject,
    GarbageInjectDone,
    NetStats,
    NetStatsReply,
    Sever,
    SeverDone,
)
from repro.net.node import Effects
from repro.wire import FrameDecoder, encode_frame

#: Default garbage for :class:`GarbageInject` with an empty payload —
#: long enough to complete a bogus "frame" (bad magic) at the receiver.
_GARBAGE = b"XX\x00\x08not-a-frame\xde\xad\xbe\xef"


def uvloop_installed() -> bool:
    """Install uvloop's event-loop policy when available.

    Returns whether uvloop is active.  The container may not ship it;
    everything works identically (slower) on the stock loop, so this is
    a best-effort accelerator, never a dependency.
    """
    try:
        import uvloop  # type: ignore[import-not-found]
    except ImportError:
        return False
    uvloop.install()
    return True


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs for the per-peer link supervisor.

    The backoff discipline mirrors the proposer's re-drive backoff
    (``backoff_multiplier`` / ``backoff_cap`` / ``backoff_jitter`` on
    :class:`~repro.core.config.CrdtPaxosConfig`): exponential growth per
    consecutive failure, a hard cap, deterministic jitter to
    de-synchronize a fleet, and a reset on first success.
    """

    #: Delay before the first redial after a failure (seconds).
    redial_base: float = 0.05
    #: Multiplier applied per additional consecutive failure.
    redial_multiplier: float = 2.0
    #: Ceiling on the redial delay (seconds).
    redial_cap: float = 2.0
    #: ± fraction of deterministic per-(link, attempt) jitter.
    redial_jitter: float = 0.1
    #: Maximum queued frames per outbox; beyond it the oldest frame is
    #: shed (drop-oldest: fresher protocol state wins).
    outbox_limit: int = 512


_LIMIT = SupervisionPolicy.outbox_limit


def _put(outbox: deque, frame: bytes) -> int:
    """Append under drop-oldest; returns how many frames it shed (0/1)."""
    shed = len(outbox) == outbox.maxlen
    outbox.append(frame)  # a full bounded deque discards its oldest item
    return shed


class FrameStream(asyncio.Protocol):
    """One framed TCP connection, as the protocol of its transport.

    ``owner`` hears about traffic through two calls, both made from the
    event loop's own callbacks: ``stream_messages(stream, messages,
    nbytes)`` with every message a received chunk completed, and
    ``stream_lost(stream, exc)`` once the connection is gone — ``exc``
    is ``None`` for a clean EOF or a deliberate :meth:`close`, a
    :class:`SerializationError` for frame desync, the socket error
    otherwise.  Each ``transport.write`` bumps ``owner.writes``.

    :meth:`send` and :meth:`send_frame` only queue; see the module
    docstring's *Batching and ordering* section.  ``strict`` makes every
    ``send`` refuse unregistered types at the encoder.
    """

    __slots__ = (
        "_owner", "_transport", "_decoder", "_armed", "_paused", "_error",
        "outbox", "strict",
    )

    def __init__(self, owner: Any, strict: bool = False, limit: int = _LIMIT):
        self._owner = owner
        self._transport: Any = None
        self._decoder = FrameDecoder()
        self._armed = False  # a flush is scheduled for this loop turn
        self._paused = False  # transport buffer above its high-water mark
        self._error: Exception | None = None
        #: Frames queued since the last write (or while paused).
        self.outbox: deque[bytes] = deque(maxlen=limit)
        self.strict = strict

    # -- asyncio.Protocol ----------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        try:
            messages = self._decoder.feed(data)
        except SerializationError as exc:
            self._abort(exc)
            return
        self._owner.stream_messages(self, messages, len(data))

    def eof_received(self) -> None:
        pending = self._decoder.pending_bytes
        if pending:
            self._abort(SerializationError(
                f"connection closed mid-frame ({pending} bytes pending)"
            ))

    def connection_lost(self, exc: Exception | None) -> None:
        self.outbox.clear()
        self._owner.stream_lost(self, self._error or exc)

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        if self.outbox and not self._armed:
            self._arm()

    # -- sending -------------------------------------------------------
    def send(self, message: Any) -> None:
        """Encode and queue one frame."""
        self.send_frame(encode_frame(message, strict=self.strict))

    def send_frame(self, frame: bytes) -> int:
        """Queue encoded bytes for this turn's write (raw garbage rides
        the same path); returns how many older frames were shed (0/1)."""
        shed = _put(self.outbox, frame)
        if not (self._armed or self._paused):
            self._arm()
        return shed

    def _arm(self) -> None:
        self._armed = True
        asyncio.get_running_loop().call_soon(self._flush)

    def _flush(self) -> None:
        """The one ``transport.write`` of this loop turn."""
        self._armed = False
        outbox = self.outbox
        if self._paused or not outbox or self._transport.is_closing():
            return  # parked, nothing to do, or dying under us
        data = b"".join(outbox)
        outbox.clear()
        self._owner.writes += 1
        try:
            self._transport.write(data)
        except (ConnectionError, OSError) as exc:
            self._abort(exc)

    def _abort(self, exc: Exception) -> None:
        """Fatal for this connection only: stop reading, drop the socket."""
        if self._error is None:
            self._error = exc
        self._transport.abort()  # connection_lost follows

    def close(self) -> None:
        """Write what is queued, then close once the kernel took it."""
        self._paused = False
        self._flush()
        self._transport.close()


async def open_stream(
    host: str, port: int, owner: Any, strict: bool = False, limit: int = _LIMIT
) -> FrameStream:
    """Dial ``host:port``; the one seam every outbound connection uses."""
    _, stream = await asyncio.get_running_loop().create_connection(
        lambda: FrameStream(owner, strict, limit), host, port
    )
    return stream


class _PeerLink:
    """Supervision state for one outbound peer link."""

    __slots__ = (
        "stream", "outbox", "dialing", "failures", "not_before",
        "connected_once",
    )

    def __init__(self, limit: int) -> None:
        self.stream: FrameStream | None = None
        #: Frames parked while the link is dialing or backing off.
        self.outbox: deque[bytes] = deque(maxlen=limit)
        #: The dial task working on this link, if any.
        self.dialing: asyncio.Task | None = None
        #: Consecutive dial/connection failures since the last success.
        self.failures = 0
        #: Loop time before which no redial may be attempted.
        self.not_before = 0.0
        #: Whether this link ever carried a successful dial.
        self.connected_once = False


class StreamNodeServer:
    """Host one sans-io protocol node behind a listening socket.

    ``peers`` maps peer node ids to ``(host, port)``; protocol sends to
    those ids dial (and cache) supervised outbound connections, sends to
    any other id are routed back over the inbound connection that id
    last spoke on, and sends to ids the server has never heard of are
    dropped — exactly the unreliable-channel model the protocol assumes.

    See the module docstring for what shares a write (*Batching and
    ordering*) and for what the supervisor retries, what it sheds, and
    the backoff envelope (*Fault model*, :class:`SupervisionPolicy`).
    """

    def __init__(
        self,
        node: Any,
        host: str,
        port: int,
        peers: dict[str, tuple[str, int]] | None = None,
        policy: SupervisionPolicy | None = None,
        strict: bool = True,
    ) -> None:
        self.node = node
        self.host = host
        self.port = port
        self.peers = dict(peers or {})
        self.policy = policy or SupervisionPolicy()
        self.strict = strict
        self._server: asyncio.AbstractServer | None = None
        self._timers: dict[str, asyncio.TimerHandle] = {}
        self._routes: dict[str, FrameStream] = {}
        self._inbound: set[FrameStream] = set()
        self._links: dict[str, _PeerLink] = {}
        self._control = {
            NetStats: self._net_stats,
            Sever: self._sever,
            GarbageInject: self._inject_garbage,
        }
        self._closed = False
        #: The last message encoded and its frame: a broadcast hands the
        #: same object to ``_send`` once per destination.
        self._last_message: Any = object()
        self._last_frame = b""
        self.messages_sent = 0
        self.bytes_sent = 0
        #: ``transport.write`` calls over all connections.
        self.writes = 0
        self.messages_received = 0
        self.bytes_received = 0
        #: Transport fault counters (surfaced via NetStats).
        self.frame_decode_errors = 0
        self.connections_dropped = 0
        self.redials = 0
        self.backoff_resets = 0
        #: Frames shed by full outboxes (drop-oldest).
        self.outbox_shed = 0
        #: Strict-mode sends refused at the encoder (message dropped,
        #: everything else flows) — a code bug, loudly countable.
        self.encode_errors = 0

    def link_health(self) -> dict[str, dict[str, float | bool | int]]:
        """Supervision snapshot per peer: connection and backoff state."""
        try:
            now = asyncio.get_running_loop().time()
        except RuntimeError:
            now = 0.0
        health: dict[str, dict[str, float | bool | int]] = {}
        for dst in self.peers:
            link = self._links.get(dst)
            health[dst] = {
                "connected": bool(link and link.stream),
                "failures": link.failures if link else 0,
                "next_dial_in": (
                    max(0.0, link.not_before - now) if link else 0.0
                ),
                "queued": len(link.outbox) if link else 0,
            }
        return health

    # ------------------------------------------------------------------
    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            self._accept, self.host, self.port
        )
        if self.port == 0:
            self.port = self._server.sockets[0].getsockname()[1]
        self.apply_effects(self.node.on_start(loop.time()))

    def _accept(self) -> FrameStream:
        stream = FrameStream(self, self.strict, self.policy.outbox_limit)
        self._inbound.add(stream)
        return stream

    async def close(self) -> None:
        """Stop listening, flush every connection's queue and close it."""
        self._closed = True
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        if self._server is not None:
            self._server.close()
        self._close_streams()
        dials = [l.dialing for l in self._links.values() if l.dialing]
        for dial in dials:
            dial.cancel()
        # One turn for the dial tasks to take their cancellation, so none
        # is still pending when the caller tears the loop down.
        await asyncio.gather(*dials, return_exceptions=True)

    def _close_streams(self, keep: FrameStream | None = None) -> int:
        """Close every established connection except ``keep``; returns
        how many.  Deliberate, so each is detached first: its
        ``stream_lost`` then finds no link to fail and arms no backoff."""
        streams = [stream for stream in self._inbound if stream is not keep]
        self._inbound.difference_update(streams)
        for link in self._links.values():
            if link.stream is not None:
                streams.append(link.stream)
                link.stream = None
        for stream in streams:
            stream.close()
        return len(streams)

    # -- FrameStream owner ---------------------------------------------
    def stream_messages(
        self, stream: FrameStream, messages: list, nbytes: int
    ) -> None:
        self.bytes_received += nbytes
        if self._closed:
            return
        loop = asyncio.get_running_loop()
        routes = self._routes
        for src, payload in messages:
            self.messages_received += 1
            routes[src] = stream
            control = self._control.get(type(payload))
            if control is not None:
                # Transport-level control traffic: the node never sees it.
                control(src, payload, stream)
                continue
            self.apply_effects(self.node.on_message(src, payload, loop.time()))

    def stream_lost(self, stream: FrameStream, exc: Exception | None) -> None:
        if isinstance(exc, SerializationError):
            # Framing desynced (garbage bytes, torn frame): the decoder
            # is poisoned, so recovery is teardown — the peer redials.
            self.frame_decode_errors += 1
        if stream in self._inbound:
            self._inbound.discard(stream)
            if exc is not None:
                self.connections_dropped += 1
        for dst, link in self._links.items():
            # Idempotent per dead stream: only the report that finds it
            # still cached counts the drop and takes the backoff step.
            if link.stream is stream:
                link.stream = None
                self.connections_dropped += 1
                self._arm_backoff(dst, link)
        for src, route in list(self._routes.items()):
            if route is stream:
                del self._routes[src]

    def _net_stats(self, src: str, request: NetStats, _: FrameStream) -> None:
        reply = NetStatsReply(
            request_id=request.request_id,
            node=self.node.node_id,
            messages_sent=self.messages_sent,
            bytes_sent=self.bytes_sent,
            messages_received=self.messages_received,
            bytes_received=self.bytes_received,
            frame_decode_errors=self.frame_decode_errors,
            connections_dropped=self.connections_dropped,
            redials=self.redials,
            backoff_resets=self.backoff_resets,
            outbox_shed=self.outbox_shed,
        )
        self._send(src, reply)

    def _sever(self, src: str, request: Sever, keep: FrameStream) -> None:
        """Tear down every established connection except ``keep``."""
        dropped = self._close_streams(keep)
        self.connections_dropped += dropped
        self._send(src, SeverDone(request.request_id, self.node.node_id, dropped))

    def _inject_garbage(
        self, src: str, request: GarbageInject, _: FrameStream
    ) -> None:
        """Write non-frame bytes into the live outbound stream to
        ``request.dst``, desyncing the peer's decoder."""
        link = self._links.get(request.dst)
        stream = link.stream if link is not None else None
        if stream is not None:
            stream.send_frame(request.payload or _GARBAGE)
        done = GarbageInjectDone(
            request.request_id, self.node.node_id, stream is not None
        )
        self._send(src, done)

    # ------------------------------------------------------------------
    def _fire_timer(self, key: str) -> None:
        if self._closed:
            return
        self._timers.pop(key, None)
        loop = asyncio.get_running_loop()
        self.apply_effects(self.node.on_timer(key, loop.time()))

    def apply_effects(self, effects: Effects) -> None:
        """Execute a node-produced effects bundle on this server's loop.

        Public so out-of-band node entry points (e.g.
        :meth:`~repro.core.keyspace.KeyedCrdtReplica.rejoin` after a
        recovery) can be driven through the same send/timer machinery as
        ``on_message``/``on_timer`` results.
        """
        loop = asyncio.get_running_loop()
        for key in effects.cancels:
            handle = self._timers.pop(key, None)
            if handle is not None:
                handle.cancel()
        for key, delay in effects.timers:
            existing = self._timers.pop(key, None)
            if existing is not None:
                existing.cancel()
            self._timers[key] = loop.call_later(delay, self._fire_timer, key)
        for dst, message in effects.sends:
            self._send(dst, message)

    def _send(self, dst: str, message: Any) -> None:
        """Encode (once per message object) and queue; never waits."""
        link = None
        if dst in self.peers:
            link = self._links.get(dst)
            if link is None:
                link = self._links[dst] = _PeerLink(self.policy.outbox_limit)
            stream = link.stream
        else:
            stream = self._routes.get(dst)
            if stream is None:
                return  # no route: drop
        if message is self._last_message:
            frame = self._last_frame
        else:
            try:
                frame = encode_frame(
                    (self.node.node_id, message), strict=self.strict
                )
            except SerializationError:
                self.encode_errors += 1
                return  # strict mode refused the message at the encoder
            self._last_message, self._last_frame = message, frame
        if stream is not None:
            self._hand(stream, frame)
            return
        self.outbox_shed += _put(link.outbox, frame)
        if not (link.dialing or self._closed):
            link.dialing = asyncio.ensure_future(self._dial(dst, link))

    def _hand(self, stream: FrameStream, frame: bytes) -> None:
        self.messages_sent += 1
        self.bytes_sent += len(frame)
        self.outbox_shed += stream.send_frame(frame)

    def _arm_backoff(self, dst: str, link: _PeerLink) -> None:
        link.failures += 1
        now = asyncio.get_running_loop().time()
        link.not_before = now + self._backoff_delay(dst, link.failures)

    def _backoff_delay(self, dst: str, failures: int) -> float:
        policy = self.policy
        delay = policy.redial_base * (
            policy.redial_multiplier ** max(0, failures - 1)
        )
        delay = min(delay, policy.redial_cap)
        if policy.redial_jitter:
            # Deterministic per (link, attempt): reproducible in tests,
            # de-synchronized across a fleet hammering one restarted
            # peer — same discipline as the proposer's re-drive jitter.
            seed = f"{self.node.node_id}->{dst}#{failures}".encode()
            unit = zlib.crc32(seed) / 0xFFFFFFFF
            delay *= 1.0 + policy.redial_jitter * (2.0 * unit - 1.0)
        return delay

    async def _dial(self, dst: str, link: _PeerLink) -> None:
        """Connect ``link`` while frames wait for it, one attempt per
        backoff window; on success the parked frames leave first."""
        loop = asyncio.get_running_loop()
        try:
            while link.outbox and link.stream is None and not self._closed:
                placement = self.peers.get(dst)
                if placement is None:
                    link.outbox.clear()  # no longer a peer: drop
                    return
                wait = link.not_before - loop.time()
                if wait > 0:
                    await asyncio.sleep(wait)
                    continue
                if link.connected_once or link.failures:
                    self.redials += 1
                try:
                    stream = await open_stream(
                        *placement, self, strict=self.strict,
                        limit=self.policy.outbox_limit,
                    )
                except (ConnectionError, OSError):
                    self._arm_backoff(dst, link)
                    continue
                if self._closed:
                    stream.close()
                    return
                if link.failures:
                    self.backoff_resets += 1
                    link.failures = 0
                    link.not_before = 0.0
                link.connected_once = True
                link.stream = stream
                for frame in link.outbox:
                    self._hand(stream, frame)
                link.outbox.clear()
        finally:
            link.dialing = None


class StreamClient:
    """Awaitable request/reply client over framed sockets.

    Mirrors :class:`~repro.runtime.asyncio_cluster.AsyncioClient` —
    replies correlate by ``request_id`` — but across process boundaries.
    Requests issued to one replica in one loop turn share a write, and a
    chunk of replies resolves all its futures from one ``data_received``.

    Failure handling is fail-fast: when a replica's connection dies
    (reset, EOF, frame desync) every pending future sent on it is
    rejected immediately with a typed
    :class:`~repro.errors.TransportError` instead of waiting out its
    request timeout, and :meth:`request_any` fails over across replicas,
    sticking with the last one that answered.
    """

    def __init__(
        self,
        client_id: str,
        replicas: dict[str, tuple[str, int]],
        strict: bool = True,
        preferred: str | None = None,
    ) -> None:
        self.client_id = client_id
        self._replicas = dict(replicas)
        self._order = sorted(replicas)
        self.strict = strict
        self._streams: dict[str, FrameStream] = {}
        #: The one in-flight dial per replica, shared by concurrent callers.
        self._dials: dict[str, asyncio.Task] = {}
        #: request_id → (future, the connection the request left on), so
        #: a dead connection rejects exactly its own pending futures.
        self._pending: dict[str, tuple[asyncio.Future, FrameStream]] = {}
        #: Preferred replica index for :meth:`request_any` (sticky:
        #: advanced on fail-over, so a dead home is not re-tried first
        #: on every call).
        self._preferred = self._order.index(preferred) if preferred else 0
        #: Unsolicited replies (late duplicates, refusals after timeout).
        self.stray_replies = 0
        #: Fail-over attempts made by :meth:`request_any`.
        self.failovers = 0
        #: ``transport.write`` calls over all connections.
        self.writes = 0

    async def _stream_to(self, replica: str) -> FrameStream:
        stream = self._streams.get(replica)
        if stream is not None:
            return stream
        dial = self._dials.get(replica)
        if dial is None:
            dial = self._dials[replica] = asyncio.ensure_future(
                self._dial(replica)
            )
        # Shielded: one caller's cancellation must not fail the others.
        return await asyncio.shield(dial)

    async def _dial(self, replica: str) -> FrameStream:
        try:
            placement = self._replicas.get(replica)
            if placement is None:
                raise TransportError(f"unknown replica {replica!r}")
            try:
                stream = await open_stream(*placement, self, strict=self.strict)
            except (ConnectionError, OSError) as exc:
                raise TransportError(
                    f"dial to replica {replica!r} at {placement} failed: {exc}"
                ) from exc
            self._streams[replica] = stream
            return stream
        finally:
            self._dials.pop(replica, None)

    # -- FrameStream owner ---------------------------------------------
    def stream_messages(
        self, stream: FrameStream, messages: list, nbytes: int
    ) -> None:
        pending = self._pending
        for _, payload in messages:
            entry = pending.pop(getattr(payload, "request_id", None), None)
            if entry is not None and not entry[0].done():
                entry[0].set_result(payload)
            else:
                self.stray_replies += 1

    def stream_lost(self, stream: FrameStream, exc: Exception | None) -> None:
        """Reject every pending future sent on ``stream`` right now — a
        dead connection can never deliver their replies, so making
        callers wait out their full request timeout is pure dead air."""
        for replica, cached in list(self._streams.items()):
            if cached is stream:
                del self._streams[replica]
        if isinstance(exc, SerializationError):
            reason = f"frame desync: {exc}"
        elif exc is not None:
            reason = f"connection error: {exc}"
        else:
            reason = "connection closed"
        for request_id, (future, sent_on) in list(self._pending.items()):
            if sent_on is stream:
                del self._pending[request_id]
                if not future.done():
                    future.set_exception(TransportError(
                        f"request {request_id} failed: its connection "
                        f"died ({reason})"
                    ))

    def _expire(
        self, future: asyncio.Future, request_id: str, replica: str,
        timeout: float,
    ) -> None:
        if not future.done():
            future.set_exception(RequestTimeout(
                f"request {request_id} to {replica} timed out after {timeout}s"
            ))

    async def request(
        self, replica: str, message: Any, timeout: float = 5.0
    ) -> Any:
        """Send ``message`` (which must carry a ``request_id``) to
        ``replica`` and await the correlated reply.

        Raises :class:`~repro.errors.TransportError` as soon as the
        connection is known dead (dial refused, connection lost) and
        :class:`~repro.errors.RequestTimeout` only when the replica
        stayed reachable but silent for ``timeout`` seconds.
        """
        request_id = message.request_id
        stream = self._streams.get(replica) or await self._stream_to(replica)
        stream.send((self.client_id, message))
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending[request_id] = (future, stream)
        expiry = loop.call_later(
            timeout, self._expire, future, request_id, replica, timeout
        )
        try:
            return await future
        finally:
            expiry.cancel()
            self._pending.pop(request_id, None)

    async def request_any(self, message: Any, timeout: float = 5.0) -> Any:
        """Send ``message`` to the preferred replica, failing over to the
        others on transport failure or timeout.

        ``timeout`` applies per attempt.  On success the answering
        replica becomes preferred (sticky fail-over: a killed home is
        not knocked on first for every subsequent request).  Raises the
        last error once every replica has been tried.
        """
        count = len(self._order)
        if count == 0:
            raise TransportError("no replicas configured")
        last: Exception | None = None
        for attempt in range(count):
            index = (self._preferred + attempt) % count
            replica = self._order[index]
            if attempt:
                self.failovers += 1
            try:
                reply = await self.request(replica, message, timeout=timeout)
            except (TransportError, RequestTimeout) as exc:
                last = exc
                continue
            self._preferred = index
            return reply
        assert last is not None
        raise last

    async def transport_stats(
        self, replica: str, timeout: float = 5.0
    ) -> NetStatsReply:
        """Fetch a replica process's socket-level traffic counters."""
        return await self.request(
            replica, NetStats(request_id=f"stats:{self.client_id}:{replica}"),
            timeout=timeout,
        )

    async def sever(self, replica: str, timeout: float = 5.0) -> SeverDone:
        """Nemesis: make ``replica`` drop every established connection."""
        return await self.request(
            replica, Sever(request_id=f"sever:{self.client_id}:{replica}"),
            timeout=timeout,
        )

    async def inject_garbage(
        self, replica: str, dst: str, payload: bytes = b"", timeout: float = 5.0
    ) -> GarbageInjectDone:
        """Nemesis: make ``replica`` write garbage into its live stream
        to ``dst``, poisoning the peer's frame decoder."""
        return await self.request(
            replica,
            GarbageInject(
                request_id=f"garbage:{self.client_id}:{replica}:{dst}",
                dst=dst,
                payload=payload,
            ),
            timeout=timeout,
        )

    async def close(self) -> None:
        for dial in list(self._dials.values()):
            dial.cancel()
        for stream in list(self._streams.values()):
            stream.close()
        self._dials.clear()
        self._streams.clear()
