"""The benchmark's own rigs: a multi-process socket cluster and an
in-process pump.

:class:`SocketRig` spawns one OS process per replica (spawn context), each
a ``StreamNodeServer`` around a ``KeyedCrdtReplica`` built only from public
constructors, so the benchmark — not ``repro.bench`` — picks the payload
type and config and can install the tracer inside the replica processes.
The parent talks to each worker over a pipe: ``"snapshot"`` returns the
worker's counters, CPU time, peak RSS and speed samples (``perf.speed``),
taken at the window edges so per-op numbers cover the measured window only;
``"stop"`` shuts it down.
A worker whose pipe closes exits on its own, so a crashed parent leaves no
replica behind.

:class:`DirectRig` is the protocol floor: the same replicas in this process,
messages handed from ``effects.sends`` straight to the next ``on_message``
— no codec, no sockets, no processes.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import pathlib
import shutil
import socket
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.core.config import CrdtPaxosConfig

from perf.speed import TICK_S, kernel

HOST = "127.0.0.1"
STARTUP_TIMEOUT = 60.0
#: Where rigs keep spill directories; inside the checkout, git-ignored.
WORK_ROOT = pathlib.Path(__file__).resolve().parent / "results" / "work"


def sockets_available() -> bool:
    """Whether a loopback listen+connect round trip works here."""
    try:
        with socket.socket() as listener:
            listener.bind((HOST, 0))
            listener.listen(1)
            with socket.create_connection(listener.getsockname(), timeout=2.0):
                pass
        return True
    except OSError:
        return False


def reserve_ports(count: int) -> list[int]:
    """``count`` distinct free ports (bind, note, release)."""
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((HOST, 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def payload_factory(payload: str):
    """``key -> bottom payload`` by name (a name pickles, a lambda does not)."""
    if payload == "gcounter":
        from repro.crdt.gcounter import GCounter

        return lambda key: GCounter.initial()
    if payload == "lwwmap":
        from repro.crdt.lwwmap import LWWMap

        return lambda key: LWWMap.initial()
    raise ValueError(f"unknown payload type {payload!r}")


@dataclass(frozen=True)
class ReplicaSpec:
    """Everything one replica process is told.  Neither the seed nor the
    workload's name is here: the program sees only generated ops."""

    node_id: str
    ports: dict[str, int]
    config: CrdtPaxosConfig
    payload: str
    spill_dir: str | None
    recovering: bool
    traced: bool
    trace_path: str | None


def peak_rss_kb() -> int:
    """This process's own peak resident set (``VmHWM``).  ``ru_maxrss`` will
    not do: a spawned child inherits the parent's high-water mark, so it
    would report the generator's memory, not the replica's."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def replica_counters(replica: Any, store: Any) -> dict[str, Any]:
    """Protocol, residency and storage counters of one replica, read from
    the public stats objects (available traced or not)."""
    return {
        "proposer": replica.stats.snapshot(),
        "acceptor": replica.acceptor_stats.snapshot(),
        "keyed": {
            "evictions": replica.evictions,
            "rehydrations": replica.rehydrations,
            "spills": replica.spills,
            "spill_loads": replica.spill_loads,
            "persists": replica.write_through_persists,
            "rejoin_refreshes": replica.rejoin_refreshes,
            "resident": replica.resident_count(),
            "frozen": replica.frozen_count(),
            "spilled": replica.spilled_count(),
        },
        "disk_bytes": store.total_bytes() if store is not None else 0,
    }


def _replica_main(spec: ReplicaSpec, conn: Any) -> None:
    """Entry point of one replica process."""
    from repro.net.stream import uvloop_installed

    uvloop = uvloop_installed()
    asyncio.run(_serve(spec, conn, uvloop))


async def _serve(spec: ReplicaSpec, conn: Any, uvloop: bool) -> None:
    from repro.core.keyspace import KeyedCrdtReplica
    from repro.net.stream import StreamNodeServer
    from repro.storage import SegmentedSpillStore

    tracer = None
    if spec.traced:
        from perf.trace import TracedNode, TracedStore, Tracer

        tracer = Tracer()
        tracer.install_replica_side()

    peers = sorted(spec.ports)
    factory = payload_factory(spec.payload)
    store = raw_store = None
    if spec.spill_dir is not None:
        store = raw_store = SegmentedSpillStore(spec.spill_dir)
        if tracer is not None:
            store = TracedStore(raw_store, tracer)
    if spec.recovering:
        replica = KeyedCrdtReplica.recover(
            store, spec.node_id, peers, factory, spec.config, rejoin=True
        )
    else:
        replica = KeyedCrdtReplica(
            spec.node_id, peers, factory, spec.config, spill_store=store
        )
    node = TracedNode(replica, tracer) if tracer is not None else replica
    server = StreamNodeServer(
        node,
        HOST,
        spec.ports[spec.node_id],
        peers={n: (HOST, p) for n, p in spec.ports.items() if n != spec.node_id},
    )
    # A recovered replica refreshes each stored key from a read quorum
    # lazily, on first touch.  The proactive ``replica.rejoin()`` opens every
    # refresh at once: with thousands of stored keys that burst overflows the
    # transport's 512-message outbox and most of it is shed (see README).
    await server.start()

    kernel_samples: list[tuple[float, float]] = []

    async def sample_kernel() -> None:
        while True:
            kernel_samples.append((time.perf_counter(), kernel()))
            await asyncio.sleep(TICK_S)

    def snapshot() -> dict[str, Any]:
        snap = replica_counters(replica, raw_store)
        # Samples since the previous snapshot; ``perf_counter`` is the
        # system-wide monotonic clock, so the generator can place them.
        snap["kernel"] = kernel_samples[:]
        kernel_samples.clear()
        snap["cpu_s"] = time.process_time()
        snap["rss_kb"] = peak_rss_kb()
        snap["uvloop"] = uvloop
        snap["net"] = {
            name: getattr(server, name)
            for name in (
                "messages_sent", "bytes_sent", "messages_received",
                "bytes_received", "frame_decode_errors", "connections_dropped",
                "redials", "outbox_shed", "encode_errors",
            )
        }
        snap["trace"] = tracer.summary() if tracer is not None else None
        return snap

    loop = asyncio.get_running_loop()
    stopped = asyncio.Event()

    def on_command() -> None:
        try:
            command = conn.recv()
        except (EOFError, OSError):
            command = "stop"  # the parent is gone
        if command == "snapshot":
            conn.send(snapshot())
        else:
            stopped.set()

    loop.add_reader(conn.fileno(), on_command)
    sampling = asyncio.ensure_future(sample_kernel())
    conn.send("ready")
    await stopped.wait()
    sampling.cancel()
    loop.remove_reader(conn.fileno())
    await server.close()
    # Let the inbound handlers finish their EOF path; torn down mid-close
    # by asyncio.run they log a CancelledError traceback each.
    await asyncio.sleep(0.02)
    if raw_store is not None:
        raw_store.close()
    if tracer is not None and spec.trace_path is not None:
        tracer.write_spans(f"{spec.trace_path}.{spec.node_id}", spec.node_id)


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    The first spawn-context ``Process.start()`` launches a tracker process
    that nothing ever waits for: it ends on its own only once this process
    has exited and its pipe closed, so for a moment it outlives the
    benchmark.  With every worker joined this process holds the pipe's last
    write end, so closing it ends the tracker at once; the next spawn starts
    a fresh one.  ``_stop`` is private, but it is the only handle there is."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if tracker._pid is not None:  # launched here, not inherited from a parent
        tracker._stop()


class SocketRig:
    """Three replica processes on loopback, owned by the benchmark."""

    def __init__(
        self,
        config: CrdtPaxosConfig,
        payload: str,
        durable: bool = False,
        traced: bool = False,
        trace_path: str | None = None,
    ) -> None:
        self._ctx = multiprocessing.get_context("spawn")
        self.config = config
        self.payload = payload
        self.traced = traced
        self.trace_path = trace_path
        self.replicas = ["r0", "r1", "r2"]
        self.ports = dict(zip(self.replicas, reserve_ports(len(self.replicas))))
        self._workers: dict[str, tuple[Any, Any]] = {}
        self._killed_cpu_s = 0.0
        self._workdir: str | None = None
        if durable:
            WORK_ROOT.mkdir(parents=True, exist_ok=True)
            self._workdir = tempfile.mkdtemp(prefix="rig-", dir=WORK_ROOT)

    @property
    def placements(self) -> dict[str, tuple[str, int]]:
        return {nid: (HOST, port) for nid, port in self.ports.items()}

    def cpu_s(self) -> float:
        """User+system CPU seconds of every replica process so far, killed
        generations included, read from ``/proc/<pid>/stat`` so that asking
        costs the replicas nothing."""
        ticks = 0
        for process, _ in self._workers.values():
            try:
                with open(f"/proc/{process.pid}/stat", encoding="ascii") as stat:
                    fields = stat.read().rsplit(") ", 1)[1].split()
            except OSError:
                continue  # killed, and its CPU is in ``_killed_cpu_s``
            ticks += int(fields[11]) + int(fields[12])
        return self._killed_cpu_s + ticks / os.sysconf("SC_CLK_TCK")

    # ------------------------------------------------------------------
    def _spawn(self, node_id: str, recovering: bool) -> None:
        spill_dir = (
            str(pathlib.Path(self._workdir) / node_id) if self._workdir else None
        )
        spec = ReplicaSpec(
            node_id, self.ports, self.config, self.payload, spill_dir,
            recovering, self.traced, self.trace_path,
        )
        parent, child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_replica_main, args=(spec, child), daemon=True
        )
        process.start()
        child.close()
        self._workers[node_id] = (process, parent)

    def _await_ready(self, node_id: str, deadline: float) -> None:
        _, conn = self._workers[node_id]
        if not conn.poll(max(0.0, deadline - time.monotonic())):
            raise TimeoutError(f"replica process {node_id} failed to start")
        try:
            conn.recv()
        except EOFError:
            raise TimeoutError(f"replica process {node_id} died at start") from None

    def start(self) -> None:
        for nid in self.replicas:
            self._spawn(nid, recovering=False)
        deadline = time.monotonic() + STARTUP_TIMEOUT
        for nid in self.replicas:
            self._await_ready(nid, deadline)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Counters of every live replica, asked for together."""
        live = {
            nid: conn for nid, (process, conn) in self._workers.items()
            if process.is_alive()
        }
        for conn in live.values():
            conn.send("snapshot")
        return {nid: conn.recv() for nid, conn in live.items()}

    def kill(self, node_id: str) -> dict[str, Any]:
        """SIGKILL one replica; returns its last snapshot, taken just
        before (its counters die with it)."""
        process, conn = self._workers[node_id]
        conn.send("snapshot")
        last = conn.recv()
        process.kill()
        process.join(timeout=10.0)
        conn.close()
        self._killed_cpu_s += last["cpu_s"]
        return last

    def restart(self, node_id: str) -> float:
        """Cold-restart a killed replica over its spill directory via
        ``recover(rejoin=True)``; returns spawn-to-ready seconds."""
        started = time.perf_counter()
        self._spawn(node_id, recovering=True)
        self._await_ready(node_id, time.monotonic() + STARTUP_TIMEOUT)
        return time.perf_counter() - started

    def stop(self) -> None:
        """Stop every worker and multiprocessing's resource tracker, wait
        for each, and remove the spill directories."""
        for process, conn in self._workers.values():
            if not process.is_alive():
                continue
            try:
                conn.send("stop")
            except OSError:
                pass  # died on its own; join below reaps it
        for process, conn in self._workers.values():
            process.join(timeout=10.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=10.0)
            conn.close()
        self._workers.clear()
        if self._workdir is not None:
            shutil.rmtree(self._workdir, ignore_errors=True)
            self._workdir = None
        stop_resource_tracker()


class DirectRig:
    """Three replicas in this process, driven by a synchronous pump."""

    CLIENT = "client"

    def __init__(self, config: CrdtPaxosConfig, payload: str, tracer: Any = None) -> None:
        from repro.core.keyspace import KeyedCrdtReplica

        self.replicas = ["r0", "r1", "r2"]
        factory = payload_factory(payload)
        self.nodes: dict[str, Any] = {}
        self.raw: dict[str, Any] = {}
        for nid in self.replicas:
            replica = KeyedCrdtReplica(nid, self.replicas, factory, config)
            self.raw[nid] = replica
            if tracer is not None:
                from perf.trace import TracedNode

                replica = TracedNode(replica, tracer)
            self.nodes[nid] = replica
        #: Every message delivered, when a sizing pass asks for them.
        self.sent: list[tuple[str, Any]] | None = None
        for node in self.nodes.values():
            node.on_start(time.monotonic())

    def request(self, home: str, message: Any) -> Any:
        """Deliver one client message and every message it causes, in FIFO
        order, until nothing is in flight; returns the client's reply.
        Timers are never fired: nothing is lost, so nothing is re-driven."""
        nodes, client, sent = self.nodes, self.CLIENT, self.sent
        now = time.monotonic()
        reply = None
        queue = deque([(client, home, message)])
        while queue:
            src, dst, msg = queue.popleft()
            if dst == client:
                reply = msg
                if sent is not None:
                    sent.append((src, msg))
                continue
            if sent is not None and src != client:
                sent.append((src, msg))
            for nxt, out in nodes[dst].on_message(src, msg, now).sends:
                queue.append((dst, nxt, out))
        return reply
