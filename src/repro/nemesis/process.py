"""Process-level nemesis: real processes, real sockets, real SIGKILL.

PR 7's nemesis drives faults through the simulator; this module drives
them through the operating system.  A :class:`ProcessCluster` spawns one
OS process per replica — each a
:class:`~repro.net.stream.StreamNodeServer` around a
:class:`~repro.core.keyspace.KeyedCrdtReplica` with a
:class:`~repro.storage.SegmentedSpillStore` on disk — and the nemesis
verbs are the real thing:

* :meth:`ProcessCluster.kill` — SIGKILL the replica process mid-traffic
  (no atexit, no flush: whatever the durability policy persisted is all
  the next generation gets);
* :meth:`ProcessCluster.restart` — start a cold process over the dead
  generation's spill directory, rebuilding via
  :meth:`~repro.core.keyspace.KeyedCrdtReplica.recover` with
  ``rejoin=True`` (every recovered key refreshes its §3.3 pair from a
  read quorum before serving — the paper's log-less recovery story on
  actual hardware);
* :func:`~repro.net.stream.StreamClient.sever` /
  :func:`~repro.net.stream.StreamClient.inject_garbage` — tear down
  established TCP connections, or write garbage bytes into a live
  replica-to-replica stream, exercising the transport supervisor's
  teardown-and-redial path.

:func:`run_kill_campaign` is the checker-grade composition: closed-loop
client traffic sustained by fail-over across a SIGKILL outage, a marker
operation committed while the victim is dead, and — after the cold
restart — a linearizable read served by the *restarted* replica that
must include the op it missed.

Everything here requires working loopback sockets and process spawning;
callers gate on :func:`sockets_available` and the tests skip cleanly in
sandboxes (the established loopback-skip pattern).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import pathlib
import socket
import tempfile
import time
from dataclasses import dataclass
from typing import Any

from repro.core.config import CrdtPaxosConfig
from repro.errors import RequestTimeout, TransportError

_HOST = "127.0.0.1"
#: Seconds to wait for a replica process to signal ready.
_STARTUP_TIMEOUT = 30.0


def sockets_available() -> bool:
    """Probe whether loopback TCP actually works here.

    Sandboxes block sockets in creative ways (creation, bind, listen,
    or connect); a full listen+connect round trip is the only probe that
    catches them all.
    """
    try:
        with socket.socket() as listener:
            listener.bind((_HOST, 0))
            listener.listen(1)
            port = listener.getsockname()[1]
            with socket.create_connection((_HOST, port), timeout=2.0):
                pass
        return True
    except OSError:
        return False


def reserve_ports(count: int) -> list[int]:
    """``count`` distinct ephemeral ports, reserved by bind-and-release.

    The tiny race between release and the server process's bind is
    acceptable for a test cluster; SO_REUSEADDR keeps the kernel from
    holding the port in TIME_WAIT against us.
    """
    sockets, ports = [], []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((_HOST, 0))
            sockets.append(sock)
            ports.append(sock.getsockname()[1])
    finally:
        for sock in sockets:
            sock.close()
    return ports


def _factory_for(state: str):
    """``key → bottom payload`` factory by name (spawn needs picklable
    worker args, so the state type crosses the process boundary as a
    string, not a callable)."""
    if state == "gset":
        from repro.crdt.gset import GSet

        return lambda key: GSet.initial()
    if state == "gcounter":
        from repro.crdt.gcounter import GCounter

        return lambda key: GCounter.initial()
    raise ValueError(f"unknown replica state type {state!r}")


# ----------------------------------------------------------------------
# Replica process
# ----------------------------------------------------------------------
def _replica_worker(
    node_id: str,
    ports: dict[str, int],
    config: CrdtPaxosConfig,
    state: str,
    spill_dir: str | None,
    recovering: bool,
    ready: Any,
    stop: Any,
) -> None:
    """Entry point of one replica process (module-level so the spawn
    start method can import it)."""
    from repro.net.stream import uvloop_installed

    uvloop_installed()
    asyncio.run(
        _run_replica(
            node_id, ports, config, state, spill_dir, recovering, ready, stop
        )
    )


async def _run_replica(
    node_id: str,
    ports: dict[str, int],
    config: CrdtPaxosConfig,
    state: str,
    spill_dir: str | None,
    recovering: bool,
    ready: Any,
    stop: Any,
) -> None:
    from repro.core.keyspace import KeyedCrdtReplica
    from repro.net.stream import StreamNodeServer
    from repro.storage import SegmentedSpillStore

    peers = sorted(ports)
    factory = _factory_for(state)
    if spill_dir is not None:
        store = SegmentedSpillStore(spill_dir)
        if recovering:
            # The dead generation was SIGKILLed: no clean-shutdown
            # marker.  rejoin=True marks every stored key pending a
            # read-quorum refresh before it serves (§3.3 prepare).
            replica = KeyedCrdtReplica.recover(
                store, node_id, peers, factory, config, rejoin=True
            )
        else:
            replica = KeyedCrdtReplica(
                node_id, peers, factory, config, spill_store=store
            )
    else:
        replica = KeyedCrdtReplica(node_id, peers, factory, config)
    server = StreamNodeServer(
        replica,
        _HOST,
        ports[node_id],
        peers={nid: (_HOST, p) for nid, p in ports.items() if nid != node_id},
    )
    await server.start()
    if recovering and hasattr(replica, "rejoin"):
        # Open every pending refresh proactively so the replica
        # converges while idle instead of lazily on first touch.
        server.apply_effects(replica.rejoin())
    ready.set()
    # The stop event is a cross-process primitive; polling it beats
    # burning a thread on a blocking wait.
    while not stop.is_set():
        await asyncio.sleep(0.05)
    await server.close()


# ----------------------------------------------------------------------
# The cluster harness
# ----------------------------------------------------------------------
class ProcessCluster:
    """One OS process per replica, supervised from the parent.

    The cluster owns a spill directory per replica (inside ``data_dir``,
    or a self-cleaning temporary directory), so a SIGKILLed member can
    be restarted cold over its own durable state.  Usable as a context
    manager; :meth:`stop` is idempotent.
    """

    def __init__(
        self,
        n_replicas: int = 3,
        config: CrdtPaxosConfig | None = None,
        state: str = "gset",
        data_dir: str | None = None,
        durable: bool = True,
    ) -> None:
        self._ctx = multiprocessing.get_context("spawn")
        self.config = config or CrdtPaxosConfig()
        self.state = state
        self.durable = durable
        self.ports = {
            f"r{i}": port for i, port in enumerate(reserve_ports(n_replicas))
        }
        self._stop = self._ctx.Event()
        self._processes: dict[str, Any] = {}
        self._tempdir: tempfile.TemporaryDirectory | None = None
        if durable:
            if data_dir is None:
                self._tempdir = tempfile.TemporaryDirectory(
                    prefix="repro-nemesis-"
                )
                data_dir = self._tempdir.name
            self._data_dir: pathlib.Path | None = pathlib.Path(data_dir)
        else:
            self._data_dir = None

    # ------------------------------------------------------------------
    @property
    def replicas(self) -> list[str]:
        return sorted(self.ports)

    @property
    def placements(self) -> dict[str, tuple[str, int]]:
        return {nid: (_HOST, port) for nid, port in self.ports.items()}

    def spill_dir(self, node_id: str) -> str | None:
        if self._data_dir is None:
            return None
        return str(self._data_dir / node_id)

    def __enter__(self) -> "ProcessCluster":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def start(self, timeout: float = _STARTUP_TIMEOUT) -> None:
        readies = []
        for nid in self.replicas:
            readies.append(self._spawn(nid, recovering=False))
        deadline = time.monotonic() + timeout
        for nid, ready in zip(self.replicas, readies):
            if not ready.wait(timeout=max(0.0, deadline - time.monotonic())):
                raise TimeoutError(f"replica process {nid} failed to start")

    def _spawn(self, node_id: str, recovering: bool) -> Any:
        ready = self._ctx.Event()
        process = self._ctx.Process(
            target=_replica_worker,
            args=(
                node_id,
                self.ports,
                self.config,
                self.state,
                self.spill_dir(node_id),
                recovering,
                ready,
                self._stop,
            ),
            daemon=True,
        )
        process.start()
        self._processes[node_id] = process
        return ready

    def kill(self, node_id: str) -> None:
        """SIGKILL a replica process: RAM gone, sockets reset, no flush."""
        process = self._processes[node_id]
        process.kill()
        process.join(timeout=10.0)

    def is_alive(self, node_id: str) -> bool:
        process = self._processes.get(node_id)
        return process is not None and process.is_alive()

    def restart(
        self, node_id: str, timeout: float = _STARTUP_TIMEOUT
    ) -> None:
        """Cold-restart a killed replica over its spill directory.

        The new process recovers via ``recover(rejoin=True)``: stored
        keys refresh from a read quorum before first use, so promises
        the dead generation made after its last durable write can never
        be silently re-granted.  Requires ``durable=True``.
        """
        if self._data_dir is None:
            raise ValueError(
                "restart needs durable=True (a spill directory to recover "
                "from); a non-durable replica has no post-kill identity"
            )
        old = self._processes.get(node_id)
        if old is not None and old.is_alive():
            raise ValueError(f"replica {node_id} is still alive; kill it first")
        ready = self._spawn(node_id, recovering=True)
        if not ready.wait(timeout=timeout):
            raise TimeoutError(f"replica process {node_id} failed to restart")

    def stop(self) -> None:
        self._stop.set()
        for process in self._processes.values():
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        self._processes.clear()
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None


# ----------------------------------------------------------------------
# The checker-grade kill campaign
# ----------------------------------------------------------------------
@dataclass
class KillCampaignReport:
    """What the campaign observed; the asserting caller grades it."""

    #: Client ops acknowledged over the whole campaign.
    ops_total: int
    #: Ops acknowledged while the victim was dead (fail-over kept them
    #: flowing: must be > 0 for the outage to count as survived).
    ops_during_outage: int
    #: Fail-over attempts the client made.
    failovers: int
    #: The restarted replica answered a linearizable read containing the
    #: marker op committed while it was dead.
    missed_op_visible: bool
    #: Wall seconds from SIGKILL to the restarted replica answering.
    recovery_seconds: float
    #: Transport fault counters from the restarted victim, for
    #: exercised-ness assertions (redials observed by survivors etc.).
    victim_stats: Any | None
    survivor_stats: list[Any]


async def run_kill_campaign(
    cluster: ProcessCluster,
    victim: str | None = None,
    ops: int = 45,
    kill_after: int = 15,
    restart_after: int = 30,
    key: str = "survivors",
    timeout: float = 10.0,
) -> KillCampaignReport:
    """SIGKILL a replica mid-traffic, keep clients flowing by fail-over,
    cold-restart it, and make it answer for the op it missed.

    Timeline (in acknowledged client ops): drive the closed loop; at
    ``kill_after`` SIGKILL ``victim`` and commit a *marker* op through a
    survivor; at ``restart_after`` begin the cold restart (in a worker
    thread, traffic keeps flowing); after ``ops`` total, issue a
    linearizable read of ``key`` addressed to the restarted victim — the
    reply must contain the marker element the victim never saw.
    """
    from repro.core.keyspace import Keyed
    from repro.core.messages import ClientQuery, ClientUpdate, UpdateDone
    from repro.crdt.gset import Elements, GSetAdd
    from repro.net.stream import StreamClient

    if cluster.state != "gset":
        raise ValueError("the kill campaign drives GSet workloads")
    victim = victim or cluster.replicas[0]
    client = StreamClient("nemesis", cluster.placements)
    marker = f"missed-while-{victim}-was-dead"
    killed_at = 0.0
    restart_task: asyncio.Task | None = None
    done = 0
    during_outage = 0
    try:
        while done < ops:
            if done == kill_after and cluster.is_alive(victim):
                cluster.kill(victim)
                killed_at = time.perf_counter()
                # The marker: committed by the survivors while the
                # victim is dead — the restarted victim must later
                # serve a linearizable read that includes it.
                reply = await client.request_any(
                    Keyed(
                        key=key,
                        message=ClientUpdate("nemesis/marker", GSetAdd(marker)),
                    ),
                    timeout=timeout,
                )
                assert isinstance(
                    getattr(reply, "message", reply), UpdateDone
                ), f"marker op refused: {reply!r}"
            if done == restart_after and restart_task is None:
                restart_task = asyncio.get_running_loop().create_task(
                    asyncio.to_thread(cluster.restart, victim)
                )
            try:
                reply = await client.request_any(
                    Keyed(
                        key=key,
                        message=ClientUpdate(
                            f"nemesis/u{done}", GSetAdd(f"e{done}")
                        ),
                    ),
                    timeout=timeout,
                )
            except (TransportError, RequestTimeout):
                continue  # the whole ring failed this round: try again
            if isinstance(getattr(reply, "message", reply), UpdateDone):
                done += 1
                if killed_at and (
                    restart_task is None or not restart_task.done()
                ):
                    during_outage += 1
        if restart_task is None:
            restart_task = asyncio.get_running_loop().create_task(
                asyncio.to_thread(cluster.restart, victim)
            )
        await restart_task

        # The acceptance read: addressed to the restarted victim
        # directly (no fail-over — a survivor answering would prove
        # nothing).  Its rejoin gate buffers the query until the
        # read-quorum refresh completes, then the §3.4 certified read
        # must include the marker committed while it was dead.
        reply = await client.request(
            victim,
            Keyed(key=key, message=ClientQuery("nemesis/q-missed", Elements())),
            timeout=max(timeout, 15.0),
        )
        recovery_seconds = time.perf_counter() - killed_at
        result = getattr(reply, "message", reply).result
        missed_op_visible = marker in result

        victim_stats = await client.transport_stats(victim, timeout=timeout)
        survivor_stats = []
        for nid in cluster.replicas:
            if nid != victim:
                survivor_stats.append(
                    await client.transport_stats(nid, timeout=timeout)
                )
        return KillCampaignReport(
            ops_total=done,
            ops_during_outage=during_outage,
            failovers=client.failovers,
            missed_op_visible=missed_op_visible,
            recovery_seconds=recovery_seconds,
            victim_stats=victim_stats,
            survivor_stats=survivor_stats,
        )
    finally:
        await client.close()
