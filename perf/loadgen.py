"""The load generator: one process, one asyncio thread, one ``StreamClient``.

Socket workloads run 8 logical closed-loop clients multiplexed over the two
connections the client holds (homes ``r0`` and ``r1``), or — for the fault
run — an open loop at a fixed rate through ``request_any`` fail-over, each
request timed from the instant it was *due*.  Every reply is checked against
a model of what was acknowledged before the request was issued, and after
the window the final state is read back through every replica
(:meth:`Model.check_final`).  The direct workload feeds the same op stream
to :class:`~perf.rig.DirectRig`.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.api import codec
from repro.crdt.base import IdentityQuery
from repro.crdt.gcounter import GCounterValue, Increment
from repro.errors import RequestTimeout, TransportError
from repro.net.stream import StreamClient
from repro.wire import encode_frame, exact_wire_size

from perf.rig import DirectRig, SocketRig, peak_rss_kb, replica_counters
from perf.speed import TICK_S, kernel, speed_factor
from perf.trace import Tracer
from perf.workloads import OpStream, Workload, compile_op, lww_preload, lww_seq

#: Warm-up before the window opens (half the window when that is shorter);
#: long enough for the Zipf-hot keys to be resident on the durable runs.
WARMUP_S = 2.0
#: Full set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
PING_SAMPLES = 200
HOMES = ("r0", "r1")
REQUEST_TIMEOUT_S = 5.0
#: Keys read back through all three replicas after the window.
AGREEMENT_KEYS = 32
MARKER_KEY = "marker"
DIRECT_PRIME_OPS = 2000
DIRECT_SIZING_OPS = 2000


# ----------------------------------------------------------------------
# The model replies are checked against
# ----------------------------------------------------------------------
class Model:
    """What the generator knows was acknowledged, per key.

    Counters: ``acked`` increments, plus ``maybe`` for increments whose
    outcome is unknown (failed, or retried on another replica after a
    fail-over, which may apply twice).  LWW-Maps: the largest acknowledged
    put per field (puts carry their op number as timestamp), plus the puts
    with unknown outcome.
    """

    def __init__(self, payload: str) -> None:
        self.payload = payload
        self.acked: dict[Any, int] = {}
        self.maybe: dict[Any, int] = {}
        self.issued: dict[Any, int] = {}
        self.values: dict[Any, str] = {}
        self.unknown_puts: dict[Any, list[int]] = {}

    def _slot(self, op: tuple) -> Any:
        kind, key, arg = op
        if self.payload == "gcounter":
            return key
        return (key, arg if kind == "q" else arg[0])

    def issue(self, op: tuple) -> int:
        """Note an op leaving; returns the floor a read must reach."""
        slot = self._slot(op)
        if op[0] == "u":
            self.issued[slot] = self.issued.get(slot, 0) + 1
        return self.acked.get(slot, 0)

    def reply(self, op: tuple, completion: Any, floor: int, retried: int) -> str:
        """Grade one reply: ``"ok"``, ``"failed"`` or ``"wrong"``."""
        kind, _, arg = op
        slot = self._slot(op)
        counter = self.payload == "gcounter"
        done = completion is not None and completion.kind == (
            "update" if kind == "u" else "read"
        )
        if kind == "u":
            if counter:
                if done:
                    self.acked[slot] = self.acked.get(slot, 0) + 1
                if retried or not done:
                    self.maybe[slot] = self.maybe.get(slot, 0) + max(retried, 1)
            elif done:
                if arg[2] >= self.acked.get(slot, 0):
                    self.acked[slot] = arg[2]
                    self.values[slot] = arg[1]
            else:
                self.unknown_puts.setdefault(slot, []).append(arg[2])
            return "ok" if done else "failed"
        if not done:
            return "failed"
        result = completion.result
        if counter:
            ceiling = self.issued.get(slot, 0) + self.maybe.get(slot, 0)
            return "ok" if floor <= result <= ceiling else "wrong"
        if not isinstance(result, str) or lww_seq(result) < floor:
            return "wrong"
        return "ok"

    def check_final(self, slot: Any, observed: Any) -> bool:
        """Whether a read after quiesce matches what was acknowledged:
        exactly, when nothing about the slot is uncertain."""
        acked = self.acked.get(slot, 0)
        if self.payload == "gcounter":
            return acked <= observed <= acked + self.maybe.get(slot, 0)
        if not isinstance(observed, str):
            return False
        seen = lww_seq(observed)
        if seen == acked:
            return acked == 0 or observed == self.values[slot]
        return seen > acked and seen in self.unknown_puts.get(slot, ())


# ----------------------------------------------------------------------
# What one pass measured
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """Raw observations of one measured window (traced or not)."""

    workload: Workload
    seed: int
    traced: bool
    window_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    opstream_crc: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    verify_failed: int = 0
    verify_notes: list[str] = field(default_factory=list)
    update_ms: list[float] = field(default_factory=list)
    query_ms: list[float] = field(default_factory=list)
    round_trips: list[int] = field(default_factory=list)
    query_attempts: list[int] = field(default_factory=list)
    sched_lag_ms: list[float] = field(default_factory=list)
    done_at: list[float] = field(default_factory=list)
    within_limit: int = 0
    failovers: int = 0
    #: ``(time, updates done, queries done, CPU seconds of every process)``
    #: every ``TICK_S`` of the window.
    ticks: list[tuple[float, int, int, float]] = field(default_factory=list)
    #: ``(time, kernel seconds)`` samples of every process in the window.
    kernel: list[tuple[float, float]] = field(default_factory=list)
    generator_cpu_s: float = 0.0
    #: Per replica: counters accrued during the window.
    replicas: dict[str, dict[str, Any]] = field(default_factory=dict)
    client_trace: dict[str, Any] | None = None
    ping_us: list[float] = field(default_factory=list)
    payload_bytes: int = 0
    direct_wire_bytes_per_op: float = 0.0
    nemesis: dict[str, float] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return len(self.update_ms) + len(self.query_ms)

    def tick(self, cpu_s: float) -> None:
        now = time.perf_counter()
        self.ticks.append((now, len(self.update_ms), len(self.query_ms), cpu_s))
        self.kernel.append((now, kernel()))

    def record(self, kind: str, outcome: str, latency_ms: float, completion: Any,
               done_at: float) -> None:
        self.attempted += 1
        if outcome != "ok":
            self.failed += outcome == "failed"
            self.wrong += outcome == "wrong"
            return
        self.done_at.append(done_at)
        self.within_limit += latency_ms <= self.workload.limit_ms
        if kind == "u":
            self.update_ms.append(latency_ms)
        else:
            self.query_ms.append(latency_ms)
            self.round_trips.append(completion.round_trips)
            self.query_attempts.append(completion.attempts)


_GAUGES = frozenset({"rss_kb", "uvloop", "resident", "frozen", "spilled",
                     "disk_bytes", "max_update_pipeline"})


def delta(after: Any, before: Any) -> Any:
    """``after - before`` over nested counter dicts; gauges keep ``after``."""
    if isinstance(after, dict):
        before = before or {}
        return {
            name: value if name in _GAUGES else delta(value, before.get(name))
            for name, value in after.items()
        }
    if isinstance(after, bool) or not isinstance(after, (int, float)):
        return after
    return after - (before or 0)


def total(parts: list[Any], gauge: Any = sum, name: str = "") -> Any:
    """Sum nested counter dicts.  Across replicas gauges sum too (RSS, key
    counts, disk bytes); across two generations of one replica pass
    ``gauge=max``, since they never coexist."""
    parts = [p for p in parts if p is not None]
    if not parts:
        return None
    if isinstance(parts[0], dict):
        names = {n for part in parts for n in part}
        return {n: total([part.get(n) for part in parts], gauge, n) for n in names}
    if isinstance(parts[0], bool) or not isinstance(parts[0], (int, float)):
        return parts[0]
    return gauge(parts) if name in _GAUGES else sum(parts)


# ----------------------------------------------------------------------
# Socket workloads
# ----------------------------------------------------------------------
class _Session:
    """One set-up socket cluster plus the generator's client state."""

    def __init__(self, workload: Workload, rig: SocketRig, client: StreamClient) -> None:
        self.workload = workload
        self.rig = rig
        self.client = client
        self.model = Model(workload.payload)
        self.ids = codec.RequestIds("gen")
        self.recording: Pass | None = None
        self.stop = False

    async def issue(self, op: tuple, home: str | None, due: float | None = None) -> None:
        """Send one op, grade its reply, record it if the window is open."""
        client, model = self.client, self.model
        message = compile_op(codec, self.ids.next(), op, self.workload.payload)
        recording = self.recording
        floor = model.issue(op)
        failovers = client.failovers
        started = due if due is not None else time.perf_counter()
        try:
            if home is None:
                reply = await client.request_any(message, timeout=REQUEST_TIMEOUT_S)
            else:
                reply = await client.request(home, message, timeout=REQUEST_TIMEOUT_S)
            completion = codec.parse_completion(reply)
        except (RequestTimeout, TransportError):
            completion = None
        finished = time.perf_counter()
        outcome = model.reply(op, completion, floor, client.failovers - failovers)
        if recording is not None:
            recording.record(
                op[0], outcome, (finished - started) * 1e3, completion, finished
            )

    async def run_all(self, ops: list[tuple], lanes: int = 8) -> None:
        """Issue ``ops`` (set-up, verification) over ``lanes`` closed loops."""
        pending = iter(ops)

        async def lane(index: int) -> None:
            for op in pending:
                await self.issue(op, HOMES[index % len(HOMES)])

        await asyncio.gather(*(lane(i) for i in range(lanes)))

    async def read(self, key: str, via: str, whole: bool = False) -> Any:
        query = IdentityQuery() if whole or self.workload.payload == "lwwmap" \
            else GCounterValue()
        try:
            reply = await self.client.request(
                via, codec.compile_query(self.ids.next(), query, key),
                timeout=REQUEST_TIMEOUT_S,
            )
        except (RequestTimeout, TransportError):
            return None  # graded as a verification failure by the caller
        completion = codec.parse_completion(reply)
        return completion.result if completion.kind == "read" else None


async def _set_up(workload: Workload, traced: bool, trace_path: str | None,
                  stream: OpStream | None, ping_us: list[float]) -> _Session:
    """Spawn, connect, prime both homes, sample idle pings, preload."""
    rig = SocketRig(
        workload.make_config(), workload.payload, durable=workload.durable,
        traced=traced, trace_path=trace_path,
    )
    client = StreamClient("gen", rig.placements)
    session = _Session(workload, rig, client)
    try:
        rig.start()
        # One sequential request per home first: StreamClient dials once
        # per *concurrent* first caller.
        for home in HOMES:
            await client.transport_stats(home)
        for _ in range(PING_SAMPLES):
            began = time.perf_counter()
            await client.transport_stats(HOMES[0])
            ping_us.append((time.perf_counter() - began) * 1e6)
        if workload.payload == "lwwmap":
            await session.run_all(lww_preload(workload))
        elif workload.durable and stream is not None:
            # Touch every key once so residency and disk start populated.
            await session.run_all([("u", key, None) for key in stream.keys()], 32)
    except BaseException:
        await _tear_down(session)
        raise
    return session


async def _tear_down(session: _Session) -> None:
    await session.client.close()
    session.rig.stop()


async def _closed_loop(session: _Session, stream: OpStream) -> None:
    async def lane(index: int) -> None:
        home = HOMES[index % len(HOMES)]
        while not session.stop:
            await session.issue(next(stream), home)

    await asyncio.gather(*(lane(i) for i in range(session.workload.clients)))


async def _open_loop(session: _Session, stream: OpStream, result: Pass) -> None:
    interval = 1.0 / session.workload.rate
    origin = time.perf_counter()
    tasks: set[asyncio.Task] = set()
    sent = 0
    while not session.stop:
        due = origin + sent * interval
        wait = due - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        if session.recording is not None:
            result.sched_lag_ms.append((time.perf_counter() - due) * 1e3)
        task = asyncio.ensure_future(session.issue(next(stream), None, due))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
        sent += 1
    await asyncio.gather(*tasks)


async def _nemesis(session: _Session, seconds: float, result: Pass,
                   killed: dict[str, Any]) -> None:
    """SIGKILL r0 a third into the window, commit a marker while it is
    dead, cold-restart it two thirds in, then make *it* serve the marker.
    How long it stays dead is the schedule's choice, so recovery is timed
    from the restart, not from the kill."""
    rig, client, victim = session.rig, session.client, "r0"
    await asyncio.sleep(seconds / 3)
    killed[victim] = rig.kill(victim)
    killed_at = time.perf_counter()
    marker = codec.compile_update("nemesis#marker", Increment(1), MARKER_KEY)
    read = codec.compile_query("nemesis#read", GCounterValue(), MARKER_KEY)
    served = None
    try:
        await client.request_any(marker, timeout=REQUEST_TIMEOUT_S)
    except (RequestTimeout, TransportError) as exc:
        result.verify_notes.append(f"nemesis marker: {exc}")
    await asyncio.sleep(max(0.0, killed_at + seconds / 3 - time.perf_counter()))
    restarted_at = time.perf_counter()
    result.nemesis["restart_s"] = await asyncio.to_thread(rig.restart, victim)
    try:
        reply = await client.request(victim, read, timeout=15.0)
        served = codec.parse_completion(reply).result
    except (RequestTimeout, TransportError) as exc:
        result.verify_notes.append(f"nemesis read: {exc}")
    result.nemesis["recover_to_serving_s"] = time.perf_counter() - restarted_at
    # Anything but 1 fails the run in ``_verify``.
    result.nemesis["marker_served"] = float(served == 1)


async def _verify(session: _Session, stream: OpStream, result: Pass) -> None:
    """Read the final state back: conservation per key (through the
    restarted victim on the fault run) and agreement across replicas."""
    model, workload = session.model, session.workload
    keys = stream.keys()
    observed: dict[str, Any] = {}
    pending = iter(keys)

    async def lane(index: int) -> None:
        via = "r0" if workload.kill else HOMES[index % len(HOMES)]
        for key in pending:
            observed[key] = await session.read(key, via)

    await asyncio.gather(*(lane(i) for i in range(16)))
    bad = 0
    for key in keys:
        state = observed[key]
        if workload.payload == "gcounter":
            bad += not model.check_final(key, state)
            continue
        fields = dict(state.entries) if state is not None else {}
        for slot in [s for s in model.acked if s[0] == key]:
            value = fields.get(slot[1], (None,))[0]
            bad += not model.check_final(slot, value)
    if bad:
        result.verify_notes.append(f"{bad} slots differ from what was acknowledged")
    sample = random.Random(result.seed).sample(keys, min(AGREEMENT_KEYS, len(keys)))
    split = 0
    for key in sample:
        answers = [await session.read(key, via) for via in session.rig.replicas]
        split += any(answer != answers[0] for answer in answers[1:])
    if split:
        result.verify_notes.append(f"{split} keys answered differently by replicas")
    if workload.kill and result.nemesis.get("marker_served") != 1.0:
        bad += 1
        result.verify_notes.append("restarted victim did not serve the marker")
    result.verify_failed = bad + split
    whole = await session.read(keys[0], HOMES[0], whole=True)
    result.payload_bytes = exact_wire_size(whole)


@contextlib.contextmanager
def _timed_setup(result: Pass):
    """Time one set-up, scaled by the box's speed just before and after."""
    kernel_s = [kernel() for _ in range(5)]
    began = time.perf_counter()
    yield
    elapsed = time.perf_counter() - began
    kernel_s += [kernel() for _ in range(5)]
    result.setup_s.append(elapsed / speed_factor(kernel_s))


async def _tick(session: _Session, result: Pass, cpu_s: Callable[[], float]) -> None:
    while session.recording is result:
        result.tick(cpu_s())
        await asyncio.sleep(TICK_S)
    result.tick(cpu_s())


async def socket_pass(workload: Workload, seed: int, seconds: float,
                      traced: bool, trace_path: str | None,
                      setup_repeats: int) -> Pass:
    result = Pass(workload, seed, traced)
    stream = OpStream(workload, seed)
    result.opstream_crc = stream.crc
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install_client_side()
    session = None
    try:
        for _ in range(setup_repeats):
            if session is not None:
                await _tear_down(session)
            result.ping_us.clear()
            with _timed_setup(result):
                session = await _set_up(
                    workload, traced, trace_path, stream, result.ping_us
                )
        rig = session.rig
        killed: dict[str, Any] = {}
        load = asyncio.ensure_future(
            _open_loop(session, stream, result) if workload.rate
            else _closed_loop(session, stream)
        )
        await asyncio.sleep(min(WARMUP_S, seconds / 2))
        before = rig.snapshot()
        client_before = tracer.summary() if tracer else None
        cpu_before = time.process_time()
        failovers_before = session.client.failovers
        opened = time.perf_counter()
        session.recording = result
        ticking = asyncio.ensure_future(_tick(
            session, result, lambda: rig.cpu_s() + time.process_time()
        ))
        if workload.kill:
            await _nemesis(session, seconds, result, killed)
        await asyncio.sleep(max(0.0, opened + seconds - time.perf_counter()))
        session.recording = None
        session.stop = True
        await ticking
        result.window_s = time.perf_counter() - opened
        after = rig.snapshot()
        result.generator_cpu_s = time.process_time() - cpu_before
        result.failovers = session.client.failovers - failovers_before
        if tracer:
            result.client_trace = delta(tracer.summary(), client_before)
        await load
        for snaps, keep in ((before, False), (killed, True), (after, True)):
            for snap in snaps.values():
                samples = snap.pop("kernel")
                if keep:
                    result.kernel += samples
        for nid in rig.replicas:
            if nid in killed:
                # The dead generation up to its kill, plus the new one.
                result.replicas[nid] = total(
                    [delta(killed[nid], before[nid]), after[nid]], gauge=max
                )
            else:
                result.replicas[nid] = delta(after[nid], before[nid])
        await _verify(session, stream, result)
    finally:
        if tracer:
            tracer.uninstall()
        if session is not None:
            await _tear_down(session)
    if tracer and trace_path:
        tracer.write_spans(f"{trace_path}.gen", "gen")
    return result


# ----------------------------------------------------------------------
# The direct workload
# ----------------------------------------------------------------------
def direct_pass(workload: Workload, seed: int, seconds: float,
                traced: bool, trace_path: str | None, setup_repeats: int) -> Pass:
    result = Pass(workload, seed, traced)
    stream = OpStream(workload, seed)
    result.opstream_crc = stream.crc
    model = Model(workload.payload)
    ids = codec.RequestIds("gen")
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install_replica_side()
        tracer.install_client_side()

    def issue(rig: DirectRig, op: tuple, record: bool) -> None:
        message = compile_op(codec, ids.next(), op, workload.payload)
        floor = model.issue(op)
        started = time.perf_counter()
        reply = rig.request(HOMES[ids.issued % len(HOMES)], message)
        completion = codec.parse_completion(reply)
        finished = time.perf_counter()
        outcome = model.reply(op, completion, floor, 0)
        if record:
            result.record(op[0], outcome, (finished - started) * 1e3, completion,
                          finished)

    try:
        for _ in range(setup_repeats):
            with _timed_setup(result):
                model = Model(workload.payload)
                rig = DirectRig(workload.make_config(), workload.payload, tracer)
                for _ in range(DIRECT_PRIME_OPS):
                    issue(rig, next(stream), False)
        warm_until = time.perf_counter() + min(WARMUP_S, seconds / 2)
        while time.perf_counter() < warm_until:
            issue(rig, next(stream), False)
        trace_before = tracer.summary() if tracer else None
        before = {nid: _direct_counters(rig, nid) for nid in rig.replicas}
        cpu_before = time.process_time()
        opened = time.perf_counter()
        closes = opened + seconds
        while True:
            result.tick(time.process_time())
            next_tick = time.perf_counter() + TICK_S
            if next_tick > closes:
                break
            while time.perf_counter() < next_tick:
                issue(rig, next(stream), True)
        result.window_s = time.perf_counter() - opened
        result.generator_cpu_s = time.process_time() - cpu_before
        for nid in rig.replicas:
            result.replicas[nid] = delta(_direct_counters(rig, nid), before[nid])
        if tracer:
            # One process: every layer's spans land in the same tracer.
            result.client_trace = delta(tracer.summary(), trace_before)

        # Sizing pass, outside the window: what these messages would weigh
        # on the wire (replica-outbound, as the socket rig counts them).
        rig.sent = []
        for _ in range(DIRECT_SIZING_OPS):
            issue(rig, next(stream), False)
        result.direct_wire_bytes_per_op = sum(
            len(encode_frame(pair, strict=True)) for pair in rig.sent
        ) / DIRECT_SIZING_OPS
        rig.sent = None

        bad = split = 0
        for key in stream.keys():
            answers = [
                codec.parse_completion(rig.request(
                    via, codec.compile_query(ids.next(), GCounterValue(), key)
                )).result
                for via in rig.replicas
            ]
            bad += not model.check_final(key, answers[0])
            split += any(answer != answers[0] for answer in answers[1:])
        result.verify_failed = bad + split
        if bad or split:
            result.verify_notes.append(
                f"{bad} keys lost increments, {split} keys split across replicas"
            )
        result.payload_bytes = exact_wire_size(rig.raw["r0"].state_of(stream.keys()[0]))
    finally:
        if tracer:
            tracer.uninstall()
    if tracer and trace_path:
        tracer.write_spans(f"{trace_path}.gen", "gen")
    return result


def _direct_counters(rig: DirectRig, nid: str) -> dict[str, Any]:
    snap = replica_counters(rig.raw[nid], None)
    # One process hosts everything: charge its RSS once, its CPU via
    # ``generator_cpu_s``.
    snap["rss_kb"] = peak_rss_kb() if nid == "r0" else 0
    snap["cpu_s"] = 0.0
    snap["uvloop"] = False
    snap["net"] = {}
    snap["trace"] = None
    return snap


def run_pass(workload: Workload, seed: int, seconds: float, traced: bool = False,
             trace_path: str | None = None,
             setup_repeats: int = SETUP_REPEATS) -> Pass:
    """One measured window of ``workload``: set up ``setup_repeats`` times
    (``setup_s`` is their median), warm up, measure, verify, tear down."""
    if workload.rig == "direct":
        return direct_pass(workload, seed, seconds, traced, trace_path, setup_repeats)
    return asyncio.run(
        socket_pass(workload, seed, seconds, traced, trace_path, setup_repeats)
    )
