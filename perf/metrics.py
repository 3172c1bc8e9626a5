"""Metric definitions and how each is computed from a measured pass.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names, units,
directions and bounds; ``BENCHMARK.json`` repeats them (the smoke test holds
the two equal).  Each per-layer entry also records the prediction written
down before measuring: the end-to-end metric it should move, and on which
workload.  ``BENCHMARK.json`` has no field for that, so it lives here and in
the README's table.

Every metric is reported on every workload.  Where a layer does no work on a
workload (``storage`` on the non-durable ones, ``wire``/``net`` on the direct
pump) its per-layer counts and times read 0: that *is* the measurement.

Times and closed-loop rates are *speed-normalised* (see ``perf.speed``):
the end-to-end ones slice by slice, reporting the median slice; the per-layer
ones by the traced window's one factor, which ``client.speed_factor`` reports
so the raw value can be had back.  Counts, bytes and shares are as counted.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from bisect import bisect_right
from statistics import median

from perf.loadgen import Pass, total
from perf.speed import speed_factor


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str  # "<end-to-end metric> on <workload>", predicted beforehand


END_TO_END = [
    EndToEnd("ops_s", "1/s", "higher", 0.25),
    EndToEnd("update_p50_ms", "ms", "lower", 0.25),
    EndToEnd("query_p50_ms", "ms", "lower", 0.25),
    EndToEnd("update_p95_ms", "ms", "lower", 0.25),
    EndToEnd("query_p95_ms", "ms", "lower", 0.25),
    EndToEnd("ok_share", "share", "higher", 0.02),
    EndToEnd("slo_share", "share", "higher", 0.08),
    EndToEnd("cpu_us_per_op", "us", "lower", 0.25),
    EndToEnd("wire_bytes_per_op", "B", "lower", 0.08),
    EndToEnd("query_rt_mean", "count", "lower", 0.10),
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10),
]

_SMALL = "sock_small_update"
_READ = "sock_small_read90"
_LARGE = "sock_large_lwwmap"
_ZIPF = "sock_durable_zipf"
_KILL = "sock_durable_kill"
_DIRECT = "direct_small_update"

PER_LAYER = [
    PerLayer("api.compile_us_per_op", "us", "lower", f"cpu_us_per_op on {_SMALL}"),
    PerLayer("api.parse_us_per_op", "us", "lower", f"cpu_us_per_op on {_SMALL}"),
    PerLayer("api.failovers_per_op", "count", "lower", f"slo_share on {_KILL}"),
    PerLayer("wire.encode_us_per_frame", "us", "lower", f"cpu_us_per_op on {_SMALL}"),
    PerLayer("wire.decode_us_per_frame", "us", "lower", f"cpu_us_per_op on {_SMALL}"),
    PerLayer("wire.encode_us_per_op", "us", "lower", f"ops_s on {_LARGE}"),
    PerLayer("wire.decode_us_per_op", "us", "lower", f"ops_s on {_LARGE}"),
    PerLayer("wire.frames_per_op", "count", "lower", f"ops_s on {_READ}"),
    PerLayer("wire.bytes_per_frame", "B", "lower", f"wire_bytes_per_op on {_LARGE}"),
    PerLayer("wire.encode_errors", "count", "lower", f"ok_share on {_KILL}"),
    PerLayer("net.cpu_us_per_op", "us", "lower", f"ops_s on {_SMALL}"),
    PerLayer("net.msgs_per_op", "count", "lower", f"update_p50_ms on {_SMALL}"),
    PerLayer("net.bytes_in_per_op", "B", "lower", f"wire_bytes_per_op on {_LARGE}"),
    PerLayer("net.ping_p50_us", "us", "lower", f"update_p50_ms on {_SMALL}"),
    PerLayer("net.outbox_shed", "count", "lower", f"ok_share on {_KILL}"),
    PerLayer("net.redials", "count", "lower", f"ok_share on {_KILL}"),
    PerLayer("net.connections_dropped", "count", "lower", f"ok_share on {_KILL}"),
    PerLayer("net.frame_decode_errors", "count", "lower", f"ok_share on {_KILL}"),
    PerLayer("net.uvloop", "count", "higher", f"ops_s on {_SMALL}"),
    PerLayer("core.self_us_per_op", "us", "lower", f"ops_s on {_DIRECT}"),
    PerLayer("core.calls_per_op", "count", "lower", f"ops_s on {_DIRECT}"),
    PerLayer("core.timer_fires_per_op", "count", "lower", f"cpu_us_per_op on {_KILL}"),
    PerLayer("core.query_rt1_share", "share", "higher", f"query_rt_mean on {_READ}"),
    PerLayer("core.query_rt_le3_share", "share", "higher", f"query_p95_ms on {_READ}"),
    PerLayer("core.query_rt_max", "count", "lower", f"query_p95_ms on {_READ}"),
    PerLayer("core.query_attempts_mean", "count", "lower", f"query_rt_mean on {_READ}"),
    PerLayer("core.fast_path_share", "share", "higher", f"query_p50_ms on {_READ}"),
    PerLayer("core.prepare_retries_per_op", "count", "lower", f"query_rt_mean on {_READ}"),
    PerLayer("core.vote_retries_per_op", "count", "lower", f"query_rt_mean on {_READ}"),
    PerLayer("core.timeouts", "count", "lower", f"slo_share on {_KILL}"),
    PerLayer("core.merges_per_update", "count", "lower", f"update_p50_ms on {_SMALL}"),
    PerLayer("core.evictions_per_op", "count", "lower", f"ops_s on {_ZIPF}"),
    PerLayer("core.rehydrations_per_op", "count", "lower", f"ops_s on {_ZIPF}"),
    PerLayer("core.resident_keys", "count", "lower", f"peak_rss_mb on {_ZIPF}"),
    PerLayer("core.frozen_keys", "count", "lower", f"peak_rss_mb on {_ZIPF}"),
    PerLayer("core.spilled_keys", "count", "lower", f"ops_s on {_ZIPF}"),
    PerLayer("core.rejoin_refreshes", "count", "lower", f"slo_share on {_KILL}"),
    PerLayer("crdt.join_us_per_op", "us", "lower", f"update_p50_ms on {_LARGE}"),
    PerLayer("crdt.joins_per_op", "count", "lower", f"cpu_us_per_op on {_LARGE}"),
    PerLayer("crdt.apply_us_per_op", "us", "lower", f"update_p50_ms on {_LARGE}"),
    PerLayer("crdt.delta_us_per_op", "us", "lower", f"cpu_us_per_op on {_LARGE}"),
    PerLayer("crdt.payload_bytes", "B", "lower", f"wire_bytes_per_op on {_LARGE}"),
    PerLayer("storage.put_us", "us", "lower", f"update_p50_ms on {_ZIPF}"),
    PerLayer("storage.puts_per_op", "count", "lower", f"ops_s on {_ZIPF}"),
    PerLayer("storage.flush_us", "us", "lower", f"update_p50_ms on {_ZIPF}"),
    PerLayer("storage.flushes_per_op", "count", "lower", f"ops_s on {_ZIPF}"),
    PerLayer("storage.get_us", "us", "lower", f"query_p95_ms on {_ZIPF}"),
    PerLayer("storage.gets_per_op", "count", "lower", f"ops_s on {_ZIPF}"),
    PerLayer("storage.disk_bytes", "B", "lower", f"setup_s on {_ZIPF}"),
    PerLayer("storage.persists_per_op", "count", "lower", f"update_p50_ms on {_KILL}"),
    PerLayer("nemesis.restart_s", "s", "lower", f"slo_share on {_KILL}"),
    PerLayer("nemesis.recover_to_serving_s", "s", "lower", f"slo_share on {_KILL}"),
    PerLayer("nemesis.outage_max_gap_ms", "ms", "lower", f"slo_share on {_KILL}"),
    PerLayer("client.attempted", "count", "higher", f"ops_s on {_SMALL}"),
    PerLayer("client.completed", "count", "higher", f"ops_s on {_SMALL}"),
    PerLayer("client.samples_update", "count", "higher", f"update_p95_ms on {_SMALL}"),
    PerLayer("client.samples_query", "count", "higher", f"query_p95_ms on {_READ}"),
    PerLayer("client.update_p99_ms", "ms", "lower", f"slo_share on {_SMALL}"),
    PerLayer("client.query_p99_ms", "ms", "lower", f"slo_share on {_READ}"),
    PerLayer("client.failed_share", "share", "lower", f"ok_share on {_KILL}"),
    PerLayer("client.cpu_share", "share", "lower", f"ops_s on {_SMALL}"),
    PerLayer("client.sched_lag_p99_ms", "ms", "lower", f"update_p95_ms on {_KILL}"),
    PerLayer("client.speed_factor", "ratio", "lower", f"ops_s on {_DIRECT}"),
    PerLayer("trace.overhead_ratio", "ratio", "lower", f"ops_s on {_SMALL}"),
    PerLayer("trace.coverage_share", "share", "higher", f"cpu_us_per_op on {_SMALL}"),
]

#: Layers whose spans are charged to a replica process's CPU; what is left
#: of the process CPU after them is ``net``.
_REPLICA_LAYERS = ("wire.", "core.", "crdt.", "storage.")


def _per(value: float, count: float) -> float:
    return value / count if count else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _replica_cpu_s(result: Pass) -> float:
    return sum(replica["cpu_s"] for replica in result.replicas.values())


#: Ticks per slice (one second).  A slice's p95 then has about ten samples
#: beyond it on the slowest workload.
SLICE_TICKS = 20


class Slice(NamedTuple):
    seconds: float
    update_ms: list[float]
    query_ms: list[float]
    cpu_s: float
    speed: float  # >1: the box ran slower than the reference in this slice

    @property
    def done(self) -> int:
        return len(self.update_ms) + len(self.query_ms)


def slices(result: Pass) -> list[Slice]:
    """The window cut at its ticks into about one-second slices (one slice
    when the window is shorter than that)."""
    ticks = result.ticks
    count = max(1, (len(ticks) - 1) // SLICE_TICKS)
    edges = [round(i * (len(ticks) - 1) / count) for i in range(count + 1)]
    kernel = sorted(result.kernel)
    cut = []
    for lo, hi in zip(edges, edges[1:]):
        (t0, u0, q0, c0), (t1, u1, q1, c1) = ticks[lo], ticks[hi]
        samples = kernel[bisect_right(kernel, (t0, 1.0)):bisect_right(kernel, (t1, 1.0))]
        cut.append(Slice(
            t1 - t0, result.update_ms[u0:u1], result.query_ms[q0:q1], c1 - c0,
            speed_factor([kernel_s for _, kernel_s in samples]),
        ))
    return cut


def _median_slice(cut: list[Slice], value) -> float:
    """Median over the slices where ``value`` is defined (not ``None``)."""
    return median([v for v in map(value, cut) if v is not None])


def ops_per_s(result: Pass, cut: list[Slice] | None = None) -> float:
    """Completions per second of the median slice.  A closed loop's rate is
    set by the box's speed and is normalised; an open loop's is set by its
    schedule and is not."""
    closed = result.workload.rate is None
    return _median_slice(
        cut or slices(result),
        lambda s: s.done / s.seconds * (s.speed if closed else 1.0),
    )


def end_to_end(result: Pass) -> dict[str, float]:
    """The twelve end-to-end metrics of one untraced pass."""
    done = result.completed
    bad = result.failed + result.wrong + result.verify_failed
    wire_bytes = sum(
        replica["net"].get("bytes_sent", 0) for replica in result.replicas.values()
    )
    cut = slices(result)

    def latency(kind: str, q: float):
        def of(s: Slice):
            sample = s.update_ms if kind == "u" else s.query_ms
            return percentile(sample, q) / s.speed if sample else None
        return _median_slice(cut, of)

    values = {
        "ops_s": ops_per_s(result, cut),
        "update_p50_ms": latency("u", 0.5),
        "query_p50_ms": latency("q", 0.5),
        "update_p95_ms": latency("u", 0.95),
        "query_p95_ms": latency("q", 0.95),
        "ok_share": 1.0 - min(1.0, bad / result.attempted),
        "slo_share": max(0, result.within_limit - result.verify_failed)
        / result.attempted,
        "cpu_us_per_op": _median_slice(
            cut, lambda s: s.cpu_s / s.done / s.speed * 1e6 if s.done else None
        ),
        "wire_bytes_per_op": (
            wire_bytes / done if wire_bytes else result.direct_wire_bytes_per_op
        ),
        "query_rt_mean": sum(result.round_trips) / len(result.round_trips),
        "setup_s": median(result.setup_s),
        "peak_rss_mb": sum(
            replica["rss_kb"] for replica in result.replicas.values()
        ) / 1024.0,
    }
    assert list(values) == [metric.name for metric in END_TO_END]
    return values


def per_layer(result: Pass, untraced_ops_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass.  ``untraced_ops_s`` is the
    same workload's throughput with tracing off, for the overhead ratio."""
    done = result.completed
    replicas = total(list(result.replicas.values())) or {}
    spans = (replicas.get("trace") or {}).get("totals", {})
    counts = (replicas.get("trace") or {}).get("counters", {})
    client_spans = (result.client_trace or {}).get("totals", {})
    if result.workload.rig == "direct":
        # One process: the generator's tracer saw every layer.
        spans = client_spans
        counts = (result.client_trace or {}).get("counters", {})
    net = replicas.get("net", {})
    proposer = replicas.get("proposer", {})
    acceptor = replicas.get("acceptor", {})
    keyed = replicas.get("keyed", {})

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0.0)

    def us_per_op(*names: str) -> float:
        return _per(sum(span(name, "self_s") for name in names), done) * 1e6

    def wall_us(name: str) -> float:
        return _per(span(name, "wall_s"), span(name, "n")) * 1e6

    frames_out = span("wire.encode", "n")
    covered_s = sum(
        entry["self_s"] for name, entry in spans.items()
        if name.startswith(_REPLICA_LAYERS)
    )
    if result.workload.rig == "direct":
        process_cpu_s = result.generator_cpu_s
        covered_s += sum(
            entry["self_s"] for name, entry in spans.items() if name.startswith("api.")
        )
        net_cpu_s = 0.0
    else:
        process_cpu_s = _replica_cpu_s(result)
        net_cpu_s = process_cpu_s - covered_s
    speed = speed_factor([kernel_s for _, kernel_s in result.kernel])
    learns = proposer.get("fast_path_learns", 0) + proposer.get("vote_learns", 0)
    trips = result.round_trips
    gaps = [b - a for a, b in zip(result.done_at, result.done_at[1:])]
    bad = result.failed + result.wrong + result.verify_failed

    values = {
        "api.compile_us_per_op": _per(
            client_spans.get("api.compile", {}).get("self_s", 0.0), done) * 1e6,
        "api.parse_us_per_op": _per(
            client_spans.get("api.parse", {}).get("self_s", 0.0), done) * 1e6,
        "api.failovers_per_op": _per(result.failovers, done),
        "wire.encode_us_per_frame": _per(span("wire.encode", "self_s"), frames_out) * 1e6,
        "wire.decode_us_per_frame": _per(
            span("wire.decode", "self_s"), counts.get("wire.decode.frames", 0)) * 1e6,
        "wire.encode_us_per_op": us_per_op("wire.encode"),
        "wire.decode_us_per_op": us_per_op("wire.decode"),
        "wire.frames_per_op": _per(frames_out, done),
        "wire.bytes_per_frame": _per(counts.get("wire.encode.bytes", 0), frames_out),
        "wire.encode_errors": net.get("encode_errors", 0),
        "net.cpu_us_per_op": _per(net_cpu_s, done) * 1e6,
        "net.msgs_per_op": _per(net.get("messages_sent", 0), done),
        "net.bytes_in_per_op": _per(net.get("bytes_received", 0), done),
        "net.ping_p50_us": median(result.ping_us) if result.ping_us else 0.0,
        "net.outbox_shed": net.get("outbox_shed", 0),
        "net.redials": net.get("redials", 0),
        "net.connections_dropped": net.get("connections_dropped", 0),
        "net.frame_decode_errors": net.get("frame_decode_errors", 0),
        "net.uvloop": int(bool(replicas.get("uvloop"))),
        "core.self_us_per_op": us_per_op("core.on_message", "core.on_timer"),
        "core.calls_per_op": _per(span("core.on_message", "n"), done),
        "core.timer_fires_per_op": _per(span("core.on_timer", "n"), done),
        "core.query_rt1_share": _per(sum(t == 1 for t in trips), len(trips)),
        "core.query_rt_le3_share": _per(sum(t <= 3 for t in trips), len(trips)),
        "core.query_rt_max": max(trips, default=0),
        "core.query_attempts_mean": _per(sum(result.query_attempts), len(trips)),
        "core.fast_path_share": _per(proposer.get("fast_path_learns", 0), learns),
        "core.prepare_retries_per_op": _per(proposer.get("prepare_retries", 0), done),
        "core.vote_retries_per_op": _per(proposer.get("vote_retries", 0), done),
        "core.timeouts": proposer.get("timeouts", 0),
        "core.merges_per_update": _per(
            acceptor.get("merges_handled", 0), proposer.get("updates_completed", 0)),
        "core.evictions_per_op": _per(keyed.get("evictions", 0), done),
        "core.rehydrations_per_op": _per(keyed.get("rehydrations", 0), done),
        "core.resident_keys": keyed.get("resident", 0),
        "core.frozen_keys": keyed.get("frozen", 0),
        "core.spilled_keys": keyed.get("spilled", 0),
        "core.rejoin_refreshes": keyed.get("rejoin_refreshes", 0),
        "crdt.join_us_per_op": us_per_op("crdt.join"),
        "crdt.joins_per_op": _per(span("crdt.join", "n"), done),
        "crdt.apply_us_per_op": us_per_op("crdt.apply"),
        "crdt.delta_us_per_op": us_per_op("crdt.delta"),
        "crdt.payload_bytes": result.payload_bytes,
        "storage.put_us": wall_us("storage.put"),
        "storage.puts_per_op": _per(span("storage.put", "n"), done),
        "storage.flush_us": wall_us("storage.flush"),
        "storage.flushes_per_op": _per(span("storage.flush", "n"), done),
        "storage.get_us": wall_us("storage.get"),
        "storage.gets_per_op": _per(span("storage.get", "n"), done),
        "storage.disk_bytes": replicas.get("disk_bytes", 0),
        "storage.persists_per_op": _per(keyed.get("persists", 0), done),
        "nemesis.restart_s": result.nemesis.get("restart_s", 0.0),
        "nemesis.recover_to_serving_s": result.nemesis.get("recover_to_serving_s", 0.0),
        "nemesis.outage_max_gap_ms": max(gaps, default=0.0) * 1e3,
        "client.attempted": result.attempted,
        "client.completed": done,
        "client.samples_update": len(result.update_ms),
        "client.samples_query": len(result.query_ms),
        "client.update_p99_ms": percentile(result.update_ms, 0.99),
        "client.query_p99_ms": percentile(result.query_ms, 0.99),
        "client.failed_share": bad / result.attempted,
        "client.cpu_share": result.generator_cpu_s / result.window_s,
        "client.sched_lag_p99_ms": (
            percentile(result.sched_lag_ms, 0.99) if result.sched_lag_ms else 0.0
        ),
        "client.speed_factor": speed,
        "trace.overhead_ratio": untraced_ops_s / ops_per_s(result),
        "trace.coverage_share": _per(covered_s, process_cpu_s),
    }
    assert list(values) == [metric.name for metric in PER_LAYER]
    for metric in PER_LAYER:
        if metric.unit in ("us", "ms", "s"):
            values[metric.name] /= speed
    return values


def unit_of(name: str) -> str:
    for metric in (*END_TO_END, *PER_LAYER):
        if metric.name == name:
            return metric.unit
    raise KeyError(name)


def benchmark_lists() -> dict[str, list[dict[str, Any]]]:
    """The ``end_to_end`` and ``per_layer`` lists as ``BENCHMARK.json``
    spells them."""
    return {
        "end_to_end": [metric._asdict() for metric in END_TO_END],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
