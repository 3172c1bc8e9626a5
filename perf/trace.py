"""Outside-in span tracer for the traced pass.

Nothing under ``src/`` knows it is being measured: the node handed to
``StreamNodeServer`` and the store handed to ``KeyedCrdtReplica`` are the
timing proxies below, and the public module-level functions each layer
exposes are wrapped by attribute (and restored by :meth:`Tracer.uninstall`).
Spans inside the program are a later change (ROADMAP item 1).

A span records ``name`` (``<layer>.<call>``), wall-clock start and end, the
span that caused it and the client ``request_id`` where the message has one.
Besides the wall clock every span reads the thread's CPU clock: the replica
processes and the generator share two cores, so a wall interval also holds
the time the process sat runnable but descheduled, and the ledger has to
close against process CPU.  A span's *self* time is its CPU time minus its
direct children's, so ``core.on_message`` self time excludes the ``crdt.*``
and ``storage.*`` calls made underneath it.  Totals are aggregated as spans
close; the raw spans are kept in memory (up to ``MAX_SPANS``) and written out
only when the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter, thread_time
from typing import Any, Callable, Hashable

from repro.storage.base import SpillRecord, SpillStore

#: Raw spans kept per process; later spans still count in the totals.
MAX_SPANS = 10_000


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        #: name -> [count, wall seconds, CPU seconds, CPU self seconds]
        self.totals: dict[str, list] = {}
        #: name -> plain number (frames, bytes, CPU seconds ...)
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []
        self._issued = 0
        self._undo: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def enter(self, name: str, request_id: Any = None) -> list:
        stack = self._stack
        self._issued += 1
        # [name, start, end, parent, request id, children's CPU, id, CPU at start]
        span = [
            name, perf_counter(), 0.0,
            stack[-1][6] if stack else 0,
            request_id, 0.0, self._issued, 0.0,
        ]
        if len(self.spans) < MAX_SPANS:
            self.spans.append(span)
        stack.append(span)
        span[7] = thread_time()
        return span

    def exit(self, span: list) -> None:
        cpu = thread_time() - span[7]
        end = perf_counter()
        span[2] = end
        stack = self._stack
        stack.pop()
        total = self.totals.get(span[0])
        if total is None:
            total = self.totals[span[0]] = [0, 0.0, 0.0, 0.0]
        total[0] += 1
        total[1] += end - span[1]
        total[2] += cpu
        total[3] += cpu - span[5]
        if stack:
            stack[-1][5] += cpu

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def summary(self) -> dict[str, Any]:
        """A copy of the aggregates, safe to send across a pipe."""
        return {
            "totals": {
                name: {"n": n, "wall_s": wall, "cpu_s": cpu, "self_s": own}
                for name, (n, wall, cpu, own) in self.totals.items()
            },
            "counters": dict(self.counters),
            "spans_issued": self._issued,
        }

    def write_spans(self, path: str, node: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, request_id, _, span_id, _ in self.spans:
                out.write(json.dumps({
                    "node": node, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                    "request_id": request_id,
                }) + "\n")

    # ------------------------------------------------------------------
    # Wrapping by attribute
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _timed(self, name: str, fn: Callable) -> Callable:
        enter, leave = self.enter, self.exit

        def traced(*args, **kwargs):
            span = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(span)

        return traced

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install_replica_side(self) -> None:
        """Wrap what a replica process calls: ``wire`` and ``crdt``."""
        from repro.crdt.base import QueryOp, StateCRDT, UpdateOp
        from repro.net import stream
        from repro.wire import FrameDecoder, registered_classes

        enter, leave, count = self.enter, self.exit, self.count
        encode_frame = stream.encode_frame
        feed = FrameDecoder.feed

        def traced_encode(message, strict=False):
            span = enter("wire.encode", getattr(message[-1], "request_id", None))
            try:
                frame = encode_frame(message, strict=strict)
                count("wire.encode.bytes", len(frame))
                return frame
            finally:
                leave(span)

        def traced_feed(decoder, data):
            span = enter("wire.decode")
            try:
                messages = feed(decoder, data)
                count("wire.decode.frames", len(messages))
                count("wire.decode.bytes", len(data))
                return messages
            finally:
                leave(span)

        self._patch(stream, "encode_frame", traced_encode)
        self._patch(FrameDecoder, "feed", traced_feed)
        self._patch(StateCRDT, "join", self._timed("crdt.join", StateCRDT.join))
        self._patch(UpdateOp, "delta", self._timed("crdt.delta", UpdateOp.delta))
        for cls in registered_classes():
            if not issubclass(cls, (UpdateOp, QueryOp)):
                continue
            if "apply" in cls.__dict__:
                self._patch(cls, "apply", self._timed("crdt.apply", cls.apply))
            if "delta" in cls.__dict__:
                self._patch(cls, "delta", self._timed("crdt.delta", cls.delta))

    def install_client_side(self) -> None:
        """Wrap what the load generator calls: the ``api`` codec."""
        from repro.api import codec

        self._patch(codec, "compile_update",
                    self._timed("api.compile", codec.compile_update))
        self._patch(codec, "compile_query",
                    self._timed("api.compile", codec.compile_query))
        self._patch(codec, "parse_completion",
                    self._timed("api.parse", codec.parse_completion))


class TracedNode:
    """Timing proxy for the sans-io node a ``StreamNodeServer`` hosts."""

    def __init__(self, node: Any, tracer: Tracer) -> None:
        self._node = node
        self._tracer = tracer
        self.node_id = node.node_id

    def __getattr__(self, name: str) -> Any:
        return getattr(self._node, name)

    def on_start(self, now: float) -> Any:
        span = self._tracer.enter("core.on_start")
        try:
            return self._node.on_start(now)
        finally:
            self._tracer.exit(span)

    def on_message(self, src: str, message: Any, now: float) -> Any:
        span = self._tracer.enter(
            "core.on_message", getattr(message, "request_id", None)
        )
        try:
            return self._node.on_message(src, message, now)
        finally:
            self._tracer.exit(span)

    def on_timer(self, key: str, now: float) -> Any:
        span = self._tracer.enter("core.on_timer")
        try:
            return self._node.on_timer(key, now)
        finally:
            self._tracer.exit(span)


class TracedStore(SpillStore):
    """Timing proxy for the spill store a ``KeyedCrdtReplica`` writes.

    ``put``/``get``/``flush``/``put_meta`` are spans; an fsync is mostly
    waiting, which is why the storage metrics quote the spans' wall time
    while the ledger charges their CPU time.
    """

    def __init__(self, store: SpillStore, tracer: Tracer) -> None:
        self._store = store
        self._tracer = tracer

    def __getattr__(self, name: str) -> Any:
        return getattr(self._store, name)

    def _call(self, name: str, fn: Callable, *args: Any) -> Any:
        span = self._tracer.enter(name)
        try:
            return fn(*args)
        finally:
            self._tracer.exit(span)

    def put(self, key: Hashable, record: SpillRecord) -> None:
        self._call("storage.put", self._store.put, key, record)

    def get(self, key: Hashable) -> SpillRecord | None:
        return self._call("storage.get", self._store.get, key)

    def flush(self) -> None:
        self._call("storage.flush", self._store.flush)

    def put_meta(self, meta: dict[str, Any]) -> None:
        self._call("storage.put_meta", self._store.put_meta, meta)

    def delete(self, key: Hashable) -> bool:
        return self._store.delete(key)

    def keys(self) -> list[Hashable]:
        return self._store.keys()

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._store

    def get_meta(self) -> dict[str, Any] | None:
        return self._store.get_meta()

    def close(self) -> None:
        self._store.close()
