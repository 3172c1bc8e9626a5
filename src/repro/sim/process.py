"""Serial-server process model with FIFO queueing.

The paper's replicas are Erlang processes: each handles one message at a
time ("serial processes", §3.2 conventions).  Throughput saturation in the
evaluation comes from exactly this — a replica's CPU is a serial server and
requests queue behind each other.  :class:`SerialProcess` reproduces that:
items submitted while the server is busy wait in FIFO order, and each item
occupies the server for a service time drawn from a :class:`ServiceModel`.

Leader-based protocols funnel every command through one such server, which
is why their throughput ceiling is lower than the leaderless protocol's in
the reproduced figures.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.sim.kernel import Simulator


class ServiceModel:
    """Computes how long the server is busy processing one item.

    ``base`` is the fixed per-message CPU cost; ``per_byte`` adds a
    size-proportional component (merging a large CRDT payload costs more
    than acking a small message); ``per_send`` charges for every message
    the handler emits, which is what makes a fan-out leader a bottleneck.
    Storage is not modelled: simulated spill stores cost no virtual time
    (real-disk costs are measured by ``perf/``'s durable workloads).
    """

    def __init__(
        self, base: float = 2e-6, per_byte: float = 0.0, per_send: float = 0.0
    ) -> None:
        self.base = base
        self.per_byte = per_byte
        self.per_send = per_send

    def service_time(self, size_bytes: int) -> float:
        return self.base + self.per_byte * size_bytes

    def send_time(self, n_sends: int) -> float:
        return self.per_send * n_sends

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServiceModel(base={self.base}, per_byte={self.per_byte}, "
            f"per_send={self.per_send})"
        )


class SerialProcess:
    """A FIFO serial server bound to a simulator.

    ``handler(item)`` is invoked when the item *finishes* service; queueing
    and service delays have already elapsed in virtual time at that point.
    The process can be paused (crash) and resumed (recovery); items submitted
    while paused are dropped, matching a crashed replica that cannot receive
    messages (the unreliable network of the system model makes this
    indistinguishable from message loss).
    """

    def __init__(
        self,
        sim: Simulator,
        handler: Callable[[Any], None],
        service_model: ServiceModel | None = None,
    ) -> None:
        self._sim = sim
        self._handler = handler
        self._service = service_model or ServiceModel()
        self._queue: deque[tuple[Any, int]] = deque()
        self._busy = False
        self._paused = False
        self._extra_busy = 0.0
        self.items_processed = 0
        self.items_dropped = 0
        self.busy_time = 0.0

    # ------------------------------------------------------------------
    @property
    def paused(self) -> bool:
        return self._paused

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def submit(self, item: Any, size_bytes: int = 0) -> None:
        """Enqueue an item for processing (arrival instant is ``sim.now``)."""
        if self._paused:
            self.items_dropped += 1
            return
        self._queue.append((item, size_bytes))
        if not self._busy:
            self._start_next()

    def pause(self) -> None:
        """Crash: drop the backlog and refuse new arrivals.

        The item currently in service still completes — in reality the
        crash could land mid-handler, but protocol handlers are atomic in
        the Erlang model the paper assumes, so completing it is faithful.
        """
        self._paused = True
        self.items_dropped += len(self._queue)
        self._queue.clear()

    def resume(self) -> None:
        """Recover: accept arrivals again (internal state was preserved)."""
        self._paused = False

    # ------------------------------------------------------------------
    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        item, size = self._queue.popleft()
        duration = self._service.service_time(size)
        self.busy_time += duration
        self._sim.schedule(duration, self._finish, item)

    def extend_busy(self, duration: float) -> None:
        """Charge extra CPU time to the item currently in service.

        Handlers (via their runtime) call this for work whose cost is only
        known after processing — e.g. the messages they fanned out.
        """
        if duration < 0:
            raise ValueError(f"duration cannot be negative: {duration}")
        if self._busy:
            self._extra_busy += duration

    def _finish(self, item: Any) -> None:
        self.items_processed += 1
        self._extra_busy = 0.0
        if not self._paused:
            self._handler(item)
        if self._extra_busy > 0.0:
            self.busy_time += self._extra_busy
            self._sim.schedule(self._extra_busy, self._start_next)
        else:
            self._start_next()
