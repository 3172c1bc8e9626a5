"""Event queue primitives for the discrete-event simulator.

Events are ordered by ``(time, sequence number)``.  The sequence number is a
monotonically increasing tie breaker which guarantees a *deterministic* total
order even when many events share a timestamp — essential for reproducible
protocol interleavings.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Instances are ordered by ``(time, seq)``; the callback and its arguments
    do not participate in the ordering.  Cancellation is implemented with a
    tombstone flag so that removal is O(1) and the heap invariant is kept.
    """

    time: float
    seq: int
    callback: Callable[..., None] = field(compare=False)
    args: tuple[Any, ...] = field(default=(), compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True


class EventQueue:
    """A binary-heap priority queue of :class:`Event` objects.

    The heap holds ``(time, seq, event)`` tuples: ``seq`` is unique, so
    ordering is decided by native tuple comparison and never reaches the
    event (the generated ``Event.__lt__`` was the simulator's hottest
    call).
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, callback: Callable[..., None], args: tuple[Any, ...] = ()) -> Event:
        """Schedule ``callback(*args)`` at ``time`` and return its handle."""
        seq = self._seq
        event = Event(time=time, seq=seq, callback=callback, args=args)
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def pop(self) -> Event | None:
        """Remove and return the next live event, or None if exhausted.

        Cancelled events are discarded transparently.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> float | None:
        """Return the timestamp of the next live event without popping it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]
