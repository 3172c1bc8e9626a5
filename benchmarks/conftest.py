"""Shared helpers for the benchmark suite.

Every figure benchmark renders its result table to stdout and to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can quote them.  The
micro and keyed-scale benchmarks share the timing and fixture builders
below.
"""

from __future__ import annotations

import gc
import pathlib
import time
import tracemalloc
from typing import Callable

from repro.core.keyspace import KeyedCrdtReplica
from repro.crdt.gcounter import GCounter
from repro.crdt.orset import ORSet

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def publish(name: str, table: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print(f"\n{table}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(table + "\n")


def best_of_seconds(
    fn: Callable[[], object], repeats: int = 5, iters: int = 50
) -> float:
    """Best-of-``repeats`` mean seconds per call of ``fn`` over ``iters``
    loops."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - started) / iters)
    return best


def build_quorum_acks(elements: int = 1000, acks: int = 5) -> list[ORSet]:
    """The query fast path's dominant shape: ``acks`` structurally equal
    but fully distinct OR-Set payloads (distinct frozensets too, as if
    each came off the wire from a different acceptor)."""
    state = ORSet.initial()
    for i in range(elements):
        state = state.with_add(f"item-{i}", f"r{i % 3}")
    return [
        ORSet(frozenset(set(state.entries)), frozenset(set(state.tombstones)))
        for _ in range(acks)
    ]


def build_keyed_replica(
    n_keys: int, poll_key: str | None = None
) -> KeyedCrdtReplica:
    """A keyed replica hosting ``n_keys`` acceptor-only keys.  With
    ``poll_key``, that key's proposer is materialized so timer routing
    exercises the real flush path."""
    replica = KeyedCrdtReplica(
        "r0", ["r0", "r1", "r2"], lambda key: GCounter.initial()
    )
    for i in range(n_keys):
        replica.instance(f"key-{i}")
    if poll_key is not None:
        replica.materialize_proposer(poll_key)
    return replica


def keyed_resident_bytes_per_key(n_keys: int) -> float:
    """Traced bytes per key of a keyed replica holding ``n_keys`` keys
    touched by acceptor traffic only."""
    gc.collect()
    tracemalloc.start()
    try:
        replica = build_keyed_replica(n_keys)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del replica
    return current / n_keys


def keyed_timer_seconds(n_keys: int, iters: int = 2000) -> float:
    """Best seconds per timer-routing call on the *last* key of an
    ``n_keys`` store (the worst case of any scan; the namespace index
    makes it O(1))."""
    poll_key = f"key-{n_keys - 1}"
    replica = build_keyed_replica(n_keys, poll_key=poll_key)
    timer_key = f"{poll_key!r}|flush"
    return best_of_seconds(lambda: replica.on_timer(timer_key, 0.0), iters=iters)
