"""The six workloads and their seeded op streams.

Each workload is chosen to stress different layers (the reasons are the
``why`` strings, repeated in ``BENCHMARK.json`` and argued in the README).
An op is a plain tuple ``(kind, key, arg)`` — ``kind`` is ``"u"`` (update)
or ``"q"`` (query) — generated here from ``--seed`` and nothing else; the
replicas only ever see the messages compiled from these tuples.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.core.config import CrdtPaxosConfig
from repro.workload.sampler import ZipfKeySampler

#: Ops hashed into ``client.opstream_crc``.
CRC_PREFIX = 4096

LWW_FIELDS = 128
LWW_VALUE_BYTES = 32


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rig: str = "socket"              # "socket" | "direct"
    payload: str = "gcounter"        # "gcounter" | "lwwmap"
    n_keys: int = 16
    zipf: float = 0.0
    read_share: float = 0.0
    limit_ms: float = 10.0           # latency limit behind ``slo_share``
    clients: int = 8                 # closed-loop logical clients
    rate: float | None = None        # open-loop ops/s (None = closed loop)
    durable: bool = False
    kill: bool = False
    config: dict[str, Any] = field(default_factory=dict)

    def make_config(self) -> CrdtPaxosConfig:
        return CrdtPaxosConfig(delta_merge=True, **self.config)


_DURABLE = {
    "durability": "write_through",
    "keyed_max_resident": 256,
    "keyed_max_frozen": 512,
}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sock_small_update",
            "smallest messages, 95% G-Counter increments on 16 hot keys: "
            "per-frame wire+net cost dominates, crdt/storage do almost nothing",
            read_share=0.05,
        ),
        Workload(
            "sock_small_read90",
            "same rig and keys, 90% queries: the prepare/vote path and its "
            "1-N round trips under concurrent writes; a gain for updates that "
            "costs reads shows here",
            read_share=0.9,
        ),
        Workload(
            "sock_large_lwwmap",
            "8 keys each a 128-field x 32-byte LWW-Map, 50/50 get/put: largest "
            "messages, crdt join/delta and per-byte wire cost dominate",
            payload="lwwmap", n_keys=8, read_share=0.5, limit_ms=100.0,
        ),
        Workload(
            "sock_durable_zipf",
            "write-through fsync over SegmentedSpillStore, Zipf 1.1 keys past "
            "the residency caps, 50/50: storage put/fsync/get and core "
            "residency churn dominate; no other workload touches storage",
            n_keys=2000, zipf=1.1, read_share=0.5, limit_ms=50.0,
            durable=True, config=_DURABLE,
        ),
        Workload(
            "sock_durable_kill",
            "same durable config, open loop at a fixed rate with sticky "
            "fail-over, SIGKILL r0 a third in, cold restart two thirds in: "
            "fail-over and log-less recovery counted against attempts",
            n_keys=2000, zipf=1.1, read_share=0.5, limit_ms=100.0,
            rate=400.0, durable=True, kill=True, config=_DURABLE,
        ),
        Workload(
            "direct_small_update",
            "the sock_small_update op stream through an in-process pump, no "
            "codec/sockets/processes: the protocol floor in wall-clock, where "
            "a wire or net optimisation predicts no change",
            rig="direct", read_share=0.05, limit_ms=1.0, clients=1,
        ),
    )
}


class OpStream:
    """A seeded, endless stream of ops for one workload.

    ``crc`` hashes the first :data:`CRC_PREFIX` ops, so equal seeds give
    equal CRCs however many ops a run consumes.  ``seq`` numbers ops from 1
    and doubles as the LWW timestamp, so the put with the largest ``seq``
    wins whatever order replies arrive in.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self._rng = random.Random(seed)
        self._sampler = ZipfKeySampler(workload.n_keys, workload.zipf, seed)
        self.seq = 0
        self._prefix = [self._generate() for _ in range(CRC_PREFIX)]
        self.crc = zlib.crc32(repr(self._prefix).encode())
        self._replay = iter(self._prefix)

    def keys(self) -> list[str]:
        return [f"k{i}" for i in range(self.workload.n_keys)]

    def _generate(self) -> tuple[str, str, Any]:
        rng, w = self._rng, self.workload
        self.seq += 1
        key = self._sampler.sample(rng)
        kind = "q" if rng.random() < w.read_share else "u"
        if w.payload == "gcounter":
            return (kind, key, None)
        fld = f"f{rng.randrange(LWW_FIELDS):03d}"
        if kind == "q":
            return (kind, key, fld)
        return (kind, key, (fld, lww_value(self.seq, rng), self.seq))

    def __iter__(self) -> Iterator[tuple[str, str, Any]]:
        return self

    def __next__(self) -> tuple[str, str, Any]:
        if self._replay is not None:
            op = next(self._replay, None)
            if op is not None:
                return op
            self._replay = None
        return self._generate()


def lww_value(seq: int, rng: random.Random) -> str:
    """A ``LWW_VALUE_BYTES``-byte value that carries its own timestamp, so a
    read can be checked against the puts acknowledged before it."""
    head = f"{seq:010d}:"
    return head + f"{rng.getrandbits(84):021x}"[: LWW_VALUE_BYTES - len(head)]


def lww_seq(value: str) -> int:
    return int(value[:10])


def lww_preload(workload: Workload) -> list[tuple[str, str, Any]]:
    """Set-up puts that fill every field of every LWW-Map key (timestamp 0,
    so any put of the run supersedes them)."""
    filler = "0" * (LWW_VALUE_BYTES - 11)
    return [
        ("u", f"k{k}", (f"f{f:03d}", f"{0:010d}:{filler}", 0))
        for k in range(workload.n_keys)
        for f in range(LWW_FIELDS)
    ]


def compile_op(codec: Any, request_id: str, op: tuple[str, str, Any], payload: str) -> Any:
    """The wire message for one op, through the ``api`` layer's codec."""
    kind, key, arg = op
    if payload == "gcounter":
        from repro.crdt.gcounter import GCounterValue, Increment

        if kind == "u":
            return codec.compile_update(request_id, Increment(1), key)
        return codec.compile_query(request_id, GCounterValue(), key)
    from repro.crdt.lwwmap import LWWMapGet, LWWMapPut

    if kind == "u":
        fld, value, stamp = arg
        return codec.compile_update(
            request_id, LWWMapPut(fld, value, float(stamp)), key
        )
    return codec.compile_query(request_id, LWWMapGet(arg), key)
