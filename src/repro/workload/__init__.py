"""Workload generation — the Basho Bench role in the paper's evaluation.

Closed-loop clients ("each client independently submits requests to one of
the three replicas and then waits for a reply before submitting the next
request"), read-ratio mixes, warm-up exclusion, and per-request records
feeding the statistics layer.

PR 3 rebuilt the layer on the :mod:`repro.api` surface: operations are
typed CRDT ops from a per-type :class:`~repro.workload.profiles.OpProfile`,
compiled per protocol by :class:`~repro.workload.adapters.OpAdapter`, and
optionally addressed per key (Zipf popularity via
:class:`~repro.workload.sampler.ZipfKeySampler`) against the keyed
deployment.
"""

from repro.workload.adapters import (
    CrdtPaxosOpAdapter,
    OpAdapter,
    RsmOpAdapter,
)
from repro.workload.clients import ClosedLoopClient, HistoryTap, OpRecord, Recorder
from repro.workload.profiles import OpProfile, profile_for, profile_names
from repro.workload.runner import (
    PROTOCOLS,
    RunResult,
    canonical_protocol,
    run_workload,
)
from repro.workload.sampler import ZipfKeySampler
from repro.workload.sharded import (
    GroupRouter,
    ShardedRunResult,
    run_sharded_workload,
)
from repro.workload.spec import WorkloadSpec

__all__ = [
    "ClosedLoopClient",
    "CrdtPaxosOpAdapter",
    "GroupRouter",
    "HistoryTap",
    "OpAdapter",
    "OpProfile",
    "OpRecord",
    "PROTOCOLS",
    "Recorder",
    "RsmOpAdapter",
    "RunResult",
    "ShardedRunResult",
    "WorkloadSpec",
    "ZipfKeySampler",
    "canonical_protocol",
    "profile_for",
    "profile_names",
    "run_sharded_workload",
    "run_workload",
]
