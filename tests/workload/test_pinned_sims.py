"""Seeded simulations whose message, byte and op counts are pinned.

Two deterministic runs over small G-Counter payloads — a keyed Zipf
closed loop through ``SimCluster`` (every message encoded for its byte
count) and one keyed adversarial explorer seed.  The explorer counts
were recorded from the code before digest-first PREPAREs existed; the
Zipf counts from the code before the keyspace's cross-key coalescing
outbox was deleted, with the outbox off.  Small payloads never take the
digest path and the outbox was off, so any drift here means a change
altered the protocol's behaviour on the common case.  Run in a ``PYTHONHASHSEED=0`` subprocess: some counts
(e.g. eviction order) depend on set iteration order.
"""

import json
import os
import subprocess
import sys

_PROBE = """
import json
from repro.checker.scheduler import KeyedInterleavingExplorer
from repro.core.config import CrdtPaxosConfig
from repro.workload.runner import run_workload
from repro.workload.spec import WorkloadSpec

spec = WorkloadSpec(
    n_clients=16, read_ratio=0.5, duration=0.1, warmup=0.0,
    n_keys=1000, key_skew=1.1,
)
zipf = run_workload(
    "crdt-paxos", spec, seed=0,
    crdt_config=CrdtPaxosConfig(keyed_max_resident=128),
)
report = KeyedInterleavingExplorer(0, n_keys=8).run(n_ops=60, read_fraction=0.4)
learned = [
    query.state.value()
    for history in report.histories.values()
    for query in history.completed_queries()
]
print(json.dumps({
    "zipf_messages": zipf.count_by_type,
    "zipf_bytes": zipf.bytes_by_type,
    "zipf_ops": zipf.completed_ops(),
    "explorer": [
        report.steps, report.deliveries, report.injections,
        report.evictions, report.rehydrations,
    ],
    "explorer_learned": [len(learned), sum(learned)],
}))
"""


def test_small_payload_sims_match_their_pinned_counts():
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    counts = json.loads(result.stdout)
    assert counts["zipf_messages"] == {"Keyed": 23283}
    assert counts["zipf_bytes"] == {"Keyed": 1711896}
    assert counts["zipf_ops"] == 3586
    # steps, deliveries, injections, evictions, rehydrations.
    assert counts["explorer"] == [520, 460, 60, 119, 106]
    assert counts["explorer_learned"] == [22, 56]
