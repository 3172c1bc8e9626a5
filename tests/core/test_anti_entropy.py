"""Delta-mode anti-entropy: digest probes, divergence counting, repair.

Delta MERGEs disseminate only what changed, so a peer that misses one
(dropped envelope, batch reached quorum without it) holds a permanent
gap no later delta fills.  ``config.anti_entropy`` closes the gap with a
16-byte probe per message: MERGEs carry the fingerprint of the sender's
full state, MERGED acks answer whether the acceptor's post-join state
fingerprints differently, and a peer diverging ``anti_entropy_threshold`` consecutive
times gets one rate-limited full-state MERGE (request id ``ae:...``).
"""

import pytest

from repro.core.acceptor import Acceptor
from repro.core.config import CrdtPaxosConfig
from repro.core.messages import ClientUpdate, Merge, Merged
from repro.core.replica import CrdtPaxosReplica
from repro.crdt.gcounter import GCounter, Increment
from repro.errors import ConfigurationError
from repro.net.faults import FaultPlan, LinkDisruption
from repro.wire.digest import fingerprint


def test_anti_entropy_requires_delta_merge():
    with pytest.raises(ConfigurationError):
        CrdtPaxosConfig(anti_entropy=True)
    CrdtPaxosConfig(anti_entropy=True, delta_merge=True)  # fine


def test_anti_entropy_knob_validation():
    with pytest.raises(ConfigurationError):
        CrdtPaxosConfig(anti_entropy_threshold=0)
    with pytest.raises(ConfigurationError):
        CrdtPaxosConfig(anti_entropy_interval=0.0)


def test_acceptor_answers_digest_probe():
    acceptor = Acceptor(GCounter.initial())
    incoming = Increment(3).apply(GCounter.initial(), "r1")

    probe = fingerprint(incoming)
    assert type(probe) is bytes and len(probe) == 16

    # Sender and receiver converge on the same state: no divergence.
    ack = acceptor.handle_merge(Merge(request_id="m1", state=incoming, digest=probe))
    assert ack == Merged(request_id="m1", diverged=False)

    # The receiver holds extra updates the sender lacks: diverged.
    acceptor.apply_update(Increment(1), "r2")
    ack = acceptor.handle_merge(Merge(request_id="m2", state=incoming, digest=probe))
    assert ack.diverged

    # No digest, no probe — full-state mode and ae: pushes take this path.
    ack = acceptor.handle_merge(Merge(request_id="m3", state=incoming))
    assert ack == Merged(request_id="m3", diverged=False)


def _replica(**overrides) -> CrdtPaxosReplica:
    knobs = dict(
        delta_merge=True,
        anti_entropy=True,
        anti_entropy_threshold=2,
        request_timeout=None,
    )
    knobs.update(overrides)
    config = CrdtPaxosConfig(**knobs)
    return CrdtPaxosReplica("r0", ["r0", "r1", "r2"], GCounter.initial(), config)


def _merges_to(effects, dst):
    return [m for d, m in effects.sends if d == dst and isinstance(m, Merge)]


def test_consecutive_divergence_triggers_one_full_state_push():
    replica = _replica()
    pushes = []
    for i in range(1, 4):
        effects = replica.on_message(
            "c", ClientUpdate(request_id=f"u{i}", op=Increment(1)), float(i)
        )
        (merge,) = _merges_to(effects, "r1")
        # Every delta MERGE probes with the full state's fingerprint.
        assert merge.digest == fingerprint(replica.state)
        # r2 acks clean (quorum), r1 keeps answering diverged.
        replica.on_message(
            "r2", Merged(request_id=merge.request_id), float(i) + 0.1
        )
        effects = replica.on_message(
            "r1",
            Merged(request_id=merge.request_id, diverged=True),
            float(i) + 0.2,
        )
        pushes.extend(
            (m, replica.state.value()) for m in _merges_to(effects, "r1")
        )

    # Threshold 2: the second consecutive divergent ack pushed; the third
    # (count restarted) has not reached the threshold again.
    assert len(pushes) == 1
    ((push, state_at_push),) = pushes
    assert push.request_id.startswith("ae:")
    assert push.digest is None  # the catch-up itself does not probe
    assert push.state.value() == state_at_push  # full state, not a delta
    assert replica.proposer.stats.anti_entropy_pushes == 1


def test_clean_ack_resets_the_divergence_count():
    replica = _replica(anti_entropy_threshold=3)
    for i, diverged in enumerate([True, True, False, True, True], start=1):
        effects = replica.on_message(
            "c", ClientUpdate(request_id=f"u{i}", op=Increment(1)), float(i)
        )
        (merge,) = _merges_to(effects, "r1")
        replica.on_message("r2", Merged(request_id=merge.request_id), float(i))
        effects = replica.on_message(
            "r1",
            Merged(request_id=merge.request_id, diverged=diverged),
            float(i),
        )
        assert _merges_to(effects, "r1") == []  # never 3 consecutive
    assert replica.proposer.stats.anti_entropy_pushes == 0


def test_pushes_are_rate_limited_per_peer():
    replica = _replica(anti_entropy_threshold=1, anti_entropy_interval=10.0)
    pushed = 0
    for i in range(1, 5):
        effects = replica.on_message(
            "c", ClientUpdate(request_id=f"u{i}", op=Increment(1)), float(i)
        )
        (merge,) = _merges_to(effects, "r1")
        replica.on_message("r2", Merged(request_id=merge.request_id), float(i))
        effects = replica.on_message(
            "r1",
            Merged(request_id=merge.request_id, diverged=True),
            float(i),
        )
        pushed += len(_merges_to(effects, "r1"))
    # Threshold 1 would push on every divergent ack; the 10s interval
    # allows exactly one push inside this 4s run.
    assert pushed == 1


def _lossy_delta_cluster(anti_entropy: bool):
    """12 G-Set adds at r0 while r0→r1 drops a window of delta MERGEs.

    A G-Set add's delta is just the element, so every MERGE lost to r1
    in the window is an element r1 can only recover via repair — unlike
    a G-Counter, whose per-node slot makes any later delta subsume all
    earlier ones from the same writer.
    """
    from repro.crdt.gset import GSet, GSetAdd
    from repro.net.latency import ConstantLatency
    from repro.net.sim_transport import SimNetwork
    from repro.runtime.cluster import ClientEndpoint, SimCluster
    from repro.sim.kernel import Simulator

    config = CrdtPaxosConfig(
        delta_merge=True,
        anti_entropy=anti_entropy,
        anti_entropy_threshold=2,
        anti_entropy_interval=0.1,
    )
    faults = FaultPlan()
    # r0 -> r1 goes dark for a window: every delta MERGE broadcast in it
    # is lost to r1 while r0+r2 still form a quorum and complete batches.
    faults.add_disruption(
        LinkDisruption(
            start=0.1,
            until=0.8,
            src=frozenset({"r0"}),
            dst=frozenset({"r1"}),
            loss_probability=0.999,
        )
    )
    sim = Simulator(seed=11)
    network = SimNetwork(sim, latency=ConstantLatency(delay=1e-3), faults=faults)
    cluster = SimCluster(
        sim,
        network,
        lambda nid, peers: CrdtPaxosReplica(nid, peers, GSet.initial(), config),
        n_replicas=3,
    )
    client = ClientEndpoint(sim, network, "client", lambda src, message: None)
    for i in range(12):
        client.send("r0", ClientUpdate(request_id=f"u{i}", op=GSetAdd(f"e{i}")))
        sim.run(until=sim.now + 0.2)
    sim.run(until=sim.now + 1.0)
    return cluster


def test_anti_entropy_heals_a_peer_that_missed_deltas():
    # Control: with the repair loop off the gap is permanent — nothing
    # ever re-ships the elements lost in the window (no queries run, and
    # completed batches are never re-driven).
    control = _lossy_delta_cluster(anti_entropy=False)
    assert len(control.node("r1").state) < len(control.node("r0").state)

    healed = _lossy_delta_cluster(anti_entropy=True)
    assert healed.node("r1").state.elements == healed.node("r0").state.elements
    assert healed.node("r0").proposer.stats.anti_entropy_pushes >= 1
