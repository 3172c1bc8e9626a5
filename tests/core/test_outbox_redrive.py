"""ISSUE-4 satellite: update-timeout re-drives must consult the
coalescing outbox.

Before the fix the re-drive path appended a second MERGE for the same
batch behind the original still-parked envelope, so one flush carried
both (wasted bytes) with the *older* payload positioned to be applied
after... nothing useful — merges are idempotent, but the duplicate and
the stale copy are pure waste and, across a spill/shutdown boundary,
the stale envelope could outlive the state that superseded it.  After
the fix the re-driven MERGE *supersedes* the parked one in place: same
flush position, fresher payload, one envelope per (key, type, request
id, attempt) slot per peer.
"""

from repro.core.config import CrdtPaxosConfig
from repro.core.keyspace import Keyed, KeyedCrdtReplica
from repro.core.messages import ClientUpdate, Merge, Merged
from repro.crdt.gcounter import GCounter, Increment

PEERS = ["r0", "r1", "r2"]


def build_replica():
    return KeyedCrdtReplica(
        "r0",
        list(PEERS),
        lambda key: GCounter.initial(),
        CrdtPaxosConfig(keyed_coalesce_window=0.005, request_timeout=0.5),
    )


def parked_merges(replica, dst):
    return [
        keyed
        for keyed, _ in replica._outbox.get(dst, {}).values()
        if isinstance(keyed.message, Merge)
    ]


def test_redrive_supersedes_parked_merge_instead_of_duplicating():
    replica = build_replica()
    effects = replica.on_message(
        "c", Keyed(key="k", message=ClientUpdate("u1", Increment(1))), 0.0
    )
    # The batch's MERGE parked for both remote peers; the update timeout
    # armed under the key's namespace.
    assert len(parked_merges(replica, "r1")) == 1
    assert len(parked_merges(replica, "r2")) == 1
    (uto_key,) = [key for key, _ in effects.timers if "|uto:" in key]

    # More state arrives for the key before the coalesce flush fires, so
    # the acceptor state now strictly subsumes the parked payload.
    remote = Increment(5).apply(GCounter.initial(), "r2")
    replica.on_message(
        "r2", Keyed(key="k", message=Merge(request_id="m9", state=remote)), 0.1
    )
    stale = parked_merges(replica, "r1")[0].message.state
    assert replica.state_of("k").value() > stale.value()

    # Fire the update timeout: the re-drive must replace, not append.
    replica.on_timer(uto_key, 0.6)
    for dst in ("r1", "r2"):
        merges = parked_merges(replica, dst)
        assert len(merges) == 1, (
            f"{dst}: re-drive duplicated the parked MERGE "
            f"({len(merges)} envelopes for one batch)"
        )
        assert merges[0].message.request_id == "r0/u1"
        # The parked envelope now carries the *fresh* payload.
        assert merges[0].message.state.value() == replica.state_of("k").value()
    assert replica.acceptor_stats.keyed_envelopes_superseded == 2


def test_redrive_skips_already_acked_peers_in_the_outbox_too():
    # Five members: local + one remote ack is not yet a quorum, so the
    # batch stays open across the ack and the re-drive.
    replica = KeyedCrdtReplica(
        "r0",
        ["r0", "r1", "r2", "r3", "r4"],
        lambda key: GCounter.initial(),
        CrdtPaxosConfig(keyed_coalesce_window=0.005, request_timeout=0.5),
    )
    effects = replica.on_message(
        "c", Keyed(key="k", message=ClientUpdate("u1", Increment(1))), 0.0
    )
    (uto_key,) = [key for key, _ in effects.timers if "|uto:" in key]
    # r1 acks (its parked copy was flushed in a real run; simulate the
    # ack arriving).  The re-drive must then target only the others.
    flushed = replica.on_timer("keyspace-coalesce", 0.01)
    assert {dst for dst, _ in flushed.sends} == {"r1", "r2", "r3", "r4"}
    replica.on_message(
        "r1", Keyed(key="k", message=Merged(request_id="r0/u1")), 0.2
    )
    replica.on_timer(uto_key, 0.6)
    assert parked_merges(replica, "r1") == []
    for peer in ("r2", "r3", "r4"):
        assert len(parked_merges(replica, peer)) == 1


def test_new_batch_refreshes_parked_redriven_merge_in_delta_mode():
    """ISSUE-9 satellite: deltas folded into a re-drive accumulator after
    the re-driven MERGE parked must still reach the wire.

    In delta mode a new update batch folds its delta into every open
    batch's re-drive accumulator ("their next re-send carries this
    batch's updates too").  But with coalescing, the open batch's latest
    re-driven MERGE may already sit *materialized* in the outbox, built
    from the pre-fold accumulator value — before the fix the flush
    shipped that stale fragment and the folded delta waited for the next
    timeout round.  The fix re-sends the open batch's MERGE at fold
    time, superseding the parked slot in place.
    """
    replica = KeyedCrdtReplica(
        "r0",
        list(PEERS),
        lambda key: GCounter.initial(),
        CrdtPaxosConfig(
            keyed_coalesce_window=0.005,
            request_timeout=0.5,
            update_pipeline=2,
            delta_merge=True,
        ),
    )
    effects = replica.on_message(
        "c", Keyed(key="k", message=ClientUpdate("u1", Increment(1))), 0.0
    )
    (uto_key,) = [key for key, _ in effects.timers if "|uto:" in key]
    # Batch 1 times out and re-drives; the re-driven MERGE parks
    # (superseding the original in its slot).
    replica.on_timer(uto_key, 0.6)
    # A second batch starts before the flush fires.  Its delta folds
    # into batch 1's re-drive accumulator, so batch 1's parked envelope
    # must now carry the full fold, not the pre-fold fragment.
    replica.on_message(
        "c", Keyed(key="k", message=ClientUpdate("u2", Increment(2))), 0.65
    )
    expected = replica.state_of("k").value()
    for dst in ("r1", "r2"):
        by_batch = {
            keyed.message.request_id: keyed.message
            for keyed in parked_merges(replica, dst)
        }
        assert set(by_batch) == {"r0/u1", "r0/u2"}
        assert by_batch["r0/u1"].state.value() == expected, (
            f"{dst}: parked re-driven MERGE still carries the stale "
            f"pre-fold payload ({by_batch['r0/u1'].state.value()} "
            f"of {expected})"
        )


def test_flush_packs_exactly_one_envelope_per_superseded_slot():
    # A pipelined proposer keeps two batches' MERGEs parked at once; a
    # re-drive of the second must not produce a duplicate inside the
    # flushed KeyedBatch.
    replica = KeyedCrdtReplica(
        "r0",
        list(PEERS),
        lambda key: GCounter.initial(),
        CrdtPaxosConfig(
            keyed_coalesce_window=0.005,
            request_timeout=0.5,
            update_pipeline=2,
        ),
    )
    replica.on_message(
        "c", Keyed(key="k", message=ClientUpdate("u1", Increment(1))), 0.0
    )
    effects = replica.on_message(
        "c", Keyed(key="k", message=ClientUpdate("u2", Increment(1))), 0.0
    )
    (uto_key,) = [key for key, _ in effects.timers if "|uto:" in key]
    replica.on_timer(uto_key, 0.6)  # supersede batch 2's parked MERGE
    flush = replica.on_timer("keyspace-coalesce", 0.7)
    assert flush.sends
    for _, message in flush.sends:
        items = message.items if hasattr(message, "items") else [message]
        request_ids = [item.message.request_id for item in items]
        assert len(request_ids) == len(set(request_ids)), request_ids
        assert len(request_ids) == 2  # both batches, once each
