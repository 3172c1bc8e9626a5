"""Proactive ``rejoin()`` paces itself.

A cold-started replica over thousands of stored keys used to admit every
one and broadcast every refresh in a single call — past the resident cap
and past the transport's 512-message outbox, which shed most of it.  The
refreshes now go out a bounded window at a time, each completion opening
the next.
"""

from collections import deque

from repro.core.config import CrdtPaxosConfig
from repro.core.keyspace import (
    _REJOIN_WINDOW,
    _SYNC_TIMER,
    Keyed,
    KeyedCrdtReplica,
)
from repro.core.messages import Prepare, PrepareAck
from repro.core.rounds import Round
from repro.crdt.gcounter import GCounter
from repro.storage import InMemorySpillStore, SpillRecord

_PEERS = ["r0", "r1", "r2"]
_STORED = 2000
_RESIDENT_CAP = 256


def _initial(key):
    return GCounter.initial()


def test_rejoin_over_2000_stored_keys_stays_inside_its_window():
    store = InMemorySpillStore()
    for i in range(_STORED):
        store.put(
            f"k{i}",
            SpillRecord(GCounter.initial().incremented("r0", i + 1), Round.initial()),
        )
    config = CrdtPaxosConfig(
        durability="write_through",
        keyed_max_resident=_RESIDENT_CAP,
        keyed_max_frozen=512,
    )
    r0 = KeyedCrdtReplica.recover(store, "r0", _PEERS, _initial, config, rejoin=True)
    peers = {peer: KeyedCrdtReplica(peer, _PEERS, _initial) for peer in _PEERS[1:]}
    assert r0.rejoin_pending_count() == _STORED

    in_flight: deque = deque()  # (src, dst, message)
    peak_active = peak_resident = peak_burst = 0

    def drive(effects):
        """Execute r0's effects; the zero-delay sync tick fires at once."""
        nonlocal peak_active, peak_resident, peak_burst
        while True:
            peak_active = max(peak_active, len(r0._rejoin_active))
            peak_resident = max(peak_resident, r0.resident_count())
            for peer in peers:
                burst = sum(1 for dst, _ in effects.sends if dst == peer)
                peak_burst = max(peak_burst, burst)
            in_flight.extend(("r0", dst, message) for dst, message in effects.sends)
            if not any(key == _SYNC_TIMER for key, _ in effects.timers):
                return
            effects = r0.on_timer(_SYNC_TIMER, 0.0)

    drive(r0.rejoin())
    assert 0 < len(r0._rejoin_active) <= _REJOIN_WINDOW
    while in_flight:
        src, dst, message = in_flight.popleft()
        if dst == "r0":
            drive(r0.on_message(src, message, 0.0))
        else:
            in_flight.extend(
                (dst, out, reply)
                for out, reply in peers[dst].on_message(src, message, 0.0).sends
            )

    assert r0.rejoin_pending_count() == 0
    assert r0.rejoin_refreshes == _STORED
    assert peak_active <= _REJOIN_WINDOW
    assert peak_resident <= _RESIDENT_CAP + _REJOIN_WINDOW
    # No single driver turn hands a peer more than a window of PREPAREs
    # (the transport sheds past 512 queued messages per peer).
    assert peak_burst <= _REJOIN_WINDOW
    # The refreshed pairs kept what the store held.
    assert r0.state_of("k1999").value() == 2000


def test_lazy_refresh_of_a_queued_key_is_not_opened_twice():
    """Traffic may refresh a key the proactive pass has not reached yet;
    the queue skips it instead of opening a second refresh."""
    store = InMemorySpillStore()
    n_keys = _REJOIN_WINDOW + 4
    for i in range(n_keys):
        store.put(f"k{i}", SpillRecord(GCounter.initial(), Round.initial()))
    r0 = KeyedCrdtReplica.recover(
        store, "r0", _PEERS, _initial, CrdtPaxosConfig(), rejoin=True
    )
    effects = r0.rejoin()
    queued = list(r0._rejoin_queue)
    assert len(queued) == 4
    opened_before = r0._rejoin_seq
    # A peer's PREPARE for a queued key opens its refresh lazily.
    r0.on_message(
        "r1",
        Keyed(queued[-1], Prepare("p1", 0, Round.incremental((2, 1, 1)))),
        0.0,
    )
    assert r0._rejoin_seq == opened_before + 1
    # Complete every open refresh; the window refills from the queue.
    pending = deque(effects.sends)
    while pending:
        dst, keyed = pending.popleft()
        if dst != "r1" or not isinstance(keyed.message, Prepare):
            continue
        ack = PrepareAck(
            keyed.message.request_id, 0, Round.initial(), GCounter.initial()
        )
        pending.extend(r0.on_message("r1", Keyed(keyed.key, ack), 0.0).sends)
    # Every key was opened exactly once: n_keys refreshes in total, the
    # lazily opened one included — except that one still waits for its
    # own quorum (its PREPAREs were not in the effects driven above).
    assert r0._rejoin_seq == n_keys
    assert r0.rejoin_pending_count() == 1
