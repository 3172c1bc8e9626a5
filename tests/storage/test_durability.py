"""Write-through durability edges: persist-before-ack, torn frames,
stale-recovery refusal and the group-commit window.

The §3.3 safety argument for logless recovery assumes every promise a
peer has *seen* rests on durable state.  ``write_through`` enforces that
ordering — the key's triple is put in the handling step and its
certifying acks park until a flush covers it — so the interesting
failures are the ones between those two points: a torn frame mid-put
(the ack must never have escaped), power loss between a put and its
flush (ditto), bit-rot discovered at reopen (recovery must refuse, not
serve garbage), and a store with no clean-shutdown marker from a
generation that ran *without* write-through (recovery must refuse or
force a rejoin; serving the stale pairs directly could re-grant
promises the dead process already gave away).
"""

import copy
import pathlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import CrdtPaxosConfig
from repro.core.keyspace import _CERTIFYING, _SYNC_TIMER, Keyed, KeyedCrdtReplica
from repro.core.messages import (
    ClientQuery,
    ClientUpdate,
    Merge,
    Merged,
    PrepareAck,
    QueryDone,
    Refused,
    UpdateDone,
)
from repro.core.rounds import WRITE_ID
from repro.crdt.base import IdentityQuery
from repro.crdt.gcounter import GCounter, Increment
from repro.errors import SpillCorruption, StaleRecoveryError
from repro.storage import (
    FaultySpillStore,
    InMemorySpillStore,
    SegmentedSpillStore,
    VolatileSpillStore,
)


def write_through_replica(store, peers=("r0",), **config_kw):
    return KeyedCrdtReplica(
        "r0",
        list(peers),
        lambda key: GCounter.initial(),
        CrdtPaxosConfig(durability="write_through", **config_kw),
        spill_store=store,
    )


def update(replica, key, rid, amount=1):
    return replica.on_message(
        "c", Keyed(key=key, message=ClientUpdate(rid, Increment(amount))), 0.0
    )


class _TornStore(SegmentedSpillStore):
    """Tears the Nth frame append: half the bytes reach the file, then
    the write "fails" — the moment a kill -9 lands mid-write."""

    def __init__(self, directory, tear_at: int = 10**9, **kwargs):
        self.tear_at = tear_at
        self.appends = 0
        super().__init__(directory, **kwargs)

    def _append(self, kind, body):
        self.appends += 1
        if self.appends >= self.tear_at:
            from repro.storage.segmented import _frame

            frame = _frame(kind, body)
            self._active_file.write(frame[: max(1, len(frame) // 2)])
            self._active_file.flush()
            raise OSError("simulated torn write")
        return super()._append(kind, body)


class TestPersistBeforeAck:
    def test_ack_escapes_only_after_the_flush(self, tmp_path):
        """The handling step puts but does not flush, so its ack is
        *absent* from the effects it returns; the sync tick it armed at
        delay 0 flushes, and only that tick's effects carry the ack."""
        disk = SegmentedSpillStore(tmp_path)
        replica = write_through_replica(VolatileSpillStore(disk))
        effects = update(replica, "k", "u1", amount=5)
        assert not any(isinstance(m.message, UpdateDone) for _, m in effects.sends)
        assert (_SYNC_TIMER, 0.0) in effects.timers
        assert disk.get("k") is None  # nothing fsynced yet
        released = replica.on_timer(_SYNC_TIMER, 0.0)
        assert any(isinstance(m.message, UpdateDone) for _, m in released.sends)
        # The promise the released ack certifies is on disk.
        fresh = SegmentedSpillStore(tmp_path)
        assert fresh.get("k").state.value() == 5
        fresh.close()
        disk.close()

    def test_torn_put_means_no_ack_escaped(self, tmp_path):
        """The write tears mid-frame: the replica *refuses* the step —
        the client gets ``Refused(code="storage")`` instead of its done
        message and no certifying ack escapes.  No peer saw a promise
        the disk does not hold, which is exactly why the reopen below
        is safe."""
        store = _TornStore(tmp_path, tear_at=10**9)
        replica = write_through_replica(store)
        update(replica, "k", "u1", amount=5)
        store.tear_at = store.appends + 1  # tear the very next frame
        effects = update(replica, "k", "u2", amount=3)
        payloads = [m.message for _, m in effects.sends]
        assert not any(isinstance(m, UpdateDone) for m in payloads)
        assert any(
            isinstance(m, Refused) and m.code == "storage" for m in payloads
        )
        assert replica.persist_refusals == 1

        # A new process opens the directory: the half-written frame is
        # torn-tail garbage, truncated on replay; the durable state is
        # exactly what was acked.
        reopened = SegmentedSpillStore(tmp_path)
        assert reopened.torn_tail_bytes > 0
        assert reopened.get("k").state.value() == 5
        recovered = KeyedCrdtReplica.recover(
            reopened,
            "r0",
            ["r0"],
            lambda key: GCounter.initial(),
            CrdtPaxosConfig(durability="write_through"),
        )
        assert recovered.state_of("k").value() == 5
        reopened.close()

    def test_bit_rot_refused_at_recovery(self, tmp_path):
        """CRC rot in a non-last segment is not torn-write-tolerable:
        reopening for recovery must raise, never serve a garbled pair."""
        store = SegmentedSpillStore(tmp_path)
        replica = write_through_replica(store)
        for i in range(40):
            update(replica, f"k{i}", f"u{i}", amount=i + 1)
        store.close()
        segments = sorted(pathlib.Path(tmp_path).glob("seg-*.spill"))
        data = bytearray(segments[0].read_bytes())
        data[len(data) // 2] ^= 0xFF
        segments[0].write_bytes(bytes(data))
        # A later (even empty) segment makes the rotted one non-last.
        (pathlib.Path(tmp_path) / "seg-99999999.spill").write_bytes(b"")
        with pytest.raises(SpillCorruption):
            SegmentedSpillStore(tmp_path)

    def test_write_through_survives_recovery_without_clean_marker(self, tmp_path):
        """A write-through generation needs no clean shutdown: the store
        is trustworthy by construction, so recover() must accept it."""
        store = SegmentedSpillStore(tmp_path)
        replica = write_through_replica(store)
        update(replica, "k", "u1", amount=7)
        # kill -9: no spill_all, no close.
        reopened = SegmentedSpillStore(tmp_path)
        meta = reopened.get_meta()
        assert meta is not None and meta.get("clean_shutdown") is not True
        recovered = KeyedCrdtReplica.recover(
            reopened,
            "r0",
            ["r0"],
            lambda key: GCounter.initial(),
            CrdtPaxosConfig(durability="write_through"),
        )
        assert recovered.state_of("k").value() == 7
        reopened.close()
        store.close()


class TestStaleRecoveryRefusal:
    def _unclean_store_from_none_generation(self):
        """A durability='none' generation that spilled records (frozen
        overflow) and then died without spill_all.  Acceptor-only merge
        traffic quiesces instantly, so cold keys demote and spill."""
        store = InMemorySpillStore()
        replica = KeyedCrdtReplica(
            "r0",
            ["r0", "r1", "r2"],
            lambda key: GCounter.initial(),
            CrdtPaxosConfig(keyed_max_resident=1, keyed_max_frozen=0),
            spill_store=store,
        )
        for i in range(4):
            payload = Increment(i + 1).apply(GCounter.initial(), "r1")
            replica.on_message(
                "r1",
                Keyed(key=f"k{i}", message=Merge(request_id=f"m{i}", state=payload)),
                0.0,
            )
        assert len(store) > 0  # eviction really spilled records
        return store

    def test_unclean_none_durability_store_is_refused(self):
        """Regression: this store's records may predate promises the
        dead generation acked after its last spill.  Serving them
        directly used to be possible; now it raises."""
        store = self._unclean_store_from_none_generation()
        with pytest.raises(StaleRecoveryError):
            KeyedCrdtReplica.recover(
                store, "r0", ["r0", "r1", "r2"], lambda key: GCounter.initial()
            )

    def test_rejoin_accepts_and_gates_the_stale_keys(self):
        store = self._unclean_store_from_none_generation()
        recovered = KeyedCrdtReplica.recover(
            store,
            "r0",
            ["r0", "r1", "r2"],
            lambda key: GCounter.initial(),
            rejoin=True,
        )
        assert recovered.rejoin_pending_count() == len(store)
        # Every recovered key opens a quorum refresh, not normal service.
        effects = recovered.rejoin()
        assert len(effects.sends) > 0

    def test_clean_shutdown_recovers_without_rejoin(self):
        store = InMemorySpillStore()
        replica = KeyedCrdtReplica(
            "r0",
            ["r0", "r1", "r2"],
            lambda key: GCounter.initial(),
            CrdtPaxosConfig(keyed_max_resident=1, keyed_max_frozen=0),
            spill_store=store,
        )
        update(replica, "k", "u1")
        replica.spill_all()
        recovered = KeyedCrdtReplica.recover(
            store, "r0", ["r0", "r1", "r2"], lambda key: GCounter.initial()
        )
        assert recovered.rejoin_pending_count() == 0

    def test_single_member_rejoin_degenerates_to_plain_recovery(self):
        """A 1-member group IS its own read quorum: there is no peer to
        refresh from, so rejoin=True must not strand keys pending."""
        store = InMemorySpillStore()
        replica = KeyedCrdtReplica(
            "r0",
            ["r0"],
            lambda key: GCounter.initial(),
            CrdtPaxosConfig(keyed_max_resident=1, keyed_max_frozen=0),
            spill_store=store,
        )
        update(replica, "a", "u1", amount=2)
        update(replica, "b", "u2", amount=3)  # demotes + spills "a"
        recovered = KeyedCrdtReplica.recover(
            store, "r0", ["r0"], lambda key: GCounter.initial(), rejoin=True
        )
        assert recovered.rejoin_pending_count() == 0
        assert recovered.state_of("a").value() == 2


class TestGroupSync:
    """The sync tick is a group commit: one flush covers every put since
    the last tick, and only then are the parked acks released."""

    def test_certifying_acks_park_until_the_flush(self):
        """The puts of several steps happen in-step but every client
        done message waits for the one group-commit tick — nothing a
        learn certificate could rest on escapes before the fsync."""
        volatile = VolatileSpillStore(InMemorySpillStore())
        replica = write_through_replica(volatile)
        effects = update(replica, "k", "u1", amount=4)
        effects.merge(update(replica, "j", "u2", amount=1))
        assert not any(
            isinstance(m.message, UpdateDone)
            for _, m in effects.sends
            if isinstance(m, Keyed)
        )
        assert volatile.delegate.get("k") is None  # not yet fsynced
        # The sync timer fires: one flush covers both steps, both parked
        # acks are released.
        released = replica.on_timer(_SYNC_TIMER, 0.0)
        assert sum(
            isinstance(m.message, UpdateDone) for _, m in released.sends
        ) == 2
        assert volatile.delegate.get("k").state.value() == 4
        assert volatile.delegate.get("j").state.value() == 1
        assert (replica.group_commits, replica.group_commit_acks) == (1, 2)

    def test_kill_before_the_flush_loses_state_but_leaked_no_ack(self):
        volatile = VolatileSpillStore(InMemorySpillStore())
        replica = write_through_replica(volatile)
        update(replica, "k", "u1", amount=4)
        volatile.crash()  # kill -9 before the sync tick fired
        recovered = KeyedCrdtReplica.recover(
            volatile,
            "r0",
            ["r0"],
            lambda key: GCounter.initial(),
            CrdtPaxosConfig(durability="write_through"),
            rejoin=True,
        )
        # The update is gone — and that is safe, because its UpdateDone
        # was parked behind the flush and died with the process.
        assert recovered.state_of("k").value() == 0

    def test_durability_requires_a_spill_store(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            KeyedCrdtReplica(
                "r0",
                ["r0"],
                lambda key: GCounter.initial(),
                CrdtPaxosConfig(durability="write_through"),
            )


class TestDemotionDoesNotRewrite:
    """Under a durable mode the persist step already wrote the triple a
    demotion would spill, bit for bit — the demotion drops the RAM
    record and writes nothing."""

    _CAPS = dict(keyed_max_resident=1, keyed_max_frozen=0)

    def test_one_put_per_persist_however_many_demotions(self):
        store = InMemorySpillStore()
        replica = write_through_replica(store, **self._CAPS)
        for i in range(12):
            update(replica, f"k{i % 4}", f"u{i}", amount=1)
        assert replica.spills > 0 and replica.spill_loads > 0
        assert store.puts == replica.write_through_persists
        for i in range(4):  # nothing was lost by not rewriting
            assert store.get(f"k{i}").state.value() == 3

    def test_key_whose_persist_failed_is_still_put_on_demotion(self):
        store = FaultySpillStore(InMemorySpillStore())
        replica = write_through_replica(store, **self._CAPS)
        store.break_io()
        update(replica, "a", "u1", amount=5)  # RAM-only: the put failed
        store.heal_io()
        assert store.get("a") is None
        update(replica, "b", "u2", amount=1)  # demotes "a" past both caps
        assert replica.frozen_count() == 0
        assert store.get("a").state.value() == 5

    def test_thawed_unstored_record_gets_no_durable_stamp(self):
        """A record frozen after a failed persist and thawed from RAM
        must re-put on its next step even if that step changes nothing
        — the stamp may only claim what the store holds."""
        store = FaultySpillStore(InMemorySpillStore())
        replica = write_through_replica(
            store, keyed_max_resident=2, keyed_max_frozen=4
        )
        store.break_io()
        update(replica, "a", "u1", amount=5)
        store.heal_io()
        update(replica, "b", "u2", amount=1)
        update(replica, "c", "u3", amount=1)  # freezes "a" in RAM, unstored
        assert replica.frozen_count() == 2 and store.get("a") is None
        replica.on_message(
            "r1", Keyed(key="a", message=Merge("m1", GCounter.initial())), 0.0
        )
        assert store.get("a").state.value() == 5


# ----------------------------------------------------------------------
# Power loss at every prefix
# ----------------------------------------------------------------------
_PEERS = ["r0", "r1", "r2"]
_PREFIX_KEYS = ["a", "b", "c"]


class _AttestingReplica(KeyedCrdtReplica):
    """Notes, for every certifying message a handling step produces, the
    key's ``(payload, round, learned-max)`` triple at that moment — the
    state the message attests once it escapes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: id(message) → (message, key, state, round, learned_max); the
        #: message reference pins the id.
        self.attested = {}

    def _wrap(self, key, effects):
        inst = self._resident.get(key)
        if inst is not None:
            learned_max = (
                inst.proposer.learned_max
                if inst.proposer is not None
                else inst.learned_max
            )
            for _, message in effects.sends:
                if isinstance(message, _CERTIFYING):
                    self.attested[id(message)] = (
                        message,
                        key,
                        inst.acceptor.state,
                        inst.acceptor.round,
                        learned_max,
                    )
        return super()._wrap(key, effects)


def _subsumed(recovered, state, round_, learned_max):
    """Does the recovered triple cover an attested one?  Payloads and
    learned maxima by lattice order; rounds by number, and at an equal
    number the id may only have moved on to the update marker."""
    if not state.compare(recovered.acceptor.state):
        return False
    have = recovered.acceptor.round
    if have.number < round_.number:
        return False
    if have.number == round_.number and have.rid not in (round_.rid, WRITE_ID):
        return False
    if learned_max is not None:
        return recovered.learned_max is not None and learned_max.compare(
            recovered.learned_max
        )
    return True


def _crash_at_every_prefix(gla, seed, n_requests) -> set[type]:
    """A seeded random interleaving of client commands, peer traffic (in
    any order) and sync ticks at ``r0``, run to quiescence over a store
    that forgets everything since its last flush.  After every step the
    plug is pulled on a copy of the store: the triple recovered from it
    must subsume what every certifying message handed to the driver so
    far attested.  Returns the kinds of certifying message that escaped."""
    rng = random.Random(seed)
    config = CrdtPaxosConfig(
        durability="write_through",
        gla_stability=gla,
        request_timeout=None,
        keyed_max_resident=1,
        keyed_max_frozen=1,
    )
    store = VolatileSpillStore(InMemorySpillStore())
    r0 = _AttestingReplica(
        "r0", _PEERS, lambda key: GCounter.initial(), config, spill_store=store
    )
    peers = {
        peer: KeyedCrdtReplica(
            peer,
            _PEERS,
            lambda key: GCounter.initial(),
            CrdtPaxosConfig(request_timeout=None, gla_stability=gla),
        )
        for peer in _PEERS[1:]
    }
    in_flight: list[tuple[str, str, Keyed]] = []  # (src, dst, message)
    escaped: list[tuple] = []
    kinds: set[type] = set()
    sync_armed = False

    def drive(effects):
        """What a driver does with r0's effects: the sends have left."""
        nonlocal sync_armed
        for dst, keyed in effects.sends:
            attested = r0.attested.get(id(keyed.message))
            if attested is not None:
                escaped.append(attested)
                kinds.add(type(keyed.message))
            if dst in peers:
                in_flight.append(("r0", dst, keyed))
        if any(key == _SYNC_TIMER for key, _ in effects.timers):
            sync_armed = True

    def deliver(src, dst, keyed, now):
        if dst == "r0":
            drive(r0.on_message(src, keyed, now))
            return
        for out, reply in peers[dst].on_message(src, keyed, now).sends:
            if out in _PEERS:
                in_flight.append((dst, out, reply))

    injected = step = 0
    while injected < n_requests or in_flight or sync_armed:
        step += 1
        now = float(step)
        choice = rng.random()
        if injected < n_requests and (choice < 0.2 or not (in_flight or sync_armed)):
            injected += 1
            command = (
                ClientUpdate(f"u{injected}", Increment(rng.randint(1, 3)))
                if rng.random() < 0.5
                else ClientQuery(f"q{injected}", IdentityQuery())
            )
            keyed = Keyed(key=rng.choice(_PREFIX_KEYS), message=command)
            # Two thirds at r0: its proposer's completions are the
            # certifying messages with the longest causal tail.
            deliver("client", rng.choice(("r0", "r0", "r1")), keyed, now)
        elif sync_armed and (choice < 0.45 or not in_flight):
            sync_armed = False
            drive(r0.on_timer(_SYNC_TIMER, now))
        elif in_flight:
            deliver(*in_flight.pop(rng.randrange(len(in_flight))), now)

        # Pull the plug here: only what was flushed survives.
        dead = copy.deepcopy(store)
        dead.crash()
        recovered = KeyedCrdtReplica.recover(
            dead, "r0", _PEERS, lambda key: GCounter.initial(), config, rejoin=True
        )
        for message, attested_key, state, round_, learned_max in escaped:
            assert _subsumed(
                recovered.instance(attested_key), state, round_, learned_max
            ), f"{message!r} escaped before its triple was durable (step {step})"
    return kinds


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    gla=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    n_requests=st.integers(3, 12),
)
def test_power_loss_at_every_prefix_loses_nothing_an_ack_attested(
    gla, seed, n_requests
):
    _crash_at_every_prefix(gla, seed, n_requests)


def test_power_loss_property_is_exercised():
    """Vacuity guard: acceptor acks and client completions all escape
    (and are all checked)."""
    kinds: set[type] = set()
    for seed in range(8):
        kinds |= _crash_at_every_prefix(True, seed, 10)
    assert {Merged, PrepareAck, UpdateDone, QueryDone} <= kinds
