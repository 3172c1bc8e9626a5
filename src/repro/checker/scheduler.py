"""Adversarial interleaving exploration of CRDT Paxos.

Reproduces (and extends) the authors' testing methodology: client
commands and protocol messages are interleaved in *uniformly random
order* by an adversary, optionally spiced with message loss, duplication
and replica crash/recovery.  Every run is deterministic under its seed and
produces a :class:`~repro.checker.history.History` that the §3.1 checkers
validate.

Timeout-driven re-drives are disabled here on purpose — the adversary
already controls scheduling, and timeouts would let the protocol paper
over orderings we want to expose.  The explorer therefore forces
``request_timeout=None`` on the supplied configuration.

Batching (and with it the pipelined update path) *is* explorable: when
the supplied config enables ``batching``, flush timers are not discarded
but pooled per replica and fired by the adversary in uniformly random
order relative to message deliveries — a far more hostile cadence than
any real clock.  The same holds for ``retry_backoff`` timers: with a
positive backoff, a failed query attempt parks until its retry timer
fires, and the adversary fires those timers in arbitrary order too —
interleaving parked retries with fresh traffic instead of the repo's old
immediate-retry-only schedule.  Timers on crashed replicas are simply
withheld until recovery (internal state survives a crash in the paper's
model).

:class:`KeyedInterleavingExplorer` runs the same adversary against the
keyed deployment (:class:`~repro.core.keyspace.KeyedCrdtReplica`) with a
small ``keyed_max_resident`` cap, so cold-key eviction and rehydration
churn *under* adversarial traffic; per-key histories are validated
independently (keys never synchronize with each other).

Both explorers replicate G-Counters (inclusion of an increment is exact
there) starting from ``initial``, the empty counter by default.  A
counter padded with dormant zero slots has the same inclusion tags and
validity bounds but an encoding past the codec's sized crossover, which
puts the run on the large-payload paths: memoised blobs, interning and
digest-first PREPAREs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Hashable

from repro.api.codec import compile_query, compile_update, parse_completion
from repro.checker.history import History
from repro.core.config import CrdtPaxosConfig
from repro.core.keyspace import KeyedCrdtReplica
from repro.core.replica import CrdtPaxosReplica
from repro.crdt.base import IdentityQuery
from repro.crdt.gcounter import GCounter, Increment
from repro.net.adversary import AdversarialNetwork
from repro.net.message import Envelope
from repro.net.node import ProtocolNode
from repro.sim.kernel import Simulator
from repro.storage.base import SpillStore

#: Virtual time consumed by an injection step (keeps "now" increasing).
_STEP_EPSILON = 1e-9


class _DirectRuntime:
    """Zero-latency runtime: handles a delivery synchronously.

    Sends feed back into the adversarial pool.  Timer effects are
    discarded unless ``collect_timers`` is set, in which case armed keys
    sit in :attr:`pending_timers` (delays ignored — the adversary decides
    when, and whether, a timer fires).
    """

    def __init__(
        self,
        sim: Simulator,
        network: AdversarialNetwork,
        node: ProtocolNode,
        collect_timers: bool = False,
    ):
        self._sim = sim
        self._network = network
        self.node = node
        self.crashed = False
        self.collect_timers = collect_timers
        #: Ordered set of armed timer keys (insertion-ordered for
        #: deterministic random picks).
        self.pending_timers: dict[str, None] = {}
        network.register(node.node_id, self)

    def _apply(self, effects) -> None:
        for dst, message in effects.sends:
            self._network.send(self.node.node_id, dst, message)
        if self.collect_timers:
            for key, _delay in effects.timers:
                self.pending_timers[key] = None
            for key in effects.cancels:
                self.pending_timers.pop(key, None)

    def deliver(self, envelope: Envelope) -> None:
        if self.crashed:
            return
        self._apply(
            self.node.on_message(envelope.src, envelope.payload, self._sim.now)
        )

    def fire_timer(self, key: str) -> None:
        """Adversarially expire one armed timer (no-op while crashed)."""
        if self.crashed:
            return
        self.pending_timers.pop(key, None)
        self._sim.now += _STEP_EPSILON
        self._apply(self.node.on_timer(key, self._sim.now))


def _stamp_completion(open_requests: dict[str, Any], message: Any, now: float) -> None:
    """Stamp a completed operation's record from its Done message.

    Shared by the unkeyed and keyed recording clients so the record shape
    has exactly one source of truth.  Replies are normalized through the
    Store API's :func:`repro.api.codec.parse_completion` — the same
    decoding every real client performs (Keyed unwrapping included)."""
    completion = parse_completion(message)
    if completion is None:
        return
    if completion.kind == "refused":
        # A refusal is NOT a completion: the replica gave up (no quorum,
        # or a failed write-through persist) and the client may retry the
        # same request verbatim.  The record stays open, so the checkers
        # treat the operation like any other incomplete one — stamping it
        # here would fabricate a query "result" of None and fail the
        # history well-formedness check for a behaviour that is correct.
        return
    record = open_requests.pop(completion.request_id, None)
    if record is None:
        return
    record.completed_at = now
    if completion.kind == "update":
        record.inclusion_tag = completion.inclusion_tag
    else:
        record.state = completion.result
        record.proposer = completion.proposer
        record.learn_seq = completion.learn_seq
        record.round_trips = completion.round_trips
        record.learned_via = completion.learned_via


class _RecordingClient:
    """Injects operations and stamps the history on completion."""

    def __init__(
        self,
        sim: Simulator,
        network: AdversarialNetwork,
        address: str,
        history: History,
    ) -> None:
        self._sim = sim
        self._network = network
        self.address = address
        self._history = history
        self._open: dict[str, Any] = {}
        self._counter = 0
        network.register(address, self)

    def inject_update(self, replica: str) -> None:
        self._counter += 1
        op_id = f"{self.address}/u{self._counter}"
        self._sim.now += _STEP_EPSILON
        self._open[op_id] = self._history.begin_update(
            op_id, replica, self._sim.now
        )
        self._network.send(
            self.address, replica, compile_update(op_id, Increment())
        )

    def inject_query(self, replica: str) -> None:
        self._counter += 1
        op_id = f"{self.address}/q{self._counter}"
        self._sim.now += _STEP_EPSILON
        self._open[op_id] = self._history.begin_query(
            op_id, replica, self._sim.now
        )
        self._network.send(
            self.address, replica, compile_query(op_id, IdentityQuery())
        )

    def deliver(self, envelope: Envelope) -> None:
        _stamp_completion(self._open, envelope.payload, self._sim.now)


@dataclass
class ExplorationReport:
    """Outcome of one adversarial run."""

    history: History
    steps: int
    deliveries: int
    injections: int
    crashes: int
    recoveries: int
    timer_fires: int = 0
    #: Deepest update pipeline any replica reached (1 = stop-and-wait).
    max_update_pipeline: int = 0
    #: Digest-first PREPAREs acked as a fingerprint match, all replicas.
    prepares_matched: int = 0

    @property
    def all_complete(self) -> bool:
        return all(u.complete for u in self.history.updates) and all(
            q.complete for q in self.history.queries
        )


class InterleavingExplorer:
    """Runs one adversarially scheduled workload against CRDT Paxos."""

    def __init__(
        self,
        seed: int,
        n_replicas: int = 3,
        n_clients: int = 3,
        config: CrdtPaxosConfig | None = None,
        initial: GCounter = GCounter.initial(),
    ) -> None:
        self.seed = seed
        self.n_replicas = n_replicas
        self.n_clients = n_clients
        self.initial = initial
        base = config or CrdtPaxosConfig()
        # Batching and retry backoff are preserved: with either on, the
        # flush/retry timers become adversarially scheduled events (see
        # module docstring) — this is how the pipelined update path and
        # the parked-retry path get explored.
        self.config = replace(
            base,
            request_timeout=None,
            inclusion_tagger=lambda state, replica: (replica, state.slot(replica)),
        )
        self._collect_timers = base.batching or base.retry_backoff > 0

    def run(
        self,
        n_ops: int = 40,
        read_fraction: float = 0.5,
        drop_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        crash_probability: float = 0.0,
        max_steps: int = 200_000,
    ) -> ExplorationReport:
        sim = Simulator(seed=self.seed)
        network = AdversarialNetwork(sim)
        rng = sim.rng.stream("explorer")
        history = History()

        runtimes = {}
        replica_ids = [f"r{i}" for i in range(self.n_replicas)]
        replica_set = set(replica_ids)
        # Client sessions are dedup'd in practice (request ids over TCP);
        # only replica↔replica channels may duplicate.
        network.duplicable = (
            lambda envelope: envelope.src in replica_set
            and envelope.dst in replica_set
        )
        for replica_id in replica_ids:
            node = CrdtPaxosReplica(
                replica_id, list(replica_ids), self.initial, self.config
            )
            runtimes[replica_id] = _DirectRuntime(
                sim, network, node, collect_timers=self._collect_timers
            )
        clients = [
            _RecordingClient(sim, network, f"c{i}", history)
            for i in range(self.n_clients)
        ]

        plan: list[str] = [
            "read" if rng.random() < read_fraction else "update"
            for _ in range(n_ops)
        ]
        max_crashed = (self.n_replicas - 1) // 2
        crashed: set[str] = set()
        steps = deliveries = injections = crashes = recoveries = 0
        timer_fires = 0

        def timer_targets() -> list[_DirectRuntime]:
            return [
                runtime
                for runtime in runtimes.values()
                if runtime.pending_timers and not runtime.crashed
            ]

        while steps < max_steps and (plan or network.pending or timer_targets()):
            steps += 1
            inject_now = bool(plan) and (
                network.pending == 0 or rng.random() < 0.25
            )
            if inject_now:
                kind = plan.pop()
                client = rng.choice(clients)
                replica = rng.choice(replica_ids)
                if kind == "update":
                    client.inject_update(replica)
                else:
                    client.inject_query(replica)
                injections += 1
                continue

            if crash_probability > 0.0 and rng.random() < crash_probability:
                if crashed and rng.random() < 0.5:
                    recovered = rng.choice(sorted(crashed))
                    crashed.discard(recovered)
                    runtimes[recovered].crashed = False
                    recoveries += 1
                    continue
                if len(crashed) < max_crashed:
                    victim = rng.choice(
                        [r for r in replica_ids if r not in crashed]
                    )
                    crashed.add(victim)
                    runtimes[victim].crashed = True
                    crashes += 1
                    continue

            targets = timer_targets()
            if targets and (network.pending == 0 or rng.random() < 0.15):
                runtime = rng.choice(targets)
                key = rng.choice(list(runtime.pending_timers))
                runtime.fire_timer(key)
                timer_fires += 1
                continue

            if network.deliver_random(drop_probability, duplicate_probability):
                deliveries += 1

        # Heal everything and let the system quiesce so that as many
        # operations as possible complete before checking.  With batching,
        # quiescence needs flush timers: alternate firing every armed
        # timer with a full drain until a fixpoint (the flush timer stops
        # re-arming once buffers and pipelines are empty).
        for replica_id in crashed:
            runtimes[replica_id].crashed = False
        network.drain(max_deliveries=max_steps)
        for _ in range(200):
            fired = False
            for runtime in runtimes.values():
                for key in list(runtime.pending_timers):
                    runtime.fire_timer(key)
                    fired = True
                    timer_fires += 1
            network.drain(max_deliveries=max_steps)
            if not fired and not network.pending:
                break

        return ExplorationReport(
            history=history,
            steps=steps,
            deliveries=deliveries,
            injections=injections,
            crashes=crashes,
            recoveries=recoveries,
            timer_fires=timer_fires,
            max_update_pipeline=max(
                runtime.node.proposer.stats.max_update_pipeline
                for runtime in runtimes.values()
            ),
            prepares_matched=sum(
                runtime.node.acceptor.stats.prepares_matched
                for runtime in runtimes.values()
            ),
        )


class _KeyedRecordingClient:
    """Injects per-key operations (Keyed envelopes), stamps per-key
    histories on completion."""

    def __init__(
        self,
        sim: Simulator,
        network: AdversarialNetwork,
        address: str,
        histories: dict[Hashable, History],
    ) -> None:
        self._sim = sim
        self._network = network
        self.address = address
        self._histories = histories
        self._open: dict[str, Any] = {}
        self._counter = 0
        network.register(address, self)

    def _history(self, key: Hashable) -> History:
        history = self._histories.get(key)
        if history is None:
            history = self._histories[key] = History()
        return history

    def inject_update(self, replica: str, key: Hashable) -> None:
        self._counter += 1
        op_id = f"{self.address}/u{self._counter}"
        self._sim.now += _STEP_EPSILON
        self._open[op_id] = self._history(key).begin_update(
            op_id, replica, self._sim.now
        )
        self._network.send(
            self.address, replica, compile_update(op_id, Increment(), key=key)
        )

    def inject_query(self, replica: str, key: Hashable) -> None:
        self._counter += 1
        op_id = f"{self.address}/q{self._counter}"
        self._sim.now += _STEP_EPSILON
        self._open[op_id] = self._history(key).begin_query(
            op_id, replica, self._sim.now
        )
        self._network.send(
            self.address, replica, compile_query(op_id, IdentityQuery(), key=key)
        )

    def deliver(self, envelope: Envelope) -> None:
        _stamp_completion(self._open, envelope.payload, self._sim.now)


@dataclass
class KeyedExplorationReport:
    """Outcome of one adversarial run against the keyed deployment."""

    histories: dict[Hashable, History] = field(default_factory=dict)
    steps: int = 0
    deliveries: int = 0
    injections: int = 0
    timer_fires: int = 0
    #: Cold-key demotions / rehydrations summed over all replicas.
    evictions: int = 0
    rehydrations: int = 0
    #: Spill tier: records written to / loaded from the spill stores.
    spills: int = 0
    spill_loads: int = 0
    #: Kill/restart events (replica rebuilt via recover()).
    restarts: int = 0
    #: Hard kills: no spill_all — only what durability already persisted
    #: survives, and the fresh node rejoins from a read quorum.
    hard_kills: int = 0
    #: Keys refreshed from a read quorum before first post-kill use.
    rejoin_refreshes: int = 0
    #: Durability-path writes/flushes summed over all node generations.
    write_through_persists: int = 0
    group_commits: int = 0
    #: Certifying acks those flushes released (acks per fsync = this / commits).
    group_commit_acks: int = 0
    #: Steps refused (acks suppressed) because a persist failed.
    persist_refusals: int = 0
    #: Cross-key envelope coalescing totals (keyed_coalesce_window).
    keyed_batches_packed: int = 0
    keyed_batches_unpacked: int = 0
    #: Parked envelopes superseded in place (coalescing-aware re-drives).
    keyed_envelopes_superseded: int = 0
    #: Digest-first PREPAREs acked as a fingerprint match.
    prepares_matched: int = 0

    @property
    def all_complete(self) -> bool:
        return all(
            all(u.complete for u in history.updates)
            and all(q.complete for q in history.queries)
            for history in self.histories.values()
        )


@dataclass
class KeyedNemesisContext:
    """Handle a nemesis driver uses to act on a keyed adversarial run.

    Passed to the ``begin`` / ``step`` / ``finish`` hooks of the object
    given to :meth:`KeyedInterleavingExplorer.run` as ``nemesis=``.  The
    driver mutates the run through it: block links on
    :attr:`network` (``network.blocked`` / ``network.link_loss``), kill
    replicas via :meth:`hard_kill` (several calls in one ``step`` model
    simultaneous kills), or poke spill stores via
    ``explorer.spill_stores``.  See :mod:`repro.nemesis.campaign` for the
    schedule-driven driver built on this.
    """

    explorer: "KeyedInterleavingExplorer"
    sim: Simulator
    network: AdversarialNetwork
    rng: random.Random
    runtimes: dict[str, "_DirectRuntime"]
    replica_ids: list[str]
    report: KeyedExplorationReport

    def hard_kill(self, victim: str) -> None:
        """kill -9 ``victim`` now (no shutdown hook; rejoin on restart)."""
        self.explorer._hard_restart(
            self.runtimes[victim], self.replica_ids, self.report
        )

    def rejoining(self) -> list[str]:
        """Replicas with a rejoin in progress (keys not yet refreshed)."""
        rejoining = []
        for replica_id, runtime in self.runtimes.items():
            pending = getattr(runtime.node, "rejoin_pending_count", None)
            if pending is not None and pending() > 0:
                rejoining.append(replica_id)
        return rejoining


class KeyedInterleavingExplorer:
    """Adversarial runs against :class:`KeyedCrdtReplica` with eviction.

    ``keyed_max_resident`` defaults to fewer instances than ``n_keys``,
    so admission of a fresh key routinely demotes a quiescent one and a
    later touch rehydrates it — linearizability per key must survive the
    freeze/rehydrate cycle under adversarial delivery order.  Eviction
    only demotes idle instances, so the interesting interleavings are the
    ones where a key quiesces, freezes, and is then hit again while other
    keys' protocol traffic is still in flight.
    """

    def __init__(
        self,
        seed: int,
        n_replicas: int = 3,
        n_clients: int = 3,
        n_keys: int = 4,
        config: CrdtPaxosConfig | None = None,
        spill_factory: Callable[[], SpillStore] | None = None,
        keep_timeouts: bool = False,
        spill_reopen: Callable[[str, SpillStore], SpillStore] | None = None,
        initial: GCounter = GCounter.initial(),
    ) -> None:
        self.seed = seed
        #: Every key's initial payload.
        self.initial = initial
        self.n_replicas = n_replicas
        self.n_clients = n_clients
        self.keys = [f"k{i}" for i in range(n_keys)]
        #: One spill store per replica, built lazily in :meth:`run` and
        #: kept on the explorer so tests can inspect them afterwards.
        self.spill_factory = spill_factory
        self.spill_stores: dict[str, SpillStore] = {}
        #: Hard kills only: ``(replica_id, dead_store) -> reopened store``.
        #: Models reopening the on-disk state the way a restarted process
        #: would (e.g. a fresh SegmentedSpillStore over the same
        #: directory).  Without it, a store exposing ``crash()`` (the
        #: VolatileSpillStore power-loss model) has its volatile buffer
        #: dropped instead.
        self.spill_reopen = spill_reopen
        base = config or CrdtPaxosConfig()
        if base.keyed_max_resident is None:
            base = replace(base, keyed_max_resident=max(1, n_keys // 2))
        if spill_factory is not None and base.keyed_max_frozen is None:
            # Default the frozen cap below the keyspace so the spill tier
            # actually churns (frozen records leave RAM and reload).
            base = replace(base, keyed_max_frozen=max(0, n_keys // 4))
        # Idle eviction is forced off: the explorer's virtual clock only
        # advances by epsilon steps and its runtime never calls on_start,
        # so a sweep timer would never arm — a campaign relying on
        # keyed_idle_evict_s here would be vacuous.  Capacity eviction
        # (keyed_max_resident) is the mechanism this explorer churns.
        #
        # ``keep_timeouts`` preserves the supplied request_timeout: the
        # uto/qto supervision timers then pool with the other collected
        # timers and the adversary fires re-drives in arbitrary order
        # relative to deliveries and coalesce flushes — the schedule the
        # coalescing-aware re-drive fix is exercised under.
        self.config = replace(
            base,
            request_timeout=base.request_timeout if keep_timeouts else None,
            keyed_idle_evict_s=None,
            inclusion_tagger=lambda state, replica: (replica, state.slot(replica)),
        )
        # Coalescing parks peer traffic behind a flush timer, so with it
        # on the adversary must control (and eventually fire) that timer
        # too or the run would deadlock instead of quiescing.
        self._collect_timers = (
            base.batching
            or base.retry_backoff > 0
            or base.keyed_coalesce_window is not None
            or base.durability != "none"
            or keep_timeouts
        )

    @staticmethod
    def _accumulate(report: KeyedExplorationReport, node: KeyedCrdtReplica) -> None:
        """Fold one node generation's counters into the report (called
        for the dying node at a restart and for the final nodes)."""
        report.evictions += node.evictions
        report.rehydrations += node.rehydrations
        report.spills += node.spills
        report.spill_loads += node.spill_loads
        report.keyed_batches_packed += node.acceptor_stats.keyed_batches_packed
        report.keyed_batches_unpacked += node.acceptor_stats.keyed_batches_unpacked
        report.keyed_envelopes_superseded += (
            node.acceptor_stats.keyed_envelopes_superseded
        )
        report.prepares_matched += node.acceptor_stats.prepares_matched
        report.rejoin_refreshes += node.rejoin_refreshes
        report.write_through_persists += node.write_through_persists
        report.group_commits += node.group_commits
        report.group_commit_acks += node.group_commit_acks
        report.persist_refusals += node.persist_refusals

    def _restart(
        self,
        runtime: _DirectRuntime,
        replica_ids: list[str],
        report: KeyedExplorationReport,
    ) -> None:
        """Kill one replica and rebuild it purely from its spill store.

        The dying node first persists its durable snapshot
        (:meth:`~repro.core.keyspace.KeyedCrdtReplica.spill_all` — the
        shutdown hook; its final outbox flush is delivered, modelling
        acks that made it out before the process died).  Everything else
        — resident instances, open proposer bookkeeping, armed timers —
        dies with the process.  The fresh node starts with *zero* keys
        in RAM and rehydrates each from the store on first touch, while
        messages that were in flight across the restart arrive at the
        new generation.
        """
        old = runtime.node
        runtime._apply(old.spill_all())
        self._accumulate(report, old)
        fresh = KeyedCrdtReplica.recover(
            self.spill_stores[old.node_id],
            old.node_id,
            list(replica_ids),
            self._initial_for,
            self.config,
        )
        runtime.node = fresh
        runtime.pending_timers.clear()  # timers do not survive a restart
        runtime._apply(fresh.on_start(self._sim_now(runtime)))
        report.restarts += 1

    def _hard_restart(
        self,
        runtime: _DirectRuntime,
        replica_ids: list[str],
        report: KeyedExplorationReport,
    ) -> None:
        """kill -9 one replica and rebuild it from whatever is durable.

        Unlike :meth:`_restart` there is NO ``spill_all`` — the process
        gets no shutdown hook, so only what the durability policy already
        persisted survives.  The store itself crashes too: with a
        ``spill_reopen`` hook the dead store is reopened the way a fresh
        process would (a SegmentedSpillStore directory mid-compaction,
        say); otherwise a store exposing ``crash()`` drops its volatile
        buffer (the power-loss model).  The fresh node then *rejoins*:
        every recovered key is refreshed from a read quorum (a §3.3
        prepare) before it serves traffic, because its own pair may be
        stale.
        """
        old = runtime.node
        self._accumulate(report, old)
        store = self.spill_stores[old.node_id]
        if self.spill_reopen is not None:
            store = self.spill_reopen(old.node_id, store)
            self.spill_stores[old.node_id] = store
        else:
            crash = getattr(store, "crash", None)
            if crash is not None:
                crash()
        fresh = KeyedCrdtReplica.recover(
            store,
            old.node_id,
            list(replica_ids),
            self._initial_for,
            self.config,
            rejoin=True,
        )
        runtime.node = fresh
        runtime.pending_timers.clear()  # timers do not survive a kill
        runtime._apply(fresh.on_start(self._sim_now(runtime)))
        # Open the quorum refresh for every recovered key up front; the
        # prepares enter the adversarial pool like any other traffic.
        runtime._apply(fresh.rejoin())
        report.hard_kills += 1

    def _initial_for(self, key: Hashable) -> GCounter:
        return self.initial

    @staticmethod
    def _sim_now(runtime: _DirectRuntime) -> float:
        return runtime._sim.now

    def run(
        self,
        n_ops: int = 40,
        read_fraction: float = 0.5,
        drop_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        max_steps: int = 200_000,
        restart_at_injection: int | None = None,
        hard_kill_at_injection: int | None = None,
        nemesis: Any | None = None,
    ) -> KeyedExplorationReport:
        """One adversarial run; ``restart_at_injection`` kills and
        recovers a random replica once that many operations have been
        injected (requires a ``spill_factory``).  Operations that were
        open at the victim when it died may never complete — their
        clients crash-observed the restart — so restart campaigns check
        the per-key histories without asserting ``all_complete``.

        ``hard_kill_at_injection`` instead kills a random replica with
        *no* shutdown hook (see :meth:`_hard_restart`): only what the
        durability policy persisted survives, and the fresh node rejoins
        its recovered keys from a read quorum before serving them.

        ``nemesis`` installs a fault driver with ``begin(ctx)`` /
        ``step(ctx) -> bool`` / ``finish(ctx)`` hooks over a
        :class:`KeyedNemesisContext`.  ``step`` runs once per scheduler
        iteration before anything else; returning ``True`` consumes the
        step (the driver acted).  ``finish`` runs after the main loop and
        must heal whatever it broke — the explorer then releases any
        envelopes parked on blocked links and quiesces, so every run ends
        with a healed network regardless of the schedule's shape.
        """
        if restart_at_injection is not None and self.spill_factory is None:
            raise ValueError("restart_at_injection requires a spill_factory")
        if hard_kill_at_injection is not None and self.spill_factory is None:
            raise ValueError("hard_kill_at_injection requires a spill_factory")
        sim = Simulator(seed=self.seed)
        network = AdversarialNetwork(sim)
        rng = sim.rng.stream("keyed-explorer")
        report = KeyedExplorationReport()

        runtimes = {}
        replica_ids = [f"r{i}" for i in range(self.n_replicas)]
        replica_set = set(replica_ids)
        network.duplicable = (
            lambda envelope: envelope.src in replica_set
            and envelope.dst in replica_set
        )
        self.spill_stores = {}
        for replica_id in replica_ids:
            spill_store = None
            if self.spill_factory is not None:
                spill_store = self.spill_stores[replica_id] = self.spill_factory()
            node = KeyedCrdtReplica(
                replica_id,
                list(replica_ids),
                self._initial_for,
                self.config,
                spill_store=spill_store,
            )
            runtimes[replica_id] = _DirectRuntime(
                sim, network, node, collect_timers=self._collect_timers
            )
        clients = [
            _KeyedRecordingClient(sim, network, f"c{i}", report.histories)
            for i in range(self.n_clients)
        ]

        plan: list[str] = [
            "read" if rng.random() < read_fraction else "update"
            for _ in range(n_ops)
        ]

        def timer_targets() -> list[_DirectRuntime]:
            return [r for r in runtimes.values() if r.pending_timers]

        nemesis_ctx = None
        if nemesis is not None:
            nemesis_ctx = KeyedNemesisContext(
                explorer=self,
                sim=sim,
                network=network,
                rng=rng,
                runtimes=runtimes,
                replica_ids=replica_ids,
                report=report,
            )
            nemesis.begin(nemesis_ctx)

        while report.steps < max_steps and (
            plan or network.pending or timer_targets()
        ):
            report.steps += 1
            if nemesis_ctx is not None and nemesis.step(nemesis_ctx):
                continue
            if (
                restart_at_injection is not None
                and report.restarts == 0
                and report.injections >= restart_at_injection
            ):
                victim = rng.choice(replica_ids)
                self._restart(runtimes[victim], replica_ids, report)
                continue
            if (
                hard_kill_at_injection is not None
                and report.hard_kills == 0
                and report.injections >= hard_kill_at_injection
            ):
                victim = rng.choice(replica_ids)
                self._hard_restart(runtimes[victim], replica_ids, report)
                continue
            inject_now = bool(plan) and (
                network.pending == 0 or rng.random() < 0.25
            )
            if inject_now:
                kind = plan.pop()
                client = rng.choice(clients)
                replica = rng.choice(replica_ids)
                key = rng.choice(self.keys)
                if kind == "update":
                    client.inject_update(replica, key)
                else:
                    client.inject_query(replica, key)
                report.injections += 1
                continue

            targets = timer_targets()
            if targets and (network.pending == 0 or rng.random() < 0.15):
                runtime = rng.choice(targets)
                timer_key = rng.choice(list(runtime.pending_timers))
                runtime.fire_timer(timer_key)
                report.timer_fires += 1
                continue

            if network.deliver_random(drop_probability, duplicate_probability):
                report.deliveries += 1

        # Quiesce: heal the nemesis, then drain, then alternate firing
        # armed timers with full drains until a fixpoint (flush/retry
        # timers stop re-arming once buffers, pipelines and parked
        # retries are empty).  Envelopes parked on blocked links are
        # released *into* the pool rather than dropped — delivering the
        # pre-partition traffic after the heal is strictly more hostile.
        if nemesis_ctx is not None:
            nemesis.finish(nemesis_ctx)
        network.blocked = None
        network.link_loss = None
        network.release_held()
        network.drain(max_deliveries=max_steps)
        for _ in range(200):
            fired = False
            for runtime in runtimes.values():
                for timer_key in list(runtime.pending_timers):
                    runtime.fire_timer(timer_key)
                    fired = True
                    report.timer_fires += 1
            network.drain(max_deliveries=max_steps)
            if not fired and not network.pending:
                break

        for runtime in runtimes.values():
            self._accumulate(report, runtime.node)
        return report
