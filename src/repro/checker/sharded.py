"""Adversarial exploration of the sharded multi-group deployment.

:class:`ShardedMigrationExplorer` runs the §3.1 adversary against N
independent CRDT-Paxos groups on one
:class:`~repro.net.adversary.AdversarialNetwork`, with a
:class:`~repro.sharding.migration.MigrationCoordinator` moving keys
between groups *while client traffic is in flight*.  Everything the
keyed explorer already churns (eviction, spill, rejoin) still churns;
on top of it the runs exercise the migration protocol's windows:

* client commands racing a freeze (the source refuses with a forwarding
  hint; the recording client re-routes the SAME operation, so the
  history sees one at-least-once op no matter how many hops it took);
* commands arriving at the destination between install and commit
  (buffered, replayed through the normal client path on commit);
* a source-group member hard-killed mid-migration (its freeze mark was
  persisted before its snapshot reply escaped, so the rebuilt node
  recovers *still frozen* and rejoins);
* the coordinator partitioned from the destination group mid-install
  (the move stalls — sources stay frozen, clients bounce and buffer —
  and completes after the heal via re-drives; no timeout ever
  unfreezes anything).

Fault drivers plug in via the same ``begin`` / ``step`` / ``finish``
hook shape the keyed explorer uses, over a
:class:`ShardedNemesisContext`; see :mod:`repro.nemesis.sharded` for
the schedule-driven one.  Per-key histories are validated independently
with :func:`~repro.checker.lattice_linearizability.check_all` — a key
is one lattice-linearizable object regardless of how many groups served
it over its life.

Migration runs do not assert ``all_complete``: an operation that lands
on a not-yet-frozen source straggler after its peers froze can never
certify (frozen peers drop its MERGE/PREPARE — exactly the discipline
that keeps the snapshot sound), and the adversary disables the client
re-drives that would rescue it in a real deployment.  Such operations
stay open, which the checkers treat like any other incomplete op: free
to take effect never.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Hashable

from repro.api.codec import compile_query, compile_update, parse_completion
from repro.checker.history import History
from repro.checker.scheduler import _DirectRuntime, _stamp_completion
from repro.core.config import CrdtPaxosConfig
from repro.core.keyspace import GroupOwnership, KeyedCrdtReplica
from repro.crdt.base import IdentityQuery
from repro.crdt.gcounter import GCounter, Increment
from repro.net.adversary import AdversarialNetwork
from repro.net.message import Envelope
from repro.sharding.migration import MigrationCoordinator
from repro.sharding.routing import RoutingService, RoutingTable
from repro.sim.kernel import Simulator
from repro.storage.base import SpillStore

#: Virtual time consumed by an injection step (keeps "now" increasing).
_STEP_EPSILON = 1e-9

#: Re-routes after which the recording client gives up on one operation
#: and leaves its record open (an incomplete op, like a refusal).  Only
#: reachable while a migration is stalled by a long partition.
_CLIENT_MAX_BOUNCES = 64


class _ShardedRecordingClient:
    """Injects routed per-key operations; follows WrongGroup hints.

    A wrong-group completion is NOT a completion: the client folds the
    replica's forwarding hint into the shared routing view and re-sends
    the *same* op id to a replica of the group it now believes owns the
    key.  The record stays open across hops, so the checkers see one
    operation with one invocation/completion window — exactly the
    at-least-once contract the real :class:`~repro.api.sharded
    .ShardedStore` bounce loop provides.
    """

    def __init__(
        self,
        sim: Simulator,
        network: AdversarialNetwork,
        address: str,
        histories: dict[Hashable, History],
        routing: RoutingService,
        members: dict[str, list[str]],
        rng: Any,
        report: "ShardedExplorationReport",
    ) -> None:
        self._sim = sim
        self._network = network
        self.address = address
        self._histories = histories
        self._routing = routing
        self._members = members
        self._rng = rng
        self._report = report
        self._open: dict[str, Any] = {}
        #: ``op_id -> (kind, key)`` for re-routing bounced operations.
        self._meta: dict[str, tuple[str, Hashable]] = {}
        self._bounces: dict[str, int] = {}
        self._counter = 0
        network.register(address, self)

    def _history(self, key: Hashable) -> History:
        history = self._histories.get(key)
        if history is None:
            history = self._histories[key] = History()
        return history

    def _pick_replica(self, key: Hashable) -> str:
        return self._rng.choice(self._members[self._routing.owner(key)])

    def inject_update(self, key: Hashable) -> None:
        self._counter += 1
        op_id = f"{self.address}/u{self._counter}"
        replica = self._pick_replica(key)
        self._sim.now += _STEP_EPSILON
        self._open[op_id] = self._history(key).begin_update(
            op_id, replica, self._sim.now
        )
        self._meta[op_id] = ("update", key)
        self._network.send(
            self.address, replica, compile_update(op_id, Increment(), key=key)
        )

    def inject_query(self, key: Hashable) -> None:
        self._counter += 1
        op_id = f"{self.address}/q{self._counter}"
        replica = self._pick_replica(key)
        self._sim.now += _STEP_EPSILON
        self._open[op_id] = self._history(key).begin_query(
            op_id, replica, self._sim.now
        )
        self._meta[op_id] = ("query", key)
        self._network.send(
            self.address, replica, compile_query(op_id, IdentityQuery(), key=key)
        )

    def deliver(self, envelope: Envelope) -> None:
        completion = parse_completion(envelope.payload)
        if completion is not None and completion.kind == "wrong_group":
            op_id = completion.request_id
            if op_id not in self._open:
                return  # already completed via another hop's duplicate
            kind, key = self._meta[op_id]
            self._report.reroutes += 1
            if completion.group:
                self._routing.note(key, completion.epoch, completion.group)
            bounces = self._bounces.get(op_id, 0) + 1
            self._bounces[op_id] = bounces
            if bounces > _CLIENT_MAX_BOUNCES:
                return  # give up; the record stays open (incomplete op)
            replica = self._pick_replica(key)
            # The op will execute (if it ever does) at the replica this
            # hop lands on — re-point the record so Validity attributes
            # its slot to the group that actually served it.
            self._open[op_id].replica = replica
            self._sim.now += _STEP_EPSILON
            message = (
                compile_update(op_id, Increment(), key=key)
                if kind == "update"
                else compile_query(op_id, IdentityQuery(), key=key)
            )
            self._network.send(self.address, replica, message)
            return
        _stamp_completion(self._open, envelope.payload, self._sim.now)


@dataclass
class ShardedExplorationReport:
    """Outcome of one adversarial sharded run."""

    histories: dict[Hashable, History] = field(default_factory=dict)
    steps: int = 0
    deliveries: int = 0
    injections: int = 0
    timer_fires: int = 0
    #: Client operations re-routed by WrongGroup hints.
    reroutes: int = 0
    #: Migrations the coordinator actually opened / drove to commit.
    migrations_started: int = 0
    migrations_completed: int = 0
    #: ``(key, source, target)`` per started move, in start order.
    moves: list[tuple[Hashable, str, str]] = field(default_factory=list)
    #: Nemesis actions.
    hard_kills: int = 0
    partitions: int = 0
    #: Replica-side ownership counters, summed over all generations.
    wrong_group_refusals: int = 0
    migrations_out: int = 0
    migrations_in: int = 0
    rejoin_refreshes: int = 0

    @property
    def all_complete(self) -> bool:
        return all(
            all(u.complete for u in history.updates)
            and all(q.complete for q in history.queries)
            for history in self.histories.values()
        )


@dataclass
class ShardedNemesisContext:
    """Handle a fault driver uses to act on a sharded adversarial run.

    Passed to the ``begin`` / ``step`` / ``finish`` hooks of the object
    given to :meth:`ShardedMigrationExplorer.run` as ``nemesis=``.
    :attr:`moves` grows as migrations start, so a driver can arm itself
    on the first move and strike mid-protocol.
    """

    explorer: "ShardedMigrationExplorer"
    sim: Simulator
    network: AdversarialNetwork
    rng: Any
    runtimes: dict[str, _DirectRuntime]
    members: dict[str, list[str]]
    coordinator_id: str
    report: ShardedExplorationReport
    moves: list[tuple[Hashable, str, str]]

    def hard_kill(self, victim: str) -> None:
        """kill -9 ``victim`` now (no shutdown hook; rejoin on restart)."""
        self.explorer._hard_restart(victim)

    def partition(self, side_a: set[str], side_b: set[str]) -> None:
        """Cut both directions between the two sides until :meth:`heal`."""
        a, b = frozenset(side_a), frozenset(side_b)
        self.network.blocked = lambda src, dst: (
            (src in a and dst in b) or (src in b and dst in a)
        )
        self.report.partitions += 1

    def heal(self) -> None:
        """Lift the partition and release the traffic it held."""
        self.network.blocked = None
        self.network.release_held()


class ShardedMigrationExplorer:
    """Adversarial runs against N groups with live key migration.

    The routing view is shared between the coordinator and the recording
    clients (as in :class:`~repro.sharding.deployment
    .ShardedSimDeployment`), so committed moves route fresh traffic
    correctly while operations already in flight bounce off the
    epoch-stamped refusals — both paths are exercised in every run that
    migrates under load.
    """

    def __init__(
        self,
        seed: int,
        groups: tuple[str, ...] = ("g0", "g1"),
        n_replicas: int = 3,
        n_clients: int = 2,
        n_keys: int = 6,
        config: CrdtPaxosConfig | None = None,
        spill_factory: Callable[[], SpillStore] | None = None,
        spill_reopen: Callable[[str, SpillStore], SpillStore] | None = None,
        vnodes: int = 16,
    ) -> None:
        self.seed = seed
        self.group_names = tuple(groups)
        self.n_replicas = n_replicas
        self.n_clients = n_clients
        self.keys = [f"k{i}" for i in range(n_keys)]
        self.vnodes = vnodes
        self.spill_factory = spill_factory
        self.spill_reopen = spill_reopen
        self.spill_stores: dict[str, SpillStore] = {}
        base = config or CrdtPaxosConfig()
        # Same adversary discipline as the keyed explorer: re-drive
        # timeouts off (the adversary owns scheduling), idle eviction off
        # (the epsilon clock would never arm its sweep).
        self.config = replace(
            base,
            request_timeout=None,
            keyed_idle_evict_s=None,
            inclusion_tagger=lambda state, replica: (replica, state.slot(replica)),
        )
        self._collect_timers = (
            base.batching
            or base.retry_backoff > 0
            or base.keyed_coalesce_window is not None
            or base.durability != "none"
        )
        self.birth_table = RoutingTable(self.group_names, vnodes=vnodes)
        # Per-run state (populated by :meth:`run`).
        self.routing: RoutingService | None = None
        self._runtimes: dict[str, _DirectRuntime] = {}
        self._members: dict[str, list[str]] = {}
        self._group_of: dict[str, str] = {}
        self._coordinator: MigrationCoordinator | None = None
        self._coordinator_runtime: _DirectRuntime | None = None
        self._report: ShardedExplorationReport | None = None

    # ------------------------------------------------------------------
    @staticmethod
    def _accumulate(
        report: ShardedExplorationReport, node: KeyedCrdtReplica
    ) -> None:
        report.wrong_group_refusals += node.wrong_group_refusals
        report.migrations_out += node.migrations_out
        report.migrations_in += node.migrations_in
        report.rejoin_refreshes += node.rejoin_refreshes

    def _hard_restart(self, victim: str) -> None:
        """kill -9 one replica mid-run and rebuild it from durable state.

        Same model as the keyed explorer's hard kill — no shutdown hook,
        the store crashes or is reopened, the fresh node rejoins — plus
        the sharded invariant: ownership marks are part of the durable
        meta, so a replica killed with a freeze mark on disk recovers
        *still frozen* (its dead generation can never ack an update the
        migration snapshot missed).
        """
        if self.spill_factory is None:
            raise ValueError("hard kills require a spill_factory")
        runtime = self._runtimes[victim]
        old = runtime.node
        report = self._report
        assert report is not None
        self._accumulate(report, old)
        store = self.spill_stores[victim]
        if self.spill_reopen is not None:
            store = self.spill_reopen(victim, store)
            self.spill_stores[victim] = store
        else:
            crash = getattr(store, "crash", None)
            if crash is not None:
                crash()
        group = self._group_of[victim]
        fresh = KeyedCrdtReplica.recover(
            store,
            victim,
            list(self._members[group]),
            lambda key: GCounter.initial(),
            self.config,
            rejoin=True,
            ownership=GroupOwnership(group, self.birth_table),
        )
        runtime.node = fresh
        runtime.pending_timers.clear()  # timers do not survive a kill
        runtime._apply(fresh.on_start(runtime._sim.now))
        runtime._apply(fresh.rejoin())
        report.hard_kills += 1

    def _start_migration(self, rng: Any) -> bool:
        """Open one randomly chosen move; False if none was startable."""
        coordinator = self._coordinator
        routing = self.routing
        report = self._report
        assert coordinator is not None and routing is not None
        assert report is not None and self._coordinator_runtime is not None
        keys = list(self.keys)
        rng.shuffle(keys)
        for key in keys:
            source = routing.owner(key)
            targets = [g for g in self.group_names if g != source]
            if not targets:
                return False
            target = rng.choice(targets)
            before = coordinator.migrations_started
            effects = coordinator.migrate(key, target, self._sim_now())
            if coordinator.migrations_started > before:
                self._coordinator_runtime._apply(effects)
                report.moves.append((key, source, target))
                return True
        return False

    def _sim_now(self) -> float:
        runtime = self._coordinator_runtime
        assert runtime is not None
        return runtime._sim.now

    # ------------------------------------------------------------------
    def run(
        self,
        n_ops: int = 40,
        read_fraction: float = 0.5,
        drop_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        max_steps: int = 200_000,
        migrate_at: tuple[int, ...] = (),
        nemesis: Any | None = None,
    ) -> ShardedExplorationReport:
        """One adversarial sharded run.

        ``migrate_at`` lists injection counts at which the coordinator
        opens a move of a random key to a random other group (each
        triggers once, in order).  ``nemesis`` installs a fault driver
        with ``begin`` / ``step`` / ``finish`` hooks over a
        :class:`ShardedNemesisContext`; ``finish`` must heal whatever it
        broke, and the explorer heals the network again regardless
        before quiescing — every run ends healed, so stalled migrations
        re-drive to completion and the coordinator retires them.
        """
        sim = Simulator(seed=self.seed)
        network = AdversarialNetwork(sim)
        rng = sim.rng.stream("sharded-explorer")
        report = ShardedExplorationReport()
        self._report = report
        self.routing = RoutingService(self.birth_table)

        self._runtimes = {}
        self._members = {}
        self._group_of = {}
        self.spill_stores = {}
        for group in self.group_names:
            members = [f"{group}-r{i}" for i in range(self.n_replicas)]
            self._members[group] = members
            for replica_id in members:
                self._group_of[replica_id] = group
                spill_store = None
                if self.spill_factory is not None:
                    spill_store = self.spill_stores[replica_id] = (
                        self.spill_factory()
                    )
                node = KeyedCrdtReplica(
                    replica_id,
                    list(members),
                    lambda key: GCounter.initial(),
                    self.config,
                    spill_store=spill_store,
                    ownership=GroupOwnership(group, self.birth_table),
                )
                self._runtimes[replica_id] = _DirectRuntime(
                    sim, network, node, collect_timers=self._collect_timers
                )
        coordinator_id = "shard-coordinator"
        self._coordinator = MigrationCoordinator(
            coordinator_id,
            {name: list(members) for name, members in self._members.items()},
            self.routing,
            config=CrdtPaxosConfig(),
        )
        # The coordinator's re-drive timers are adversarially scheduled
        # like everything else — a "slow" coordinator interleaves its
        # phase re-broadcasts arbitrarily with client traffic.
        self._coordinator_runtime = _DirectRuntime(
            sim, network, self._coordinator, collect_timers=True
        )

        protocol_set = set(self._group_of) | {coordinator_id}
        network.duplicable = (
            lambda envelope: envelope.src in protocol_set
            and envelope.dst in protocol_set
        )

        clients = [
            _ShardedRecordingClient(
                sim,
                network,
                f"c{i}",
                report.histories,
                self.routing,
                self._members,
                rng,
                report,
            )
            for i in range(self.n_clients)
        ]

        plan: list[str] = [
            "read" if rng.random() < read_fraction else "update"
            for _ in range(n_ops)
        ]
        pending_migrations = sorted(migrate_at, reverse=True)

        all_runtimes = list(self._runtimes.values()) + [
            self._coordinator_runtime
        ]

        def timer_targets() -> list[_DirectRuntime]:
            return [r for r in all_runtimes if r.pending_timers]

        nemesis_ctx = None
        if nemesis is not None:
            nemesis_ctx = ShardedNemesisContext(
                explorer=self,
                sim=sim,
                network=network,
                rng=rng,
                runtimes=self._runtimes,
                members=self._members,
                coordinator_id=coordinator_id,
                report=report,
                moves=report.moves,
            )
            nemesis.begin(nemesis_ctx)

        while report.steps < max_steps and (
            plan or network.pending or timer_targets()
        ):
            report.steps += 1
            if nemesis_ctx is not None and nemesis.step(nemesis_ctx):
                continue
            if (
                pending_migrations
                and report.injections >= pending_migrations[-1]
            ):
                pending_migrations.pop()
                self._start_migration(rng)
                continue
            inject_now = bool(plan) and (
                network.pending == 0 or rng.random() < 0.25
            )
            if inject_now:
                kind = plan.pop()
                client = rng.choice(clients)
                key = rng.choice(self.keys)
                if kind == "update":
                    client.inject_update(key)
                else:
                    client.inject_query(key)
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

        # Quiesce: heal the nemesis, release partition-held traffic into
        # the pool (more hostile than dropping it), then alternate firing
        # armed timers with full drains until a fixpoint — coordinator
        # re-drives push every stalled migration through install/commit,
        # and the commit replays whatever the destinations buffered.
        if nemesis_ctx is not None:
            nemesis.finish(nemesis_ctx)
        network.blocked = None
        network.link_loss = None
        network.release_held()
        network.drain(max_deliveries=max_steps)
        for _ in range(200):
            fired = False
            for runtime in all_runtimes:
                for timer_key in list(runtime.pending_timers):
                    runtime.fire_timer(timer_key)
                    fired = True
                    report.timer_fires += 1
            network.drain(max_deliveries=max_steps)
            if not fired and not network.pending:
                break

        for runtime in self._runtimes.values():
            self._accumulate(report, runtime.node)
        report.migrations_started = self._coordinator.migrations_started
        report.migrations_completed = self._coordinator.migrations_completed
        return report
