"""The Store facade: one client surface for every deployment shape.

A :class:`Store` speaks to a running replica group — simulated
(:class:`~repro.runtime.cluster.SimCluster`) or wall-clock
(:class:`~repro.runtime.asyncio_cluster.AsyncioCluster`) — and hides the
wire protocol behind typed handles.  It is *keyed-aware*: pointed at a
:class:`~repro.core.keyspace.KeyedCrdtReplica` group it wraps every
command in a ``Keyed`` envelope, pointed at a single-instance
:class:`~repro.core.replica.CrdtPaxosReplica` group it sends bare client
messages; addressing mistakes (a key on an unkeyed store, no key on a
keyed one) fail fast at handle creation.

Client-side supervision mirrors the paper's evaluation clients: each
request carries a fresh unique id, waits ``timeout`` seconds for its
completion, and on expiry *fails over* — the operation is re-issued under
a fresh id to the next replica, round-robin, up to ``max_attempts``
attempts before :class:`~repro.errors.RequestTimeout` is raised.  Stale
replies to superseded ids are dropped.  Updates are therefore
at-least-once under fail-over, exactly like the Basho-Bench clients the
evaluation used.

Fail-over is health-aware: a :class:`~repro.api.health.ReplicaHealth`
tracker strikes replicas that time out or refuse, suspected replicas
sort to the back of the rotation (and get hedged, shortened attempt
timeouts when ``hedge_factor < 1``), and the sticky post-fail-over home
expires the moment the configured home's suspicion clears — the store
returns to its configured replica instead of camping on the fail-over
target forever.  A replica that *refuses* a request (``Refused``, sent
when its re-drives exhausted without a quorum or a durable write kept
failing) triggers immediate fail-over; if every attempt is refused the
store raises the typed, fail-fast
:class:`~repro.errors.QuorumUnavailable` /
:class:`~repro.errors.StorageUnavailable` (both ``RequestTimeout``
subclasses) instead of a generic timeout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Hashable

from repro.api.codec import (
    UNKEYED,
    Completion,
    RequestIds,
    compile_query,
    compile_update,
    parse_completion,
)
from repro.api.handles import (
    CounterHandle,
    GSetHandle,
    Handle,
    LWWMapHandle,
    LWWRegisterHandle,
    ORSetHandle,
    PNCounterHandle,
)
from repro.api.health import ReplicaHealth
from repro.core.keyspace import KeyedCrdtReplica
from repro.crdt.base import QueryOp, UpdateOp
from repro.errors import (
    ConfigurationError,
    QuorumUnavailable,
    RequestTimeout,
    StorageUnavailable,
    WrongGroupError,
)


@dataclass(frozen=True, slots=True)
class UpdateReceipt:
    """A completed update: durable at a quorum (§3.2, update path)."""

    request_id: str
    replica: str
    client_attempts: int
    inclusion_tag: Any = None


@dataclass(frozen=True, slots=True)
class ReadReceipt:
    """A completed linearizable read with the protocol's diagnostics.

    ``round_trips``/``attempts``/``learned_via`` tell how the state was
    learned (§3.2: one round trip via consistent quorum, two via vote,
    more under contention); ``learn_seq`` orders this node's learns for
    the §3.4 GLA-Stability checker.  ``client_attempts`` counts
    client-side fail-overs, not protocol retries.
    """

    value: Any
    request_id: str
    replica: str
    client_attempts: int
    round_trips: int
    attempts: int
    learned_via: str
    proposer: str
    learn_seq: int


def _detect_keyed(cluster: Any) -> bool:
    """Is the replica group a keyed deployment?  Inspects one node."""
    try:
        node = cluster.node(cluster.addresses[0])
    except (KeyError, IndexError) as exc:
        raise ConfigurationError(
            "cannot inspect the cluster's replicas (is it started?); "
            "pass keyed=True/False explicitly"
        ) from exc
    return isinstance(node, KeyedCrdtReplica)


class Store:
    """Shared facade logic: handles, addressing, request-id plumbing.

    Subclasses implement ``update``/``query``/``query_value`` over their
    transport; everything key- and id-shaped lives here so the sync and
    async frontends (and any future one) cannot drift apart.
    """

    def __init__(
        self,
        cluster: Any,
        client: str = "store",
        *,
        home: str | None = None,
        timeout: float = 5.0,
        max_attempts: int | None = None,
        keyed: bool | None = None,
        hedge_factor: float = 1.0,
    ) -> None:
        self.addresses: list[str] = list(cluster.addresses)
        if not self.addresses:
            raise ConfigurationError("cluster has no replicas")
        self._cluster = cluster
        self.client = client
        self.keyed = _detect_keyed(cluster) if keyed is None else keyed
        self.timeout = timeout
        self.max_attempts = (
            max_attempts if max_attempts is not None else 2 * len(self.addresses)
        )
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if not 0.0 < hedge_factor <= 1.0:
            raise ConfigurationError("hedge_factor must be in (0, 1]")
        #: Attempt-timeout multiplier for *suspected* replicas.  Below
        #: 1.0 the store hedges: it gives a suspect a brief chance and
        #: moves on, instead of burning the full timeout on a replica
        #: that failed recently.
        self.hedge_factor = hedge_factor
        if home is None:
            self._configured_home_index = 0
        else:
            if home not in self.addresses:
                raise ConfigurationError(
                    f"home replica {home!r} not in {self.addresses}"
                )
            self._configured_home_index = self.addresses.index(home)
        #: Sticky fail-over target; expires once the configured home's
        #: suspicion clears (see :meth:`_effective_home_index`).
        self._sticky_index: int | None = None
        self.health = ReplicaHealth(self._now)
        self._ids = RequestIds(client)
        #: ``(replica, code)`` refusals collected by the last ``_submit``.
        self._last_refusals: list[tuple[str, str]] = []

    def _now(self) -> float:
        """Clock feeding the health tracker; SimStore overrides with
        virtual time."""
        return time.monotonic()

    # ------------------------------------------------------------------
    # Typed handles
    # ------------------------------------------------------------------
    def _resolve(self, key: Hashable) -> Hashable:
        """Validate a key against the deployment shape, fail-fast."""
        if self.keyed and key is UNKEYED:
            raise ConfigurationError(
                "this store addresses a keyed replica group; pass a key "
                "(e.g. store.counter('views:home'))"
            )
        if not self.keyed and key is not UNKEYED:
            raise ConfigurationError(
                f"this store addresses a single-instance replica group; "
                f"it has no key {key!r} — omit the key"
            )
        return key

    def handle(self, key: Hashable = UNKEYED) -> Handle:
        """A generic handle: raw ``update(op)`` / ``query(op)``."""
        return Handle(self, self._resolve(key))

    def counter(self, key: Hashable = UNKEYED) -> CounterHandle:
        return CounterHandle(self, self._resolve(key))

    def pncounter(self, key: Hashable = UNKEYED) -> PNCounterHandle:
        return PNCounterHandle(self, self._resolve(key))

    def orset(self, key: Hashable = UNKEYED) -> ORSetHandle:
        return ORSetHandle(self, self._resolve(key))

    def gset(self, key: Hashable = UNKEYED) -> GSetHandle:
        return GSetHandle(self, self._resolve(key))

    def lwwmap(self, key: Hashable = UNKEYED) -> LWWMapHandle:
        return LWWMapHandle(self, self._resolve(key))

    def lwwregister(self, key: Hashable = UNKEYED) -> LWWRegisterHandle:
        return LWWRegisterHandle(self, self._resolve(key))

    # ------------------------------------------------------------------
    # Addressing / fail-over plumbing shared by the frontends
    # ------------------------------------------------------------------
    def _effective_home_index(self) -> int:
        """Where the rotation starts: sticky fail-over target while the
        configured home is suspected, the configured home otherwise.

        This is the stickiness-expiry fix: the old behaviour re-homed the
        store permanently on fail-over and never returned to the
        configured replica after it recovered.  Now stickiness lives
        exactly as long as the home's suspicion window — once the health
        tracker clears it, the next request goes home first.
        """
        if self._sticky_index is not None:
            home = self.addresses[self._configured_home_index]
            if self.health.suspected(home):
                return self._sticky_index
            self._sticky_index = None  # home recovered: go home again
        return self._configured_home_index

    def _attempt_targets(self, via: str | None) -> list[str]:
        """The replicas to try, in order: the pin (or effective home),
        then round-robin fail-over up to ``max_attempts`` — with
        suspected replicas stably sorted to the back of the rotation.

        An explicit ``via=`` pin is honored verbatim (no reordering):
        diagnostics must be able to target a suspect on purpose.
        """
        n = len(self.addresses)
        if via is not None:
            if via not in self.addresses:
                raise ConfigurationError(
                    f"replica {via!r} not in {self.addresses}"
                )
            start = self.addresses.index(via)
            return [
                self.addresses[(start + offset) % n]
                for offset in range(self.max_attempts)
            ]
        start = self._effective_home_index()
        rotation = [
            self.addresses[(start + offset) % n]
            for offset in range(self.max_attempts)
        ]
        healthy = [r for r in rotation if not self.health.suspected(r)]
        suspected = [r for r in rotation if self.health.suspected(r)]
        return healthy + suspected

    def _attempt_timeout(self, replica: str) -> float:
        """Per-attempt budget: hedged (shortened) on suspected replicas."""
        if self.hedge_factor < 1.0 and self.health.suspected(replica):
            return self.timeout * self.hedge_factor
        return self.timeout

    def _note_served(self, replica: str, client_attempts: int) -> None:
        """Record the success and, after a fail-over, stick to the
        replica that answered.  A first-attempt success changes nothing —
        in particular a one-off ``via=`` pin must not re-home the store
        away from its configured ``home``."""
        self.health.record_success(replica)
        if client_attempts > 1:
            self._sticky_index = self.addresses.index(replica)

    def _note_failed(self, replica: str) -> None:
        """A timed-out or refused attempt: strike the replica."""
        self.health.record_failure(replica)

    def _request_failed(self, kind: str, key: Hashable) -> RequestTimeout:
        """The error for an attempt-exhausted request: typed and
        fail-fast when replicas *refused* (they proved the condition in
        bounded time), a plain timeout when they were merely silent."""
        where = "" if key is UNKEYED else f" for key {key!r}"
        refusals = self._last_refusals
        if refusals:
            summary = "; ".join(f"{r}: {code}" for r, code in refusals)
            if any(code == "quorum" for _, code in refusals):
                return QuorumUnavailable(
                    f"{kind}{where} refused — no quorum reachable "
                    f"({summary})"
                )
            return StorageUnavailable(
                f"{kind}{where} refused — durable writes failing "
                f"({summary})"
            )
        return RequestTimeout(
            f"{kind}{where} got no reply from any of "
            f"{self.max_attempts} attempt(s) across {self.addresses} "
            f"within {self.timeout}s each"
        )

    def _update_receipt(
        self, completion: Completion, replica: str, client_attempts: int
    ) -> UpdateReceipt:
        return UpdateReceipt(
            request_id=completion.request_id,
            replica=replica,
            client_attempts=client_attempts,
            inclusion_tag=completion.inclusion_tag,
        )

    def _read_receipt(
        self, completion: Completion, replica: str, client_attempts: int
    ) -> ReadReceipt:
        return ReadReceipt(
            value=completion.result,
            request_id=completion.request_id,
            replica=replica,
            client_attempts=client_attempts,
            round_trips=completion.round_trips,
            attempts=completion.attempts,
            learned_via=completion.learned_via,
            proposer=completion.proposer,
            learn_seq=completion.learn_seq,
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def flush(self) -> dict[str, int]:
        """Flush every keyed replica: on replicas with a spill store
        attached, persist the full durable snapshot
        (:meth:`~repro.core.keyspace.KeyedCrdtReplica.spill_all`).

        Returns each flushed replica's cumulative spill count (``0`` for
        replicas without a spill tier).  A shutdown hook in miniature:
        call it before tearing a cluster down so a later
        :meth:`~repro.core.keyspace.KeyedCrdtReplica.recover` sees every
        key.  Works on both frontends — the sim and asyncio runtimes
        expose the same ``apply_effects`` hook for the acks the snapshot
        releases.
        """
        runtimes = getattr(self._cluster, "runtimes", None)
        if runtimes is None:
            raise ConfigurationError(
                "this cluster exposes no runtimes to flush; "
                "Store.flush() needs a SimCluster or AsyncioCluster"
            )
        flushed: dict[str, int] = {}
        for address in self.addresses:
            runtime = runtimes.get(address)
            if runtime is None:
                continue
            node = runtime.node
            if isinstance(node, KeyedCrdtReplica):
                runtime.apply_effects(node.flush())
                flushed[address] = node.spills
        return flushed

    def rejoin(self) -> dict[str, int]:
        """Open the quorum refresh on every keyed replica recovered with
        ``rejoin=True`` (:meth:`~repro.core.keyspace.KeyedCrdtReplica.rejoin`):
        each recovered key's ``(payload, round)`` pair is refreshed from a
        read quorum — a §3.3 prepare — before it serves traffic, because
        a hard-killed replica's own spilled pair may be stale.

        Returns each keyed replica's count of keys still awaiting their
        quorum (``0`` once fully rejoined).  Broadcasting is a no-op on
        replicas with nothing pending, so calling this after a clean
        recovery is safe.
        """
        runtimes = getattr(self._cluster, "runtimes", None)
        if runtimes is None:
            raise ConfigurationError(
                "this cluster exposes no runtimes to rejoin; "
                "Store.rejoin() needs a SimCluster or AsyncioCluster"
            )
        pending: dict[str, int] = {}
        for address in self.addresses:
            runtime = runtimes.get(address)
            if runtime is None:
                continue
            node = runtime.node
            if isinstance(node, KeyedCrdtReplica):
                runtime.apply_effects(node.rejoin())
                pending[address] = node.rejoin_pending_count()
        return pending

    # ------------------------------------------------------------------
    # Shared completion triage
    # ------------------------------------------------------------------
    def _wrong_group(self, replica: str, completion: Completion) -> WrongGroupError:
        """A sharded replica's routing refusal — typed, with the hint.

        Raised instead of failing over: the *whole group* refuses the
        key (ownership is a group property), so trying the next member
        burns attempts to learn the same answer.  The caller —
        :class:`~repro.api.sharded.ShardedStore`, or application code —
        folds ``epoch``/``group`` into its routing view and retries at
        the hinted group.
        """
        return WrongGroupError(
            f"replica {replica} does not own key {completion.key!r}; "
            f"owner is group {completion.group!r} as of epoch "
            f"{completion.epoch}",
            epoch=completion.epoch,
            group=completion.group,
        )

    # ------------------------------------------------------------------
    # Frontend contract
    # ------------------------------------------------------------------
    def update(self, key: Hashable, op: UpdateOp, *, via: str | None = None):
        """Submit ``f_u`` to the bound key; completes when durable."""
        raise NotImplementedError

    def pipeline(self):
        """A batched handle: queue many operations, flush them in one
        burst so the proposer's §3.6 update batching can pack them."""
        raise NotImplementedError

    def query(self, key: Hashable, op: QueryOp, *, via: str | None = None):
        """Submit ``f_q``; completes with a :class:`ReadReceipt`."""
        raise NotImplementedError

    def query_value(self, key: Hashable, op: QueryOp, *, via: str | None = None):
        """Like :meth:`query` but yields the bare result value."""
        raise NotImplementedError


class SimStore(Store):
    """Synchronous frontend over the deterministic simulator.

    Each call drives the simulator until its completion arrives (or the
    virtual-time deadline passes and the store fails over) — handy for
    tests, campaigns and notebooks that want straight-line code against
    a :class:`~repro.runtime.cluster.SimCluster`.
    """

    def __init__(
        self,
        cluster: Any,
        client: str = "store",
        *,
        home: str | None = None,
        timeout: float = 1.0,
        max_attempts: int | None = None,
        keyed: bool | None = None,
        hedge_factor: float = 1.0,
    ) -> None:
        super().__init__(
            cluster,
            client,
            home=home,
            timeout=timeout,
            max_attempts=max_attempts,
            keyed=keyed,
            hedge_factor=hedge_factor,
        )
        # Deferred import keeps repro.api importable without the runtime.
        from repro.runtime.cluster import ClientEndpoint

        self._sim = cluster.sim
        self._pending_id: str | None = None
        self._arrived: Completion | None = None
        #: Pipeline multiplexing: request ids a flush is waiting on,
        #: filled in by :meth:`_on_reply` as completions arrive.
        self._multi_pending: dict[str, Completion | None] = {}
        self._endpoint = ClientEndpoint(
            self._sim, cluster.network, f"store-{client}", self._on_reply
        )

    def _now(self) -> float:
        return self._sim.now

    def _on_reply(self, src: str, message: Any) -> None:
        completion = parse_completion(message)
        if completion is None:
            return
        if completion.request_id == self._pending_id:
            self._arrived = completion
            return
        if completion.request_id in self._multi_pending:
            self._multi_pending[completion.request_id] = completion
            return
        # Stale reply to a superseded attempt: dropped.

    def _submit(
        self, compile_fn: Callable[[str], Any], via: str | None
    ) -> tuple[Completion, str, int] | None:
        self._last_refusals = []
        for client_attempts, replica in enumerate(
            self._attempt_targets(via), start=1
        ):
            request_id = self._ids.next()
            self._pending_id = request_id
            self._arrived = None
            self._endpoint.send(replica, compile_fn(request_id))
            deadline = self._sim.now + self._attempt_timeout(replica)
            while self._arrived is None:
                if self._sim.now >= deadline:
                    break
                if not self._sim.step():
                    break  # event queue drained: no reply is coming
            completion, self._arrived = self._arrived, None
            self._pending_id = None
            if completion is None:
                self._note_failed(replica)
                continue
            if completion.kind == "wrong_group":
                raise self._wrong_group(replica, completion)
            if completion.kind == "refused":
                # The replica gave up in bounded time (quorum or storage)
                # — fail over immediately, remember why.
                self._last_refusals.append((replica, completion.code))
                self._note_failed(replica)
                continue
            self._note_served(replica, client_attempts)
            return completion, replica, client_attempts
        return None

    def pipeline(self) -> "SimPipeline":
        return SimPipeline(self)

    def update(
        self, key: Hashable, op: UpdateOp, *, via: str | None = None
    ) -> UpdateReceipt:
        key = self._resolve(key)
        outcome = self._submit(
            lambda rid: compile_update(rid, op, key=key), via
        )
        if outcome is None:
            raise self._request_failed("update", key)
        return self._update_receipt(*outcome)

    def query(
        self, key: Hashable, op: QueryOp, *, via: str | None = None
    ) -> ReadReceipt:
        key = self._resolve(key)
        outcome = self._submit(
            lambda rid: compile_query(rid, op, key=key), via
        )
        if outcome is None:
            raise self._request_failed("query", key)
        return self._read_receipt(*outcome)

    def query_value(
        self, key: Hashable, op: QueryOp, *, via: str | None = None
    ) -> Any:
        return self.query(key, op, via=via).value


class AsyncStore(Store):
    """Awaitable frontend over the asyncio runtime.

    Built on :class:`~repro.runtime.asyncio_cluster.AsyncioCluster`'s
    request/reply client; every handle method returns a coroutine.
    """

    def __init__(
        self,
        cluster: Any,
        client: str = "store",
        *,
        home: str | None = None,
        timeout: float = 5.0,
        max_attempts: int | None = None,
        keyed: bool | None = None,
        hedge_factor: float = 1.0,
    ) -> None:
        super().__init__(
            cluster,
            client,
            home=home,
            timeout=timeout,
            max_attempts=max_attempts,
            keyed=keyed,
            hedge_factor=hedge_factor,
        )
        self._client = cluster.client(client)

    async def _submit(
        self, compile_fn: Callable[[str], Any], via: str | None
    ) -> tuple[Completion, str, int] | None:
        self._last_refusals = []
        for client_attempts, replica in enumerate(
            self._attempt_targets(via), start=1
        ):
            request_id = self._ids.next()
            try:
                reply = await self._client.request(
                    replica,
                    compile_fn(request_id),
                    timeout=self._attempt_timeout(replica),
                )
            except RequestTimeout:
                self._note_failed(replica)
                continue  # fail over to the next replica
            completion = parse_completion(reply)
            if completion is None or completion.request_id != request_id:
                continue
            if completion.kind == "wrong_group":
                raise self._wrong_group(replica, completion)
            if completion.kind == "refused":
                self._last_refusals.append((replica, completion.code))
                self._note_failed(replica)
                continue
            self._note_served(replica, client_attempts)
            return completion, replica, client_attempts
        return None

    def pipeline(self) -> "AsyncPipeline":
        return AsyncPipeline(self)

    async def update(
        self, key: Hashable, op: UpdateOp, *, via: str | None = None
    ) -> UpdateReceipt:
        key = self._resolve(key)
        outcome = await self._submit(
            lambda rid: compile_update(rid, op, key=key), via
        )
        if outcome is None:
            raise self._request_failed("update", key)
        return self._update_receipt(*outcome)

    async def query(
        self, key: Hashable, op: QueryOp, *, via: str | None = None
    ) -> ReadReceipt:
        key = self._resolve(key)
        outcome = await self._submit(
            lambda rid: compile_query(rid, op, key=key), via
        )
        if outcome is None:
            raise self._request_failed("query", key)
        return self._read_receipt(*outcome)

    async def query_value(
        self, key: Hashable, op: QueryOp, *, via: str | None = None
    ) -> Any:
        receipt = await self.query(key, op, via=via)
        return receipt.value


class _PipelineBase:
    """Shared queueing for the batched client handles.

    A pipeline queues typed operations and submits them in one burst on
    :meth:`flush` — many requests in flight from one client, exactly the
    shape the proposer's §3.6 update batching packs into shared MERGE
    rounds (message count independent of batch size).  Updates stay
    at-least-once under fail-over, as with individual calls.
    """

    def __init__(self, store: Store) -> None:
        self._store = store
        self._ops: list[tuple[str, Hashable, Any]] = []

    def update(self, key: Hashable, op: UpdateOp) -> "_PipelineBase":
        """Queue ``f_u`` for the key; returns self for chaining."""
        self._ops.append(("update", self._store._resolve(key), op))
        return self

    def query(self, key: Hashable, op: QueryOp) -> "_PipelineBase":
        """Queue ``f_q`` for the key; returns self for chaining."""
        self._ops.append(("query", self._store._resolve(key), op))
        return self

    def __len__(self) -> int:
        return len(self._ops)


class SimPipeline(_PipelineBase):
    """Batched frontend over :class:`SimStore`: all queued operations go
    on the wire back-to-back, then one drive of the simulator collects
    every completion (with per-operation fail-over, like ``_submit``).
    """

    def flush(self) -> list[UpdateReceipt | ReadReceipt]:
        """Submit everything queued; receipts in queue order.

        Raises on the first operation that exhausts its attempts (or is
        refused with ``wrong_group``); operations that completed before
        the failure are still durable — the pipeline is at-least-once,
        not atomic.
        """
        store = self._store
        ops, self._ops = self._ops, []
        if not ops:
            return []
        n = len(ops)
        results: list[Any] = [None] * n
        errors: list[Exception | None] = [None] * n
        targets = [store._attempt_targets(None) for _ in range(n)]
        attempt: list[int] = [0] * n
        served_by: list[str] = [""] * n
        deadline: list[float] = [0.0] * n
        rid_to_op: dict[str, int] = {}
        open_ops = set(range(n))

        def send(i: int) -> None:
            replica = targets[i][attempt[i]]
            served_by[i] = replica
            request_id = store._ids.next()
            rid_to_op[request_id] = i
            store._multi_pending[request_id] = None
            kind, key, op = ops[i]
            message = (
                compile_update(request_id, op, key=key)
                if kind == "update"
                else compile_query(request_id, op, key=key)
            )
            store._endpoint.send(replica, message)
            deadline[i] = store._sim.now + store._attempt_timeout(replica)

        def fail_over(i: int, error: Exception | None) -> None:
            store._note_failed(served_by[i])
            attempt[i] += 1
            if attempt[i] < len(targets[i]):
                send(i)
                return
            kind, key, _ = ops[i]
            errors[i] = error if error is not None else store._request_failed(
                kind, key
            )
            open_ops.discard(i)

        for i in range(n):
            send(i)
        try:
            while open_ops:
                for request_id, completion in list(store._multi_pending.items()):
                    if completion is None:
                        continue
                    del store._multi_pending[request_id]
                    i = rid_to_op.pop(request_id)
                    if i not in open_ops:
                        continue  # superseded attempt answered late
                    if completion.kind == "wrong_group":
                        errors[i] = store._wrong_group(served_by[i], completion)
                        open_ops.discard(i)
                        continue
                    if completion.kind == "refused":
                        store._last_refusals.append(
                            (served_by[i], completion.code)
                        )
                        fail_over(i, None)
                        continue
                    store._note_served(served_by[i], attempt[i] + 1)
                    kind = ops[i][0]
                    results[i] = (
                        store._update_receipt(completion, served_by[i], attempt[i] + 1)
                        if kind == "update"
                        else store._read_receipt(completion, served_by[i], attempt[i] + 1)
                    )
                    open_ops.discard(i)
                if not open_ops:
                    break
                now = store._sim.now
                expired = [i for i in open_ops if now >= deadline[i]]
                for i in expired:
                    fail_over(i, None)
                if not open_ops:
                    break
                if not store._sim.step():
                    # Event queue drained: nothing further is coming.
                    for i in list(open_ops):
                        kind, key, _ = ops[i]
                        errors[i] = store._request_failed(kind, key)
                        open_ops.discard(i)
        finally:
            for request_id in rid_to_op:
                store._multi_pending.pop(request_id, None)
        for error in errors:
            if error is not None:
                raise error
        return results


class AsyncPipeline(_PipelineBase):
    """Batched frontend over :class:`AsyncStore`: the queued operations
    run as concurrent coroutines (one event-loop turn fires them all, so
    the replica sees the same back-to-back burst the sim pipeline sends).
    """

    async def flush(self) -> list[UpdateReceipt | ReadReceipt]:
        import asyncio

        store = self._store
        ops, self._ops = self._ops, []
        if not ops:
            return []

        async def run(kind: str, key: Hashable, op: Any) -> Any:
            if kind == "update":
                return await store.update(key, op)
            return await store.query(key, op)

        results = await asyncio.gather(
            *(run(kind, key, op) for kind, key, op in ops)
        )
        return list(results)
