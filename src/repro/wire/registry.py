"""The wire tag registry: every protocol class the codec can carry.

Importing this module assigns each class a small integer tag in the
order listed below.  **The order is part of the wire format**: a peer
decodes tags positionally, so new classes are appended at the end and
existing entries are never removed or reordered without bumping
:data:`repro.wire.framing.WIRE_VERSION`.

Three kinds of classes are registered, and every one is rebuilt by
calling its constructor with the decoded fields in order (the decode
plan is compiled here, at registration):

* frozen dataclasses (CRDT payloads, protocol/baseline messages,
  :class:`~repro.core.rounds.Round`, keyed wrappers) — fields are the
  dataclass ``init`` fields;
* slotted op classes (update/query functions) — fields are the
  ``__slots__`` chain, which their constructors take in order;
* field-less ops (``Elements()``, ``IdentityQuery()``, …) — a bare tag.
"""

from __future__ import annotations

import dataclasses

from repro.wire.values import register

from repro.core import messages as core_messages
from repro.core import keyspace as core_keyspace
from repro.core.rounds import Round
from repro.crdt import base as crdt_base
from repro.crdt import (
    gcounter,
    gmap,
    graph,
    gset,
    lwwmap,
    lwwregister,
    maxregister,
    mvregister,
    orset,
    pncounter,
    twophase_set,
    vector_clock,
)
from repro.baselines import common as baseline_common
from repro.baselines.gla import node as gla_node
from repro.baselines.multipaxos import messages as mp_messages
from repro.baselines.raft import log as raft_log
from repro.baselines.raft import messages as raft_messages
from repro.net import control as net_control


def _register_dataclass(cls: type) -> None:
    fields = tuple(f.name for f in dataclasses.fields(cls) if f.init)
    register(cls, fields)


def _register_slotted(cls: type) -> None:
    names: list[str] = []
    for klass in reversed(cls.__mro__):
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        names.extend(slots)
    register(cls, tuple(names))


# ---------------------------------------------------------------------
# CRDT payloads (all frozen slotted dataclasses).
# ---------------------------------------------------------------------
for _cls in (
    gcounter.GCounter,
    pncounter.PNCounter,
    maxregister.MaxRegister,
    gset.GSet,
    twophase_set.TwoPhaseSet,
    orset.ORSet,
    lwwregister.LWWRegister,
    mvregister.MVRegister,
    lwwmap.LWWMap,
    gmap.GMap,
    graph.TwoPhaseGraph,
    vector_clock.VectorClock,
):
    _register_dataclass(_cls)

# ---------------------------------------------------------------------
# Update / query ops (slotted plain classes; constructors take the
# slots positionally).
# ---------------------------------------------------------------------
for _cls in (
    gcounter.Increment,
    gcounter.GCounterValue,
    pncounter.PNIncrement,
    pncounter.Decrement,
    pncounter.PNCounterValue,
    maxregister.MaxSet,
    maxregister.MaxValue,
    gset.GSetAdd,
    gset.Contains,
    gset.Elements,
    twophase_set.TwoPhaseAdd,
    twophase_set.TwoPhaseRemove,
    twophase_set.TwoPhaseContains,
    twophase_set.TwoPhaseElements,
    orset.ORSetAdd,
    orset.ORSetRemove,
    orset.ORSetContains,
    orset.ORSetElements,
    lwwregister.LWWSet,
    lwwregister.LWWValue,
    mvregister.MVWrite,
    mvregister.MVValues,
    lwwmap.LWWMapPut,
    lwwmap.LWWMapRemove,
    lwwmap.LWWMapGet,
    lwwmap.LWWMapKeys,
    gmap.GMapApply,
    gmap.GMapGet,
    graph.AddVertex,
    graph.RemoveVertex,
    graph.AddEdge,
    graph.RemoveEdge,
    graph.HasVertex,
    graph.HasEdge,
    graph.AsNetworkX,
    crdt_base.IdentityQuery,
):
    if _cls in (graph.AddEdge, graph.RemoveEdge, graph.HasEdge):
        # These store one ``edge`` tuple but construct from its two
        # halves; the slot order alone cannot rebuild them.
        register(_cls, ("edge",), build=lambda edge, _cls=_cls: _cls(*edge))
    else:
        _register_slotted(_cls)

# ---------------------------------------------------------------------
# Coordination metadata and core protocol messages.
# ---------------------------------------------------------------------
for _cls in (
    Round,
    core_messages.ClientUpdate,
    core_messages.ClientQuery,
    core_messages.UpdateDone,
    core_messages.QueryDone,
    core_messages.Refused,
    core_messages.WrongGroup,
    core_messages.MigrateFreeze,
    core_messages.MigrateFrozen,
    core_messages.MigrateInstall,
    core_messages.MigrateInstalled,
    core_messages.MigrateCommit,
    core_messages.MigrateCommitAck,
    core_messages.Merge,
    core_messages.Merged,
    core_messages.Prepare,
    core_messages.PrepareAck,
    core_messages.PrepareNack,
    core_messages.Vote,
    core_messages.Voted,
    core_messages.VoteNack,
    core_keyspace.Keyed,
    core_keyspace.KeyedBatch,
):
    _register_dataclass(_cls)

# ---------------------------------------------------------------------
# Baseline RSM messages (Raft, Multi-Paxos, GLA) — the bench compares
# byte counts across protocols, so they ride the same codec.
# ---------------------------------------------------------------------
for _cls in (
    raft_log.LogEntry,
    raft_messages.RequestVote,
    raft_messages.RequestVoteReply,
    raft_messages.AppendEntries,
    raft_messages.AppendEntriesReply,
    raft_messages.InstallSnapshot,
    raft_messages.InstallSnapshotReply,
    mp_messages.PaxEntry,
    mp_messages.Phase1a,
    mp_messages.Phase1b,
    mp_messages.Phase2a,
    mp_messages.Phase2b,
    mp_messages.Heartbeat,
    mp_messages.HeartbeatAck,
    mp_messages.CatchupRequest,
    mp_messages.CatchupReply,
    gla_node.Propose,
    gla_node.ProposeAck,
    gla_node.ProposeNack,
    net_control.NetStats,
    net_control.NetStatsReply,
    net_control.Sever,
    net_control.SeverDone,
    net_control.GarbageInject,
    net_control.GarbageInjectDone,
    baseline_common.RsmUpdate,
    baseline_common.RsmQuery,
    baseline_common.RsmUpdateDone,
    baseline_common.RsmQueryDone,
    baseline_common.Forwarded,
):
    _register_dataclass(_cls)
