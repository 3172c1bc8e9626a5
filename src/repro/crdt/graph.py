"""Two-phase-two-phase (2P2P) directed graph.

The graph type from the original CRDT catalogue (the paper's introduction
lists "certain types of graphs" among the structures CRDTs cover): both
the vertex set and the edge set are two-phase sets, merged componentwise.
An edge is *live* only when it was added, not removed, and both endpoints
are live — the endpoint check happens at query time, which is what makes
concurrent ``add_edge`` / ``remove_vertex`` conflict-free: the edge simply
stops being observable once an endpoint dies.

Removal is permanent (2P semantics).  The payload is a product of four
grow-only sets and therefore a join semilattice with all CRDT laws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import networkx

from repro.crdt.base import QueryOp, StateCRDT, UpdateOp

Edge = tuple[Hashable, Hashable]


@dataclass(frozen=True, slots=True)
class TwoPhaseGraph(StateCRDT):
    """Immutable 2P2P-graph payload."""

    vertices_added: frozenset = frozenset()
    vertices_removed: frozenset = frozenset()
    edges_added: frozenset = frozenset()
    edges_removed: frozenset = frozenset()

    @staticmethod
    def initial() -> "TwoPhaseGraph":
        return TwoPhaseGraph()

    # ------------------------------------------------------------------
    def has_vertex(self, vertex: Hashable) -> bool:
        return (
            vertex in self.vertices_added and vertex not in self.vertices_removed
        )

    def has_edge(self, edge: Edge) -> bool:
        if edge not in self.edges_added or edge in self.edges_removed:
            return False
        return self.has_vertex(edge[0]) and self.has_vertex(edge[1])

    def live_vertices(self) -> frozenset:
        return self.vertices_added - self.vertices_removed

    def live_edges(self) -> frozenset:
        return frozenset(
            edge
            for edge in self.edges_added - self.edges_removed
            if self.has_vertex(edge[0]) and self.has_vertex(edge[1])
        )

    # ------------------------------------------------------------------
    def with_vertex(self, vertex: Hashable) -> "TwoPhaseGraph":
        if vertex in self.vertices_added:
            return self
        return TwoPhaseGraph(
            self.vertices_added | {vertex},
            self.vertices_removed,
            self.edges_added,
            self.edges_removed,
        )

    def without_vertex(self, vertex: Hashable) -> "TwoPhaseGraph":
        if vertex in self.vertices_removed:
            return self
        return TwoPhaseGraph(
            self.vertices_added,
            self.vertices_removed | {vertex},
            self.edges_added,
            self.edges_removed,
        )

    def with_edge(self, edge: Edge) -> "TwoPhaseGraph":
        """Record an edge; it only becomes observable while both endpoints
        are live, so no cross-object precondition is needed."""
        if edge in self.edges_added:
            return self
        return TwoPhaseGraph(
            self.vertices_added,
            self.vertices_removed,
            self.edges_added | {edge},
            self.edges_removed,
        )

    def without_edge(self, edge: Edge) -> "TwoPhaseGraph":
        if edge in self.edges_removed:
            return self
        return TwoPhaseGraph(
            self.vertices_added,
            self.vertices_removed,
            self.edges_added,
            self.edges_removed | {edge},
        )

    # ------------------------------------------------------------------
    def merge(self, other: "TwoPhaseGraph") -> "TwoPhaseGraph":
        if other is self:
            return self
        return TwoPhaseGraph(
            self.vertices_added | other.vertices_added,
            self.vertices_removed | other.vertices_removed,
            self.edges_added | other.edges_added,
            self.edges_removed | other.edges_removed,
        )

    def compare(self, other: "TwoPhaseGraph") -> bool:
        if other is self:
            return True
        return (
            self.vertices_added <= other.vertices_added
            and self.vertices_removed <= other.vertices_removed
            and self.edges_added <= other.edges_added
            and self.edges_removed <= other.edges_removed
        )


class AddVertex(UpdateOp):
    __slots__ = ("vertex",)

    def __init__(self, vertex: Hashable) -> None:
        self.vertex = vertex

    def apply(self, state: TwoPhaseGraph, replica_id: str) -> TwoPhaseGraph:
        return state.with_vertex(self.vertex)

    def __repr__(self) -> str:
        return f"AddVertex({self.vertex!r})"


class RemoveVertex(UpdateOp):
    """Tombstone a vertex; its incident edges become unobservable."""

    __slots__ = ("vertex",)

    def __init__(self, vertex: Hashable) -> None:
        self.vertex = vertex

    def apply(self, state: TwoPhaseGraph, replica_id: str) -> TwoPhaseGraph:
        return state.without_vertex(self.vertex)

    def __repr__(self) -> str:
        return f"RemoveVertex({self.vertex!r})"


class AddEdge(UpdateOp):
    __slots__ = ("edge",)

    def __init__(self, source: Hashable, target: Hashable) -> None:
        self.edge: Edge = (source, target)

    def apply(self, state: TwoPhaseGraph, replica_id: str) -> TwoPhaseGraph:
        return state.with_edge(self.edge)

    def __repr__(self) -> str:
        return f"AddEdge{self.edge!r}"


class RemoveEdge(UpdateOp):
    __slots__ = ("edge",)

    def __init__(self, source: Hashable, target: Hashable) -> None:
        self.edge: Edge = (source, target)

    def apply(self, state: TwoPhaseGraph, replica_id: str) -> TwoPhaseGraph:
        return state.without_edge(self.edge)

    def __repr__(self) -> str:
        return f"RemoveEdge{self.edge!r}"


class HasVertex(QueryOp):
    __slots__ = ("vertex",)

    def __init__(self, vertex: Hashable) -> None:
        self.vertex = vertex

    def apply(self, state: TwoPhaseGraph) -> bool:
        return state.has_vertex(self.vertex)

    def __repr__(self) -> str:
        return f"HasVertex({self.vertex!r})"


class HasEdge(QueryOp):
    __slots__ = ("edge",)

    def __init__(self, source: Hashable, target: Hashable) -> None:
        self.edge: Edge = (source, target)

    def apply(self, state: TwoPhaseGraph) -> bool:
        return state.has_edge(self.edge)

    def __repr__(self) -> str:
        return f"HasEdge{self.edge!r}"


class AsNetworkX(QueryOp):
    """Materialize the live graph as a ``networkx.DiGraph``.

    Lets applications run any graph algorithm against a linearizable
    snapshot of the replicated structure.
    """

    def apply(self, state: TwoPhaseGraph) -> networkx.DiGraph:
        graph = networkx.DiGraph()
        graph.add_nodes_from(state.live_vertices())
        graph.add_edges_from(state.live_edges())
        return graph

    def __repr__(self) -> str:
        return "AsNetworkX()"
