"""Finite full subgraphs of Cayley graphs of F and their density diagnostics.

A subgraph is a finite vertex set of canonical diagrams together with
all induced generator edges.  A diagram is its own vertex name: the
vertex set, the edges, the boundary and the matching are all keyed by
the hashable Diagram itself.  Density is the average degree 2E/V as an
exact rational; for the two-generator Cayley graph the bookkeeping
quantity q(Y) = 3q0 + 2q1 + q2 - q4 over the degree profile satisfies
q(Y) = 3V - 2E, so q(Y) >= 0 iff density(Y) <= 3.  The module also
computes boundaries, the isoperimetric sandwich
#dY/#Y <= 4 - density <= 4 #dY/#Y, the doubling inequality
#B1(Y) >= 2#Y, and perfect (2,1)-matchings from B1(Y) onto Y via
integral max-flow, returning a Hall-type violating subset on failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple

from .diagrams import Diagram, mul_letter

Edge = Tuple[Diagram, Diagram, int]  # (u, v, k) meaning v = u * x_k


@dataclass(frozen=True)
class Subgraph:
    gens: Tuple[int, ...]
    vertices: Dict[Diagram, None] = field(repr=False)  # an insertion-ordered set
    edges: FrozenSet[Edge] = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def _neighbours(self) -> Dict[Diagram, Tuple[Diagram, ...]]:
        # per vertex u, u * x_k^s for k in gens and s = 1, -1; the
        # boundary and the matching both read this, so it is built once
        return {
            d: tuple(mul_letter(d, k, s) for k in self.gens for s in (1, -1))
            for d in self.vertices
        }

    @cached_property
    def _boundary(self) -> FrozenSet[Diagram]:
        return frozenset(
            u for near in self._neighbours.values() for u in near
            if u not in self.vertices
        )


def full_subgraph(elems: Iterable[Diagram], gens: Tuple[int, ...] = (0, 1)) -> Subgraph:
    """The induced subgraph on elems: every generator edge inside the set.

    Loops cannot occur (generators have infinite order) and neither can
    parallel edges (distinct generators move an element to distinct
    places), so the graph is simple.
    """
    vertices = dict.fromkeys(elems)
    edges = set()
    for d in vertices:
        for k in gens:
            v = mul_letter(d, k, 1)
            if v in vertices:
                if v == d:
                    raise AssertionError(f"loop under x{k}")
                edges.add((d, v, k))
    return Subgraph(gens=tuple(gens), vertices=vertices, edges=frozenset(edges))


def degrees(y: Subgraph) -> Dict[Diagram, int]:
    deg = dict.fromkeys(y.vertices, 0)
    for u, v, _ in y.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def density(y: Subgraph) -> Fraction:
    """Average degree 2E/V, exact."""
    if not y.vertices:
        raise ValueError("density of an empty subgraph is undefined")
    return Fraction(2 * len(y.edges), len(y.vertices))


def degree_profile(y: Subgraph) -> Tuple[int, int, int, int, int]:
    """Vertex counts q0..q4 by degree; two-generator subgraphs only."""
    if tuple(sorted(y.gens)) != (0, 1):
        raise ValueError("degree profile is defined for generators {x0, x1}")
    q = [0, 0, 0, 0, 0]
    for d in degrees(y).values():
        q[d] += 1
    return tuple(q)


def q_value(y: Subgraph) -> int:
    """3q0 + 2q1 + q2 - q4; nonnegative exactly when density <= 3."""
    q0, q1, q2, _, q4 = degree_profile(y)
    return 3 * q0 + 2 * q1 + q2 - q4


def boundary(y: Subgraph) -> FrozenSet[Diagram]:
    """B1(Y) \\ Y, the vertices at distance exactly 1 from Y."""
    return y._boundary


class DoublingReport(NamedTuple):
    holds: bool
    b1_size: int
    doubled: int


def doubling_check(y: Subgraph) -> DoublingReport:
    """Compare #B1(Y) = #Y + #dY against 2 #Y."""
    b1 = len(y.vertices) + len(y._boundary)
    return DoublingReport(b1 >= 2 * len(y.vertices), b1, 2 * len(y.vertices))


def folner_inequalities(y: Subgraph) -> Tuple[Fraction, Fraction, Fraction]:
    """(#dY/#Y, 4 - density, 4 #dY/#Y), asserting the sandwich holds."""
    if not y.vertices:
        raise ValueError("empty subgraph")
    ratio = Fraction(len(y._boundary), len(y.vertices))
    mid = 4 - density(y)
    if not ratio <= mid <= 4 * ratio:
        raise AssertionError(f"isoperimetric sandwich failed: {ratio}, {mid}")
    return ratio, mid, 4 * ratio


def min_degree(y: Subgraph) -> int:
    if not y.vertices:
        raise ValueError("empty subgraph")
    return min(degrees(y).values())


class MatchingResult(NamedTuple):
    assignment: Optional[Dict[Diagram, Diagram]]  # B1-vertex -> Y-vertex it serves
    witness: Optional[Set[Diagram]]  # Y' with #B1(Y') < 2 #Y' when infeasible


class _Dinic:
    """Integral max-flow, adjacency-list residual graph."""

    def __init__(self, n: int):
        self.n = n
        self.heads: List[List[int]] = [[] for _ in range(n)]
        self.to: List[int] = []
        self.cap: List[int] = []

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        index = len(self.to)
        self.heads[u].append(index)
        self.to.append(v)
        self.cap.append(capacity)
        self.heads[v].append(index + 1)
        self.to.append(u)
        self.cap.append(0)
        return index

    def _levels(self, s: int, t: int) -> Optional[List[int]]:
        level = [-1] * self.n
        level[s] = 0
        queue = [s]
        for u in queue:
            for e in self.heads[u]:
                v = self.to[e]
                if self.cap[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def _augment(self, u: int, t: int, limit: int, level: List[int], it: List[int]) -> int:
        if u == t:
            return limit
        while it[u] < len(self.heads[u]):
            e = self.heads[u][it[u]]
            v = self.to[e]
            if self.cap[e] > 0 and level[v] == level[u] + 1:
                pushed = self._augment(v, t, min(limit, self.cap[e]), level, it)
                if pushed:
                    self.cap[e] -= pushed
                    self.cap[e ^ 1] += pushed
                    return pushed
            it[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = self._levels(s, t)
            if level is None:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._augment(s, t, 1 << 60, level, it)
                if not pushed:
                    break
                flow += pushed

    def reachable(self, s: int) -> Set[int]:
        seen = {s}
        queue = [s]
        for u in queue:
            for e in self.heads[u]:
                v = self.to[e]
                if self.cap[e] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


def _b1_adjacency(y: Subgraph) -> Dict[Diagram, List[Diagram]]:
    """For each Y-vertex, the vertices of B1(Y) at distance <= 1, itself last."""
    # distinct by simplicity of the Cayley graph, but dedupe defensively
    return {d: list(dict.fromkeys((*near, d))) for d, near in y._neighbours.items()}


def two_one_matching(y: Subgraph) -> MatchingResult:
    """Assign B1(Y) vertices to Y so every Y-vertex receives two of them.

    Max-flow formulation: source -> y (capacity 2), y -> u for every
    B1-vertex u at distance <= 1 (capacity 2, never the bottleneck),
    u -> sink (capacity 1).  Feasible iff the flow saturates 2#Y.  On
    failure the source side of the min cut restricted to Y is a subset
    Y' with #B1(Y') < 2#Y', the exact Hall-type obstruction; it is the
    minimal min cut, so it does not depend on the vertex order.
    """
    adjacency = _b1_adjacency(y)
    # B1(Y) numbered once: Y in its own order, then the rest as first met.
    # Y-vertex i is node i on the Y side and node n + i on the B1 side.
    index = {d: i for i, d in enumerate(y.vertices)}
    for near in adjacency.values():
        for u in near:
            index.setdefault(u, len(index))
    n = len(y.vertices)
    source = n + len(index)
    sink = source + 1
    net = _Dinic(sink + 1)
    for i in range(n):
        net.add_edge(source, i, 2)
    middle: Dict[int, Tuple[Diagram, Diagram]] = {}
    for i, d in enumerate(y.vertices):
        for u in adjacency[d]:
            e = net.add_edge(i, n + index[u], 2)
            middle[e] = (u, d)
    for j in range(len(index)):
        net.add_edge(n + j, sink, 1)
    flow = net.max_flow(source, sink)
    if flow == 2 * n:
        assignment = {
            u: d
            for e, (u, d) in middle.items()
            if net.cap[e ^ 1] > 0  # unit of flow on the forward edge
        }
        return MatchingResult(assignment=assignment, witness=None)
    reachable = net.reachable(source)
    witness = {d for i, d in enumerate(y.vertices) if i in reachable}
    return MatchingResult(assignment=None, witness=witness)
