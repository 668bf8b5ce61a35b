"""Finite full subgraphs of Cayley graphs of F and their density diagnostics.

A subgraph is a finite vertex set of canonical diagrams together with
all induced generator edges.  Density is the average degree 2E/V as an
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

from .diagrams import Diagram, canonical_key, mul_letter

Edge = Tuple[str, str, int]  # (u, v, k) meaning v = u * x_k


@dataclass(frozen=True)
class Subgraph:
    gens: Tuple[int, ...]
    vertices: Dict[str, Diagram] = field(repr=False)
    edges: FrozenSet[Edge] = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def _neighbour_keys(self) -> Dict[str, Tuple[str, ...]]:
        # per vertex u, the keys of u * x_k^s for k in gens and s = 1, -1;
        # boundary and the matching both read this, so it is built once
        return {
            uk: tuple(
                canonical_key(mul_letter(d, k, s)) for k in self.gens for s in (1, -1)
            )
            for uk, d in self.vertices.items()
        }


def full_subgraph(elems: Iterable[Diagram], gens: Tuple[int, ...] = (0, 1)) -> Subgraph:
    """The induced subgraph on elems: every generator edge inside the set.

    Loops cannot occur (generators have infinite order) and neither can
    parallel edges (distinct generators move an element to distinct
    places), so the graph is simple.
    """
    vertices = {canonical_key(d): d for d in elems}
    key_of = {d: uk for uk, d in vertices.items()}
    edges = set()
    for uk, d in vertices.items():
        for k in gens:
            vk = key_of.get(mul_letter(d, k, 1))
            if vk is not None:
                if vk == uk:
                    raise AssertionError(f"loop at {uk} under x{k}")
                edges.add((uk, vk, k))
    return Subgraph(gens=tuple(gens), vertices=vertices, edges=frozenset(edges))


def degrees(y: Subgraph) -> Dict[str, int]:
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


def boundary(y: Subgraph) -> Set[str]:
    """Canonical keys of B1(Y) \\ Y."""
    return {
        nk for near in y._neighbour_keys.values() for nk in near if nk not in y.vertices
    }


class DoublingReport(NamedTuple):
    holds: bool
    b1_size: int
    doubled: int


def doubling_check(y: Subgraph) -> DoublingReport:
    """Compare #B1(Y) = #Y + #dY against 2 #Y."""
    b1 = len(y.vertices) + len(boundary(y))
    return DoublingReport(b1 >= 2 * len(y.vertices), b1, 2 * len(y.vertices))


def folner_inequalities(y: Subgraph) -> Tuple[Fraction, Fraction, Fraction]:
    """(#dY/#Y, 4 - density, 4 #dY/#Y), asserting the sandwich holds."""
    if not y.vertices:
        raise ValueError("empty subgraph")
    ratio = Fraction(len(boundary(y)), len(y.vertices))
    mid = 4 - density(y)
    if not ratio <= mid <= 4 * ratio:
        raise AssertionError(f"isoperimetric sandwich failed: {ratio}, {mid}")
    return ratio, mid, 4 * ratio


def min_degree(y: Subgraph) -> int:
    if not y.vertices:
        raise ValueError("empty subgraph")
    return min(degrees(y).values())


class MatchingResult(NamedTuple):
    assignment: Optional[Dict[str, str]]  # B1-vertex -> Y-vertex it serves
    witness: Optional[Set[str]]  # Y' with #B1(Y') < 2 #Y' when infeasible


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


def _b1_adjacency(y: Subgraph) -> Dict[str, List[str]]:
    """For each Y-vertex, the keys of B1(Y) at distance <= 1 (itself included)."""
    # distinct by simplicity of the Cayley graph, but dedupe defensively
    return {uk: sorted({uk, *near}) for uk, near in y._neighbour_keys.items()}


def two_one_matching(y: Subgraph) -> MatchingResult:
    """Assign B1(Y) vertices to Y so every Y-vertex receives two of them.

    Max-flow formulation: source -> y (capacity 2), y -> u for every
    B1-vertex u at distance <= 1 (capacity 2, never the bottleneck),
    u -> sink (capacity 1).  Feasible iff the flow saturates 2#Y.  On
    failure the source side of the min cut restricted to Y is a subset
    Y' with #B1(Y') < 2#Y', the exact Hall-type obstruction.
    """
    y_keys = sorted(y.vertices)
    adjacency = _b1_adjacency(y)
    b1_keys = sorted({u for near in adjacency.values() for u in near})
    y_index = {k: i for i, k in enumerate(y_keys)}
    b1_index = {k: len(y_keys) + i for i, k in enumerate(b1_keys)}
    source = len(y_keys) + len(b1_keys)
    sink = source + 1
    net = _Dinic(sink + 1)
    for k in y_keys:
        net.add_edge(source, y_index[k], 2)
    middle: Dict[int, Tuple[str, str]] = {}
    for yk in y_keys:
        for uk in adjacency[yk]:
            e = net.add_edge(y_index[yk], b1_index[uk], 2)
            middle[e] = (uk, yk)
    for uk in b1_keys:
        net.add_edge(b1_index[uk], sink, 1)
    flow = net.max_flow(source, sink)
    if flow == 2 * len(y_keys):
        assignment = {
            uk: yk
            for e, (uk, yk) in middle.items()
            if net.cap[e ^ 1] > 0  # unit of flow on the forward edge
        }
        return MatchingResult(assignment=assignment, witness=None)
    reachable = net.reachable(source)
    witness = {k for k in y_keys if y_index[k] in reachable}
    return MatchingResult(assignment=None, witness=witness)
