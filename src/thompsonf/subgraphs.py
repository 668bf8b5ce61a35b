"""Finite full subgraphs of Cayley graphs of F and their density diagnostics.

A subgraph is a finite vertex set of canonical diagrams together with
all induced generator edges.  Only the vertex set is stored: one table
of each vertex's four neighbours gives the edges, the degrees, the
boundary and the matching.  A diagram is its own vertex name: all of
these are keyed by the hashable Diagram itself.  Density is the
average degree 2E/V as an exact rational; for the two-generator
Cayley graph the bookkeeping quantity q(Y) = 3q0 + 2q1 + q2 - q4 over
the degree profile satisfies q(Y) = 3V - 2E, so q(Y) >= 0 iff
density(Y) <= 3.  The module also
computes boundaries, the isoperimetric sandwich
#dY/#Y <= 4 - density <= 4 #dY/#Y, the doubling inequality
#B1(Y) >= 2#Y, and perfect (2,1)-matchings from B1(Y) onto Y, found
by alternating-path search, returning a Hall-type violating subset on
failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple

from .diagrams import GENERATOR_LETTERS, Diagram, mul_letter

Edge = Tuple[Diagram, Diagram, int]  # (u, v, k) meaning v = u * x_k
# per generator x_k: the positions of x_k and x_k^-1 in GENERATOR_LETTERS
_GENERATORS = tuple(
    (i, k, GENERATOR_LETTERS.index((k, -1)))
    for i, (k, s) in enumerate(GENERATOR_LETTERS)
    if s == 1
)


@dataclass(frozen=True)
class Subgraph:
    """A finite vertex set and the cached table of its vertices' neighbours.

    Each element is stored once: in the table, a neighbour inside the
    set is that vertex's own string, and each boundary element is one
    string shared by every vertex next to it.
    """

    vertices: Dict[Diagram, None] = field(repr=False)  # an insertion-ordered set

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        # each edge is seen once from either end
        return sum(self._degrees.values()) // 2

    @cached_property
    def _neighbours(self) -> Dict[Diagram, Tuple[Diagram, ...]]:
        # per vertex u, u * x_k^s for each generator letter; the edges,
        # degrees, boundary and matching all read this one table.  Each
        # u * x_k = v inside the set also fills v's x_k^-1 slot with u,
        # so x_k^-1 is multiplied only where no vertex leads in by x_k.
        # `stored` maps each element met so far to its one string
        stored = dict(zip(self.vertices, self.vertices))
        table = {d: [None] * len(GENERATOR_LETTERS) for d in self.vertices}
        for d, near in table.items():
            for i, k, inverse in _GENERATORS:
                u = mul_letter(d, k, 1)
                near[i] = u = stored.setdefault(u, u)
                if u in table:
                    table[u][inverse] = d
        for d, near in table.items():
            for _, k, inverse in _GENERATORS:
                if near[inverse] is None:
                    u = mul_letter(d, k, -1)
                    near[inverse] = stored.setdefault(u, u)
            table[d] = tuple(near)
        return table

    @cached_property
    def edges(self) -> FrozenSet[Edge]:
        """Every (u, v, k) inside the set with v = u * x_k."""
        return frozenset(
            (d, v, k)
            for d, near in self._neighbours.items()
            for (k, s), v in zip(GENERATOR_LETTERS, near)
            if s == 1 and v in self.vertices
        )

    @cached_property
    def _degrees(self) -> Dict[Diagram, int]:
        # q_value, min_degree and edge_count all read this, so it is built once
        deg = {}
        for d, near in self._neighbours.items():
            if d in near:
                raise AssertionError(
                    f"loop under x{GENERATOR_LETTERS[near.index(d)][0]}"
                )
            deg[d] = sum(u in self.vertices for u in near)
        return deg

    @cached_property
    def _boundary(self) -> FrozenSet[Diagram]:
        return frozenset(
            u for near in self._neighbours.values() for u in near
            if u not in self.vertices
        )


def full_subgraph(elems: Iterable[Diagram]) -> Subgraph:
    """The induced subgraph on elems: every x0 and x1 edge inside the set.

    Loops cannot occur (generators have infinite order) and neither can
    parallel edges (distinct generators move an element to distinct
    places), so the graph is simple, and a vertex's degree is the number
    of its four neighbours inside the set.
    """
    return Subgraph(vertices=dict.fromkeys(elems))


def density(y: Subgraph) -> Fraction:
    """Average degree 2E/V, exact."""
    if not y.vertices:
        raise ValueError("density of an empty subgraph is undefined")
    return Fraction(2 * y.edge_count, len(y.vertices))


def degree_profile(y: Subgraph) -> Tuple[int, int, int, int, int]:
    """Vertex counts q0..q4 by degree."""
    q = [0, 0, 0, 0, 0]
    for d in y._degrees.values():
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
    return min(y._degrees.values())


class MatchingResult(NamedTuple):
    assignment: Optional[Dict[Diagram, Diagram]]  # B1-vertex -> Y-vertex it serves
    witness: Optional[Set[Diagram]]  # Y' with #B1(Y') < 2 #Y' when infeasible


def _b1_adjacency(y: Subgraph) -> Dict[Diagram, List[Diagram]]:
    """For each Y-vertex, the vertices of B1(Y) at distance <= 1, itself last."""
    # distinct by simplicity of the Cayley graph, but dedupe defensively
    return {d: list(dict.fromkeys((*near, d))) for d, near in y._neighbours.items()}


def two_one_matching(y: Subgraph) -> MatchingResult:
    """Assign B1(Y) vertices to Y so every Y-vertex receives two of them.

    Each Y-vertex in turn claims two B1-vertices.  A claim follows a
    shortest alternating path, found by breadth-first search: from a
    Y-vertex to any B1-vertex at distance <= 1, from there to the
    Y-vertex that holds it, and so on until a free B1-vertex; every
    B1-vertex on the path then passes to the Y-vertex before it.  A
    search that finds no free vertex has reached a Hall set: its
    vertices hold all their B1 neighbours, two each except the searching
    vertex, so #B1(Y') < 2#Y'.  No later path can pass through such a
    set, so later searches skip it.  The union of these sets is the
    witness.  It is the set of Y-vertices reachable by alternating paths
    from a vertex left short in any maximum assignment, so it does not
    depend on the vertex order.
    """
    adjacency = _b1_adjacency(y)
    # B1(Y) numbered once: Y in its own order, then the rest as first met
    index = {d: i for i, d in enumerate(y.vertices)}
    for near in adjacency.values():
        for u in near:
            index.setdefault(u, len(index))
    claims = [[index[u] for u in adjacency[d]] for d in y.vertices]
    holder = [-1] * len(index)  # B1-vertex -> the Y-vertex holding it
    stuck = [False] * len(claims)  # Y-vertices inside a Hall set
    for i in range(len(claims)):
        for _ in range(2):
            via = {i: -1}  # Y-vertex -> the held B1-vertex it was reached by
            came = {}  # B1-vertex -> the Y-vertex that reached it
            queue = [i]
            free = -1
            for v in queue:
                for j in claims[v]:
                    if j not in came:
                        came[j] = v
                        w = holder[j]
                        if w < 0:
                            free = j
                            break
                        if w not in via and not stuck[w]:
                            via[w] = j
                            queue.append(w)
                if free >= 0:
                    break
            if free < 0:
                for v in queue:
                    stuck[v] = True
                break
            j = free
            while j >= 0:
                v = came[j]
                holder[j] = v
                j = via[v]
    vertices = list(y.vertices)
    if any(stuck):
        witness = {d for d, s in zip(vertices, stuck) if s}
        return MatchingResult(assignment=None, witness=witness)
    b1 = list(index)
    assignment = {b1[j]: vertices[v] for j, v in enumerate(holder) if v >= 0}
    return MatchingResult(assignment=assignment, witness=None)
