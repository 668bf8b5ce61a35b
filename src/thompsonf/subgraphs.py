"""Finite full subgraphs of Cayley graphs of F and their density diagnostics.

A subgraph is a finite vertex set of canonical diagrams together with
all induced generator edges.  Only the vertex set is stored: one table
of each vertex's four neighbours gives the edges, the degrees, the
boundary and the matching.  The table runs on integers: B1(Y) is
numbered once, and the results keyed by diagram (edges, boundary,
matching) translate through that numbering when asked.  Density is the
average degree 2E/V as an exact rational; for the two-generator
Cayley graph the bookkeeping quantity q(Y) = 3q0 + 2q1 + q2 - q4 over
the degree profile satisfies q(Y) = 3V - 2E, so q(Y) >= 0 iff
density(Y) <= 3.  The module also computes boundaries, the
isoperimetric sandwich #dY/#Y <= 4 - density <= 4 #dY/#Y, the doubling
inequality #B1(Y) >= 2#Y, and perfect (2,1)-matchings from B1(Y) onto
Y, found by alternating-path search, returning a Hall-type violating
subset on failure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple

from .diagrams import GENERATOR_LETTERS, Diagram, mul_letter

Edge = Tuple[Diagram, Diagram, int]  # (u, v, k) meaning v = u * x_k
# per generator x_k: the positions of x_k and x_k^-1 in GENERATOR_LETTERS
_GENERATORS = tuple(
    (i, k, GENERATOR_LETTERS.index((k, -1)))
    for i, (k, s) in enumerate(GENERATOR_LETTERS)
    if s == 1
)


class Subgraph:
    """A finite vertex set and the cached integer table of its neighbours.

    B1(Y) is numbered once: the vertices 0..V-1 in their own order, then
    each boundary element as first met.  Per vertex, the table holds the
    numbers of its four neighbours, so an entry below V is a vertex.
    Immutable: only the cached properties fill in, once each.
    """

    def __init__(self, vertices: Dict[Diagram, None]) -> None:
        object.__setattr__(self, "vertices", vertices)  # an insertion-ordered set

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot set {name!r}: a Subgraph is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: a Subgraph is immutable")

    def __repr__(self) -> str:
        return f"Subgraph(size={self.size})"

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        # each edge is seen once from either end
        return sum(self._degrees) // 2

    @cached_property
    def _numbered(self) -> Tuple[Dict[Diagram, int], List[Tuple[int, ...]]]:
        # (the numbering of B1(Y), per vertex u the numbers of u * x_k^s
        # for each generator letter), read by all the rest.  Each
        # u * x_k = v inside the set also fills v's x_k^-1 slot with u, so
        # x_k^-1 is multiplied only where no vertex leads in by x_k
        b1 = dict(zip(self.vertices, range(len(self.vertices))))
        n = len(b1)
        table = [[-1] * len(GENERATOR_LETTERS) for _ in range(n)]
        for v, d in enumerate(self.vertices):
            near = table[v]
            for i, k, inverse in _GENERATORS:
                near[i] = u = b1.setdefault(mul_letter(d, k, 1), len(b1))
                if u < n:
                    table[u][inverse] = v
        for v, d in enumerate(self.vertices):
            near = table[v]
            for _, k, inverse in _GENERATORS:
                if near[inverse] < 0:
                    near[inverse] = b1.setdefault(mul_letter(d, k, -1), len(b1))
            table[v] = tuple(near)
        return b1, table

    @cached_property
    def edges(self) -> FrozenSet[Edge]:
        """Every (u, v, k) inside the set with v = u * x_k."""
        vertices = list(self.vertices)
        return frozenset(
            (d, vertices[near[i]], k)
            for d, near in zip(vertices, self._numbered[1])
            for i, k, _ in _GENERATORS
            if near[i] < len(vertices)
        )

    @cached_property
    def _degrees(self) -> List[int]:
        # q_value, min_degree and edge_count all read this, so it is built once
        n = len(self.vertices)
        table = self._numbered[1]
        for v, near in enumerate(table):
            if v in near:
                raise AssertionError(f"loop under x{GENERATOR_LETTERS[near.index(v)][0]}")
        return [sum(u < n for u in near) for near in table]


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


def q_value(y: Subgraph) -> int:
    """3q0 + 2q1 + q2 - q4, q_d the number of vertices of degree d;
    nonnegative exactly when density <= 3."""
    weight = (3, 2, 1, 0, -1)  # of each vertex, by its degree
    return sum(weight[d] for d in y._degrees)


def boundary(y: Subgraph) -> FrozenSet[Diagram]:
    """B1(Y) \\ Y, the vertices at distance exactly 1 from Y."""
    return frozenset(islice(y._numbered[0], len(y.vertices), None))


class DoublingReport(NamedTuple):
    holds: bool
    b1_size: int


def doubling_check(y: Subgraph) -> DoublingReport:
    """Compare #B1(Y) = #Y + #dY against 2 #Y."""
    b1 = len(y._numbered[0])
    return DoublingReport(b1 >= 2 * len(y.vertices), b1)


def folner_inequalities(y: Subgraph) -> Tuple[Fraction, Fraction, Fraction]:
    """(#dY/#Y, 4 - density, 4 #dY/#Y), asserting the sandwich holds."""
    if not y.vertices:
        raise ValueError("empty subgraph")
    ratio = Fraction(len(y._numbered[0]) - len(y.vertices), len(y.vertices))
    mid = 4 - density(y)
    if not ratio <= mid <= 4 * ratio:
        raise AssertionError(f"isoperimetric sandwich failed: {ratio}, {mid}")
    return ratio, mid, 4 * ratio


def min_degree(y: Subgraph) -> int:
    if not y.vertices:
        raise ValueError("empty subgraph")
    return min(y._degrees)


class MatchingResult(NamedTuple):
    assignment: Optional[Dict[Diagram, Diagram]]  # B1-vertex -> Y-vertex it serves
    witness: Optional[Set[Diagram]]  # Y' with #B1(Y') < 2 #Y' when infeasible


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
    b1, table = y._numbered
    # each vertex's neighbours in letter order, then the vertex itself
    # last: five distinct vertices, as the Cayley graph has no loops or double edges
    claims = [[*near, v] for v, near in enumerate(table)]
    holder, stuck = _claim_two(claims, len(b1))
    vertices = list(y.vertices)
    if any(stuck):
        witness = {d for d, s in zip(vertices, stuck) if s}
        return MatchingResult(assignment=None, witness=witness)
    assignment = {u: vertices[v] for u, v in zip(b1, holder) if v >= 0}
    return MatchingResult(assignment=assignment, witness=None)


def _claim_two(claims: List[List[int]], b1_size: int) -> Tuple[List[int], List[bool]]:
    # the search of two_one_matching on numbers: Y-vertex i claims from
    # claims[i], and B1-vertex j < len(claims) is Y-vertex j.  Returns,
    # per B1-vertex, the Y-vertex holding it (-1 when free), and per
    # Y-vertex whether it lies in a Hall set
    holder = [-1] * b1_size
    stuck = [False] * len(claims)
    for i, own in enumerate(claims):
        for _ in range(2):
            # the search would take the first free vertex of i's own list
            # before it looks further, so that one is claimed directly
            for j in own:
                if holder[j] < 0:
                    holder[j] = i
                    break
            else:
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
                while free >= 0:
                    v = came[free]
                    holder[free] = v
                    free = via[v]
    return holder, stuck
