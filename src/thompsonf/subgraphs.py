"""Finite full subgraphs of Cayley graphs of F and their density diagnostics.

A subgraph is a finite vertex set of group elements together with all
induced generator edges.  The vertices are stored, numbered and
multiplied as run forms (P, N), not as diagrams.  The normal form
x_{p1} ... x_{pa} x_{nb}^-1 ... x_{n1}^-1 (p and n nondecreasing) is
read as its runs: P is the flat int tuple (i1, k1, i2, k2, ...) of its
positive part, k1 letters x_{i1}, then k2 letters x_{i2}, i1 < i2 < ...,
and N that of its negative part read the same way, so N lists the
carets of the bottom forest as _caret_runs reads them.  A run form is
its own hash key, and a vertex of Gamma_{6,1000}, whose diagram string
has about 2,000 characters, has about 3.5 runs.  mul_runs multiplies
one by a generator letter with the normal-form rewriting
x_j x_i = x_i x_{j+1} (i < j) of Cannon, Floyd and Parry ("Introductory
notes on Richard Thompson's groups", 1996); a letter cancels at most
one dipole (J. Belk and K. Brown, "Forest diagrams for elements of
Thompson's group F", IJAC 2005).

One table of each vertex's four neighbours gives the edges, the
degrees, the boundary and the matching.  The table runs on integers:
B1(Y) is numbered once, and the results keyed by diagram (vertices,
edges, boundary, matching) translate through that numbering, and
through diagram_of, only when asked.  Density is the average degree
2E/V as an exact rational; for the two-generator Cayley graph the
bookkeeping quantity q(Y) = 3q0 + 2q1 + q2 - q4 over the degree profile
satisfies q(Y) = 3V - 2E, so q(Y) >= 0 iff density(Y) <= 3.  The module
also computes boundaries, the isoperimetric sandwich
#dY/#Y <= 4 - density <= 4 #dY/#Y, the doubling inequality
#B1(Y) >= 2#Y, and perfect (2,1)-matchings from B1(Y) onto Y, found by
alternating-path search, returning a Hall-type violating subset on
failure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, groupby, islice, repeat
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple

from .diagrams import (
    GENERATOR_LETTERS, MAX_LEAVES, Diagram, LeafLimitError, NormalForm, _caret_runs,
    from_normal_form, from_word,
)
from .words import GenWord

Runs = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (P, N); see the module docstring
Edge = Tuple[Diagram, Diagram, int]  # (u, v, k) meaning v = u * x_k
# per generator x_k: the positions of x_k and x_k^-1 in GENERATOR_LETTERS
_GENERATORS = tuple(
    (i, k, GENERATOR_LETTERS.index((k, -1)))
    for i, (k, s) in enumerate(GENERATOR_LETTERS)
    if s == 1
)


def runs_of(d: Diagram) -> Runs:
    """The run form of a canonical diagram.

    >>> runs_of(from_word(((0, 1), (0, 1), (2, -1))))
    ((0, 2), (2, 1))
    """
    top, _, bottom = d.partition("|")
    return tuple(chain.from_iterable(_caret_runs(top))), tuple(chain.from_iterable(_caret_runs(bottom)))


def _expand(runs: Tuple[int, ...]) -> Tuple[int, ...]:
    # the nondecreasing indices of a flat run tuple, each repeated
    return tuple(chain.from_iterable(map(repeat, runs[::2], runs[1::2])))


def diagram_of(r: Runs) -> Diagram:
    """The canonical diagram of a run form; raises LeafLimitError past MAX_LEAVES."""
    return from_normal_form(NormalForm(_expand(r[0]), _expand(r[1])))


def _raised(runs: Tuple[int, ...], q: int, by: int) -> Tuple[int, ...]:
    # runs[q:] with every index moved by `by`
    out = list(runs[q:])
    out[::2] = [i + by for i in out[::2]]
    return tuple(out)


def mul_runs(P: Tuple[int, ...], N: Tuple[int, ...], c: int, s: int) -> Runs:
    """The run form of (P, N) times x_c^s, for c >= 0 and s = 1 or -1.

    In P N^-1 x_c^s the letter moves left past each x_i^-1 of N with
    i < c, as x_i^-1 x_c = x_{c+1} x_i^-1, so past N's runs below c, c
    growing by each run's length.  Then for s = -1 it joins N at c.  For
    s = 1 it cancels one x_c^-1 if N has a run at c; otherwise it moves
    on past N's later runs, raising each by one, and into P, raising P's
    runs above c.  Only the join can leave x_c on both sides with x_{c+1}
    on neither, a dipole; it cancels once: P and N each lose one c, and
    their runs above c drop by one.
    """
    n = len(N)
    r = 0
    while r < n and N[r] < c:
        c += N[r + 1]
        r += 2
    at = r < n and N[r] == c  # N has a run at c, at r
    if s == 1 and at:
        k = N[r + 1]
        return P, (N[:r] + (c, k - 1) + N[r + 2:] if k > 1 else N[:r] + N[r + 2:])
    q = 0
    while q < len(P) and P[q] < c:
        q += 2
    if s == 1:
        if q < len(P) and P[q] == c:
            P = P[:q] + (c, P[q + 1] + 1) + _raised(P, q + 2, 1)
        else:
            P = P[:q] + (c, 1) + _raised(P, q, 1)
        return P, N[:r] + _raised(N, r, 1)
    after = r + 2 if at else r  # N's first run above c
    if (
        q < len(P) and P[q] == c
        and not (q + 2 < len(P) and P[q + 2] == c + 1)
        and not (after < n and N[after] == c + 1)
    ):
        k = P[q + 1]
        P = P[:q] + ((c, k - 1) if k > 1 else ()) + _raised(P, q + 2, -1)
        return P, N[:after] + _raised(N, after, -1)
    if at:
        return P, N[:r] + (c, N[r + 1] + 1) + N[r + 2:]
    return P, N[:r] + (c, 1) + N[r:]


def _leaves(runs: Tuple[int, ...]) -> int:
    # the leaf count of the least forest with these caret runs, as
    # diagrams._forest counts it: h is leaves minus carets so far, and a
    # tree ends where h reaches a new high
    h = high = leaf = 0
    for i, k in zip(runs[::2], runs[1::2]):
        h += i - leaf
        high = max(high, h)
        h += 1 - k
        leaf = i + 1
    return leaf + high - h + 1


def _check_leaves(r: Runs, letters: int) -> None:
    # raise LeafLimitError if the diagram of r would have more than
    # MAX_LEAVES leaves.  A forest whose carets start at leaves up to i
    # has at most i + 2 + (its caret count) leaves, so with `letters` at
    # least the letters of r's normal form, only an element near the cap
    # is counted exactly
    P, N = r
    top = P[-2] if P else 0
    bottom = N[-2] if N else 0
    if max(top, bottom) + 2 + letters > MAX_LEAVES and max(_leaves(P), _leaves(N)) > MAX_LEAVES:
        raise LeafLimitError()


def word_runs(w: GenWord) -> Runs:
    """The run form of the word w's element.

    A word of normal-form shape, letters x_i with increasing runs of i
    and then letters x_j^-1 with decreasing runs of j, with no dipole,
    is read run by run; any other word is built by from_word.  Raises
    LeafLimitError exactly when from_word(w) does.
    """
    P: List[int] = []
    N: List[int] = []
    for (k, s), group in groupby(w):
        if s == 1 and not N and (not P or P[-2] < k):
            P += k, len(list(group))
        elif s == -1 and (not N or N[-2] > k):
            N += k, len(list(group))
        else:
            return runs_of(from_word(w))
    if P and N:
        top, bottom = set(P[::2]), set(N[::2])
        if any(i + 1 not in top and i + 1 not in bottom for i in top & bottom):
            return runs_of(from_word(w))  # a dipole
    r = tuple(P), tuple(chain.from_iterable(zip(N[-2::-2], N[::-2])))
    _check_leaves(r, len(w))
    return r


def fold_runs(r: Runs, w: GenWord, letters: int) -> Runs:
    """The run form of r times w, letter by letter.

    letters bounds the normal-form letters of r times each prefix of w.
    Raises LeafLimitError if one of those products would have more than
    MAX_LEAVES leaves, as the fold of from_word over them would.
    """
    for k, s in w:
        r = mul_runs(*r, k, s)
        _check_leaves(r, letters)
    return r


class Subgraph:
    """A finite vertex set and the cached integer table of its neighbours.

    Built from the vertices' run forms, in any number; runs keeps each
    once, in first-seen order.  B1(Y) is numbered once: the vertices
    0..V-1 in that order, then each boundary element as first met.  Per
    vertex, the table holds the numbers of its four neighbours, so an
    entry below V is a vertex.  Immutable: only the cached properties
    fill in, once each.
    """

    def __init__(self, runs: Iterable[Runs]) -> None:
        object.__setattr__(self, "runs", dict.fromkeys(runs))  # an insertion-ordered set

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot set {name!r}: a Subgraph is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: a Subgraph is immutable")

    def __repr__(self) -> str:
        return f"Subgraph(size={self.size})"

    @property
    def size(self) -> int:
        return len(self.runs)

    @property
    def edge_count(self) -> int:
        # each edge is seen once from either end
        return sum(self._degrees) // 2

    @cached_property
    def vertices(self) -> Dict[Diagram, None]:
        """The vertices' diagrams, in the order of runs; built when first read."""
        return dict.fromkeys(map(diagram_of, self.runs))

    @cached_property
    def _numbered(self) -> Tuple[Dict[Runs, int], List[Tuple[int, ...]]]:
        # (the numbering of B1(Y) by run form, per vertex u the numbers of
        # u * x_k^s for each generator letter), read by all the rest.  Each
        # u * x_k = v inside the set also fills v's x_k^-1 slot with u, so
        # x_k^-1 is multiplied only where no vertex leads in by x_k
        b1 = dict(zip(self.runs, range(len(self.runs))))
        n = len(b1)
        table = [[-1] * len(GENERATOR_LETTERS) for _ in range(n)]
        for v, (P, N) in enumerate(self.runs):
            near = table[v]
            for i, k, inverse in _GENERATORS:
                near[i] = u = b1.setdefault(mul_runs(P, N, k, 1), len(b1))
                if u < n:
                    table[u][inverse] = v
        for v, (P, N) in enumerate(self.runs):
            near = table[v]
            for _, k, inverse in _GENERATORS:
                if near[inverse] < 0:
                    near[inverse] = b1.setdefault(mul_runs(P, N, k, -1), len(b1))
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
        n = len(self.runs)
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
    return Subgraph(map(runs_of, elems))


def density(y: Subgraph) -> Fraction:
    """Average degree 2E/V, exact."""
    if not y.runs:
        raise ValueError("density of an empty subgraph is undefined")
    return Fraction(2 * y.edge_count, len(y.runs))


def q_value(y: Subgraph) -> int:
    """3q0 + 2q1 + q2 - q4, q_d the number of vertices of degree d;
    nonnegative exactly when density <= 3."""
    weight = (3, 2, 1, 0, -1)  # of each vertex, by its degree
    return sum(weight[d] for d in y._degrees)


def boundary(y: Subgraph) -> FrozenSet[Diagram]:
    """B1(Y) \\ Y, the vertices at distance exactly 1 from Y."""
    return frozenset(map(diagram_of, islice(y._numbered[0], len(y.runs), None)))


class DoublingReport(NamedTuple):
    holds: bool
    b1_size: int


def doubling_check(y: Subgraph) -> DoublingReport:
    """Compare #B1(Y) = #Y + #dY against 2 #Y."""
    b1 = len(y._numbered[0])
    return DoublingReport(b1 >= 2 * len(y.runs), b1)


def folner_inequalities(y: Subgraph) -> Tuple[Fraction, Fraction, Fraction]:
    """(#dY/#Y, 4 - density, 4 #dY/#Y), asserting the sandwich holds."""
    if not y.runs:
        raise ValueError("empty subgraph")
    ratio = Fraction(len(y._numbered[0]) - len(y.runs), len(y.runs))
    mid = 4 - density(y)
    if not ratio <= mid <= 4 * ratio:
        raise AssertionError(f"isoperimetric sandwich failed: {ratio}, {mid}")
    return ratio, mid, 4 * ratio


def min_degree(y: Subgraph) -> int:
    if not y.runs:
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
    holder, stuck = _claims(y)
    vertices = list(y.vertices)
    if any(stuck):
        witness = {d for d, s in zip(vertices, stuck) if s}
        return MatchingResult(assignment=None, witness=witness)
    b1 = chain(vertices, map(diagram_of, islice(y._numbered[0], len(vertices), None)))
    assignment = {u: vertices[v] for u, v in zip(b1, holder) if v >= 0}
    return MatchingResult(assignment=assignment, witness=None)


def matching_found(y: Subgraph) -> bool:
    """Whether two_one_matching(y) finds an assignment, read off the
    numbers with no diagram built."""
    return not any(_claims(y)[1])


def _claims(y: Subgraph) -> Tuple[List[int], List[bool]]:
    # _claim_two on the table: each vertex's neighbours in letter order,
    # then the vertex itself last, five distinct vertices, as the Cayley
    # graph has no loops or double edges
    b1, table = y._numbered
    return _claim_two([[*near, v] for v, near in enumerate(table)], len(b1))


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
