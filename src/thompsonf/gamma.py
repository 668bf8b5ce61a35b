"""The density-3 witness family: graphs Gamma_n and their Cayley realizations.

Abstract side: labelled graphs (vertices 0..V-1, undirected labelled
edges, loops allowed) with two operators.  psi shifts every label up by
one.  apply_A(i, .) replaces each vertex v of rank r (rank = maximum
incident label) by a column of r - i copies chained by x_i edges, and
fans every edge labelled j > i out to the first j - i column levels with
labels j, j-1, ..., i+1.  Gamma_n, the chain apply_A(0) ... apply_A(n-2)
run on one x_n loop (see gamma), has Catalan(n) vertices, and its
label-0/1 subgraph ("bar" graph) has density 6(n-1)/(2n-1), approaching 3.

Concrete side: Gamma_{n,m} is the same chain run on xi_path(n, m), seed
k named x_n^{-k} and each column named down from its head by x_i^{-1},
so an edge (u, v, j) means v = u * x_j.  By induction over apply_A,
every seed has rank n, a new vertex (v, kappa) has rank rank(v) - kappa,
column chains stay within a block, and a spawned edge (v, kappa) -
(w, kappa) keeps its block offset.  So the seeds' blocks have equal
sizes and rank sequences, block k is named from x_n^{-k} by block 0's
right multiplications, and its edges are block 0's, or those from block
1 to block 0, shifted by k C, C = Catalan(n): vertex k C + t is x_n^{-k}
times vertex t, and left multiplication carries the edge checks on
xi_path(n, 1) to every block.  Column 0 has no positive part and no
letter n, so the names are distinct; fullness_check shows Gamma_{n,m} is
the full subgraph of the Cayley graph over x_0..x_n on them.

Degrees count both endpoints, so a loop adds 2 to its vertex's degree;
edge counts (the b numbers) count a loop once.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import comb, factorial
from typing import List, NamedTuple, Tuple

from .diagrams import (
    EPSILON, Diagram, LimitError, NormalForm, from_normal_form, mul_letter, normal_form_text,
    to_normal_form,
)
from .subgraphs import Subgraph, full_subgraph

LabeledEdge = Tuple[int, int, int]  # (u, v, label); u == v is a loop

# the most vertices of gamma and of a concrete family (gamma_nm_concrete
# builds 2 Catalan(n); --emit-words and subgraph() the rest).  The `gamma`
# report peaks at 406 MB for Gamma_13 (742,900), on a 2-vCPU VM (Python 3.11).
MAX_GAMMA_VERTICES = 1_000_000


class SizeLimitError(LimitError):
    """A Gamma family would have more than MAX_GAMMA_VERTICES vertices."""

    def __init__(self, family: str, limit: int):
        super().__init__(f"{family} has more than {limit} vertices (memory)")
        self.limit = limit


def _refuse_above_limit(family: str, n: int, copies: int) -> None:
    # copies * Catalan(n), built up from Catalan(1) = 1 and stopped once
    # past the limit, so a huge n costs no big-integer arithmetic
    count = copies
    for k in range(1, n):
        if count > MAX_GAMMA_VERTICES:
            break
        count = count * 2 * (2 * k + 1) // (k + 2)
    if count > MAX_GAMMA_VERTICES:
        raise SizeLimitError(family, MAX_GAMMA_VERTICES)


class LabeledGraph(NamedTuple):
    vertex_count: int
    edges: Tuple[LabeledEdge, ...]

    def ranks(self) -> List[int]:
        """Per-vertex maximum incident label; -1 for an isolated vertex."""
        rank = [-1] * self.vertex_count
        for u, v, label in self.edges:
            if label > rank[u]:
                rank[u] = label
            if label > rank[v]:
                rank[v] = label
        return rank

    def degrees(self) -> List[int]:
        deg = [0] * self.vertex_count
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1  # a loop contributes 2 to its endpoint
        return deg

    def density(self) -> Fraction:
        """Average degree 2 #edges / #vertices, exact."""
        return Fraction(2 * len(self.edges), self.vertex_count)


def xi_single(n: int) -> LabeledGraph:
    """One vertex with one loop labelled x_n."""
    if n < 1:
        raise ValueError("seed label must be at least 1")
    return LabeledGraph(1, ((0, 0, n),))


def xi_path(n: int, m: int) -> LabeledGraph:
    """A path of m+1 vertices joined by m edges (k+1, k) labelled x_n."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    return LabeledGraph(m + 1, tuple((k + 1, k, n) for k in range(m)))


def psi(g: LabeledGraph) -> LabeledGraph:
    """Shift every edge label up by one."""
    return LabeledGraph(
        g.vertex_count, tuple((u, v, label + 1) for u, v, label in g.edges)
    )


def apply_A(i: int, g: LabeledGraph) -> LabeledGraph:
    """Column expansion at level i.

    Vertex v of rank r becomes the column v_0..v_{r-i-1}, numbered
    consecutively with the columns in vertex order, and chained by the
    x_i edges (v_k, v_{k-1}); an edge (v, w) labelled j > i spawns
    (v_k, w_k) labelled j - k for 0 <= k < j - i.  Requires i >= 0 and
    every rank > i; an edge labelled j <= i would be outside the
    construction and raises.
    """
    if i < 0:
        raise ValueError(f"apply_A({i}) needs a level of at least 0")
    ranks = g.ranks()
    if min(ranks, default=0) <= i:
        raise ValueError(f"apply_A({i}) needs every vertex rank above {i}")
    base = [0] * g.vertex_count
    total = 0
    for v, r in enumerate(ranks):
        base[v] = total
        total += r - i
    edges: List[LabeledEdge] = []
    for v, r in enumerate(ranks):
        for k in range(1, r - i):
            edges.append((base[v] + k, base[v] + k - 1, i))
    for u, v, j in g.edges:
        if j <= i:
            raise ValueError(f"edge labelled {j} cannot survive apply_A({i})")
        for k in range(j - i):
            edges.append((base[u] + k, base[v] + k, j - k))
    return LabeledGraph(total, tuple(edges))


def gamma(n: int) -> LabeledGraph:
    """Gamma_1 = xi_single(1); Gamma_{k+1} = apply_A(0, psi(Gamma_k)).

    apply_A(i+1, psi(g)) == psi(apply_A(i, g)) exactly, so this is the
    chain of gamma_nm_concrete, apply_A(0) ... apply_A(n-2) of xi_single(n).
    Above MAX_GAMMA_VERTICES it raises SizeLimitError before building.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _refuse_above_limit(f"Gamma_{n}", n, 1)
    g = xi_single(n)
    for i in range(n - 2, -1, -1):
        g = apply_A(i, g)
    return g


def bar(g: LabeledGraph) -> LabeledGraph:
    """Erase all edges labelled 2 or higher."""
    return LabeledGraph(
        g.vertex_count, tuple(e for e in g.edges if e[2] <= 1)
    )


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _exact(numerator: int, denominator: int) -> int:
    # a closed count's quotient, which must come out whole
    quotient, remainder = divmod(numerator, denominator)
    assert remainder == 0
    return quotient


def closed_a(n: int, k: int) -> int:
    """Rank-k vertex count of Gamma_n: k (2n-k-1)! / ((n-k)! n!)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return _exact(k * factorial(2 * n - k - 1), factorial(n - k) * factorial(n))


def closed_b(n: int, k: int) -> int:
    """Label-k edge count of Gamma_n.

    b_nn = 1 always; b_10 = 0; for 0 <= k < n, n >= 2:
    (k+1) (2n-k-2)! (3n^2 - 3n(k+1) + k^2 + 2k) / ((n-k)! (n+1)!).
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if k == n:
        return 1
    if n == 1:
        return 0  # the only case is k = 0
    numerator = (k + 1) * factorial(2 * n - k - 2) * (3 * n * n - 3 * n * (k + 1) + k * k + 2 * k)
    return _exact(numerator, factorial(n - k) * factorial(n + 1))


def density_bar_closed(n: int) -> Fraction:
    """6(n-1)/(2n-1), the closed form of bar(gamma(n)).density()."""
    if n < 2:
        raise ValueError("defined for n >= 2")
    return Fraction(6 * (n - 1), 2 * n - 1)


def closed_nu(n: int, d: int) -> int:
    """Degree-d vertex count of bar(Gamma_n) for d in {2,3,4}, n >= 5."""
    if n < 5:
        raise ValueError("closed degree counts need n >= 5")
    if d == 2:
        return _exact(3 * factorial(2 * n - 4), factorial(n - 2) * factorial(n - 1))
    if d == 3:
        return _exact(4 * (5 * n - 12) * factorial(2 * n - 5), factorial(n - 3) * factorial(n))
    if d == 4:
        return _exact(6 * factorial(2 * n - 5), factorial(n - 5) * factorial(n + 1))
    raise ValueError("degree must be 2, 3 or 4")


class ConstructionError(RuntimeError):
    """A concrete column construction failed verification."""


class ConcreteGamma(NamedTuple):
    """Gamma_{n,m} in the Cayley graph over x_0..x_n, kept as column 0.

    Vertex k C + t is x_n^-k column[t], C = Catalan(n).  The edges are
    inner shifted by k C, k = 0..m, and across shifted by k C, k < m,
    numbered as in Gamma_{n,1}: (u, v, j) means v = u * x_j."""

    n: int
    m: int
    column: Tuple[Diagram, ...]
    inner: Tuple[LabeledEdge, ...]  # within column 0
    across: Tuple[LabeledEdge, ...]  # from column 1 to column 0

    def __repr__(self) -> str:
        return f"ConcreteGamma(n={self.n}, m={self.m})"

    @property
    def size(self) -> int:
        return (self.m + 1) * len(self.column)

    def vertex(self, i: int) -> Diagram:
        """Vertex i = k C + t (a range(size) index): column[t]'s negative part, then k letters n."""
        k, t = divmod(range(self.size)[i], len(self.column))
        return from_normal_form(NormalForm((), to_normal_form(self.column[t]).neg + (self.n,) * k))

    def subgraph(self) -> Subgraph:
        """The bar graph, edges labelled 0 and 1, as a plain subgraph."""
        return full_subgraph(map(self.vertex, range(self.size)))


def gamma_nm_concrete(n: int, m: int) -> ConcreteGamma:
    """Gamma_{n,m}, read off apply_A(0) ... apply_A(n-2) of xi_path(n, 1).

    Every edge is checked by one-letter multiplication, the names as
    distinct, and column 0 as words in x_i^{-1}, i < n: the module
    docstring shows why that settles every m.  Above MAX_GAMMA_VERTICES
    vertices it raises SizeLimitError first."""
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    _refuse_above_limit(f"Gamma_{{{n},{m}}}", n, m + 1)
    g = xi_path(n, 1)
    names = [EPSILON, mul_letter(EPSILON, n, -1)]
    for i in range(n - 2, -1, -1):
        heights = [r - i for r in g.ranks()]
        g = apply_A(i, g)
        column_names: List[Diagram] = []
        for d, height in zip(names, heights):
            column_names.append(d)
            for _ in range(height - 1):
                d = mul_letter(d, i, -1)
                column_names.append(d)
        names = column_names
    for u, v, j in g.edges:
        if mul_letter(names[u], j, 1) != names[v]:
            u, v = normal_form_text(names[u]), normal_form_text(names[v])
            raise ConstructionError(f"edge {u!r} -x{j}-> {v!r} failed verification")
    size = catalan(n)
    if len(names) != 2 * size:
        raise ConstructionError(f"vertex count {len(names)} differs from 2 Catalan(n) = {2 * size}")
    if len(set(names)) < len(names):
        d = next(d for v, d in enumerate(names) if names.index(d) < v)
        raise ConstructionError(f"vertex {normal_form_text(d)!r} is named twice")
    for d in names[:size]:
        pos, neg = to_normal_form(d)
        if pos or neg and neg[-1] >= n:
            raise ConstructionError(f"{normal_form_text(d)!r} is not a word in x_i^-1, i < {n}")
    inner = tuple(e for e in g.edges if e[0] < size and e[1] < size)
    # column 1 holds inner's copy, and no edge runs from column 0 to column 1
    shifted = [(u + size, v + size, j) for u, v, j in sorted(inner)]
    assert sorted(e for e in g.edges if e[1] >= size) == shifted
    across = tuple(e for e in g.edges if e[1] < size <= e[0])
    return ConcreteGamma(n, m, tuple(names[:size]), inner, across)


def fullness_check(g: ConcreteGamma) -> bool:
    """Verify g is the full subgraph induced on its vertex set.

    Column 0 has no positive part and no letter n, so w_t x_j, j <= n + 2,
    is x_n^e w_t' when stripping e letters n off its positive part, or -e
    off its negative part, leaves the negative part of w_t'.  Then
    x_n^-k w_t x_j is vertex (k - e) C + t' for 0 <= k - e <= m: g is full
    when the products with |e| <= m are inner (e = 0) and across (e = 1).
    Where they differ, the least vertex, then label, is named."""
    size = len(g.column)
    index = {to_normal_form(w).neg: t for t, w in enumerate(g.column)}
    found = set()  # (u, v, j, e): vertex u in column max(e, 0) times x_j is vertex v
    for t, w in enumerate(g.column):
        for j in range(g.n + 3):
            pos, neg = to_normal_form(mul_letter(w, j, 1))
            cut = bisect_left(neg, g.n)
            e = len(pos) - len(neg) + cut
            if set(pos + neg[cut:]) <= {g.n} and abs(e) <= g.m and neg[:cut] in index:
                found.add((max(e, 0) * size + t, max(-e, 0) * size + index[neg[:cut]], j, e))
    wrong = found ^ {(*edge, 0) for edge in g.inner} ^ {(*edge, 1) for edge in g.across}
    if wrong:
        u, _, k, _ = min(wrong, key=lambda edge: (edge[0], edge[2]))
        where = repr(normal_form_text(g.vertex(u))) if 0 <= u < g.size else f"vertex {u}"
        raise ConstructionError(f"fullness violated at {where} under x{k}")
    return True


def monomial_shape_ok(g: ConcreteGamma) -> bool:
    """Every vertex is a monomial x_n^-s x_{n-2}^-t ... with exponents <= 0.

    The normal form has no positive part, and its negative part stays at
    or below n and misses n-1; vertex k C + t adds k letters n to that of
    column[t], so column 0 decides it."""
    for d in g.column:
        pos, neg = to_normal_form(d)
        if pos or neg and neg[-1] > g.n or g.n - 1 in neg:
            return False
    return True


def column_partition(g: ConcreteGamma) -> List[Tuple[int, Fraction]]:
    """Per seed-path column k = 0..m: (vertex count, average degree rho_k).

    In the bar graph, column k's degree sum is 2 per bar edge of inner,
    plus 1 per bar edge of across for each of columns k - 1 and k + 1
    that it has.  The interior averages rho_1 = ... = rho_{m-1} coincide;
    the mean of the rho_k is the density of the bar graph."""
    inner = sum(j <= 1 for _, _, j in g.inner)
    across = sum(j <= 1 for _, _, j in g.across)
    size = len(g.column)
    return [
        (size, Fraction(2 * inner + across * ((k > 0) + (k < g.m)), size)) for k in range(g.m + 1)
    ]
