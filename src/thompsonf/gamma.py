"""The density-3 witness family: graphs Gamma_n and their Cayley realizations.

Abstract side: labelled graphs (vertices 0..V-1, undirected labelled
edges, loops allowed) with two operators.  psi shifts every label up by
one.  apply_A(i, .) replaces each vertex v of rank r (rank = maximum
incident label) by a column of r - i copies chained by x_i edges, and
fans every edge labelled j > i out to the first j - i column levels with
labels j, j-1, ..., i+1.  Gamma_n, the chain apply_A(0) ... apply_A(n-2)
run on one x_n loop (see gamma), has Catalan(n) vertices, and its
label-0/1 subgraph ("bar" graph) has density 6(n-1)/(2n-1), approaching 3.

Concrete side: Gamma_{n,m} is the same chain apply_A(0) ... apply_A(n-2)
run on the path xi_path(n, m), with every vertex named by a group
element as the chain goes.  Seed vertex k is x_n^{-k}, and each column
descends from its head by x_i^{-1}, so an edge (u, v, j) means
v = u * x_j.  Every edge is then checked by one-letter multiplication
and the names are checked to be distinct, which realizes Gamma_{n,m} as
a subgraph of the Cayley graph over x_0..x_n; fullness_check shows it
is the full subgraph on its vertices.  ConcreteGamma.graph keeps the
chain's integer graph, and ConcreteGamma.vertices maps each vertex's
diagram to its number i there.  apply_A numbers each column
consecutively, in vertex order, so seed column k is the block of
vertices k C .. (k+1) C - 1, C = Catalan(n): vertex i is in column
i // C, and the per-column density averages rho_k sum the bar degrees
block by block.

Degrees count both endpoints, so a loop adds 2 to its vertex's degree;
edge counts (the b numbers) count a loop once.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import comb, factorial
from typing import Dict, List, NamedTuple, Tuple

from .diagrams import Diagram, LimitError, from_word, mul_letter, normal_form_text, to_normal_form
from .subgraphs import Subgraph, full_subgraph

LabeledEdge = Tuple[int, int, int]  # (u, v, label); u == v is a loop

# the most vertices gamma and gamma_nm_concrete build.  On a 2-vCPU VM
# (Python 3.11) the `gamma` report peaks at 406 MB for Gamma_13 (742,900
# vertices), 646 MB for Gamma_{12,3} (832,048) and 714 MB for
# Gamma_{11,16} (999,362); Gamma_14 would pass 1 GB.  A concrete
# vertex's string grows with m, so a large m costs more per vertex.
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
    """Gamma_{n,m} realized inside the Cayley graph over x_0..x_n."""

    n: int
    m: int
    # vertex diagram -> its number i in graph, in construction
    # (--emit-words) order: vertex i is in seed column i // Catalan(n)
    vertices: Dict[Diagram, int]
    # the chain's graph: an edge (u, v, j) means v = u * x_j
    graph: LabeledGraph

    def __repr__(self) -> str:
        return f"ConcreteGamma(n={self.n}, m={self.m})"

    @property
    def size(self) -> int:
        return len(self.vertices)

    def subgraph(self) -> Subgraph:
        """The bar graph, edges labelled 0 and 1, as a plain subgraph."""
        return full_subgraph(self.vertices)


def gamma_nm_concrete(n: int, m: int) -> ConcreteGamma:
    """Gamma_{n,m} = apply_A(0) ... apply_A(n-2) of xi_path(n, m), named.

    Seed vertex k is x_n^{-k} for k = 0..m.  apply_A numbers the column
    of each vertex consecutively, head first and in vertex order, so a
    column is named by its head's diagram followed by repeated right
    multiplication by x_i^{-1}, and seed column k is the block of
    vertices k Catalan(n) .. (k+1) Catalan(n) - 1.
    Every edge (u, v, j) is then checked as v = u * x_j, and the names
    as pairwise distinct.  The result has (m+1) Catalan(n) vertices, all
    reduced monomials in x_0..x_n with nonpositive exponents.  Above
    MAX_GAMMA_VERTICES vertices it raises SizeLimitError before building
    anything.
    """
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    _refuse_above_limit(f"Gamma_{{{n},{m}}}", n, m + 1)
    g = xi_path(n, m)
    names = [from_word(())]
    for _ in range(m):
        names.append(mul_letter(names[-1], n, -1))
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
    if len(names) != (m + 1) * size:
        raise ConstructionError(
            f"vertex count {len(names)} differs from (m+1) Catalan(n) = {(m + 1) * size}"
        )
    vertices = dict(zip(names, range(len(names))))
    if len(vertices) < len(names):
        d = next(d for v, d in enumerate(names) if vertices[d] != v)
        raise ConstructionError(f"vertex {normal_form_text(d)!r} is named twice")
    return ConcreteGamma(n=n, m=m, vertices=vertices, graph=g)


def fullness_check(g: ConcreteGamma) -> bool:
    """Verify g is the full subgraph induced on its vertex set.

    For each vertex u, the triples (u, v, k) with v = u * x_k in the vertex
    set and k <= n + 2 are exactly u's recorded edges; the first vertex,
    then label, where they differ is named; a graph whose vertex count is
    not the number of names, or a recorded edge from outside the vertices
    0..V-1, is refused first.  No edge is recorded above x_n, so labels
    n+1 and n+2 check that no vertex leaves x_0..x_n.
    """
    count = g.graph.vertex_count
    if count != len(g.vertices):
        raise ConstructionError(
            f"fullness violated: the graph has {count} vertices for {len(g.vertices)} names"
        )
    edges = sorted(g.graph.edges)  # vertex u's edges are a slice
    for u, _, k in edges[:1] + edges[-1:]:
        if not 0 <= u < count:
            raise ConstructionError(f"fullness violated at vertex {u} under x{k}")
    for d, i in g.vertices.items():
        start = bisect_left(edges, (i,))
        end = bisect_left(edges, (i + 1,), start)
        products = [(i, g.vertices.get(mul_letter(d, k, 1)), k) for k in range(g.n + 3)]
        wrong = {e for e in products if e[1] is not None}.symmetric_difference(edges[start:end])
        if wrong:
            k = min(e[2] for e in wrong)
            raise ConstructionError(f"fullness violated at {normal_form_text(d)!r} under x{k}")
    return True


def monomial_shape_ok(g: ConcreteGamma) -> bool:
    """Every vertex is a monomial x_n^-s x_{n-2}^-t ... with exponents <= 0.

    Checked as a property of the construction: the normal form has an
    empty positive part, and its nondecreasing negative part stays at or
    below n and misses n-1.
    """
    for d in g.vertices:
        pos, neg = to_normal_form(d)
        if pos or neg and neg[-1] > g.n or g.n - 1 in neg:
            return False
    return True


def column_partition(g: ConcreteGamma) -> List[Tuple[int, Fraction]]:
    """Per seed-path column k = 0..m: (vertex count, average degree rho_k).

    Column k is the block of C = Catalan(n) vertices from k C, and
    degrees are taken in the bar graph bar(g.graph).  The interior
    averages rho_1 = ... = rho_{m-1} coincide; the mean of the rho_k
    reproduces the density of the bar graph.
    """
    size = catalan(g.n)
    degrees = bar(g.graph).degrees()
    return [
        (size, Fraction(sum(degrees[k * size:(k + 1) * size]), size)) for k in range(g.m + 1)
    ]
