"""Gamma_{n,m} named and checked vertex by vertex: an oracle for thompsonf.gamma.

The library builds column 0 only and reads the rest of Gamma_{n,m} off
it.  Here every one of the (m+1) Catalan(n) vertices is named along the
chain apply_A(0) ... apply_A(n-2) of xi_path(n, m), every edge of the
full chain is checked by one-letter multiplication, and fullness makes
n + 3 products per vertex.  The cost grows as about m^2, so the tests
keep m small apart from a few checks.
"""

from bisect import bisect_left
from fractions import Fraction
from typing import Dict, List, NamedTuple, Tuple

from thompsonf.diagrams import Diagram, from_word, mul_letter, normal_form_text, to_normal_form
from thompsonf.gamma import ConstructionError, LabeledGraph, apply_A, bar, catalan, xi_path


class NamedChain(NamedTuple):
    n: int
    m: int
    # vertex diagram -> its number i in graph, in construction
    # (--emit-words) order: vertex i is in seed column i // Catalan(n)
    vertices: Dict[Diagram, int]
    # the chain's graph: an edge (u, v, j) means v = u * x_j
    graph: LabeledGraph

    @property
    def size(self) -> int:
        return len(self.vertices)


def named_chain(n: int, m: int) -> NamedChain:
    """apply_A(0) ... apply_A(n-2) of xi_path(n, m), every vertex named.

    Seed vertex k is x_n^{-k} for k = 0..m, and a column is named by its
    head's diagram followed by repeated right multiplication by
    x_i^{-1}.  Every edge (u, v, j) is checked as v = u * x_j, and the
    names as pairwise distinct.
    """
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
    return NamedChain(n=n, m=m, vertices=vertices, graph=g)


def fullness_check(g: NamedChain) -> bool:
    """Verify g is the full subgraph induced on its vertex set.

    For each vertex u, the triples (u, v, k) with v = u * x_k in the vertex
    set and k <= n + 2 are exactly u's recorded edges; the first vertex,
    then label, where they differ is named; a graph whose vertex count is
    not the number of names, or a recorded edge from outside the vertices
    0..V-1, is refused first.
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


def monomial_shape_ok(g: NamedChain) -> bool:
    """Every vertex has an empty positive part, and a negative part at
    or below n that misses n - 1."""
    for d in g.vertices:
        pos, neg = to_normal_form(d)
        if pos or neg and neg[-1] > g.n or g.n - 1 in neg:
            return False
    return True


def column_partition(g: NamedChain) -> List[Tuple[int, Fraction]]:
    """Per seed column k: (Catalan(n), the bar degrees of block k summed over Catalan(n))."""
    size = catalan(g.n)
    degrees = bar(g.graph).degrees()
    return [
        (size, Fraction(sum(degrees[k * size:(k + 1) * size]), size)) for k in range(g.m + 1)
    ]


def concrete_block(n: int, m: int) -> dict:
    """The `concrete` block of the `gamma --n n --m m` report, vertex by vertex."""
    g = named_chain(n, m)
    g_bar = bar(g.graph)
    density = g_bar.density()
    return {
        "m": m,
        "vertices": g.size,
        "bar_edges": len(g_bar.edges),
        "bar_density": {"num": density.numerator, "den": density.denominator},
        "columns": [
            {"size": size, "rho": {"num": rho.numerator, "den": rho.denominator}}
            for size, rho in column_partition(g)
        ],
        "fullness": fullness_check(g),
        "monomial_shape": monomial_shape_ok(g),
    }
