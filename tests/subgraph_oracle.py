"""The neighbour table keyed by diagram strings: an oracle for thompsonf.subgraphs.

The library numbers B1(Y) by run form and multiplies with
subgraphs.mul_runs.  Here the same table is built on the canonical
diagrams with diagrams.mul_letter, the one-letter splice of the diagram
strings, and the results that the library keys by diagram are read off
it.  Both number B1(Y) in the same order, the vertices first and then
each boundary element as first met, so the two tables agree entry for
entry.
"""

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from thompsonf.diagrams import GENERATOR_LETTERS, Diagram, mul_letter
from thompsonf.subgraphs import _claim_two

# per generator x_k: the positions of x_k and x_k^-1 in GENERATOR_LETTERS
_GENERATORS = tuple(
    (i, k, GENERATOR_LETTERS.index((k, -1)))
    for i, (k, s) in enumerate(GENERATOR_LETTERS)
    if s == 1
)


def numbered(vertices: Iterable[Diagram]) -> Tuple[Dict[Diagram, int], List[Tuple[int, ...]]]:
    """(the numbering of B1(Y) by diagram, per vertex the numbers of its
    four neighbours in letter order).  Each u * x_k = v inside the set
    also fills v's x_k^-1 slot with u, so x_k^-1 is multiplied only
    where no vertex leads in by x_k."""
    vertices = list(dict.fromkeys(vertices))
    b1 = dict(zip(vertices, range(len(vertices))))
    n = len(b1)
    table = [[-1] * len(GENERATOR_LETTERS) for _ in range(n)]
    for v, d in enumerate(vertices):
        near = table[v]
        for i, k, inverse in _GENERATORS:
            near[i] = u = b1.setdefault(mul_letter(d, k, 1), len(b1))
            if u < n:
                table[u][inverse] = v
    for v, d in enumerate(vertices):
        near = table[v]
        for _, k, inverse in _GENERATORS:
            if near[inverse] < 0:
                near[inverse] = b1.setdefault(mul_letter(d, k, -1), len(b1))
        table[v] = tuple(near)
    return b1, table


def edges(vertices: Iterable[Diagram]) -> FrozenSet[Tuple[Diagram, Diagram, int]]:
    """Every (u, v, k) inside the set with v = u * x_k."""
    b1, table = numbered(vertices)
    names = list(b1)
    return frozenset(
        (names[v], names[near[i]], k)
        for v, near in enumerate(table)
        for i, k, _ in _GENERATORS
        if near[i] < len(table)
    )


def boundary(vertices: Iterable[Diagram]) -> FrozenSet[Diagram]:
    """B1(Y) \\ Y."""
    b1, table = numbered(vertices)
    return frozenset(list(b1)[len(table):])


def two_one_matching(
    vertices: Iterable[Diagram],
) -> Tuple[Optional[Dict[Diagram, Diagram]], Optional[Set[Diagram]]]:
    """(assignment, witness) of the library's claim search, run on this table."""
    b1, table = numbered(vertices)
    names = list(b1)
    holder, stuck = _claim_two([[*near, v] for v, near in enumerate(table)], len(b1))
    if any(stuck):
        return None, {names[v] for v, s in enumerate(stuck) if s}
    return {names[u]: names[v] for u, v in enumerate(holder) if v >= 0}, None
