"""The word-length formula: norm = cells + 2 * special vertices.

The diagram graph of a canonical diagram has vertices 0..L along the
shared leaf path and one arc per distinct node span of either forest (a
node covering leaves [a, a+w) contributes the arc {a, a+w}).  A vertex v
is *active* when some caret's leftmost leaf sits at v, or when the
single leaf edge at v is a whole tree in both forests with some caret
starting strictly to its right (the head of a nontrivial bridge).  An
active vertex at graph distance at least 2 from vertex 0 is *special*.
The x0,x1 word length of the element is then

    norm = cell_count + 2 * #special.

Everything the formula needs comes from one iterative span walk per
forest (diagrams._spans).  Distance at least 2 from vertex 0 needs no
search: vertex 0 is only ever the left end of an arc, so a vertex v is
that far exactly when v != 0 and {0, v} is not an arc.
"""

from __future__ import annotations

from typing import NamedTuple, Set

from .diagrams import EPSILON, GENERATOR_LETTERS, Diagram, _spans, mul_letter
from .words import GenWord


class DiagramGraph(NamedTuple):
    vertex_count: int
    arcs: frozenset  # of (a, b) pairs with a < b


def diagram_graph(d: Diagram) -> DiagramGraph:
    """Vertices 0..L and the deduplicated span arcs of both forests."""
    top = _spans(d.top)
    return DiagramGraph(top[-1][1] + 1, frozenset(top + _spans(d.bottom)))


def _read(d: Diagram) -> tuple:
    # cell count, active vertices and special vertices, from one span walk
    # per forest
    top = _spans(d.top)
    bottom = _spans(d.bottom)
    # a forest over L leaves with C carets has L + C nodes, and the last
    # node in preorder is the last leaf
    cells = len(top) + len(bottom) - 2 * top[-1][1]
    starts = {a for a, b in top if b - a > 1}
    starts.update(a for a, b in bottom if b - a > 1)
    if not starts:
        return cells, set(), set()
    whole = []  # per forest, the leaf positions that are whole trees
    near = {0}  # vertex 0 and its neighbours in the diagram graph
    for spans in (top, bottom):
        found = set()
        i = 0
        while i < len(spans):
            # a root; a tree over w leaves has 2w - 1 nodes, so the next
            # root starts where this one ends
            a, b = spans[i]
            if b - a == 1:
                found.add(a)
            i += 2 * (b - a) - 1
        whole.append(found)
        # the arcs at vertex 0 are the spans of the left spine of the
        # first tree, which open the preorder list
        for a, b in spans:
            if a:
                break
            near.add(b)
    rightmost = max(starts)
    active = starts | {v for v in whole[0] & whole[1] if v < rightmost}
    return cells, active, active - near


def active_vertices(d: Diagram) -> Set[int]:
    """Initial points of cells and of nontrivial bridges."""
    return _read(d)[1]


def special_vertices(d: Diagram) -> Set[int]:
    """Active vertices at distance >= 2 from vertex 0 in the diagram graph."""
    return _read(d)[2]


def norm(d: Diagram) -> int:
    """The x0,x1 word length of the element represented by d."""
    cells, _, special = _read(d)
    return cells + 2 * len(special)


def is_dead(d: Diagram) -> bool:
    """True when right multiplication by every generator letter lowers the norm.

    The identity is rejected: it has no descent directions at all.
    """
    if d == EPSILON:
        raise ValueError("the identity diagram is not in the domain of is_dead")
    n = norm(d)
    return all(norm(mul_letter(d, k, s)) < n for k, s in GENERATOR_LETTERS)


def greedy_descent(d: Diagram) -> GenWord:
    """A word for d found by always stepping to a lower-norm neighbour.

    Each step lowers the norm by exactly 1 (neighbour norms differ by
    exactly 1), so the word has length norm(d), and the norm is read
    once up front and then carried down.  A descent direction always
    exists: the last letter of any minimal word provides one.
    """
    steps = []
    current = d
    n = norm(d)
    while n > 0:
        for letter in GENERATOR_LETTERS:
            candidate = mul_letter(current, *letter)
            if norm(candidate) < n:
                steps.append(letter)
                current = candidate
                n -= 1
                break
        else:
            raise AssertionError(f"no descent direction at norm {n}")
    return tuple((k, -s) for k, s in reversed(steps))
