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
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Set

from .diagrams import (
    EPSILON,
    GENERATOR_LETTERS,
    Diagram,
    Forest,
    Tree,
    cell_count,
    mul_letter,
    tree_leaves,
)
from .words import GenWord


class DiagramGraph(NamedTuple):
    vertex_count: int
    arcs: frozenset  # of (a, b) pairs with a < b


def _node_spans(f: Forest, out: set) -> None:
    def walk(t: Tree, base: int) -> int:
        if t is None:
            out.add((base, base + 1))
            return 1
        n = walk(t[0], base)
        n += walk(t[1], base + n)
        out.add((base, base + n))
        return n

    base = 0
    for t in f:
        base += walk(t, base)


def diagram_graph(d: Diagram) -> DiagramGraph:
    """Vertices 0..L and the deduplicated span arcs of both forests."""
    spans: set = set()
    _node_spans(d.top, spans)
    _node_spans(d.bottom, spans)
    vertex_count = max(b for _, b in spans) + 1
    return DiagramGraph(vertex_count, frozenset(spans))


def _caret_start_set(f: Forest, out: set) -> None:
    def walk(t: Tree, base: int) -> int:
        if t is None:
            return 1
        out.add(base)
        n = walk(t[0], base)
        return n + walk(t[1], base + n)

    base = 0
    for t in f:
        base += walk(t, base)


def _root_leaf_positions(f: Forest) -> set:
    out = set()
    base = 0
    for t in f:
        if t is None:
            out.add(base)
        base += tree_leaves(t)
    return out


def active_vertices(d: Diagram) -> Set[int]:
    """Initial points of cells and of nontrivial bridges."""
    starts: set = set()
    _caret_start_set(d.top, starts)
    _caret_start_set(d.bottom, starts)
    if not starts:
        return set()
    rightmost = max(starts)
    bridges = _root_leaf_positions(d.top) & _root_leaf_positions(d.bottom)
    return starts | {v for v in bridges if rightmost >= v + 1}


def _distances_from_origin(g: DiagramGraph) -> list:
    adjacency: list = [[] for _ in range(g.vertex_count)]
    for a, b in g.arcs:
        adjacency[a].append(b)
        adjacency[b].append(a)
    dist = [-1] * g.vertex_count
    dist[0] = 0
    queue = deque((0,))
    while queue:
        v = queue.popleft()
        for u in adjacency[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def special_vertices(d: Diagram) -> Set[int]:
    """Active vertices at distance >= 2 from vertex 0 in the diagram graph."""
    active = active_vertices(d)
    if not active:
        return set()
    dist = _distances_from_origin(diagram_graph(d))
    return {v for v in active if dist[v] >= 2}


def norm(d: Diagram) -> int:
    """The x0,x1 word length of the element represented by d."""
    return cell_count(d) + 2 * len(special_vertices(d))


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
    exactly 1), so the word has length norm(d).  A descent direction
    always exists: the last letter of any minimal word provides one.
    """
    steps = []
    current = d
    while current != EPSILON:
        n = norm(current)
        for letter in GENERATOR_LETTERS:
            candidate = mul_letter(current, *letter)
            if norm(candidate) < n:
                steps.append(letter)
                current = candidate
                break
        else:
            raise AssertionError(f"no descent direction at norm {n}")
    return tuple((k, -s) for k, s in reversed(steps))
