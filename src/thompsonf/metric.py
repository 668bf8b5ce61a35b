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

Everything the formula needs is read off the diagram string
(diagrams.Diagram) without building a tree.  Split a forest code at
each ``L``: the piece before leaf v holds one ``(`` per caret whose
leftmost leaf is v, and it is exactly ``,`` when leaf v is a tree of its
own.  Distance at least 2 from vertex 0 needs no search: vertex 0 is
only ever the left end of an arc, so a vertex v is that far exactly
when v != 0 and {0, v} is not an arc.  The arcs at vertex 0 are the
spans of the left spine of each first tree.  tests/graph_oracle.py
builds the whole graph as the oracle for this shortcut.
"""

from __future__ import annotations

from typing import Set

from .diagrams import EPSILON, GENERATOR_LETTERS, Diagram, mul_letter
from .words import GenWord


def _read(d: Diagram) -> tuple:
    # cell count, active vertices and special vertices
    cells = d.count("(")
    if not cells:
        return 0, set(), set()
    starts = set()
    whole = []  # per forest, the leaf positions that are whole trees
    near = {0}  # vertex 0 and its neighbours in the diagram graph
    for f in d.split("|"):
        # pieces[v] is what precedes leaf v, with a "," before leaf 0
        pieces = ("," + f).split("L")
        pieces.pop()
        whole.append({v for v, piece in enumerate(pieces) if piece == ","})
        starts.update(v for v, piece in enumerate(pieces) if piece[-1:] == "(")
        # leaves minus carets from the tree's start: a left-spine node
        # ends at each new high, and the first tree where it reaches 1
        h = 1  # offsets the "," before leaf 0
        high = -len(f)  # below any value h takes
        for v, piece in enumerate(pieces):
            h += 1 - len(piece)
            if h > high:
                high = h
                near.add(v + 1)
                if h == 1:
                    break
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
    exists: the last letter of any minimal word provides one.  The
    letter that undoes the previous step is skipped unread: it leads
    back up to norm n + 1, so it would never be chosen.
    """
    steps = []
    current = d
    n = norm(d)
    back = None  # the inverse of the last letter taken
    while n > 0:
        for letter in GENERATOR_LETTERS:
            if letter == back:
                continue
            candidate = mul_letter(current, *letter)
            if norm(candidate) < n:
                steps.append(letter)
                current = candidate
                n -= 1
                back = (letter[0], -letter[1])
                break
        else:
            raise AssertionError(f"no descent direction at norm {n}")
    return tuple((k, -s) for k, s in reversed(steps))
