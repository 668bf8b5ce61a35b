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
(diagrams.Diagram) without building a tree.  Both forest codes are
split once at each ``L`` and read side by side: the piece before leaf v
holds one ``(`` per caret whose leftmost leaf is v, and it is exactly
``,`` when leaf v is a tree of its own.  Distance at least 2 from vertex
0 needs no search: vertex 0 is only ever the left end of an arc, so v
is that far exactly when v != 0 and {0, v} is not an arc.  The arcs at
0 are the spans of each first tree's left spine, which _spine reads.
tests/graph_oracle.py builds the whole graph as the oracle.

Norm deltas.  A letter changes the norm by exactly 1, and the sign is
read off a window of d, without building the product (_deltas).
The cell count moves by +1 for a leaf split or a join and by -1 for a
root removal or a dipole, the four branches of diagrams.mul_letter, so
only the special count needs reading.  Let bottom tree t have s_t
leaves, a missing tree counting as a padded leaf tree (as mul_letter
pads it, with a leaf tree on top), let p be 0 for x0 and s0 for x1, and
w = s0 + s1, where bottom tree 2 starts.  Then special status changes
at most at one vertex:

- Active status changes only at p and p + a, where a is the leaf count
  of the left part: the root's left subtree for a root removal, tree k
  for a join.  A root removal drops the bottom caret at p and can make
  bottom leaves p and p + a trees; a join does the reverse.  A leaf
  split makes top leaf p a caret and adds vertex p + 1, never active:
  its leaf is a right child on top and a leaf tree below.  A dipole
  removes the top caret at p and vertex p + 1, which was never active.
  The two renumber the vertices above p by +1 and above p + 1 by -1,
  and each vertex keeps its status.
- The rightmost caret start moves only inside [0, p], beyond the
  renumbering, so a bridge can appear or vanish only at a leaf left of
  p that is a tree in the bottom forest.  There is none for x0, and
  for x1 it lies in bottom tree 0, which is then the single leaf at
  vertex 0.
- The top spine follows the renumbering; a leaf split at 0 adds the
  new vertex 1.  The bottom spine moves only for x0: a root removal
  drops its end s0, a join adds the end w, and a leaf split or dipole
  keeps it {1}.
- Vertex 0 is never special, and neither is s0, the end of bottom tree
  0's root.  For x0, p + a is s0 (join) or the end of the root's left
  subtree (root removal), on the bottom spine before and after.  For
  x1, p is s0.

So a leaf split adds 1 and a dipole takes 1 off.  For x0, a root
removal takes 1 off and adds 2 when s0 becomes special: active and not
near in the top forest, now that its bottom arc is gone.  A join adds
1 and takes 2 off when w was special; it gains a bottom arc.  For x1,
a root removal takes 1 off and adds 2 when the right subtree is a leaf
and s0 + a becomes a bridge head: a top leaf tree with a caret right
of it, not near in the top forest.  A join adds 1 and takes 2 off when
bottom tree 2 is a leaf and w was such a bridge head.  The tests hold
this against the norm difference on the radius-8 ball and on long
words, CI on the radius-10 ball, and greedy_descent certifies every
word it returns.

What the deltas read.  _deltas reads the window off the fold's state
(diagrams._unpack): bottom trees 0, 1 and 2 are the last three codes of
the tree list, and top piece v, what precedes leaf v, is pieces[-1 - v].
A tree of s leaves spends 2s - 1 characters, and the carets of a forest
are its leaves less its trees, so s0, w and whether a bottom tree from
2 on has a caret are counts.  Two reads need the whole top forest: the
first top tree's leaf count (no vertex past it is near vertex 0, and
of the vertices that start a top tree only it is) and the rightmost
top caret start (a bridge needs a caret right of it).  greedy_descent
keeps both as its state changes.  A descent takes no leaf split (its
delta is +1), so only a dipole at the top leaf p moves them, by one;
it is told from a join, the other x_k^-1 edit, by the bottom caret
count (leaves less trees), which a join raises.  A dipole that takes
away the rightmost caret start searches down from p, and since a
descent adds no top caret, the searches of one descent pass each leaf
once.  A near test inside the first top tree sums the pieces before v
in C.  Beyond that search no step loops over the leaves in Python; a
root removal still walks a bottom tree (diagrams._tree_end).
"""

from __future__ import annotations

from itertools import accumulate, compress, count, islice, repeat
from operator import sub
from typing import Deque, Iterator, List, Optional, Set, Tuple

from .diagrams import (
    EPSILON, GENERATOR_LETTERS, Diagram, LimitError, _fold, _tree_end, _unpack, leaf_count,
)
from .words import GenWord

# greedy_descent takes norm(d) steps on a diagram of len(d) characters.
# A step reads a window of the fold's state, but a root removal still
# walks a bottom tree, so norm(d) * len(d) bounds its work; geodesic
# x8000 (5.1e8) takes about 0.1 s.  Past this bound it refuses.
MAX_DESCENT_WORK = 2**30


class DescentLimitError(LimitError):
    """greedy_descent would do more than MAX_DESCENT_WORK (norm x length)."""

    def __init__(self, length: int) -> None:
        super().__init__(
            f"a greedy descent on a diagram of {length} characters would pass "
            f"the work cap of {MAX_DESCENT_WORK} (norm x length; time)"
        )


def _spine(pieces: List[str]) -> Set[int]:
    # the v with {0, v} an arc of a forest split into pieces as in _read:
    # counting leaves minus carets and commas, a node of the first tree's
    # left spine ends at each new high, and the tree where the count is 1
    near = set()
    h = 1  # offsets the "," before leaf 0
    high = h - len(pieces[0])  # below h at leaf 0
    for v, piece in enumerate(pieces):
        h += 1 - len(piece)
        if h > high:
            high = h
            near.add(v + 1)
            if h == 1:
                break
    return near


def _read(d: Diagram) -> tuple:
    # cell count, active vertices, and vertex 0 with its graph neighbours
    cells = d.count("(")
    if not cells:
        return 0, set(), set()
    # pieces[v] is what precedes leaf v, with a "," before leaf 0; a
    # forest code ends in "L", so the piece past the last leaf is empty
    top, bottom = (("," + f).split("L") for f in d.split("|"))
    starts = [v for v, (a, b) in enumerate(zip(top, bottom)) if "(" in a or "(" in b]
    active = set(starts)
    active.update(v for v, a in enumerate(top[: starts[-1]]) if a == "," == bottom[v])
    return cells, active, {0} | _spine(top) | _spine(bottom)


def active_vertices(d: Diagram) -> Set[int]:
    """Initial points of cells and of nontrivial bridges."""
    return _read(d)[1]


def norm_and_special(d: Diagram) -> Tuple[int, Set[int]]:
    """The length formula, cells + 2 * #special, and the special vertices."""
    cells, active, near = _read(d)
    special = active - near
    return cells + 2 * len(special), special


def special_vertices(d: Diagram) -> Set[int]:
    """Active vertices at distance >= 2 from vertex 0 in the diagram graph."""
    return norm_and_special(d)[1]


def norm(d: Diagram) -> int:
    """The x0,x1 word length of the element represented by d."""
    return norm_and_special(d)[0]


def _first_tree(pieces: Deque[str]) -> int:
    # the leaf count of the first top tree: the first leaf after 0 whose
    # piece starts with ",", or all of them
    ends = compress(count(1), map(str.startswith, islice(reversed(pieces), 1, None), repeat(",")))
    return next(ends, len(pieces))


def _last_start(pieces: Deque[str], below: int) -> int:
    # the rightmost caret start among top leaves 0 .. below-1, or -1.  A
    # greedy descent adds no top caret, so the searches of one descent
    # pass each leaf once
    v = min(below, len(pieces)) - 1
    while v >= 0 and "(" not in pieces[-1 - v]:
        v -= 1
    return v


def _near(pieces: Deque[str], v: int, first: int) -> bool:
    # {0, v} is a top arc (v > 0).  Past the first tree only its root
    # ends at v.  Within it, leaf v - 1 > 0 must be a right child, with
    # no caret before it, and counting leaves less carets over pieces
    # 0 .. v-1, as _spine does, v - 1 must end a new high
    if v >= first or v == 1:
        return v <= first
    if pieces[-v]:
        return False
    *h, last = accumulate(map(sub, repeat(1), map(len, islice(reversed(pieces), v))))
    return max(h) < last


def _bridge(pieces: Deque[str], v: int, first: int, right: bool) -> bool:
    # top leaf v > 0 is a tree, a caret of either forest starts right of
    # it (`right`), and v does not end the first top tree, so is not near
    # vertex 0; a top leaf past the last is a padded tree
    return right and v != first and (v >= len(pieces) or pieces[-1 - v] == ",")


def _special(pieces: Deque[str], v: int, start: bool, whole: bool, first: int, right: bool) -> bool:
    # vertex v is active and not near in the top forest, where `start`
    # says a bottom caret starts at v and `whole` that bottom leaf v is a
    # tree; the bottom spine is the caller's part
    if start or v < len(pieces) and pieces[-1 - v][-1:] == "(":
        return not _near(pieces, v, first)
    return whole and _bridge(pieces, v, first, right)


def _deltas(
    pieces: Deque[str], trees: List[str], first: Optional[int] = None, last: int = -1
) -> Iterator[int]:
    # norm(mul_letter(d, k, s)) - norm(d) for each letter of
    # GENERATOR_LETTERS in turn, read off the window of the module
    # docstring in the fold's state of d; lazily, so a caller can stop
    # at the first it needs.  first is the first top tree's leaf count
    # and last the rightmost top caret start; greedy_descent keeps them,
    # and they are read off the pieces otherwise.  Bottom trees 0, 1 and
    # 2 are the last three; a missing tree is a padded leaf
    if first is None:
        first, last = _first_tree(pieces), _last_start(pieces, len(pieces))
    leaves = len(pieces)
    t0 = trees[-1]
    t1 = trees[-2] if len(trees) > 1 else "L"
    t2 = trees[-3] if len(trees) > 2 else "L"
    s0 = (len(t0) + 1) // 2  # a tree of s leaves spends 2s - 1 characters
    w = s0 + (len(t1) + 1) // 2  # where bottom tree 2 starts
    # a bottom tree from 2 on has a caret, so one starts right of w - 1
    # and of w: the carets of a forest are its leaves less its trees, and
    # trees 0 and 1 hold w - 2
    later = leaves - len(trees) > w - 2

    # x0: a leaf split is +1; a root removal takes s0 off the bottom spine
    if t0 == "L":
        yield 1
    else:
        yield 2 * _special(pieces, s0, t1[0] == "(", t1 == "L", first, later or last > s0) - 1
    # x0^-1: a dipole at leaf 0 is -1; a join puts w on the bottom spine
    if t0 == t1 == "L" and leaves > 1 and pieces[-2] == "" and pieces[-1][-1:] == "(":
        yield -1
    else:
        yield 1 - 2 * _special(pieces, w, t2[0] == "(", t2 == "L", first, later or last > w)
    # x1: a leaf split is +1; a root removal over a leaf right subtree
    # makes bottom leaf w - 1 a tree
    if t1 == "L":
        yield 1
    else:
        yield 2 * (t1[_tree_end(t1, 1):] == "L" and _bridge(pieces, w - 1, first, later or last >= w)) - 1
    # x1^-1: a dipole at leaf s0 is -1; a join over a leaf tree 2 makes
    # bottom leaf w part of a tree
    if t1 == t2 == "L" and w < leaves and pieces[-1 - w] == "" and pieces[-1 - s0][-1:] == "(":
        yield -1
    else:
        yield 1 - 2 * (t2 == "L" and _bridge(pieces, w, first, later or last > w))


def is_dead(d: Diagram) -> bool:
    """True when right multiplication by every generator letter lowers the norm.

    That is, all four norm deltas are -1, the same predicate the
    descent steps by.  The identity is rejected: it has no descent
    directions at all.
    """
    if d == EPSILON:
        raise ValueError("the identity diagram is not in the domain of is_dead")
    return all(delta < 0 for delta in _deltas(*_unpack(d)))


def greedy_descent(d: Diagram) -> GenWord:
    """A word for d found by always stepping to a lower-norm neighbour.

    The norm is read once and d is split once into the fold's state,
    with the two top forest reads the deltas need (see the module
    docstring), kept up to date step by step.  Each step reads the norm
    deltas off that state in GENERATOR_LETTERS order, takes the first
    letter whose delta is -1, and applies it with one fold of that
    letter.  A descent direction always exists: the last
    letter of any minimal word provides one.  The letter that undoes the
    previous step has delta +1, so it is never taken.  The descent
    certifies itself: its state must be the identity after exactly
    norm(d) steps, so the word it returns is geodesic even if a delta
    were wrong; otherwise it raises AssertionError.  Before the first
    step it raises DescentLimitError when norm(d) * len(d) passes
    MAX_DESCENT_WORK.
    """
    # leaves <= 2 norm + 4: a leaf is in a tree with carets, at most two
    # leaves per caret, or bare in both forests, and a bare leaf is special
    # unless it is vertex 0, the end of a first tree or the one trailing
    # leaf past the last caret.  So a diagram with far too many leaves is
    # refused before the norm read, which takes 0.5 s on x2097150
    if (leaf_count(d) - 4) // 2 * len(d) > MAX_DESCENT_WORK:
        raise DescentLimitError(len(d))
    n = norm(d)
    if n * len(d) > MAX_DESCENT_WORK:
        raise DescentLimitError(len(d))
    steps = []
    pieces, trees = _unpack(d)
    first, last = _first_tree(pieces), _last_start(pieces, len(pieces))
    for _ in range(n):
        for letter, delta in zip(GENERATOR_LETTERS, _deltas(pieces, trees, first, last)):
            if delta < 0:
                break
        else:
            raise AssertionError(f"no descent direction at norm {n - len(steps)}")
        steps.append(letter)
        k, s = letter
        carets = len(pieces) - len(trees)  # of the bottom forest
        _fold(pieces, trees, (letter,))
        if s < 0 and len(pieces) - len(trees) == carets:
            # a dipole took the top caret at leaf p off, p being 0 or the
            # leaves of bottom tree 0, which the letter keeps, and the
            # leaves past p moved down by one.  A descent takes no leaf
            # split (delta +1), so this is the one top edit
            p = k and (len(trees[-1]) + 1) // 2
            if p < first:
                first -= 1
            if last > p:
                last -= 1
            elif p >= len(pieces) or "(" not in pieces[-1 - p]:
                last = _last_start(pieces, p)
    if list(pieces) != [""] or trees != ["L"]:
        raise AssertionError(f"{n} descent steps did not reach the identity")
    return tuple((k, -s) for k, s in reversed(steps))
