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

Norm deltas.  A letter changes the norm by exactly 1, and the sign is
read off a window of d, without building the product (_norm_deltas).
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
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub
from typing import Iterator, List, Set, Tuple

from .diagrams import (
    EPSILON, GENERATOR_LETTERS, Diagram, LimitError, _tree_end, leaf_count, mul_letter,
)
from .words import GenWord

# greedy_descent takes norm(d) steps, each copying and reading a string
# about as long as d, so its work is about norm(d) * len(d); geodesic
# x8000 (5.1e8) takes about 2 s.  Past this bound it refuses.
MAX_DESCENT_WORK = 2**30


class DescentLimitError(LimitError):
    """greedy_descent would do more than MAX_DESCENT_WORK (norm x length)."""

    def __init__(self, length: int) -> None:
        super().__init__(
            f"a greedy descent on a diagram of {length} characters would pass "
            f"the work cap of {MAX_DESCENT_WORK} (norm x length; time)"
        )


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
    return norm_and_special(d)[0]


def norm_and_special(d: Diagram) -> Tuple[int, Set[int]]:
    """norm(d) and special_vertices(d) from one read of the diagram."""
    cells, _, special = _read(d)
    return cells + 2 * len(special), special


def _last_start(f: str) -> int:
    # the leftmost leaf of the last caret in preorder, the forest's
    # rightmost caret start; -1 without carets
    c = f.rfind("(")
    return f.count("L", 0, c) if c >= 0 else -1


class _TopLeaves:
    # the top forest for _norm_deltas, split only as far as a read
    # reaches; piece(v) is what precedes leaf v as in _read, "," past it
    def __init__(self, top: str, bottom: str, leaves: int):
        self.top, self.bottom, self.leaves = top, bottom, leaves
        self.pieces: List[str] = []

    def piece(self, v: int) -> str:
        if len(self.pieces) <= v < self.leaves:
            self.pieces = ("," + self.top).split("L", v + 1)[:-1]
        return self.pieces[v] if v < self.leaves else ","

    def near(self, v: int) -> bool:
        # {0, v} is a top arc: as in _read, the count of leaves minus
        # carets and commas reaches a new high at leaf v - 1.  It is 1
        # after each whole tree, so only the first tree's left spine sets
        # new highs.  h[i] is that count at leaf i, less 2, computed in C
        if v > self.top.partition(",")[0].count("L"):
            return False
        self.piece(v - 1)
        h = list(map(sub, range(v), accumulate(map(len, self.pieces[:v]))))
        last = h.pop()
        return not h or last > max(h)

    def bridge(self, v: int) -> bool:
        # top leaf v is a tree, a caret of either forest starts right of
        # it, and v is not near vertex 0 in the top forest
        return (
            max(_last_start(self.top), _last_start(self.bottom)) > v
            and self.piece(v) == ","
            and not self.near(v)
        )

    def special(self, v: int, start: bool, whole: bool) -> bool:
        # vertex v is active and not near in the top forest, where `start`
        # says a bottom caret starts at v and `whole` that bottom leaf v
        # is a tree; the bottom spine is the caller's part
        if start or self.piece(v)[-1:] == "(":
            return not self.near(v)
        return whole and self.bridge(v)


def _norm_deltas(d: Diagram) -> Iterator[int]:
    # norm(mul_letter(d, k, s)) - norm(d) for each letter of
    # GENERATOR_LETTERS in turn, read off the window of the module
    # docstring; lazily, so a caller can stop at the first it needs
    top, _, bottom = d.partition("|")
    # bottom trees 0, 1 and 2; a missing tree is a padded leaf
    trees = bottom.split(",", 3)
    t0, t1, t2 = trees[:3] + ["L"] * (3 - len(trees))
    s0 = t0.count("L")
    w = s0 + t1.count("L")  # where bottom tree 2 starts
    # the leaf count, or past w, where reads stop, when more trees follow
    leaves = (s0, w, w + t2.count("L"), w + 1)[len(trees) - 1]
    window = _TopLeaves(top, bottom, leaves)
    # x0: a leaf split is +1; a root removal takes s0 off the bottom spine
    if t0 == "L":
        yield 1
    else:
        yield 2 * window.special(s0, t1[0] == "(", t1 == "L") - 1
    # x0^-1: a dipole at leaf 0 is -1; a join puts w on the bottom spine
    if t0 == t1 == "L" and window.piece(1) == "" and window.piece(0)[-1] == "(":
        yield -1
    else:
        yield 1 - 2 * window.special(w, t2[0] == "(", t2 == "L")
    # x1: a leaf split is +1; a root removal over a leaf right subtree
    # makes bottom leaf s0 + a a tree, a the left subtree's leaf count
    if t1 == "L":
        yield 1
    else:
        q = _tree_end(t1, 1)
        yield 2 * (t1[q:] == "L" and window.bridge(s0 + t1.count("L", 1, q))) - 1
    # x1^-1: a dipole at leaf s0 is -1; a join over a leaf tree 2 makes
    # bottom leaf w part of a tree
    if t1 == t2 == "L" and window.piece(w) == "" and window.piece(s0)[-1:] == "(":
        yield -1
    else:
        yield 1 - 2 * (t2 == "L" and window.bridge(w))


def is_dead(d: Diagram) -> bool:
    """True when right multiplication by every generator letter lowers the norm.

    That is, all four norm deltas are -1, the same predicate the
    descent steps by.  The identity is rejected: it has no descent
    directions at all.
    """
    if d == EPSILON:
        raise ValueError("the identity diagram is not in the domain of is_dead")
    return all(delta < 0 for delta in _norm_deltas(d))


def greedy_descent(d: Diagram) -> GenWord:
    """A word for d found by always stepping to a lower-norm neighbour.

    The norm is read once.  Each step reads the norm deltas of the
    current diagram in GENERATOR_LETTERS order, takes the first letter
    whose delta is -1, and multiplies once.  A descent direction always
    exists: the last letter of any minimal word provides one.  The
    letter that undoes the previous step has delta +1, so it is never
    taken.  The descent certifies itself: it must reach EPSILON in exactly
    norm(d) steps, so the word it returns is geodesic even if a delta
    were wrong; otherwise it raises AssertionError.  Before the first
    step it raises DescentLimitError when norm(d) * len(d) passes
    MAX_DESCENT_WORK.
    """
    # leaves <= 2 norm + 4: a leaf is in a tree with carets, at most two
    # leaves per caret, or bare in both forests, and a bare leaf is special
    # unless it is vertex 0, the end of a first tree or the one trailing
    # leaf past the last caret.  So a diagram with far too many leaves is
    # refused before the norm read, which takes 1 s on x2097150
    if (leaf_count(d) - 4) // 2 * len(d) > MAX_DESCENT_WORK:
        raise DescentLimitError(len(d))
    n = norm(d)
    if n * len(d) > MAX_DESCENT_WORK:
        raise DescentLimitError(len(d))
    steps = []
    for _ in range(n):
        for letter, delta in zip(GENERATOR_LETTERS, _norm_deltas(d)):
            if delta < 0:
                break
        else:
            raise AssertionError(f"no descent direction at norm {n - len(steps)}")
        steps.append(letter)
        d = mul_letter(d, *letter)
    if d != EPSILON:
        raise AssertionError(f"{n} descent steps did not reach the identity")
    return tuple((k, -s) for k, s in reversed(steps))
