"""Canonical diagrams for Thompson's group F, encoded as forest pairs.

An element of F is represented by a pair of binary rooted forests with
the same total number of leaves.  A tree is either a leaf, encoded as
``None``, or a caret ``(left, right)``; a forest is a nonempty tuple of
trees.  The pair (top, bottom) is kept *reduced* (no dipole: no position
k at which both forests expose a caret over leaves k, k+1) and
*canonical* (the two forests do not both end in a bare leaf tree, the
identity diagram EPSILON being the one exception).  Under these
constraints the representation of a group element is unique, so
structural equality decides the word problem.

Multiplication glues the bottom forest of the left factor to the top
forest of the right factor along their least common refinement, then
cancels dipoles and strips trailing leaf pairs.  Right multiplication by
a single generator letter, the step of every Cayley-graph walk, is a
local edit instead (mul_letter): it adds or removes one caret and
cancels at most one dipole.

The readers of forest structure are iterative, so trees far deeper than
the interpreter's recursion limit (x0^1000 builds one of depth 1000) are
read without error.  _spans lists the leaf span of every node in
preorder, and metric reads the norm from it; to_normal_form and
cell_count use a leaner caret-start loop, and canonical_key its own
encoder.  Only compose's helpers recurse: compose is the general product
and the test oracle for mul_letter.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Tuple

from .words import GenWord

Tree = Optional[tuple]  # None is a leaf, (left, right) is a caret
Forest = Tuple[Tree, ...]

LEAF: Tree = None
CARET: Tree = (None, None)


class Diagram(NamedTuple):
    top: Forest
    bottom: Forest


EPSILON = Diagram((LEAF,), (LEAF,))


class NormalForm(NamedTuple):
    pos: Tuple[int, ...]
    neg: Tuple[int, ...]


class NormalFormError(ValueError):
    """A sequence pair that is not a valid normal form."""


def _spans(f: Forest) -> list:
    # (first leaf, one past the last leaf) of every node of f, leaves
    # included, in preorder with the trees left to right.  A caret's entry
    # holds its first leaf until the int marker pushed under its right
    # child comes back off the stack; the marker is the entry's index.
    out: list = []
    n = 0
    stack = list(reversed(f))
    while stack:
        t = stack.pop()
        if t.__class__ is int:
            out[t] = (out[t], n)
            continue
        while t is not None:
            stack.append(len(out))
            stack.append(t[1])
            out.append(n)
            t = t[0]
        out.append((n, n + 1))
        n += 1
    return out


def leaf_count(d: Diagram) -> int:
    """The shared leaf count L of the two forests."""
    return _leaves(d.top)


def cell_count(d: Diagram) -> int:
    """Total number of carets over both forests."""
    return len(_caret_starts(d.top)) + len(_caret_starts(d.bottom))


def atomic(i: int) -> Diagram:
    """The canonical diagram of the generator x_i: one caret over i leaves."""
    if i < 0:
        raise ValueError(f"generator subscript must be nonnegative, got {i}")
    return Diagram((LEAF,) * i + (CARET,), (LEAF,) * (i + 2))


def invert(d: Diagram) -> Diagram:
    """Mirror image: swaps the forests, inverts the element."""
    return Diagram(d.bottom, d.top)


def _lcr(a: Tree, b: Tree) -> Tree:
    # least common refinement of two trees
    if a is None:
        return b
    if b is None:
        return a
    return (_lcr(a[0], b[0]), _lcr(a[1], b[1]))


def _expansions(t: Tree, refined: Tree, out: list) -> None:
    # per leaf of t, the subtree of the refinement it expanded to
    if t is None:
        out.append(refined)
    else:
        _expansions(t[0], refined[0], out)
        _expansions(t[1], refined[1], out)


def _graft(t: Tree, it: Iterator[Tree]) -> Tree:
    if t is None:
        return next(it)
    left = _graft(t[0], it)
    right = _graft(t[1], it)
    if left is t[0] and right is t[1]:
        return t
    return (left, right)


def _exposed(f: Forest) -> set:
    # leaf positions k such that a caret (None, None) spans leaves k, k+1;
    # only such a caret spans exactly two leaves
    return {a for a, b in _spans(f) if b - a == 2}


def _cancel(f: Forest, positions: set) -> Forest:
    # replace each exposed caret starting at a marked position by a leaf;
    # positions refer to the leaf numbering of the input forest
    def walk(t: Tree, base: int) -> tuple:
        if t is None:
            return t, 1
        l, r = t
        if l is None and r is None:
            return (None, 2) if base in positions else (t, 2)
        nl, cl = walk(l, base)
        nr, cr = walk(r, base + cl)
        if nl is l and nr is r:
            return t, cl + cr
        return (nl, nr), cl + cr

    out = []
    base = 0
    for t in f:
        nt, c = walk(t, base)
        out.append(nt)
        base += c
    return tuple(out)


def _canonicalize(top: Forest, bottom: Forest) -> Diagram:
    while True:
        positions = _exposed(top) & _exposed(bottom)
        if not positions:
            break
        top = _cancel(top, positions)
        bottom = _cancel(bottom, positions)
    while (
        len(top) > 1
        and len(bottom) > 1
        and top[-1] is None
        and bottom[-1] is None
    ):
        top = top[:-1]
        bottom = bottom[:-1]
    return Diagram(top, bottom)


def compose(d1: Diagram, d2: Diagram) -> Diagram:
    """Product d1 * d2 (d1 applied first) as a canonical diagram."""
    top1, bot1 = d1
    top2, bot2 = d2
    if len(bot1) < len(top2):
        pad = (LEAF,) * (len(top2) - len(bot1))
        top1 += pad
        bot1 += pad
    elif len(top2) < len(bot1):
        pad = (LEAF,) * (len(bot1) - len(top2))
        top2 += pad
        bot2 += pad
    refinement = tuple(_lcr(b, t) for b, t in zip(bot1, top2))
    exp1: list = []
    exp2: list = []
    for b, w in zip(bot1, refinement):
        _expansions(b, w, exp1)
    for t, w in zip(top2, refinement):
        _expansions(t, w, exp2)
    it1 = iter(exp1)
    it2 = iter(exp2)
    top = tuple(_graft(t, it1) for t in top1)
    bottom = tuple(_graft(t, it2) for t in bot2)
    return _canonicalize(top, bottom)


GENERATOR_LETTERS: Tuple[Tuple[int, int], ...] = ((0, 1), (0, -1), (1, 1), (1, -1))


def _leaves(trees) -> int:
    # leaf count of a sequence of trees, without recursion
    n = 0
    stack = list(trees)
    while stack:
        t = stack.pop()
        if t is None:
            n += 1
        else:
            stack.extend(t)
    return n


def _find_leaf(f: Forest, p: int) -> Tuple[int, list, list]:
    # index of the tree of f holding leaf p, and the carets on the way down
    # to that leaf with the side taken at each (0 left, 1 right); visits
    # only the nodes left of the leaf and the path itself
    for i, node in enumerate(f):
        carets: list = []
        sides: list = []
        while True:
            while node is not None:
                carets.append(node)
                sides.append(0)
                node = node[0]
            if p == 0:
                return i, carets, sides
            p -= 1
            while sides and sides[-1]:
                carets.pop()
                sides.pop()
            if not sides:
                break
            sides[-1] = 1
            node = carets[-1][1]
    raise IndexError("leaf position beyond the forest")


def _replace_at(f: Forest, i: int, carets: list, sides: list, new: Tree) -> Forest:
    # f with the node at the end of the path (tree i, carets, sides) set to new
    for caret, side in zip(reversed(carets), reversed(sides)):
        new = (caret[0], new) if side else (new, caret[1])
    return f[:i] + (new,) + f[i + 1:]


def mul_letter(d: Diagram, k: int, s: int) -> Diagram:
    """Product d * x_k^s (s = 1 or -1) as a canonical diagram.

    Equal to compose(d, atomic(k)) or compose(d, invert(atomic(k))), but
    computed as a local edit: exactly one caret is added to or removed
    from one of the two forests.  The cost is one walk to leaf
    p = leaves of bottom[:k], O(p + depth), where compose walks both
    whole forests.
    """
    if k < 0:
        raise ValueError(f"generator subscript must be nonnegative, got {k}")
    if s not in (1, -1):
        raise ValueError(f"letter exponent must be 1 or -1, got {s}")
    top, bottom = d
    need = k + 1 if s == 1 else k + 2
    if len(bottom) < need:
        pad = (LEAF,) * (need - len(bottom))
        top += pad
        bottom += pad
    if s == 1:
        t = bottom[k]
        if t is not None:
            # the caret of x_k matches the root caret of bottom[k]
            bottom = bottom[:k] + t + bottom[k + 1:]
        else:
            i, carets, sides = _find_leaf(top, _leaves(bottom[:k]))
            top = _replace_at(top, i, carets, sides, CARET)
            bottom = bottom[:k] + (LEAF, LEAF) + bottom[k + 1:]
    else:
        left, right = bottom[k], bottom[k + 1]
        merged: Tree = (left, right)
        if left is None and right is None:
            i, carets, sides = _find_leaf(top, _leaves(bottom[:k]))
            if sides and not sides[-1] and carets[-1][1] is None:
                # dipole: the top caret over leaves p, p+1 meets the new
                # root caret; the bottom side is a root, so no cascade
                top = _replace_at(top, i, carets[:-1], sides[:-1], LEAF)
                merged = LEAF
        bottom = bottom[:k] + (merged,) + bottom[k + 2:]
    while len(top) > 1 and len(bottom) > 1 and top[-1] is None and bottom[-1] is None:
        top = top[:-1]
        bottom = bottom[:-1]
    return Diagram(top, bottom)


def from_word(w: GenWord) -> Diagram:
    """Fold the letters of w into a canonical diagram; () gives EPSILON."""
    d = EPSILON
    for k, s in w:
        d = mul_letter(d, k, s)
    return d


def _caret_starts(f: Forest) -> list:
    # preorder per tree, left to right; a caret's index is the number of
    # leaves of the whole forest strictly left of its leftmost leaf
    out: list = []
    n = 0
    stack = list(reversed(f))
    while stack:
        t = stack.pop()
        while t is not None:
            out.append(n)
            stack.append(t[1])
            t = t[0]
        n += 1
    return out


def to_normal_form(d: Diagram) -> NormalForm:
    """Read the normal form off a canonical diagram.

    pos lists the caret indices of the top forest, neg those of the
    bottom forest, both nondecreasing; the element is
    x_{pos[0]} ... x_{pos[-1]} x_{neg[-1]}^-1 ... x_{neg[0]}^-1.
    """
    return NormalForm(tuple(_caret_starts(d.top)), tuple(_caret_starts(d.bottom)))


def normal_form_word(nf: NormalForm) -> GenWord:
    """The word spelled by a normal form."""
    return tuple((i, 1) for i in nf.pos) + tuple((j, -1) for j in reversed(nf.neg))


def validate_normal_form(nf: NormalForm) -> None:
    """Raise NormalFormError unless nf satisfies the uniqueness conditions."""
    pos, neg = nf
    for name, seq in (("pos", pos), ("neg", neg)):
        if any(i < 0 for i in seq):
            raise NormalFormError(f"{name} contains a negative index: {seq}")
        if any(b < a for a, b in zip(seq, seq[1:])):
            raise NormalFormError(f"{name} is not nondecreasing: {seq}")
    union = set(pos) | set(neg)
    for i in set(pos) & set(neg):
        if i + 1 not in union:
            raise NormalFormError(
                f"index {i} occurs on both sides but {i + 1} occurs on neither"
            )
    # implied by the condition above, kept as an explicit guard
    if pos and neg and pos[-1] == neg[-1]:
        raise NormalFormError(f"equal final indices {pos[-1]} on both sides")


def from_normal_form(nf: NormalForm) -> Diagram:
    """Build the canonical diagram of a valid normal form."""
    nf = NormalForm(tuple(nf.pos), tuple(nf.neg))
    validate_normal_form(nf)
    return from_word(normal_form_word(nf))


def canonical_key(d: Diagram) -> str:
    """Injective serialization: trees as L / (..), forests concatenated,
    the two forests separated by '|'.  Equal keys iff equal elements."""
    # left spines are walked inline; a caret pushes its ')' under its
    # right subtree, and '|' sits between the two forests on the stack
    close = ")"
    bar = "|"
    parts = []
    stack = [*reversed(d.bottom), bar, *reversed(d.top)]
    while stack:
        t = stack.pop()
        if t is close or t is bar:
            parts.append(t)
            continue
        while t is not None:
            parts.append("(")
            stack.append(close)
            stack.append(t[1])
            t = t[0]
        parts.append("L")
    return "".join(parts)
