"""The general product of tree-pair diagrams on nested tuples: the oracle
for diagrams.mul_letter.

A tree is a leaf, ``None``, or a caret ``(left, right)``; a forest is a
tuple of trees and a diagram a (top, bottom) pair of forests.  compose
glues the bottom forest of the left factor to the top forest of the
right factor along their least common refinement, then cancels dipoles
and strips trailing leaf pairs.  It shares no code with diagrams: only
the string encoding is common, through to_tuples and from_tuples.  The
helpers recurse, so keep the diagrams shallower than the interpreter's
recursion limit.
"""

from typing import Iterator

EPSILON = ((None,), (None,))


def atomic(k):
    return ((None,) * k + ((None, None),), (None,) * (k + 2))


def letter(k, s):
    top, bottom = atomic(k)
    return (top, bottom) if s == 1 else (bottom, top)


def _lcr(a, b):
    # least common refinement of two trees
    if a is None:
        return b
    if b is None:
        return a
    return (_lcr(a[0], b[0]), _lcr(a[1], b[1]))


def _expansions(t, refined, out):
    # per leaf of t, the subtree of the refinement it expanded to
    if t is None:
        out.append(refined)
    else:
        _expansions(t[0], refined[0], out)
        _expansions(t[1], refined[1], out)


def _graft(t, it: Iterator):
    if t is None:
        return next(it)
    return (_graft(t[0], it), _graft(t[1], it))


def _exposed(t, base, out):
    # leaf count of t; adds to out the first leaf of every caret of t
    # whose children are both leaves
    if t is None:
        return 1
    if t == (None, None):
        out.add(base)
        return 2
    left = _exposed(t[0], base, out)
    return left + _exposed(t[1], base + left, out)


def _exposed_forest(f):
    out = set()
    base = 0
    for t in f:
        base += _exposed(t, base, out)
    return out


def _cancel(t, base, positions):
    # t with each exposed caret starting at a marked position made a
    # leaf, and the leaf count of the input t
    if t is None:
        return t, 1
    if t == (None, None):
        return (None if base in positions else t), 2
    left, n = _cancel(t[0], base, positions)
    right, m = _cancel(t[1], base + n, positions)
    return (left, right), n + m


def _cancel_forest(f, positions):
    out = []
    base = 0
    for t in f:
        new, n = _cancel(t, base, positions)
        out.append(new)
        base += n
    return tuple(out)


def _canonicalize(top, bottom):
    while True:
        positions = _exposed_forest(top) & _exposed_forest(bottom)
        if not positions:
            break
        top = _cancel_forest(top, positions)
        bottom = _cancel_forest(bottom, positions)
    while len(top) > 1 and len(bottom) > 1 and top[-1] is None and bottom[-1] is None:
        top = top[:-1]
        bottom = bottom[:-1]
    return top, bottom


def compose(d1, d2):
    """Product d1 * d2 (d1 applied first) as a canonical tuple diagram."""
    top1, bot1 = d1
    top2, bot2 = d2
    if len(bot1) < len(top2):
        pad = (None,) * (len(top2) - len(bot1))
        top1 += pad
        bot1 += pad
    elif len(top2) < len(bot1):
        pad = (None,) * (len(bot1) - len(top2))
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


def _tree_code(t):
    if t is None:
        return "L"
    return "(" + _tree_code(t[0]) + _tree_code(t[1])


def from_tuples(d):
    """The string encoding of a tuple diagram."""
    return "|".join(",".join(_tree_code(t) for t in f) for f in d)


def _parse_tree(it):
    if next(it) == "L":
        return None
    left = _parse_tree(it)
    return (left, _parse_tree(it))


def to_tuples(s):
    """The tuple diagram of a string encoding."""
    return tuple(
        tuple(_parse_tree(iter(code)) for code in forest.split(","))
        for forest in s.split("|")
    )
