"""Canonical diagrams for Thompson's group F, encoded as one flat string.

An element of F is represented by a pair of binary rooted forests with
the same total number of leaves.  Each tree is written as its preorder
code, ``(`` for a caret and ``L`` for a leaf; the trees of a forest are
joined by ``,`` and the top and bottom forests by ``|``.  The pair is
kept *reduced* (no dipole: no position k at which both forests expose a
caret over leaves k, k+1) and *canonical* (the two forests do not both
end in a bare leaf tree, the identity EPSILON being the one exception).
Under these constraints the string of a group element is unique, so
string equality decides the word problem, and a diagram is its own
hash key: CPython caches a string's hash, and equality is a flat
compare, whatever the depth of the trees.

>>> EPSILON
'L|L'
>>> atomic(0)
'(LL|L,L'
>>> invert(atomic(0))
'L,L|(LL'

Right multiplication by a generator letter, the step of every Cayley
graph walk, is a local edit of the string (mul_letter): it adds or
removes one caret and cancels at most one dipole (J. Belk and K. Brown,
"Forest diagrams for elements of Thompson's group F", IJAC 2005).  The
general product compose folds mul_letter over the normal form of its
right factor.  A caret sits in preorder just before its leftmost leaf,
so the normal form is read off by splitting the comma-free code at each
``L``, and from_normal_form writes the string directly.  No reader
recurses, so trees far deeper than the interpreter's recursion limit
are handled.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from .words import GenWord, format_word

# top and bottom forest codes joined by "|"; see the module docstring
Diagram = str

EPSILON: Diagram = "L|L"


class NormalForm(NamedTuple):
    pos: Tuple[int, ...]
    neg: Tuple[int, ...]


class NormalFormError(ValueError):
    """A sequence pair that is not a valid normal form."""


def leaf_count(d: Diagram) -> int:
    """The shared leaf count L of the two forests."""
    return d.count("L") // 2


def cell_count(d: Diagram) -> int:
    """Total number of carets over both forests."""
    return d.count("(")


def atomic(i: int) -> Diagram:
    """The canonical diagram of the generator x_i: one caret over i leaves.

    >>> atomic(1)
    'L,(LL|L,L,L'
    """
    if i < 0:
        raise ValueError(f"generator subscript must be nonnegative, got {i}")
    return "L," * i + "(LL|" + "L," * (i + 1) + "L"


def invert(d: Diagram) -> Diagram:
    """Mirror image: swaps the forests, inverts the element."""
    top, _, bottom = d.partition("|")
    return bottom + "|" + top


GENERATOR_LETTERS: Tuple[Tuple[int, int], ...] = ((0, 1), (0, -1), (1, 1), (1, -1))


def _leaf(d: Diagram, p: int) -> int:
    # index in d of leaf p of the top forest
    j = d.index("L")
    for _ in range(p):
        j = d.index("L", j + 1)
    return j


def mul_letter(d: Diagram, k: int, s: int) -> Diagram:
    """Product d * x_k^s (s = 1 or -1) as a canonical diagram.

    Equal to compose(d, atomic(k)) or compose(d, invert(atomic(k))), but
    computed as a local edit of the string: exactly one caret is added
    to or removed from one of the two forests.  Let i be the start of
    bottom tree k and p the number of leaves before it.  For s = 1, a
    caret at i loses its root (a ``,`` goes where its left subtree
    ends); a leaf at i becomes two leaf trees, and leaf p of the top
    forest a caret.  For s = -1, trees k and k+1 are joined under a new
    root, unless both are leaves and the top forest has a caret over
    leaves p, p+1, a dipole that cancels.
    """
    if k < 0:
        raise ValueError(f"generator subscript must be nonnegative, got {k}")
    if s != 1 and s != -1:
        raise ValueError(f"letter exponent must be 1 or -1, got {s}")
    bar = d.index("|")
    # the bottom forest needs trees up to k for s = 1, up to k + 1 for s = -1
    missing = (k + 1 if s == 1 else k + 2) - (d.count(",", bar) + 1)
    if missing > 0:
        pad = ",L" * missing
        d = d[:bar] + pad + d[bar:] + pad
        bar += 2 * missing
    i = bar + 1
    for _ in range(k):
        i = d.index(",", i) + 1
    if s == 1:
        if d[i] == "(":
            # read the left subtree of the root caret: each caret adds a
            # subtree to read, each leaf completes one
            q = i + 1
            pending = 1
            while pending:
                j = d.index("L", q)
                pending += j - q - 1
                q = j + 1
            d = d[:i] + d[i + 1:q] + "," + d[q:]
        else:
            j = _leaf(d, d.count("L", bar, i))
            d = d[:j] + "(LL" + d[j + 1:i] + "L,L" + d[i + 1:]
            bar += 2
    else:
        c = d.index(",", i)
        j = 0
        if c == i + 1 and d[i] == "L" and d[i + 2] == "L" and d[i + 3:i + 4] in ("", ","):
            j = _leaf(d, d.count("L", bar, i))
        if j and d[j - 1] == "(" and d[j + 1] == "L":
            # dipole: the top caret over leaves p, p+1 meets the new root
            # caret; the bottom side is a root, so no cascade
            d = d[:j - 1] + "L" + d[j + 2:i + 1] + d[i + 3:]
            bar -= 2
        else:
            d = d[:i] + "(" + d[i:c] + d[c + 1:]
    while d.endswith(",L") and d[bar - 2:bar] == ",L":
        d = d[:bar - 2] + d[bar:-2]
        bar -= 2
    return d


def from_word(w: GenWord) -> Diagram:
    """Fold the letters of w into a canonical diagram; () gives EPSILON."""
    d = EPSILON
    for k, s in w:
        d = mul_letter(d, k, s)
    return d


def compose(d1: Diagram, d2: Diagram) -> Diagram:
    """Product d1 * d2 (d1 applied first) as a canonical diagram."""
    for k, s in normal_form_word(to_normal_form(d2)):
        d1 = mul_letter(d1, k, s)
    return d1


def _caret_starts(f: str) -> Tuple[int, ...]:
    # per caret in preorder, the number of leaves left of its leftmost
    # leaf; a caret sits just before that leaf in the comma-free code
    return tuple(i for i, run in enumerate(f.replace(",", "").split("L")) for _ in run)


def to_normal_form(d: Diagram) -> NormalForm:
    """Read the normal form off a canonical diagram.

    pos lists the caret indices of the top forest, neg those of the
    bottom forest, both nondecreasing; the element is
    x_{pos[0]} ... x_{pos[-1]} x_{neg[-1]}^-1 ... x_{neg[0]}^-1.
    """
    top, _, bottom = d.partition("|")
    return NormalForm(_caret_starts(top), _caret_starts(bottom))


def normal_form_word(nf: NormalForm) -> GenWord:
    """The word spelled by a normal form."""
    return tuple((i, 1) for i in nf.pos) + tuple((j, -1) for j in reversed(nf.neg))


def normal_form_text(d: Diagram) -> str:
    """The normal-form word of d, written as parse_word reads it."""
    return format_word(normal_form_word(to_normal_form(d)))


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


def _forest(starts: Tuple[int, ...]) -> Tuple[str, int]:
    # the code of the forest whose carets start at the nondecreasing
    # leaf indices `starts`, over the fewest leaves, and that leaf count.
    # h counts leaves minus carets so far; each tree adds 1 to it, and a
    # proper prefix of a tree adds at most 0, so a tree ends exactly
    # where h reaches a new high
    if not starts:
        return "L", 1
    runs = [0] * (starts[-1] + 1)
    for i in starts:
        runs[i] += 1
    parts = []
    h = high = 0
    for run in runs:
        parts.append("(" * run + "L")
        h += 1 - run
        if h > high:
            high = h
            parts.append(",")
    # past the last caret, each leaf adds 1 to h, and the last tree ends
    # at the first leaf that lifts h above high
    parts.append("L" * (high - h + 1))
    return "".join(parts), len(runs) + high - h + 1


def from_normal_form(nf: NormalForm) -> Diagram:
    """Build the canonical diagram of a valid normal form, in linear time.

    >>> from_normal_form(NormalForm((0, 0, 1), (0,)))
    '((L(LLL|(LL,L,L'
    """
    nf = NormalForm(tuple(nf.pos), tuple(nf.neg))
    validate_normal_form(nf)
    top, top_leaves = _forest(nf.pos)
    bottom, bottom_leaves = _forest(nf.neg)
    leaves = max(top_leaves, bottom_leaves)
    return top + ",L" * (leaves - top_leaves) + "|" + bottom + ",L" * (leaves - bottom_leaves)


def canonical_key(d: Diagram) -> str:
    """Injective serialization: trees as L / (..), forests concatenated,
    the two forests separated by '|'.  Equal keys iff equal elements.

    >>> canonical_key(atomic(1))
    'L(LL)|LLL'
    """
    # per open caret, the children it still waits for; a leaf completes
    # its parent when it is the right child, and so on up
    parts = []
    waiting = []
    for c in d:
        if c == "L":
            parts.append("L")
            while waiting:
                if waiting[-1] == 2:
                    waiting[-1] = 1
                    break
                waiting.pop()
                parts.append(")")
        elif c == "(":
            parts.append("(")
            waiting.append(2)
        elif c == "|":
            parts.append("|")
    return "".join(parts)
