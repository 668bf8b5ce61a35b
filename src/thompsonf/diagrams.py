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
"Forest diagrams for elements of Thompson's group F", IJAC 2005).  One
private fold, _fold, makes that edit for each letter of a word and
carries the index of ``|`` and the number of bottom trees from letter
to letter; mul_letter is its one-letter call, from_word folds a word
from EPSILON, and the general product compose folds the normal form of
its right factor.  Whole trees with their commas spend two characters
per leaf, so the leaf a letter touches is found by string search in C,
not by a Python step per leaf.  A caret sits in preorder just before
its leftmost leaf, so the normal form is read off the runs of ``(``,
and from_normal_form writes the string directly.  No reader recurses,
so trees far deeper than the interpreter's recursion limit are
handled.  No diagram built here has more than MAX_LEAVES leaves: the
fold and from_normal_form raise LeafLimitError before they would write
a longer string, so a short word such as x10000000 cannot exhaust
memory.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, repeat
from typing import List, NamedTuple, Tuple

from .words import GenWord

# top and bottom forest codes joined by "|"; see the module docstring
Diagram = str

EPSILON: Diagram = "L|L"


class NormalForm(NamedTuple):
    pos: Tuple[int, ...]
    neg: Tuple[int, ...]


class NormalFormError(ValueError):
    """A sequence pair that is not a valid normal form."""


# the most leaves a diagram built here may have; x_k has k + 2 leaves
MAX_LEAVES = 2**21
# the length of a diagram string of MAX_LEAVES leaves (see leaf_count)
_LEAF_CAP_CHARS = 4 * MAX_LEAVES - 1
# the default element cap of the ball and sphere computations in cayley
DEFAULT_CAP = 10_000_000


class LimitError(RuntimeError):
    """A request would pass one of the library's resource caps.

    Each cap has its own subclass; the command line reports any of them
    with exit code 2.
    """


class LeafLimitError(LimitError):
    """A diagram would have more than MAX_LEAVES leaves."""

    def __init__(self) -> None:
        super().__init__(f"a diagram would have more than {MAX_LEAVES} leaves (memory)")


def leaf_count(d: Diagram) -> int:
    """The shared leaf count L of the two forests: a forest of L leaves
    spends 2L - 1 characters (see _top_leaf), so a diagram 4L - 1."""
    return (len(d) + 1) // 4


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


def _nth(d: str, c: str, n: int, start: int = 0) -> int:
    # index in d of the n-th c (counting from 0) at or after start: a
    # short walk for the first few, else one split in C, whose last
    # piece is all of d after the c sought
    if n < 4:
        j = d.index(c, start)
        for _ in range(n):
            j = d.index(c, j + 1)
        return j
    rest = d[start:] if start else d
    return len(d) - len(rest.split(c, n + 1)[-1]) - 1


def _top_leaf(d: Diagram, p: int) -> int:
    # index in d of leaf p of the top forest.  A tree of n leaves has
    # n - 1 carets, so whole trees with their commas spend two
    # characters per leaf: the tree holding leaf p starts at s, just
    # after the last "," before index 2p, with s // 2 leaves before it
    s = d.rfind(",", 0, 2 * p) + 1
    return _nth(d, "L", p - s // 2, s)


def _tree_end(d: str, q: int) -> int:
    # index just past the tree whose code starts at d[q]: each caret adds
    # a subtree to read, each leaf completes one.  With `pending` leaves
    # still to read and no caret among the next `pending` characters,
    # those are the leaves, so a step per caret run
    pending = 1
    while True:
        c = d.find("(", q, q + pending)
        if c < 0:
            return q + pending
        j = d.index("L", c)
        pending += (j - c) - (c - q)
        q = j


def _fold(d: Diagram, w: GenWord) -> Diagram:
    # d * w, one letter at a time: the letter edit that mul_letter
    # documents.  The index of "|" and the number of bottom trees are
    # carried from letter to letter.  A letter adds at most one leaf,
    # or pads, and the string's length gives its leaves (see leaf_count)
    bar = d.index("|")
    trees = d.count(",", bar) + 1
    for k, s in w:
        if k < 0:
            raise ValueError(f"generator subscript must be nonnegative, got {k}")
        if s != 1 and s != -1:
            raise ValueError(f"letter exponent must be 1 or -1, got {s}")
        # the bottom forest needs trees up to k for s = 1, up to k + 1 for s = -1
        missing = (k + 1 if s == 1 else k + 2) - trees
        if missing > 0:
            if len(d) + 4 * missing > _LEAF_CAP_CHARS:
                raise LeafLimitError()
            pad = ",L" * missing
            d = d[:bar] + pad + d[bar:] + pad
            bar += 2 * missing
            trees += missing
        i = bar + 1  # the start of bottom tree k
        if k == 1:
            i = d.index(",", i) + 1
        elif k:
            i = _nth(d, ",", k - 1, i) + 1
        # p, the leaves before tree k: whole trees with their commas
        # spend two characters per leaf (see _top_leaf)
        p = (i - bar - 1) // 2
        if s == 1:
            trees += 1
            if d[i] == "(":
                q = _tree_end(d, i + 1)  # the end of the root's left subtree
                d = d[:i] + d[i + 1:q] + "," + d[q:]
            else:
                if len(d) + 4 > _LEAF_CAP_CHARS:
                    raise LeafLimitError()
                j = _top_leaf(d, p)
                d = d[:j] + "(LL" + d[j + 1:i] + "L,L" + d[i + 1:]
                bar += 2
        else:
            trees -= 1
            # trees k and k + 1 are leaves when both codes start with "L"
            j = _top_leaf(d, p) if d[i] == "L" == d[i + 2] else 0
            if j and d[j - 1] == "(" and d[j + 1] == "L":
                # dipole: the top caret over leaves p, p+1 meets the new root
                # caret; the bottom side is a root, so no cascade
                d = d[:j - 1] + "L" + d[j + 2:i + 1] + d[i + 3:]
                bar -= 2
            else:
                c = d.index(",", i)
                d = d[:i] + "(" + d[i:c] + d[c + 1:]
        while d.endswith(",L") and d[bar - 2:bar] == ",L":
            d = d[:bar - 2] + d[bar:-2]
            bar -= 2
            trees -= 1
    return d


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
    leaves p, p+1, a dipole that cancels.  Missing bottom trees are
    padded as leaf trees on both sides first, and trailing leaf pairs
    are stripped last.  This is the one-letter call of the fold behind
    from_word and compose; it raises LeafLimitError if the product would
    have more than MAX_LEAVES leaves.
    """
    return _fold(d, ((k, s),))


def from_word(w: GenWord) -> Diagram:
    """The canonical diagram of the word w; () gives EPSILON.

    A word of normal-form shape, letters x_i with nondecreasing i and
    then letters x_j^-1 with nonincreasing j, whose (pos, neg) passes
    validate_normal_form, is built by from_normal_form in linear time.
    Any other word is folded from EPSILON with the letter edit of
    mul_letter, carrying the index of "|" and the bottom tree count
    from one letter to the next: a letter costs one copy of the string
    and searches in C, plus a Python step per caret run where it splits
    a bottom root caret.  Raises LeafLimitError if the diagram would
    have more than MAX_LEAVES leaves.
    """
    ks, signs = tuple(zip(*w)) or ((), ())
    p = signs.count(1)
    if signs == (1,) * p + (-1,) * (len(signs) - p):
        try:
            return from_normal_form(NormalForm(ks[:p], ks[p:][::-1]))
        except NormalFormError:
            pass  # a dipole or an unsorted run: fold
    return _fold(EPSILON, w)


def compose(d1: Diagram, d2: Diagram) -> Diagram:
    """Product d1 * d2 (d1 applied first) as a canonical diagram.

    Folds the letter edit of mul_letter over the normal form of d2, in
    one pass that carries its place in the string from letter to letter.
    """
    return _fold(d1, normal_form_word(to_normal_form(d2)))


def _caret_runs(f: str) -> List[Tuple[int, int]]:
    # (i, k) for each run of k carets whose leftmost leaf is leaf i, in
    # preorder: such carets sit together just before leaf i, and a run
    # of "(" always ends at a leaf
    runs = []
    leaves = j = 0
    c = f.find("(")
    while c >= 0:
        leaves += f.count("L", j, c)
        j = f.index("L", c)
        runs.append((leaves, j - c))
        c = f.find("(", j)
    return runs


def _caret_starts(f: str) -> Tuple[int, ...]:
    # per caret in preorder, the number of leaves left of its leftmost leaf
    return tuple(chain.from_iterable(repeat(i, k) for i, k in _caret_runs(f)))


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
    """The normal-form word of d, written as parse_word reads it.

    Equal to format_word(normal_form_word(to_normal_form(d))), but each
    run of carets starting at leaf i is written as one repeated token.
    """
    top, _, bottom = d.partition("|")
    pos = [f"x{i} " * k for i, k in _caret_runs(top)]
    neg = [f"x{i}^-1 " * k for i, k in _caret_runs(bottom)]
    return "".join(pos + neg[::-1])[:-1]


def validate_normal_form(nf: NormalForm) -> None:
    """Raise NormalFormError unless nf satisfies the uniqueness conditions."""
    pos, neg = nf
    for name, seq in (("pos", pos), ("neg", neg)):
        if seq:
            ordered = sorted(seq)  # one pass over a sorted run; its least entry first
            if ordered[0] < 0:
                raise NormalFormError(f"{name} contains a negative index: {seq}")
            if ordered != list(seq):
                raise NormalFormError(f"{name} is not nondecreasing: {seq}")
    if pos and neg:
        top, bottom = set(pos), set(neg)
        for i in top & bottom:
            if i + 1 not in top and i + 1 not in bottom:
                raise NormalFormError(
                    f"index {i} occurs on both sides but {i + 1} occurs on neither"
                )


def _forest(starts: Tuple[int, ...]) -> Tuple[str, int]:
    # the code of the forest whose carets start at the nondecreasing
    # leaf indices `starts`, over the fewest leaves, and that leaf count.
    # h counts leaves minus carets so far; each tree adds 1 to it, and a
    # proper prefix of a tree adds at most 0, so a tree ends exactly
    # where h reaches a new high.  One step, and one append, per run of
    # equal starts
    parts = []
    h = high = leaf = r = 0
    while r < len(starts):
        i = starts[r]
        k = bisect_right(starts, i, r) - r
        r += k
        # leaves leaf .. i-1 carry no caret and each lifts h by 1; those
        # that lift it above high each end a tree.  The run's k >= 1
        # carets and leaf i then add 1 - k <= 0, so leaf i ends none
        gap = i - leaf
        inner = high - h
        if gap > inner:
            # the one string here not bounded by len(starts); a caret
            # at leaf i needs leaves i and i + 1
            if i + 2 > MAX_LEAVES:
                raise LeafLimitError()
            h = high = h + gap
            parts.append("L" * inner + "L," * (gap - inner) + "(" * k + "L")
        else:
            h += gap
            parts.append("L" * gap + "(" * k + "L")
        h += 1 - k
        leaf = i + 1
    # past the last caret, each leaf adds 1 to h, and the last tree ends
    # at the first leaf that lifts h above high
    parts.append("L" * (high - h + 1))
    return "".join(parts), leaf + high - h + 1


def from_normal_form(nf: NormalForm) -> Diagram:
    """Build the canonical diagram of a valid normal form, in linear time.

    >>> from_normal_form(NormalForm((0, 0, 1), (0,)))
    '((L(LLL|(LL,L,L'
    """
    pos, neg = tuple(nf.pos), tuple(nf.neg)
    validate_normal_form((pos, neg))
    top, top_leaves = _forest(pos)
    bottom, bottom_leaves = _forest(neg)
    leaves = max(top_leaves, bottom_leaves)
    if leaves > MAX_LEAVES:
        raise LeafLimitError()
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
