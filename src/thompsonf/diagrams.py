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
graph walk, is a local edit (mul_letter): it adds or removes one caret
in the first bottom trees or at one top leaf, and cancels at most one
dipole (J. Belk and K. Brown, "Forest diagrams for elements of
Thompson's group F", IJAC 2005).  One private fold, _fold, makes that
edit for each letter of a word on its state: the bottom tree codes in a
list, tree 0 last, and the top forest as its leaf pieces in a deque,
leaf 0 last.  Piece v is what precedes leaf v in the top code (the
carets whose leftmost leaf is v, after a "," if leaf v > 0 starts a
tree), so top leaf p is pieces[-1 - p]: a leaf split or a dipole edits
a piece or two near that end, and padding and stripping work at the
other.  from_word, compose and metric.greedy_descent fold on this
state.  A word of one letter, in mul_letter and _times, is the one
deliberate second shape of the edit: the fold splices the top forest
code itself, where whole trees with their commas spend two characters
per leaf, so leaf p is found by counting in C.  Building the pieces
for one edit costs more than it saves: a one-letter product through
them ran at 0.71x the splice's speed on the vertices of Gamma_{6,4} and
at 0.46x on 300-letter elements (2-vCPU VM, Python 3.11, in-process),
and in a prototype the pipeline benchmark ran 3-5% slower with
subgraph's one-letter suffix folds on pieces.

A caret sits in preorder just before its leftmost leaf, so the normal
form is read off the runs of ``(``, and from_normal_form writes the
string directly.  No reader recurses, so trees far deeper than the
interpreter's recursion limit are handled.  No diagram built here has
more than MAX_LEAVES leaves: the fold and from_normal_form raise
LeafLimitError before they would write a longer string, so a short
word such as x10000000 cannot exhaust memory.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from itertools import chain, repeat
from typing import Deque, List, NamedTuple, Tuple

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


def _top_leaf(top: str, p: int) -> int:
    # index of leaf p in the top forest code.  Whole trees with their
    # commas spend two characters per leaf, so the tree holding leaf p
    # starts at s, after the last "," before index 2p.  Each step counts
    # the leaves in the next `missing` characters, which cannot pass the
    # leaf sought; a window of carets only skips to the next leaf
    s = top.rfind(",", 0, 2 * p) + 1
    missing = p - s // 2 + 1
    while missing:
        found = top.count("L", s, s + missing)
        if found:
            s += missing
            missing -= found
        else:
            s = top.index("L", s) + 1
            missing -= 1
    return s - 1


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


def _unpack(d: Diagram) -> Tuple[Deque[str], List[str]]:
    # the fold's state of d: the top leaf pieces and the bottom tree
    # codes, leaf 0 and tree 0 last (see _fold)
    top, _, bottom = d.partition("|")
    trees = bottom.split(",")
    trees.reverse()
    return deque(top.split("L")[-2::-1]), trees


def _fold(top: str | Deque[str], trees: List[str], w: GenWord) -> str | Deque[str]:
    # the state times w by the letter edit of mul_letter, in place on the
    # bottom trees.  top is the deque of top leaf pieces, edited in place
    # (leaf p is top[-1 - p]), or for one letter the top forest code,
    # spliced (see the module docstring); returns it
    code = type(top) is str
    for k, s in w:
        if k < 0:
            raise ValueError(f"generator subscript must be nonnegative, got {k}")
        if s != 1 and s != -1:
            raise ValueError(f"letter exponent must be 1 or -1, got {s}")
        # the bottom forest needs trees up to k for s = 1, up to k + 1 for s = -1
        missing = (k + 1 if s == 1 else k + 2) - len(trees)
        if missing > 0:
            if ((len(top) + 1) // 2 if code else len(top)) + missing > MAX_LEAVES:
                raise LeafLimitError()
            if code:
                top += ",L" * missing
            else:
                top.extendleft("," * missing)  # one "," piece per character
            trees[:0] = ["L"] * missing
        i = len(trees) - 1 - k  # bottom tree k, tree k + 1 at i - 1
        t = trees[i]
        if t == "L":
            # p, the leaves before tree k: trees 0 .. k-1 joined spend 2p - k
            p = k and (len("".join(trees[i + 1:])) + k) // 2
        if s == 1:
            if t[0] == "(":
                q = _tree_end(t, 1)  # the end of the root's left subtree
                trees[i:i + 1] = t[q:], t[1:q]
            else:
                if ((len(top) + 1) // 2 if code else len(top)) >= MAX_LEAVES:
                    raise LeafLimitError()
                if code:
                    j = _top_leaf(top, p)
                    top = top[:j] + "(LL" + top[j + 1:]
                else:
                    top[-1 - p] += "("
                    top.insert(-1 - p, "")
                trees[i:i + 1] = "L", "L"
        else:
            u = trees[i - 1]
            # trees k and k + 1 are leaves, and a top caret is over leaves p, p+1
            if t != "L" or u != "L":
                dipole = False
            elif code:
                j = _top_leaf(top, p)
                dipole = j > 0 and top[j - 1] == "(" and top[j + 1] == "L"
            else:
                dipole = top[-2 - p] == "" and top[-1 - p][-1:] == "("
            if dipole:
                # it meets the new root caret; the bottom side is a root,
                # so no cascade
                if code:
                    top = top[:j - 1] + "L" + top[j + 2:]
                else:
                    top[-1 - p] = top[-1 - p][:-1]
                    del top[-2 - p]
                trees[i - 1:i + 1] = ["L"]
            else:
                trees[i - 1:i + 1] = ["(" + t + u]
        if trees[0] == "L" and (top.endswith(",L") if code else top[0] == ","):
            # strip trailing leaf pairs in one cut; equal leaf counts keep a tree
            n = 1
            while trees[n] == "L" and (top.endswith(",L", 0, -2 * n) if code else top[n] == ","):
                n += 1
            del trees[:n]
            if code:
                top = top[:-2 * n]
            else:
                for _ in range(n):
                    top.popleft()
    return top


def _times(d: Diagram, w: GenWord) -> Diagram:
    # d * w by the fold: one letter on the top forest code (mul_letter),
    # a longer word on its leaf pieces
    if len(w) == 1:
        return mul_letter(d, *w[0])
    pieces, trees = _unpack(d)
    _fold(pieces, trees, w)
    trees.reverse()
    return f"{'L'.join(reversed(pieces))}L|{','.join(trees)}"


def mul_letter(d: Diagram, k: int, s: int) -> Diagram:
    """Product d * x_k^s (s = 1 or -1) as a canonical diagram.

    Equal to compose(d, atomic(k)) or compose(d, invert(atomic(k))), but
    computed as a local edit: exactly one caret is added to or removed
    from one of the two forests.  Let p be the number of leaves before
    bottom tree k.  For s = 1, a tree k with a caret loses its root, its
    two subtrees becoming trees k and k+1; a leaf tree k becomes two
    leaf trees, and leaf p of the top forest a caret.  For s = -1, trees
    k and k+1 are joined under a new root, unless both are leaves and
    the top forest has a caret over leaves p, p+1, a dipole that
    cancels.  Missing bottom trees are padded as leaf trees on both
    sides first, and trailing leaf pairs are stripped last.  This is the
    fold's letter edit behind from_word and compose, spliced into the
    top forest code (see the module docstring); it raises
    LeafLimitError, before anything grows, if the product would have
    more than MAX_LEAVES leaves.
    """
    top, _, bottom = d.partition("|")
    trees = bottom.split(",")
    trees.reverse()
    top = _fold(top, trees, ((k, s),))
    trees.reverse()
    return f"{top}|{','.join(trees)}"


def from_word(w: GenWord) -> Diagram:
    """The canonical diagram of the word w; () gives EPSILON.

    A word of normal-form shape, letters x_i with nondecreasing i and
    then letters x_j^-1 with nonincreasing j, whose (pos, neg) passes
    validate_normal_form, is built by from_normal_form in linear time.
    Any other word is folded from EPSILON with the letter edit of
    mul_letter on the fold's state, written out once at the end.  A leaf
    split or a dipole edits the pieces of one or two top leaves, and a
    root removal or a join copies only the bottom trees it edits, plus a
    Python step per caret run where it removes a root.  Raises
    LeafLimitError if the diagram would have more than MAX_LEAVES leaves.
    """
    ks, signs = tuple(zip(*w)) or ((), ())
    p = signs.count(1)
    if signs == (1,) * p + (-1,) * (len(signs) - p):
        try:
            return from_normal_form(NormalForm(ks[:p], ks[p:][::-1]))
        except NormalFormError:
            pass  # a dipole or an unsorted run: fold
    return _times(EPSILON, w)


def compose(d1: Diagram, d2: Diagram) -> Diagram:
    """Product d1 * d2 (d1 applied first) as a canonical diagram.

    Folds the letter edit of mul_letter over the normal form of d2, in
    one pass on the fold's state of d1 (see from_word).
    """
    return _times(d1, normal_form_word(to_normal_form(d2)))


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


def _forest(starts: Tuple[int, ...]) -> Tuple[List[str], int]:
    # the parts of the code of the forest whose carets start at the
    # nondecreasing leaf indices `starts`, over the fewest leaves, and
    # that leaf count.  h counts leaves minus carets so far; each tree
    # adds 1 to it, and a proper prefix of a tree adds at most 0, so a
    # tree ends exactly where h reaches a new high.  One step per run of
    # equal starts, and no part is copied into another
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
            parts += "L" * inner, "L," * (gap - inner), "(" * k + "L"
        else:
            h += gap
            parts += "L" * gap, "(" * k + "L"
        h += 1 - k
        leaf = i + 1
    # past the last caret, each leaf adds 1 to h, and the last tree ends
    # at the first leaf that lifts h above high
    parts.append("L" * (high - h + 1))
    return parts, leaf + high - h + 1


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
    pads = ",L" * (leaves - top_leaves), ",L" * (leaves - bottom_leaves)
    return "".join(top + [pads[0], "|"] + bottom + [pads[1]])


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
