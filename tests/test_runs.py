"""The run form of subgraphs and its letter product, against the diagrams
and against the PL maps of plmaps, which share no code with either."""

import random
from bisect import bisect_right

import pytest

from thompsonf.cayley import enumerate_ball
from thompsonf.diagrams import (
    MAX_LEAVES, LeafLimitError, NormalForm, from_normal_form, from_word, leaf_count, mul_letter,
    to_normal_form,
)
from thompsonf.gamma import gamma_nm_concrete
from thompsonf.plmaps import from_diagram, from_word_pl
from thompsonf.subgraphs import (
    _check_leaves, _expand, _leaves, diagram_of, fold_runs, mul_runs, runs_of, word_runs,
)

LETTERS = [(k, s) for k in range(9) for s in (1, -1)]


def seeded_words(seed, count, longest, top=8):
    rng = random.Random(seed)
    return [
        tuple((rng.randint(0, top), rng.choice((1, -1))) for _ in range(rng.randint(1, longest)))
        for _ in range(count)
    ]


def assert_products_agree(diagrams):
    bad = [
        (d, k, s) for d in diagrams for k, s in LETTERS
        if mul_runs(*runs_of(d), k, s) != runs_of(mul_letter(d, k, s))
    ]
    assert not bad, bad[:5]


def test_runs_are_the_normal_form():
    d = from_word(((0, 1), (0, 1), (3, 1), (5, -1), (1, -1), (1, -1)))
    assert to_normal_form(d) == NormalForm((0, 0, 3), (1, 1, 5))
    assert runs_of(d) == ((0, 2, 3, 1), (1, 2, 5, 1))
    assert diagram_of(runs_of(d)) == d
    assert runs_of(from_word(())) == ((), ())


def test_product_on_the_ball():
    assert_products_agree(enumerate_ball(7)._by_diagram)


def test_product_on_gamma_6_40():
    assert_products_agree(gamma_nm_concrete(6, 40).subgraph().vertices)


def test_product_along_seeded_words():
    # every prefix of 1-400-letter words with subscripts up to 8, times
    # the next letter
    for w in seeded_words(5, 60, 400):
        d, r = from_word(()), runs_of(from_word(()))
        for k, s in w:
            d, r = mul_letter(d, k, s), mul_runs(*r, k, s)
            assert r == runs_of(d), (w, k, s)


@pytest.mark.parametrize("seed", range(3))
def test_product_is_the_pl_map_on_long_words(seed):
    # plmaps is the independent oracle: the fold on runs of a long word
    # is the element that the word's PL map is
    for w in seeded_words(seed, 3, 3000, top=12) + [((1, -1), (0, -1)) * 500, ((0, 1), (1, -1)) * 700]:
        r = fold_runs(runs_of(from_word(())), w, 2 * len(w))
        assert from_diagram(diagram_of(r)) == from_word_pl(w)


def seminormal(pos, neg, c, s):
    # P N^-1 x_c^s rewritten with x_i^-1 x_c = x_{c+1} x_i^-1 (i < c),
    # on expanded index lists, cancelling x_c^-1 x_c but no dipole
    pos, neg = list(pos), list(neg)
    j = 0
    while j < len(neg) and neg[j] < c:
        c += 1
        j += 1
    if s == -1:
        neg.insert(j, c)
    elif j < len(neg) and neg[j] == c:
        del neg[j]
    else:
        neg[j:] = [i + 1 for i in neg[j:]]
        q = bisect_right(pos, c)
        pos[q:] = [i + 1 for i in pos[q:]]
        pos.insert(q, c)
    return pos, neg


def reduce_all(pos, neg):
    # cancel dipoles (i on both sides, i + 1 on neither) until none is
    # left; returns the reduced form and the number cancelled
    cancelled = 0
    while True:
        both = [i for i in set(pos) & set(neg) if i + 1 not in pos and i + 1 not in neg]
        if not both:
            return (tuple(pos), tuple(neg)), cancelled
        i = both[0]
        pos.remove(i)
        neg.remove(i)
        pos = [p - (p > i) for p in pos]
        neg = [n - (n > i) for n in neg]
        cancelled += 1


def test_a_product_cancels_at_most_one_dipole():
    # so mul_runs checks for one dipole, once, and never loops
    counts = [0, 0, 0]
    elements = list(enumerate_ball(6)._by_diagram)
    elements += [from_word(w) for w in seeded_words(9, 200, 60)]
    for d in elements:
        pos, neg = to_normal_form(d)
        for k, s in LETTERS:
            reduced, cancelled = reduce_all(*seminormal(pos, neg, k, s))
            counts[min(cancelled, 2)] += 1
            product = mul_runs(*runs_of(d), k, s)
            assert (_expand(product[0]), _expand(product[1])) == reduced
    assert counts[1] > 1000 and counts[2] == 0, counts


def test_leaf_count_from_runs():
    # the exact count, and the bound that spares it: a forest whose
    # carets start at leaves up to i has at most i + 2 + (carets) leaves
    elements = list(enumerate_ball(5)._by_diagram) + [from_word(w) for w in seeded_words(3, 300, 80)]
    for d in elements:
        pos, neg = runs_of(d)
        leaves = max(_leaves(pos), _leaves(neg))
        assert leaves == leaf_count(d)
        top = max(pos[-2:-1] + neg[-2:-1], default=0)
        assert leaves <= top + 2 + max(sum(pos[1::2]), sum(neg[1::2]))


def test_leaf_cap_on_runs():
    # exactly the elements whose diagram from_normal_form refuses; the
    # letter count given is the normal form's
    top = MAX_LEAVES - 2  # x_top has MAX_LEAVES leaves
    refused = []
    for nf in (
        NormalForm((), (top,)), NormalForm((), (top + 1,)), NormalForm((top - 1,) * 2, ()),
        NormalForm((top - 1,) * 3, ()), NormalForm((0,), (top,)), NormalForm((0, 0, top), ()),
        NormalForm((top,), (0,)), NormalForm((top, top), (top - 1,)), NormalForm((1, top - 1), (top,)),
    ):
        r = tuple(tuple(x for i in sorted(set(part)) for x in (i, part.count(i))) for part in nf)
        try:
            from_normal_form(nf)
        except LeafLimitError:
            refused.append(nf)
            with pytest.raises(LeafLimitError):
                _check_leaves(r, len(nf.pos) + len(nf.neg))
        else:
            _check_leaves(r, len(nf.pos) + len(nf.neg))
    assert len(refused) == 3


def test_word_runs_is_from_word():
    # normal-form shape is read run by run; a dipole, an unsorted run or
    # a positive letter after a negative one goes to from_word
    words = seeded_words(11, 300, 30, top=5) + [
        (), ((0, 1), (0, -1)), ((2, 1), (1, 1)), ((1, -1), (2, -1)), ((0, -1), (0, 1)),
        ((0, 1), (1, 1), (1, -1), (0, -1)), ((0, 1), (0, 1), (2, -1), (0, -1)),
        ((6, -1),) * 500 + ((4, -1), (2, -1), (2, -1), (0, -1)),
    ]
    for w in words:
        assert word_runs(w) == runs_of(from_word(w)), w
    with pytest.raises(LeafLimitError):
        word_runs(((MAX_LEAVES - 1, 1),))
    assert word_runs(((MAX_LEAVES - 2, 1),)) == ((MAX_LEAVES - 2, 1), ())
