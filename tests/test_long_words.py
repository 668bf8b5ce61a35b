"""Properties of elements far beyond BFS reach: words of 1000-2000 letters.

Deep combs such as x0^1000 would exhaust the interpreter's recursion limit
in any recursive forest reader, so these also pin the iterative ones.
"""

import random

import pytest

from thompsonf.diagrams import (
    NormalForm,
    cell_count,
    from_normal_form,
    from_word,
    invert,
    normal_form_word,
    to_normal_form,
)
from thompsonf.metric import norm
from thompsonf.plmaps import from_word_pl, pl_equal


def _reduced_word(rng, length):
    # a freely reduced word in x0^+-1, x1^+-1
    w = []
    while len(w) < length:
        k, s = rng.randint(0, 1), rng.choice((1, -1))
        if not w or w[-1] != (k, -s):
            w.append((k, s))
    return tuple(w)


_RNG = random.Random(20021)
WORDS = {f"random{i}": _reduced_word(_RNG, _RNG.randint(1000, 2000)) for i in range(6)}
WORDS["x0^1000"] = ((0, 1),) * 1000
WORDS["x1^1000"] = ((1, 1),) * 1000


@pytest.mark.parametrize("w", WORDS.values(), ids=WORDS.keys())
def test_long_word_properties(w):
    d = from_word(w)
    nf = to_normal_form(d)
    assert from_normal_form(nf) == d
    assert cell_count(d) == len(nf.pos) + len(nf.neg)
    n = norm(d)
    assert n == norm(invert(d))
    # x0 and x1 words: the norm bounds the length, and every relator of F
    # has even length
    assert n <= len(w) and (len(w) - n) % 2 == 0
    assert pl_equal(from_word_pl(normal_form_word(nf)), from_word_pl(w))


@pytest.mark.parametrize(
    "letter, nf",
    [((0, 1), NormalForm((0,) * 100000, ())), ((1, -1), NormalForm((), (1,) * 100000))],
)
def test_long_power_builds_its_normal_form(letter, nf):
    # x0^100000 and x1^-100000 are normal-form words; values only, no timing
    assert from_word((letter,) * 100000) == from_normal_form(nf)
