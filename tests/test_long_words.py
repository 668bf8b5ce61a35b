"""Properties of elements far beyond BFS reach: words of 100-2000 letters.

Deep combs such as x0^1000 would exhaust the interpreter's recursion limit
in any recursive forest reader, so these also pin the iterative ones.
"""

import random
import time

import pytest

from thompsonf.diagrams import (
    EPSILON,
    NormalForm,
    cell_count,
    compose,
    from_normal_form,
    from_word,
    invert,
    normal_form_word,
    to_normal_form,
)
from thompsonf.metric import greedy_descent, norm
from thompsonf.plmaps import from_diagram, from_word_pl, pl_equal


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
# these grow a large bottom tree 0, so every x1^+-1 looks up a far top leaf
WORDS["(x0 x1^-1)^750"] = ((0, 1), (1, -1)) * 750
WORDS["(x1^-1 x0^-1)^750"] = ((1, -1), (0, -1)) * 750
WORDS["(x1 x0^-1 x1)^400"] = ((1, 1), (0, -1), (1, 1)) * 400


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


_DESCENT_RNG = random.Random(2002)
DESCENT_WORDS = [_reduced_word(_DESCENT_RNG, _DESCENT_RNG.randint(100, 1000)) for _ in range(20)]


@pytest.mark.parametrize("w", DESCENT_WORDS, ids=[f"{len(w)} letters" for w in DESCENT_WORDS])
def test_descent_word_has_the_norm_and_the_pl_map(w):
    # norms of 146-648, where no BFS ball reaches: the descent word is as
    # long as the length formula says, and the PL maps, which share no
    # code with the diagrams, confirm it names the element of w
    d = from_word(w)
    g = greedy_descent(d)
    assert len(g) == norm(d)
    assert from_word_pl(g) == from_word_pl(w)


@pytest.mark.parametrize(
    "letter, nf",
    [((0, 1), NormalForm((0,) * 100000, ())), ((1, -1), NormalForm((), (1,) * 100000))],
)
def test_long_power_builds_its_normal_form(letter, nf):
    # x0^100000 and x1^-100000 are normal-form words; values only, no timing
    assert from_word((letter,) * 100000) == from_normal_form(nf)


def test_long_fold_is_not_quadratic_in_python_steps():
    # 16,000 letters; a fold with one Python step per top leaf took 14-17 s
    # on a 2-vCPU VM, one that finds leaves by search in C well under 1 s
    w = ((1, -1), (0, -1)) * 8000
    start = time.perf_counter()
    d = from_word(w)
    assert time.perf_counter() - start < 5
    # moving each x0^-1 right past the letters after it, by
    # x_i^-1 x_j^-1 = x_{j+1}^-1 x_i^-1 for i < j, gives the normal form
    # x_{2n-1}^-1 ... x3^-1 x1^-1 x0^-n, built here without a fold
    assert d == from_normal_form(NormalForm((), (0,) * 8000 + tuple(range(1, 16000, 2))))


_N = 400
FAMILIES = {
    "x0^n": ((0, 1),) * _N,
    "x0^-n": ((0, -1),) * _N,
    "(x0 x1^-1)^n": ((0, 1), (1, -1)) * _N,
    "(x1^-1 x0^-1)^n": ((1, -1), (0, -1)) * _N,
    "(x1 x0^-1 x1)^n": ((1, 1), (0, -1), (1, 1)) * _N,
    "x0^-n x1 x0^n": ((0, -1),) * _N + ((1, 1),) + ((0, 1),) * _N,
    "random": _reduced_word(random.Random(400), _N),
}


@pytest.mark.parametrize("w", FAMILIES.values(), ids=FAMILIES.keys())
def test_scaling_families_against_the_pl_fold(w):
    # the seven word families of the scaling table at n = 400: the
    # diagram, by the fold or by the normal form, names the element that
    # the PL fold computes, which shares no code with the diagrams; the
    # fold from the identity over the normal form rebuilds the diagram
    d = from_word(w)
    assert from_diagram(d) == from_word_pl(w)
    assert compose(EPSILON, d) == d
