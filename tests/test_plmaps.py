import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thompsonf.cayley import enumerate_ball
from thompsonf.diagrams import EPSILON, atomic, from_word, normal_form_word, to_normal_form
from thompsonf.plmaps import (
    ONE,
    ZERO,
    Dyadic,
    PLMap,
    compose_pl,
    dyadic,
    evaluate,
    from_diagram,
    from_word_pl,
    generator_map,
    invert_pl,
    plmap,
)
from thompsonf.words import inverse_word, parse_word

# the identity map: one breakpoint at the origin, slope 1 throughout
IDENTITY = PLMap(((ZERO, ZERO),), 0)

letters = st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from((1, -1)))
words = st.lists(letters, max_size=8).map(tuple)
long_words = st.lists(
    st.tuples(st.integers(min_value=0, max_value=12), st.sampled_from((1, -1))),
    max_size=60,
).map(tuple)
sparse_words = st.lists(
    st.tuples(st.integers(min_value=0, max_value=100), st.sampled_from((1, -1))),
    max_size=60,
).map(tuple)
dyadics = st.builds(
    dyadic,
    st.integers(min_value=-64, max_value=64),
    st.integers(min_value=0, max_value=5),
)


class TestDyadic:
    def test_normalization(self):
        assert dyadic(4, 2) == Dyadic(1, 0)
        assert dyadic(6, 1) == Dyadic(3, 0)
        assert dyadic(3, 2) == Dyadic(3, 2)
        assert dyadic(0, 7) == Dyadic(0, 0)
        assert dyadic(3, -2) == Dyadic(12, 0)  # negative exp multiplies out

    def test_normalization_large_exponent(self):
        assert dyadic(1 << 4000, 4000) == ONE
        assert dyadic(-12, 2) == dyadic(-3)
        assert dyadic(0, 7) == ZERO

    def test_constructor_guards(self):
        with pytest.raises(ValueError):
            Dyadic(4, 2)  # unnormalized
        with pytest.raises(ValueError):
            Dyadic(1, -1)

    def test_arithmetic(self):
        half = dyadic(1, 1)
        assert half + half == ONE
        assert half * half == dyadic(1, 2)
        assert ONE - half == half
        assert -half == dyadic(-1, 1)
        assert half.scale2(1) == ONE
        assert ONE.scale2(-1) == half

    def test_ordering(self):
        assert dyadic(1, 1) < ONE < dyadic(3, 1)
        assert dyadic(1, 1) <= dyadic(2, 2)
        assert not ONE < ONE

    def test_str_and_float(self):
        assert str(dyadic(3, 1)) == "3/2^1"
        assert float(dyadic(3, 1)) == 1.5
        assert dyadic(4, 1).as_integer() == 2
        with pytest.raises(ValueError):
            dyadic(1, 1).as_integer()

    @given(dyadics, dyadics)
    def test_add_commutes_and_orders(self, a, b):
        assert a + b == b + a
        assert (a < b) == (float(a) < float(b))


class TestGeneratorMaps:
    def test_f0_values(self):
        f0 = generator_map(0)
        assert evaluate(f0, dyadic(1, 1)) == ONE
        assert evaluate(f0, ONE) == dyadic(2)
        assert evaluate(f0, dyadic(3)) == dyadic(4)
        assert f0.tail_offset == 1

    def test_identity_below_support(self):
        f2 = generator_map(2)
        assert evaluate(f2, ONE) == ONE
        assert evaluate(f2, ZERO) == ZERO

    def test_tail_offsets(self):
        assert all(generator_map(i).tail_offset == 1 for i in range(6))

    def test_negative_subscript(self):
        with pytest.raises(ValueError):
            generator_map(-1)

    def test_evaluate_below_zero(self):
        with pytest.raises(ValueError, match=r"^the domain is \[0, infinity\)$"):
            evaluate(generator_map(0), dyadic(-1, 1))


class TestNormalization:
    def test_trailing_unit_slope_merges(self):
        f = plmap([(ZERO, ZERO), (ONE, dyadic(2)), (dyadic(2), dyadic(3))])
        assert f == generator_map(0)

    def test_collinear_dropped(self):
        f = plmap(
            [(ZERO, ZERO), (dyadic(1, 1), ONE), (ONE, dyadic(2)), (dyadic(2), dyadic(3))]
        )
        assert f == generator_map(0)

    def test_must_start_at_origin(self):
        with pytest.raises(ValueError):
            plmap([(ONE, ONE)])

    def test_slopes_must_be_powers_of_two(self):
        with pytest.raises(ValueError):
            plmap([(ZERO, ZERO), (dyadic(3), ONE)])
        with pytest.raises(ValueError):
            plmap([(ZERO, ZERO), (ONE, dyadic(3))])

    def test_must_increase(self):
        with pytest.raises(ValueError):
            plmap([(ZERO, ZERO), (ONE, ONE), (ONE, dyadic(2))])

    def test_tail_offset_must_be_an_integer(self):
        with pytest.raises(ValueError, match="1/2\\^1 is not an integer"):
            plmap([(ZERO, ZERO), (ONE, dyadic(1, 1))])

    def test_mixed_exponents(self):
        # exponents 0 to 4 in one chain; the collinear points (3/4, 3/2)
        # and (9/8, 33/16) and the final slope-1 segment are dropped
        f = plmap(
            [
                (ZERO, ZERO),
                (dyadic(1, 2), dyadic(1, 1)),
                (dyadic(3, 2), dyadic(3, 1)),
                (ONE, dyadic(2)),
                (dyadic(9, 3), dyadic(33, 4)),
                (dyadic(3, 1), dyadic(9, 2)),
                (dyadic(2), dyadic(13, 2)),
                (dyadic(5, 1), dyadic(7, 1)),
                (dyadic(4), dyadic(5)),
            ]
        )
        assert f == PLMap(
            points=(
                (ZERO, ZERO),
                (ONE, dyadic(2)),
                (dyadic(3, 1), dyadic(9, 2)),
                (dyadic(2), dyadic(13, 2)),
                (dyadic(5, 1), dyadic(7, 1)),
            ),
            tail_offset=1,
        )


class TestGroupStructure:
    def test_identity(self):
        assert from_word_pl(()) == IDENTITY

    def test_rewriting_relation(self):
        assert compose_pl(generator_map(1), generator_map(0)) == compose_pl(
            generator_map(0), generator_map(2)
        )

    def test_relators_trivial(self):
        for conj_a, conj_b in (("x0 x0", "x0 x1"), ("x0 x0 x0", "x0 x0 x1")):
            lhs = (
                inverse_word(parse_word(conj_a))
                + parse_word("x1")
                + parse_word(conj_a)
            )
            rhs = (
                inverse_word(parse_word(conj_b))
                + parse_word("x1")
                + parse_word(conj_b)
            )
            assert from_word_pl(lhs) == from_word_pl(rhs)
            assert from_word_pl(lhs + inverse_word(rhs)) == IDENTITY

    def test_generators_differ(self):
        assert generator_map(0) != generator_map(1)

    @given(words)
    @settings(max_examples=60)
    def test_inverse_cancels(self, w):
        f = from_word_pl(w)
        assert compose_pl(f, invert_pl(f)) == IDENTITY
        assert invert_pl(invert_pl(f)) == f

    @given(words, words)
    @settings(max_examples=60)
    def test_homomorphism(self, u, v):
        assert from_word_pl(u + v) == compose_pl(from_word_pl(u), from_word_pl(v))

    @given(words, dyadics)
    @settings(max_examples=60)
    def test_evaluate_round_trip(self, w, x):
        if x < ZERO:
            x = -x
        f = from_word_pl(w)
        assert evaluate(invert_pl(f), evaluate(f, x)) == x

    @given(words)
    @settings(max_examples=60)
    def test_tail_offset_counts_x_exponents(self, w):
        # every letter shifts the far tail by one
        assert from_word_pl(w).tail_offset == sum(s for _, s in w)


def fold_compose(w):
    """The definition from_word_pl must match: one compose_pl per letter."""
    acc = IDENTITY
    for k, s in w:
        step = generator_map(k) if s == 1 else invert_pl(generator_map(k))
        acc = compose_pl(acc, step)
    return acc


class TestLetterFold:
    @given(long_words)
    @settings(max_examples=60, deadline=None)
    def test_matches_compose_fold(self, w):
        assert from_word_pl(w) == fold_compose(w)

    @pytest.mark.parametrize("k", [0, 1])
    def test_long_power_cancels(self, k):
        w = ((k, 1),) * 2000 + ((k, -1),) * 2000
        assert from_word_pl(w) == IDENTITY

    def test_long_homomorphism(self):
        rng = random.Random(2002)
        w = tuple((rng.randint(0, 3), rng.choice((1, -1))) for _ in range(1000))
        u, v = w[:500], w[500:]
        assert from_word_pl(u + v) == compose_pl(from_word_pl(u), from_word_pl(v))

    def test_negative_subscript(self):
        with pytest.raises(ValueError):
            from_word_pl(((-1, 1),))

    def test_bad_exponent(self):
        # the fold computes with the exponent, so it refuses any but 1 and -1
        with pytest.raises(ValueError, match=r"^letter exponent must be 1 or -1, got 2$"):
            from_word_pl(((0, 2),))
        with pytest.raises(ValueError, match=r"^letter exponent must be 1 or -1, got 0$"):
            from_word_pl(((1, 1), (0, 1), (1, 0)))


class TestCrossRepresentation:
    @given(words, words)
    @settings(max_examples=80)
    def test_equality_oracle_agreement(self, u, v):
        pl_same = from_word_pl(u) == from_word_pl(v)
        diagram_same = from_word(u) == from_word(v)
        assert pl_same == diagram_same

    @given(words)
    @settings(max_examples=60)
    def test_triviality_agreement(self, w):
        assert (from_word_pl(w) == IDENTITY) == (from_word(w) == EPSILON)


def _reduced(rng, length):
    # a freely reduced word in x0^+-1, x1^+-1
    w = []
    while len(w) < length:
        k, s = rng.randint(0, 1), rng.choice((1, -1))
        if not w or w[-1] != (k, -s):
            w.append((k, s))
    return tuple(w)


# words whose maps have thousands of breakpoints over large powers of two
LONG_FAMILIES = {
    "x0^-1600": ((0, -1),) * 1600,
    "(x0 x1^-1)^1500": ((0, 1), (1, -1)) * 1500,
    "x8^-1000 x0^1000": ((8, -1),) * 1000 + ((0, 1),) * 1000,
    "(x1 x0^-1 x1)^400": ((1, 1), (0, -1), (1, 1)) * 400,
    "x0^-400 x1 x0^400": ((0, -1),) * 400 + ((1, 1),) + ((0, 1),) * 400,
    "reduced 10000": _reduced(random.Random(19), 10000),
}


class TestDiagramReading:
    """from_diagram reads the map off the diagram; from_word_pl folds the
    word.  The two share no code, so each checks the other."""

    @given(long_words)
    @settings(max_examples=100, deadline=None)
    def test_matches_the_fold(self, w):
        assert from_diagram(from_word(w)) == from_word_pl(w)

    @given(sparse_words)
    @settings(max_examples=100, deadline=None)
    def test_matches_the_fold_on_sparse_words(self, w):
        assert from_diagram(from_word(w)) == from_word_pl(w)

    def test_ball_of_radius_8(self):
        for d in enumerate_ball(8)._by_diagram:
            assert from_diagram(d) == from_word_pl(normal_form_word(to_normal_form(d))), d

    @pytest.mark.parametrize("name", LONG_FAMILIES)
    def test_long_families(self, name):
        w = LONG_FAMILIES[name]
        assert from_diagram(from_word(w)) == from_word_pl(w)

    @pytest.mark.parametrize("k", [0, 1, 1000, 2**20])
    def test_generators(self, k):
        assert from_diagram(atomic(k)) == generator_map(k)
        assert from_diagram(from_word(((k, -1),))) == invert_pl(generator_map(k))

    def test_identity(self):
        assert from_diagram(EPSILON) == IDENTITY

    def test_rejects_a_string_without_two_forests(self):
        with pytest.raises(ValueError, match=r"^a diagram string is top\|bottom$"):
            from_diagram("(LL")

    def test_rejects_unequal_leaf_counts(self):
        with pytest.raises(ValueError, match=r"^the two forests have different leaf counts$"):
            from_diagram("(LL|L")
        with pytest.raises(ValueError, match=r"^the two forests have different leaf counts$"):
            from_diagram("L|L,L")

    def test_rejects_a_tree_that_runs_past_its_forest(self):
        # both forests are read in place in the one string, so an
        # unfinished top tree must not read the bottom forest's leaves
        for d in ("(L|LL", "((L|LLL", "L,(L|L,LL", "L|(L", "(LL|L,(L"):
            with pytest.raises(ValueError, match=r"^a tree code runs past the end of its forest$"):
                from_diagram(d)

    @pytest.mark.parametrize(
        "d, message",
        [
            ("|", "a forest code is empty"),
            ("L|", "a forest code is empty"),
            ("x|y", "a forest code has a character other than '(', 'L' or ','"),
            ("L|L|L", "a forest code has a character other than '(', 'L' or ','"),
            ("LL|LL", "a forest code has two trees not joined by ','"),
            ("(LLL|L,L,L", "a forest code has two trees not joined by ','"),
            ("L,,L|L,L", "a forest code has an empty tree"),
            ("L|L,", "a forest code has an empty tree"),
            (",L|L,", "a forest code has an empty tree"),
            ("(LL,|L,L", "a forest code has an empty tree"),
            ("(LL,,(LL|L,L,L,L", "a forest code has an empty tree"),
            ("(L,L|L,L", "a forest code has a ',' inside a tree"),
        ],
    )
    def test_rejects_a_string_that_is_not_two_forest_codes(self, d, message):
        # each string breaks one rule of "tree codes joined by ','"
        with pytest.raises(ValueError) as error:
            from_diagram(d)
        assert str(error.value) == message
