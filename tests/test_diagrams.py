import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tuple_oracle as oracle
from thompsonf.cayley import enumerate_ball
from thompsonf.diagrams import (
    EPSILON,
    MAX_LEAVES,
    LeafLimitError,
    NormalForm,
    NormalFormError,
    atomic,
    canonical_key,
    cell_count,
    compose,
    from_normal_form,
    from_word,
    invert,
    leaf_count,
    mul_letter,
    normal_form_text,
    normal_form_word,
    to_normal_form,
    validate_normal_form,
)
from thompsonf.words import format_word, inverse_word, parse_word

letters = st.tuples(st.integers(min_value=0, max_value=4), st.sampled_from((1, -1)))
words = st.lists(letters, max_size=12).map(tuple)
long_words = st.lists(
    st.tuples(st.integers(min_value=0, max_value=12), st.sampled_from((1, -1))),
    max_size=300,
)


def test_atomic_shape():
    d = atomic(0)
    assert d == "(LL|L,L"
    assert oracle.to_tuples(d) == oracle.atomic(0)
    assert leaf_count(d) == 2
    assert cell_count(d) == 1
    d1 = atomic(1)
    assert d1 == "L,(LL|L,L,L"
    assert oracle.to_tuples(d1) == oracle.atomic(1)
    assert leaf_count(d1) == 3


def test_atomic_rejects_negative():
    with pytest.raises(ValueError):
        atomic(-1)


def test_identity():
    assert from_word(()) == EPSILON == "L|L"
    assert cell_count(EPSILON) == 0
    assert leaf_count(EPSILON) == 1


def test_compose_with_inverse_is_identity():
    for i in range(4):
        d = atomic(i)
        assert compose(d, invert(d)) == EPSILON
        assert compose(invert(d), d) == EPSILON


def test_invert_swaps():
    d = from_word(parse_word("x0 x1"))
    top, bottom = d.split("|")
    assert invert(d) == bottom + "|" + top
    assert invert(invert(d)) == d


@given(words, words)
@settings(max_examples=60)
def test_from_word_is_multiplicative(u, v):
    a, b = from_word(u), from_word(v)
    assert from_word(u + v) == compose(a, b)
    assert compose(a, b) == oracle.from_tuples(
        oracle.compose(oracle.to_tuples(a), oracle.to_tuples(b))
    )


@given(words, words, words)
@settings(max_examples=40)
def test_compose_associative(u, v, w):
    a, b, c = from_word(u), from_word(v), from_word(w)
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(words)
@settings(max_examples=60)
def test_inverse_word_gives_inverse_diagram(w):
    assert from_word(inverse_word(w)) == invert(from_word(w))
    assert compose(from_word(w), invert(from_word(w))) == EPSILON


def test_mul_letter_matches_compose_on_ball():
    # the oracle is the general tuple product of tests/tuple_oracle.py
    for d in enumerate_ball(6)._by_diagram:
        t = oracle.to_tuples(d)
        for k in range(4):
            for s in (1, -1):
                expected = oracle.compose(t, oracle.letter(k, s))
                assert mul_letter(d, k, s) == oracle.from_tuples(expected)


@given(long_words)
@settings(max_examples=50, deadline=None)
def test_mul_letter_matches_compose_along_words(w):
    d = EPSILON
    t = oracle.EPSILON
    for k, s in w:
        t = oracle.compose(t, oracle.letter(k, s))
        d = mul_letter(d, k, s)
        assert d == oracle.from_tuples(t)
    # the fold carries its index of "|" and tree count across all letters
    assert from_word(w) == d


def test_mul_letter_rejects_bad_letters():
    with pytest.raises(ValueError):
        mul_letter(EPSILON, -1, 1)
    with pytest.raises(ValueError):
        mul_letter(EPSILON, 0, 2)
    # a bad letter deep in a word is refused as it is alone
    with pytest.raises(ValueError, match="exponent must be 1 or -1, got 0"):
        from_word(((1, 1), (0, 1), (1, 0)))


def test_leaf_cap():
    # x_k has k + 2 leaves, whichever way it is built
    top = MAX_LEAVES - 2
    assert mul_letter(EPSILON, top, 1) == from_normal_form(NormalForm((top,), ()))
    assert leaf_count(mul_letter(EPSILON, top, -1)) == MAX_LEAVES
    for k, s in ((MAX_LEAVES, 1), (MAX_LEAVES - 1, 1), (MAX_LEAVES - 1, -1)):
        with pytest.raises(LeafLimitError):
            mul_letter(EPSILON, k, s)
    with pytest.raises(LeafLimitError):
        from_normal_form(NormalForm((), (MAX_LEAVES - 1,)))
    # a letter that adds one leaf at the cap, and a normal form whose
    # subscripts fit but whose comb does not
    with pytest.raises(LeafLimitError):
        from_word(((top, 1), (0, 1)))
    with pytest.raises(LeafLimitError):
        from_normal_form(NormalForm((0,) * MAX_LEAVES, ()))


def test_long_powers_cancel():
    # far deeper than the interpreter's recursion limit; the dict lookup
    # compares two separately built diagrams of that depth
    for k in (0, 1):
        assert from_word(((k, 1),) * 5000 + ((k, -1),) * 5000) == EPSILON
    table = {from_word(((0, 1),) * 5000): "x0^5000"}
    rebuilt = from_word(((0, 1),) * 4999 + ((1, 1), (1, -1), (0, 1)))
    assert rebuilt is not next(iter(table))
    assert table.get(rebuilt) == "x0^5000"
    assert from_word(((0, 1),) * 5001) not in table


def test_rewriting_relation():
    # x_j x_i = x_i x_{j+1} for i < j
    for i in range(3):
        for j in range(i + 1, 6):
            lhs = compose(atomic(j), atomic(i))
            rhs = compose(atomic(i), atomic(j + 1))
            assert lhs == rhs


def test_relators_are_trivial():
    # x1^(x0^2) = x1^(x0 x1) and x1^(x0^3) = x1^(x0^2 x1), a^b = b^-1 a b
    for conj_a, conj_b in (("x0 x0", "x0 x1"), ("x0 x0 x0", "x0 x0 x1")):
        lhs = inverse_word(parse_word(conj_a)) + parse_word("x1") + parse_word(conj_a)
        rhs = inverse_word(parse_word(conj_b)) + parse_word("x1") + parse_word(conj_b)
        assert from_word(lhs) == from_word(rhs)
        assert from_word(lhs + inverse_word(rhs)) == EPSILON


def test_generators_are_distinct():
    seen = {canonical_key(atomic(i)) for i in range(6)}
    assert len(seen) == 6
    assert canonical_key(atomic(0)) != canonical_key(invert(atomic(0)))


def test_worked_element_normal_form():
    d = from_word(parse_word("x0 x0 x1 x6 x3^-1 x0^-1 x0^-1"))
    nf = to_normal_form(d)
    assert nf.pos == (0, 0, 1, 6)
    assert nf.neg == (0, 0, 3)
    assert cell_count(d) == 7
    assert leaf_count(d) == 8


def test_normal_form_word_round_trip():
    w = parse_word("x0 x0 x1 x6 x3^-1 x0^-1 x0^-1")
    nf = to_normal_form(from_word(w))
    assert normal_form_word(nf) == w  # already in normal form
    assert from_normal_form(nf) == from_word(w)


@given(words)
@settings(max_examples=80)
def test_to_normal_form_represents_same_element(w):
    d = from_word(w)
    nf = to_normal_form(d)
    validate_normal_form(nf)
    assert from_word(normal_form_word(nf)) == d
    assert from_normal_form(nf) == d
    assert len(nf.pos) + len(nf.neg) == cell_count(d)


@given(words)
@settings(max_examples=60)
def test_canonical_key_separates(w):
    d = from_word(w)
    assert (canonical_key(d) == canonical_key(EPSILON)) == (d == EPSILON)


def test_validate_normal_form_rejects():
    with pytest.raises(NormalFormError, match=r"^pos is not nondecreasing: \(1, 0\)$"):
        validate_normal_form(((1, 0), ()))
    with pytest.raises(NormalFormError, match=r"^neg is not nondecreasing: \(0, 2, 1\)$"):
        validate_normal_form(((), (0, 2, 1)))
    with pytest.raises(NormalFormError, match=r"^pos contains a negative index: \(-1,\)$"):
        validate_normal_form(((-1,), ()))
    # negative is reported first, also when the sequence is unsorted
    with pytest.raises(NormalFormError, match=r"^pos contains a negative index: \(0, -1\)$"):
        validate_normal_form(((0, -1), ()))
    with pytest.raises(NormalFormError, match=r"^neg contains a negative index: \(-2, 3\)$"):
        validate_normal_form(((0,), (-2, 3)))
    # 1 in both sides but neither side contains 2
    with pytest.raises(NormalFormError, match=r"^index 1 occurs on both sides but 2 occurs on neither$"):
        validate_normal_form(((1,), (1,)))
    # same, with the offending index not final
    with pytest.raises(NormalFormError, match=r"^index 1 occurs on both sides but 2 occurs on neither$"):
        validate_normal_form(((1, 5), (0, 1)))
    # equal final indices i always break the rule above for i: i + 1
    # exceeds every index, so no separate final-index check is needed
    with pytest.raises(NormalFormError, match=r"^index 5 occurs on both sides but 6 occurs on neither$"):
        validate_normal_form(((0, 5), (5,)))


def test_from_normal_form_inverts_to_normal_form_on_ball():
    for d in enumerate_ball(7)._by_diagram:
        assert from_normal_form(to_normal_form(d)) == d


def test_leaf_count_reads_the_length_on_ball():
    # a forest of L leaves spends 2L - 1 characters, a diagram 4L - 1
    for d in enumerate_ball(8)._by_diagram:
        assert leaf_count(d) == d.count("L") // 2, d


def test_validate_normal_form_accepts():
    validate_normal_form(((0, 0, 1, 6), (0, 0, 3)))
    validate_normal_form(((), ()))
    validate_normal_form(((1, 2), (1,)))  # 1 on both sides, 2 present


def test_reduced_and_canonical():
    # composing a diagram with itself never leaves common exposed carets
    d = from_word(parse_word("x0 x1 x0^-1"))
    sq = compose(d, d)
    assert to_normal_form(sq)  # normalizes without error
    # trailing common leaf would be a non-canonical sum decomposition
    last_trees = [forest.split(",")[-1] for forest in d.split("|")]
    assert last_trees != ["L", "L"]


def _fold(w):
    # the plain left fold of one-letter products, without the normal-form path
    d = EPSILON
    for k, s in w:
        d = mul_letter(d, k, s)
    return d


subscripts = st.lists(st.integers(min_value=0, max_value=6), max_size=20)
# letters x_i with nondecreasing i, then x_j^-1 with nonincreasing j;
# many of these fail validate_normal_form, e.g. x0 x0^-1 (a dipole)
shaped_words = st.tuples(subscripts, subscripts).map(
    lambda pn: tuple((i, 1) for i in sorted(pn[0]))
    + tuple((j, -1) for j in sorted(pn[1], reverse=True))
)
valid_normal_forms = long_words.map(lambda w: normal_form_word(to_normal_form(_fold(w))))


@given(st.one_of(valid_normal_forms, shaped_words, long_words.map(tuple)))
@settings(max_examples=150, deadline=None)
@example(parse_word("x0 x0 x1 x6 x3^-1 x0^-1 x0^-1"))
@example(((0, 1), (0, -1)))
@example(((2, 1), (5, 1), (5, -1), (2, -1)))
@example(((0, 1), (1, 1), (1, -1)))
def test_from_word_equals_letter_fold(w):
    assert from_word(w) == _fold(w)


# runs of equal caret starts: (subscript, run length) pairs per side
runs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=60)),
    max_size=4,
)


@given(runs, runs)
@settings(max_examples=80, deadline=None)
@example([(3, 50), (20, 55)], [(0, 60), (19, 1)])
def test_normal_form_text_matches_letter_rendering(pos_runs, neg_runs):
    pos = sorted(i for i, k in pos_runs for _ in range(k))
    neg = sorted(i for i, k in neg_runs for _ in range(k))
    d = from_word(tuple((i, 1) for i in pos) + tuple((j, -1) for j in reversed(neg)))
    assert normal_form_text(d) == format_word(normal_form_word(to_normal_form(d)))
