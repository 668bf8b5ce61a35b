import pytest

from thompsonf import growth
from thompsonf.growth import (
    START_STATE,
    TRANSITIONS,
    CollisionReport,
    ResourceError,
    bruteforce_series,
    collision_check,
    is_l_word,
    rate_estimate,
    recurrence_check,
    run_automaton,
    series,
    transition_matrix,
)
from thompsonf.words import parse_word

KNOWN = [1, 4, 12, 34, 92, 244, 642, 1684, 4412, 11554]
LATER = {10: 30252, 11: 79204, 12: 207362}

PRINTED_MATRIX = [
    (0, 1, 1, 1, 1, 0, 0),
    (0, 1, 0, 1, 1, 0, 0),
    (0, 0, 1, 1, 1, 0, 0),
    (0, 0, 1, 1, 0, 1, 0),
    (0, 0, 1, 0, 1, 1, 0),
    (0, 0, 0, 0, 1, 0, 1),
    (0, 0, 0, 0, 0, 0, 1),
]


def test_series_known_values():
    assert series(9) == KNOWN
    s = series(12)
    for n, c in LATER.items():
        assert s[n] == c


def test_count_words():
    assert series(0) == [1]
    assert series(9)[9] == 11554
    with pytest.raises(ValueError, match="^max_n must be nonnegative$"):
        series(-1)


def test_series_matches_bruteforce():
    assert bruteforce_series(10) == series(10)
    assert bruteforce_series(5)[5] == 244


def test_bruteforce_cap():
    from thompsonf.growth import ResourceError

    with pytest.raises(ResourceError):
        bruteforce_series(17)


def test_recurrence():
    assert recurrence_check(60)
    s = series(60)
    for n in range(4, 61):
        assert s[n] == 4 * s[n - 1] - 4 * s[n - 2] + s[n - 3]


def test_rate_estimate():
    golden = (3 + 5 ** 0.5) / 2
    assert abs(rate_estimate(40) - golden) < 1e-6
    with pytest.raises(ValueError):
        rate_estimate(3)


def test_transition_matrix_rows():
    assert transition_matrix() == [list(row) for row in PRINTED_MATRIX]


def test_automaton_structure():
    assert START_STATE == 1
    states = {s for s, _ in TRANSITIONS} | set(TRANSITIONS.values())
    assert states == set(range(1, 8))


@pytest.mark.parametrize(
    "text,accepted",
    [
        ("", True),
        ("x0", True),
        ("x0^-1", True),
        ("x1", True),
        ("x0 x0^-1", False),  # aA
        ("x0^-1 x0", False),  # Aa
        ("x1 x1^-1", False),  # bB
        ("x1^-1 x1", False),  # Bb
        ("x1 x0 x1", False),  # bab
        ("x1^-1 x0 x1", False),  # Bab
        ("x1 x0 x0 x1^-1", False),  # baaB
        ("x1 x0 x1^-1", True),  # baB allowed
        ("x1^-1 x0 x1^-1", True),  # BaB allowed
        ("x0 x0 x0", True),
        ("x1 x1 x1", True),
        ("x1 x0 x0 x0 x1", False),  # ba+b blocked at any run length
    ],
)
def test_is_l_word(text, accepted):
    w = parse_word(text)
    assert is_l_word(w) == accepted
    state = run_automaton(w)
    assert (state is not None) == accepted


def test_is_l_word_rejects_large_subscripts():
    with pytest.raises(ValueError):
        is_l_word(parse_word("x2"))


def test_counts_by_automaton_equal_scan():
    # every length-n path in the automaton corresponds to a factor-free
    # string and vice versa; spot-check by full enumeration
    from itertools import product

    counts = series(6)
    for n in range(7):
        brute = sum(
            1
            for word in product(((0, 1), (0, -1), (1, 1), (1, -1)), repeat=n)
            if is_l_word(tuple(word))
        )
        assert brute == counts[n]


def test_collision_check_injective():
    report = collision_check(8)
    assert report.words == sum(series(8))
    assert report.distinct == report.words
    assert report.collisions == []


def test_collision_check_cap():
    with pytest.raises(ResourceError, match=r"^collision check capped at length 12, asked 13$"):
        collision_check(13)


def test_collision_check_reports_collisions(monkeypatch):
    # with every letter acting as the identity, each word of length 1
    # collides with the empty word
    monkeypatch.setattr(growth, "mul_letter", lambda d, k, s: d)
    assert collision_check(1) == CollisionReport(
        words=5, distinct=1, collisions=[("", "x0"), ("", "x0^-1"), ("", "x1"), ("", "x1^-1")]
    )
