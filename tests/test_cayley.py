from fractions import Fraction

import pytest

from thompsonf.cayley import (
    ResourceCapError,
    bfs_norm,
    dead_search,
    enumerate_ball,
    neighbors,
    ratio_report,
)
from thompsonf.diagrams import EPSILON, atomic, canonical_key, from_word, invert
from thompsonf.metric import norm
from thompsonf.words import parse_word

KNOWN_SPHERES = [1, 4, 12, 36, 108, 314, 906, 2576, 7280, 20352]


def test_neighbors_order():
    nbs = neighbors(EPSILON)
    assert nbs == (atomic(0), invert(atomic(0)), atomic(1), invert(atomic(1)))


def test_small_spheres():
    table = enumerate_ball(6)
    assert table.sphere_sizes == KNOWN_SPHERES[:7]
    assert table.ball_sizes[-1] == sum(KNOWN_SPHERES[:7])


def test_ball_distances_match_norm():
    table = enumerate_ball(4)
    keys = set()
    for d, r in table._by_diagram.items():
        keys.add(canonical_key(d))
        assert table.distance(d) == r
        assert norm(d) == r  # length formula against BFS on the whole ball
    assert len(keys) == len(table._by_diagram)  # keys separate the ball


def test_distance_outside_ball():
    table = enumerate_ball(2)
    far = from_word(parse_word("x0 x0 x0"))
    assert table.distance(far) is None


def test_cap_raises():
    with pytest.raises(ResourceCapError) as exc:
        enumerate_ball(6, cap=100)
    assert exc.value.cap == 100
    assert 0 <= exc.value.completed_radius < 6


def test_negative_radius_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        enumerate_ball(-2)
    assert enumerate_ball(0).sphere_sizes == [1]


def test_negative_cap_rejected():
    with pytest.raises(ValueError, match="cap must be nonnegative, got -1"):
        enumerate_ball(3, cap=-1)
    with pytest.raises(ValueError, match="cap must be nonnegative, got -1"):
        dead_search(3, cap=-1)
    with pytest.raises(ResourceCapError):
        enumerate_ball(3, cap=0)


def test_bfs_norm():
    assert bfs_norm(EPSILON, cap=10) == 0
    assert bfs_norm(atomic(0), cap=10) == 1
    assert bfs_norm(atomic(2), cap=1_000) == 3
    # cap too small to ever reach the target
    assert bfs_norm(from_word(parse_word("x3 x3")), cap=50) is None


def test_dead_search_empty_at_small_norm():
    assert dead_search(3, cap=100_000) == []


def test_dead_search_norm_11():
    # the smallest norm with dead elements; each is confirmed by is_dead
    assert dead_search(11) == [
        "(((LL)L)L)LL(LL)|(L(LL))(LL)LLL",
        "(((LL)L)L)LLLL|(L(LL))(LL)L(LL)",
        "((L(LL))L)LL(LL)|((LL)L)(LL)LLL",
        "((L(LL))L)LLLL|((LL)L)(LL)L(LL)",
    ]


def test_dead_search_validates():
    with pytest.raises(ValueError):
        dead_search(0)


def test_ratio_report():
    table = enumerate_ball(5)
    ratios = ratio_report(table)
    assert ratios[0] == Fraction(4, 1)
    assert ratios == [
        Fraction(b, a) for a, b in zip(KNOWN_SPHERES, KNOWN_SPHERES[1:6])
    ]


def test_ratio_report_needs_radius_two():
    with pytest.raises(ValueError):
        ratio_report(enumerate_ball(1))
