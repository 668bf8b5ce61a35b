import json
import time
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import pytest

import count_oracle
from thompsonf import cayley, diagrams, metric
from thompsonf.cayley import (
    CountLimitError,
    ResourceCapError,
    bfs_norm,
    count_spheres,
    dead_search,
    enumerate_ball,
    neighbors,
)
from thompsonf.cli import main
from thompsonf.diagrams import EPSILON, atomic, canonical_key, from_word, invert
from thompsonf.metric import is_dead, norm
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
    # a cap c with b_r <= c < b_{r+1} completes exactly radius r
    balls = [1, 5, 17, 53, 161, 475]  # b_0..b_5
    for r, (low, high) in enumerate(zip(balls, balls[1:])):
        for cap in range(low, high):
            with pytest.raises(ResourceCapError) as exc:
                enumerate_ball(6, cap=cap)
            assert exc.value.completed_radius == r, cap


def _reference_ball(radius):
    # plain BFS over neighbors: every element multiplied by all four letters
    dist = {EPSILON: 0}
    layer = [EPSILON]
    for r in range(radius):
        following = []
        for d in layer:
            for nb in neighbors(d):
                if nb not in dist:
                    dist[nb] = r + 1
                    following.append(nb)
        layer = following
    return list(dist.items())


def test_ball_matches_reference_bfs_in_order():
    # skipping the letters back keeps the discovery order, which the cap's
    # raise points and the order of the table depend on
    for r in range(7):
        assert list(enumerate_ball(r)._by_diagram.items()) == _reference_ball(r), r


def test_dead_search_multiplies_nothing(monkeypatch):
    # the walk reads normal forms; it builds no neighbour and no ball
    calls = [0]
    real = diagrams.mul_letter

    def counted(d, k, s):
        calls[0] += 1
        return real(d, k, s)

    for module in (cayley, diagrams, metric):
        monkeypatch.setattr(module, "mul_letter", counted)
    monkeypatch.setattr(cayley, "enumerate_ball", None)
    assert dead_search(7) == []
    assert dead_search(11) == dead_search(11, cap=244_823)  # b_11: the count runs
    assert calls[0] == 0


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
    # b_6 = 1,381 < 3,000 < b_7 = 3,957: the cap cuts layer 7 short, and
    # the target is among the elements of it found before the cap
    assert bfs_norm(from_word(((2, 1), (1, 1), (2, 1))), cap=3000) == 7


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


def test_dead_search_matches_bfs_definition(ball_10):
    # the definition read off one BFS table: an element at distance r
    # whose four neighbours all read r - 1 (the radius-10 ball holds them)
    for m in range(1, 10):
        expected = sorted(
            canonical_key(d)
            for d, r in ball_10._by_diagram.items()
            if 1 <= r <= m and all(ball_10.distance(nb) == r - 1 for nb in neighbors(d))
        )
        assert dead_search(m) == expected, m


def test_dead_search_cap_bounds_its_radius(ball_10):
    # the cap bounds the ball of radius max_norm: b_7 = 3,957 elements
    assert ball_10.ball_sizes[7] == 3957
    assert dead_search(7, cap=3957) == []
    with pytest.raises(ResourceCapError) as exc:
        dead_search(7, cap=3956)
    assert exc.value.completed_radius == 6


def test_dead_search_cap_at_every_ball(ball_10):
    # cap = b_m answers; one less stops at radius m - 1, as the BFS did
    for m in range(1, 9):
        b = ball_10.ball_sizes[m]
        assert dead_search(m, cap=b) == []
        with pytest.raises(ResourceCapError) as exc:
            dead_search(m, cap=b - 1)
        assert (exc.value.cap, exc.value.completed_radius) == (b - 1, m - 1)


def test_ball_bound_skips_the_count():
    # b_m <= 2 * 3^m - 1, so dead_search need not count below that cap
    balls = list(accumulate(count_spheres(12)))
    assert all(b <= 2 * 3**m - 1 for m, b in enumerate(balls))
    assert balls[1] == 2 * 3 - 1  # tight at m = 1


def test_dead_search_cap_error_is_one_line(capsys):
    assert main(["dead-search", "--max-norm", "12", "--cap", "100000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: element cap 100000 exceeded; completed radius 10\n"
    # a huge norm bound costs no power of 3 that size: the default cap
    # stops the count at radius 14
    start = time.perf_counter()
    assert main(["dead-search", "--max-norm", str(10**9)]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: element cap 10000000 exceeded; completed radius 14\n"


def _from_key(key):
    # the diagram of a canonical key: drop the ")" and cut each forest
    # into trees where leaves outnumber carets
    forests = []
    for code in key.replace(")", "").split("|"):
        trees, start, h = [], 0, 0
        for i, c in enumerate(code):
            h += 1 if c == "L" else -1
            if h == 1:
                trees.append(code[start:i + 1])
                start, h = i + 1, 0
        forests.append(",".join(trees))
    return "|".join(forests)


def test_dead_search_norm_13():
    # past the BFS check of CI (norm 12): every hit is dead by the length
    # formula, and the counts per norm are 4, 8 and 52
    found = dead_search(13)
    assert len(found) == 64
    norms = []
    for key in found:
        d = _from_key(key)
        assert canonical_key(d) == key
        assert is_dead(d)
        norms.append(norm(d))
    assert Counter(norms) == {11: 4, 12: 8, 13: 52}
    assert dead_search(12) == sorted(k for k, n in zip(found, norms) if n <= 12)


def test_dead_search_validates():
    with pytest.raises(ValueError):
        dead_search(0)


def test_ratio_report(capsys):
    # spheres reports the exact consecutive ratios s_n / s_{n-1}
    assert main(["spheres", "--radius", "5"]) == 0
    ratios = json.loads(capsys.readouterr().out)["results"]["ratios"]
    assert [Fraction(q["num"], q["den"]) for q in ratios] == [
        Fraction(b, a) for a, b in zip(KNOWN_SPHERES, KNOWN_SPHERES[1:6])
    ]


def test_ratio_table_below_radius_two(capsys):
    assert main(["spheres", "--radius", "0", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "n,s_n,b_n,ratio\n0,1,1,\n"
    assert main(["spheres", "--radius", "1"]) == 0
    ratios = json.loads(capsys.readouterr().out)["results"]["ratios"]
    assert ratios == [{"n": 1, "num": 4, "den": 1}]


@pytest.fixture(scope="module")
def ball_10():
    return enumerate_ball(10)


def test_count_spheres_matches_bfs(ball_10):
    for r in range(11):
        assert count_spheres(r) == ball_10.sphere_sizes[: r + 1]


def test_count_spheres_beyond_bfs():
    # s_11..s_13 as BFS gives them (enumerate_ball(13), about 260 MB)
    assert count_spheres(13)[11:] == [156_570, 431_238, 1_180_968]


def test_count_spheres_matches_full_step_oracle():
    # through radius 20, past what BFS reaches, against the counter that
    # runs each leaf as one full step and keeps mirror states apart
    expected = count_oracle.sphere_counts(20)
    for r in range(21):
        assert count_spheres(r, cap=10**12) == expected[: r + 1], r


def _sizes_or_cap(count):
    # the sphere sizes, or the cap error's (cap, completed radius)
    try:
        return count()
    except ResourceCapError as exc:
        return exc.cap, exc.completed_radius


def test_count_spheres_cap_matches_bfs(ball_10):
    # caps at, just below and just above every ball size through radius 8
    balls = ball_10.ball_sizes[:9]
    caps = sorted({0} | {b + k for b in balls for k in (-1, 0, 1)})
    for radius in range(9):
        for cap in caps:
            counted = _sizes_or_cap(lambda: count_spheres(radius, cap))
            searched = _sizes_or_cap(lambda: enumerate_ball(radius, cap).sphere_sizes)
            assert counted == searched, (radius, cap)


def test_count_spheres_cap_edges(ball_10):
    # b_r is the least cap that answers and 2 * 3^r - 1 the least that
    # skips the cap checks
    for radius in range(1, 8):
        b = ball_10.ball_sizes[radius]
        for cap in (b - 1, b, 2 * 3**radius - 2, 2 * 3**radius - 1):
            counted = _sizes_or_cap(lambda: count_spheres(radius, cap))
            searched = _sizes_or_cap(lambda: enumerate_ball(radius, cap).sphere_sizes)
            assert counted == searched, (radius, cap)


def test_count_spheres_stops_near_the_cap(monkeypatch, capsys):
    # caps that first bind at radius 2..18 of a radius-18 count: the error
    # the full count gives, with no truncation past one beyond the first
    # radius whose ball passes the cap
    balls = list(accumulate(count_spheres(18, cap=10**12)))
    truncations = []

    def recorded(reach):
        truncations.append(reach)
        return counter(reach)

    counter = cayley._sphere_counts
    monkeypatch.setattr(cayley, "_sphere_counts", recorded)
    for first in range(2, 19):
        for cap in (balls[first - 1], balls[first] - 1):
            truncations.clear()
            with pytest.raises(ResourceCapError) as exc:
                count_spheres(18, cap)
            assert (exc.value.cap, exc.value.completed_radius) == (cap, first - 1)
            assert max(truncations) <= first + 1, (cap, truncations)
    assert main(["spheres", "--radius", "18", "--cap", str(balls[15])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: element cap {balls[15]} exceeded; completed radius 15\n"


def test_count_spheres_validates_like_bfs():
    for count in (count_spheres, enumerate_ball):
        with pytest.raises(ValueError, match="cap must be nonnegative, got -1"):
            count(-1, cap=-1)  # the cap is checked first
        with pytest.raises(ValueError, match="radius must be nonnegative, got -2"):
            count(-2)


def test_spheres_cap_bounds_the_work(capsys):
    start = time.perf_counter()
    assert main(["spheres", "--radius", "100"]) == 2
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: element cap 10000000 exceeded; completed radius 14\n"
    assert elapsed < 5


def test_count_spheres_radius_limit(monkeypatch, capsys):
    monkeypatch.setattr(cayley, "MAX_COUNT_RADIUS", 5)
    # b_5 = 475 < 2 * 3^5 - 1, so this cap could bind: truncations 1, 2, 4, 5
    assert count_spheres(5, cap=475) == KNOWN_SPHERES[:6]
    assert count_spheres(5) == KNOWN_SPHERES[:6]  # the cap cannot bind: one count
    with pytest.raises(CountLimitError) as exc:
        count_spheres(9, cap=10**12)  # 1, 2, 4, then 8 > 5
    assert (exc.value.limit, exc.value.completed_radius) == (5, 4)
    with pytest.raises(ResourceCapError):
        count_spheres(9, cap=100)  # the cap still answers first
    assert main(["spheres", "--radius", "9", "--cap", str(10**12)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: sphere counts stop at radius 5 (memory); completed radius 4\n"
    )
