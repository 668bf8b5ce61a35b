"""Acceptance suite: ten desk-scale criteria, one pass/fail line each.

Each test records its verdict through the verdict fixture (conftest
replays the lines in a terminal summary section), then asserts.
Expected total runtime is well under two minutes on commodity hardware;
the rank-12 gamma checks of criterion 6 are the long pole.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import language_oracle
from thompsonf import cayley, growth, metric, subgraphs
from thompsonf.diagrams import (
    EPSILON,
    atomic,
    cell_count,
    compose,
    from_normal_form,
    from_word,
    to_normal_form,
    validate_normal_form,
)
from thompsonf.diagrams import NormalForm, NormalFormError
from thompsonf.gamma import (
    catalan,
    closed_a,
    closed_b,
    closed_nu,
    column_partition,
    density_bar_closed,
    fullness_check,
    bar,
    gamma,
    gamma_nm_concrete,
)
from thompsonf.plmaps import ZERO, PLMap, compose_pl, from_word_pl, generator_map
from thompsonf.words import inverse_word, parse_word

PUBLISHED_SPHERES = [1, 4, 12, 36, 108, 314, 906, 2576, 7280, 20352]
PUBLISHED_COUNTS = [1, 4, 12, 34, 92, 244, 642, 1684, 4412, 11554]
WORKED = parse_word("x0 x0 x1 x6 x3^-1 x0^-1 x0^-1")


@pytest.fixture(scope="module")
def ball9():
    return cayley.enumerate_ball(9)


def test_criterion_01_sphere_series(ball9, verdict):
    ok = ball9.sphere_sizes == PUBLISHED_SPHERES
    verdict(1, ok, f"sphere sizes through radius 9 = {ball9.sphere_sizes}")


def test_criterion_02_norm_oracle(ball9, verdict):
    inside = [(d, r) for d, r in ball9._by_diagram.items() if r <= 8]
    size_ok = len(inside) == 11237
    mismatches = sum(1 for d, r in inside if metric.norm(d) != r)
    ok = size_ok and mismatches == 0
    verdict(
        2,
        ok,
        f"norm = BFS distance on all {len(inside)} elements of the radius-8 "
        f"ball, {mismatches} mismatches",
    )


def test_criterion_03_dead_vertex(verdict):
    d = from_word(WORKED)
    norm_ok = metric.norm(d) == 11
    neighbor_norms = [metric.norm(nb) for nb in cayley.neighbors(d)]
    neighbors_ok = neighbor_norms == [10, 10, 10, 10]
    found = cayley.dead_search(10)
    ok = norm_ok and neighbors_ok and found == []
    verdict(
        3,
        ok,
        f"worked element has norm 11, neighbor norms {neighbor_norms}, "
        f"no dead element of norm <= 10",
    )


def test_criterion_04_growth_language(verdict):
    series_ok = growth.series(9) == PUBLISHED_COUNTS
    brute_ok = language_oracle.bruteforce_series(12) == growth.series(12)
    c = growth.series(60)
    recurrence_ok = all(c[n] == 4 * c[n - 1] - 4 * c[n - 2] + c[n - 3] for n in range(4, 61))
    golden = (3 + math.sqrt(5)) / 2
    rate = c[40] / c[39]
    rate_ok = abs(rate - golden) < 1e-6
    ok = series_ok and brute_ok and recurrence_ok and rate_ok
    verdict(
        4,
        ok,
        f"c_0..c_9 match, brute force agrees to n = 12, recurrence holds to "
        f"n = 60, c_40/c_39 = {rate:.10f} vs (3+sqrt5)/2 = {golden:.10f}",
    )


def test_criterion_05_language_vs_ball(ball9, verdict):
    language_total = sum(growth.series(9))
    ball_total = ball9.ball_sizes[9]
    ok = language_total == 18679 and ball_total == 31589 and language_total <= ball_total
    verdict(5, ok, f"sum of c_i for i <= 9 is {language_total} <= b_9 = {ball_total}")


def test_criterion_06_gamma_family(verdict):
    rows_ok = True
    for n in range(2, 13):
        g = gamma(n)
        ranks = Counter(g.ranks())
        labels = Counter(label for _, _, label in g.edges)
        rows_ok = (
            rows_ok
            and [ranks.get(k, 0) for k in range(1, n + 1)]
            == [closed_a(n, k) for k in range(1, n + 1)]
            and [labels.get(k, 0) for k in range(0, n + 1)]
            == [closed_b(n, k) for k in range(0, n + 1)]
            and g.vertex_count == catalan(n)
            and bar(g).density() == density_bar_closed(n)
        )
    nu_ok = True
    for n in range(5, 13):
        hist = Counter(bar(gamma(n)).degrees())
        nu_ok = (
            nu_ok
            and sorted(hist) == [2, 3, 4]
            and hist == {d: closed_nu(n, d) for d in (2, 3, 4)}
            and sum(hist.values()) == catalan(n)
        )
    ok = rows_ok and nu_ok
    verdict(
        6,
        ok,
        "a-rows, b-rows, Catalan totals and exact densities for n = 2..12; "
        "degree histograms {2,3,4} match closed forms for n = 5..12",
    )


def test_criterion_07_concrete_family(verdict):
    g = gamma_nm_concrete(4, 100)
    dens = subgraphs.density(g.subgraph())
    target = Fraction(18, 7)
    density_ok = abs(dens - target) <= Fraction(1, 20)
    columns = column_partition(g)
    interior = {rho for _, rho in columns[1:-1]}
    interior_ok = len(interior) == 1
    full_ok = fullness_check(g)
    ok = density_ok and interior_ok and full_ok
    verdict(
        7,
        ok,
        f"density of the concrete n=4, m=100 family is {float(dens):.4f} "
        f"(target 18/7 = {float(target):.4f}, tolerance 0.05), interior "
        f"column averages all equal, fullness verified",
    )


def _random_connected_subsets(count, rng):
    table = cayley.enumerate_ball(6)
    members = table._by_diagram
    pool = list(members)
    subsets = []
    for _ in range(count):
        start = rng.choice(pool)
        chosen = {start}
        frontier = [start]
        target = rng.randint(1, 40)
        while len(chosen) < target and frontier:
            base = rng.choice(frontier)
            options = [
                nb
                for nb in cayley.neighbors(base)
                if nb in members and nb not in chosen
            ]
            if not options:
                frontier.remove(base)
                continue
            pick = rng.choice(options)
            chosen.add(pick)
            frontier.append(pick)
        subsets.append(subgraphs.full_subgraph(chosen))
    return subsets


def test_criterion_08_subgraph_identities(verdict):
    rng = random.Random(20260819)
    family = [
        gamma_nm_concrete(n, m).subgraph()
        for n in (2, 3, 4)
        for m in (2, 6, 12)
    ]
    family.append(gamma_nm_concrete(4, 100).subgraph())
    tested = _random_connected_subsets(200, rng) + family
    ok = True
    for y in tested:
        ok = ok and (subgraphs.density(y) <= 3) == (subgraphs.q_value(y) >= 0)
        lower, middle, upper = subgraphs.folner_inequalities(y)
        ok = ok and lower <= middle <= upper
        ok = ok and subgraphs.min_degree(y) <= 2
        doubling = subgraphs.doubling_check(y)
        matching = subgraphs.two_one_matching(y)
        if doubling.holds:
            ok = ok and matching.assignment is not None
    verdict(
        8,
        ok,
        f"density/q sign agreement, isoperimetric sandwich, min degree <= 2 "
        f"and (2,1)-matchings on {len(tested)} subgraphs "
        f"(200 random connected + {len(family)} concrete family)",
    )


def _random_word(rng, max_len, max_sub=3):
    length = rng.randint(0, max_len)
    return tuple(
        (rng.randint(0, max_sub), rng.choice((1, -1))) for _ in range(length)
    )


def test_criterion_09_representation_coherence(verdict):
    rng = random.Random(97)
    pairs = []
    for _ in range(300):
        pairs.append((_random_word(rng, 10), _random_word(rng, 10)))
    # pairs equal by construction: a relation instance spliced into context
    for _ in range(100):
        u = _random_word(rng, 4)
        v = _random_word(rng, 4)
        i = rng.randint(0, 5)
        j = rng.randint(i + 1, 6)
        left = u + ((j, 1), (i, 1)) + v
        right = u + ((i, 1), (j + 1, 1)) + v
        pairs.append((left, right))
    # pairs equal by construction: a word and its normal form
    for _ in range(100):
        w = _random_word(rng, 10)
        nf = to_normal_form(from_word(w))
        spelled = tuple((k, 1) for k in nf.pos) + tuple(
            (k, -1) for k in reversed(nf.neg)
        )
        pairs.append((w, spelled))
    mismatches = sum(
        1
        for u, v in pairs
        if (from_word_pl(u) == from_word_pl(v)) != (from_word(u) == from_word(v))
    )
    relators_ok = True
    for conj_a, conj_b in (("x0 x0", "x0 x1"), ("x0 x0 x0", "x0 x0 x1")):
        lhs = inverse_word(parse_word(conj_a)) + parse_word("x1") + parse_word(conj_a)
        rhs = inverse_word(parse_word(conj_b)) + parse_word("x1") + parse_word(conj_b)
        relator = lhs + inverse_word(rhs)
        relators_ok = (
            relators_ok
            and from_word(relator) == EPSILON
            and from_word_pl(relator) == PLMap(((ZERO, ZERO),), 0)
        )
    relation_ok = True
    for i in range(7):
        for j in range(i + 1, 7):
            relation_ok = (
                relation_ok
                and compose(atomic(j), atomic(i)) == compose(atomic(i), atomic(j + 1))
                and compose_pl(generator_map(j), generator_map(i))
                == compose_pl(generator_map(i), generator_map(j + 1))
            )
    ok = mismatches == 0 and relators_ok and relation_ok
    verdict(
        9,
        ok,
        f"diagram equality = PL equality on {len(pairs)} word pairs "
        f"({mismatches} mismatches), both relators trivial in both "
        f"representations, x_j x_i = x_i x_(j+1) for 0 <= i < j <= 6",
    )


def _random_normal_form(rng):
    while True:
        total = rng.randint(0, 12)
        split = rng.randint(0, total)
        pos = tuple(sorted(rng.randint(0, 7) for _ in range(split)))
        neg = tuple(sorted(rng.randint(0, 7) for _ in range(total - split)))
        nf = NormalForm(pos, neg)
        try:
            validate_normal_form(nf)
        except NormalFormError:
            continue
        return nf


def test_criterion_10_normal_forms(verdict):
    rng = random.Random(4242)
    failures = 0
    for _ in range(1000):
        nf = _random_normal_form(rng)
        d = from_normal_form(nf)
        if to_normal_form(d) != nf or cell_count(d) != len(nf.pos) + len(nf.neg):
            failures += 1
    worked = to_normal_form(from_word(WORKED))
    worked_ok = worked.pos == (0, 0, 1, 6) and worked.neg == (0, 0, 3)
    ok = failures == 0 and worked_ok
    verdict(
        10,
        ok,
        f"1000 random normal forms of length <= 12 round-trip with cell "
        f"count = length ({failures} failures); worked element reads "
        f"pos = {list(worked.pos)}, neg = {list(worked.neg)}",
    )
