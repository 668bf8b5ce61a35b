import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from graph_oracle import diagram_graph
from thompsonf import cli, metric
from thompsonf.cayley import enumerate_ball, neighbors
from thompsonf.diagrams import (
    EPSILON,
    GENERATOR_LETTERS,
    atomic,
    cell_count,
    compose,
    from_word,
    invert,
    leaf_count,
    mul_letter,
)
from thompsonf.metric import (
    DescentLimitError,
    active_vertices,
    greedy_descent,
    is_dead,
    norm,
    special_vertices,
)
from thompsonf.words import parse_word

WORKED = parse_word("x0 x0 x1 x6 x3^-1 x0^-1 x0^-1")

letters = st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from((1, -1)))
words = st.lists(letters, max_size=8).map(tuple)


def test_worked_element():
    d = from_word(WORKED)
    assert cell_count(d) == 7
    assert active_vertices(d) == {0, 1, 3, 5, 6}
    assert special_vertices(d) == {5, 6}
    assert norm(d) == 7 + 2 * 2 == 11


def test_worked_element_graph():
    g = diagram_graph(from_word(WORKED))
    assert g.vertex_count == 9  # 8 leaves, vertices 0..8
    # each single-leaf span contributes a unit arc
    assert all((k, k + 1) in g.arcs for k in range(8))


def test_identity_graph():
    g = diagram_graph(EPSILON)
    assert g.vertex_count == 2
    assert g.arcs == frozenset({(0, 1)})
    assert norm(EPSILON) == 0
    assert active_vertices(EPSILON) == set()


def test_generator_norms():
    # x_i = x0^-(i-1) x1 x0^(i-1) is geodesic: norm 2i-1 for i >= 1
    for i in range(5):
        expected = max(1, 2 * i - 1)
        assert norm(atomic(i)) == expected
        assert norm(invert(atomic(i))) == expected


def _far_from_zero(g):
    # vertices at BFS distance >= 2 from vertex 0 over the arcs
    adjacent = {v: set() for v in range(g.vertex_count)}
    for a, b in g.arcs:
        adjacent[a].add(b)
        adjacent[b].add(a)
    dist = {0: 0}
    queue = [0]
    for v in queue:
        for w in adjacent[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return {v for v in range(g.vertex_count) if dist.get(v, 2) >= 2}


def test_special_vertices_match_bfs_definition():
    # the shortcut in metric._read against the definition, on the radius-6 ball
    for d in enumerate_ball(6)._by_diagram:
        far = _far_from_zero(diagram_graph(d))
        assert special_vertices(d) == active_vertices(d) & far


def test_atomic_x1_active():
    d = atomic(1)
    assert active_vertices(d) == {0, 1}
    assert special_vertices(d) == set()
    assert norm(d) == 1


@given(words)
@settings(max_examples=60)
def test_norm_symmetric_under_inverse(w):
    d = from_word(w)
    assert norm(d) == norm(invert(d))


@given(words)
@settings(max_examples=60)
def test_unit_step(w):
    d = from_word(w)
    n = norm(d)
    for nb in neighbors(d):
        assert abs(norm(nb) - n) == 1


small_words = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1), st.sampled_from((1, -1))),
    max_size=5,
).map(tuple)


@pytest.fixture(scope="module")
def ball_5():
    return enumerate_ball(5)


@pytest.fixture(scope="module")
def ball_9():
    return enumerate_ball(9)


@given(w=small_words)
@settings(max_examples=40, deadline=None)
def test_norm_matches_bfs(ball_5, w):
    d = from_word(w)
    assert norm(d) == ball_5.distance(d)  # a word of at most 5 letters is in the ball


@pytest.mark.parametrize(
    "text",
    ["x2 x1^-1 x0", "x0 x0 x1 x2^-1", "x3 x0^-1", "x1 x1 x0^-1 x1^-1"],
)
def test_norm_matches_bfs_mixed(ball_9, text):
    d = from_word(parse_word(text))
    assert norm(d) == ball_9.distance(d)


def test_dead_element():
    d = from_word(WORKED)
    assert is_dead(d)
    assert all(norm(nb) == 10 for nb in neighbors(d))


def test_generators_not_dead():
    for i in range(3):
        assert not is_dead(atomic(i))


def test_is_dead_rejects_identity():
    with pytest.raises(ValueError):
        is_dead(EPSILON)


@given(words)
@settings(max_examples=40)
def test_greedy_descent_is_geodesic(w):
    d = from_word(w)
    g = greedy_descent(d)
    assert len(g) == norm(d)
    assert from_word(g) == d


def test_greedy_descent_identity():
    assert greedy_descent(EPSILON) == ()


def test_leaves_bound_norm(ball_9):
    # greedy_descent refuses without reading the norm on leaves <= 2 norm + 4
    for d, r in ball_9._by_diagram.items():
        assert leaf_count(d) <= 2 * r + 4, d
    for k in range(40):
        for s in (1, -1):
            d = from_word(((k, s),))
            assert leaf_count(d) <= 2 * norm(d) + 4, d


def test_descent_work_cap(monkeypatch):
    d = from_word(WORKED)
    work = norm(d) * len(d)
    monkeypatch.setattr(metric, "MAX_DESCENT_WORK", work)
    assert len(greedy_descent(d)) == norm(d)
    monkeypatch.setattr(metric, "MAX_DESCENT_WORK", work - 1)
    with pytest.raises(DescentLimitError, match=f"work cap of {work - 1} "):
        greedy_descent(d)
    # far past the cap, the leaf count alone refuses: no norm read
    monkeypatch.setattr(metric, "norm", None)
    with pytest.raises(DescentLimitError):
        greedy_descent(from_word(((20000, 1),)))


def _plain_descent(d):
    # the same descent without the skip: every letter is tried at every step
    steps = []
    n = metric.norm(d)
    while n > 0:
        for letter in GENERATOR_LETTERS:
            candidate = mul_letter(d, *letter)
            if metric.norm(candidate) < n:
                steps.append(letter)
                d = candidate
                n -= 1
                break
    return tuple((k, -s) for k, s in reversed(steps))


def test_greedy_descent_skips_the_undoing_letter(monkeypatch):
    # the same words as the descent by full norm reads, from one norm read
    rng = random.Random(7)
    calls = []

    def counted(d):
        calls.append(d)
        return norm(d)

    monkeypatch.setattr(metric, "norm", counted)
    for length in (10, 25, 40, 60, 80, 100):
        d = from_word(tuple((rng.randint(0, 3), rng.choice((1, -1))) for _ in range(length)))
        expected = _plain_descent(d)
        del calls[:]
        assert greedy_descent(d) == expected
        assert calls == [d]


def test_descent_splits_the_top_only_as_far_as_it_reads(monkeypatch):
    # x0^-n and x1^-n read past the last top leaf, or test a bridge with
    # no caret to its right: no step splits the top forest.  x0^n reads
    # top leaves 0 and 1 (a dipole at leaf 0)
    longest = [0]

    class Recorded(metric._TopLeaves):
        def piece(self, v):
            found = super().piece(v)
            longest[0] = max(longest[0], len(self.pieces))
            return found

    monkeypatch.setattr(metric, "_TopLeaves", Recorded)
    for letter, split in (((0, -1), 0), ((1, -1), 0), ((0, 1), 2)):
        longest[0] = 0
        assert greedy_descent(from_word((letter,) * 500)) == (letter,) * 500
        assert longest[0] == split, letter


def _deltas_by_norm(d):
    n = norm(d)
    return tuple(norm(mul_letter(d, k, s)) - n for k, s in GENERATOR_LETTERS)


def test_norm_deltas_match_norm_on_ball_8():
    for d in enumerate_ball(8)._by_diagram:
        deltas = _deltas_by_norm(d)
        assert tuple(metric._norm_deltas(d)) == deltas, d
        if d != EPSILON:
            assert is_dead(d) == (deltas == (-1, -1, -1, -1)), d


@given(
    st.integers(min_value=100, max_value=1500),
    st.integers(min_value=0, max_value=20),
    st.randoms(use_true_random=False),
)
# shrinking 1500-letter words takes minutes; the failing diagram is in
# the assertion message either way
@settings(max_examples=30, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_norm_deltas_match_norm_on_long_words(length, top_index, rng):
    d = from_word(tuple((rng.randint(0, top_index), rng.choice((1, -1))) for _ in range(length)))
    for _ in range(3):
        assert tuple(metric._norm_deltas(d)) == _deltas_by_norm(d), d
        d = mul_letter(d, rng.randint(0, 1), rng.choice((1, -1)))


def _branch(d, k, s):
    # the mul_letter branch that d * x_k^s takes, read off the shape of d
    top, _, bottom = d.partition("|")
    trees = bottom.split(",")
    padded = " padded" if len(trees) < k + (1 if s == 1 else 2) else ""
    trees += ["L"] * 3
    if s == 1:
        if trees[k] == "L":
            return "split" + padded
        return "removal a=1" if trees[k].startswith("(L") else "removal a>1"
    p = sum(t.count("L") for t in trees[:k])
    before = ("," + top).split("L")  # what precedes each top leaf
    if (
        trees[k] == trees[k + 1] == "L"
        and p + 2 < len(before)
        and before[p].endswith("(")
        and before[p + 1] == ""
    ):
        return "dipole under a caret" if before[p].endswith("((") else "dipole"
    return "join" + padded


@pytest.mark.parametrize(
    "word, letter, branch, delta",
    [
        # x0: leaf split at p = 0, root removals, s0 far or near
        ("x0", (0, 1), "split", 1),
        ("", (0, 1), "split", 1),
        ("x0^-1", (0, 1), "removal a=1", -1),
        ("x2 x0^-1", (0, 1), "removal a=1", 1),
        ("x3 x1^-1 x0^-1", (0, 1), "removal a=1", 1),
        ("x0^-1 x0^-1", (0, 1), "removal a>1", -1),
        ("x3 x0^-1 x0^-1", (0, 1), "removal a>1", 1),
        ("x4 x2^-1 x0^-1 x0^-1", (0, 1), "removal a>1", 1),
        # x0^-1: dipoles at 0, joins, w special or not
        ("x0", (0, -1), "dipole", -1),
        ("x0 x0", (0, -1), "dipole under a caret", -1),
        ("x1", (0, -1), "join", 1),
        ("x2", (0, -1), "join", -1),
        ("x0^-1", (0, -1), "join padded", 1),
        # x1: leaf split at p = s0 > 0, root removals, bridge at s0 + a
        ("x1", (1, 1), "split", 1),
        ("x0^-1", (1, 1), "split padded", 1),
        ("x1^-1", (1, 1), "removal a=1", -1),
        ("x3 x1^-1", (1, 1), "removal a=1", 1),
        ("x0 x2^-1 x1^-1", (1, 1), "removal a=1", -1),
        ("x1^-1 x1^-1", (1, 1), "removal a>1", -1),
        ("x4 x1^-1 x1^-1", (1, 1), "removal a>1", 1),
        # x1^-1: dipoles at s0, joins, a bridge at w ending or not
        ("x1", (1, -1), "dipole", -1),
        ("x1 x1", (1, -1), "dipole under a caret", -1),
        ("x0 x2", (1, -1), "join", 1),
        ("x3", (1, -1), "join", -1),
        ("x0^-1", (1, -1), "join padded", 1),
        ("x0 x1^-1", (1, -1), "join padded", 1),
    ],
)
def test_norm_delta_branches(word, letter, branch, delta):
    d = from_word(parse_word(word))
    assert _branch(d, *letter) == branch
    deltas = dict(zip(GENERATOR_LETTERS, metric._norm_deltas(d)))
    assert deltas[letter] == norm(mul_letter(d, *letter)) - norm(d) == delta


@pytest.mark.parametrize("wrong", [-1, 1])
def test_corrupted_delta_prints_no_word(monkeypatch, capsys, wrong):
    # every letter claimed to descend walks off the geodesics; none
    # claimed leaves no step: either way no word comes out
    monkeypatch.setattr(metric, "_norm_deltas", lambda d: iter((wrong,) * 4))
    with pytest.raises(AssertionError):
        cli.main(["geodesic", "x0 x1 x3^-1"])
    assert capsys.readouterr().out == ""


def test_norm_triangle_inequality():
    u = from_word(parse_word("x0 x1"))
    v = from_word(parse_word("x1^-1 x0 x0"))
    assert norm(compose(u, v)) <= norm(u) + norm(v)
