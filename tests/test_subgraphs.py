import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flow_oracle
import thompsonf.subgraphs as sg
from thompsonf.cayley import enumerate_ball, neighbors
from thompsonf.diagrams import EPSILON, GENERATOR_LETTERS, atomic, from_word, mul_letter
from thompsonf.words import parse_word


def elems(*texts):
    return [from_word(parse_word(t)) for t in texts]


def b1_adjacency(y):
    # per vertex, the B1-vertices at distance <= 1 that it claims, as
    # diagrams: its four neighbours in letter order, then itself last
    b1, table = y._numbered
    names = list(b1)
    return {d: [names[u] for u in (*near, v)] for v, (d, near) in enumerate(zip(y.vertices, table))}


def test_single_vertex():
    y = sg.full_subgraph([EPSILON])
    assert y.size == 1
    assert y.edge_count == 0
    assert sg.density(y) == 0
    assert sg.q_value(y) == 3
    assert sg.min_degree(y) == 0
    assert len(sg.boundary(y)) == 4


def test_two_vertex_edge():
    y = sg.full_subgraph(elems("", "x0"))
    assert y.size == 2
    assert y.edges == frozenset({(EPSILON, atomic(0), 0)})
    assert sg.density(y) == 1
    assert sg.q_value(y) == 4
    assert len(sg.boundary(y)) == 6


def test_duplicates_collapse():
    y = sg.full_subgraph(elems("", "x0", "x1 x1^-1"))
    assert y.size == 2


def test_path_graph_density():
    # x0-chain of length 5: 5 vertices, 4 edges
    y = sg.full_subgraph(elems("", "x0", "x0 x0", "x0 x0 x0", "x0 x0 x0 x0"))
    assert y.edge_count == 4
    assert sg.density(y) == Fraction(8, 5)
    assert sg.min_degree(y) == 1


def test_square_is_not_in_cayley_graph():
    # x0 x1 and x1 x0 differ, so {e, x0, x1, x0 x1} carries exactly 3 edges
    y = sg.full_subgraph(elems("", "x0", "x1", "x0 x1"))
    assert y.edge_count == 3


def test_q_is_three_v_minus_two_e():
    rng = random.Random(7)
    pool = list(enumerate_ball(3)._by_diagram)
    for _ in range(30):
        size = rng.randint(1, 20)
        y = sg.full_subgraph(rng.sample(pool, size))
        assert sg.q_value(y) == 3 * y.size - 2 * y.edge_count
        assert (sg.density(y) <= 3) == (sg.q_value(y) >= 0)


def test_folner_sandwich_random():
    rng = random.Random(11)
    pool = list(enumerate_ball(3)._by_diagram)
    for _ in range(20):
        y = sg.full_subgraph(rng.sample(pool, rng.randint(1, 25)))
        lower, middle, upper = sg.folner_inequalities(y)  # asserts internally
        assert lower <= middle <= upper
        assert lower == Fraction(len(sg.boundary(y)), y.size)


def test_boundary_by_hand():
    y = sg.full_subgraph(elems("", "x0"))
    expected = set(elems("x0^-1", "x1", "x1^-1", "x0 x0", "x0 x1", "x0 x1^-1"))
    assert sg.boundary(y) == expected


def test_doubling_and_matching_on_random_sets():
    rng = random.Random(23)
    pool = list(enumerate_ball(3)._by_diagram)
    for _ in range(15):
        y = sg.full_subgraph(rng.sample(pool, rng.randint(1, 25)))
        report = sg.doubling_check(y)
        assert report.b1_size == y.size + len(sg.boundary(y))
        assert report.holds  # no known finite subset violates doubling
        result = sg.two_one_matching(y)
        assert result.witness is None
        assignment = result.assignment
        assert assignment is not None
        adjacency = b1_adjacency(y)
        counts = {k: 0 for k in y.vertices}
        for uk, yk in assignment.items():
            assert uk in adjacency[yk]
            counts[yk] += 1
        assert all(c == 2 for c in counts.values())


def test_matching_witness_on_synthetic_obstruction():
    # three vertices forced to share two service vertices: Hall fails on
    # the pair that only reaches "c"; the witness is every vertex reachable
    # by alternating paths from one left short, which is the same for every
    # maximum assignment, so no input order changes it.  The search core
    # runs on numbers: Y-vertex i is B1-vertex i, and a, b, c follow
    fake = {
        "k0": ["k0", "a", "b"],
        "k1": ["c"],
        "k2": ["c"],
    }
    for order in itertools.permutations(fake):
        number = {**{d: i for i, d in enumerate(order)}, "a": 3, "b": 4, "c": 5}
        claims = [[number[u] for u in fake[d]] for d in order]
        holder, stuck = sg._claim_two(claims, len(number))
        witness = {d for d, s in zip(order, stuck) if s}
        assert witness == {"k1", "k2"}
    served = {u for yk in witness for u in fake[yk]}
    assert len(served) < 2 * len(witness)


def test_matching_witness_names_the_short_vertices():
    # five vertices whose four neighbours are the same four boundary
    # vertices reach 9 B1-vertices, one short of 10: the numbering is
    # seeded, so every vertex is reachable from the one left short
    five = elems("", "x0", "x1", "x0 x0", "x0 x1")
    y = sg.full_subgraph(five)
    b1 = {**dict(zip(five, range(5))), **{f"b{j}": 5 + j for j in range(4)}}
    vars(y)["_numbered"] = (b1, [(5, 6, 7, 8)] * 5)
    result = sg.two_one_matching(y)
    assert result.assignment is None
    assert result.witness == set(five)


BALL4 = list(enumerate_ball(4)._by_diagram)


def _agrees_with_flow_oracle(vertices, adjacency, assignment, witness):
    expected_assignment, expected_witness = flow_oracle.two_one_matching(vertices, adjacency)
    assert (assignment is None) == (expected_assignment is None)
    assert witness == expected_witness
    if assignment is not None:
        # each Y-vertex gets exactly two distinct B1-vertices within distance 1
        served = dict.fromkeys(vertices, 0)
        for u, d in assignment.items():
            assert u in adjacency[d]
            served[d] += 1
        assert set(served.values()) == {2}


@given(st.lists(st.sampled_from(BALL4), min_size=1, max_size=40, unique=True))
@settings(max_examples=60, deadline=None)
def test_matching_agrees_with_flow_oracle_on_ball(chosen):
    y = sg.full_subgraph(chosen)
    result = sg.two_one_matching(y)
    _agrees_with_flow_oracle(y.vertices, b1_adjacency(y), *result)


@given(st.lists(st.lists(st.integers(0, 11), max_size=4), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_matching_agrees_with_flow_oracle_on_fake_adjacency(claims):
    # fed to the search core: B1-vertex k < #Y is the Y-vertex k itself,
    # any other k a vertex outside Y
    fake = [list(dict.fromkeys(near)) for near in claims]
    holder, stuck = sg._claim_two(fake, 12)
    if any(stuck):
        assignment, witness = None, {v for v, s in enumerate(stuck) if s}
    else:
        assignment, witness = {j: v for j, v in enumerate(holder) if v >= 0}, None
    _agrees_with_flow_oracle(range(len(fake)), dict(enumerate(fake)), assignment, witness)


def test_subgraph_ignores_vertex_order():
    rng = random.Random(31)
    pool = list(enumerate_ball(3)._by_diagram)
    for _ in range(10):
        chosen = rng.sample(pool, rng.randint(1, 25))
        shuffled = rng.sample(chosen, len(chosen))
        y, z = sg.full_subgraph(chosen), sg.full_subgraph(shuffled)
        assert list(z.vertices) == shuffled
        assert y.edges == z.edges
        assert sg.boundary(y) == sg.boundary(z)
        assert sg.doubling_check(y) == sg.doubling_check(z)
        assert (sg.two_one_matching(y).assignment is None) == (
            sg.two_one_matching(z).assignment is None
        )


def test_empty_subgraph_rejected():
    y = sg.full_subgraph([EPSILON])
    object.__setattr__(y, "vertices", {})
    for check in (sg.density, sg.folner_inequalities, sg.min_degree):
        with pytest.raises(ValueError):
            check(y)


def test_neighbour_table_stores_each_element_once():
    # in the ball of radius 2 most neighbours are vertices, and many
    # boundary elements neighbour several vertices; each is numbered
    # once, the vertices first in their own order and as the same objects
    y = sg.full_subgraph(enumerate_ball(2)._by_diagram)
    b1, table = y._numbered
    assert list(b1.values()) == list(range(len(b1)))
    assert all(u is d for u, d in zip(b1, y.vertices))
    names = list(b1)
    for d, near in zip(y.vertices, table):
        assert [names[u] for u in near] == [mul_letter(d, k, s) for k, s in GENERATOR_LETTERS]
    assert set(names[y.size:]) == sg.boundary(y)
    assert len(b1) == y.size + len(sg.boundary(y))


def test_neighbour_table_multiplies_each_inner_edge_once(monkeypatch):
    # x0 and x1 for every vertex v; x_k^-1 only where no vertex u of the
    # set has u * x_k = v, so each edge inside the set is one product
    calls = [0]
    real = sg.mul_letter

    def counted(d, k, s):
        calls[0] += 1
        return real(d, k, s)

    rng = random.Random(47)
    for size in (1, 2, 10, 60, len(BALL4)):
        chosen = rng.sample(BALL4, size)
        expected = {d: neighbors(d) for d in chosen}  # four products each
        missing = sum(near[i] not in expected for near in expected.values() for i in (1, 3))
        calls[0] = 0
        with monkeypatch.context() as patch:
            patch.setattr(sg, "mul_letter", counted)
            y = sg.full_subgraph(chosen)
            b1, table = y._numbered
        names = list(b1)
        assert {d: tuple(names[u] for u in near) for d, near in zip(y.vertices, table)} == expected
        assert calls[0] == 2 * size + missing
