import importlib
from fractions import Fraction
from math import factorial

import pytest

from thompsonf.diagrams import atomic, from_word, mul_letter
from thompsonf.gamma import (
    ConstructionError,
    LabeledGraph,
    SizeLimitError,
    apply_A,
    bar,
    catalan,
    closed_a,
    closed_b,
    closed_nu,
    column_partition,
    degree_histogram,
    density_bar_closed,
    edge_label_counts,
    fullness_check,
    gamma,
    gamma_nm_concrete,
    monomial_shape_ok,
    psi,
    rank_counts,
    xi_path,
    xi_single,
)
from thompsonf.cli import main
from thompsonf.subgraphs import density
from thompsonf.words import parse_word

# the package exports the function gamma under the module's name
gamma_module = importlib.import_module("thompsonf.gamma")


def a_row(n):
    counts = rank_counts(gamma(n))
    return [counts.get(k, 0) for k in range(1, n + 1)]


def b_row(n):
    counts = edge_label_counts(gamma(n))
    return [counts.get(k, 0) for k in range(0, n + 1)]


def test_seed_graphs():
    assert xi_single(1) == LabeledGraph(1, ((0, 0, 1),))
    assert xi_path(2, 3) == LabeledGraph(4, ((1, 0, 2), (2, 1, 2), (3, 2, 2)))
    with pytest.raises(ValueError):
        xi_single(0)
    with pytest.raises(ValueError):
        xi_path(1, 0)


def test_psi_shifts_labels():
    g = psi(xi_single(1))
    assert g == LabeledGraph(1, ((0, 0, 2),))


def test_gamma_two_structure():
    g = gamma(2)
    assert g.vertex_count == 2
    assert set(g.edges) == {(1, 0, 0), (0, 0, 2), (1, 1, 1)}
    assert rank_counts(g) == {1: 1, 2: 1}
    assert edge_label_counts(g) == {0: 1, 1: 1, 2: 1}


def test_apply_A_needs_high_ranks():
    with pytest.raises(ValueError):
        apply_A(1, xi_single(1))


def test_apply_A_rejects_a_negative_level():
    # every rank and label of xi_single(1) is above -1, but x_{-1} is no generator
    with pytest.raises(ValueError, match=r"^apply_A\(-1\) needs a level of at least 0$"):
        apply_A(-1, xi_single(1))


def test_apply_A_rejects_a_low_edge():
    # both ranks are 3, above 1, but the edge labelled 1 has no column
    g = LabeledGraph(2, ((1, 0, 3), (1, 0, 1)))
    with pytest.raises(ValueError, match=r"^edge labelled 1 cannot survive apply_A\(1\)$"):
        apply_A(1, g)


@pytest.mark.parametrize(
    "func, args",
    [
        (gamma, (0,)),
        (closed_a, (3, 0)),
        (closed_a, (3, 4)),
        (closed_b, (3, -1)),
        (closed_b, (3, 4)),
        (density_bar_closed, (1,)),
    ],
)
def test_out_of_range_arguments_raise(func, args):
    with pytest.raises(ValueError):
        func(*args)


def test_vertex_totals_are_catalan():
    for n in range(1, 9):
        assert gamma(n).vertex_count == catalan(n)


def test_a_rows_match_closed_form():
    for n in range(1, 9):
        assert a_row(n) == [closed_a(n, k) for k in range(1, n + 1)]


def test_b_rows_match_closed_form():
    for n in range(1, 9):
        assert b_row(n) == [closed_b(n, k) for k in range(0, n + 1)]
    assert closed_b(1, 0) == 0
    assert closed_b(1, 1) == 1


def test_b_first_two_agree():
    for n in range(2, 10):
        # the paper's b_n0 = b_n1 = 3 (2n-2)! / ((n-2)! (n+1)!), a whole number
        first_two = Fraction(3 * factorial(2 * n - 2), factorial(n - 2) * factorial(n + 1))
        assert closed_b(n, 0) == closed_b(n, 1) == first_two


def test_row_recursions():
    # next a-row: first two entries both sum the current a-row
    for n in range(1, 8):
        a_now, a_next = a_row(n), a_row(n + 1)
        assert a_next[0] == a_next[1] == sum(a_now)
        b_now, b_next = b_row(n), b_row(n + 1)
        assert b_next[0] == sum(k * a for k, a in enumerate(a_now, start=1))
        for i in range(1, n + 2):
            assert b_next[i] == sum(b_now[max(0, i - 1):])


def test_density_measured_equals_closed():
    for n in range(2, 9):
        assert bar(gamma(n)).density() == density_bar_closed(n) == Fraction(
            6 * (n - 1), 2 * n - 1
        )


def test_degree_histograms():
    assert degree_histogram(bar(gamma(5))) == {2: 15, 3: 26, 4: 1}
    assert degree_histogram(bar(gamma(6))) == {2: 42, 3: 84, 4: 6}
    for n in range(5, 9):
        hist = degree_histogram(bar(gamma(n)))
        assert sorted(hist) == [2, 3, 4]
        assert hist == {d: closed_nu(n, d) for d in (2, 3, 4)}
        assert sum(hist.values()) == catalan(n)


def test_closed_nu_validates():
    with pytest.raises(ValueError):
        closed_nu(4, 2)
    with pytest.raises(ValueError):
        closed_nu(6, 5)


def test_concrete_small():
    g = gamma_nm_concrete(2, 2)
    assert g.size == 3 * catalan(2) == 6
    assert fullness_check(g)
    assert monomial_shape_ok(g)
    assert sorted(set(g.origin.values())) == [0, 1, 2]
    columns = column_partition(g)
    assert [size for size, _ in columns] == [catalan(2)] * 3


def test_concrete_columns_and_density():
    g = gamma_nm_concrete(3, 4)
    assert g.size == 5 * catalan(3) == 25
    columns = column_partition(g)
    assert [size for size, _ in columns] == [catalan(3)] * 5
    interior = {rho for _, rho in columns[1:-1]}
    assert len(interior) == 1
    # the size-weighted mean of the column averages is the bar density
    total = sum(size * rho for size, rho in columns)
    assert Fraction(total, g.size) == density(g.subgraph())
    assert fullness_check(g)
    assert monomial_shape_ok(g)


def test_concrete_interior_matches_limit():
    # interior columns already achieve the limiting density of the family
    g = gamma_nm_concrete(3, 4)
    _, rho = column_partition(g)[1]
    assert rho == density_bar_closed(3)


def test_concrete_validates():
    with pytest.raises(ValueError):
        gamma_nm_concrete(1, 3)
    with pytest.raises(ValueError):
        gamma_nm_concrete(2, 0)


def test_concrete_edges_have_recorded_direction():
    g = gamma_nm_concrete(2, 2)
    names = list(g.origin)
    assert g.graph.vertex_count == g.size
    for u, v, label in g.graph.edges:
        assert 0 <= label <= 2
        assert mul_letter(names[u], label, 1) == names[v]


def _without_edge(g, edge):
    assert edge in g.graph.edges
    edges = tuple(e for e in g.graph.edges if e != edge)
    return g._replace(graph=LabeledGraph(g.graph.vertex_count, edges))


def test_fullness_check_catches_missing_edge():
    g = gamma_nm_concrete(2, 2)
    with pytest.raises(ConstructionError):
        fullness_check(_without_edge(g, g.graph.edges[0]))


def test_fullness_error_names_the_vertex_by_word():
    g = gamma_nm_concrete(2, 2)
    names = list(g.origin)
    u, v = names.index(from_word(parse_word("x2^-1"))), names.index(from_word(()))
    tampered = _without_edge(g, (u, v, 2))
    with pytest.raises(ConstructionError, match=r"^fullness violated at 'x2\^-1' under x2$"):
        fullness_check(tampered)


@pytest.mark.parametrize("k", [3, 4])
def test_fullness_check_catches_an_edge_past_n(k):
    # x_k, k = n+1 or n+2, joins the vertex set of Gamma_{2,2}; no edge
    # is recorded above x2, but the identity reaches x_k by x_k
    g = gamma_nm_concrete(2, 2)
    tampered = g._replace(origin={**g.origin, atomic(k): 0})
    with pytest.raises(ConstructionError, match=rf"^fullness violated at '' under x{k}$"):
        fullness_check(tampered)


def test_fullness_check_catches_a_recorded_edge_that_leaves_the_set():
    # the identity times x0 is x0, which is not a vertex of Gamma_{2,2}
    g = gamma_nm_concrete(2, 2)
    bogus = LabeledGraph(g.graph.vertex_count, g.graph.edges + ((0, 0, 0),))
    with pytest.raises(ConstructionError, match=r"^fullness violated at '' under x0$"):
        fullness_check(g._replace(graph=bogus))


@pytest.mark.parametrize("text", ["x0", "x1^-1", "x3^-1"])
def test_monomial_shape_rejects(text):
    # a positive part, the absent subscript n - 1, a subscript past n
    g = gamma_nm_concrete(2, 2)
    assert not monomial_shape_ok(g._replace(origin={from_word(parse_word(text)): 0}))


@pytest.mark.parametrize("n, m", [(2, 2), (3, 4), (5, 3)])
def test_concrete_matches_abstract_chain(n, m):
    abstract = xi_path(n, m)
    for i in range(n - 2, -1, -1):
        abstract = apply_A(i, abstract)
    g = gamma_nm_concrete(n, m)
    assert g.size == abstract.vertex_count
    assert g.graph == abstract
    # the bar graph read off the diagrams is the chain's bar graph
    y = g.subgraph()
    names = list(g.origin)
    assert y.edges == {(names[u], names[v], j) for u, v, j in bar(abstract).edges}


def recursive_gamma(n):
    # the definition: Gamma_1 = xi_single(1), Gamma_{k+1} = apply_A(0, psi(Gamma_k))
    g = xi_single(1)
    for _ in range(n - 1):
        g = apply_A(0, psi(g))
    return g


@pytest.mark.parametrize("n", range(1, 12))
def test_gamma_is_the_recursive_definition(n):
    assert gamma(n) == recursive_gamma(n)


def test_psi_moves_through_apply_A():
    # apply_A(i+1, psi(g)) == psi(apply_A(i, g)), vertex numbering and edge
    # order included, for every i that apply_A accepts; psi raises every
    # rank and label by one, so both sides refuse the same i
    accepted = 0
    for g in (xi_path(4, 3), gamma(5), psi(gamma(5))):
        for i in range(max(label for _, _, label in g.edges) + 1):
            try:
                expected = psi(apply_A(i, g))
            except ValueError:
                with pytest.raises(ValueError):
                    apply_A(i + 1, psi(g))
                continue
            assert apply_A(i + 1, psi(g)) == expected, (g.vertex_count, i)
            accepted += 1
    # i = 0..3 on xi_path(4, 3); none on gamma(5), whose label-0 edges
    # refuse every i; i = 0 on psi(gamma(5))
    assert accepted == 5


@pytest.mark.parametrize("n", range(2, 9))
def test_gamma_is_the_chain_run_on_one_loop(n):
    g = xi_single(n)
    for i in range(n - 2, -1, -1):
        g = apply_A(i, g)
    assert gamma(n) == g


def test_construction_error_names_failed_edge(monkeypatch):
    # x1 edges are checked against u * x1^-1, so the first one fails
    def wrong_x1(d, k, s):
        return mul_letter(d, k, -1 if k == 1 else s)

    monkeypatch.setattr(gamma_module, "mul_letter", wrong_x1)
    with pytest.raises(
        ConstructionError,
        match=r"^edge 'x2\^-1 x0\^-1' -x1-> 'x0\^-1' failed verification$",
    ):
        gamma_nm_concrete(2, 2)


def test_construction_error_names_repeated_vertex(monkeypatch):
    # every x_k acting as x0 is a homomorphism of F onto Z, so every
    # edge still checks while x0^-1 and x2^-1 get the same name
    monkeypatch.setattr(gamma_module, "mul_letter", lambda d, k, s: mul_letter(d, 0, s))
    with pytest.raises(ConstructionError, match=r"^vertex 'x0\^-1' is named twice$"):
        gamma_nm_concrete(2, 2)


def test_construction_error_names_vertex_count(monkeypatch):
    monkeypatch.setattr(gamma_module, "catalan", lambda n: 3)
    with pytest.raises(
        ConstructionError, match=r"^vertex count 6 differs from \(m\+1\) Catalan\(n\) = 9$"
    ):
        gamma_nm_concrete(2, 2)


def test_size_limit_stops_counting_once_past(monkeypatch):
    # the count passes the limit after a few of the million factors and
    # stops there; nothing is built
    monkeypatch.setattr(gamma_module, "apply_A", None)
    with pytest.raises(SizeLimitError, match=r"^Gamma_1000000 has more than 1000000 vertices"):
        gamma(10**6)


def test_size_limit_refuses_before_building(monkeypatch, capsys):
    # Catalan(5) = 42 and 3 Catalan(4) = 42: at the limit both build, one
    # vertex below it both refuse; no large n is ever run
    monkeypatch.setattr(gamma_module, "MAX_GAMMA_VERTICES", 42)
    assert gamma(5).vertex_count == 42
    assert gamma_nm_concrete(4, 2).size == 42
    monkeypatch.setattr(gamma_module, "MAX_GAMMA_VERTICES", 41)
    with monkeypatch.context() as patch:
        patch.setattr(gamma_module, "apply_A", None)  # nothing may be built
        with pytest.raises(SizeLimitError, match=r"^Gamma_5 has more than 41 vertices \(memory\)$"):
            gamma(5)
        with pytest.raises(SizeLimitError, match=r"^Gamma_\{4,2\} has more than 41 "):
            gamma_nm_concrete(4, 2)
        for argv, family in (
            (["gamma", "--n", "5"], "Gamma_5"),
            (["gamma", "--n", "4", "--m", "2", "--emit-words"], "Gamma_{4,2}"),
            (["gamma", "--n", "2", "--m", "40"], "Gamma_{2,40}"),  # Gamma_2 fits
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {family} has more than 41 vertices (memory)\n"
