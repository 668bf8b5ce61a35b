import importlib
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

import gamma_oracle
from thompsonf import cli
from thompsonf.diagrams import atomic, from_word, invert, mul_letter, to_normal_form
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
    density_bar_closed,
    fullness_check,
    gamma,
    gamma_nm_concrete,
    monomial_shape_ok,
    psi,
    xi_path,
    xi_single,
)
from thompsonf.cli import main
from thompsonf.subgraphs import density
from thompsonf.words import parse_word

# the package exports the function gamma under the module's name
gamma_module = importlib.import_module("thompsonf.gamma")


def a_row(n):
    counts = Counter(gamma(n).ranks())
    return [counts.get(k, 0) for k in range(1, n + 1)]


def b_row(n):
    counts = Counter(label for _, _, label in gamma(n).edges)
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
    assert Counter(g.ranks()) == {1: 1, 2: 1}
    assert Counter(label for _, _, label in g.edges) == {0: 1, 1: 1, 2: 1}


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
    assert Counter(bar(gamma(5)).degrees()) == {2: 15, 3: 26, 4: 1}
    assert Counter(bar(gamma(6)).degrees()) == {2: 42, 3: 84, 4: 6}
    for n in range(5, 9):
        hist = Counter(bar(gamma(n)).degrees())
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
    assert [to_normal_form(g.vertex(v)).neg.count(2) for v in range(g.size)] == [0, 0, 1, 1, 2, 2]
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


@pytest.mark.parametrize("n, m", [(2, 1), (3, 4), (6, 4), (5, 20)])
def test_origin_counts_the_seed_letters(n, m):
    # a vertex is its seed x_n^-k times letters x_i^-1, i <= n - 2, so
    # its normal form holds n exactly k times (monomial_shape_ok), and
    # seed column k is the block of vertex numbers from k Catalan(n);
    # vertex(i) names them as the full chain does
    g = gamma_nm_concrete(n, m)
    assert [g.vertex(v) for v in range(g.size)] == list(gamma_oracle.named_chain(n, m).vertices)
    assert all(to_normal_form(g.vertex(v)).neg.count(n) == v // catalan(n) for v in range(g.size))


def test_vertex_indexes_as_range_does():
    g = gamma_nm_concrete(2, 2)
    assert g.vertex(-1) == g.vertex(5) == from_word(parse_word("x2^-1 x2^-1 x0^-1"))
    for i in (6, -7):
        with pytest.raises(IndexError):
            g.vertex(i)


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
    assert len(g.column) == catalan(2)
    assert all(u < 2 and v < 2 for u, v, _ in g.inner)
    assert all(2 <= u < 4 and v < 2 for u, v, _ in g.across)
    for u, v, label in g.inner + g.across:
        assert 0 <= label <= 2
        assert mul_letter(g.vertex(u), label, 1) == g.vertex(v)


def _without_edge(g, edge):
    # g with edge taken out of inner, or out of across
    if edge in g.inner:
        return g._replace(inner=tuple(e for e in g.inner if e != edge))
    assert edge in g.across
    return g._replace(across=tuple(e for e in g.across if e != edge))


def test_fullness_check_catches_missing_edge():
    g = gamma_nm_concrete(2, 2)
    for edge in g.inner + g.across:
        with pytest.raises(ConstructionError):
            fullness_check(_without_edge(g, edge))


def test_fullness_error_names_the_vertex_by_word():
    # x2^-1 times x2 is the identity: an edge from column 1 to column 0
    g = gamma_nm_concrete(2, 2)
    tampered = _without_edge(g, (2, 0, 2))
    assert g.vertex(2) == from_word(parse_word("x2^-1"))
    with pytest.raises(ConstructionError, match=r"^fullness violated at 'x2\^-1' under x2$"):
        fullness_check(tampered)


@pytest.mark.parametrize("k", [3, 4])
def test_fullness_check_catches_an_edge_past_n(k):
    # with x_k^-1, k = n+1 or n+2, in place of x0^-1 and its one inner
    # edge taken out, the vertex set of Gamma_{2,2} holds x_k^-1 x_k = 1;
    # no edge is recorded above x2, and x_k^-1 x_j, j < k, is x_j x_{k+1}^-1
    g = gamma_nm_concrete(2, 2)
    assert g.column[1] == from_word(parse_word("x0^-1")) and g.inner == ((1, 0, 0),)
    tampered = g._replace(column=(g.column[0], invert(atomic(k))), inner=())
    with pytest.raises(ConstructionError, match=rf"^fullness violated at 'x{k}\^-1' under x{k}$"):
        fullness_check(tampered)


def test_fullness_check_catches_a_recorded_edge_that_leaves_the_set():
    # the identity times x0 is x0, which is not a vertex of Gamma_{2,2};
    # vertices 6 and -1 are past either end of its 6 vertices
    g = gamma_nm_concrete(2, 2)
    for edge, where in (((0, 0, 0), "''"), ((6, 0, 0), "vertex 6"), ((-1, 0, 0), "vertex -1")):
        with pytest.raises(ConstructionError, match=rf"^fullness violated at {where} under x0$"):
            fullness_check(g._replace(inner=g.inner + (edge,)))


@pytest.mark.parametrize("inner", [((1, 0, 0),), ()], ids=["kept", "dropped"])
def test_fullness_check_catches_an_edge_up_a_column(inner):
    # with x2^-1 x0^-1 in place of x0^-1, vertex 1 times x0 is x2^-1, the
    # first vertex of column 1; no edge is recorded up a column, and the
    # recorded x0 edge from vertex 1 to 0 no longer holds
    g = gamma_nm_concrete(2, 2)
    tampered = g._replace(column=(g.column[0], from_word(parse_word("x2^-1 x0^-1"))), inner=inner)
    with pytest.raises(ConstructionError, match=r"^fullness violated at 'x2\^-1 x0\^-1' under x0$"):
        fullness_check(tampered)


def test_fullness_check_reads_the_numbering_of_the_vertex_map():
    # renumbered t -> C - 1 - t in column 0 and in both edge sets,
    # Gamma_{3,4} is still full: each product is looked up by its
    # negative part, not by its place in the column
    g = gamma_nm_concrete(3, 4)
    last = len(g.column) - 1

    def flip(u):
        return u + last - 2 * (u % (last + 1))

    inner = tuple((flip(u), flip(v), j) for u, v, j in g.inner)
    across = tuple((flip(u), flip(v), j) for u, v, j in g.across)
    flipped = g._replace(column=g.column[::-1], inner=inner, across=across)
    assert fullness_check(flipped)


@pytest.mark.parametrize("text", ["x0", "x1^-1", "x3^-1"])
def test_monomial_shape_rejects(text):
    # a positive part, the absent subscript n - 1, a subscript past n
    g = gamma_nm_concrete(2, 2)
    assert not monomial_shape_ok(g._replace(column=(from_word(parse_word(text)),)))


@pytest.mark.parametrize("n, m", [(2, 2), (3, 4), (5, 3)])
def test_concrete_matches_abstract_chain(n, m):
    abstract = xi_path(n, m)
    for i in range(n - 2, -1, -1):
        abstract = apply_A(i, abstract)
    g = gamma_nm_concrete(n, m)
    assert g.size == abstract.vertex_count
    # the bar graph read off the diagrams is the chain's bar graph
    assert g.subgraph().edges == {
        (g.vertex(u), g.vertex(v), j) for u, v, j in bar(abstract).edges
    }


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("n", range(2, 9))
def test_inner_and_across_repeat_to_the_chain(n, m):
    # inner in each of the m + 1 columns and across between each two
    # neighbours give the chain run on xi_path(n, m), edge for edge
    abstract = xi_path(n, m)
    for i in range(n - 2, -1, -1):
        abstract = apply_A(i, abstract)
    g = gamma_nm_concrete(n, m)
    size = len(g.column)
    repeated = [(u + k * size, v + k * size, j) for k in range(m + 1) for u, v, j in g.inner]
    repeated += [(u + k * size, v + k * size, j) for k in range(m) for u, v, j in g.across]
    assert abstract.vertex_count == g.size
    assert sorted(repeated) == sorted(abstract.edges)


# every (n, m) whose report or concrete family the tests build, and two more
@pytest.mark.parametrize(
    "n, m",
    [(2, 1), (2, 2), (2, 6), (2, 12), (3, 1), (3, 2), (3, 4), (3, 5), (3, 6), (3, 12), (3, 40),
     (4, 2), (4, 6), (4, 12), (4, 100), (5, 3), (5, 20), (5, 100), (6, 4), (6, 40), (8, 3),
     (6, 200), (7, 20)],
)
def test_report_block_equals_the_vertex_by_vertex_oracle(n, m):
    results, _ = cli._gamma_report(n, m)
    assert results["concrete"] == gamma_oracle.concrete_block(n, m)


def test_work_does_not_grow_with_m(monkeypatch):
    # the construction and the fullness check multiply only in column 0
    # and its translate by x_n^-1, whatever m is
    calls = []

    def counted(d, k, s):
        calls.append(k)
        return mul_letter(d, k, s)

    monkeypatch.setattr(gamma_module, "mul_letter", counted)
    counts = []
    for m in (1, 4, 200):
        assert fullness_check(gamma_nm_concrete(6, m))
        counts.append(len(calls))
        calls.clear()
    # 1 seed, 2 (C - 1) column steps and the 2 * 165 inner and 132 across
    # edges of Gamma_{6,1}; then n + 3 = 9 products per vertex of column
    # 0, C = 132
    assert counts == [1 + 2 * 131 + 2 * 165 + 132 + 9 * 132] * 3


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
        ConstructionError, match=r"^vertex count 4 differs from 2 Catalan\(n\) = 6$"
    ):
        gamma_nm_concrete(2, 2)


def test_construction_error_names_a_vertex_outside_the_letters(monkeypatch):
    # x_k -> x_{k+3} is an injective endomorphism of F, so every edge
    # still checks and the names stay distinct, but column 0 of
    # Gamma_{2,2} then holds x3^-1, which the translates by x2^-1 need below x2
    monkeypatch.setattr(gamma_module, "mul_letter", lambda d, k, s: mul_letter(d, k + 3, s))
    with pytest.raises(ConstructionError, match=r"^'x3\^-1' is not a word in x_i\^-1, i < 2$"):
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
