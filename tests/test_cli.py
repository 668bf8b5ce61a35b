import contextlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gamma_oracle
from thompsonf import cli, growth, metric, plmaps, subgraphs
from thompsonf.cayley import CountLimitError, ResourceCapError, enumerate_ball
from thompsonf.cli import main
from thompsonf.diagrams import MAX_LEAVES, LeafLimitError, from_word, normal_form_text
from thompsonf.gamma import SizeLimitError, gamma_nm_concrete
from thompsonf.growth import ResourceError
from thompsonf.metric import DescentLimitError
from thompsonf.plmaps import dyadic, plmap
from thompsonf.words import format_word, parse_word

WORKED = "x0 x0 x1 x6 x3^-1 x0^-1 x0^-1"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    envelope = json.loads(out)
    assert envelope["schema"] == "thompson-f-toolkit/1"
    assert set(envelope) == {
        "schema", "command", "parameters", "results", "exact_values"
    }
    return envelope


def test_norm_worked_example(capsys):
    envelope = run_json(capsys, "norm", WORKED)
    results = envelope["results"]
    assert results["norm"] == 11
    assert results["cells"] == 7
    assert results["special"] == [5, 6]
    assert results["normal_form"] == WORKED


def test_nf(capsys):
    envelope = run_json(capsys, "nf", "x1 x0")
    assert envelope["results"] == {
        "word": "x0 x2", "pos": [0, 2], "neg": [], "cells": 2
    }


def test_mul(capsys):
    envelope = run_json(capsys, "mul", "x1", "x0")
    assert envelope["results"]["word"] == "x0 x2"
    assert envelope["results"]["norm"] == 2


def test_geodesic_reconstructs_element(capsys):
    envelope = run_json(capsys, "geodesic", WORKED)
    results = envelope["results"]
    assert results["length"] == 11
    assert from_word(parse_word(results["word"])) == from_word(parse_word(WORKED))


def test_spheres_csv(capsys):
    code, out, err = run(capsys, "spheres", "--radius", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,s_n,b_n,ratio"
    assert lines[-1].startswith("5,314,475,")


def test_spheres_json(capsys):
    envelope = run_json(capsys, "spheres", "--radius", "3")
    assert envelope["results"]["spheres"] == [1, 4, 12, 36]
    assert envelope["results"]["balls"] == [1, 5, 17, 53]
    assert envelope["exact_values"]["ratio[1]"] == "4"


def test_series_csv(capsys):
    code, out, err = run(capsys, "series", "--max-n", "3", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[0] == ["n", "c_n", "ratio"]
    assert [r[1] for r in rows[1:]] == ["1", "4", "12", "34"]


def test_series_json(capsys):
    envelope = run_json(capsys, "series", "--max-n", "9")
    assert envelope["results"]["counts"] == [
        1, 4, 12, 34, 92, 244, 642, 1684, 4412, 11554
    ]


@pytest.mark.parametrize(
    "argv", [("series", "--max-n", "300"), ("spheres", "--radius", "12")], ids=["series", "spheres"]
)
def test_csv_ratios_match_json(capsys, argv):
    # CSV rows write each ratio's decimal from the counts as they stand,
    # the JSON from the ratio in lowest terms: the digits must agree
    results, exact = (run_json(capsys, *argv)[key] for key in ("results", "exact_values"))
    counts = results.get("counts") or results["spheres"]
    for q in results["ratios"]:
        n = q["n"]
        assert Fraction(q["num"], q["den"]) == Fraction(counts[n], counts[n - 1])
        assert Fraction(q["num"], q["den"]).denominator == q["den"]
    code, out, err = run(capsys, *argv, "--format", "csv")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert code == 0 and rows[0][-1] == ""
    assert {f"ratio[{row[0]}]": row[-1] for row in rows[1:]} == exact
    assert len(exact) == len(counts) - 1


def test_lword(capsys):
    yes = run_json(capsys, "lword", "x1 x0 x1^-1")
    assert yes["results"]["accepted"] is True
    no = run_json(capsys, "lword", "x1 x0 x1")
    assert no["results"]["accepted"] is False
    assert no["results"]["state"] is None


def test_pl(capsys):
    envelope = run_json(capsys, "pl", "x0")
    assert envelope["results"]["breakpoints"] == [
        {"x": "0/2^0", "y": "0/2^0"},
        {"x": "1/2^0", "y": "2/2^0"},
    ]
    assert envelope["results"]["tail_offset"] == 1


def test_pl_long_word(capsys):
    rng = random.Random(300)
    w = tuple((rng.randint(0, 5), rng.choice((1, -1))) for _ in range(300))
    results = run_json(capsys, "pl", format_word(w))["results"]
    assert results["tail_offset"] == sum(s for _, s in w)
    points = [
        tuple(dyadic(*map(int, p[c].split("/2^"))) for c in ("x", "y"))
        for p in results["breakpoints"]
    ]
    rebuilt = plmap(points)
    assert list(rebuilt.points) == points
    assert rebuilt.tail_offset == results["tail_offset"]


def _pl_stdout(w):
    # the pl envelope written by hand from the PL fold, the oracle
    f = plmaps.from_word_pl(w)
    exact = {}
    for idx, point in enumerate(f.points):
        for name, c in zip("xy", point):
            exact[f"breakpoints[{idx}].{name}"] = _decimal_digit_loop(Fraction(c.num, 1 << c.exp))
    envelope = {
        "schema": "thompson-f-toolkit/1",
        "command": "pl",
        "parameters": {"word": format_word(w)},
        "results": {
            "breakpoints": [{"x": str(x), "y": str(y)} for x, y in f.points],
            "tail_offset": f.tail_offset,
        },
        "exact_values": exact,
    }
    return json.dumps(envelope) + "\n"


def test_pl_reads_what_the_fold_computes(capsys):
    # query-like words: freely reduced, 10-100 letters in x0 and x1
    rng = random.Random(29)
    for _ in range(200):
        w = []
        for _ in range(rng.randint(10, 100)):
            letter = rng.randint(0, 1), rng.choice((1, -1))
            while w and w[-1] == (letter[0], -letter[1]):
                letter = rng.randint(0, 1), rng.choice((1, -1))
            w.append(letter)
        code, out, err = run(capsys, "pl", format_word(w))
        assert (code, err) == (0, "")
        assert out == _pl_stdout(tuple(w)), w


def test_pl_sparse_generator(capsys):
    results = run_json(capsys, "pl", "x2000000")["results"]
    assert results["breakpoints"] == [
        {"x": "0/2^0", "y": "0/2^0"},
        {"x": "2000000/2^0", "y": "2000000/2^0"},
        {"x": "2000001/2^0", "y": "2000002/2^0"},
    ]
    assert results["tail_offset"] == 1


@pytest.mark.parametrize("k", [MAX_LEAVES - 1, 3000000])
def test_pl_shares_the_leaf_cap(capsys, k):
    # x_k has k + 2 leaves
    start = time.perf_counter()
    code, out, err = run(capsys, "pl", f"x{k}")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: a diagram would have more than {MAX_LEAVES} leaves (memory)\n"


def test_pl_numerator_cap(capsys):
    # the numerators of (x0 x1^-1)^n have about n bits
    start = time.perf_counter()
    code, out, err = run(capsys, "pl", " ".join(["x0 x1^-1"] * 15000))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: a breakpoint numerator would have more than {cli.MAX_PL_BITS} bits (output size)\n"
    results = run_json(capsys, "pl", " ".join(["x0 x1^-1"] * 5000))["results"]
    assert len(results["breakpoints"]) == 5003
    assert results["tail_offset"] == 0


def _decimal_digit_loop(x: Fraction, places: int = 12) -> str:
    """Oracle for cli._decimal: the expansion written one digit at a time."""
    sign = "-" if x < 0 else ""
    num, den = abs(x.numerator), x.denominator
    whole, rem = divmod(num, den)
    if rem == 0:
        return f"{sign}{whole}"
    digits = []
    while rem and len(digits) < places:
        rem *= 10
        digit, rem = divmod(rem, den)
        digits.append(str(digit))
    return f"{sign}{whole}." + "".join(digits)


@given(st.integers(min_value=0, max_value=2**80), st.integers(min_value=0, max_value=80))
def test_dyadic_decimal_matches_fraction(num, exp):
    assert cli._decimal(num, 1 << exp) == _decimal_digit_loop(Fraction(num, 2**exp))


@given(st.integers(min_value=-(2**80), max_value=2**80), st.integers(min_value=1, max_value=2**40))
def test_decimal_matches_digit_loop(num, den):
    assert cli._decimal(num, den) == _decimal_digit_loop(Fraction(num, den))


def test_dyadic_decimal_keeps_cut_zeros():
    # an expansion cut at 12 places keeps its zeros; one that ended drops none
    assert cli._decimal(5, 1 << 15) == "0.000152587890"
    assert cli._decimal(1, 1 << 40) == "0.000000000000"
    assert cli._decimal(3, 1 << 0) == "3"
    assert cli._decimal(5, 1 << 3) == "0.625"


def test_dead_search(capsys):
    envelope = run_json(capsys, "dead-search", "--max-norm", "1")
    assert envelope["results"] == {"max_norm": 1, "count": 0, "elements": []}


def test_gamma_report(capsys):
    envelope = run_json(capsys, "gamma", "--n", "5")
    results = envelope["results"]
    assert results["catalan"] == 42
    assert results["nu"] == {"2": 15, "3": 26, "4": 1}
    assert all(v for v in results["checks"].values())
    assert envelope["exact_values"]["density"] == "2.666666666666"


def test_gamma_emit_words_roundtrip(capsys, tmp_path):
    code, out, err = run(capsys, "gamma", "--n", "2", "--m", "2", "--emit-words")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6  # (m+1) Catalan(2)
    path = tmp_path / "family.words"
    path.write_text(out, encoding="utf-8")
    envelope = run_json(capsys, "subgraph", "--input", str(path))
    assert envelope["results"]["size"] == 6


@pytest.mark.parametrize("n", ["0", "1"])
@pytest.mark.parametrize("extra", [(), ("--m", "3"), ("--m", "3", "--emit-words")])
def test_gamma_n_below_two_exit(capsys, n, extra):
    code, out, err = run(capsys, "gamma", "--n", n, *extra)
    assert (code, out) == (1, "")
    assert err == f"error: --n must be at least 2, got {n}\n"


@pytest.mark.parametrize("m", ["0", "-1"])
@pytest.mark.parametrize("extra", [(), ("--emit-words",)])
def test_gamma_m_below_one_exit(capsys, m, extra):
    code, out, err = run(capsys, "gamma", "--n", "3", "--m", m, *extra)
    assert (code, out) == (1, "")
    assert err == f"error: --m must be at least 1, got {m}\n"


def test_gamma_emit_words_requires_m(capsys):
    code, out, err = run(capsys, "gamma", "--n", "2", "--emit-words")
    assert code == 1
    assert "error" in err


def test_subgraph_report_fields(capsys, tmp_path):
    path = tmp_path / "ball.words"
    path.write_text("\nx0\nx1\nx0 x1\n", encoding="utf-8")
    envelope = run_json(capsys, "subgraph", "--input", str(path))
    results = envelope["results"]
    assert results["size"] == 4
    assert results["edges"] == 3
    assert results["density"] == {"num": 3, "den": 2}
    assert results["q"] == 6
    assert results["doubling"] is True
    assert results["matching_found"] is True
    assert results["min_degree"] == 1
    assert envelope["exact_values"]["density"] == "1.5"


def test_subgraph_on_deep_words(capsys, tmp_path):
    # x0^1000 * x0 = x0^1001: the product is looked up among vertices
    # built separately from the file, a thousand levels deep
    path = tmp_path / "deep.words"
    path.write_text(" ".join(["x0"] * 1000) + "\n" + " ".join(["x0"] * 1001) + "\n")
    results = run_json(capsys, "subgraph", "--input", str(path))["results"]
    assert (results["size"], results["edges"]) == (2, 1)


def test_subgraph_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "subgraph", "--input", str(tmp_path / "nope"))
    assert code == 1


def test_subgraph_empty_file(capsys, tmp_path):
    path = tmp_path / "empty.words"
    path.write_text("", encoding="utf-8")
    code, out, err = run(capsys, "subgraph", "--input", str(path))
    assert (code, out, err) == (1, "", f"error: no words in {path}\n")


def test_subgraph_parse_error_names_line(capsys, tmp_path):
    path = tmp_path / "bad.words"
    path.write_text("x0\n\nx1 y2\nx0 x1\n", encoding="utf-8")
    code, out, err = run(capsys, "subgraph", "--input", str(path))
    assert (code, out) == (1, "")
    assert err == "error: line 3: bad token 'y2' at position 2\n"


def test_subgraph_parse_error_after_many_good_lines(capsys, tmp_path):
    path = tmp_path / "bad.words"
    path.write_text("x0 x1\n" * 50 + "x1 x0^2\n", encoding="utf-8")
    code, out, err = run(capsys, "subgraph", "--input", str(path))
    assert (code, out) == (1, "")
    assert err == "error: line 51: bad token 'x0^2' at position 2\n"


def test_subgraph_counts_lines_as_splitlines_does(capsys, tmp_path):
    # a form feed ends a line for str.splitlines, as for the whole-file read
    path = tmp_path / "ff.words"
    path.write_text("x0\x0cx1\nzz\n", encoding="utf-8")
    code, out, err = run(capsys, "subgraph", "--input", str(path))
    assert err == "error: line 3: bad token 'zz' at position 1\n"


def test_subgraph_skips_a_leading_bom(capsys, tmp_path):
    path = tmp_path / "bom.words"
    path.write_bytes(b"\xef\xbb\xbfx0\n\nx1\nx0 x1\n")
    results = run_json(capsys, "subgraph", "--input", str(path))["results"]
    assert (results["size"], results["edges"]) == (4, 3)


def test_subgraph_undecodable_byte_names_file_and_line(capsys, tmp_path):
    # past the first read-ahead chunk, so the line is counted, not guessed
    path = tmp_path / "latin1.words"
    path.write_bytes(b"x0 x1\n" * 2000 + b"x1 x0\xe9\nx0\n")
    code, out, err = run(capsys, "subgraph", "--input", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: line 2001: byte 0xe9 of {path} is not UTF-8\n"


def _subgraph_both_ways(capsys, monkeypatch, path):
    """Run subgraph on path as it reads, then with every suffix fold
    hitting the leaf cap, so that each line is built from scratch.  Both
    runs must print the same.  Returns (code, out, err), the diagrams
    handed to full_subgraph (None if none were) and the number of suffix
    folds tried."""
    seen, folds = [], []
    full, times = subgraphs.full_subgraph, cli._times

    def counted(d, w):
        folds.append(w)
        return times(d, w)

    def capped(d, w):
        raise LeafLimitError()

    monkeypatch.setattr(subgraphs, "full_subgraph", lambda elems: seen.append(elems) or full(elems))
    outputs = []
    for fold in (counted, capped):
        monkeypatch.setattr(cli, "_times", fold)
        outputs.append(run(capsys, "subgraph", "--input", str(path)))
    assert outputs[0] == outputs[1]
    assert seen[1:] == seen[:1]
    return outputs[0], seen[0] if seen else None, len(folds)


def _extensions(lines):
    # lines that are the nonempty line before them, a space and more
    return sum(bool(a) and b.startswith(a + " ") for a, b in zip(lines, lines[1:]))


@pytest.mark.parametrize("n, m", [(3, 4), (6, 4), (6, 40)])
def test_subgraph_reads_gamma_words_as_from_scratch(capsys, monkeypatch, tmp_path, n, m):
    code, words, err = run(capsys, "gamma", "--n", str(n), "--m", str(m), "--emit-words")
    path = tmp_path / "gamma.words"
    path.write_text(words, encoding="utf-8")
    (code, out, err), elems, folds = _subgraph_both_ways(capsys, monkeypatch, path)
    lines = words.splitlines()
    assert (code, err) == (0, "")
    assert elems == [from_word(parse_word(line)) for line in lines]
    assert folds == _extensions(lines) > len(lines) // 2


@pytest.mark.parametrize("order", ["sorted", "shuffled"])
def test_subgraph_reads_ball_words_as_from_scratch(capsys, monkeypatch, tmp_path, order):
    lines = sorted(normal_form_text(d) for d in enumerate_ball(4)._by_diagram)
    if order == "shuffled":
        random.Random(31).shuffle(lines)
    path = tmp_path / "ball.words"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    (code, out, err), elems, folds = _subgraph_both_ways(capsys, monkeypatch, path)
    assert (code, err) == (0, "")
    assert elems == [from_word(parse_word(line)) for line in lines]
    assert folds == _extensions(lines)
    assert json.loads(out)["results"]["size"] == 161


@pytest.mark.parametrize(
    "text, folds",
    [
        ("x1\nx10\n", 0),  # a text prefix that is not a token prefix
        ("x0\nx0\tx1\nx0\tx1\u2003x1^-1\n", 2),  # any whitespace separates
        ("x0 x1\nx0 x1\nx0 x1 x0\n", 1),  # a repeated line is built anew
        ("\n x0\nx0\n", 0),  # nothing extends a blank line
        ("x0 x1 \nx0 x1 x2\nx0 x1 x2  x3\n", 1),
    ],
    ids=["x1-x10", "tab", "repeated", "blank-first", "trailing-space"],
)
def test_subgraph_read_rule_corner_cases(capsys, monkeypatch, tmp_path, text, folds):
    path = tmp_path / "corner.words"
    path.write_text(text, encoding="utf-8")
    (code, out, err), elems, counted = _subgraph_both_ways(capsys, monkeypatch, path)
    assert (code, err) == (0, "")
    assert elems == [from_word(parse_word(line)) for line in text.splitlines()]
    assert counted == folds


@pytest.mark.parametrize(
    "data, code, err, folds",
    [
        (b"x0 x1\nx0 x1 y2\n", 1, "error: line 2: bad token 'y2' at position 3\n", 0),
        (b"x0 x1\nx0 x1 x0\xe9\n", 1, "error: line 2: byte 0xe9 of {path} is not UTF-8\n", 0),
        (
            f"x0\nx0 x{MAX_LEAVES - 1}\n".encode(),
            2,
            f"error: a diagram would have more than {MAX_LEAVES} leaves (memory)\n",
            1,
        ),
    ],
    ids=["bad-token", "not-utf-8", "leaf-cap"],
)
def test_subgraph_extending_line_fails_as_alone(capsys, monkeypatch, tmp_path, data, code, err, folds):
    # a rest that does not parse is never folded; one that passes the
    # leaf cap is, and then the line is built from scratch
    path = tmp_path / "bad.words"
    path.write_bytes(data)
    result = _subgraph_both_ways(capsys, monkeypatch, path)
    assert result == ((code, "", err.format(path=path)), None, folds)


@pytest.mark.parametrize("n, m", [(2, 1), (3, 4), (6, 4), (8, 3), (5, 100), (6, 40)])
def test_emit_words_are_the_normal_forms(capsys, n, m):
    code, out, err = run(capsys, "gamma", "--n", str(n), "--m", str(m), "--emit-words")
    assert (code, err) == (0, "")
    vertices = gamma_oracle.named_chain(n, m).vertices
    assert out.splitlines() == [normal_form_text(d) for d in vertices]


def test_emit_words_write_only_the_x0_steps_by_appending(capsys, monkeypatch):
    # normal_form_text writes each vertex of column 0 once, whatever m
    # is; every later line puts its column's x6^-1 letters before one of
    # those words
    written = []
    monkeypatch.setattr(cli, "normal_form_text", lambda d: written.append(d) or normal_form_text(d))
    counts = []
    for m in ("4", "40"):
        code, out, err = run(capsys, "gamma", "--n", "6", "--m", m, "--emit-words")
        assert (code, err) == (0, "")
        assert written == list(gamma_nm_concrete(6, 4).column)
        counts.append(len(written))
        written.clear()
    assert counts == [132, 132]


@pytest.mark.parametrize("k", [42, 2000])
def test_norm_reads_the_length_formula(capsys, k):
    # x_k has the k - 1 special vertices 2..k and norm 2k - 1
    results = run_json(capsys, "norm", f"x{k}")["results"]
    assert results["norm"] == metric.norm(from_word(((k, 1),))) == 2 * k - 1
    assert len(results["special"]) == k - 1
    assert results["norm"] == results["cells"] + 2 * len(results["special"])


def test_closed_stdout_exits_quietly():
    # the reader takes one line and closes the pipe, as `| head -n 1` does
    proc = subprocess.Popen(
        [sys.executable, "-m", "thompsonf.cli", "gamma", "--n", "6", "--m", "40", "--emit-words"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"\n"  # the identity comes first
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 141
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) <= 1


@pytest.mark.parametrize("argv", [["--help"], ["norm", "x0"]])
def test_stdout_closed_before_any_output(argv):
    # the read end is closed before the process starts, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "thompsonf.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_unknown_subcommand(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 64
    assert "subcommands" in err


def test_no_arguments(capsys):
    code, out, err = run(capsys)
    assert code == 64


def test_validation_error_exit(capsys):
    code, out, err = run(capsys, "norm", "x0^2")
    assert code == 1
    assert "bad token" in err


def test_bad_flag_exit(capsys):
    code, out, err = run(capsys, "spheres", "--radius", "abc")
    assert code == 1


def test_negative_radius_exit(capsys):
    code, out, err = run(capsys, "spheres", "--radius", "-3")
    assert (code, out) == (1, "")
    assert err == "error: radius must be nonnegative, got -3\n"


@pytest.mark.parametrize(
    "argv", [("spheres", "--radius", "3"), ("dead-search", "--max-norm", "3")]
)
def test_negative_cap_exit(capsys, argv):
    code, out, err = run(capsys, *argv, "--cap", "-1")
    assert (code, out) == (1, "")
    assert err == "error: cap must be nonnegative, got -1\n"


@pytest.mark.parametrize(
    "argv",
    [("spheres", "--radius", "2"), ("dead-search", "--max-norm", "2"), ("gamma", "--n", "3")],
)
@pytest.mark.parametrize("threads", ["-7", "0", "2"])
def test_threads_other_than_one_exit(capsys, argv, threads):
    code, out, err = run(capsys, *argv, "--threads", threads)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: argument --threads: invalid choice: {threads} ")
    assert err.count("\n") == 1


def test_parser_built_once(capsys):
    first = run(capsys, "norm", "x0 x1")
    assert run(capsys, "spheres", "--radius", "x")[0] == 1
    again = run(capsys, "norm", "x0 x1")
    assert first[0] == again[0] == 0
    assert first[1] == again[1]
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize(
    "argv",
    [("gamma", "--n", "3", "--report"), ("subgraph", "--input", "words.txt", "--report")],
)
def test_report_flag_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "unrecognized arguments: --report" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_series_cap_exit(capsys, fmt):
    # past the cap c_n would pass the int-to-str limit of 4300 digits
    start = time.perf_counter()
    over = growth.MAX_SERIES_N + 1
    code, out, err = run(capsys, "series", "--max-n", str(over), "--format", fmt)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: series capped at length {growth.MAX_SERIES_N}, asked {over}\n"


def test_series_answers_at_the_cap(capsys, monkeypatch):
    monkeypatch.setattr(growth, "MAX_SERIES_N", 20)
    assert len(run_json(capsys, "series", "--max-n", "20")["results"]["counts"]) == 21
    code, out, err = run(capsys, "series", "--max-n", "21", "--format", "csv")
    assert (code, out) == (2, "")
    assert err == "error: series capped at length 20, asked 21\n"


def test_resource_cap_exit(capsys):
    code, out, err = run(capsys, "spheres", "--radius", "9", "--cap", "100")
    assert code == 2
    assert "cap" in err


def test_deep_words_get_answers(capsys):
    # x0^n is a left comb of depth n: every diagram reader must be iterative
    deep = " ".join(["x0"] * 1000)
    results = run_json(capsys, "norm", deep)["results"]
    assert (results["norm"], results["cells"], results["special"]) == (1000, 1000, [])
    assert run_json(capsys, "nf", deep)["results"]["pos"] == [0] * 1000
    inverse = " ".join(["x0^-1"] * 1000)
    results = run_json(capsys, "mul", deep, inverse)["results"]
    assert (results["word"], results["cells"], results["norm"]) == ("", 0, 0)
    results = run_json(capsys, "geodesic", " ".join(["x0"] * 300))["results"]
    assert results["length"] == 300


def test_leaf_cap_exit(capsys, tmp_path):
    # x_k has k + 2 leaves: the largest subscript under the cap answers,
    # and one more exits 2 before any diagram of that size is written
    top = f"x{MAX_LEAVES - 2}"
    assert run_json(capsys, "nf", top)["results"]["word"] == top
    over = f"x{MAX_LEAVES - 1}"
    words = tmp_path / "words.txt"
    words.write_text(f"x0\n{over}\n")
    for argv in (
        ("nf", over), ("norm", over), ("mul", over, "x0"), ("mul", "x1", over),
        ("subgraph", "--input", str(words)),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2, argv
        assert (code, out) == (2, ""), argv
        assert err == f"error: a diagram would have more than {MAX_LEAVES} leaves (memory)\n"


def test_geodesic_work_cap_exit(capsys):
    # norm x length: 15,999 x 32,007 answers; 39,999 x 80,007 passes 2^30,
    # and x2097150, the largest subscript under the leaf cap, far more
    assert run_json(capsys, "geodesic", "x8000")["results"]["length"] == 15999
    for word in ("x20000", f"x{MAX_LEAVES - 2}"):
        start = time.perf_counter()
        code, out, err = run(capsys, "geodesic", word)
        assert time.perf_counter() - start < 1, word
        assert (code, out) == (2, ""), word
        assert err.startswith("error: a greedy descent on a diagram of ")
        assert err.endswith(" (norm x length; time)\n") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [("norm",), ("nf",), ("mul", "x0"), ("geodesic",)])
def test_recursion_exhausted_exit(capsys, monkeypatch, argv):
    # the readers no longer recurse, so a RecursionError is forced where
    # each command builds its diagram; the CLI must still map it to exit 2
    def exhausted(word):
        raise RecursionError

    monkeypatch.setattr(cli, "from_word", exhausted)
    code, out, err = run(capsys, argv[0], "x0", *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: input too large: recursion depth exhausted\n"


@pytest.mark.parametrize(
    "error",
    [
        LeafLimitError(),
        DescentLimitError(40_007),
        ResourceCapError(100, 3),
        CountLimitError(50, 49),
        ResourceError("series capped at length 10000, asked 10001"),
        SizeLimitError("Gamma_14", 1_000_000),
    ],
    ids=lambda error: type(error).__name__,
)
def test_every_cap_error_exits_2(capsys, monkeypatch, error):
    # main catches the caps through their one base class; each keeps its
    # one-line message
    def capped(word):
        raise error

    monkeypatch.setattr(cli, "from_word", capped)
    assert run(capsys, "nf", "x0") == (2, "", f"error: {error}\n")
    assert str(error) and "\n" not in str(error)


def test_memory_exhausted_exit(capsys, monkeypatch):
    def exhausted(d):
        raise MemoryError

    monkeypatch.setattr(plmaps, "from_diagram", exhausted)
    code, out, err = run(capsys, "pl", "x0")
    assert (code, out) == (2, "")
    assert err == "error: input too large: out of memory\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (("spheres", "--radius", "abc"), "argument --radius: invalid int value: 'abc'"),
        (("spheres",), "the following arguments are required: --radius"),
        (("nf", "x0", "x1"), "unrecognized arguments: x1"),
        (("mul", "x0"), "the following arguments are required: right"),
        (
            ("spheres", "--radius", "3", "--format", "xml"),
            "argument --format: invalid choice: 'xml' (choose from 'json', 'csv')",
        ),
        (
            ("gamma", "--n", "3", "--threads", "2"),
            "argument --threads: invalid choice: 2 (choose from 1)",
        ),
        (("subgraph",), "the following arguments are required: --input"),
        (
            ("dead-search", "--max-norm", "2", "--cap", "x"),
            "argument --cap: invalid int value: 'x'",
        ),
    ],
)
def test_argument_errors_exact(capsys, argv, err):
    assert run(capsys, *argv) == (1, "", f"error: {err}\n")


def test_abbreviated_option_and_subcommand_help(capsys):
    assert run_json(capsys, "spheres", "--rad", "3")["parameters"]["radius"] == 3
    code, out, err = run(capsys, "nf", "--help")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "usage: thompsonf nf [-h] word"


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "norm", "--help")
    assert code == 0


def test_top_level_help_exits_zero(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert "subcommands:" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "thompsonf.cli", "nf", "x0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["word"] == "x0"


# golden files pin the exact bytes of the envelope, key order included
@pytest.mark.parametrize(
    "golden, argv",
    [
        ("nf_x1x0.json", ("nf", "x1 x0")),
        ("pl_x1.json", ("pl", "x1")),
        ("norm_worked.json", ("norm", "x0 x0 x1 x6 x3^-1 x0^-1 x0^-1")),
        ("spheres_5.csv", ("spheres", "--radius", "5", "--format", "csv")),
        ("gamma_3_4.json", ("gamma", "--n", "3", "--m", "4")),
        ("gamma_3_4_words.txt", ("gamma", "--n", "3", "--m", "4", "--emit-words")),
        ("mul_x1x0_x2inv.json", ("mul", "x1 x0", "x2^-1")),
        ("geodesic_worked.json", ("geodesic", "x0 x0 x1 x6 x3^-1 x0^-1 x0^-1")),
        ("spheres_3.json", ("spheres", "--radius", "3")),
        ("series_6.json", ("series", "--max-n", "6")),
        ("series_6.csv", ("series", "--max-n", "6", "--format", "csv")),
        ("dead_search_4.json", ("dead-search", "--max-norm", "4")),
        ("lword_x1x0x1inv.json", ("lword", "x1 x0 x1^-1")),
        ("gamma_6.json", ("gamma", "--n", "6")),
        (
            "subgraph_gamma_3_4.json",
            ("subgraph", "--input", "tests/golden/gamma_3_4_words.txt"),
        ),
    ],
)
def test_golden_output(capsys, monkeypatch, golden, argv):
    # the subgraph envelope echoes its --input path, relative to the repo root
    monkeypatch.chdir(pathlib.Path(__file__).parent.parent)
    expected = (pathlib.Path(__file__).parent / "golden" / golden).read_text()
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out == expected


def test_golden_unknown_subcommand(capsys):
    expected = (pathlib.Path(__file__).parent / "golden" / "unknown_subcommand.err").read_text()
    assert run(capsys, "frobnicate") == (64, "", expected)


_PARSERS = cli._build_parser()
_OPTIONS = sorted({o for p in _PARSERS.values() for a in p._actions for o in a.option_strings})
_FUZZ_TOKENS = st.one_of(
    st.lists(st.tuples(st.integers(0, 5), st.sampled_from((1, -1))), max_size=12).map(format_word),
    st.sampled_from(("x0^2", "x-1", "", "x", "x0 y1", "--", "csv", "json", "abc", "1.5", "0x10")),
    st.integers(-3, 8).map(str),  # 8 at most keeps every run small
    st.sampled_from(_OPTIONS + ["--bogus"]),
)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    contents = {
        "words.txt": b"x0 x1\n\nx1^-1 x0\n",
        "bad_token.txt": b"x0\nx0^2\n",
        "undecodable.txt": b"x0\n\xff\n",
    }
    for name, data in contents.items():
        (root / name).write_bytes(data)
    return [str(root / name) for name in contents]


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_fuzz_main(fuzz_inputs, data):
    # every argv ends in an answer, help, usage or one error line: never a traceback
    head = data.draw(st.sampled_from([[name] for name in _PARSERS] + [["frobnicate"], ["-h"], []]))
    argv = head + data.draw(st.lists(_FUZZ_TOKENS | st.sampled_from(fuzz_inputs), max_size=8))
    with contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 64), (argv, code)
    assert "Traceback" not in err, argv
    if code in (1, 2):
        assert err.startswith("error: ") and err.endswith("\n"), (argv, err)
        assert err.count("\n") == 1, (argv, err)
    if code == 0:
        assert err == "", (argv, err)
