"""Command line front end.

Every subcommand is a thin adapter over the library: it parses words,
calls the corresponding functions and returns its results, which main
prints as one single-line JSON envelope

    {"schema": ..., "command": ..., "parameters": ..., "results": ...,
     "exact_values": ...}

where parameters echoes every option except --format and --emit-words,
every rational inside results appears as {"num": ..., "den": ...} and
exact_values maps the same field paths to decimal strings (truncated at
12 places; exact whenever the expansion terminates).  Tabular
subcommands (spheres, series) switch to plain CSV under --format csv,
and gamma --emit-words prints one word per line; both print no envelope.

Exit codes: 0 success, 1 validation error, 2 resource cap exceeded
(including recursion depth or memory exhausted), 64 unknown subcommand,
141 (128 + SIGPIPE) when the reader closes stdout early, as `| head`
does; that case prints nothing more.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections import Counter
from itertools import accumulate
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

# Binding these runs nothing: the package entered each module in
# sys.modules to run when a subcommand first reads from it.
from . import cayley, growth, metric, plmaps, subgraphs
from .diagrams import (
    DEFAULT_CAP, LeafLimitError, LimitError, _times, cell_count, from_word, normal_form_text,
    to_normal_form,
)
from .words import WordError, format_word, parse_word

if TYPE_CHECKING:
    from fractions import Fraction

# thompsonf.gamma is the function gamma.gamma, so reach the module by name
gamma = sys.modules[f"{__package__}.gamma"]

SCHEMA = "thompson-f-toolkit/1"

# parsed options that the envelope does not echo as parameters
_NOT_ECHOED = ("func", "format", "emit_words")


class _CLIError(ValueError):
    """Argument or input validation failure; rendered as exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; 2 is taken by the
    # resource-cap contract, so route errors through _CLIError instead.
    def error(self, message):
        raise _CLIError(message)


def _decimal(num: int, den: int) -> str:
    """num / den (den > 0) in decimal, truncated after 12 places; exact
    whenever the expansion ends within them, and then without padding
    zeros."""
    sign = "-" if num < 0 else ""
    whole, rem = divmod(abs(num), den)
    if not rem:
        return f"{sign}{whole}"
    digits, left = divmod(rem * 10**12, den)
    digits = f"{digits:012d}"
    if not left:
        digits = digits.rstrip("0")
    return f"{sign}{whole}.{digits}"


def _rational(x: Fraction, exact: Dict[str, str], path: str) -> Dict[str, int]:
    # x for results, with its decimal entered in exact_values under path
    exact[path] = _decimal(x.numerator, x.denominator)
    return {"num": x.numerator, "den": x.denominator}


# Each _cmd_* returns (results, exact_values) for main to wrap in the
# envelope, or None once it has printed its own lines.
Report = Optional[Tuple[dict, dict]]


def _cmd_nf(args) -> Report:
    d = from_word(parse_word(args.word))
    nf = to_normal_form(d)
    results = {
        "word": normal_form_text(d),
        "pos": list(nf.pos),
        "neg": list(nf.neg),
        "cells": len(nf.pos) + len(nf.neg),
    }
    return results, {}


def _cmd_norm(args) -> Report:
    d = from_word(parse_word(args.word))
    n, special = metric.norm_and_special(d)
    results = {
        "norm": n,
        "cells": cell_count(d),
        "special": sorted(special),
        "normal_form": normal_form_text(d),
    }
    return results, {}


def _cmd_mul(args) -> Report:
    product = from_word(parse_word(args.left) + parse_word(args.right))
    results = {
        "word": normal_form_text(product),
        "cells": cell_count(product),
        "norm": metric.norm(product),
    }
    return results, {}


def _cmd_geodesic(args) -> Report:
    w = metric.greedy_descent(from_word(parse_word(args.word)))
    results = {
        "word": format_word(w),
        "length": len(w),
        "method": "greedy descent",
        "note": "heuristic by construction; the unit-step property "
        "guarantees length = norm",
    }
    return results, {}


def _ratio_table(args, header: str, columns: List[List[int]], results: dict) -> Report:
    """Report columns[0] with its ratios c[n] / c[n-1], as CSV or JSON.

    A CSV row is n, the n-th entry of each column and the ratio (empty
    at n = 0), whose decimal needs no reduced fraction.  The JSON results
    gain a final "ratios" list in lowest terms.
    """
    counts = columns[0]
    if args.format == "csv":
        print(header)
        for n, row in enumerate(zip(*columns)):
            print(n, *row, _decimal(row[0], counts[n - 1]) if n else "", sep=",")
        return None
    ratios = []
    exact = {}
    for n in range(1, len(counts)):
        common = math.gcd(counts[n], counts[n - 1])
        num, den = counts[n] // common, counts[n - 1] // common
        ratios.append({"n": n, "num": num, "den": den})
        exact[f"ratio[{n}]"] = _decimal(num, den)
    results["ratios"] = ratios
    return results, exact


def _cmd_spheres(args) -> Report:
    spheres = cayley.count_spheres(args.radius, cap=args.cap)
    balls = list(accumulate(spheres))
    return _ratio_table(
        args,
        "n,s_n,b_n,ratio",
        [spheres, balls],
        {"radius": args.radius, "spheres": spheres, "balls": balls},
    )


def _cmd_dead_search(args) -> Report:
    found = cayley.dead_search(args.max_norm, cap=args.cap)
    return {"max_norm": args.max_norm, "count": len(found), "elements": found}, {}


def _cmd_series(args) -> Report:
    counts = growth.series(args.max_n)
    return _ratio_table(args, "n,c_n,ratio", [counts], {"max_n": args.max_n, "counts": counts})


def _cmd_lword(args) -> Report:
    state = growth.run_automaton(parse_word(args.word))
    return {"word": args.word, "accepted": state is not None, "state": state}, {}


# the most bits a printed breakpoint numerator may have: its decimal
# then has at most 4,215 digits, under the 4,300 that Python 3.11 and
# later convert by default, so every version answers alike
MAX_PL_BITS = 14_000


class _PLBitsLimitError(LimitError):
    """A breakpoint numerator of the pl map has more than MAX_PL_BITS bits."""


def _cmd_pl(args) -> Report:
    f = plmaps.from_diagram(from_word(parse_word(args.word)))
    if any(c.num.bit_length() > MAX_PL_BITS for point in f.points for c in point):
        raise _PLBitsLimitError(
            f"a breakpoint numerator would have more than {MAX_PL_BITS} bits (output size)"
        )
    exact = {}
    breakpoints = []
    for idx, (x, y) in enumerate(f.points):
        breakpoints.append({"x": str(x), "y": str(y)})
        exact[f"breakpoints[{idx}].x"] = _decimal(x.num, 1 << x.exp)
        exact[f"breakpoints[{idx}].y"] = _decimal(y.num, 1 << y.exp)
    return {"breakpoints": breakpoints, "tail_offset": f.tail_offset}, exact


def _gamma_report(n: int, m: Optional[int]) -> tuple:
    # the concrete family first: it is the larger, so its size limit
    # refuses before the abstract graph is built
    concrete = None if m is None else gamma.gamma_nm_concrete(n, m)
    g = gamma.gamma(n)
    ranks = Counter(g.ranks())
    a_row = [ranks.get(k, 0) for k in range(1, n + 1)]
    labels = Counter(label for _, _, label in g.edges)
    b_row = [labels.get(k, 0) for k in range(0, n + 1)]
    cat = gamma.catalan(n)
    bar_g = gamma.bar(g)
    density = bar_g.density()
    nu = Counter(bar_g.degrees())
    checks = {
        "a_row": a_row == [gamma.closed_a(n, k) for k in range(1, n + 1)],
        "b_row": b_row == [gamma.closed_b(n, k) for k in range(0, n + 1)],
        "vertices_catalan": g.vertex_count == cat,
        "density": density == gamma.density_bar_closed(n),
        "nu": (
            sorted(nu) == [2, 3, 4]
            and all(nu[d] == gamma.closed_nu(n, d) for d in (2, 3, 4))
            if n >= 5
            else None
        ),
    }
    exact: Dict[str, str] = {}
    results = {
        "n": n,
        "catalan": cat,
        "a_row": a_row,
        "b_row": b_row,
        "density": _rational(density, exact, "density"),
        "nu": {str(d): c for d, c in sorted(nu.items())},
        "checks": checks,
    }
    if concrete is not None:
        columns = gamma.column_partition(concrete)
        rhos = [rho for _, rho in columns]
        results["concrete"] = {
            "m": m,
            "vertices": concrete.size,
            "bar_edges": int(sum(size * rho for size, rho in columns) / 2),
            "bar_density": _rational(sum(rhos) / len(rhos), exact, "concrete.bar_density"),
            "columns": [
                {"size": size, "rho": _rational(rho, exact, f"concrete.rho[{k}]")}
                for k, (size, rho) in enumerate(columns)
            ],
            "fullness": gamma.fullness_check(concrete),
            "monomial_shape": gamma.monomial_shape_ok(concrete),
        }
    return results, exact


def _cmd_gamma(args) -> Report:
    if args.n < 2:
        raise _CLIError(f"--n must be at least 2, got {args.n}")
    if args.m is not None and args.m < 1:
        raise _CLIError(f"--m must be at least 1, got {args.m}")
    if not args.emit_words:
        return _gamma_report(args.n, args.m)
    if args.m is None:
        raise _CLIError("--emit-words needs --m to fix the concrete family")
    concrete = gamma.gamma_nm_concrete(args.n, args.m)
    # vertex k C + t is x_n^-k w_t: k letters x_n^-1, then the word of w_t
    words = [normal_form_text(w) for w in concrete.column]
    for k in range(args.m + 1):
        head = f"x{args.n}^-1 " * k
        for word in words:
            print(head + word if word else head[:-1])
    return None


def _cmd_subgraph(args) -> Report:
    # one word per line, read as it streams in; a blank line is the
    # empty word, i.e. the identity.  Lines end where str.splitlines
    # ends them, so a form feed also starts a new line.  A leading BOM
    # is dropped; an undecodable byte becomes a lone surrogate, which no
    # token matches, so it is found only on a line that fails to parse.
    # A line that is the nonempty line before it, then whitespace and
    # more tokens, folds only those onto the diagram before it; if they
    # do not parse or pass the leaf cap, the line is built from scratch,
    # so that it fails exactly as it would alone
    elems = []
    before = d = None
    try:
        with open(args.input, encoding="utf-8-sig", errors="surrogateescape") as handle:
            lines = (part for text in handle for part in text.splitlines())
            for number, line in enumerate(lines, start=1):
                rest = line[len(before):] if before and line.startswith(before) else ""
                try:
                    d = _times(d, parse_word(rest)) if rest[:1].isspace() else None
                except (WordError, LeafLimitError):
                    d = None
                try:
                    if d is None:
                        d = from_word(parse_word(line))
                except WordError as exc:
                    escaped = [ord(c) - 0xDC00 for c in line if "\udc80" <= c <= "\udcff"]
                    if escaped:
                        exc = f"byte 0x{escaped[0]:02x} of {args.input} is not UTF-8"
                    raise _CLIError(f"line {number}: {exc}") from None
                elems.append(d)
                before = line
    except OSError as exc:
        raise _CLIError(f"cannot read {args.input}: {exc}") from exc
    if not elems:
        raise _CLIError(f"no words in {args.input}")
    y = subgraphs.full_subgraph(elems)
    doubling = subgraphs.doubling_check(y)
    matching = subgraphs.two_one_matching(y)
    lower, middle, upper = subgraphs.folner_inequalities(y)
    exact: Dict[str, str] = {}
    results = {
        "size": y.size,
        "edges": y.edge_count,
        "density": _rational(subgraphs.density(y), exact, "density"),
        "q": subgraphs.q_value(y),
        "boundary_size": doubling.b1_size - y.size,
        "doubling": doubling.holds,
        "b1_size": doubling.b1_size,
        "matching_found": matching.assignment is not None,
        "min_degree": subgraphs.min_degree(y),
        "folner": {
            "boundary_ratio": _rational(lower, exact, "folner.boundary_ratio"),
            "four_minus_density": _rational(middle, exact, "folner.four_minus_density"),
            "four_times_ratio": _rational(upper, exact, "folner.four_times_ratio"),
        },
    }
    return results, exact


@functools.cache
def _build_parser() -> Dict[str, _Parser]:
    """The parser of each subcommand, by name.

    Built on first use, once per process: importing the module stays
    cheap, and repeated main() calls skip rebuilding eleven parsers.
    The top-level parser only names them ("thompsonf nf"); main picks
    the subcommand itself, so each call runs one parse.
    """
    sub = _Parser(prog="thompsonf").add_subparsers()

    p = sub.add_parser("nf", help="normal form of a word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("norm", help="exact word length of an element")
    p.add_argument("word")
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("mul", help="normal form and norm of a product")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("geodesic", help="minimal word by greedy norm descent")
    p.add_argument("word")
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("spheres", help="sphere and ball sizes of the Cayley graph")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_spheres)

    p = sub.add_parser("dead-search", help="dead elements up to a norm bound")
    p.add_argument("--max-norm", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=_cmd_dead_search)

    p = sub.add_parser("series", help="growth series of the monotone language")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("lword", help="membership in the monotone language")
    p.add_argument("word")
    p.set_defaults(func=_cmd_lword)

    p = sub.add_parser("pl", help="piecewise linear map of a word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_pl)

    p = sub.add_parser("gamma", help="density witness family reports")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--emit-words", action="store_true",
                   help="dump concrete vertex words, one per line")
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("subgraph", help="density diagnostics for a set of words")
    p.add_argument("--input", required=True, help="UTF-8 file, one word per line")
    p.set_defaults(func=_cmd_subgraph)

    for name in ("spheres", "dead-search", "gamma"):
        sub.choices[name].add_argument(
            "--threads", type=int, choices=(1,), default=1, help="reserved; single process"
        )
    return sub.choices


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does; point stdout at
        # devnull so that the flush at exit stays quiet (the "Note on
        # SIGPIPE" in the documentation of the signal module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


def _main(argv: Optional[Sequence[str]]) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parsers = _build_parser()
    if not argv or argv[0] not in parsers:
        usage = f"usage: thompsonf <subcommand> ...\nsubcommands: {', '.join(parsers)}"
        if argv and argv[0] in ("-h", "--help"):
            print(usage)
            return 0
        print(usage, file=sys.stderr)
        return 64
    try:
        args = parsers[argv[0]].parse_args(argv[1:])
        report = args.func(args)
    except SystemExit as exc:  # --help only; errors raise _CLIError
        code = exc.code
        return code if isinstance(code, int) else 0
    except ValueError as exc:  # _CLIError, WordError, NormalFormError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input too large: recursion depth exhausted", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input too large: out of memory", file=sys.stderr)
        return 2
    if report is not None:
        results, exact_values = report
        envelope = {
            "schema": SCHEMA,
            "command": argv[0],
            "parameters": {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED},
            "results": results,
            "exact_values": exact_values,
        }
        print(json.dumps(envelope))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
