"""The three benchmark workloads and the answer checks for each.

Every operation goes through ``thompsonf.cli.main`` in this process, the
way a user of the command line reaches the library, with stdout captured.
A workload builds the inputs of operation i (``job``) outside the timed
call, runs it (``run``) inside, and checks its outputs (``check``) right
after, outside the timed call, against oracles that do not share the
timed code path.  Operations are grouped into measurement windows of
``window`` operations that all do the same amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import resource
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Sequence

from thompsonf import cli, diagrams, growth, metric, plmaps, words

# Sphere sizes s_0..s_10 of the Cayley graph of F over {x0, x1}.  Through
# radius 9 this is the published list the acceptance test also uses.
PUBLISHED_SPHERES = (1, 4, 12, 36, 108, 314, 906, 2576, 7280, 20352, 56664)

QUERY_COMMANDS = ("nf", "norm", "mul", "geodesic", "pl", "lword")
GENERATORS = ((0, 1), (0, -1), (1, 1), (1, -1))
GOLDEN_RATIO = (5 ** 0.5 - 1) / 2


class CliResult(NamedTuple):
    argv: List[str]
    code: Optional[int]  # None when cli.main raised
    out: str
    error: str


def call_cli(argv: Sequence[str], out=None) -> CliResult:
    """One in-process ``cli.main`` call with stdout and stderr captured.

    ``cli.main`` is looked up at call time so that the traced run's
    wrapper is the one called.
    """
    stdout = io.StringIO() if out is None else out
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(argv))
    except Exception:  # a raise is a failed operation; the run goes on
        return CliResult(list(argv), None, "", traceback.format_exc())
    text = stdout.getvalue() if out is None else ""
    return CliResult(list(argv), code, text, stderr.getvalue())


def verdict(result: CliResult, problem_in: Callable[[str], Optional[str]]) -> Optional[str]:
    """None for a call that exited 0 with an output problem_in finds no fault in."""
    if result.code != 0:
        problem = f"exit {result.code}"
    else:
        try:
            problem = problem_in(result.out)
        except (ValueError, LookupError, TypeError) as exc:
            problem = f"unreadable output ({exc!r})"
    if problem is None:
        return None
    return f"{' '.join(result.argv)[:120]}: {problem}; stderr: {result.error.strip()[-400:]}"


def _results(out: str) -> dict:
    return json.loads(out)["results"]


class Ball:
    """``spheres`` then ``dead-search``, each enumerating the same ball."""

    name = "ball"
    window = 1

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.radius = 4 if smoke else 8
        self.work_per_op = 2 * sum(PUBLISHED_SPHERES[: self.radius + 1])
        self.rss_growth_bytes: Optional[int] = None

    def job(self, i: int) -> None:
        return None

    def run(self, job) -> tuple:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        spheres = call_cli(["spheres", "--radius", str(self.radius), "--format", "csv"])
        if self.rss_growth_bytes is None:
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self.rss_growth_bytes = 1024 * (after - before)
        dead = call_cli(["dead-search", "--max-norm", str(self.radius - 1)])
        return spheres, dead

    def bytes_per_element(self) -> float:
        """Peak-RSS growth of the process's first ``spheres`` call per element."""
        return self.rss_growth_bytes / (self.work_per_op // 2)

    def check(self, i: int, job, outcome) -> List[Optional[str]]:
        spheres, dead = outcome
        return [verdict(spheres, self._spheres_problem), verdict(dead, _dead_problem)]

    def _spheres_problem(self, out: str) -> Optional[str]:
        expected = ["n,s_n,b_n"]
        total = 0
        for n, s in enumerate(PUBLISHED_SPHERES[: self.radius + 1]):
            total += s
            expected.append(f"{n},{s},{total}")
        rows = [",".join(line.split(",")[:3]) for line in out.splitlines()]
        if rows != expected:
            return f"sphere table {rows} differs from {expected}"
        return None


def _dead_problem(out: str) -> Optional[str]:
    results = _results(out)
    if results["count"] != 0 or results["elements"] != []:
        return f"dead elements reported, but none has norm below 11: {results}"
    return None


class Pipeline:
    """``gamma --emit-words`` into a file, then ``subgraph`` on that file."""

    name = "pipeline"
    window = 1

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.n, self.m = (3, 4) if smoke else (6, 4)
        self.catalan = math.comb(2 * self.n, self.n) // (self.n + 1)
        self.work_per_op = self.catalan * (self.m + 1)
        self.words_file = workdir / "words.txt"

    def job(self, i: int) -> Path:
        return self.words_file

    def run(self, path: Path) -> tuple:
        with open(path, "w", encoding="utf-8") as handle:
            emit = call_cli(
                ["gamma", "--n", str(self.n), "--m", str(self.m), "--emit-words"], handle
            )
        report = call_cli(["subgraph", "--input", str(path)])
        return emit, report

    def check(self, i: int, path: Path, outcome) -> List[Optional[str]]:
        emit, report = outcome
        return [
            verdict(emit, lambda out: self._words_problem(path)),
            verdict(report, self._report_problem),
        ]

    def _words_problem(self, path: Path) -> Optional[str]:
        lines = path.read_text(encoding="utf-8").splitlines()
        if len(lines) != self.work_per_op or len(set(lines)) != self.work_per_op:
            return f"{len(lines)} lines, expected {self.work_per_op} distinct words"
        return None

    def _report_problem(self, out: str) -> Optional[str]:
        def q(field: dict) -> Fraction:
            return Fraction(field["num"], field["den"])

        res = _results(out)
        size, edges, boundary = res["size"], res["edges"], res["boundary_size"]
        folner = res["folner"]
        ratio, middle, upper = (
            q(folner["boundary_ratio"]),
            q(folner["four_minus_density"]),
            q(folner["four_times_ratio"]),
        )
        density = q(res["density"])
        checks = (
            (size == self.work_per_op, f"size {size} != {self.work_per_op}"),
            (res["q"] == 3 * size - 2 * edges, "q != 3V - 2E"),
            (density == Fraction(2 * edges, size), "density != 2E/V"),
            (res["b1_size"] == size + boundary, "b1_size != size + boundary_size"),
            (res["doubling"] == (res["b1_size"] >= 2 * size), "doubling flag wrong"),
            (res["matching_found"] is True, "no (2,1)-matching found"),
            (ratio == Fraction(boundary, size), "boundary ratio != boundary_size/size"),
            (middle == 4 - density, "four_minus_density != 4 - density"),
            (upper == 4 * ratio, "four_times_ratio != 4 boundary_ratio"),
            (ratio <= middle <= upper, "Folner sandwich fails"),
        )
        problems = [message for ok, message in checks if not ok]
        return "; ".join(problems) if problems else None


class Query(NamedTuple):
    command: str
    words: tuple  # one word, two for mul; each a tuple of (k, s) letters


class Queries:
    """Single-element queries through ``cli.main``, one client, closed loop.

    Queries come in blocks of 60 drawn from the seed: each subcommand ten
    times, each of the ten with a word length from its own tenth of the
    log scale 10..100, the block then shuffled.  Within its tenth, the
    n-th length drawn sits at the fractional part of (start + n * golden
    ratio), with the start drawn from the seed.  This keeps the uniform
    subcommand mix and log-uniform lengths of independent draws, while
    every block, and so every measurement window, has the same mix, and
    every run covers the lengths evenly; the letters are random.
    """

    name = "queries"
    work_per_op = 1
    strata = 10
    window = strata * len(QUERY_COMMANDS)
    check_every = 30  # PL-map and norm oracle checks on every thirtieth query

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.start = self.rng.random()
        self.drawn = [0] * self.strata
        self.pending: List[Query] = []

    def _word(self, stratum: int) -> tuple:
        place = (self.start + self.drawn[stratum] * GOLDEN_RATIO) % 1
        self.drawn[stratum] += 1
        length = round(10 ** (1 + (stratum + place) / self.strata))
        letters = [self.rng.choice(GENERATORS)]
        while len(letters) < length:
            k, s = letters[-1]
            letters.append(self.rng.choice([g for g in GENERATORS if g != (k, -s)]))
        return tuple(letters)

    def _block(self) -> List[Query]:
        block = []
        for command in QUERY_COMMANDS:
            for stratum in range(self.strata):
                count = 2 if command == "mul" else 1
                block.append(Query(command, tuple(self._word(stratum) for _ in range(count))))
        self.rng.shuffle(block)
        return block

    def job(self, i: int) -> tuple:
        if not self.pending:
            self.pending = self._block()[::-1]
        query = self.pending.pop()
        return query, [query.command] + [_format(w) for w in query.words]

    def run(self, job: tuple) -> tuple:
        return (call_cli(job[1]),)

    def check(self, i: int, job: tuple, outcome) -> List[Optional[str]]:
        (r,) = outcome
        return [verdict(r, lambda out: self._query_problem(job[0], _results(out), i))]

    def _query_problem(self, query: Query, res: dict, i: int) -> Optional[str]:
        full = i % self.check_every == 0
        word = sum(query.words, ())
        length = len(word)
        command = query.command

        def same_element(text: str) -> bool:
            return plmaps.from_word_pl(word) == plmaps.from_word_pl(words.parse_word(text))

        if command == "lword":
            if res["accepted"] != growth.is_l_word(word):
                return f"lword accepted={res['accepted']} but factor scan disagrees"
        elif command == "pl":
            if res["tail_offset"] != sum(s for _, s in word):
                return f"tail offset {res['tail_offset']} != exponent sum"
        elif command == "nf":
            if res["cells"] != len(res["pos"]) + len(res["neg"]):
                return "cells != len(pos) + len(neg)"
            if full and not same_element(res["word"]):
                return "normal form is another element (PL maps differ)"
        elif command in ("norm", "mul"):
            norm = res["norm"]
            if norm > length or (length - norm) % 2:
                return f"norm {norm} vs word length {length}: too long or wrong parity"
            text = res["normal_form"] if command == "norm" else res["word"]
            if full and not same_element(text):
                return "normal form is another element (PL maps differ)"
        elif command == "geodesic":
            geodesic = words.parse_word(res["word"])
            if res["length"] != len(geodesic):
                return "reported length != word length"
            if len(geodesic) > length or (length - len(geodesic)) % 2:
                return f"geodesic of length {len(geodesic)} longer than {length} or wrong parity"
            if full:
                if not same_element(res["word"]):
                    return "geodesic is another element (PL maps differ)"
                norm = metric.norm(diagrams.from_word(word))
                if len(geodesic) != norm:
                    return f"geodesic length {len(geodesic)} != norm {norm}"
        return None


def _format(word: tuple) -> str:
    return " ".join(f"x{k}" if s == 1 else f"x{k}^-1" for k, s in word)


WORKLOADS = {w.name: w for w in (Ball, Pipeline, Queries)}
