"""The regular language L of normal-form words over x0^+-1, x1^+-1.

L consists of the words containing none of the forbidden factors

    x_i^s x_i^-s           (i in {0,1}; free cancellation),
    x_1^s x_0^n x_1        (n >= 1),
    x_1^s x_0^(n+1) x_1^-1 (n >= 1, i.e. at least two x_0 in a row).

Note the asymmetry: x_1^s x_0 x_1^-1 is allowed.  Every element of F has
exactly one representative in L, so the coefficients c_n (words of
length n) lower-bound the ball sizes and their ratio converges to
(3 + sqrt 5)/2.

Membership is implemented twice on purpose: a direct factor scan and a
7-state automaton whose states classify word suffixes:

    1 empty, 2 ends in x_0 (power), 3 ends in x_0^-1, 4 ends in x_1,
    5 ends in x_1^-1, 6 ends in x_1^+-1 x_0, 7 ends in x_1^+-1 x_0^k, k >= 2.

Counting iterates the automaton's transition matrix with big integers;
the same coefficients satisfy c_n = 4c_{n-1} - 4c_{n-2} + c_{n-3}.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .diagrams import GENERATOR_LETTERS, Diagram, from_word, mul_letter
from .words import GenWord, Letter, format_word

_CHAR = {(0, 1): "a", (0, -1): "A", (1, 1): "b", (1, -1): "B"}
_FORBIDDEN = re.compile(r"aA|Aa|bB|Bb|[bB]a+b|[bB]aa+B")

START_STATE = 1

TRANSITIONS: Dict[Tuple[int, Letter], int] = {
    (1, (0, 1)): 2, (1, (0, -1)): 3, (1, (1, 1)): 4, (1, (1, -1)): 5,
    (2, (0, 1)): 2, (2, (1, 1)): 4, (2, (1, -1)): 5,
    (3, (0, -1)): 3, (3, (1, 1)): 4, (3, (1, -1)): 5,
    (4, (0, 1)): 6, (4, (0, -1)): 3, (4, (1, 1)): 4,
    (5, (0, 1)): 6, (5, (0, -1)): 3, (5, (1, -1)): 5,
    (6, (0, 1)): 7, (6, (1, -1)): 5,
    (7, (0, 1)): 7,
}


class ResourceError(RuntimeError):
    """Counting or enumeration request beyond the supported size."""


def _encode(w: GenWord) -> str:
    try:
        return "".join(_CHAR[letter] for letter in w)
    except KeyError:
        raise ValueError(
            f"L-membership is defined over x0, x1 only: {format_word(w)}"
        ) from None


def is_l_word(w: GenWord) -> bool:
    """Factor-scan membership test, independent of the automaton."""
    return _FORBIDDEN.search(_encode(w)) is None


def run_automaton(w: GenWord) -> Optional[int]:
    """Final state of the suffix-class automaton, or None when rejected."""
    _encode(w)  # domain check
    state = START_STATE
    for letter in w:
        state = TRANSITIONS.get((state, letter))
        if state is None:
            return None
    return state


def transition_matrix() -> List[List[int]]:
    """7x7 counts of labelled transitions, rows and columns in state order."""
    matrix = [[0] * 7 for _ in range(7)]
    for (state, _), target in TRANSITIONS.items():
        matrix[state - 1][target - 1] += 1
    return matrix


# c_n has about 0.418 n decimal digits, so c_10000 stays under the
# interpreter's default int-to-str limit of 4300 digits.  Printing the
# counts costs about n^2: the JSON report at the cap takes 3 s and 201 MB
MAX_SERIES_N = 10_000


def series(max_n: int) -> List[int]:
    """Coefficients c_0..c_max_n by exact matrix-vector iteration.

    Raises ResourceError when max_n passes MAX_SERIES_N.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    if max_n > MAX_SERIES_N:
        raise ResourceError(f"series capped at length {MAX_SERIES_N}, asked {max_n}")
    matrix = transition_matrix()
    counts = [0] * 7
    counts[START_STATE - 1] = 1
    out = [1]
    for _ in range(max_n):
        counts = [
            sum(counts[i] * matrix[i][j] for i in range(7)) for j in range(7)
        ]
        out.append(sum(counts))
    return out


def recurrence_check(max_n: int) -> bool:
    """c_n = 4c_{n-1} - 4c_{n-2} + c_{n-3} for 4 <= n <= max_n."""
    c = series(max_n)
    return all(
        c[n] == 4 * c[n - 1] - 4 * c[n - 2] + c[n - 3]
        for n in range(4, max_n + 1)
    )


def _l_words(max_n: int) -> Iterator[GenWord]:
    """Every nonempty L-word of length <= max_n, in depth-first preorder.

    Walks the prefix tree, pruning at invalid prefixes: a forbidden
    factor survives every extension, so no valid word sits below an
    invalid prefix.
    """
    stack: List[Tuple[GenWord, str]] = [((), "")]
    while stack:
        word, encoded = stack.pop()
        if word:
            yield word
        if len(word) < max_n:
            for letter in reversed(GENERATOR_LETTERS):
                candidate = encoded + _CHAR[letter]
                if _FORBIDDEN.search(candidate) is None:
                    stack.append((word + (letter,), candidate))


_BRUTEFORCE_LIMIT = 16


def bruteforce_series(max_n: int) -> List[int]:
    """Counts c_0..c_max_n by exhaustive scan filtered with is_l_word."""
    if max_n > _BRUTEFORCE_LIMIT:
        raise ResourceError(
            f"brute force capped at length {_BRUTEFORCE_LIMIT}, asked {max_n}"
        )
    counts = [0] * (max_n + 1)
    counts[0] = 1
    for word in _l_words(max_n):
        counts[len(word)] += 1
    return counts


def rate_estimate(n: int) -> float:
    """c_n / c_{n-1}; converges to (3 + sqrt 5)/2 = 2.6180339887..."""
    if n < 4:
        raise ValueError("rate estimate needs n >= 4")
    c = series(n)
    return c[n] / c[n - 1]


class CollisionReport(NamedTuple):
    words: int
    distinct: int
    collisions: List[Tuple[str, str]]  # pairs of words mapping to equal elements


_COLLISION_LIMIT = 12


def collision_check(max_n: int) -> CollisionReport:
    """Map every L-word of length <= max_n to its canonical diagram.

    All images must be distinct (L is a transversal of F); any collision
    is reported as a pair of word strings and would mark an
    implementation bug.
    """
    if max_n > _COLLISION_LIMIT:
        raise ResourceError(
            f"collision check capped at length {_COLLISION_LIMIT}, asked {max_n}"
        )
    root = from_word(())
    seen: Dict[Diagram, GenWord] = {root: ()}
    collisions: List[Tuple[str, str]] = []
    path = [root]  # path[k]: the diagram of the current word's k-letter prefix
    for word in _l_words(max_n):
        del path[len(word):]
        diagram = mul_letter(path[-1], *word[-1])
        path.append(diagram)
        if diagram in seen:
            collisions.append((format_word(seen[diagram]), format_word(word)))
        else:
            seen[diagram] = word
    return CollisionReport(
        words=len(seen) + len(collisions), distinct=len(seen), collisions=collisions
    )
