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
from typing import Dict, List, Optional, Tuple

from .diagrams import LimitError
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


class ResourceError(LimitError):
    """Counting request beyond the supported size."""


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

