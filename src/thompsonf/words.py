"""Words in the generators x_k of Thompson's group F.

A letter is a pair ``(k, s)`` with subscript ``k >= 0`` and sign
``s in {+1, -1}``, standing for ``x_k`` or ``x_k^-1``.  A word is a tuple
of letters; it need not be reduced.  The text format is whitespace
separated tokens ``x<k>`` and ``x<k>^-1`` and nothing else: exponent
sugar like ``x0^2`` is a parse error, not a convenience.
"""

from __future__ import annotations

import re
from typing import Tuple

Letter = Tuple[int, int]
GenWord = Tuple[Letter, ...]


class WordError(ValueError):
    """Malformed word text or an out-of-domain letter."""


_TOKEN = re.compile(r"x(0|[1-9][0-9]*)(\^-1)?\Z")

# the letters of the tokens x0 .. x63 and their inverses, built once;
# parse_word never adds to it, so its size is fixed
_LETTERS = {
    token: (k, s)
    for k in range(64)
    for token, s in ((f"x{k}", 1), (f"x{k}^-1", -1))
}


def parse_word(text: str) -> GenWord:
    """Parse a whitespace separated token string into a word.

    A word whose tokens all lie in the fixed table of small subscripts
    is looked up; any other word goes through the regular expression.

    >>> parse_word("x0 x1^-1")
    ((0, 1), (1, -1))
    >>> parse_word("")
    ()
    """
    tokens = text.split()
    try:
        return tuple(map(_LETTERS.__getitem__, tokens))
    except KeyError:
        pass
    letters = []
    for pos, token in enumerate(tokens, start=1):
        m = _TOKEN.match(token)
        if m is None:
            raise WordError(f"bad token {token!r} at position {pos}")
        letters.append((int(m.group(1)), -1 if m.group(2) else 1))
    return tuple(letters)


def format_word(w: GenWord) -> str:
    """Render a word in the token format accepted by parse_word."""
    return " ".join(f"x{k}" if s == 1 else f"x{k}^-1" for k, s in w)


def inverse_word(w: GenWord) -> GenWord:
    return tuple((k, -s) for k, s in reversed(w))
