"""Brute-force checks of the normal-form language L of thompsonf.growth.

bruteforce_series counts the L-words of each length by walking them,
the reference for growth.series, which iterates the automaton instead.
collision_check maps every L-word to its diagram: L is a transversal of
F, so the images must be pairwise distinct.

The walk extends each word's letter code by one character and prunes at
the first forbidden factor, with the code and pattern of growth itself.
"""

from typing import Dict, Iterator, List, NamedTuple, Tuple

from thompsonf.diagrams import GENERATOR_LETTERS, Diagram, from_word, mul_letter
from thompsonf.growth import _CHAR, _FORBIDDEN
from thompsonf.words import GenWord, format_word


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


def bruteforce_series(max_n: int) -> List[int]:
    """Counts c_0..c_max_n of L-words by length, by walking them all."""
    counts = [0] * (max_n + 1)
    counts[0] = 1
    for word in _l_words(max_n):
        counts[len(word)] += 1
    return counts


class CollisionReport(NamedTuple):
    words: int
    distinct: int
    collisions: List[Tuple[str, str]]  # pairs of words mapping to equal elements


def collision_check(max_n: int) -> CollisionReport:
    """Map every L-word of length <= max_n to its canonical diagram.

    All images must be distinct (L is a transversal of F); any collision
    is reported as a pair of word strings and would mark an
    implementation bug.
    """
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
