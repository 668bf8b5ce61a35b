"""Breadth-first enumeration of the Cayley graph of F over {x0, x1}.

Canonical diagrams make exact deduplication a hash lookup, so balls are
enumerated layer by layer without ever solving a word problem pairwise.
The resulting table doubles as an independent distance oracle for the
length formula.  The same search finds dead vertices (elements whose
norm drops in all four generator directions) as it expands them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Tuple

from .diagrams import EPSILON, GENERATOR_LETTERS, Diagram, canonical_key, mul_letter
from .metric import is_dead

DEFAULT_CAP = 10_000_000


class ResourceCapError(RuntimeError):
    """Enumeration exceeded the caller's element cap."""

    def __init__(self, cap: int, completed_radius: int):
        super().__init__(
            f"element cap {cap} exceeded; completed radius {completed_radius}"
        )
        self.cap = cap
        self.completed_radius = completed_radius


def neighbors(d: Diagram) -> Tuple[Diagram, Diagram, Diagram, Diagram]:
    """Right multiplications by x0, x0^-1, x1, x1^-1, in that order."""
    return tuple(mul_letter(d, k, s) for k, s in GENERATOR_LETTERS)


@dataclass
class BallTable:
    radius: int
    sphere_sizes: List[int] = field(default_factory=list)
    ball_sizes: List[int] = field(default_factory=list)
    _by_diagram: Dict[Diagram, int] = field(default_factory=dict, repr=False)

    def distance(self, d: Diagram) -> Optional[int]:
        """BFS distance from the identity, or None outside the ball."""
        return self._by_diagram.get(d)


def _bfs(
    radius: int, cap: int, dist: Dict[Diagram, int]
) -> Iterator[Tuple[Diagram, int, Tuple[Diagram, ...]]]:
    """Fill the empty dist with the BFS ball of the given radius.

    Yields each element d of distance r < radius with its neighbours as
    it is expanded.  At that moment every neighbour at distance r - 1 is
    in dist, and no neighbour at distance r or r + 1 reads r - 1.
    Raises ResourceCapError if the element count would exceed cap,
    reporting the last completed radius, and ValueError for a negative
    radius or cap.
    """
    if cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    dist[EPSILON] = 0
    frontier = [EPSILON]
    for r in range(radius):
        next_frontier = []
        for d in frontier:
            nbs = neighbors(d)
            yield d, r, nbs
            for nb in nbs:
                if nb not in dist:
                    if len(dist) >= cap:
                        raise ResourceCapError(cap, r)
                    dist[nb] = r + 1
                    next_frontier.append(nb)
        frontier = next_frontier


def enumerate_ball(radius: int, cap: int = DEFAULT_CAP) -> BallTable:
    """Exact BFS ball of the given radius around the identity.

    Raises ResourceCapError if the element count would exceed cap,
    reporting the last completed radius, and ValueError for a negative
    radius or cap.
    """
    dist: Dict[Diagram, int] = {}
    for _ in _bfs(radius, cap, dist):
        pass
    sphere_sizes = [0] * (radius + 1)
    for r in dist.values():
        sphere_sizes[r] += 1
    return BallTable(
        radius=radius,
        sphere_sizes=sphere_sizes,
        ball_sizes=list(accumulate(sphere_sizes)),
        _by_diagram=dist,
    )


def bfs_norm(d: Diagram, cap: int) -> Optional[int]:
    """Cayley distance from the identity by plain BFS, None beyond cap.

    Independent of the length formula: only composition and canonical
    equality are used.  The search stores at most cap elements, and
    returns None when d is not among them; a negative cap raises
    ValueError.  A ball of at most cap elements has radius below cap,
    so the cap, not the radius, ends the search.
    """
    dist: Dict[Diagram, int] = {}
    try:
        for _ in _bfs(cap, cap, dist):
            if d in dist:
                break
    except ResourceCapError:
        pass
    return dist.get(d)


def dead_search(max_norm: int, cap: int = DEFAULT_CAP) -> List[str]:
    """Canonical keys of all dead elements of norm at most max_norm.

    Runs BFS to radius max_norm + 1 and tests each candidate as it is
    expanded.  An element is dead exactly when all four neighbours sit
    one layer closer to the identity; candidates passing that distance
    test are confirmed with the length-formula predicate before being
    reported.
    """
    if max_norm < 1:
        raise ValueError("max_norm must be at least 1")
    dist: Dict[Diagram, int] = {}
    found = []
    for d, r, nbs in _bfs(max_norm + 1, cap, dist):
        if r and all(dist.get(nb) == r - 1 for nb in nbs):
            if not is_dead(d):  # pragma: no cover - would falsify the formula
                raise AssertionError(
                    f"BFS and length formula disagree at {canonical_key(d)}"
                )
            found.append(canonical_key(d))
    return sorted(found)


def ratio_report(table: BallTable) -> List[Fraction]:
    """Exact consecutive sphere ratios s_n / s_{n-1} for 1 <= n <= radius."""
    if table.radius < 2:
        raise ValueError("ratio report needs radius at least 2")
    s = table.sphere_sizes
    return [Fraction(s[n], s[n - 1]) for n in range(1, len(s))]
