"""Breadth-first enumeration of the Cayley graph of F over {x0, x1}.

Canonical diagrams make exact deduplication a hash lookup, so balls are
enumerated layer by layer without ever solving a word problem pairwise.
The resulting table doubles as an independent distance oracle for the
length formula and as the search space for dead vertices (elements whose
norm drops in all four generator directions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

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
    _adjacency: Optional[Dict[Diagram, tuple]] = field(default=None, repr=False)

    def distance(self, d: Diagram) -> Optional[int]:
        """BFS distance from the identity, or None outside the ball."""
        return self._by_diagram.get(d)


def enumerate_ball(
    radius: int, cap: int = DEFAULT_CAP, keep_adjacency: bool = False
) -> BallTable:
    """Exact BFS ball of the given radius around the identity.

    keep_adjacency retains the four neighbour diagrams of every expanded
    element (all elements of distance < radius); dead_search uses this to
    avoid recomposing.  Raises ResourceCapError if the element count
    would exceed cap, reporting the last completed radius, and ValueError
    for a negative radius.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    dist: Dict[Diagram, int] = {EPSILON: 0}
    adjacency: Optional[Dict[Diagram, tuple]] = {} if keep_adjacency else None
    frontier = [EPSILON]
    sphere_sizes = [1]
    for r in range(1, radius + 1):
        next_frontier = []
        for d in frontier:
            nbs = neighbors(d)
            if adjacency is not None:
                adjacency[d] = nbs
            for nb in nbs:
                if nb not in dist:
                    if len(dist) >= cap:
                        raise ResourceCapError(cap, r - 1)
                    dist[nb] = r
                    next_frontier.append(nb)
        frontier = next_frontier
        sphere_sizes.append(len(frontier))
    ball_sizes = []
    total = 0
    for s in sphere_sizes:
        total += s
        ball_sizes.append(total)
    return BallTable(
        radius=radius,
        sphere_sizes=sphere_sizes,
        ball_sizes=ball_sizes,
        _by_diagram=dist,
        _adjacency=adjacency,
    )


def bfs_norm(d: Diagram, cap: int) -> Optional[int]:
    """Cayley distance from the identity by plain BFS, None beyond cap.

    Independent of the length formula: only composition and canonical
    equality are used.
    """
    if d == EPSILON:
        return 0
    dist: Dict[Diagram, int] = {EPSILON: 0}
    frontier = [EPSILON]
    r = 0
    while frontier:
        r += 1
        next_frontier = []
        for current in frontier:
            for nb in neighbors(current):
                if nb not in dist:
                    if nb == d:
                        return r
                    if len(dist) >= cap:
                        return None
                    dist[nb] = r
                    next_frontier.append(nb)
        frontier = next_frontier
    return None


def dead_search(max_norm: int, cap: int = DEFAULT_CAP) -> List[str]:
    """Canonical keys of all dead elements of norm at most max_norm.

    Enumerates the ball of radius max_norm + 1 so that every neighbour
    of every candidate has a known BFS distance.  An element is dead
    exactly when all four neighbours sit one layer closer to the
    identity; candidates passing that distance test are confirmed with
    the length-formula predicate before being reported.
    """
    if max_norm < 1:
        raise ValueError("max_norm must be at least 1")
    table = enumerate_ball(max_norm + 1, cap, keep_adjacency=True)
    dist = table._by_diagram
    adjacency = table._adjacency
    assert adjacency is not None
    found = []
    for d, r in dist.items():
        if 0 < r <= max_norm and all(dist[nb] == r - 1 for nb in adjacency[d]):
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
