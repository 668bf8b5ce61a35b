"""Spheres of the Cayley graph of F over {x0, x1}: by search and by count.

Breadth-first search enumerates balls layer by layer, with canonical
diagrams as hash keys, so no word problem is solved pairwise.  Its table
is an independent distance oracle for the length formula.  The same
search finds dead vertices (all four neighbours closer to the identity)
of norm at most m in the ball of radius m: the graph is bipartite, so
an element of layer r + 1 is dead when layer r reaches it four times.

count_spheres lists no element.  An element is its normal form: c_v
carets start at leaf v in the top forest and d_v in the bottom one, any
finite pair of sequences with no v where c_v, d_v >= 1 and c_{v+1} =
d_{v+1} = 0.  Its norm (metric) is local in v, so one scan of the leaves
counts all normal forms.  Per forest it keeps the open slots h (c_v at
a tree start, h - 1 + c_v otherwise) and, inside the first tree, the
lowest h so far; a new low makes vertex v+1 near vertex 0.  Leaf v
costs c_v + d_v, plus 2 when vertex v is active and not near.  A leaf
that is a bare tree in both forests is active on every path that goes
on, so a path ends only at a caret start, and not where both forests
start one.  States that agree merge their counts per norm.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import accumulate, groupby
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Tuple

from .diagrams import EPSILON, GENERATOR_LETTERS, Diagram, canonical_key, mul_letter
from .metric import is_dead

DEFAULT_CAP = 10_000_000
# the largest truncation radius count_spheres runs.  The count's memory
# grows as about radius^5.4: 56 MB at radius 30, 263 MB at 42 and 670 MB
# at 50 (7 minutes; 2-vCPU VM, Python 3.11), so about 1 GB near 54.
MAX_COUNT_RADIUS = 50


class ResourceCapError(RuntimeError):
    """Enumeration or counting exceeded the caller's element cap."""

    def __init__(self, cap: int, completed_radius: int):
        super().__init__(
            f"element cap {cap} exceeded; completed radius {completed_radius}"
        )
        self.cap = cap
        self.completed_radius = completed_radius


class CountLimitError(RuntimeError):
    """A sphere count would run past MAX_COUNT_RADIUS, near 1 GB of memory."""

    def __init__(self, limit: int, completed_radius: int):
        super().__init__(
            f"sphere counts stop at radius {limit} (memory); "
            f"completed radius {completed_radius}"
        )
        self.limit = limit
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

    Runs BFS to radius max_norm, so cap bounds the ball of that radius.
    The exponent sum, a homomorphism to Z, fixes the parity of the
    distance, so neighbour distances differ by exactly 1 and an element
    of layer r + 1 is dead exactly when all four of its edges come from
    layer r.  While layer r is expanded, each element of layer r + 1
    counts the edges that reach it.  Elements reached four times are
    confirmed with the length-formula predicate before being reported.
    """
    if max_norm < 1:
        raise ValueError("max_norm must be at least 1")
    dist: Dict[Diagram, int] = {}
    found = []
    for r, layer in groupby(_bfs(max_norm, cap, dist), key=itemgetter(1)):
        # dist holds all of layer r - 1; any other neighbour is in layer r + 1
        edges_in = Counter(
            nb for _, _, nbs in layer for nb in nbs if dist.get(nb) != r - 1
        )
        for d, n in edges_in.items():
            if n == 4:
                if not is_dead(d):  # pragma: no cover - would falsify the formula
                    raise AssertionError(
                        f"BFS and length formula disagree at {canonical_key(d)}"
                    )
                found.append(canonical_key(d))
    return sorted(found)


def _forest_step(slots: int, low: int, carets: int) -> Tuple[int, int, bool]:
    # a leaf with `carets` caret starts in a forest with `slots` open
    # slots, 0 at a tree start: the open slots after it, the first tree's
    # low (0 once that tree is closed) and whether the leaf set a new low
    slots = slots - 1 + carets if slots else carets
    return slots, min(slots, low), slots < low


def _sphere_counts(radius: int) -> List[int]:
    # s_0..s_radius by the leaf scan of the module docstring.  A state's
    # counts per norm are the base 2^width digits of one integer, so a
    # leaf of cost k shifts them k digits.  No digit overflows: each
    # prefix of norm n < radius ends, through one more caret, in its own
    # element of norm at most n + 3, and b_{n+3} < 2^width.
    width = 2 * radius + 8
    live = (1 << width * radius) - 1  # norms below radius can go on
    total = 1  # the identity
    # open slots and first-tree low per forest (radius + 1 before leaf 0),
    # vertex v near, both forests started a caret at v - 1
    states = {(0, radius + 1, 0, radius + 1, True, False): 1}
    while states:
        following: Dict[tuple, int] = defaultdict(int)
        for (top, top_low, bottom, bottom_low, near, both), x in states.items():
            budget = radius - ((x & -x).bit_length() - 1) // width
            charge = 0 if near else 2  # for an active vertex v
            tops = [_forest_step(top, top_low, c) for c in range(budget + 1)]
            bottoms = [_forest_step(bottom, bottom_low, d) for d in range(budget + 1)]
            for c, (top_slots, top_low2, top_near) in enumerate(tops):
                for d in range(budget + 1 - c):
                    if c or d:
                        cost = c + d + charge
                    elif both:
                        continue  # reduced: a caret starts at v after both did at v - 1
                    else:
                        cost = 0 if top or bottom else charge
                    if cost > budget:
                        break
                    y = x << width * cost
                    if (c or d) and not (c and d):
                        total += y  # leaf v holds the last caret start
                    y &= live
                    if y:
                        bottom_slots, bottom_low2, bottom_near = bottoms[d]
                        key = (top_slots, top_low2, bottom_slots, bottom_low2,
                               top_near or bottom_near, bool(c and d))
                        following[key] += y
        states = following
    digit = (1 << width) - 1
    return [total >> width * n & digit for n in range(radius + 1)]


def count_spheres(radius: int, cap: int = DEFAULT_CAP) -> List[int]:
    """Exact sphere sizes s_0..s_radius, counted without storing elements.

    Equal to enumerate_ball(radius, cap).sphere_sizes, errors included:
    ResourceCapError(cap, r) for the least r < radius with ball size
    b_{r+1} > cap, ValueError for a negative radius or cap.  The count
    runs to radius 1, 2, 4, ... in turn and stops at the first ball past
    the cap, so the cap, not the radius, bounds the work.  Memory grows
    with the radius alone, so a count that would run past
    MAX_COUNT_RADIUS raises CountLimitError with the radius it completed.

    >>> count_spheres(5)
    [1, 4, 12, 36, 108, 314]
    """
    if cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    reach = min(1, radius)
    while True:
        spheres = _sphere_counts(reach)
        balls = list(accumulate(spheres))
        for r in range(reach):
            if balls[r + 1] > cap:
                raise ResourceCapError(cap, r)
        if reach == radius:
            return spheres
        following = min(2 * reach, radius)
        if following > MAX_COUNT_RADIUS:
            raise CountLimitError(MAX_COUNT_RADIUS, reach)
        reach = following
