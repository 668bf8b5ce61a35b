"""Spheres of the Cayley graph of F over {x0, x1}: by search and by count.

Breadth-first search enumerates balls layer by layer, with canonical
diagrams as hash keys, so no word problem is solved pairwise.  It uses
only the letter products and canonical equality, so its table is an
independent distance oracle for the length formula, and the oracle for
the two scans below, which store no ball.

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

count_spheres runs each leaf as two half-steps: it chooses c_v first,
merges the states with c_v > 0 that then agree (c_v = 0 merges too few
to be worth it), and chooses d_v after.  It also merges mirror states.
Swapping the forests is inversion, which keeps the norm, and the leaf
step is symmetric in the two forests: the cost is c_v + d_v plus the
charge (a bare leaf in both costs it only where both forests are at a
tree start), v + 1 is near when either forest sets a new low, "both" is
c_v and d_v, a path ends where exactly one of c_v, d_v is nonzero, and
the first state is its own mirror.  So a state and its mirror have the
same future, and each leaf ends by ordering the two forests' (slots,
low) pairs.  dead_search walks the scan depth first instead, one
normal form per path.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from .diagrams import (
    EPSILON, GENERATOR_LETTERS, Diagram, NormalForm, canonical_key, from_normal_form, mul_letter,
)
from .metric import is_dead

DEFAULT_CAP = 10_000_000
# the largest truncation radius count_spheres runs.  The count's memory
# grows as about radius^5.4: 35 MB at radius 30, 137 MB at 42 and 311 MB
# at 50 (80-100 s; fresh process, 2-vCPU VM, Python 3.11), so about 1 GB
# near 63.
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


class BallTable:
    """The ball of a radius: sphere and ball sizes per radius 0..radius,
    and each element's distance from the identity (_by_diagram)."""

    def __init__(
        self, radius: int, sphere_sizes: List[int], ball_sizes: List[int],
        by_diagram: Dict[Diagram, int],
    ) -> None:
        self.radius = radius
        self.sphere_sizes = sphere_sizes
        self.ball_sizes = ball_sizes
        self._by_diagram = by_diagram

    def __repr__(self) -> str:
        return (
            f"BallTable(radius={self.radius}, sphere_sizes={self.sphere_sizes}, "
            f"ball_sizes={self.ball_sizes})"
        )

    def distance(self, d: Diagram) -> Optional[int]:
        """BFS distance from the identity, or None outside the ball."""
        return self._by_diagram.get(d)


def enumerate_ball(radius: int, cap: int = DEFAULT_CAP) -> BallTable:
    """Exact BFS ball of the given radius around the identity.

    Plain breadth-first search, layer by layer: each element of layer r
    is multiplied by all four letters (neighbors), and a product not yet
    in the table joins layer r + 1.  Raises ResourceCapError if the
    element count would exceed cap, reporting the last completed radius,
    and ValueError for a negative radius or cap.
    """
    if cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    dist = {EPSILON: 0}
    layer = [EPSILON]
    sphere_sizes = [1]
    for r in range(radius):
        following = []
        for d in layer:
            for nb in neighbors(d):
                if nb not in dist:
                    if len(dist) >= cap:
                        raise ResourceCapError(cap, r)
                    dist[nb] = r + 1
                    following.append(nb)
        layer = following
        sphere_sizes.append(len(layer))
    return BallTable(radius, sphere_sizes, list(accumulate(sphere_sizes)), dist)


def dead_search(max_norm: int, cap: int = DEFAULT_CAP) -> List[str]:
    """Canonical keys of all dead elements of norm at most max_norm.

    Dead means all four norm deltas are -1.  Let bottom tree 1 start at
    leaf s0 and tree 2 at w.  A bridge head is a top leaf tree that is
    not top-near (near vertex 0 in the top forest) with a caret starting
    right of it.  By the cases of metric._norm_deltas, x0 and x1 are +1
    when bottom tree 0 or 1 is a leaf.  If both are carets, a caret
    starts at s0, so x0 is -1 iff s0 is top-near; x1^-1 is -1 iff tree 2
    is a leaf and w a bridge head, which makes w special and x0^-1 -1;
    x1 is -1 unless tree 1's root has a leaf right subtree and w - 1 is
    a bridge head.  So d is dead iff bottom trees 0 and 1 are carets, s0
    is top-near, tree 2 is a leaf at a bridge head w, and not both: tree
    1's right subtree is a leaf and top leaf w - 1 is a tree that is not
    top-near (a caret right of w is right of w - 1).

    A depth-first walk over the leaf scan of the module docstring tests
    this leaf by leaf, on an explicit stack.  Tree 1's right subtree is
    leaf w - 1 when its spine low (the scan's low restarted at s0) is new
    at leaf w - 2.  No vertex past w is near, so w costs 2, a caret start
    past it 3 or more, and every path past w ends dead.  A path goes on
    only while its norm leaves 6 for the rest in bottom tree 0, 5 in tree
    1 and 3 past w.  Each hit is confirmed with metric.is_dead.

    The cap bounds the ball of radius max_norm: count_spheres checks it
    and raises ResourceCapError where that ball passes it.  s_1 = 4 and
    s_{r+1} <= 3 s_r, so b_m <= 2 * 3^m - 1, and a larger cap is not
    counted.
    """
    if max_norm < 1:
        raise ValueError("max_norm must be at least 1")
    if not _cap_cannot_bind(max_norm, cap):
        count_spheres(max_norm, cap)
    found = []
    big = max_norm + 1
    # leaf v, norm so far, bottom trees closed before v (3 past w), the
    # scan's state, tree 1's spine low new at v - 1, the normal form so far
    stack = [(0, 0, 0, 0, big, 0, big, True, False, False, (), ())]
    while stack:
        v, cost, closed, top, top_low, bottom, bottom_low, near, both, right, pos, neg = stack.pop()
        if closed == 1 and not bottom:
            bottom_low = big  # tree 1 starts at s0
        if closed == 2 and (top or near) or closed == 1 and not (bottom or near):
            continue  # w is no bridge head, or s0 is not top-near
        charge = 0 if near else 2
        for c in range(max_norm - cost + 1):
            top2, top_low2, top_new = _forest_step(top, top_low, c)
            for d in range(max_norm - cost - c + 1):
                if both and not (c or d):
                    continue
                k = cost + (c + d + charge if c or d else 0 if top or bottom else charge)
                if k > max_norm or closed == 2 and (c or d):
                    break
                if closed < 2 and not (bottom or d):
                    continue  # bottom trees 0 and 1 are carets
                bottom2, bottom_low2, bottom_new = _forest_step(bottom, bottom_low, d)
                if closed == 1 and not bottom2 and right and not (top or c or near):
                    continue  # a leaf right subtree under a bridge head w - 1
                p, q = pos + (v,) * c, neg + (v,) * d
                if closed == 3 and (c or d) and not (c and d):
                    found.append(from_normal_form(NormalForm(p, q)))
                after = min(closed + (not bottom2), 3)
                if k + (6, 5, 5, 3)[after] <= max_norm:
                    stack.append((v + 1, k, after, top2, top_low2, bottom2, bottom_low2,
                                  top_new or bottom_new and not after, bool(c and d),
                                  bottom_new, p, q))
    for d in found:
        if not is_dead(d):  # pragma: no cover - would falsify the condition
            raise AssertionError(f"dead condition and norm deltas disagree at {canonical_key(d)}")
    return sorted(map(canonical_key, found))


def _cap_cannot_bind(radius: int, cap: int) -> bool:
    # s_1 = 4 and s_{r+1} <= 3 s_r, so b_radius <= 2 * 3^radius - 1: a cap
    # of at least that never binds.  3^bits > cap, so no larger power is
    # needed to tell
    return cap >= 2 * 3 ** min(radius, cap.bit_length()) - 1


def _forest_step(slots: int, low: int, carets: int) -> Tuple[int, int, bool]:
    # a leaf with `carets` caret starts in a forest with `slots` open
    # slots, 0 at a tree start: the open slots after it, the first tree's
    # low (0 once that tree is closed) and whether the leaf set a new low.
    # _sphere_counts inlines this same rule; change both together
    slots = slots - 1 + carets if slots else carets
    return slots, min(slots, low), slots < low


def _sphere_counts(radius: int) -> List[int]:
    # s_0..s_radius by the leaf scan of the module docstring, one leaf as
    # two half-steps.  A state's counts per norm are the base 2^width
    # digits of one integer, so a leaf of cost k shifts them k digits.
    # A digit at or below radius never overflows: it counts distinct
    # prefixes (a prefix and its mirror are two), and each prefix of norm
    # n < radius ends, through one more caret, in its own element of norm
    # at most n + 3, where b_{n+3} < 2^width.  A half-step prefix with
    # c_v > 0 is already a complete element (d_v = 0).  Digits above
    # radius are dropped, and their carries only move up.
    width = 2 * radius + 8
    live = (1 << width * radius) - 1  # norms below radius can go on
    # x * rows[charge] shifts x by each cost 1 + charge..radius of c_v = 0, d_v > 0
    rows = {charge: sum(1 << width * k for k in range(1 + charge, radius + 1)) for charge in (0, 2)}
    total = 1  # the identity
    span = radius + 2  # a forest's open slots and first-tree low as slots * span + low
    # the lesser forest, the other, vertex v near, both forests started a
    # caret at v - 1; the first tree's low is radius + 1 before leaf 0
    states: Dict[tuple, int] = defaultdict(int)
    states[(radius + 1, radius + 1, True, False)] = 1
    following: Dict[tuple, int] = defaultdict(int)
    while states:
        halves: Dict[tuple, int] = defaultdict(int)  # c_v > 0, the leaf's cost so far paid
        while states:
            (top, bottom, near, both), x = states.popitem()
            top, top_low = divmod(top, span)
            bottom, bottom_low = divmod(bottom, span)
            budget = radius - ((x & -x).bit_length() - 1) // width
            charge = 0 if near else 2  # for an active vertex v
            # c_v = 0 merges too few states to wait for a half-step
            total += x * rows[charge]  # any d_v > 0 ends the path at leaf v
            top_base = top - 1 if top else 0  # top slots after c_v = 0
            top_new = top_base < top_low
            p = top_base * span + (top_base if top_new else top_low)
            bottom_base = bottom - 1 if bottom else 0
            if not both and (top or bottom or charge < budget):  # c_v = d_v = 0
                q = bottom_base * span + (bottom_base if bottom_base < bottom_low else bottom_low)
                near = top_new or bottom_base < bottom_low
                y = x if top or bottom else x << width * charge & live
                following[(p, q, near, False) if p < q else (q, p, near, False)] += y
            y = x << width * charge
            for slots in range(bottom_base + 1, bottom_base + budget - charge):  # d_v > 0
                y = y << width & live
                q = slots * span + (slots if slots < bottom_low else bottom_low)
                near = top_new or slots < bottom_low
                following[(p, q, near, False) if p < q else (q, p, near, False)] += y
            x <<= width * charge
            for slots in range(top_base + 1, top_base + budget - charge + 1):  # c_v > 0
                x <<= width
                halves[(slots, slots if slots < top_low else top_low, slots < top_low,
                        bottom, bottom_low)] += x
        while halves:
            (top, top_low, top_new, bottom, bottom_low), y = halves.popitem()
            total += y  # d_v = 0: leaf v holds the last caret start
            budget = radius - ((y & -y).bit_length() - 1) // width
            p = top * span + top_low
            bottom_base = bottom - 1 if bottom else 0
            both = False
            y &= live
            for slots in range(bottom_base, bottom_base + budget):
                q = slots * span + (slots if slots < bottom_low else bottom_low)
                near = top_new or slots < bottom_low
                following[(p, q, near, both) if p < q else (q, p, near, both)] += y
                both = True
                y = y << width & live
        states, following = following, states
    digit = (1 << width) - 1
    return [total >> width * n & digit for n in range(radius + 1)]


def count_spheres(radius: int, cap: int = DEFAULT_CAP) -> List[int]:
    """Exact sphere sizes s_0..s_radius, counted without storing elements.

    Equal to enumerate_ball(radius, cap).sphere_sizes, errors included:
    ResourceCapError(cap, r) for the least r < radius with ball size
    b_{r+1} > cap, ValueError for a negative radius or cap.  A cap of at
    least 2 * 3^radius - 1, which b_radius never passes, cannot bind, and
    the count runs to the radius at once.  Otherwise it runs to radius
    1, 2, 4, ... in turn, each cut short where the ball is expected to
    pass the cap, and stops at the first ball past the cap, so the cap,
    not the radius, bounds the work.  Memory grows with the radius alone,
    so a count that would run past MAX_COUNT_RADIUS raises CountLimitError
    with the radius it completed.

    >>> count_spheres(5)
    [1, 4, 12, 36, 108, 314]
    """
    if cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    if radius <= MAX_COUNT_RADIUS and _cap_cannot_bind(radius, cap):
        return _sphere_counts(radius)
    reach = min(1, radius)
    while True:
        spheres = _sphere_counts(reach)
        balls = list(accumulate(spheres))
        for r in range(reach):
            if balls[r + 1] > cap:
                raise ResourceCapError(cap, r)
        if reach == radius:
            return spheres
        # stop one past where the ball, extrapolated at the last sphere
        # ratio, passes the cap; the counts are exact, so an estimate that
        # falls short costs one more round only
        following = min(2 * reach, radius)
        sphere, ball, ratio = spheres[-1], balls[-1], spheres[-1] / spheres[-2]
        for r in range(reach + 1, following):
            sphere *= ratio
            ball += sphere
            if ball > cap:
                following = r + 1
                break
        if following > MAX_COUNT_RADIUS:
            raise CountLimitError(MAX_COUNT_RADIUS, reach)
        reach = following
