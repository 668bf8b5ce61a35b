"""Piecewise-linear homeomorphisms of [0, infinity): the equality oracle.

The generator x_i acts as the map f_i with slope 1 on [0, i], slope 2 on
[i, i+1] and slope 1 afterwards, so f_i(t) = t + 1 far out.  Products of
the f_i^+-1 are exactly the increasing PL bijections with dyadic
breakpoints, power-of-two slopes and an integer-shift tail.  Composition
and inversion stay inside that class, every number involved is dyadic,
and two group words are equal in F iff their maps are equal, which makes
this module an oracle for the diagram arithmetic that shares no code
with it.

Dyadic numbers are kept as num / 2^exp with exp >= 0 and num odd unless
exp = 0.  Deliberately not Fraction: a non-dyadic intermediate value is
a bug and must be impossible to represent, not silently handled.

from_word_pl builds the map of a word one letter at a time on integer
breakpoints over a common power of two: f_k^+-1 changes y only on a
window starting at k, so each letter inserts at most two breakpoints,
rescales y inside the window, shifts it beyond, and merges slopes only
at the window's ends.  The result is validated once by plmap().
compose_pl is the general product, and the tests hold from_word_pl
against the left fold of compose_pl over the generator maps.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Tuple

from .words import GenWord


@dataclass(frozen=True)
class Dyadic:
    num: int
    exp: int  # value = num / 2**exp, exp >= 0; num odd unless exp == 0

    def __post_init__(self):
        if self.exp < 0:
            raise ValueError("exponent must be nonnegative")
        if self.exp > 0 and self.num % 2 == 0:
            raise ValueError("unnormalized dyadic; use dyadic()")

    def scale2(self, shift: int) -> "Dyadic":
        """Multiply by 2**shift (shift may be negative)."""
        return dyadic(self.num, self.exp - shift)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        return dyadic(
            (self.num << (e - self.exp)) + (other.num << (e - other.exp)), e
        )

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        return self + (-other)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.exp)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return dyadic(self.num * other.num, self.exp + other.exp)

    def _cmp_key(self, other: "Dyadic") -> Tuple[int, int]:
        e = max(self.exp, other.exp)
        return self.num << (e - self.exp), other.num << (e - other.exp)

    def __lt__(self, other: "Dyadic") -> bool:
        a, b = self._cmp_key(other)
        return a < b

    def __le__(self, other: "Dyadic") -> bool:
        a, b = self._cmp_key(other)
        return a <= b

    def __float__(self) -> float:
        return self.num / (1 << self.exp)

    def __str__(self) -> str:
        return f"{self.num}/2^{self.exp}"

    def is_integer(self) -> bool:
        return self.exp == 0

    def as_integer(self) -> int:
        if self.exp != 0:
            raise ValueError(f"{self} is not an integer")
        return self.num


def _trailing_zeros(n: int) -> int:
    """The exponent of 2 in n != 0 (negative n works too)."""
    return (n & -n).bit_length() - 1


def dyadic(num: int, exp: int = 0) -> Dyadic:
    """Normalized dyadic num / 2**exp; negative exp multiplies out."""
    if exp < 0:
        return Dyadic(num << (-exp), 0)
    if num == 0:
        return Dyadic(0, 0)
    shift = min(exp, _trailing_zeros(num))
    return Dyadic(num >> shift, exp - shift)


ZERO = dyadic(0)
ONE = dyadic(1)

Point = Tuple[Dyadic, Dyadic]


def _odd_part_and_exp(n: int) -> Tuple[int, int]:
    if n == 0:
        raise ValueError("zero has no odd part")
    e = _trailing_zeros(n)
    return n >> e, e


def _slope_exponent(dy: Dyadic, dx: Dyadic) -> int:
    """e with dy/dx = 2**e; raises when the ratio is not a power of two."""
    if dy.num <= 0 or dx.num <= 0:
        raise ValueError("breakpoints must strictly increase")
    oy, ey = _odd_part_and_exp(dy.num)
    ox, ex = _odd_part_and_exp(dx.num)
    if oy != ox:
        raise ValueError(f"slope {dy}/{dx} is not a power of two")
    return (ey - dy.exp) - (ex - dx.exp)


@dataclass(frozen=True)
class PLMap:
    """Canonical form: breakpoints from (0,0), no collinear triple, and the
    final segment's slope differs from the tail slope 1 (except the bare
    identity).  tail_offset c gives f(t) = t + c beyond the last point."""

    points: Tuple[Point, ...]
    tail_offset: int


def _collinear(p: Point, q: Point, r: Point) -> bool:
    return (q[1] - p[1]) * (r[0] - q[0]) == (r[1] - q[1]) * (q[0] - p[0])


def plmap(points: List[Point]) -> PLMap:
    """Validate and normalize a breakpoint chain starting at (0, 0).

    Drops interior collinear points and any final run of slope-1
    segments (absorbed by the tail); checks strict monotonicity and
    power-of-two slopes along the way.
    """
    if not points or points[0] != (ZERO, ZERO):
        raise ValueError("a PL map must start at (0, 0)")
    kept: List[Point] = [points[0]]
    for p in points[1:]:
        _slope_exponent(p[1] - kept[-1][1], p[0] - kept[-1][0])  # validates
        while len(kept) >= 2 and _collinear(kept[-2], kept[-1], p):
            kept.pop()
        kept.append(p)
    # merge a trailing slope-1 segment into the tail
    while len(kept) >= 2:
        x, y = kept[-1]
        px, py = kept[-2]
        if y - py == x - px:
            kept.pop()
        else:
            break
    x_last, y_last = kept[-1]
    offset = y_last - x_last
    return PLMap(points=tuple(kept), tail_offset=offset.as_integer())


def pl_identity() -> PLMap:
    return PLMap(points=((ZERO, ZERO),), tail_offset=0)


def generator_map(i: int) -> PLMap:
    """f_i: slope 1 on [0, i], slope 2 on [i, i+1], then t + 1."""
    if i < 0:
        raise ValueError("generator subscript must be nonnegative")
    points: List[Point] = [(ZERO, ZERO)]
    if i > 0:
        points.append((dyadic(i), dyadic(i)))
    points.append((dyadic(i + 1), dyadic(i + 2)))
    return plmap(points)


def evaluate(f: PLMap, x: Dyadic) -> Dyadic:
    """Exact value f(x) for x >= 0."""
    if x < ZERO:
        raise ValueError("the domain is [0, infinity)")
    points = f.points
    last_x, last_y = points[-1]
    if not x < last_x:
        return x + (last_y - last_x)
    lo, hi = 0, len(points) - 1
    while lo + 1 < hi:  # points[lo].x <= x < points[hi].x
        mid = (lo + hi) // 2
        if points[mid][0] <= x:
            lo = mid
        else:
            hi = mid
    x0, y0 = points[lo]
    x1, y1 = points[hi]
    e = _slope_exponent(y1 - y0, x1 - x0)
    return y0 + (x - x0).scale2(e)


def invert_pl(f: PLMap) -> PLMap:
    """The inverse bijection: breakpoints transposed, tail negated."""
    return plmap([(y, x) for x, y in f.points])


def evaluate_inverse(f: PLMap, y: Dyadic) -> Dyadic:
    return evaluate(invert_pl(f), y)


def compose_pl(f: PLMap, g: PLMap) -> PLMap:
    """The map t -> g(f(t)): f applied first, matching word order."""
    finv = invert_pl(f)
    xs = {p[0] for p in f.points}
    xs.update(evaluate(finv, q[0]) for q in g.points)
    points = [(x, evaluate(g, evaluate(f, x))) for x in sorted(xs)]
    result = plmap(points)
    assert result.tail_offset == f.tail_offset + g.tail_offset
    return result


class _Chain:
    """A PL map under construction: breakpoints (xs[i], ys[i] + base) / 2^e.

    Every coordinate is an integer over one common 2^e, and the map has
    slope 1 beyond its last point.  The offset base is shared by all the
    ys, so a letter can move either the points above its window or the
    points below it, whichever are fewer.
    """

    def __init__(self) -> None:
        self.xs: List[int] = [0]
        self.ys: List[int] = [0]
        self.e = 0
        self.base = 0

    def rescale(self, bits: int) -> None:
        """Raise e by at least bits, and by at least e/2 so that words which
        need one more bit per letter, like x0^n, rescale O(log n) times."""
        bits = max(bits, self.e // 2)
        self.xs = [x << bits for x in self.xs]
        self.ys = [y << bits for y in self.ys]
        self.e += bits
        self.base <<= bits

    def split_at(self, k: int) -> int:
        """Make the integer k a breakpoint value; return the point's index."""
        while True:  # a second pass follows a rescale
            xs, ys = self.xs, self.ys
            y = (k << self.e) - self.base
            i = bisect_left(ys, y)
            if i == len(ys):  # on the slope-1 tail
                xs.append(xs[-1] + y - ys[-1])
                ys.append(y)
            elif ys[i] != y:  # inside the segment from point i-1 to point i
                dy = ys[i] - ys[i - 1]
                num = (y - ys[i - 1]) * (xs[i] - xs[i - 1])
                if _trailing_zeros(num) < _trailing_zeros(dy):
                    self.rescale(_trailing_zeros(dy) - _trailing_zeros(num))
                    continue
                xs.insert(i, xs[i - 1] + num // dy)
                ys.insert(i, y)
            return i

    def apply(self, k: int, s: int) -> None:
        """Follow the map by f_k^s, which moves y only on the window
        [k, k+1] (s = 1) or [k, k+2] (s = -1): slopes double or halve
        inside it and y shifts by s beyond it."""
        if k < 0:
            raise ValueError("generator subscript must be nonnegative")
        a = self.split_at(k)
        b = self.split_at(k + (1 if s == 1 else 2))
        window = self.ys[a + 1 : b + 1]
        if s != 1 and any((y + self.base + (k << self.e)) & 1 for y in window):
            self.rescale(1)  # halving needs one more bit
            window = self.ys[a + 1 : b + 1]
        xs, ys, base, lo = self.xs, self.ys, self.base, k << self.e
        shift = (1 if s == 1 else -1) << self.e
        move_prefix = a + 1 < len(ys) - b - 1
        if move_prefix:  # base takes the shift; the points below move back
            self.base += shift
        if s == 1:
            c = 2 * base - lo - self.base
            window = [2 * y + c for y in window]
        else:
            c = base + lo
            window = [((y + c) >> 1) - self.base for y in window]
        if move_prefix:
            ys[: b + 1] = [y - shift for y in ys[: a + 1]] + window
        else:
            ys[a + 1 :] = window + [y + shift for y in ys[b + 1 :]]
        # slopes change by 2^s across the window ends only
        for j in (b, a):
            if 0 < j < len(ys) - 1 and (ys[j] - ys[j - 1]) * (xs[j + 1] - xs[j]) == (
                ys[j + 1] - ys[j]
            ) * (xs[j] - xs[j - 1]):
                del xs[j], ys[j]
        while len(ys) > 1 and ys[-1] - ys[-2] == xs[-1] - xs[-2]:
            del xs[-1], ys[-1]

    def points(self) -> List[Point]:
        e, base = self.e, self.base
        return [(dyadic(x, e), dyadic(y + base, e)) for x, y in zip(self.xs, self.ys)]


def from_word_pl(w: GenWord) -> PLMap:
    """The map of a word, letters applied left to right; () is the identity.

    Equal to the left fold of compose_pl over generator_map(k) and its
    inverse, but each letter is a local edit of integer breakpoints (see
    _Chain.apply), and plmap() validates the result once at the end.
    """
    chain = _Chain()
    for k, s in w:
        chain.apply(k, s)
    result = plmap(chain.points())
    assert result.tail_offset == sum(s for _, s in w)
    return result


def pl_equal(f: PLMap, g: PLMap) -> bool:
    """Structural equality of canonical forms decides equality in F."""
    return f == g
