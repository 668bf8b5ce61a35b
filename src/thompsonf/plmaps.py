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
a bug and must be impossible to represent, not silently handled.  A
Dyadic is an immutable (num, exp) pair, so equal numbers are equal
pairs and hash alike, and a PLMap is a named tuple of its points and
tail offset, so equal maps compare and hash equal as tuples.

Every map is validated and put in canonical form by one integer
canonicaliser, _canonical, which reads breakpoints as integers over a
common 2^e and builds a Dyadic only for each point it keeps; plmap()
lifts its dyadic points to their largest exponent and goes through it.
from_word_pl folds a word in one loop over its letters, on integer
breakpoints over a common power of two: f_k^+-1 changes y only on a
window starting at k, so each letter inserts at most two breakpoints,
rescales y inside the window, shifts it beyond, and merges slopes only
at the window's ends.  Validation, and dropping a slope-1 run before
the tail, are left to one call of _canonical.
compose_pl is the general product, and the tests hold from_word_pl
against the left fold of compose_pl over the generator maps.

from_diagram reads the map of an element off its tree-pair diagram
instead, the top|bottom string of the diagrams module, without folding
a word: tree j of either forest covers [j, j + 1], a leaf at depth a
has length 2^-a, and leaf i of the top forest goes linearly onto leaf i
of the bottom forest (J. Cannon, W. Floyd and W. Parry, "Introductory
notes on Richard Thompson's groups", 1996).  It reads the string only,
so this module imports nothing from diagrams, and the tests hold the
two readings against each other.  The command line's pl runs it; the
fold is the oracle.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import List, NamedTuple, Tuple

from .words import GenWord


class _DyadicPair(NamedTuple):
    num: int
    exp: int  # value = num / 2**exp, exp >= 0; num odd unless exp == 0


class Dyadic(_DyadicPair):
    """The exact number num / 2**exp, as an immutable (num, exp) pair.

    The constructor accepts only the normalized pair (exp >= 0, num odd
    unless exp == 0; dyadic() normalizes), so equality and hashing are
    those of the pair.  Order compares values, not pairs.
    """

    __slots__ = ()

    def __new__(cls, num: int, exp: int) -> "Dyadic":
        if exp < 0:
            raise ValueError("exponent must be nonnegative")
        if exp > 0 and num % 2 == 0:
            raise ValueError("unnormalized dyadic; use dyadic()")
        return tuple.__new__(cls, (num, exp))

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

    # as a tuple it would otherwise order and repeat as a pair
    def __gt__(self, other: "Dyadic") -> bool:
        a, b = self._cmp_key(other)
        return a > b

    def __ge__(self, other: "Dyadic") -> bool:
        a, b = self._cmp_key(other)
        return a >= b

    def __rmul__(self, other):
        raise TypeError(f"cannot multiply {type(other).__name__} by Dyadic")

    def __float__(self) -> float:
        return self.num / (1 << self.exp)

    def __str__(self) -> str:
        return f"{self.num}/2^{self.exp}"

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


def _two_adic(d: Dyadic) -> int:
    """The exponent of 2 in d != 0: log2 of d when d is a power of two."""
    return _trailing_zeros(d.num) - d.exp


class PLMap(NamedTuple):
    """Canonical form: breakpoints from (0,0), no collinear triple, and the
    final segment's slope differs from the tail slope 1 (except the bare
    identity).  tail_offset c gives f(t) = t + c beyond the last point.
    An immutable named tuple: equal maps are equal tuples."""

    points: Tuple[Point, ...]
    tail_offset: int


def _canonical(xs: List[int], ys: List[int], e: int) -> PLMap:
    """The PLMap through the points (xs[i], ys[i]) / 2^e with slope 1
    beyond the last: the one place where a map is validated and normalized.

    Checks that the chain starts at (0, 0), strictly increases and has
    power-of-two slopes; drops interior collinear points and a final
    slope-1 segment (absorbed by the tail); checks that the tail offset
    is an integer.  A Dyadic is built only for each point kept.
    """
    if not xs or xs[0] or ys[0]:
        raise ValueError("a PL map must start at (0, 0)")
    kept_x, kept_y = [0], [0]
    slope = None  # log2 of the last kept segment's slope
    chain = zip(xs, ys)
    next(chain)
    for x, y in chain:
        dx, dy = x - kept_x[-1], y - kept_y[-1]
        if dx <= 0 or dy <= 0:
            raise ValueError("breakpoints must strictly increase")
        ex, ey = _trailing_zeros(dx), _trailing_zeros(dy)
        if dy >> ey != dx >> ex:
            raise ValueError(f"slope {dyadic(dy, e)}/{dyadic(dx, e)} is not a power of two")
        if ey - ex == slope:  # collinear: the point replaces the last kept one
            kept_x[-1], kept_y[-1] = x, y
        else:
            kept_x.append(x)
            kept_y.append(y)
            slope = ey - ex
    # no two kept segments in a row share a slope, so one slope-1 segment
    # at most merges into the tail
    if slope == 0:
        del kept_x[-1], kept_y[-1]
    offset = kept_y[-1] - kept_x[-1]
    if offset & ((1 << e) - 1):
        raise ValueError(f"{dyadic(offset, e)} is not an integer")
    points = tuple((dyadic(x, e), dyadic(y, e)) for x, y in zip(kept_x, kept_y))
    return PLMap(points=points, tail_offset=offset >> e)


def plmap(points: List[Point]) -> PLMap:
    """Validate and normalize a breakpoint chain starting at (0, 0):
    _canonical on the points lifted to their largest exponent."""
    e = max((c.exp for p in points for c in p), default=0)
    return _canonical(
        [x.num << (e - x.exp) for x, _ in points],
        [y.num << (e - y.exp) for _, y in points],
        e,
    )


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
    hi = bisect_right(points, x, key=itemgetter(0))
    if hi == len(points):  # on the tail
        return x + (points[-1][1] - points[-1][0])
    (x0, y0), (x1, y1) = points[hi - 1], points[hi]
    return y0 + (x - x0).scale2(_two_adic(y1 - y0) - _two_adic(x1 - x0))


def invert_pl(f: PLMap) -> PLMap:
    """The inverse bijection: breakpoints transposed, tail negated."""
    return plmap([(y, x) for x, y in f.points])


def compose_pl(f: PLMap, g: PLMap) -> PLMap:
    """The map t -> g(f(t)): f applied first, matching word order."""
    finv = invert_pl(f)
    xs = {p[0] for p in f.points}
    xs.update(evaluate(finv, q[0]) for q in g.points)
    points = [(x, evaluate(g, evaluate(f, x))) for x in sorted(xs)]
    result = plmap(points)
    assert result.tail_offset == f.tail_offset + g.tail_offset
    return result


def from_word_pl(w: GenWord) -> PLMap:
    """The map of a word, letters applied left to right; () is the identity.

    Equal to the left fold of compose_pl over generator_map(k) and its
    inverse.  The map so far has breakpoints (xs[i], ys[i] + base) / 2^e
    and slope 1 beyond the last.  f_k^s moves y only on the window
    [k, k+1] (s = 1) or [k, k+2] (s = -1): slopes double or halve inside
    it and y shifts by s beyond it, or base takes the shift and the
    points below the window move back, whichever points are fewer.
    """
    xs, ys, e, base = [0], [0], 0, 0
    for k, s in w:
        if k < 0:
            raise ValueError("generator subscript must be nonnegative")
        if s != 1 and s != -1:
            raise ValueError(f"letter exponent must be 1 or -1, got {s}")
        bits = 0
        while True:  # a second pass follows a rescale
            if bits > 0:
                # raise e by at least bits, and by at least e/2 so that words
                # needing a bit per letter, like x0^n, rescale O(log n) times
                bits = max(bits, e // 2)
                xs, ys = [x << bits for x in xs], [y << bits for y in ys]
                e, base = e + bits, base << bits
            ends = []  # make the window's ends breakpoints
            for t in (k, k + 1 if s == 1 else k + 2):
                y = (t << e) - base
                i = bisect_left(ys, y)
                if i == len(ys):  # on the slope-1 tail
                    xs.append(xs[-1] + y - ys[-1])
                    ys.append(y)
                elif ys[i] != y:  # inside the segment from point i-1 to point i
                    dy = ys[i] - ys[i - 1]
                    num = (y - ys[i - 1]) * (xs[i] - xs[i - 1])
                    bits = _trailing_zeros(dy) - _trailing_zeros(num)
                    if bits > 0:
                        break
                    xs.insert(i, xs[i - 1] + num // dy)
                    ys.insert(i, y)
                ends.append(i)
            else:
                a, b = ends
                lo = k << e
                window = ys[a + 1 : b + 1]
                c = base + lo
                if s == 1 or not any((y + c) & 1 for y in window):
                    break
                bits = 1  # halving needs one more bit
        shift = s << e
        moved = shift if a + 1 < len(ys) - b - 1 else 0  # what base takes
        if moved:
            ys[: a + 1] = [y - shift for y in ys[: a + 1]]
        else:
            ys[b + 1 :] = [y + shift for y in ys[b + 1 :]]
        base += moved
        if s == 1:  # y + base becomes 2 (y + base) - lo
            c = base - 2 * moved - lo
            ys[a + 1 : b + 1] = [2 * y + c for y in window]
        else:  # y + base becomes (y + base + lo) / 2
            c = lo - base - moved
            ys[a + 1 : b + 1] = [(y + c) >> 1 for y in window]
        for j in (b, a):  # slopes change by 2^s across the window ends only
            if 0 < j < len(ys) - 1 and (ys[j] - ys[j - 1]) * (xs[j + 1] - xs[j]) == (
                ys[j + 1] - ys[j]
            ) * (xs[j] - xs[j - 1]):
                del xs[j], ys[j]
    result = _canonical(xs, [y + base for y in ys], e)
    assert result.tail_offset == sum(s for _, s in w)
    return result


def _forest_error(code: str) -> ValueError:
    # the first rule of a forest code, tree codes joined by ",", that code
    # breaks; a piece with no more leaves than carets is an unfinished tree
    pieces = code.split(",")
    unfinished = [p.count("(") >= p.count("L") for p in pieces]
    return ValueError(
        "a forest code has a character other than '(', 'L' or ','" if set(code) - set("(L,")
        else "a forest code is empty" if not code
        else "a forest code has an empty tree" if "" in pieces
        else "a forest code has a ',' inside a tree" if any(unfinished[:-1])
        else "a tree code runs past the end of its forest" if unfinished[-1]
        else "a forest code has two trees not joined by ','"
    )


def _leaf_runs(f: str, pos: int, end: int) -> List[Tuple[int, int]]:
    # the leaf depths of the forest code f[pos:end], left to right, as
    # (depth, count) runs.  A bare leaf tree is a leaf at depth 0, and a
    # stretch of them, "L," repeated to the next caret or to the end as if
    # a "," followed, is checked and counted in C; inside a tree with
    # carets, one Python step per character, with the depths of the
    # subtrees still to read on a stack, and then one count checks its leaves
    runs, begin = [], pos
    depth = count = 0  # the open run: count leaves at depth
    while pos <= end:
        c = f.find("(", pos, end)
        stop = c if c >= 0 else end + 1
        bare = f.count("L,", pos, stop) + (c < 0 and f.endswith("L", pos, end))
        if 2 * bare != stop - pos:
            raise _forest_error(f[begin:end])
        if bare and depth:
            runs.append((depth, count))
            depth = count = 0
        count += bare
        if c < 0:
            break
        stack, pos = [0], c
        while stack and pos < end:
            a = stack.pop()
            if f[pos] == "(":
                stack += (a + 1, a + 1)
            elif a == depth:
                count += 1
            else:
                if count:
                    runs.append((depth, count))
                depth, count = a, 1
            pos += 1
        if stack or 2 * f.count("L", c, pos) != pos - c + 1 or pos < end and f[pos] != ",":
            raise _forest_error(f[begin:end])
        pos += 1  # past the "," after the tree
    runs.append((depth, count))
    return runs


def from_diagram(d: str) -> PLMap:
    """The map of the element whose diagram string is d (top|bottom, as
    the diagrams module writes it).

    Leaf i of the top forest goes linearly onto leaf i of the bottom
    forest; tree j of either covers [j, j + 1] and a leaf at depth a has
    length 2^-a.  Each forest is read as runs of equal leaf depth, and
    the two run lists are merged into integer breakpoints over 2^e, e the
    larger maximum depth, so a stretch of bare leaf trees costs one
    breakpoint.  _canonical validates the chain and drops collinear
    points.  Equal to from_word_pl(w) for d = diagrams.from_word(w).
    """
    bar = d.find("|")
    if bar < 0:
        raise ValueError("a diagram string is top|bottom")
    # both forests are read in place, by their bounds in d
    tops, bottoms = _leaf_runs(d, 0, bar), _leaf_runs(d, bar + 1, len(d))
    e = max(max(tops)[0], max(bottoms)[0])
    xs, ys = [0], [0]
    x = y = 0
    tops, bottoms = iter(tops), iter(bottoms)
    (a, m), (b, n) = next(tops), next(bottoms)
    while m and n:  # the next m top and n bottom leaves have depths a and b
        k = min(m, n)
        x += k << (e - a)
        y += k << (e - b)
        xs.append(x)
        ys.append(y)
        m -= k
        n -= k
        if not m:
            a, m = next(tops, (0, 0))
        if not n:
            b, n = next(bottoms, (0, 0))
    if m or n:
        raise ValueError("the two forests have different leaf counts")
    return _canonical(xs, ys, e)
