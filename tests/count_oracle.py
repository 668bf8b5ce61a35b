"""The full-step sphere counter: the oracle for cayley._sphere_counts.

It scans normal forms leaf by leaf like the library's counter, but each
state runs the whole (c, d) double loop of top and bottom caret starts
at once, and a state and its mirror (the forests swapped) stay apart.
It shares no code with cayley.
"""

from collections import defaultdict
from typing import Dict, List, Tuple


def _forest_step(slots: int, low: int, carets: int) -> Tuple[int, int, bool]:
    # a leaf with `carets` caret starts in a forest with `slots` open
    # slots, 0 at a tree start: the open slots after it, the first tree's
    # low (0 once that tree is closed) and whether the leaf set a new low
    slots = slots - 1 + carets if slots else carets
    return slots, min(slots, low), slots < low


def sphere_counts(radius: int) -> List[int]:
    # s_0..s_radius.  A state's counts per norm are the base 2^width
    # digits of one integer, so a leaf of cost k shifts them k digits.
    # No digit overflows: each prefix of norm n < radius ends, through
    # one more caret, in its own element of norm at most n + 3, and
    # b_{n+3} < 2^width.
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
