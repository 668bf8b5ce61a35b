"""The reference loop that sets the speed every benchmark time is scaled to.

The host shares its cores with other machines' work: for periods of a
fraction of a second to minutes the same code runs up to 1.7x slower.
Such a slowdown moves this loop about as much as the library, so its
time, measured next to a timed window, gives the speed of the machine
at that moment, and a time t measured there is reported as
t * REFERENCE_S / (reference time).

The loop shares no code with the library, so a change to the library
leaves its time unchanged.  It imports nothing beyond gc, math and time,
so that timing it in the import probe's fresh interpreter does not
import a module ahead of the library.
"""

import gc
import math
import time

# Duration of one reference_loop on a calm machine.
REFERENCE_S = 0.025


def _random_tree(state: list, carets: int):
    """A binary tree with `carets` internal nodes as nested tuples, shaped
    by the linear congruential generator state[0]."""
    if carets == 0:
        return None
    state[0] = (state[0] * 1103515245 + 12345) % 2**31
    left = state[0] % carets
    return (_random_tree(state, left), _random_tree(state, carets - 1 - left))


def _encode(tree) -> str:
    return "0" if tree is None else "1" + _encode(tree[0]) + _encode(tree[1])


def reference_loop() -> int:
    """Fixed pure-Python work of the library's kind: builds nested-tuple
    trees, encodes them to strings and deduplicates them in a dict."""
    state = [1]
    seen = {}
    for i in range(2500):
        tree = _random_tree(state, 6 + i % 10)
        seen[_encode(tree)] = tree
    return len(seen)


def reference_seconds() -> float:
    """Best of two reference_loop times, after a full garbage collection."""
    gc.collect()
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best
