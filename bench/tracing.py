"""Span tracing for the benchmark's traced run.

The traced run wraps public functions of the thompsonf modules from the
outside: every module attribute that refers to a traced function is
rebound to a timing wrapper, so calls from inside the package (for
example ``cayley.compose``) are caught as well as calls from the CLI.
Each call becomes a span (name, start, end, parent, size) kept in
compact in-memory arrays; self time is derived afterwards as a span's
duration minus the part of it covered by its child spans.  The untraced
run never imports this module's wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

Size = Optional[Callable[[tuple, object], int]]

# (module, function, size recorded with each span)
TRACED: Tuple[Tuple[str, str, Size], ...] = (
    ("words", "parse_word", None),
    ("diagrams", "compose", None),
    ("diagrams", "from_word", lambda args, result: len(args[0])),
    ("diagrams", "canonical_key", None),
    ("diagrams", "to_normal_form", None),
    ("metric", "norm", None),
    ("metric", "greedy_descent", None),
    ("metric", "is_dead", None),
    ("cayley", "enumerate_ball", lambda args, result: result.ball_sizes[-1]),
    ("cayley", "dead_search", None),
    ("cayley", "neighbors", None),
    ("growth", "run_automaton", None),
    ("gamma", "gamma_nm_concrete", lambda args, result: result.size),
    ("subgraphs", "full_subgraph", None),
    ("subgraphs", "boundary", None),
    ("subgraphs", "two_one_matching", None),
    ("subgraphs", "doubling_check", None),
    ("subgraphs", "folner_inequalities", None),
    ("plmaps", "from_word_pl", None),
    ("plmaps", "compose_pl", None),
    ("plmaps", "invert_pl", None),
    ("cli", "main", None),
)

# word-length bands for from_word time per letter: (label, lowest, highest)
LETTER_BANDS = (("len_0-16", 0, 16), ("len_17-64", 17, 64), ("len_65up", 65, None))


class Tracer:
    """Installs span-recording wrappers and turns spans into layer totals."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self._stack = [-1]
        self._enabled = [True]
        self._patches: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "thompsonf" or name.startswith("thompsonf."))
        ]
        for module_name, func_name, size in TRACED:
            original = getattr(sys.modules[f"thompsonf.{module_name}"], func_name)
            wrapper = self._wrap(original, f"{module_name}.{func_name}", size)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block, such as answer checks, record no spans."""
        self._enabled[0] = False
        try:
            yield
        finally:
            self._enabled[0] = True

    def _wrap(self, fn, name: str, size: Size):
        ident = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, sizes = (
            self.name_id, self.parent, self.start, self.end, self.size
        )
        stack, enabled = self._stack, self._enabled
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not enabled[0]:
                return fn(*args, **kwargs)
            index = len(start)
            name_id.append(ident)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            sizes.append(0)
            stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[index] = t0
                end[index] = t1
            if size is not None:
                sizes[index] = size(args, result)
            return result

        return traced

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per traced function: calls, self seconds and size sum, and for
        from_word the inclusive seconds and letters per length band."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        covered = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        out = {
            name: {"calls": 0, "self_s": 0.0, "size": 0}
            for name in self.names
        }
        bands = {label: [0.0, 0] for label, _, _ in LETTER_BANDS}
        for i in range(n):
            name = self.names[self.name_id[i]]
            duration = end[i] - start[i]
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += duration - covered[i]
            entry["size"] += self.size[i]
            if name == "diagrams.from_word":
                letters = self.size[i]
                for label, low, high in LETTER_BANDS:
                    if low <= letters and (high is None or letters <= high):
                        bands[label][0] += duration
                        bands[label][1] += letters
        out["diagrams.from_word"]["bands"] = bands
        return out

    def write(self, prefix: Path, context: dict) -> None:
        """Spans as raw arrays in prefix.bin, their layout in prefix.json."""
        fields = ("name_id", "parent", "start", "end", "size")
        with open(prefix.with_suffix(".bin"), "wb") as handle:
            for field in fields:
                getattr(self, field).tofile(handle)
        layout = {
            "context": context,
            "names": self.names,
            "count": len(self.start),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
        }
        prefix.with_suffix(".json").write_text(json.dumps(layout, indent=1))


def layer_metrics(totals: Dict[str, Dict[str, float]], ops: int) -> Dict[str, float]:
    """Per-layer metric values, normalised per workload operation."""
    metrics: Dict[str, float] = {}
    for module_name, func_name, _ in TRACED:
        name = f"{module_name}.{func_name}"
        metrics[f"{name}.calls"] = totals[name]["calls"] / ops
        metrics[f"{name}.self_s"] = totals[name]["self_s"] / ops
    compose = totals["diagrams.compose"]
    metrics["diagrams.compose.us_per_call"] = _ratio(1e6 * compose["self_s"], compose["calls"])
    for label, (seconds, letters) in totals["diagrams.from_word"]["bands"].items():
        metrics[f"diagrams.from_word.us_per_letter.{label}"] = _ratio(1e6 * seconds, letters)
    ball = totals["cayley.enumerate_ball"]
    metrics["cayley.elements"] = ball["size"] / ops
    new_elements = ball["size"] - ball["calls"]  # the identity is not new
    metrics["cayley.new_per_neighbor"] = _ratio(
        new_elements, 4 * totals["cayley.neighbors"]["calls"]
    )
    metrics["gamma.vertices"] = totals["gamma.gamma_nm_concrete"]["size"] / ops
    return metrics


UNITS = {
    "diagrams.compose.us_per_call": "us",
    "cayley.elements": "elements/op",
    "cayley.new_per_neighbor": "ratio",
    "cayley.bytes_per_element": "B",
    "gamma.vertices": "vertices/op",
    "trace.overhead_per_s": "1/s",
}


def unit_of(name: str) -> str:
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith(".self_s"):
        return "s/op"
    if ".us_per_letter." in name:
        return "us"
    return UNITS[name]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
