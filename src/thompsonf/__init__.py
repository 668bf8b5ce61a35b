"""Exact computation in Thompson's group F on two generators.

Elements are reduced tree-pair diagrams; the word metric with respect to
{x0, x1} is computed combinatorially from the diagram, checked against
breadth-first search in the Cayley graph, and cross-checked against a
piecewise-linear representation that shares no code with the diagrams.
On top of the arithmetic sit: enumeration of balls and spheres, a search
for dead ends, a regular language of monotone words used for growth
lower bounds, a family of high-density finite subgraphs of the Cayley
graph, and amenability-style diagnostics (density, Folner ratios,
doubling, 2-to-1 matchings) for arbitrary finite subgraphs.

Importing the package runs none of its modules: each one is compiled and
run on first use, so a program pays only for the modules it touches.
The name thompsonf.gamma is the function gamma.gamma; the module is
importlib.import_module("thompsonf.gamma").
"""

# private names, so that dir() lists the public API only
import importlib.util as _util
import sys as _sys

__version__ = "0.1.0"

# the names the package re-exports, by the module that defines them
_EXPORTS = {
    "words": ("WordError", "format_word", "free_reduce", "inverse_word", "parse_word"),
    "diagrams": (
        "EPSILON", "GENERATOR_LETTERS", "MAX_LEAVES", "Diagram", "LeafLimitError", "NormalForm",
        "NormalFormError", "atomic", "canonical_key", "cell_count", "compose", "from_normal_form",
        "from_word", "invert", "leaf_count", "mul_letter", "normal_form_text", "normal_form_word",
        "to_normal_form", "validate_normal_form",
    ),
    "metric": (
        "MAX_DESCENT_WORK", "DescentLimitError", "active_vertices", "greedy_descent", "is_dead",
        "norm", "special_vertices",
    ),
    "cayley": (
        "BallTable", "CountLimitError", "ResourceCapError", "count_spheres", "dead_search",
        "enumerate_ball", "neighbors",
    ),
    "subgraphs": (
        "MatchingResult", "Subgraph", "boundary", "density", "doubling_check",
        "folner_inequalities", "full_subgraph", "min_degree", "q_value", "two_one_matching",
    ),
    "growth": ("is_l_word", "run_automaton", "series"),
    "gamma": (
        "ConcreteGamma", "LabeledGraph", "SizeLimitError", "apply_A", "bar", "closed_a",
        "closed_b", "closed_nu", "column_partition", "fullness_check", "gamma", "gamma_nm_concrete",
        "psi", "rank_counts", "xi_path", "xi_single",
    ),
    "plmaps": (
        "Dyadic", "PLMap", "compose_pl", "dyadic", "from_diagram", "from_word_pl", "generator_map",
        "invert_pl",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}


def _lazy(name: str):
    """The submodule `name`, entered in sys.modules but run only when one
    of its attributes is first read (importlib.util.LazyLoader)."""
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


words = _lazy("words")
diagrams = _lazy("diagrams")
metric = _lazy("metric")
cayley = _lazy("cayley")
subgraphs = _lazy("subgraphs")
growth = _lazy("growth")
plmaps = _lazy("plmaps")
# not bound: thompsonf.gamma is the function gamma.gamma, and with the
# module already in sys.modules no later import binds it over the function
_lazy("gamma")

__all__ = sorted({*_ORIGIN, *_EXPORTS})


def __getattr__(name: str):
    """A re-exported name, read from its module (running it on first use)
    and kept in the package for the next read."""
    try:
        module = _sys.modules[f"{__name__}.{_ORIGIN[name]}"]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_ORIGIN})
