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
"""

__version__ = "0.1.0"

from .words import WordError, format_word, free_reduce, inverse_word, parse_word
from .diagrams import (
    EPSILON,
    GENERATOR_LETTERS,
    MAX_LEAVES,
    Diagram,
    LeafLimitError,
    NormalForm,
    NormalFormError,
    atomic,
    canonical_key,
    cell_count,
    compose,
    from_normal_form,
    from_word,
    invert,
    leaf_count,
    mul_letter,
    normal_form_text,
    normal_form_word,
    to_normal_form,
    validate_normal_form,
)
from .metric import (
    MAX_DESCENT_WORK,
    DescentLimitError,
    active_vertices,
    greedy_descent,
    is_dead,
    norm,
    special_vertices,
)
from .cayley import (
    BallTable,
    CountLimitError,
    ResourceCapError,
    count_spheres,
    dead_search,
    enumerate_ball,
    neighbors,
)
from .subgraphs import (
    MatchingResult,
    Subgraph,
    boundary,
    density,
    doubling_check,
    folner_inequalities,
    full_subgraph,
    min_degree,
    q_value,
    two_one_matching,
)
from .growth import (
    collision_check,
    is_l_word,
    rate_estimate,
    run_automaton,
    series,
)
from .gamma import (
    ConcreteGamma,
    LabeledGraph,
    SizeLimitError,
    apply_A,
    bar,
    closed_a,
    closed_b,
    closed_nu,
    column_partition,
    density_bar,
    fullness_check,
    gamma,
    gamma_nm_concrete,
    psi,
    rank_counts,
    xi_path,
    xi_single,
)
from .plmaps import (
    Dyadic,
    PLMap,
    compose_pl,
    dyadic,
    from_word_pl,
    generator_map,
    invert_pl,
    pl_equal,
    pl_identity,
)
