"""The package's public names stay what they were when every module ran at
import: each re-exported name is the defining module's object, the star
import binds the same names, thompsonf.gamma stays the function, and the
resource caps share one base class without changing their own names.

Five names that only tests called are no longer public: collision_check
moved to tests/language_oracle.py; rate_estimate is c_n / c_{n-1} on
series; density_bar is bar(gamma(n)).density(); pl_equal is == on PLMap;
and pl_identity is the literal PLMap(((ZERO, ZERO),), 0)."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import thompsonf
from thompsonf import cayley, diagrams, growth, metric

gamma_module = importlib.import_module("thompsonf.gamma")

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# the public names of the package, by defining module, as they were when
# `import thompsonf` ran every module, less the five above
PUBLIC = {
    "words": "WordError format_word free_reduce inverse_word parse_word",
    "diagrams": (
        "EPSILON GENERATOR_LETTERS MAX_LEAVES Diagram LeafLimitError NormalForm NormalFormError "
        "atomic canonical_key cell_count compose from_normal_form from_word invert leaf_count "
        "mul_letter normal_form_text normal_form_word to_normal_form validate_normal_form"
    ),
    "metric": (
        "MAX_DESCENT_WORK DescentLimitError active_vertices greedy_descent is_dead norm "
        "special_vertices"
    ),
    "cayley": (
        "BallTable CountLimitError ResourceCapError count_spheres dead_search enumerate_ball "
        "neighbors"
    ),
    "subgraphs": (
        "MatchingResult Subgraph boundary density doubling_check folner_inequalities "
        "full_subgraph min_degree q_value two_one_matching"
    ),
    "growth": "is_l_word run_automaton series",
    "gamma": (
        "ConcreteGamma LabeledGraph SizeLimitError apply_A bar closed_a closed_b closed_nu "
        "column_partition fullness_check gamma gamma_nm_concrete psi rank_counts "
        "xi_path xi_single"
    ),
    "plmaps": (
        "Dyadic PLMap compose_pl dyadic from_diagram from_word_pl generator_map invert_pl"
    ),
}
MODULES = sorted(PUBLIC)
NAMES = sorted({name for names in PUBLIC.values() for name in names.split()} | set(MODULES))


def _fresh(code, *argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    ).stdout


@pytest.mark.parametrize("module", MODULES)
def test_reexports_are_the_modules_objects(module):
    source = importlib.import_module(f"thompsonf.{module}")
    for name in PUBLIC[module].split():
        assert getattr(thompsonf, name) is getattr(source, name), name
    if module != "gamma":
        assert getattr(thompsonf, module) is source


def test_dir_lists_the_public_names():
    public = {name for name in dir(thompsonf) if not name.startswith("_")}
    assert public - {"cli"} == set(NAMES)
    with pytest.raises(AttributeError, match="has no attribute 'nonesuch'"):
        thompsonf.nonesuch


def test_star_import_binds_the_same_names():
    probe = (
        "ns = {}; exec('from thompsonf import *', ns); del ns['__builtins__']; print(*sorted(ns))"
    )
    assert _fresh(probe).split() == NAMES


def test_gamma_stays_the_function():
    assert thompsonf.gamma is gamma_module.gamma
    # in a fresh interpreter, neither running the gamma subcommand nor
    # importing the module by name binds the module over the function
    probe = (
        "import contextlib, importlib, io, types, thompsonf, thompsonf.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert thompsonf.cli.main(['gamma', '--n', '3']) == 0\n"
        "after_cli = thompsonf.gamma\n"
        "module = importlib.import_module('thompsonf.gamma')\n"
        "assert type(module) is types.ModuleType\n"
        "print(after_cli is module.gamma, thompsonf.gamma is module.gamma)\n"
    )
    assert _fresh(probe).split() == ["True", "True"]


@pytest.mark.parametrize(
    "module, name",
    [
        (diagrams, "LeafLimitError"),
        (metric, "DescentLimitError"),
        (cayley, "ResourceCapError"),
        (cayley, "CountLimitError"),
        (growth, "ResourceError"),
        (gamma_module, "SizeLimitError"),
    ],
)
def test_caps_share_one_base(module, name):
    cls = getattr(module, name)
    assert (cls.__name__, cls.__module__) == (name, module.__name__)
    assert issubclass(cls, diagrams.LimitError) and issubclass(cls, RuntimeError)


def test_default_cap_lives_in_diagrams():
    assert cayley.DEFAULT_CAP is diagrams.DEFAULT_CAP == 10_000_000
