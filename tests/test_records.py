"""The package imports no dataclasses and runs only the modules a call
uses, and its record classes stay immutable values: fields cannot be set,
equal values hash equal, and the reprs of the large records leave out
their vertex tables."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from thompsonf.diagrams import from_word
from thompsonf.gamma import gamma_nm_concrete, xi_path
from thompsonf.plmaps import Dyadic, dyadic, from_word_pl, generator_map
from thompsonf.subgraphs import full_subgraph

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_import_pulls_in_no_dataclasses():
    probe = (
        "import sys; before = set(sys.modules); import thompsonf, thompsonf.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    added = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "thompsonf.cli" in added
    assert "dataclasses" not in added
    assert "inspect" not in added


# In a fresh interpreter: import the package and the CLI, run main on
# the given arguments, and print which thompsonf modules have run their
# body (a module entered lazily stays a subclass of ModuleType until its
# first attribute read runs it), which are entered in sys.modules, and
# which of fractions and decimal are loaded.
FOOTPRINT = """
import contextlib, io, json, sys, types
import thompsonf, thompsonf.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = thompsonf.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
package = {
    name[10:]: m for name, m in sys.modules.items() if name.startswith("thompsonf.")
}
print(json.dumps({
    "code": code,
    "ran": sorted(name for name, m in package.items() if type(m) is types.ModuleType),
    "entered": sorted(package),
    "stdlib": sorted({"fractions", "decimal"} & set(sys.modules)),
}))
"""
BASE = ["cli", "diagrams", "words"]


@pytest.mark.parametrize(
    "argv, ran, stdlib",
    [
        ([], BASE, []),
        (["nf", "x0"], BASE, []),
        (["spheres", "--radius", "5", "--format", "csv"], [*BASE, "cayley", "metric"], []),
        (["gamma", "--n", "3"], [*BASE, "gamma", "subgraphs"], ["decimal", "fractions"]),
        (["pl", "x0"], [*BASE, "plmaps"], []),
    ],
    ids=["import", "nf", "spheres-csv", "gamma", "pl"],
)
def test_modules_run_on_first_use(argv, ran, stdlib):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    report = json.loads(probe.stdout)
    assert report["code"] == 0
    assert report["ran"] == sorted(ran)
    assert report["stdlib"] == stdlib
    # every module stays entered, so code that looks them up in
    # sys.modules by name finds them before they run
    assert report["entered"] == sorted(
        [*BASE, "cayley", "gamma", "growth", "metric", "plmaps", "subgraphs"]
    )


def _records():
    g = gamma_nm_concrete(3, 2)
    return [
        (dyadic(3, 2), "num"),
        (from_word_pl(((0, 1), (1, -1))), "tail_offset"),
        (xi_path(2, 3), "edges"),
        (g, "column"),
        (g.subgraph(), "vertices"),
    ]


@pytest.mark.parametrize(
    "record, field", _records(), ids=["Dyadic", "PLMap", "LabeledGraph", "ConcreteGamma", "Subgraph"]
)
def test_fields_cannot_be_set(record, field):
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is value


def test_equal_values_hash_equal():
    assert dyadic(6, 2) == Dyadic(3, 1) and hash(dyadic(6, 2)) == hash(Dyadic(3, 1))
    assert dyadic(1, 1) != dyadic(1, 0)
    f = from_word_pl(((1, 1), (0, 1)))
    g = from_word_pl(((0, 1), (2, 1)))  # x1 x0 = x0 x2
    assert f is not g and f == g and hash(f) == hash(g)
    assert f != generator_map(0)
    assert len({f, g, generator_map(0)}) == 2


def test_dyadic_orders_by_value():
    half, one, three = dyadic(1, 1), dyadic(1), dyadic(3)
    assert half < one < three and three > one > half
    assert one <= one >= one and not half >= one
    assert max([one, half, three]) == three and sorted([three, half, one]) == [half, one, three]
    with pytest.raises(TypeError):
        2 * one


def test_reprs_leave_out_the_vertices():
    g = gamma_nm_concrete(3, 2)
    assert repr(g) == "ConcreteGamma(n=3, m=2)"
    assert repr(g.subgraph()) == f"Subgraph(size={g.size})"
    assert repr(full_subgraph([from_word(())])) == "Subgraph(size=1)"
    assert repr(dyadic(3, 2)) == "Dyadic(num=3, exp=2)"
