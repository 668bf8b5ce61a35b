"""The forest readers of diagrams and metric must not recurse.

A recursive walk over a nested-tuple forest fails on trees more than
about 1000 levels deep, which words like x0^1000 build.  compose's
helpers stay recursive on purpose: compose is the test oracle for
mul_letter, and only tests call it.
"""

import ast
import pathlib

import thompsonf

ALLOWED = {"_lcr", "_expansions", "_graft", "_cancel"}


def _self_calls(tree):
    # (qualified name, outermost enclosing name) of every function, nested
    # ones included, whose body calls it by name
    found = []

    def visit(node, outer, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                top = outer or child.name
                if any(
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == child.name
                    for call in ast.walk(child)
                ):
                    found.append((name, top))
                visit(child, top, name + ".")
            else:
                visit(child, outer, prefix)

    visit(tree, None, "")
    return found


def test_only_the_compose_oracle_recurses():
    package = pathlib.Path(thompsonf.__file__).parent
    recursive = []
    for module in ("diagrams.py", "metric.py"):
        tree = ast.parse((package / module).read_text(encoding="utf-8"))
        recursive += [(module, name, top) for name, top in _self_calls(tree)]
    assert [r for r in recursive if r[2] not in ALLOWED] == []
    assert {top for _, _, top in recursive} == ALLOWED
