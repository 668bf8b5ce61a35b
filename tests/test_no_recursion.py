"""The forest readers of diagrams and metric must not recurse.

A recursive walk over a forest fails on trees more than about 1000
levels deep, which words like x0^1000 build.  The recursive tuple
product that serves as the oracle for mul_letter lives in
tests/tuple_oracle.py.
"""

import ast
import pathlib

import thompsonf


def _self_calls(tree):
    # qualified name of every function, nested ones included, whose body
    # calls it by name
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if any(
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == child.name
                    for call in ast.walk(child)
                ):
                    found.append(name)
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def test_diagrams_and_metric_do_not_recurse():
    package = pathlib.Path(thompsonf.__file__).parent
    recursive = []
    for module in ("diagrams.py", "metric.py"):
        tree = ast.parse((package / module).read_text(encoding="utf-8"))
        recursive += [(module, name) for name in _self_calls(tree)]
    assert recursive == []
