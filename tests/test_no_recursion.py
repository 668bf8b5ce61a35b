"""No function in the library may recurse.

A recursive walk over a forest fails on trees more than about 1000
levels deep, which words like x0^1000 build, and a recursive search
fails once its path outgrows the interpreter's recursion limit.  The
recursive oracles live in tests/tuple_oracle.py and tests/flow_oracle.py.
"""

import ast
import pathlib

import thompsonf


def _calls_itself(function):
    # a bare-name call, or a self.<name> call from a method
    for call in ast.walk(function):
        if isinstance(call, ast.Call):
            callee = call.func
            if isinstance(callee, ast.Name) and callee.id == function.name:
                return True
            if (
                isinstance(callee, ast.Attribute)
                and callee.attr == function.name
                and isinstance(callee.value, ast.Name)
                and callee.value.id == "self"
            ):
                return True
    return False


def _self_calls(tree):
    # qualified name of every function, nested ones and methods included,
    # whose body calls it
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if _calls_itself(child):
                    found.append(name)
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def test_guard_sees_method_and_closure_recursion():
    source = (
        "class Net:\n"
        "    def push(self, u):\n"
        "        return self.push(u)\n"
        "def outer():\n"
        "    def extend(depth):\n"
        "        extend(depth + 1)\n"
    )
    assert _self_calls(ast.parse(source)) == ["Net.push", "outer.extend"]


def test_library_does_not_recurse():
    package = pathlib.Path(thompsonf.__file__).parent
    recursive = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        recursive += [(path.name, name) for name in _self_calls(tree)]
    assert recursive == []
