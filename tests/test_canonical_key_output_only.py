"""canonical_key is an output format, not a vertex key.

Diagrams are hashable and unique per group element, so every module
keys its tables by the Diagram itself.  The string key is defined in
diagrams and printed by cayley's dead-element search; the package
__init__ re-exports it for library users.  No other module may name it.
"""

import ast
import pathlib

import thompsonf

ALLOWED = {"diagrams.py", "cayley.py", "__init__.py"}


def _names_canonical_key(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "canonical_key":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "canonical_key":
            return True
        if isinstance(node, ast.alias) and node.name == "canonical_key":
            return True
    return False


def test_canonical_key_only_in_output_modules():
    package = pathlib.Path(thompsonf.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert {"subgraphs.py", "gamma.py", "cli.py"} <= {p.name for p in modules}
    offenders = [
        p.name
        for p in modules
        if p.name not in ALLOWED
        and _names_canonical_key(ast.parse(p.read_text(encoding="utf-8")))
    ]
    assert offenders == []
