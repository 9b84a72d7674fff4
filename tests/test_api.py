"""Every public engine has a caller inside the package.

A public top-level function of ``src/bmlab`` that no module of the
package references (outside its own definition and the re-export list of
``__init__.py``) is code that no command runs.  It is either deleted or
listed here with the reason it stays.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bmlab"

# public functions that no command calls, kept on purpose
KEPT_WITHOUT_CALLER = {
    "count_in": "the exact point count, the reference of the witness ladder walk in tests/test_density.py",
    "eval_qcos": "the model function itself, evaluated by acceptance criterion 9 and the zero-set tests",
    "zero_set_qcos": "the model function's zeros as a sequence, the input of acceptance criterion 9",
}


def _public_functions_and_references():
    """{name: module} of public top-level functions, and {name: modules referencing it}."""
    defined, referenced = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        own = {}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined[node.name] = path.stem
                own[node.name] = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if id(node) in own.get(name, ()):
                continue  # a recursive call is not a caller
            referenced.setdefault(name, set()).add(path.stem)
    return defined, referenced


def test_every_public_function_has_a_caller_in_the_package():
    defined, referenced = _public_functions_and_references()
    orphans = sorted(name for name in defined if name not in referenced)
    assert orphans == sorted(KEPT_WITHOUT_CALLER)  # a kept one that gained a caller leaves the list
