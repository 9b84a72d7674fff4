"""Every public engine has a caller inside the package, and every
defaulted parameter a caller that passes it.

A public top-level function of ``src/bmlab`` that no module of the
package references (outside its own definition and the re-export list of
``__init__.py``) is code that no command runs.  So is a parameter with a
default that no call in the package passes, by keyword or by position.
Each is either deleted or listed here with the reason it stays.
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


# defaulted parameters that no module of the package passes, kept on purpose
KEPT_WITHOUT_PASSER = {
    ("load_sequence", "window"): "the public way to put raw points on a data window wider than their hull; "
    "the commands take windows from their generators and SeparatedSequence.on_window",
}


def _defaulted_parameters():
    """{(function, parameter): index} of public top-level functions'
    parameters with a default; the index is None for keyword-only ones."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            for index, arg in enumerate(positional[first:], first):
                out[node.name, arg.arg] = index
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    out[node.name, arg.arg] = None
    return out


def _passed_parameters(defaulted):
    """The (function, parameter) pairs of ``defaulted`` that some call in the package passes."""
    passed = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            keywords = {kw.arg for kw in call.keywords}
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            for (fn, param), index in defaulted.items():
                if fn == name and (
                    param in keywords or None in keywords or (index is not None and (starred or index < len(call.args)))
                ):
                    passed.add((fn, param))
    return passed


def test_every_defaulted_parameter_is_passed_in_the_package():
    defaulted = _defaulted_parameters()
    unpassed = sorted(set(defaulted) - _passed_parameters(defaulted))
    assert unpassed == sorted(KEPT_WITHOUT_PASSER)  # a kept one that gained a passer leaves the list
