"""Every public engine has a caller inside the package, every defaulted
parameter a caller that passes it, the package root re-exports nothing,
a data class has one constructor, its dataclass ``__init__``, and a
sequence is built only in ``bmlab.sequences``.

A public top-level function of ``src/bmlab``, or a public method or
property of one of its classes, that no module of the package references
outside its own definition is code that no command runs.  So is a
parameter with a default that no call in the package passes, by keyword
or by position.  Each is either deleted or listed here with the reason it
stays.  Names are imported from their modules, so ``__init__.py`` holds
only its docstring: one import path per name.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bmlab"

# public functions, methods and properties that no command calls, kept on purpose
KEPT_WITHOUT_CALLER = {
    "count_in": "the exact point count, the reference of the witness ladder walk in tests/test_density.py",
    "eval_qcos": "the model function itself, evaluated by acceptance criterion 9 and the zero-set tests",
    "zero_set_qcos": "the model function's zeros as a sequence, the input of acceptance criterion 9",
    "PiecewiseLinear.grid_on": "the sequences.grid_on layer the benchmark tracer times (bench/spans.py), "
    "and the grid of sweep_reference, the plain sweep tests/test_envelope.py checks bm_family against",
}


def _public_definitions_and_references():
    """{qualified name: ids of the nodes that reference it outside its own
    definition} of public top-level functions and of public methods and
    properties of top-level classes.  A function is referenced by a name
    or an attribute that is read, a method or property only by an
    attribute that is read."""
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))]
    defined, names, attributes = {}, {}, {}
    for tree in trees:  # all kept alive, so no two nodes share an id
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                members = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                members = [(f"{node.name}.{m.name}", m) for m in node.body if isinstance(m, ast.FunctionDef)]
            else:
                members = []
            for qualified, fn in members:
                if not fn.name.startswith("_"):
                    defined[qualified] = fn
        for node in ast.walk(tree):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue  # an assignment to the name is not a use
            if isinstance(node, ast.Name):
                names.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, set()).add(id(node))
    references = {}
    for qualified, fn in defined.items():
        refs = attributes.get(fn.name, set()) | (set() if "." in qualified else names.get(fn.name, set()))
        references[qualified] = refs - {id(n) for n in ast.walk(fn)}  # a recursive call is not a caller
    return references


def test_every_public_function_has_a_caller_in_the_package():
    orphans = sorted(name for name, refs in _public_definitions_and_references().items() if not refs)
    assert orphans == sorted(KEPT_WITHOUT_CALLER)  # a kept one that gained a caller leaves the list


def test_the_package_root_holds_only_its_docstring():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree) and len(tree.body) == 1


def _builds_an_instance(method):
    """Whether a classmethod calls its class, or its class's ``__new__``."""
    cls = method.args.args[0].arg if method.args.args else None
    for node in ast.walk(method):
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == cls or (
                isinstance(func, ast.Attribute) and func.attr == "__new__" and getattr(func.value, "id", None) == cls
            ):
                return True
    return False


def test_data_classes_have_only_their_dataclass_constructor():
    # outside data is checked where it enters (load_sequence, family_from_csv,
    # the command line); a value type neither checks itself nor has a second,
    # unchecked way in
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if not isinstance(member, ast.FunctionDef):
                    continue
                classmethod_ = any(getattr(d, "id", None) == "classmethod" for d in member.decorator_list)
                if member.name == "__post_init__" or (classmethod_ and _builds_an_instance(member)):
                    found.append(f"{node.name}.{member.name}")
    assert found == []


def test_a_sequence_is_built_only_in_its_module():
    # every SeparatedSequence takes its delta from sequences._minimal_gap,
    # and generated points are trusted there without a second check
    builders = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "SeparatedSequence"
    }
    assert builders == {"sequences.py"}


# defaulted parameters that no module of the package passes, kept on purpose
KEPT_WITHOUT_PASSER = {}


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


def test_the_envelope_reads_ordinates_only_through_the_accessors():
    # a GammaLine forms its ordinates where a reader asks for them: a read of
    # gamma.y or gamma.rises would form them all, so bm_family asks only
    # through ordinates, ordinate, first_rise, last_rise, falls,
    # count_at_least, suffix_max and trend
    tree = ast.parse((PACKAGE / "envelope.py").read_text(encoding="utf-8"))
    reads = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in ("y", "rises")]
    assert reads == []
