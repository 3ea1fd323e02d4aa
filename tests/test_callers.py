"""Every function, class, method and property in the package has a caller in the
package, and so has every parameter with a default or after ``*``.

A name that only the tests use belongs with the tests, as a reference (see
``scalar_reference.py``). The scan reads the syntax trees: a method or
property counts as used where an attribute of that name is read, and a
module-level name where it is loaded or read as an attribute. An import, a
re-export in ``__init__.py``, a docstring or a comment is no use. A
parameter that no call passes is a default that is in fact a constant.
"""

import ast
import math
from collections import Counter, defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "citypulse"


def test_every_name_in_the_package_has_a_caller_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    loaded, read = Counter(), Counter()
    for name, tree in trees.items():
        if name != "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    loaded[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    read[node.attr] += 1
    unused = []
    for module, tree in trees.items():
        for top in tree.body:
            members = top.body if isinstance(top, ast.ClassDef) else []
            for node in [top, *members]:
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    continue
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                uses = read[name] + (loaded[name] if node is top else 0)
                if not uses:
                    unused.append(f"{module}:{node.lineno} {name}")
    assert unused == []


def _signature_defaults(function: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """Each defaulted or keyword-only parameter, with its place among the
    positional arguments of a call (None for keyword-only); a method's first
    parameter is bound, not passed, unless it is a staticmethod."""
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    skip = 1 if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                   for d in function.decorator_list) else 0
    defaulted = [(a.arg, place - skip)
                 for place, a in enumerate(positional)][len(positional) - len(args.defaults):]
    return defaulted + [(a.arg, None) for a in args.kwonlyargs]


# the console-script hook: tests fill argv, the installed script leaves it to sys.argv
UNPASSED_BY_DESIGN = {("cli.py", "main", "argv")}


def test_every_optional_parameter_is_passed_by_a_caller_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    # per called name (a function, a method or a class): the most positional
    # arguments of a call, and the keywords passed; a starred argument passes
    # every place, a ** argument every keyword
    most_places, keywords = Counter(), defaultdict(set)
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called is None:
                continue
            places = math.inf if any(isinstance(a, ast.Starred) for a in node.args) \
                else len(node.args)
            most_places[called] = max(most_places[called], places)
            keywords[called].update(k.arg for k in node.keywords)
    unpassed = []
    for module, tree in trees.items():
        scopes = [(tree, None)]
        while scopes:
            scope, owner = scopes.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, ast.ClassDef):
                    scopes.append((node, node.name))
                elif isinstance(node, ast.FunctionDef):
                    scopes.append((node, None))
                    called = owner if node.name == "__init__" else node.name
                    for param, place in _signature_defaults(node, owner is not None):
                        passed = keywords[called]
                        if not (param in passed or None in passed
                                or (place is not None and most_places[called] > place)
                                or (module, node.name, param) in UNPASSED_BY_DESIGN):
                            unpassed.append(f"{module}:{node.lineno} {node.name}({param})")
    assert unpassed == []
