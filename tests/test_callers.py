"""Every function, class, method and property in the package has a caller in the package.

A name that only the tests use belongs with the tests, as a reference (see
``scalar_reference.py``). The scan reads the syntax trees: a method or
property counts as used where an attribute of that name is read, and a
module-level name where it is loaded or read as an attribute. An import, a
re-export in ``__init__.py``, a docstring or a comment is no use.
"""

import ast
from collections import Counter
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
