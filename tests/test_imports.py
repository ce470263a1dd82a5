"""Three structure guards over src/lrbounds, read with the stdlib ast module.

Every module-level import is read there or re-exported by __all__ (no linter
runs on this tree, so this is the guard against dead aliases), each shared
argument rule is written only in its home module (params, or metrics for
word length), and the exact integer objects behind g are named only in exact.
"""

import ast
import importlib
import pathlib
import re

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "lrbounds"


def _bound_names(node):
    """Names a top-level import statement binds; none for `from __future__`."""
    if isinstance(node, ast.Import):
        return [(a.asname or a.name).split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [a.asname or a.name for a in node.names]
    return []


def _unread_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    module = "lrbounds" if path.stem == "__init__" else f"lrbounds.{path.stem}"
    exported = set(getattr(importlib.import_module(module), "__all__", ()))
    return [f"{path.name}: {name}" for node in tree.body for name in _bound_names(node)
            if name not in read and name not in exported]


def test_every_module_level_import_is_read_or_exported():
    unread = [item for path in sorted(PACKAGE.glob("*.py")) for item in _unread_imports(path)]
    assert unread == []


# Each shared argument rule's error message, as a pattern over a module's string
# literals, and the one module that may hold it.  An f-string is read as its
# source, so the template `need {name} >= {floor}` and a copy `need n >= 1` both match.
RULES = {
    r"need \S+ >= \S": "params.py",
    r" in \[0,1\]": "params.py",
    r"need 0 < \S+ < 1": "params.py",
    r"need 1 <= ell <= q-1": "params.py",
    r"words must share one length": "metrics.py",
}


def _strings(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [ast.unparse(n) if isinstance(n, ast.JoinedStr) else n.value for n in ast.walk(tree)
            if isinstance(n, ast.JoinedStr)
            or isinstance(n, ast.Constant) and isinstance(n.value, str)]


def test_each_shared_rule_is_written_only_in_its_home():
    strings = {path.name: _strings(path) for path in sorted(PACKAGE.glob("*.py"))}
    homes = {rule: [name for name, found in strings.items()
                    if any(re.search(rule, s) for s in found)] for rule in RULES}
    assert homes == {rule: [home] for rule, home in RULES.items()}


# The exact layer's integer building blocks; other modules read only its float-ready results.
EXACT_ONLY = ("_orbits", "_binomial_row", "_split_sums")


def _names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.update(filter(None, (n.name, n.asname)))
        elif isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            found.add(n.name)
    return found


def test_exact_integer_objects_are_named_only_in_exact():
    homes = {name: sorted(path.name for path in PACKAGE.glob("*.py") if name in _names(path))
             for name in EXACT_ONLY}
    assert homes == {name: ["exact.py"] for name in EXACT_ONLY}
