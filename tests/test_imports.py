"""Every module-level import in src/lrbounds is read there or re-exported by __all__.

No linter runs on this tree, so this is the guard against dead aliases.
"""

import ast
import importlib
import pathlib

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
