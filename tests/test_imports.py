"""Import hygiene of the package modules, read from their syntax trees.

Every name a module imports is used in it or listed in its ``__all__``.  The
only exceptions are two re-exported bindings that the benchmark's tracer
patches (``bench/selftest.py`` pins them).
"""

import ast
import pathlib

import eitdisk

# (module, name): bound in the module for the tracer, read nowhere in it
_TRACED_BINDINGS = {("inverse", "inverse_matrix"), ("partial", "solve_moment_problem")}


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return imported - used - exported


def test_every_imported_name_is_used_or_exported():
    modules = sorted(p for p in pathlib.Path(eitdisk.__file__).parent.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 10
    unused = {(path.stem, name) for path in modules for name in _unused_imports(path)}
    assert unused == _TRACED_BINDINGS
