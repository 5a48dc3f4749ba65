"""Every module under ``src/repro`` reads each name it imports, and
imports nothing but the standard library, numpy and ``repro`` itself.

An import that nothing reads hides what a module really depends on.  A
name imported only to be re-exported is listed in the module's
``__all__``.  The checks parse the source with ``ast`` and import
nothing, so they need only the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The top-level packages a module may import besides the standard
#: library: the package's one third-party dependency, and itself.
ALLOWED_PACKAGES = {"numpy", "repro"}

#: (module, name) imports kept on purpose without a read: e2ebench's
#: REQUIRED_BINDINGS patches ``platform_constraint`` in
#: ``repro.core.confuciux`` for its ``core.platform_constraint`` span.
KEPT = {("core/confuciux.py", "platform_constraint")}


def unread_imports(path: Path) -> set:
    """Names ``path`` imports but never reads nor lists in ``__all__``."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            imported.update(alias.asname or alias.name
                            for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported.update(ast.literal_eval(node.value))
    return imported - read - exported


def test_every_imported_name_is_read_or_exported():
    unread = {(path.relative_to(SRC).as_posix(), name)
              for path in sorted(SRC.rglob("*.py"))
              for name in unread_imports(path)}
    assert unread - KEPT == set()
    assert KEPT <= unread, "a kept import is read now: drop it from KEPT"


def imported_packages(path: Path) -> set:
    """Top-level package of every absolute import in ``path``, at module
    level or inside a function."""
    packages = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


def test_only_the_standard_library_and_numpy_are_imported():
    foreign = {(path.relative_to(SRC).as_posix(), package)
               for path in sorted(SRC.rglob("*.py"))
               for package in imported_packages(path)
               if package not in sys.stdlib_module_names
               and package not in ALLOWED_PACKAGES}
    assert foreign == set()
