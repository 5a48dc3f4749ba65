"""Every module under ``src/repro`` reads each name it imports.

An import that nothing reads hides what a module really depends on.  A
name imported only to be re-exported is listed in the module's
``__all__``.  The check parses the source with ``ast`` and imports
nothing, so it needs only the standard library."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

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
