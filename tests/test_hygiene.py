"""Source hygiene that no installed linter checks: every imported name is read."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hgchat").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read; ``__all__`` entries count as
    read, and ``from __future__`` imports are exempt."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}.{p.stem}")
def test_every_imported_name_is_read(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os\nimport sys as system\n"
                     "from math import pi, tau\n__all__ = ['tau']\nprint(system.argv)\n")
    assert unused_imports(tree) == ["os (line 2)", "pi (line 4)"]
