"""Source checks on ``src/expbouquet``: every module-level import is read, and
``verify`` reads no midpoint and no slack."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "expbouquet"


def _unused_imports(path: Path) -> list[str]:
    """Names the module imports at its top level and never reads.

    ``__future__`` imports and aliases on a line marked ``# noqa: F401`` (a
    name kept for other modules to read) are exempt.
    """
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


# __init__ only re-exports
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_level_imports_are_read(path):
    assert _unused_imports(path) == []


def test_verify_decides_by_intervals_not_midpoints():
    # its suites compare enclosures, never a midpoint against a slack
    tree = ast.parse((SRC / "verify.py").read_text())
    mids = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "mid"]
    margins = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "MARGIN"]
    assert mids == [] and margins == []
