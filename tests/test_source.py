"""Source checks on ``src/expbouquet``: every module-level import is read,
``verify`` reads no midpoint and no slack, every memo is registered, and a
ramp argument is built and refused in one function."""

import ast
from pathlib import Path

import pytest

from conftest import RULE_MEMOS
from expbouquet import intervals, plane, sequences

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


# memos whose work no test counts, so no test needs them empty
UNCOUNTED_MEMOS = (intervals._int_tower, sequences._int_entry, sequences._tower_entry,
                   plane._memo_trap)


def _memo_names(path: Path) -> list[str]:
    """The qualified names of the functions and methods the module decorates with a memo."""
    out = []

    def visit(node, scope: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{scope}{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                decorators = [d.func if isinstance(d, ast.Call) else d for d in child.decorator_list]
                if any(getattr(d, "attr", getattr(d, "id", None)) in ("lru_cache", "cache")
                       for d in decorators):
                    out.append(f"{scope}{child.name}")
                visit(child, f"{scope}{child.name}.<locals>.")

    visit(ast.parse(path.read_text()), f"expbouquet.{path.stem}.")
    return out


def test_every_memo_is_emptied_by_the_work_counting_tests_or_named_as_uncounted():
    # a memo added without registering it would warm the work-counting tests
    found = sorted(name for path in SRC.glob("*.py") for name in _memo_names(path))
    registered = sorted(f"{m.__module__}.{m.__qualname__}" for m in RULE_MEMOS + UNCOUNTED_MEMOS)
    assert found == registered


def _functions_around(path: Path, matches) -> list[str]:
    """The names of the top-level functions and methods that hold a node matching ``matches``."""
    out = []
    for top in ast.parse(path.read_text()).body:
        defs = top.body if isinstance(top, ast.ClassDef) else [top]
        out += [f.name for f in defs if isinstance(f, ast.FunctionDef)
                for n in ast.walk(f) if matches(n)]
    return out


def test_a_ramp_argument_is_built_and_refused_in_one_place():
    # every ramp reader reads the memoised _ramp_arg, so only its handler names
    # OverflowError for an argument past double range; _in_double_range's
    # refuses parsed descriptor values
    path = SRC / "sequences.py"
    handlers = _functions_around(path, lambda n: isinstance(n, ast.ExceptHandler)
                                 and n.type is not None and "OverflowError" in ast.unparse(n.type))
    ratios = _functions_around(path, lambda n: isinstance(n, ast.Call)
                               and getattr(n.func, "attr", None) == "from_ratio")
    assert sorted(handlers) == ["_in_double_range", "_ramp_arg"] and ratios == ["_ramp_arg"]


def test_only_the_model_reads_or_writes_a_sequence_memo():
    # what a witness shares with its base is reached through its cut (base, m),
    # which model.py alone follows, so no other module keys into a memo
    touches = [f"{path.name}:{n.lineno}" for path in sorted(SRC.glob("*.py"))
               if path.name != "model.py" for n in ast.walk(ast.parse(path.read_text()))
               if isinstance(n, ast.Attribute) and n.attr == "_memo"]
    assert touches == []
