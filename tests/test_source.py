"""Source checks on ``src/expbouquet``: every module-level import is read,
``verify`` reads no midpoint and no slack, every memo is registered, a ramp
argument is built and refused in one function, a descriptor value is checked
only where every sequence is built, and the CLI keeps no copy of a numeric
default."""

import ast
from pathlib import Path

import pytest

from conftest import RULE_MEMOS
from expbouquet import cli, intervals, plane, sequences

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


# memos that no test counting tail-rule work needs empty; the one plane test that
# counts trap work empties the trap memo itself (``empty_trap_memo``)
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
    """The names of the top-level functions and methods (as Class.method) that hold a node
    matching ``matches``, once for each such node."""
    out = []
    for top in ast.parse(path.read_text()).body:
        scope, defs = (f"{top.name}.", top.body) if isinstance(top, ast.ClassDef) else ("", [top])
        out += [scope + f.name for f in defs if isinstance(f, ast.FunctionDef)
                for n in ast.walk(f) if matches(n)]
    return out


def test_a_ramp_argument_is_built_and_refused_in_one_place():
    # every ramp reader reads the memoised _ramp_arg, so only its handler names
    # OverflowError for an argument past double range
    path = SRC / "sequences.py"
    handlers = _functions_around(path, lambda n: isinstance(n, ast.ExceptHandler)
                                 and n.type is not None and "OverflowError" in ast.unparse(n.type))
    ratios = _functions_around(path, lambda n: isinstance(n, ast.Call)
                               and getattr(n.func, "attr", None) == "from_ratio")
    assert handlers == ["_ramp_arg"] and ratios == ["_ramp_arg"]


def test_a_descriptor_value_is_checked_only_where_every_sequence_is_built():
    # a value's type and range are checked by the constructor of an entry, a rule or the
    # sequence, which parsed and library-built sequences all pass; the rest read: a missing
    # field, an unknown kind, a rational's text, the JSON shape, and the ramp argument past
    # double range that _ramp_arg alone refuses
    path = SRC / "sequences.py"
    raisers = set(_functions_around(path, lambda n: isinstance(n, ast.Raise) and n.exc is not None
                                    and "DescriptorError" in ast.unparse(n.exc)))
    readers = {name for name in raisers if not name.endswith(".__init__")}
    assert readers == {"_field", "_parse_rational", "_parse_kind", "_ramp_arg",
                       "PeriodicTail.from_json", "SymbolSeq.from_json"}
    # no second check site: no class defines a validate to be called, or forgotten, later
    assert not [f"{top.name}.{f.name}" for top in ast.parse(path.read_text()).body
                if isinstance(top, ast.ClassDef) for f in top.body
                if isinstance(f, ast.FunctionDef) and f.name == "validate"]
    # SymbolSeq.from_json dispatches on the kinds and builds; it calls no value check
    from_json = next(f for top in ast.parse(path.read_text()).body
                     if isinstance(top, ast.ClassDef) and top.name == "SymbolSeq"
                     for f in top.body if getattr(f, "name", None) == "from_json")
    called = {n.func.id for n in ast.walk(from_json)
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert called == {"isinstance", "tuple", "DescriptorError", "SymbolSeq", "_parse_kind"}


def test_only_the_model_reads_or_writes_a_sequence_memo():
    # what a witness shares with its base is reached through its cut (base, m),
    # which model.py alone follows, so no other module keys into a memo
    touches = [f"{path.name}:{n.lineno}" for path in sorted(SRC.glob("*.py"))
               if path.name != "model.py" for n in ast.walk(ast.parse(path.read_text()))
               if isinstance(n, ast.Attribute) and n.attr == "_memo"]
    assert touches == []


def test_the_cli_binds_no_number_but_its_exit_codes():
    # a numeric default lives in the library, which the CLI imports: a second copy bound
    # here (classify's budget once was) could drift from the one library calls read
    tree = ast.parse((SRC / "cli.py").read_text())
    bound = {t.id for n in tree.body if isinstance(n, (ast.Assign, ast.AnnAssign))
             for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
             if isinstance(t, ast.Name)}
    numbers = {name for name in bound if type(getattr(cli, name)) in (int, float)}
    assert numbers == {"EXIT_OK", "EXIT_FAIL", "EXIT_USAGE"}
