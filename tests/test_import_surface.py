"""The import surface: the model path loads no numpy and no slow stdlib module, and every
public name resolves.

Only the renderer, ``plane``, imports numpy; ``import expbouquet``, the model
subcommands, ``cycle`` and ``verify`` must not pay for it, nor for the stdlib modules
that once took a quarter of a model subcommand's cold start.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import expbouquet

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("numpy", "expbouquet.plane", "expbouquet.verify")
# dataclasses loads inspect, and fractions decimal: every value class is written out, and a
# rational is parsed with fractions only for a ramp descriptor, which no command here has
# (verify builds its ramps from integer rates)
SLOW_STDLIB = ("dataclasses", "inspect", "fractions", "decimal")

_PROBE = """
import contextlib, io, json, sys
import expbouquet
loaded = {"import": [m for m in %(heavy)r if m in sys.modules]}
from expbouquet import cli
for argv in %(commands)r:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    loaded[argv[0]] = [code, [m for m in %(heavy)r if m in sys.modules]]
print(json.dumps(loaded))
"""

MODEL_COMMANDS = [
    ["tstar", '{"prefix": [], "tail": {"kind": "fexp", "c": 3}}'],
    ["tmin", '{"prefix": [0, 5], "tail": {"kind": "const", "c": 0}}'],
    ["classify", '{"prefix": [], "tail": {"kind": "fexp", "c": 3}}', "--t", "2"],
    ["strata", '{"prefix": [], "tail": {"kind": "fexp", "c": 3}}', "--alpha", "0"],
    ["witness", '{"prefix": [], "tail": {"kind": "fexp", "c": 10}}', "--alpha", "0",
     "--n", "1", "--count", "1"],
]


def _fresh(code: str) -> str:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


def test_import_and_model_commands_load_no_numpy():
    out = _fresh(_PROBE % {"heavy": HEAVY, "commands": MODEL_COMMANDS})
    loaded = json.loads(out.splitlines()[-1])
    # each command exits 0 and leaves the numpy-backed modules unloaded
    assert loaded == {"import": [], **{argv[0]: [0, []] for argv in MODEL_COMMANDS}}


LIGHT_COMMANDS = [["cycle", "--a", "-2", "--seed-point", "-2"], ["verify", "--budget", "1"]]


def test_cycle_verify_and_orbits_load_no_numpy():
    # the cycle search and the model's suites need no renderer, and orbits no numpy
    out = _fresh(_PROBE % {"heavy": HEAVY[:2], "commands": LIGHT_COMMANDS})
    assert json.loads(out.splitlines()[-1]) == {"import": [], "cycle": [0, []], "verify": [0, []]}
    out = _fresh("import sys, expbouquet.orbits\nprint('numpy' in sys.modules)")
    assert out.split() == ["False"]


def _slow_stdlib_added(commands: list[list[str]]) -> dict:
    """Each step's exit code, if a command, and the SLOW_STDLIB modules loaded by then.

    A site hook may load one of them before the package does, so the modules the probe
    finds are measured against those of a bare interpreter that imports what the probe does.
    """
    bare = _fresh("import contextlib, io, json, sys\n"
                  f"print(json.dumps([m for m in {SLOW_STDLIB!r} if m in sys.modules]))")
    before = set(json.loads(bare.splitlines()[-1]))
    out = _fresh(_PROBE % {"heavy": SLOW_STDLIB, "commands": commands})
    return {step: sorted(set(got) - before) if step == "import"
            else [got[0], sorted(set(got[1]) - before)]
            for step, got in json.loads(out.splitlines()[-1]).items()}


def test_import_and_model_commands_add_no_slow_stdlib_module():
    added = _slow_stdlib_added(MODEL_COMMANDS)
    assert added == {"import": [], **{argv[0]: [0, []] for argv in MODEL_COMMANDS}}


def test_cycle_and_verify_add_no_slow_stdlib_module():
    # CycleInfo is written out like the model's value classes, and verify's ramp rates are
    # integer pairs: neither command loads dataclasses, inspect, fractions or decimal
    added = _slow_stdlib_added(LIGHT_COMMANDS)
    assert added == {"import": [], "cycle": [0, []], "verify": [0, []]}


def test_plane_submodule_and_lazy_names_load_on_first_use():
    out = _fresh("import sys, expbouquet\n"
                 "before = 'numpy' in sys.modules\n"
                 "from expbouquet import plane\n"
                 "print(before, 'numpy' in sys.modules, expbouquet.Viewport is plane.Viewport)")
    assert out.split() == ["False", "True", "True"]


def test_every_public_name_resolves():
    for name in expbouquet.__all__:
        assert getattr(expbouquet, name) is not None
    namespace: dict = {}
    exec("from expbouquet import *", namespace)
    assert set(expbouquet.__all__) <= set(namespace)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        expbouquet.no_such_name


def test_all_is_the_eager_imports_plus_the_lazy_table():
    tree = ast.parse(Path(expbouquet.__file__).read_text())
    eager = {alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
    assert not eager & set(expbouquet._LAZY)
    assert sorted(expbouquet.__all__) == sorted(eager | set(expbouquet._LAZY))
    assert len(expbouquet.__all__) == len(set(expbouquet.__all__))
