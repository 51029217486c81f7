"""CLI fuzzer: every subcommand, with valid and mutated inputs, in process.

Each example runs ``cli.main`` with stdout and stderr captured and must keep
the exit-code rules of the command line:

* the exit code is 0, 1 or 2, and no ``Traceback`` is printed;
* exit 2 comes with an ``error:`` or ``usage:`` line on stderr;
* a ``cycle`` with a non-finite ``--seed-point`` exits 2;
* exit 1 comes with an ``error:`` line, ``"converged": false``,
  ``"no_convergence"`` or a failing ``verify`` report;
* exit 0 prints JSON that parses.

Inputs: valid descriptors and mutated ones (a field of another type, an
integer past double range, deep nesting, text that is not JSON), and flags
that are valid, non-finite, huge or malformed.  Tiles stay small
(at most 8x8), ``--max-iter`` at most 50, ``--count`` at most 3 and
``--period`` at most 3 (or above the budget), so no example allocates much.
Derandomized with a fixed example count, so the run is the same every time.
Every CLI input named by a ``MENDED`` line of ``CHANGES.md`` is pinned as an
``@example``.
"""

import cmath
import contextlib
import copy
import gc
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from expbouquet import cli

from test_cli import RAMP_EDGE_ARGVS

FEXP3 = '{"prefix": [], "tail": {"kind": "fexp", "c": 3}}'
RAMP_QUARTER = '{"prefix": [], "tail": {"kind": "linexp", "c": "1/4"}}'
RAMP_HALF = '{"prefix": [], "tail": {"kind": "linexp", "c": "1/2"}}'
SLOW_RAMP = '{"prefix": [], "tail": {"kind": "linexp", "c": "1/10000"}}'
CONST1 = '{"prefix": [], "tail": {"kind": "const", "c": 1}}'
# a certify-pool address whose endpoint orbit cycles through [lo, inf) states
POOL_PERIODIC = ('{"prefix": [13, 18, -18, {"kind": "ceil_exp", "arg": "969/7"}],'
                 ' "tail": {"kind": "periodic", "pattern": [1, -1]}}')
HUGE = 10**310

COMMANDS = ("tstar", "tmin", "classify", "strata", "witness", "render", "cycle", "verify")

# --- descriptors -------------------------------------------------------------

_ints = st.one_of(st.integers(-20, 20),
                  st.sampled_from([2**53 + 1, 10**308, -(10**308), HUGE]))
_entries = st.one_of(
    _ints,
    st.fixed_dictionaries({"kind": st.just("floor_tower"), "c": st.integers(1, 5),
                           "h": st.integers(1, 4)}),
    st.fixed_dictionaries({"kind": st.just("ceil_exp"),
                           "arg": st.sampled_from(["0", "1/2", "969/7", "800"])}),
)
_tails = st.one_of(
    st.fixed_dictionaries({"kind": st.just("const"), "c": _ints}),
    st.fixed_dictionaries({"kind": st.just("periodic"),
                           "pattern": st.lists(st.integers(-6, 6), min_size=1, max_size=3)}),
    st.fixed_dictionaries({"kind": st.just("fexp"), "c": st.integers(0, 12)},
                          optional={"anchor": st.integers(-3, 3)}),
    st.fixed_dictionaries({"kind": st.just("linexp"),
                           "c": st.sampled_from(["1/4", "1/2", "1", "3", "1/10000", "700",
                                                 "1/100000", "0", "-1"])},
                          optional={"offset": st.integers(-1, 5)}),
)
_valid = st.fixed_dictionaries({"prefix": st.lists(_entries, max_size=3), "tail": _tails})
# values that are of the wrong type, non-finite or past double range in any field
_odd = st.sampled_from([1.5, 1.0, "1", "x", True, None, [], {}, HUGE,
                        float("inf"), float("nan")])


def _paths(obj, path=()):
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _paths(value, path + (i,))


@st.composite
def descriptors(draw) -> str:
    desc = draw(_valid)
    how = draw(st.sampled_from(["valid", "valid", "field", "drop", "deep", "text"]))
    if how == "text":
        return draw(st.text(max_size=12))
    if how == "deep":
        depth = draw(st.sampled_from([2, 900, 50000]))
        return "[" * depth + "]" * depth
    if how in ("field", "drop"):
        path = draw(st.sampled_from(list(_paths(desc))[1:]))
        desc = copy.deepcopy(desc)
        parent = desc
        for key in path[:-1]:
            parent = parent[key]
        if how == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_odd)
    return json.dumps(desc)  # non-finite floats as NaN and Infinity, which json.loads reads


# --- flags -------------------------------------------------------------------


def _flag(name: str, values) -> st.SearchStrategy:
    """No flag, or the flag with one of the values."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [name, str(v)]))


# --tol and --budget on those that read them, --out on those that take it;
# --format, which no subcommand takes, on every one: a usage error
_TOL = _flag("--tol", ["1e-9", "1e-3", "1e-20", "nan", "inf", "0", "-1", "x"])
_BUDGET = _flag("--budget", ["1", "2", "64", "0", "-1", "x"])
_OUT = _flag("--out", ["out-dir", "tile-file.ppm"])
_FORMAT = st.sampled_from([[]] * 3 + [["--format", "text"]])  # in one example of four
_HEIGHTS = ["0", "0.5", "1.1461932206205825", "3", "19.78", "1e300", "-5", "-1e-300",
            "inf", "nan", "x"]
_ALPHAS = ["", "0", "0,1", "0,2,4", "5", "1,0", "-1", "a", "0,,1"]
_COMPLEX = ["-2", "-1", "0", "0.3+0.2j", "-0.5+1j", "1.6-2.2j", "10", "11", "nan", "inf",
            "1e400", "-0.5 + 1j", "zz", ""]


def _argv(command: str, positional: list, *flags) -> st.SearchStrategy:
    return st.tuples(*positional, *flags, _FORMAT).map(
        lambda parts: [command] + [tok for part in parts for tok in part])


_seq = descriptors().map(lambda d: [d])
_STRATEGIES = {
    "tstar": _argv("tstar", [_seq], _flag("--shift", ["0", "1", "7", "1000000", "-1", HUGE]),
                   _OUT),
    "tmin": _argv("tmin", [_seq], _TOL, _OUT),
    "classify": _argv("classify", [_seq], st.sampled_from(_HEIGHTS).map(lambda t: ["--t", t]),
                      _TOL, _BUDGET),
    "strata": _argv("strata", [_seq], _flag("--alpha", _ALPHAS), _flag("--t", _HEIGHTS),
                    st.sampled_from([[], ["--extend"]]), _flag("--nfloor", ["0", "3", "-1"]),
                    _TOL, _BUDGET),
    "witness": _argv("witness", [_seq], _flag("--alpha", _ALPHAS),
                     st.sampled_from(["0", "1", "2", "3", "5", "-1", "x"]).map(
                         lambda n: ["--n", n]),
                     _flag("--count", ["0", "1", "2", "3", "-1"]), _TOL, _BUDGET),
    "render": _argv("render", [], st.sampled_from(_COMPLEX).map(lambda a: ["--a", a]),
                    _flag("--viewport", ["-2,4,-3,3", "-3,-1,-1,1", "0,0,0,0", "1,-1,0,1",
                                         "-2,4,-3", "-1e308,1e308,0,1", "nan,1,0,1", "a,b,c,d"]),
                    _flag("--px", ["1x1", "4x3", "8x8", "3X5", "0x4", "4", "ax4", "-2x2",
                                   "4x4x4"]),
                    _flag("--max-iter", ["1", "20", "50", "0", "-1", "2147483648", "x"]),
                    # a flag render does not take: a usage error
                    _flag("--escape-re", ["50", "1", "0", "-1", "800", "inf", "nan"]),
                    _flag("--path", ["tile.ppm", "sub/dir/tile.ppm", "."]), _OUT),
    "cycle": _argv("cycle", [], st.sampled_from(_COMPLEX).map(lambda a: ["--a", a]),
                   _flag("--period", ["1", "2", "3", "0", "-1", "100000000", "x"]),
                   st.sampled_from(["0", "-2", "0.3", "1e-320j", "nan", "inf", "1+nanj",
                                    "1e308", "zz"]).map(
                       lambda z: ["--seed-point", z]), _BUDGET),
    "verify": _argv("verify", [], _flag("--seed", ["0", "1", "-1", "x"]), _TOL, _BUDGET),
}


# --- the exit-code rules -------------------------------------------------------


def _non_finite_seed(argv: list[str]) -> bool:
    """Whether a ``cycle`` example's --seed-point parses to a non-finite complex number."""
    if argv[0] != "cycle":
        return False
    try:
        return not cmath.isfinite(complex(argv[argv.index("--seed-point") + 1]))
    except ValueError:
        return False


def _check(argv: list[str], code: int, out: str, err: str) -> None:
    assert code in (0, 1, 2), (argv, code)
    if _non_finite_seed(argv):
        assert code == 2, (argv, code)
    assert "Traceback" not in out + err, argv
    err_lines = err.splitlines()
    if code == 2:
        assert any(line.startswith(("error:", "usage:")) for line in err_lines), (argv, err)
    elif code == 1:
        if any(line.startswith("error:") for line in err_lines):
            return
        payload = json.loads(out)
        assert (payload.get("converged") is False or payload.get("error") == "no_convergence"
                or payload.get("passed") is False), (argv, out)
    else:
        json.loads(out)


def _run(argv: list[str]) -> tuple[int, str, str]:
    # a collection while json.loads sits at the stack limit of a deep
    # descriptor would run the test harness's gc callbacks (hypothesis times
    # collections) there, and their RecursionError would reach the captured
    # stderr; a CLI process has no such callback, so none runs here either
    callbacks = gc.callbacks[:]
    gc.callbacks.clear()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
    finally:
        gc.callbacks[:] = callbacks
    return code, out.getvalue(), err.getvalue()


_seen: set[str] = set()


@settings(derandomize=True, database=None, max_examples=240, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=st.one_of(*_STRATEGIES.values()))
# the CLI inputs of the MENDED lines of CHANGES.md, in their order
@example(argv=["render", "--a", "-1", "--viewport", "-2,4,-3.14159,3.14159", "--px", "8x6",
               "--max-iter", "20"])
@example(argv=["verify", "--seed", "0", "--out", "fresh/verify"])
@example(argv=["render", "--a", "-1", "--px", "4x4", "--path", "missing/x.ppm"])
@example(argv=["tstar", '{"prefix": [], "tail": {"kind": "const", "c": 1.9}}'])
@example(argv=["strata", FEXP3, "--t", "-5"])
@example(argv=["strata", RAMP_QUARTER, "--alpha", "0", "--budget", "1"])
@example(argv=["strata", RAMP_QUARTER, "--alpha", "5", "--budget", "1"])
@example(argv=["strata", FEXP3, "--alpha", "0"])
@example(argv=["strata", FEXP3, "--alpha", "0", "--t", "5", "--tol", "nan"])
@example(argv=["strata", FEXP3, "--alpha", "0", "--t", "5", "--tol", "inf"])
@example(argv=["tmin", FEXP3, "--tol", "nan"])
@example(argv=["tstar", RAMP_HALF, "--shift", str(HUGE)])
@example(argv=["tstar", FEXP3, "--shift", str(HUGE)])
@example(argv=["classify", CONST1, "--t", "1.1461932206205825"])
@example(argv=["classify", POOL_PERIODIC, "--t", "3.1805079764936934"])
@example(argv=["classify", POOL_PERIODIC, "--t", "3.1805079764936934", "--tol", "1e-20"])
@example(argv=["classify", SLOW_RAMP, "--t", "3"])
@example(argv=["classify", '{"prefix": [], "tail": {"kind": "periodic", "pattern": [0, 0]}}',
               "--t", "0", "--budget", "1"])
@example(argv=["witness", '{"prefix": [0, 0, 0, {"kind": "floor_tower", "c": 3, "h": 3}],'
               ' "tail": {"kind": "fexp", "c": 10}}', "--alpha", "0", "--n", "1"])
@example(argv=["witness", '{"prefix": [0, 5], "tail": {"kind": "fexp", "c": 9}}',
               "--alpha", "0,1,2", "--n", "3"])
# the largest accepted --max-iter on a tile the half-plane trap retires at once
@example(argv=["render", "--a", "-2", "--viewport", "-5,-4,-1,1", "--px", "2x2",
               "--max-iter", "2147483647"])
@example(argv=["cycle", "--a", "-0.5+1j", "--period", "100000", "--seed-point", "0.3"])
@example(argv=["cycle", "--a", "-2", "--period", "100000", "--seed-point", "-2"])
# the two defects of ROADMAP item 2 and the --max-iter overflow
@example(argv=["tstar", "[" * 50000 + "]" * 50000])
@example(argv=["cycle", "--a", "0.3+0.2j", "--period", "100000000", "--seed-point", "0"])
@example(argv=["render", "--a", "-1", "--px", "4x4", "--max-iter", "3000000000"])
# a non-finite Newton seed ran Newton and exited 1
@example(argv=["cycle", "--a", "-2", "--seed-point", "nan"])
# an extension index far above the budget ran one depth search per shift below it
@example(argv=["witness", '{"prefix": [], "tail": {"kind": "fexp", "c": 9}}',
               "--alpha", "0,1000000000000", "--n", "1000000000001"])
def _fuzz(argv: list[str]) -> None:
    _seen.add(argv[0])
    _check(argv, *_run(argv))


# linexp descriptors at the top of double range hung or raised OverflowError
# under every model subcommand; thinning that no certified comparison decides
# exited 2, the usage-error code
for argv in RAMP_EDGE_ARGVS + [["witness", '{"prefix": [], "tail": {"kind": "linexp", "c": "700",'
                                ' "offset": 10}}', "--alpha", "0,1,2", "--n", "3"]]:
    _fuzz = example(argv=argv)(_fuzz)


def test_cli_inputs_keep_the_exit_code_rules(tmp_path, monkeypatch):
    # every file an example writes lands in tmp_path: --out and --path are relative
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tile-file.ppm").write_bytes(b"")
    _seen.clear()
    _fuzz()
    assert _seen == set(COMMANDS)
