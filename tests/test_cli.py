"""CLI surface: subcommands, exit codes, schema round-trips, determinism."""

import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from expbouquet import cli
from expbouquet.cli import build_parser, main
from expbouquet.intervals import Interval
from expbouquet.model import NonConvergenceError
from expbouquet.sequences import SymbolSeq

CONST1 = '{"prefix": [], "tail": {"kind": "const", "c": 1}}'
CONST0 = '{"prefix": [], "tail": {"kind": "const", "c": 0}}'
FEXP10 = '{"prefix": [], "tail": {"kind": "fexp", "c": 10}}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_tstar_reports_ln2(capsys):
    code, out = run(capsys, "tstar", CONST1)
    assert code == 0
    payload = json.loads(out)
    iv = Interval.from_json(payload["tstar"])
    assert abs(iv.mid - math.log(2.0)) < 1e-9


def test_tstar_zero(capsys):
    code, out = run(capsys, "tstar", CONST0)
    assert code == 0
    iv = Interval.from_json(json.loads(out)["tstar"])
    assert iv.lo == iv.hi == 0.0


def test_malformed_descriptor_exits_2(capsys):
    assert main(["tstar", "{broken"]) == 2
    assert main(["tstar", '{"prefix": [], "tail": {"kind": "wat"}}']) == 2


def test_deep_descriptor_exits_2(capsys):
    # json.loads gives up on nesting deeper than the interpreter's stack
    assert main(["tstar", "[" * 50000 + "]" * 50000]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: bad sequence descriptor")


def test_usage_error_exits_2(capsys):
    assert main(["tstar"]) == 2
    assert main(["nonsense"]) == 2


def test_tmin_anchor(capsys):
    code, out = run(capsys, "tmin", '{"prefix": [0, 5], "tail": {"kind": "const", "c": 0}}')
    assert code == 0
    iv = Interval.from_json(json.loads(out)["tmin"])
    assert abs(iv.mid - math.log(6.0)) < 1e-9


def test_classify_examples(capsys):
    code, out = run(capsys, "classify", CONST1, "--t", str(math.log(2.0)))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "not_in_julia"
    assert payload["first_failing_step"] == 2

    _, out = run(capsys, "classify", CONST0, "--t", "0")
    assert json.loads(out)["verdict"] == "non_escaping"

    _, out = run(capsys, "classify", CONST0, "--t", "2")
    assert json.loads(out)["verdict"] == "escape_certified"


def test_strata_membership_and_extension(capsys):
    code, out = run(capsys, "strata", FEXP10, "--alpha", "0", "--extend")
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] == "true"
    assert payload["extension"] >= 1


def test_witness_round_trips_schema(capsys):
    code, out = run(capsys, "witness", FEXP10, "--alpha", "0", "--n", "1", "--count", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == [0]
    assert len(payload["reports"]) == 2
    for report in payload["reports"]:
        seq = SymbolSeq.from_json(report["witness"])
        assert isinstance(seq, SymbolSeq)
        iv = Interval.from_json(report["claim2_bound"])
        assert iv.hi <= 3.0
        assert report["distance"] > 0


def test_cycle_reports(capsys):
    code, out = run(capsys, "cycle", "--a", "-2", "--period", "1", "--seed-point", "-2")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "attracting"
    assert abs(payload["points"][0][0] + 1.841406) < 1e-5

    code, out = run(capsys, "cycle", "--a", "1", "--period", "1", "--seed-point", "0.5")
    assert code == 1
    assert json.loads(out)["error"] == "no_convergence"


@pytest.mark.parametrize("argv", [["--period", "100000000"], ["--budget", "4", "--period", "5"]])
def test_cycle_period_above_the_budget_exits_2(argv, capsys):
    # each Newton step walks, and lists, the whole period
    assert main(["cycle", "--a", "0.3+0.2j", "--seed-point", "0", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: period ")
    assert "exceeds the budget" in captured.err


def test_render_summary(tmp_path, capsys):
    code, out = run(capsys, "render", "--a", "-1", "--px", "40x30",
                    "--max-iter", "40", "--out", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["escaped_pixels"] > 0 and payload["retained_pixels"] > 0
    assert (tmp_path / "escape.ppm").exists()


def test_nan_parameter_exits_2(tmp_path, capsys):
    assert main(["render", "--a", "nan", "--px", "4x4", "--out", str(tmp_path)]) == 2
    assert main(["cycle", "--a", "nan", "--seed-point", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: parameter") == 2
    assert not (tmp_path / "escape.ppm").exists()


def test_non_finite_render_bounds_exit_2(tmp_path, capsys):
    for extra in (["--viewport", "0,nan,0,1"], ["--viewport", "0,inf,0,1"],
                  ["--viewport=-1e308,1e308,0,1"], ["--escape-re", "nan"],
                  ["--escape-re", "inf"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a leaked numpy RuntimeWarning fails
            code = main(["render", "--a", "-1", "--px", "4x4", "--out", str(tmp_path), *extra])
        captured = capsys.readouterr()
        assert code == 2, extra
        assert captured.out == "" and captured.err.startswith("error: "), extra
    assert not (tmp_path / "escape.ppm").exists()


def test_subcommand_determinism(capsys):
    _, out1 = run(capsys, "witness", FEXP10, "--alpha", "0", "--n", "1", "--count", "2")
    _, out2 = run(capsys, "witness", FEXP10, "--alpha", "0", "--n", "1", "--count", "2")
    assert out1 == out2
    _, t1 = run(capsys, "tstar", CONST1)
    _, t2 = run(capsys, "tstar", CONST1)
    assert t1 == t2


def test_text_format(capsys):
    code, out = run(capsys, "tmin", CONST0, "--format", "text")
    assert code == 0
    assert "tmin:" in out


def test_verify_default_passes_and_is_deterministic(tmp_path, capsys):
    code1, out1 = run(capsys, "verify", "--seed", "3", "--out", str(tmp_path))
    code2, out2 = run(capsys, "verify", "--seed", "3", "--out", str(tmp_path))
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["passed"] is True
    assert all(s["passed"] for s in report["suites"])


def test_verify_unattainable_tolerance_fails_honestly(tmp_path, capsys):
    code, out = run(capsys, "verify", "--tol", "1e-30", "--out", str(tmp_path))
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    failed = {s["name"] for s in report["suites"] if not s["passed"]}
    assert failed, "expected honest failures at an unattainable tolerance"


def _readme_quick_start() -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("expbouquet ")]


def test_readme_quick_start_lines_parse():
    lines = _readme_quick_start()
    assert len(lines) == 8
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert args.command == shlex.split(line)[1]
    render_line = next(line for line in lines if line.startswith("expbouquet render "))
    render = build_parser().parse_args(shlex.split(render_line)[1:])
    assert render.a == "-1" and render.viewport == "-2,4,-3.14159,3.14159"


def test_values_starting_with_minus_reach_their_option(tmp_path, capsys):
    args = build_parser().parse_args(["cycle", "--a", "-0.5+1j", "--seed-point", "-.5-1j"])
    assert (args.a, args.seed_point) == ("-0.5+1j", "-.5-1j")
    code, out = run(capsys, "render", "--a", "-2", "--viewport", "-2,4,-3,3", "--px", "8x6",
                    "--max-iter", "10", "--out", str(tmp_path))
    assert code == 0 and json.loads(out)["escaped_pixels"] > 0
    # a flag that takes no value still rejects one
    assert main(["strata", CONST1, "--extend", "-2,4"]) == 2


def test_verify_creates_a_missing_out_directory(tmp_path, capsys):
    out_dir = tmp_path / "not" / "yet"
    code, out = run(capsys, "verify", "--seed", "0", "--out", str(out_dir))
    assert code == 0 and json.loads(out)["passed"] is True
    assert (out_dir / "verify_render.ppm").exists()


def test_unusable_out_directory_exits_2_before_any_suite(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for argv in (["verify", "--out", str(blocker / "sub")],
                 ["render", "--a", "-1", "--px", "4x4", "--out", str(blocker)]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == "" and captured.err.startswith("error: "), argv


def test_render_creates_the_directory_of_its_path(tmp_path, capsys):
    path = tmp_path / "not" / "yet" / "x.ppm"
    code, out = run(capsys, "render", "--a", "-1", "--px", "4x4", "--path", str(path))
    assert code == 0 and json.loads(out)["path"] == str(path)
    assert path.exists()


def test_unusable_render_path_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    # a file where the directory should be, and a directory where the file should be
    for path in (blocker / "x.ppm", tmp_path):
        code = main(["render", "--a", "-1", "--px", "4x4", "--path", str(path)])
        captured = capsys.readouterr()
        assert code == 2, path
        assert captured.out == "" and captured.err.startswith("error: "), path


def test_unallocatable_render_tile_exits_2(monkeypatch, tmp_path, capsys):
    from expbouquet import plane

    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 149. GiB")

    monkeypatch.setattr(plane, "render_escape", too_large)
    # a small tile, so that an unpatched render allocates nothing large
    code = main(["render", "--a", "-1", "--px", "4x4", "--path", str(tmp_path / "x.ppm")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: cannot allocate a 4x4 tile")


@pytest.mark.parametrize("max_iter", ["0", "2147483648", "3000000000"])
def test_max_iter_outside_the_int32_escape_times_exits_2(max_iter, tmp_path, capsys):
    path = tmp_path / "x.ppm"
    code = main(["render", "--a", "-1", "--px", "4x4", "--max-iter", max_iter, "--path", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not path.exists()
    assert captured.err.startswith("error: max_iter must be in 1..2147483647")


def test_negative_witness_count_exits_2(capsys):
    assert main(["witness", FEXP10, "--alpha", "0", "--n", "1", "--count", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: witness count must be >= 0")


def test_witness_cut_at_the_distance_horizon_exits_1_naming_it(capsys):
    # the 58th member would be cut at index 60, where the distance stops looking
    fexp9 = '{"prefix": [], "tail": {"kind": "fexp", "c": 9}}'
    assert main(["witness", fexp9, "--alpha", "0,1", "--n", "2", "--count", "58"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cut index 60 reaches the distance horizon 60\n"


def test_non_integer_descriptor_field_exits_2(capsys):
    assert main(["tstar", '{"prefix": [], "tail": {"kind": "const", "c": 1.9}}']) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad sequence descriptor: const c must be an integer")


def test_missing_descriptor_field_exits_2_naming_it(capsys):
    assert main(["tstar", '{"prefix": [{"kind": "floor_tower", "c": 3}], '
                          '"tail": {"kind": "const", "c": 0}}']) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad sequence descriptor: floor_tower needs the field 'h'\n"


@pytest.mark.parametrize("desc", [
    '{"prefix": [0, ' + str(10**336) + '], "tail": {"kind": "const", "c": 0}}',
    '{"prefix": [0, {"kind": "floor_tower", "c": 0, "h": -3}], "tail": {"kind": "const", "c": 0}}',
    '{"prefix": [0, {"kind": "floor_tower", "c": -5, "h": 2}], "tail": {"kind": "const", "c": 0}}',
])
def test_out_of_range_descriptors_exit_2(desc, capsys):
    for command in ("tstar", "tmin"):
        assert main([command, desc]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad sequence descriptor: ")


# sha256 of the stdout of each command, recorded before tower enclosures
# were memoised; any change to these bytes is a behaviour change
PINNED_OUTPUTS = [
    (("witness", '{"prefix": [1], "tail": {"kind": "fexp", "c": 7}}',
      "--alpha", "0,2,4", "--n", "5", "--count", "9"),
     "6a8aefcd58f7913292c13d2aba794b7c892cc6e00264a3a34ac80ba78479320f"),
    (("witness", '{"prefix": [4], "tail": {"kind": "fexp", "c": 3}}',
      "--alpha", "0,1,2", "--n", "3", "--count", "4"),
     "f1d3f84a89417b50c554e20a165331a8086ef374e224ce4aaeab5dc9c5d16e98"),
    (("witness", '{"prefix": [5], "tail": {"kind": "linexp", "c": "2/1"}}',
      "--alpha", "0,3", "--n", "4", "--count", "6"),
     "b336595bcc7bc846972e27638dc7498f4e0e81bee81a5af7b476fa111de29415"),
    (("witness", '{"prefix": [3], "tail": {"kind": "linexp", "c": "2/1"}}',
      "--alpha", "0,2", "--n", "3", "--count", "5"),
     "a31c7ddb190d21f7c06824fdf936b0a6a743f12e80876fe82cff993378eb45eb"),
    (("strata", '{"prefix": [{"kind": "floor_tower", "c": 2, "h": 3}, -8, -2], '
      '"tail": {"kind": "fexp", "c": 10}}', "--alpha", "5", "--extend"),
     "f2f1da2122d92e077f73cb056af0ca97e9940cd08de3c16978ac39dd26dadee5"),
    (("strata", '{"prefix": [{"kind": "floor_tower", "c": 6, "h": 5}], '
      '"tail": {"kind": "fexp", "c": 3}}', "--alpha", "0,1,4", "--extend"),
     "44623559218efdd291e5e7bc06c26a52cef5c98d98c668ae3dd3d66ee5153040"),
    (("strata", '{"prefix": [{"kind": "floor_tower", "c": 1, "h": 3}], '
      '"tail": {"kind": "linexp", "c": "1/3"}}', "--alpha", "", "--extend"),
     "03d1db5802c2c393c9d13cf7b88ab02cdf5584f2d4f0a0afdd5a26f2b0356eca"),
    (("strata", '{"prefix": [{"kind": "ceil_exp", "arg": "359/7"}], '
      '"tail": {"kind": "linexp", "c": "2/1"}}', "--alpha", "0,3,4", "--extend"),
     "279a852896185ff8ebf61b4543b0bc0be91d19454c7dad613e68e1edae04267e"),
]


@pytest.mark.parametrize("argv, digest", PINNED_OUTPUTS)
def test_witness_and_extension_outputs_are_pinned(argv, digest, capsys):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


RAMP_SLOW = '{"prefix": [], "tail": {"kind": "linexp", "c": "1/7"}}'
RAMP_OFFSET = ('{"prefix": [{"kind": "ceil_exp", "arg": "359/7"}, 3], '
               '"tail": {"kind": "linexp", "c": "2/3", "offset": 5}}')
RAMP_PINNED_PREFIX = '{"prefix": [{"kind": "ceil_exp", "arg": "801/2"}], "tail": {"kind": "linexp", "c": "5/4"}}'
RAMP_HUGE_PREFIX = '{"prefix": [2, {"kind": "ceil_exp", "arg": "1500"}], "tail": {"kind": "linexp", "c": "3"}}'

# sha256 of the stdout of linexp queries, recorded before symbolic entries
# built their enclosures at construction and the ramp pin level and floor
# index took closed forms
PINNED_RAMP_OUTPUTS = [
    (("tmin", RAMP_SLOW), "787c7762ecbc0a254301d31b2cc8d59b27071efdff9f94311c6e63c2f67d71bb"),
    (("tmin", RAMP_OFFSET), "b80936b38cd44737bab6dd14fd11af036462d9ed6c5a64773e4d1654bc6faeb5"),
    (("tmin", RAMP_PINNED_PREFIX),
     "7fe6ed17f51983e6d3b70a07c9328b95488703dd27caeba3fb3e0be18611d2a1"),
    (("tmin", RAMP_HUGE_PREFIX), "9dbe2bb29e592da2bb56fb55a30c724ed2f312568aed9d9c5e8ce58623ee6a79"),
    (("classify", RAMP_SLOW, "--t", "1.1496040709566765"),
     "41be11436543212f9c92b1896593a1e1dbb779e2fabd83ebdf063bd8f35878ff"),
    (("classify", RAMP_OFFSET, "--t", "4.0"),
     "cbefc8bfc165174e8f4962796bc6e58e549dc3b0fc45e5db1cf5700e3664a01c"),
    (("classify", RAMP_PINNED_PREFIX, "--t", "1.9206895965808363"),
     "dc374242d03a67da686a7932ae005fe4dc3feb64083fc6d0a6a37ded2b030716"),
    (("classify", RAMP_HUGE_PREFIX, "--t", "2.0"),
     "0be5f21a85154696021ed76a5050b17d92a468390488d96c4d6337887d6fb094"),
    (("strata", RAMP_SLOW, "--alpha", "0,2", "--extend"),
     "615b801f01fede86038b5aa618364af5119a88a259e96ea520d93c3f77fb1c67"),
    (("strata", RAMP_OFFSET, "--alpha", "1", "--extend"),
     "f5fc7e9a246e30ef4a53225d9b1b5571bf34c29b419d3a4bd005ce2313dc3db3"),
    (("strata", RAMP_PINNED_PREFIX, "--alpha", "2,6", "--extend"),
     "f36594e79577a51b2e6ccc97b303a3c6b3912a7edbb84c1855e37f1a3899b6e9"),
    (("strata", RAMP_HUGE_PREFIX, "--alpha", "", "--extend"),
     "6028015ae7e77f435ca771d798662056bbc0a02bbd9627199e6a6c2fff889e62"),
]


@pytest.mark.parametrize("argv, digest", PINNED_RAMP_OUTPUTS)
def test_ramp_outputs_are_pinned(argv, digest, capsys):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


CONST_PREFIX = '{"prefix": [3, -2], "tail": {"kind": "const", "c": 2}}'
CONST_CEIL_PREFIX = ('{"prefix": [{"kind": "ceil_exp", "arg": "7/2"}, 0, -5], '
                     '"tail": {"kind": "const", "c": -4}}')
PERIODIC_PREFIX = '{"prefix": [1], "tail": {"kind": "periodic", "pattern": [2, 0, 5]}}'
PERIODIC_LONG_PREFIX = '{"prefix": [-3, 7, 0], "tail": {"kind": "periodic", "pattern": [-1, 4]}}'
FEXP_PREFIX = '{"prefix": [2, -1], "tail": {"kind": "fexp", "c": 4}}'
FEXP_ANCHORED = ('{"prefix": [{"kind": "floor_tower", "c": 3, "h": 3}, 0], '
                 '"tail": {"kind": "fexp", "c": 2, "anchor": 0}}')

# sha256 of the stdout of const, periodic and fexp queries, recorded before
# the rule-specific branches moved onto the tail classes
PINNED_RULE_OUTPUTS = [
    (("tstar", CONST_PREFIX, "--shift", "2"),
     "bfa15aeee181fc5eead893b57750abbc0099e5bfd412971e3171e74c723f5902"),
    (("tmin", CONST_PREFIX), "ea21deb0d7c5a1dd0e199f646a62067a48d8f801d603f5214235fb4f09dc00f9"),
    (("classify", CONST_PREFIX, "--t", "1.5052414957928833"),
     "25e7724f322e3931f953b6af2bacb881ba9035d3207f14dff42d173078b9f02a"),
    (("strata", CONST_PREFIX, "--alpha", "0", "--extend"),
     "3ed3cb5fe52d2ebb8e987dfde721e7f2526ff787b5636526949bad027cacb125"),
    (("tstar", CONST_CEIL_PREFIX, "--shift", "2"),
     "e0afb81ecb27e298269cf4db179ae7215213773d6007a306f1ae789a85e30a1f"),
    (("tmin", CONST_CEIL_PREFIX),
     "21a41e638f5be40727018637140906f2d892de5db90465a7bc51c9c01f080201"),
    (("classify", CONST_CEIL_PREFIX, "--t", "2.5"),
     "c591e66a757d87a48c60a0bdbbcd2ffaab37899b82890ad4dfc213d40b35f166"),
    (("strata", CONST_CEIL_PREFIX, "--alpha", "0", "--extend"),
     "59d4a939da058f58f3fe43d1443435b64b0fb640352f93e584aed9ac37910199"),
    (("tstar", PERIODIC_PREFIX, "--shift", "2"),
     "4d814bd2130db4f748d66ffd08347fce8d2a927a55a5cc35d4b2d242aae14ac7"),
    (("tmin", PERIODIC_PREFIX), "9bef484d93974e5889364b8c5e0b9482bde55d1c827230d6cd0c22286675595f"),
    (("classify", PERIODIC_PREFIX, "--t", "1.4108882468641995"),
     "18a1d2693d4a614a271b5f2bad66a21612bd9372d8f67ec26f48490b1977cd10"),
    (("strata", PERIODIC_PREFIX, "--alpha", "0", "--extend"),
     "777bed0c42d8e37a0f8bbc751c9ddc4cf18c0cd51746f69bb9412518687513e3"),
    (("tstar", PERIODIC_LONG_PREFIX, "--shift", "2"),
     "f1f173fa292da68c54b95fb1ddfc7be287a84c3055201ce02d077c2465d85084"),
    (("tmin", PERIODIC_LONG_PREFIX),
     "c76fdde186ac31c2fd92ff0db8036c56cb922c5917964d7a380c15260b3c324d"),
    (("classify", PERIODIC_LONG_PREFIX, "--t", "1.0"),
     "660ecac28f991107a44789c4f5938d39807769d1b71c64ea466d3915fe48c8bc"),
    (("strata", PERIODIC_LONG_PREFIX, "--alpha", "0", "--extend"),
     "e0f89f80893cffd974fd2de84fab1ed29915ef08dd8bccab49275c441e8676fe"),
    (("tstar", FEXP_PREFIX), "d392635cd4358f2f56b6b487473122f7c31b004417ce73bd0dfcc12ebb9c33da"),
    (("tmin", FEXP_PREFIX), "e25ae94c5d953f525879a9b91fd555c39c023a5c6718f9412f086884d1ce7b52"),
    (("tstar", FEXP_ANCHORED), "de2f79f286cf2dfd9f2c7345fabbd74b12d7b287d10b40d5f870833a593f04ce"),
    (("tmin", FEXP_ANCHORED), "c8629107ed2773be2b6b8dfcd6b9de85bac0481a42f155560efb9f120a8619be"),
]


@pytest.mark.parametrize("argv, digest", PINNED_RULE_OUTPUTS)
def test_rule_outputs_are_pinned(argv, digest, capsys):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the full `verify --seed 0` report; the inverse-growth strictness
# suite reports certified lower bounds of its margins, from interval bounds
VERIFY_SEED0_SHA256 = "dab5b5deb83f22267a96a9b31a6ebdbd54cddfee31439a82d6209ad37caf2f09"


def test_verify_seed0_report_is_pinned(tmp_path, capsys):
    code, out = run(capsys, "verify", "--seed", "0", "--out", str(tmp_path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SEED0_SHA256


FEXP3 = '{"prefix": [], "tail": {"kind": "fexp", "c": 3}}'


@pytest.mark.parametrize("t", ["-5", "-1e-300", "inf", "nan"])
def test_negative_or_non_finite_heights_exit_2(t, capsys):
    for command in ("strata", "classify"):
        assert main([command, FEXP3, "--t", t]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --t must be a finite nonnegative height\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_non_positive_or_non_finite_tolerances_exit_2(tol, capsys):
    # a NaN tolerance once passed every later check: strata called t = 5 a
    # member of the 0 stratum of FEXP3, whose endpoint height is about 19.78
    for argv in (["strata", FEXP3, "--alpha", "0", "--t", "5"], ["tmin", FEXP3]):
        assert main(argv + ["--tol", tol]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tolerance must be positive and finite\n"


def test_shift_beyond_double_range_exits_2_like_its_shifted_descriptor(capsys):
    ramp = '{"prefix": [], "tail": {"kind": "linexp", "c": "1/2"}}'
    shifted = ramp.replace('"1/2"', f'"1/2", "offset": {10**310}')
    assert main(["tstar", ramp, "--shift", str(10**310)]) == 2
    by_shift = capsys.readouterr()
    assert main(["tstar", shifted]) == 2
    assert by_shift == capsys.readouterr()
    assert by_shift.out == ""
    assert by_shift.err == "error: bad sequence descriptor: linexp offset beyond double range\n"


def test_strata_without_t_uses_the_endpoint_midpoint(capsys):
    code, out = run(capsys, "strata", FEXP3)
    height = Interval.from_json(json.loads(run(capsys, "tmin", FEXP3)[1])["tmin"])
    assert code == 0 and json.loads(out)["t"] == height.mid


RAMP_QUARTER = '{"prefix": [], "tail": {"kind": "linexp", "c": "1/4"}}'


@pytest.mark.parametrize("alpha", ["0", "5"])
def test_exhausted_budget_exits_1_with_a_message(alpha, capsys):
    assert main(["strata", RAMP_QUARTER, "--alpha", alpha, "--budget", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: explicit threshold window exceeds budget\n"


def test_uncertified_answers_reach_no_traceback(monkeypatch, capsys):
    proc = subprocess.run([sys.executable, "-m", "expbouquet", "strata", RAMP_QUARTER,
                           "--alpha", "0", "--budget", "1"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    def stalled(seq, shift=0):
        raise NonConvergenceError(Interval(0.0, 1.0), "ramp envelope certification stalled")

    monkeypatch.setattr(cli, "potential", stalled)
    assert main(["tstar", CONST1]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ramp envelope certification stalled\n"


@pytest.mark.parametrize("c, code", [(10**308, 0), (-10**308, 0),
                                     (int(1.7976931348623157e308), 1)],
                         ids=["1e308", "-1e308", "max_double"])
def test_huge_const_tails_answer_like_their_periodic_twin(c, code, capsys):
    # F saturates at the upper end of the constant tail's bisection bracket;
    # the sweep over the one-entry pattern still encloses the height (at the
    # largest double it does not converge, and says so)
    const = json.dumps({"prefix": [], "tail": {"kind": "const", "c": c}})
    periodic = json.dumps({"prefix": [], "tail": {"kind": "periodic", "pattern": [c]}})
    tmin = run(capsys, "tmin", const)
    assert tmin == run(capsys, "tmin", periodic)
    assert tmin[0] == code and json.loads(tmin[1])["converged"] is (code == 0)
    strata = run(capsys, "strata", const, "--alpha", "0")
    assert strata == run(capsys, "strata", periodic, "--alpha", "0")
    assert strata[0] == 0 and json.loads(strata[1])["member"] == "false"
