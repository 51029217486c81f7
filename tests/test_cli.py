"""CLI surface: subcommands, exit codes, schema round-trips, determinism."""

import json
import math
import warnings

from expbouquet.cli import main
from expbouquet.intervals import Interval
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
