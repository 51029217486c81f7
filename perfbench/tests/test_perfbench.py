"""Tests of the benchmark itself: seeded inputs, the reference check, metric names.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import estimate  # noqa: E402
import layers  # noqa: E402
import refcheck  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def _first(pool: dict, op: str, pred=lambda q: True) -> dict:
    return next(q for c in pool["cells"].values() for q in c["queries"]
                if q["op"] == op and "honest" not in q["ref"] and pred(q))


@pytest.mark.parametrize("name", ["certify", "ramp", "render"])
def test_same_seed_same_inputs(name):
    pool = workloads.load(name)

    def take(seed):
        return json.dumps(workloads.take(pool, seed, 3))

    assert take(5) == take(5)
    assert take(5) != take(6)


def test_reference_outputs_pass_the_check():
    for name in ("certify", "ramp", "render"):
        for cell in workloads.load(name)["cells"].values():
            for q in cell["queries"]:
                assert refcheck.problems(q, q["ref"]) == []


def test_shifted_enclosure_fails():
    q = _first(workloads.load("certify"), "tstar")
    out = copy.deepcopy(q["ref"])
    iv = out["tstar"]
    shift = iv["hi"] - iv["lo"] + 1.0
    iv["lo"], iv["hi"] = iv["lo"] + shift, iv["hi"] + shift
    assert refcheck.problems(q, out)


def test_tightened_enclosure_passes_and_wide_converged_fails():
    q = _first(workloads.load("certify"), "tmin", lambda q: q["ref"]["converged"])
    out = copy.deepcopy(q["ref"])
    mid = 0.5 * (out["tmin"]["lo"] + out["tmin"]["hi"])
    out["tmin"].update(lo=mid, hi=mid)
    assert refcheck.problems(q, out) == []
    out["tmin"].update(lo=mid - 1e-6, hi=mid + 1e-6)
    assert refcheck.problems(q, out)


def test_contradicting_verdict_fails():
    q = _first(workloads.load("certify"), "classify",
               lambda q: q["ref"]["verdict"] == "not_in_julia")
    out = dict(q["ref"], verdict="escape_certified")
    assert refcheck.problems(q, out)
    assert refcheck.problems(q, dict(q["ref"], verdict="unknown")) == []


def test_changed_render_byte_fails():
    q = _first(workloads.load("render"), "render", lambda q: q["max_iter"] == 100)
    (BENCH / "out").mkdir(exist_ok=True)
    api = workloads.Api(BENCH / "out")
    out, _, _ = workloads.execute(api, q)
    assert refcheck.problems(q, out) == []
    data = bytearray(Path(api.tile_path).read_bytes())
    data[-1] ^= 1
    out["hash"] = hashlib.sha256(bytes(data)).hexdigest()
    assert refcheck.problems(q, out)


def test_runs_hold_whole_cycles_of_the_costly_cells():
    assert workloads.rounds_for("certify", 0.1) == 1
    for name, cycle in workloads.CYCLE.items():
        for seconds in (20, 25, 60):
            n = workloads.rounds_for(name, seconds)
            assert n >= 1 and n % cycle == 0


def test_incomplete_beta_and_harrell_davis():
    for x in (0.0, 0.1, 0.5, 0.93, 1.0):
        assert estimate.betainc(1, 1, x) == pytest.approx(x, abs=1e-14)
        # I_x(2, 3) = P(Binomial(4, x) >= 2)
        exact = 1 - (1 - x) ** 4 - 4 * x * (1 - x) ** 3
        assert estimate.betainc(2, 3, x) == pytest.approx(exact, abs=1e-13)
    assert estimate.betainc(400.5, 400.5, 0.5) == pytest.approx(0.5, abs=1e-11)
    assert estimate.harrell_davis([3.0] * 7, 0.5) == pytest.approx(3.0)
    symmetric = [1.0, 2.0, 4.0, 6.0, 7.0]
    assert estimate.harrell_davis(symmetric, 0.5) == pytest.approx(4.0)
    values = list(range(1, 101))
    lo, hi = estimate.harrell_davis(values, 0.25), estimate.harrell_davis(values, 0.9)
    assert 24 < lo < 27 and 89 < hi < 92


def test_tail_leaves_ten_samples_beyond():
    lat = [float(i) for i in range(1, 201)]
    value, pct, beyond = run.tail(lat)
    assert beyond == 10 and pct == pytest.approx(100 * 190 / 201)
    assert 188 < value < 192
    assert run.tail([5.0])[2] == 0


def test_gauge_scales_by_the_kernel_time_around_a_query():
    gauge = speed.Gauge()
    gauge.starts = [i * 0.01 for i in range(1000)]
    gauge.times = [1e-3 if t < 5.0 else 2e-3 for t in gauge.starts]
    assert gauge.factor(2.0, 2.1) == pytest.approx(speed.REF_S / 1e-3)
    assert gauge.factor(8.0, 8.3) == pytest.approx(speed.REF_S / 2e-3)
    mixed = gauge.factor(5.0, 5.0)
    assert speed.REF_S / 2e-3 < mixed < speed.REF_S / 1e-3
    # far from every sample the window widens until it holds enough of them
    assert gauge.factor(12.0, 12.0) == pytest.approx(speed.REF_S / 2e-3)


def test_gauge_keeps_its_share_of_the_run():
    gauge = speed.Gauge()
    gauge.top_up(0.05)
    assert gauge.busy >= 0.05 * speed.SHARE / (1 - speed.SHARE)
    assert len(gauge.times) % (speed.BATCH - 1) == 0 and gauge.times
    assert gauge.starts == sorted(gauge.starts)


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_declared_metrics_match_the_code():
    spec = _declared()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    # ramp runs by hand only: too few of its slow queries fit in a run for
    # its time metrics to stay inside the declared bounds (see README.md)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.TRACE_ROUNDS) - {"ramp"}


def _result(capsys, argv) -> dict:
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_reported_with_its_unit(capsys, monkeypatch, trace, key):
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)
    monkeypatch.setattr(run, "CLI_SPAWNS", 1)
    monkeypatch.setitem(workloads.TRACE_ROUNDS, "render", 1)
    res = _result(capsys, ["--workload", "render", "--seed", "3", "--seconds", "0.1",
                           "--trace", str(trace)])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _declared()[key]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
    if trace:
        assert res["metrics"]["plane.pixel_iters"]["value"] > 0
