"""Work the certify stream does past parsing: shared integer entries, integer ramp rates and the
ramp envelope's early stop, each checked on the benchmark's frozen certify pool."""

import cProfile
import json
import math
import pstats
import sys
from pathlib import Path

from expbouquet import AlphaIndex, intervals, model, sequences, witness_family
from expbouquet.intervals import Interval
from expbouquet.sequences import LinExpTail, SymbolSeq

from conftest import clear_rule_memos

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))

import workloads  # noqa: E402


def _pool_queries() -> list:
    return [q for cell in workloads.load("certify")["cells"].values() for q in cell["queries"]]


def test_shared_integer_entries_hit_on_the_first_certify_rounds(tmp_path, empty_rule_memos):
    # prefixes and patterns repeat few values: each query parses its own descriptor, but
    # its integers are the entries of earlier ones
    sequences._int_entry.cache_clear()
    api = workloads.Api(tmp_path)
    for q in workloads.take(workloads.load("certify"), 8, 24):
        workloads.execute(api, q)
    info = sequences._int_entry.cache_info()
    assert info.hits >= 0.9 * (info.hits + info.misses), info
    assert info.currsize < 100


def test_certify_pool_does_rational_arithmetic_only_while_parsing(tmp_path):
    # every fractions (and numbers) function the pool calls is reached only through
    # SymbolSeq.from_json: walk each caller up until from_json, and never reach a root
    api = workloads.Api(tmp_path)
    prof = cProfile.Profile()
    for q in _pool_queries():
        prof.runcall(workloads.execute, api, q)
    stats = pstats.Stats(prof).stats  # (file, line, name) -> (cc, nc, tt, ct, callers)
    rational = [f for f in stats if f[0].endswith(("fractions.py", "numbers.py"))]
    assert rational  # rates are still parsed through Fraction
    seen, todo = set(), list(rational)
    while todo:
        f = todo.pop()
        if f in seen or (f[0].endswith("sequences.py") and f[2].endswith("from_json")):
            continue
        seen.add(f)
        assert stats[f][4], f"{f} is called outside SymbolSeq.from_json"
        todo.extend(stats[f][4])


def _hull_bits(iv: Interval) -> tuple:
    return iv.lo.hex(), iv.hi.hex(), iv.lo_open, iv.hi_open


_real_closing = LinExpTail.closing_terms


def _without_early_stop(self, p, shift, k, below=-math.inf):
    return _real_closing(self, p, shift, k)


def _run_recording_hulls(api, q, monkeypatch) -> tuple[str, list]:
    """The query's output text and the bits of every hull it built, from emptied rule memos."""
    hulls = []
    real = Interval.sup_hull
    clear_rule_memos()
    with monkeypatch.context() as m:
        m.setattr(Interval, "sup_hull", staticmethod(
            lambda terms: hulls.append(_hull_bits(h := real(terms))) or h))
        return workloads.execute(api, q)[1], hulls


def test_every_pool_ramp_hull_keeps_its_bits_when_the_envelope_stops_early(tmp_path, monkeypatch):
    # an envelope wholly below the hull's lower end so far is left out: every hull (and
    # every output) of the pool's ramp queries is the one the full envelope gives
    api = workloads.Api(tmp_path)
    ramps = [q for q in _pool_queries() if q["seq"]["tail"]["kind"] == "linexp"]
    assert len(ramps) == 402
    for q in ramps:
        text, hulls = _run_recording_hulls(api, q, monkeypatch)
        with monkeypatch.context() as full:
            full.setattr(LinExpTail, "closing_terms", _without_early_stop)
            assert _run_recording_hulls(api, q, monkeypatch) == (text, hulls), q
        assert text == json.dumps(q["ref"], sort_keys=True)


def test_ramp_witness_hulls_take_fewer_inverse_steps(monkeypatch, empty_rule_memos):
    # the pool's costliest ramp family: each member's shift-0 hull closes with an envelope
    # m + 3 inverse steps deep, which now stops once it is below the shared head
    base = SymbolSeq.from_json({"prefix": [5], "tail": {"kind": "linexp", "c": "2/1"}})
    point = model.ModelPoint(model.endpoint_height_enclosure(base).mid, base)
    witnesses = [r.witness for r in witness_family(point, AlphaIndex((0, 3)), 4, 6)]
    steps = []
    real_bounds = intervals._ln1p_bounds
    monkeypatch.setattr(intervals, "_ln1p_bounds", lambda lo, hi: steps.append(1) or real_bounds(
        lo, hi))

    def hull_steps(w) -> tuple:
        steps.clear()
        fresh = SymbolSeq(w.prefix, w.tail)
        object.__setattr__(fresh, "cut", w.cut)
        return _hull_bits(model.potential(fresh, 0)), len(steps)

    stopped = [hull_steps(w) for w in witnesses]
    with monkeypatch.context() as full:
        full.setattr(LinExpTail, "closing_terms", _without_early_stop)
        whole = [hull_steps(w) for w in witnesses]
    assert [bits for bits, _ in stopped] == [bits for bits, _ in whole]
    assert all(a <= b for (_, a), (_, b) in zip(stopped, whole))
    assert sum(a for _, a in stopped) < sum(b for _, b in whole)

