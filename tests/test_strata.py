"""Stratum membership, extension search, and the thinning-witness pipeline."""

import hashlib
import json
import math
import sys
import threading
from collections import Counter
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expbouquet import (
    AlphaIndex,
    BudgetExceededError,
    IncomparableTailsError,
    ModelPoint,
    WitnessRefutedError,
    address_distance,
    classify,
    const_seq,
    endpoint_height,
    endpoint_height_enclosure,
    extension_index,
    fexp_seq,
    in_stratum,
    least_witness_depth,
    linexp_seq,
    point_distance,
    potential,
    witness_family,
    witness_sequence,
)
from expbouquet import RunConfig, model, strata, verify
from expbouquet.intervals import DEFAULT_TOL, Interval, TriBool, growth_net
from expbouquet.sequences import (
    CeilExp,
    ConstTail,
    ExpTowerTail,
    FloorPow,
    IntEntry,
    LinExpTail,
    PeriodicTail,
    SymbolSeq,
    _ramp_below_cap_from,
    _thin_entry,
    _tower_entry,
    _TowerRel,
)


def endpoint_of(seq) -> ModelPoint:
    return ModelPoint(endpoint_height_enclosure(seq).mid, seq)


# -- AlphaIndex ----------------------------------------------------------------


def test_alpha_index_validation():
    AlphaIndex((0, 3, 7))
    with pytest.raises(ValueError):
        AlphaIndex((3, 3))
    with pytest.raises(ValueError):
        AlphaIndex((-1,))
    with pytest.raises(ValueError):
        AlphaIndex((2,)).child(2)
    # entries are never truncated or coerced: (0.9, 2.5) is not (0, 2)
    for entries in ((0.9, 2.5), (0, 2.0), (True,), (0, False), ("1",), (Fraction(3),)):
        with pytest.raises(ValueError):
            AlphaIndex(entries)
    with pytest.raises(ValueError):
        AlphaIndex((0,)).child(2.5)


def test_alpha_threshold_ladder():
    alpha = AlphaIndex((0, 4, 9))
    assert [alpha.threshold(i) for i in range(3)] == [2.0, 5.0, 8.0]


# -- membership -------------------------------------------------------------------


def test_membership_tower_endpoint():
    point = endpoint_of(fexp_seq(3))
    assert in_stratum(AlphaIndex((0,)), point).is_true


def test_membership_rejects_bounded_address():
    point = endpoint_of(const_seq(1))
    assert in_stratum(AlphaIndex((0,)), point).is_false


def test_membership_rejects_non_escaping_point():
    assert in_stratum(AlphaIndex(()), ModelPoint(0.0, const_seq(0))).is_false


def test_membership_rejects_point_off_the_endpoint():
    seq = fexp_seq(3)
    h = endpoint_height_enclosure(seq)
    assert in_stratum(AlphaIndex(()), ModelPoint(h.mid + 1.0, seq)).is_false


def test_membership_nested():
    point = endpoint_of(fexp_seq(6))
    child = AlphaIndex((0,)).child(2)
    assert in_stratum(child, point).is_true
    assert in_stratum(AlphaIndex((0,)), point).is_true


def test_membership_threshold_binds():
    # the rate-1 ramp has potential about n + 1 at shift n, so constraints
    # bind exactly where the thresholds 2 and 5 sit
    seq = linexp_seq(1)
    point = endpoint_of(seq)
    assert in_stratum(AlphaIndex(()), point).is_true
    assert in_stratum(AlphaIndex((0,)), point).is_false      # potential(0) < 2
    assert in_stratum(AlphaIndex((1, 2)), point).is_false    # potential(2) < 5
    assert in_stratum(AlphaIndex((1, 8)), point).is_true


# -- extension search ----------------------------------------------------------------


def test_extension_tower_is_immediate():
    point = endpoint_of(fexp_seq(3))
    assert extension_index(AlphaIndex(()), point, 0) == 0


def test_extension_respects_floor_and_strictness():
    point = endpoint_of(fexp_seq(3))
    assert extension_index(AlphaIndex(()), point, 5) == 5
    n = extension_index(AlphaIndex((0,)), point, 0)
    assert n >= 1
    assert in_stratum(AlphaIndex((0,)).child(n), point).is_true


def test_extension_ramp_waits_for_the_threshold():
    point = endpoint_of(linexp_seq(1))
    n = extension_index(AlphaIndex(()), point, 0)
    assert in_stratum(AlphaIndex(()).child(n), point).is_true
    # the ramp potential at shift n-1 must not already certify > 2
    if n > 0:
        assert not potential(point.seq, n - 1).certainly_gt(2.0)


@pytest.mark.counts_work
def test_one_query_nests_each_sequence_once(monkeypatch, empty_rule_memos):
    # a strata --extend query: the CLI's height, then membership and extension;
    # potential calls may hit the memo, so count the term scans behind the hulls;
    # the shift-0 hull of a pure tail is scanned on the rule's own sequence, so a
    # scan counts whichever sequence of this address carries it
    descends, pot0 = [], []
    real_descend, real_terms = model._descend, model._potential_terms

    def counting_descend(*args):
        descends.append(args)
        return real_descend(*args)

    def counting_terms(seq, shift):
        if shift == 0:
            pot0.append(seq)
        return real_terms(seq, shift)

    monkeypatch.setattr(model, "_descend", counting_descend)
    monkeypatch.setattr(model, "_potential_terms", counting_terms)
    seq = fexp_seq(3)
    point = ModelPoint(endpoint_height_enclosure(seq).mid, seq)
    assert in_stratum(AlphaIndex((0,)), point).is_true
    assert extension_index(AlphaIndex((0,)), point, 0) >= 1
    assert len(descends) == 1
    assert sum(s == SymbolSeq((), seq.tail.shifted(0, 0)) or s is seq for s in pot0) == 1


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_library_entry_points_reject_a_tolerance_that_is_not_positive_and_finite(tol):
    calls = [
        lambda x: endpoint_height(x.seq, tol),
        lambda x: endpoint_height_enclosure(x.seq, tol),
        lambda x: classify(x, tol=tol),
        lambda x: in_stratum(AlphaIndex((0,)), x, tol, 100000),
        lambda x: extension_index(AlphaIndex(()), x, 0, tol),
        lambda x: witness_family(x, AlphaIndex((0,)), 1, 2, tol),
    ]
    known = ModelPoint(5.0, fexp_seq(3))
    endpoint_height_enclosure(known.seq)  # a filled memo must not answer either
    for call in calls:
        fresh = ModelPoint(5.0, fexp_seq(3))
        for x in (fresh, known):
            with pytest.raises(ValueError, match="tolerance must be positive and finite"):
                call(x)
        assert fresh.seq._memo == {}  # refused before any work


def test_extension_requires_membership():
    with pytest.raises(ValueError):
        extension_index(AlphaIndex(()), ModelPoint(0.0, const_seq(0)), 0)
    # fexp c = 9 has a height enclosure wider than 1e-20: unknown membership is no usage error
    with pytest.raises(BudgetExceededError, match="stratum membership not certified at tol 1e-20"):
        extension_index(AlphaIndex(()), endpoint_of(fexp_seq(9)), 0, 1e-20)


# -- witness construction ---------------------------------------------------------------


def test_witness_depth_is_one_for_big_towers():
    assert least_witness_depth(fexp_seq(10), 0, 5.0) == 1
    assert least_witness_depth(fexp_seq(10), 3, 5.0) == 1


def test_a_memoised_witness_depth_answers_only_its_own_threshold():
    # at shift 1 of a rate-2 ramp the first term certifies 2, but no term
    # within the budget certifies 5, and no term of a constant address
    # certifies the child threshold 2 at all; a failed search raises each time
    seq = linexp_seq("2")
    assert least_witness_depth(seq, 1, 2.0) == 1 == least_witness_depth(seq, 1, 2.0)
    for _ in range(2):
        with pytest.raises(BudgetExceededError, match="shift 1 for threshold 5.0"):
            least_witness_depth(seq, 1, 5.0)
    assert least_witness_depth(seq, 2, 5.0) == 1
    with pytest.raises(BudgetExceededError, match="shift 0 for threshold 2.0"):
        least_witness_depth(const_seq(1), 0, 2.0)


def test_a_witness_depth_is_searched_once(monkeypatch):
    # at shift 0 the first term is F^-1(|s_1|) = 0 and the second F^-2(1000) ~ 2.07
    seq = SymbolSeq.from_json({"prefix": [0, 0, 1000], "tail": {"kind": "fexp", "c": 3}})
    monkeypatch.setattr(strata, "DEPTH_BUDGET", 1)
    with pytest.raises(BudgetExceededError, match="shift 0 for threshold 1.5"):
        least_witness_depth(seq, 0, 1.5)
    monkeypatch.setattr(strata, "DEPTH_BUDGET", 512)
    # the failed search kept nothing: the depth is searched again
    assert least_witness_depth(seq, 0, 1.5) == 2


def test_witness_family_searches_each_depth_once(monkeypatch):
    # witness_family walks the shifts below the extension index once, each at
    # its segment's threshold, the first member the shifts its span reaches and
    # each later member the last cut index alone, at the child threshold
    keep, searches = [], Counter()
    real_search = strata._least_depth  # model._least_depth, the search least_witness_depth runs

    def search(seq, n, threshold, stop):
        keep.append(seq)  # alive, so ids stay unique
        searches[id(seq), n, threshold] += 1
        return real_search(seq, n, threshold, stop)

    monkeypatch.setattr(strata, "_least_depth", search)
    witness_family(endpoint_of(fexp_seq(9)), AlphaIndex((0, 1)), 2, 30)
    assert searches and max(searches.values()) == 1


def _reference_cut_indices(base, alpha, n_ext, count):
    """m_j = max{n + k_n : n_ext <= n <= span_j}, k_n the least witness depth at the
    child threshold; span_0 = n_ext + the largest depth below n_ext (0 if none), each
    at the threshold of the deepest index entry at or below its shift, and
    span_{j+1} = max(span_j + 1, m_j)."""
    below = [least_witness_depth(base, n, alpha.threshold(
        max(i for i, e in enumerate(alpha.entries) if e <= n)))
        for n in range(n_ext) if alpha.entries[0] <= n]
    span, ms = n_ext + max(below, default=0), []
    for _ in range(count):
        ms.append(max(n + least_witness_depth(base, n, alpha.threshold(alpha.dom))
                      for n in range(n_ext, span + 1)))
        span = max(span + 1, ms[-1])
    return ms


SPAN_FAMILIES = [
    ({"prefix": [], "tail": {"kind": "fexp", "c": 9}}, (0, 1), 2, 30, 1e-9),
    ({"prefix": [], "tail": {"kind": "fexp", "c": 10}}, (0,), 1, 5, 1e-9),
    ({"prefix": [2, 4], "tail": {"kind": "fexp", "c": 9}}, (0, 2, 3), 4, 12, 1e-9),
    ({"prefix": [2], "tail": {"kind": "fexp", "c": 7}}, (0, 2), 3, 12, 1e-9),
    ({"prefix": [3], "tail": {"kind": "linexp", "c": "2/1"}}, (0, 2), 3, 12, 1e-9),
    ({"prefix": [30, 30, 30, 30, 30], "tail": {"kind": "linexp", "c": "3"}}, (0,), 4, 12, 1e-9),
    # the first cut index comes from shift n_ext = 1 alone: it sees only the tower
    # entry at index 4 (depth 3), shift 2 sees 1000 at index 3; the height enclosure
    # is about 1 wide, so membership needs tol 1
    ({"prefix": [0, 1000, 1, 1000], "tail": {"kind": "fexp", "c": 6, "anchor": 0}},
     (0,), 1, 6, 1.0),
]


@pytest.mark.parametrize("descriptor, alpha, n_ext, count, tol", SPAN_FAMILIES)
def test_cut_indices_follow_the_span_recurrence(descriptor, alpha, n_ext, count, tol):
    base = SymbolSeq.from_json(descriptor)
    reports = witness_family(endpoint_of(base), AlphaIndex(alpha), n_ext, count, tol)
    assert [r.m for r in reports] == _reference_cut_indices(base, AlphaIndex(alpha), n_ext, count)


@pytest.mark.parametrize("descriptor, alpha, n_ext, count, tol", SPAN_FAMILIES)
def test_each_later_member_makes_one_depth_search(descriptor, alpha, n_ext, count, tol,
                                                  monkeypatch):
    # m_{j+1} = m_j + k_{m_j}: between two members' witnesses one depth search runs
    log = []
    real_depth, real_witness = strata.least_witness_depth, strata.witness_sequence
    monkeypatch.setattr(strata, "least_witness_depth", lambda *a: log.append("k") or real_depth(*a))
    monkeypatch.setattr(strata, "witness_sequence", lambda *a: log.append("w") or real_witness(*a))
    base = SymbolSeq.from_json(descriptor)
    witness_family(endpoint_of(base), AlphaIndex(alpha), n_ext, count, tol)
    assert "".join(log).split("w")[1:] == ["k"] * (count - 1) + [""]


def _witness_grid() -> str:
    """Witness families of 12 over fexp bases c = 3..9 with prefixes [], [2] and [2, 4], each
    parent index at its extension index; a raised error is kept by its type and message."""
    families = []
    for c in range(3, 10):
        for prefix in ((), (2,), (2, 4)):
            base = endpoint_of(fexp_seq(c, prefix))
            for entries in ((0,), (0, 1), (0, 2), (0, 2, 3)):
                alpha = AlphaIndex(entries)
                try:
                    n = extension_index(alpha, base)
                    got = [r.to_json() for r in witness_family(base, alpha, n, 12)]
                except (ValueError, ArithmeticError, BudgetExceededError) as e:
                    got = f"{type(e).__name__}: {e}"
                families.append({"c": c, "prefix": list(prefix), "alpha": list(entries),
                                 "family": got})
    return json.dumps(families, sort_keys=True)


def test_witness_family_grid_is_pinned():
    # sha256 recorded before the later members' cut indices came from one depth search each
    assert hashlib.sha256(_witness_grid().encode()).hexdigest() == (
        "c353fc023a006a034df6f54f7d226ccb051eab3e668a6fc4df5d893b5a201a65")


def test_witness_structure_over_tower_base():
    base = fexp_seq(10)
    w = witness_sequence(base, AlphaIndex((0,)), 2)
    # first three entries copied from the base, tower cap beyond
    assert w.entry(0) == IntEntry(22025)
    assert w.entry(1) == FloorPow(10, 2)
    assert w.entry(2) == FloorPow(10, 3)
    assert isinstance(w.tail, ExpTowerTail)
    assert w.tail.c == 3 and w.tail.anchor == 2
    assert w.entry(3).value == 19  # floor(F(3))


def test_witness_keeps_small_entries():
    # a zero in the base past the cut survives the min
    base = fexp_seq(10, (5, 0))
    w = witness_sequence(base, AlphaIndex((0,)), 0)
    assert w.entry(1).value == 0


def test_witness_requires_diverging_tail_and_depth():
    with pytest.raises(IncomparableTailsError):
        witness_sequence(const_seq(1), AlphaIndex((0,)), 2)
    with pytest.raises(ValueError):
        witness_sequence(fexp_seq(10), AlphaIndex(()), 2)


_TOWER_10 = {"kind": "fexp", "c": 10}


@pytest.mark.parametrize("base, alpha, n, entry", [
    # a prefix tower F^3(4) and a prefix ramp entry at index 3 against the cap
    # F^3(3), all past double range
    ({"prefix": [0, 0, 0, {"kind": "floor_tower", "c": 4, "h": 3}], "tail": _TOWER_10},
     (0,), 3, {"kind": "floor_tower", "c": 4, "h": 3}),
    ({"prefix": [0, 0, 0, {"kind": "ceil_exp", "arg": "1000"}], "tail": _TOWER_10},
     (0,), 3, {"kind": "ceil_exp", "arg": "1000/1"}),
    # a ramp tail entry ceil(F(8400)) against the cap F^2(9), both past double range
    ({"prefix": [], "tail": {"kind": "linexp", "c": "700", "offset": 10}},
     (0, 1, 2), 2, {"kind": "ceil_exp", "arg": "8400/1"}),
])
def test_an_undecidable_entry_raises_one_error(base, alpha, n, entry):
    message = "^entry incomparable with the thinning cap$"
    with pytest.raises(IncomparableTailsError, match=message) as e:
        witness_sequence(SymbolSeq.from_json(base), AlphaIndex(alpha), 0)
    cap = {"kind": "floor_tower", "c": 3 * len(alpha), "h": n}
    assert e.value.diagnostics == {"n": n, "entry": entry, "cap": cap}


def test_an_entry_or_tower_equal_to_its_cap_takes_the_cap():
    # min(x, x) = x: equal (c, exponent) pairs decide the min exactly
    base = {"prefix": [0, 0, 0, {"kind": "floor_tower", "c": 3, "h": 3}], "tail": _TOWER_10}
    w = witness_sequence(SymbolSeq.from_json(base), AlphaIndex((0,)), 0)
    assert w.prefix[3] == FloorPow(3, 3)
    w = witness_sequence(SymbolSeq.from_json({"prefix": [0, 5], "tail": {"kind": "fexp", "c": 9}}),
                         AlphaIndex((0, 2, 5)), 1)
    assert w.tail == ExpTowerTail(9, anchor=1)


def test_witness_caps_the_cut_potential():
    base = fexp_seq(10)
    for alpha in (AlphaIndex((0,)), AlphaIndex((0, 1))):
        m = 4
        w = witness_sequence(base, alpha, m)
        bound = 3.0 * alpha.dom
        assert potential(w, m).certainly_le(bound)
        assert potential(w, m).certainly_gt(bound - 1.0)


def test_witness_over_ramp_base():
    base = linexp_seq(3)
    w = witness_sequence(base, AlphaIndex((0,)), 2)
    # near the cut the tower cap is smaller than e^(3n); far out the base
    # ramp falls below the tower and survives
    assert w.entry(3).value == 19
    assert isinstance(w.tail, LinExpTail)
    caps = [n for n in range(3, 12) if w.entry(n) != base.entry(n)]
    assert caps, "expected a capped window after the cut"
    assert all(w.entry(n) == _tower_entry(3, n - 2) for n in caps)


def test_witness_distance_metric():
    base = fexp_seq(10)
    w3 = witness_sequence(base, AlphaIndex((0,)), 3)
    w5 = witness_sequence(base, AlphaIndex((0,)), 5)
    d3 = address_distance(w3, base)
    d5 = address_distance(w5, base)
    assert 0.0 < d5 < d3
    assert address_distance(base, base) == 0.0


def test_witness_family_full_pipeline():
    base_point = endpoint_of(fexp_seq(10))
    alpha = AlphaIndex((0,))
    reports = witness_family(base_point, alpha, 1, 3)
    assert len(reports) == 3
    ms = [r.m for r in reports]
    assert ms == sorted(ms) and len(set(ms)) == 3
    dists = [r.distance_to_base for r in reports]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    for r in reports:
        assert r.claim1_margin.lo > 2.0
        assert r.claim2_bound.hi <= 3.0
        assert r.height.mid <= endpoint_height_enclosure(base_point.seq).hi + 1e-9


def test_witness_family_builds_each_hull_and_depth_once(monkeypatch):
    # a hull is a sup_hull under model.potential, a shared head (terms 1..m of
    # the base's shift-0 hull, model._shared_head) the one term it adds, and a
    # depth a search (model._least_depth) under least_witness_depth, so a memo
    # hit counts as none; the calls that ask are kept on a stack, and the
    # sequences alive, so ids stay unique
    asking, keep, hulls, heads, depths = [], [], Counter(), Counter(), Counter()

    def asked(real, kind, defaults=()):
        def wrapper(seq, *args):
            keep.append(seq)
            asking.append((kind, id(seq), tuple(args) or defaults))
            try:
                return real(seq, *args)
            finally:
                asking.pop()
        return wrapper

    def counted(real, kind, tally, first=lambda *args: True):
        def wrapper(*args):
            if asking and asking[-1][0] == kind and first(*args):
                tally[asking[-1][1:]] += 1
            return real(*args)
        return wrapper

    pot = asked(model.potential, "potential", (0,))
    monkeypatch.setattr(model, "potential", pot)
    monkeypatch.setattr(strata, "potential", pot)
    monkeypatch.setattr(model, "_shared_head", asked(model._shared_head, "head"))
    monkeypatch.setattr(strata, "least_witness_depth", asked(strata.least_witness_depth, "depth"))
    monkeypatch.setattr(Interval, "sup_hull", staticmethod(
        counted(Interval.sup_hull, "potential", hulls)))
    monkeypatch.setattr(model, "potential_term", counted(model.potential_term, "head", heads))
    monkeypatch.setattr(strata, "_least_depth", counted(strata._least_depth, "depth", depths))
    reports = witness_family(endpoint_of(fexp_seq(9)), AlphaIndex((0, 1)), 2, 30)
    assert len(reports) == 30
    assert hulls and max(hulls.values()) == 1
    # every member's cut index has its head, built on the heads below it
    cut_indices = range(1, reports[-1].m + 1)
    assert set(heads) == {(base_id, (m,)) for base_id, _ in heads for m in cut_indices}
    assert max(heads.values()) == 1
    assert depths and max(depths.values()) == 1


@pytest.mark.counts_work
def test_witness_family_members_share_their_base_work(monkeypatch, empty_rule_memos):
    # the CI smoke family: each member recomputing the terms and nesting steps
    # on the entries it shares with its base, every tower hull scanning eight
    # explicit tail terms and every claim-two hull built apart took 2,218
    # potential terms and 585 descent steps; sharing that work took 198 and 121,
    # sharing what the members share past their cut 106 and 92, and one least-depth
    # search for the cuts and the parent certificates' cut floors takes 73 and 92
    point = endpoint_of(fexp_seq(9))
    terms, steps = [], []
    real_term = model.potential_term
    monkeypatch.setattr(model, "potential_term", lambda *args: terms.append(1) or real_term(*args))
    for cls in (IntEntry, FloorPow, CeilExp):
        real_descend = cls.descend
        monkeypatch.setattr(cls, "descend", lambda self, state, real=real_descend:
                            steps.append(1) or real(self, state))
    assert len(witness_family(point, AlphaIndex((0, 1)), 2, 30)) == 30
    assert len(terms) <= 150
    assert len(steps) <= 110


@pytest.mark.counts_work
def test_witness_family_asks_its_base_for_each_entry_about_once(monkeypatch, empty_rule_memos):
    # the CI smoke family: its 30 members read 35 distinct base entries (37 while
    # distances read gaps up to the saturated cap, two indices past the one where
    # the towers are certainly apart); each member building its own list of base
    # entries 0..m took 806 calls of base.entry (585 of them for those lists), the
    # cut's one tuple per base 255, and one first term per shift for all of parent
    # membership's thresholds 223
    point = endpoint_of(fexp_seq(9))
    asked = []
    real_entry = SymbolSeq.entry
    monkeypatch.setattr(SymbolSeq, "entry", lambda seq, n: (
        seq is point.seq and asked.append(n)) or real_entry(seq, n))
    assert len(witness_family(point, AlphaIndex((0, 1)), 2, 30)) == 30
    assert len(set(asked)) == 35
    assert len(asked) <= 300


@pytest.mark.counts_work
def test_witness_family_certifies_each_past_once_and_scans_parent_thresholds_from_the_cut(
        monkeypatch, empty_rule_memos):
    # the CI smoke family: past its cut every member is the cap tower floor(F^(n-m)(6)),
    # so claim two and claim one's margin are asked once, 7 hulls at cut shifts (each
    # member asking its own: 210), and no certificate starts at a cut: parent membership
    # certifies claim one through its last threshold, starting each threshold at the
    # shift the base's terms have not yet certified through an earlier cut, one hull per
    # threshold and member (scanning each from its index entry: 1,140)
    point = endpoint_of(fexp_seq(9))
    alpha = AlphaIndex((0, 1))
    cut_hulls, certificates, parent_asks, witness_member = [], [], [], []
    real_potential, real_holds = strata.potential, strata._threshold_holds_from
    real_member = strata.in_stratum

    def potential(seq, shift=0):
        if seq.cut and shift >= seq.cut[1]:
            cut_hulls.append(shift)
        return real_potential(seq, shift)

    def holds(seq, start, *args):
        if not witness_member and seq.cut and start == seq.cut[1]:
            certificates.append(start)
        return real_holds(seq, start, *args)

    def member(alpha, x, *args):
        witness_member.append(x.seq.cut is not None)
        try:
            return real_member(alpha, x, *args)
        finally:
            witness_member.pop()

    def parent_hull(seq, shift=0):  # every hull model.py reads, its threshold scans' among them
        if witness_member and witness_member[-1]:
            parent_asks.append(shift)
        return real_potential(seq, shift)

    for name, stand_in in (("potential", potential), ("_threshold_holds_from", holds),
                           ("in_stratum", member)):
        monkeypatch.setattr(strata, name, stand_in)
    monkeypatch.setattr(model, "potential", parent_hull)
    assert len(witness_family(point, alpha, 2, 30)) == 30
    assert len(certificates) == 0
    assert len(cut_hulls) <= 1 + strata.EXTRA_CLAIM_SHIFTS
    assert len(parent_asks) <= 2 * alpha.dom * 30


def test_threads_that_race_on_a_base_give_each_witness_the_base_entries():
    # members cut from one base extend its one tuple of entries 0..m; threads
    # that race, switching every microsecond, each store a whole, correct one
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            base, built, threads = fexp_seq(9, (4, 7)), {}, []
            for first in range(8):
                threads.append(threading.Thread(target=lambda first=first: built.update(
                    (m, witness_sequence(base, AlphaIndex((0,)), m)) for m in range(first, 40, 8))))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert sorted(built) == list(range(40))
            for m, w in built.items():
                assert w.prefix[:m + 1] == tuple(base.entry(n) for n in range(m + 1))
    finally:
        sys.setswitchinterval(interval)


def _family_json(base: SymbolSeq, alpha: AlphaIndex, n, count: int) -> str:
    """The family's reports as JSON, or the error that stopped it (n None: the extension index)."""
    point = endpoint_of(base)
    try:
        n_ext = extension_index(alpha, point, alpha.entries[-1] + 1) if n is None else n
        return json.dumps([r.to_json() for r in witness_family(point, alpha, n_ext, count)])
    except (ValueError, BudgetExceededError) as e:
        return f"{type(e).__name__}: {e}"


def test_threads_that_race_on_a_base_give_each_family_the_reports_of_a_lone_run():
    # families of one base share its memo: entries, heads, first terms, cut floors
    # and the states their tails hand to the cut; threads that race on it,
    # switching every microsecond, each get the reports of a family run alone
    alphas = [AlphaIndex(entries) for entries in ((0,), (0, 1), (0, 2), (0, 2, 3))]
    lone = [_family_json(fexp_seq(9, (4, 7)), alpha, None, 10) for alpha in alphas]
    assert all(text.startswith("[") for text in lone)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            base, got = fexp_seq(9, (4, 7)), {}
            threads = [threading.Thread(target=lambda i=i: got.update(
                {i: _family_json(base, alphas[i % 4], None, 10)})) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert [got[i] for i in range(8)] == lone * 2
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("prefix", [(), (2,), (2, 4)])
def test_witness_families_match_families_of_unlinked_witnesses(prefix, monkeypatch):
    # a witness reads the work on the entries it shares with its base through
    # its cut; a fresh copy of it carries no cut and recomputes that work
    def unlinked(base, alpha, m):
        w = real_witness(base, alpha, m)
        copy = SymbolSeq(w.prefix, w.tail)
        assert (copy, hash(copy), repr(copy), copy.to_json()) == (w, hash(w), repr(w), w.to_json())
        assert w.cut == (base, m) and w.cut[0] is base and copy.cut is None
        return copy

    real_witness = strata.witness_sequence
    cases = [(SymbolSeq(prefix, ExpTowerTail(c)), AlphaIndex(alpha), None)
             for c in range(3, 10) for alpha in ((0,), (0, 1), (0, 2), (0, 2, 3))]
    cases.append((SymbolSeq((3,), LinExpTail(2)), AlphaIndex((0, 2)), 3))
    built = 0
    for base_of, alpha, n in cases:
        shared = _family_json(SymbolSeq(base_of.prefix, base_of.tail), alpha, n, 12)
        with monkeypatch.context() as patched:
            patched.setattr(strata, "witness_sequence", unlinked)
            assert _family_json(SymbolSeq(base_of.prefix, base_of.tail), alpha, n, 12) == shared
        built += shared.startswith("[")
    # under the prefix [2, 4] the towers of c < 7 are no members of any stratum
    assert built >= 13


def test_a_linked_witness_answers_each_threshold_as_its_unlinked_copy():
    # a witness's hulls read the work on its base through its cut, and its threshold
    # certificate skips the shifts below its cut floor; a base of zeros before its towers
    # puts its first term above r past the cut at low shifts
    for prefix in [(), (0, 0, 0), (0, 0, 0, 0, 0, 0), (2, 0, 0, 4)]:
        for c in (3, 6, 9):
            base = SymbolSeq(prefix, ExpTowerTail(c))
            for m in range(1, 12):
                w = witness_sequence(base, AlphaIndex((0,)), m)
                copy = SymbolSeq(w.prefix, w.tail)
                for n in range(m + 1):
                    for r in (0.1, 0.5, 2.0, 3.0, 5.0, 8.0, 20.0):
                        assert potential(w, n).certainly_gt(r) == potential(copy, n).certainly_gt(r)
                        assert (model._threshold_holds_from(w, n, r, 100000)
                                == model._threshold_holds_from(copy, n, r, 100000))


@pytest.mark.parametrize("cuts", [range(1, 12), range(11, 0, -1)], ids=["longer", "shorter"])
def test_a_cut_floor_holds_only_shifts_its_cut_certifies(cuts):
    # each shift below a witness's cut floor has a base term above r within its cut, so its
    # unlinked copy's hull is above r there; the floor stops at the first shift the cut leaves
    # to the witness's own terms, whether the base kept a shorter or a longer cut's floor,
    # and never passes the stop its caller scans to
    for prefix in [(), (0, 0, 0), (0, 0, 0, 0, 0, 0), (2, 0, 0, 4)]:
        for c in (3, 6, 9):
            base = SymbolSeq(prefix, ExpTowerTail(c))
            for m in cuts:
                w = witness_sequence(base, AlphaIndex((0,)), m)
                copy = SymbolSeq(w.prefix, w.tail)
                for start in (0, 2):
                    for r in (0.5, 2.0, 5.0, 20.0):
                        for stop in (m + 3, start + 1):
                            floor = model._cut_floor(w, start, stop, r)
                            assert start <= floor <= max(start, min(m, stop))
                            assert all(potential(copy, n).certainly_gt(r)
                                       for n in range(start, floor))
                            assert (floor >= min(m, stop)
                                    or model._least_depth(base, floor, r, m - floor) == 0)


@pytest.mark.parametrize("descriptor, alpha, n_ext, count, tol", SPAN_FAMILIES + [
    ({"prefix": [5], "tail": {"kind": "linexp", "c": "2/1"}}, (0, 3), 4, 6, 1e-9),  # a pool family
])
def test_a_parent_certificate_cut_floor_reaches_every_member_cut(descriptor, alpha, n_ext, count,
                                                                 tol):
    # the cuts and the cut floors ask the same least depths, and a parent threshold is no
    # higher than the one each cut was built for: every shift below a cut is certified by it
    # (the first of these families is the CI smoke family; under the prefix [2, 4] and the
    # towers after 0, 1000, 1, 1000 some of these shifts need a term past the first)
    base = SymbolSeq.from_json(descriptor)
    alpha = AlphaIndex(alpha)
    reports = witness_family(endpoint_of(base), alpha, n_ext, count, tol)
    assert len(reports) == count
    for report in reports:
        w = report.witness
        for i, start in enumerate(alpha.entries):
            r = alpha.threshold(i)
            n1 = w.tail.potential_floor(len(w.prefix), r)
            assert model._cut_floor(w, start, n1, r) == min(report.m, n1), (report.m, i)


def _assert_claim_one(alpha, reports):
    # claim one rides on parent membership: its last threshold is claim one's bound, asked
    # from an index entry below every cut, so each reported member holds it from its cut on
    for report in reports:
        assert report.m > alpha.entries[-1]
        assert alpha.threshold(alpha.dom - 1) == 3.0 * alpha.dom - 1.0
        assert model._threshold_holds_from(report.witness, report.m, 3.0 * alpha.dom - 1.0,
                                           100000).is_true, report.m


@pytest.mark.parametrize("descriptor, alpha, n_ext, count, tol", SPAN_FAMILIES + [
    ({"prefix": [5], "tail": {"kind": "linexp", "c": "2/1"}}, (0, 3), 4, 6, 1e-9),  # a pool family
])
def test_claim_one_holds_for_every_reported_member(descriptor, alpha, n_ext, count, tol):
    alpha = AlphaIndex(alpha)
    reports = witness_family(endpoint_of(SymbolSeq.from_json(descriptor)), alpha, n_ext, count, tol)
    assert len(reports) == count
    _assert_claim_one(alpha, reports)


@pytest.mark.parametrize("alpha, n_ext", [((0,), 1), ((0, 1), 2), ((0, 2, 4), 5)])
def test_claim_one_holds_for_every_member_of_the_verify_witness_families(alpha, n_ext):
    alpha = AlphaIndex(alpha)
    _, reports = verify._demo_family(RunConfig(), alpha, n_ext, 3)
    assert len(reports) == 3
    _assert_claim_one(alpha, reports)


def test_a_linked_witness_has_the_shift_0_hull_and_height_of_its_unlinked_copy():
    # past its cut m a witness's shift-0 terms lie below potential(w, m), so when that is
    # below the shared head the head alone is the hull; its nesting starts at m from the
    # state its tail hands down, built once per base and past; each keeps the copy's bits
    def bits(iv):
        return iv.lo.hex(), iv.hi.hex(), iv.lo_open, iv.hi_open

    bases = [SymbolSeq(prefix, ExpTowerTail(c)) for prefix in [(), (2,), (0, 0, 0), (2, 0, 0, 4)]
             for c in (3, 6, 9)]
    bases += [SymbolSeq((p,), LinExpTail(2)) for p in (3, 5)]
    checked, head_alone = 0, 0
    for base in bases:
        for alpha in (AlphaIndex((0,)), AlphaIndex((0, 1)), AlphaIndex((0, 2, 3))):
            for m in range(1, 12):
                w = witness_sequence(base, alpha, m)
                copy = SymbolSeq(w.prefix, w.tail)
                assert bits(potential(w)) == bits(potential(copy)), (base, alpha, m)
                assert bits(endpoint_height_enclosure(w)) == bits(endpoint_height_enclosure(copy))
                checked += 1
                head_alone += potential(w, m).hi < model._shared_head(base, m).lo
    assert checked == 462 and 100 <= head_alone < checked


def _state_bits(state) -> tuple:
    """A nesting state's exact bits: endpoint doubles as hex (so -0.0 is not 0.0) and flags."""
    if isinstance(state, _TowerRel):
        return state.base, state.height, _state_bits(state.delta.bounds())
    lo, hi, lo_open, hi_open = state
    return lo.hex(), hi.hex(), lo_open, hi_open


def test_signed_zero_states_share_one_descent_slot(monkeypatch):
    # 0.0 == -0.0, so the states at level 3 share a slot and -0.0 takes no step: it reads
    # the enclosure 0.0 left, which every entry's step makes the same bits (see the next
    # test); each ask gives the unlinked copy's bits
    base = const_seq(0, (0, 1, 0))
    linked = SymbolSeq(base.prefix, base.tail)
    object.__setattr__(linked, "cut", (base, 3))  # as witness_sequence links a witness
    steps = []
    real_descend = IntEntry.descend
    monkeypatch.setattr(IntEntry, "descend", lambda self, state: steps.append(1) or real_descend(
        self, state))
    taken = []
    for z in (0.0, -0.0, 0.0, -0.0):
        want = model._descend(SymbolSeq(base.prefix, base.tail), 3, Interval.point(z))
        steps.clear()
        got = model._descend(linked, 3, Interval.point(z))
        taken.append(len(steps))
        assert _state_bits(got.bounds()) == _state_bits(want.bounds())
    assert taken == [3, 0, 0, 0]


# integer entries (0 has the end +0), towers below and past TOWER_PIN, ramp entries (arg 0
# has the end +0) below and above PIN_ARG; tower-relative states of F^2(2) ~ 596, which every
# entry materializes, and of F^3(2) ~ 1e259, which FloorPow(2, 3) takes the pin step from
SIGNED_ZERO_ENTRIES = [IntEntry(0), IntEntry(7), FloorPow(2, 2), FloorPow(2, 3), CeilExp(0),
                       CeilExp(5), CeilExp(100), CeilExp(401, 4)]


@given(st.sampled_from(SIGNED_ZERO_ENTRIES),
       st.one_of(st.tuples(st.sampled_from([0.0, -0.0]), st.floats(0.0, 1e6)),
                 st.tuples(st.floats(-0.5, 0.0), st.sampled_from([0.0, -0.0]))),
       st.booleans(), st.booleans(), st.sampled_from([None, (2, 2), (2, 3)]))
@settings(max_examples=400)
def test_every_entry_steps_a_state_and_its_signed_zero_twin_to_the_same_bits(
        entry, ends, lo_open, hi_open, tower):
    # model._descend keys its slots by the state, whose float == merges a state with its
    # twin whose zero ends have the other sign: the slot is sound only if both step alike
    flags = (lo_open, hi_open) if ends[0] < ends[1] else (False, False)
    state, twin = (*ends, *flags), (*(-v if v == 0.0 else v for v in ends), *flags)
    if tower:
        state, twin = (_TowerRel(*tower, Interval(*s)) for s in (state, twin))
    assert state == twin and hash(state) == hash(twin)
    assert _state_bits(entry.descend(state)) == _state_bits(entry.descend(twin))


def test_a_witness_hands_any_start_above_its_cut_down_once_per_past(monkeypatch):
    # the CI smoke family: past its cut every member is the cap tower, one past for all; a
    # lower bound seeded above the cut keeps its unlinked copy's bits, and only the first
    # member steps the entries past its cut from that start: the others read its hand-off
    reports = witness_family(endpoint_of(fexp_seq(9)), AlphaIndex((0, 1)), 2, 8)
    assert len({model._past_cut(r.witness, r.m) for r in reports}) == 1
    asked = []
    real_entry = SymbolSeq.entry
    monkeypatch.setattr(SymbolSeq, "entry", lambda seq, n: asked.append((seq, n)) or real_entry(
        seq, n))
    for above in (1, 2, 5):
        for i, r in enumerate(reports):
            w = r.witness
            asked.clear()
            got = model.endpoint_lower_bound(w, r.m + above)
            assert len([n for s, n in asked if s is w and n > r.m]) == (0 if i else above)
            want = model.endpoint_lower_bound(SymbolSeq(w.prefix, w.tail), r.m + above)
            assert _state_bits(got.bounds()) == _state_bits(want.bounds())


def test_witness_family_refuses_a_cut_index_at_the_distance_horizon():
    # distances sum gaps through index 60 only: a witness cut at 60 differs
    # from its base only past it, which would read as distance 0.0
    base_point = endpoint_of(fexp_seq(9))
    reports = witness_family(base_point, AlphaIndex((0, 1)), 2, 56)
    assert reports[-1].m == 59 and reports[-1].distance_to_base > 0.0
    with pytest.raises(BudgetExceededError, match="cut index 60 reaches the distance horizon 60"):
        witness_family(base_point, AlphaIndex((0, 1)), 2, 57)


def test_witness_family_empty_count():
    base_point = endpoint_of(fexp_seq(10))
    assert witness_family(base_point, AlphaIndex((0,)), 1, 0) == []


def test_witness_family_rejects_a_negative_count():
    with pytest.raises(ValueError, match="count"):
        witness_family(endpoint_of(fexp_seq(10)), AlphaIndex((0,)), 1, -1)


def test_witness_family_requires_membership():
    with pytest.raises(ValueError):
        witness_family(ModelPoint(0.0, const_seq(0)), AlphaIndex((0,)), 1, 2)


def test_point_distance_combines_height_and_address():
    a = endpoint_of(fexp_seq(10))
    b = ModelPoint(a.t + 0.5, a.seq)
    assert point_distance(a, b) == pytest.approx(0.5)


def _reference_gap(a, b) -> float:
    """The entry gap as the interval path computed it before any closed form."""
    if a == b:
        return 0.0
    if isinstance(a, IntEntry) and isinstance(b, IntEntry):
        return min(1.0, float(abs(a.value - b.value)))
    diff = a.abs_interval() - b.abs_interval()
    if diff.lo >= 1.0 or diff.hi <= -1.0:
        return 1.0
    if diff.lo <= 0.0 <= diff.hi:
        return 0.0 if diff.width == 0.0 else min(1.0, abs(diff.mid))
    return min(1.0, abs(diff.mid))


def _reference_distances(a, b, horizons) -> dict:
    """The per-index sum over every entry gap, read at each horizon."""
    total, out = 0.0, {}
    for n in range(max(horizons) + 1):
        gap = _reference_gap(a.entry(n), b.entry(n))
        if gap:
            total += math.ldexp(gap, -n)
        if n in horizons:
            out[n] = total
    return out


def _distance_sweep_pairs() -> list:
    """Ordered pairs over every tail rule and prefix, and witnesses against their bases."""
    # the const and periodic tails share their first entry; the tower of c = 4
    # comes again with its anchor written out: equal entries from a tail that
    # does not compare equal
    tails = [ConstTail(0), PeriodicTail((0, 3)), *(ExpTowerTail(c) for c in range(1, 11)),
             ExpTowerTail(4, anchor=-1), LinExpTail(1, 2), LinExpTail(3)]
    prefixes = [(), (2,), (0, 5), (3, 4, 1), (1, _tower_entry(2, 4))]
    seqs = [SymbolSeq(p, t) for t in tails for p in prefixes]
    # the gaps are symmetric, so each unordered pair once
    pairs = [(a, b) for i, a in enumerate(seqs) for b in seqs[i:]]
    # a first gap 53 places before two saturated towers: the first tower term
    # is half the last place of the sum, so the order of rounding shows
    pairs.append(tuple(SymbolSeq((v,) + (0,) * 52, ExpTowerTail(c, anchor=51))
                       for v, c in ((1, 9), (0, 10))))
    for base in (SymbolSeq(p, t) for t in tails[2:] for p in prefixes[::2]):
        for alpha in (AlphaIndex((0,)), AlphaIndex((0, 1)), AlphaIndex((0, 2, 3))):
            for m in range(16):
                try:
                    w = witness_sequence(base, alpha, m)
                except IncomparableTailsError:
                    continue
                pairs += [(w, base), (base, w)]
    return pairs


def test_address_distance_matches_the_per_index_sum():
    # the closed forms past both prefixes (equal shifted sequences stop the
    # sum, two unequal saturated towers add 1.0 per index) keep every bit
    horizons = (0, 1, 5, 30, 60, 100)
    pairs = _distance_sweep_pairs()
    assert len(pairs) > 6000
    for a, b in pairs:
        ref = _reference_distances(a, b, horizons)
        for h in horizons:
            assert address_distance(a, b, h).hex() == ref[h].hex(), (a, b, h)


@pytest.mark.parametrize("x, y, apart", [
    (IntEntry(5), IntEntry(7), False), (IntEntry(5), IntEntry(8), True),
    (IntEntry(8), IntEntry(5), True), (IntEntry(7), IntEntry(7), False),
    # floor(F^2(2)) = 594 as a tower past its pin, and towers unbounded above
    (IntEntry(592), FloorPow(2, 2), False), (IntEntry(591), FloorPow(2, 2), True),
    (_tower_entry(3, 4), IntEntry(19), True), (_tower_entry(3, 4), _tower_entry(4, 4), False),
])
def test_tower_entries_are_apart_past_a_gap_of_2(x, y, apart):
    # F' >= 1 keeps towers more than 1 apart once their floors are more than 2 apart;
    # a floor(t) lies in (t.lo - 1, t.hi], so a gap of 2 or less decides nothing
    assert strata._towers_apart(x, y) is apart and strata._towers_apart(y, x) is apart


def test_witness_grid_distances_fold_from_tower_levels_as_the_per_index_sum(monkeypatch):
    # on every distance of the 84-family grid, the fold that starts where two tower tails'
    # entries are certainly more than 2 apart gives the bits of the per-index sum, and
    # the grid keeps its pin
    compared, folded = [], []
    real_distance, real_apart = strata.address_distance, strata._towers_apart

    def distance(a, b, horizon=strata._DIST_HORIZON):
        got = real_distance(a, b, horizon)
        assert got.hex() == _reference_distances(a, b, (horizon,))[horizon].hex(), (a, b)
        compared.append(1)
        return got

    monkeypatch.setattr(strata, "address_distance", distance)
    monkeypatch.setattr(strata, "_towers_apart", lambda x, y: (
        real_apart(x, y) and not folded.append(1)))
    assert hashlib.sha256(_witness_grid().encode()).hexdigest() == (
        "c353fc023a006a034df6f54f7d226ccb051eab3e668a6fc4df5d893b5a201a65")
    assert len(compared) > 500 and len(folded) == len(compared)


def test_equal_tails_written_differently_stop_the_distance_at_once(monkeypatch):
    # the default anchor of an empty prefix is -1: the stop compares the
    # shifted tail rules, whose anchors are resolved, so no gap is evaluated
    gaps = []
    real_gap = strata._entry_gap
    monkeypatch.setattr(strata, "_entry_gap", lambda a, b: gaps.append(1) or real_gap(a, b))
    a, b = SymbolSeq((), ExpTowerTail(4)), SymbolSeq((), ExpTowerTail(4, anchor=-1))
    assert a != b
    assert address_distance(a, b) == 0.0
    assert address_distance(b, a) == 0.0
    assert gaps == []


def test_witness_distances_build_no_tower_enclosure_past_the_first_saturated_pair(monkeypatch):
    # from the first index where both entries are unequal towers unbounded
    # above, every gap is 1.0: no tower enclosure is built for them
    def saturated(e):
        return isinstance(e, FloorPow) and e.tower().hi == math.inf

    # during a distance: its first saturated index and the index read last
    state, late = {}, []
    real_abs, real_entry = FloorPow.abs_interval, SymbolSeq.entry
    real_distance = strata.address_distance

    def abs_interval(self):
        if state and state["n"] >= state["first"]:
            late.append(self)
        return real_abs(self)

    def entry(self, n):
        if state:
            state["n"] = n
        return real_entry(self, n)

    def address_distance(a, b, *args):
        pairs = ((n, a.entry(n), b.entry(n)) for n in range(strata._DIST_HORIZON + 1))
        state["first"] = next((n for n, ea, eb in pairs
                               if ea != eb and saturated(ea) and saturated(eb)), math.inf)
        state["n"] = -1
        try:
            return real_distance(a, b, *args)
        finally:
            state.clear()

    monkeypatch.setattr(FloorPow, "abs_interval", abs_interval)
    monkeypatch.setattr(SymbolSeq, "entry", entry)
    monkeypatch.setattr(strata, "address_distance", address_distance)
    reports = witness_family(endpoint_of(fexp_seq(9)), AlphaIndex((0, 1)), 2, 30)
    assert len(reports) == 30
    assert late == []
    # the reports are byte for byte those of the per-index sum
    text = json.dumps([r.to_json() for r in reports], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a56ce2c8a34a076851ac8ad387e9e0a92b7904aafc27e3d41991dbf5d803afee")


# -- directed rounding in the thinning comparisons ------------------------------


class _Symbolic:
    """A symbolic entry with a chosen enclosure of its absolute value."""

    def __init__(self, iv: Interval):
        self.iv = iv

    def abs_interval(self):
        return self.iv


def _pick(a: Interval, cap: tuple[int, int]) -> str:
    """Which side ``_thin_entry`` keeps for an entry enclosed by a: 'entry', 'cap' or 'unknown'."""
    entry = _Symbolic(a)
    kept = _thin_entry(entry, *cap)
    return "unknown" if kept is None else "entry" if kept is entry else "cap"


def _assert_certified(pick: str, a: Interval, cap: tuple[int, int]):
    # the min is certified only with a gap of at least one, in exact arithmetic,
    # to the tower F^h(c) or, when the cap is a machine integer, to its value
    b, cap_entry = growth_net(*cap), _tower_entry(*cap)
    if pick == "entry":
        assert Fraction(a.hi) <= Fraction(b.lo) - 1
    elif pick == "cap":
        assert (Fraction(b.hi) <= Fraction(a.lo) - 1
                or isinstance(cap_entry, IntEntry) and cap_entry.value + 1 <= Fraction(a.lo))


# x - 1.0 rounds up to x: ties to even above 2^53, and every x from 2^54 on
ROUNDING_UP = [2.0**53 + 4, 2.0**54 + 8, 2.0**60, 1e17, 3.5e20]


def _first_cap_from(x: float) -> tuple[int, int]:
    """The first tower cap (c, 1) whose enclosure lies at or above x."""
    c = 1
    while growth_net(c, 1).lo < x:
        c += 1
    return c, 1


@pytest.mark.parametrize("x", ROUNDING_UP)
def test_entry_vs_cap_needs_an_exact_gap_of_one(x):
    assert x - 1.0 == x
    cap = _first_cap_from(x)
    b = growth_net(*cap)
    assert b.lo - 1.0 == b.lo and b.hi - 1.0 == b.hi
    near = Interval(b.lo - 2.0**20, b.lo)
    far = Interval(b.hi, b.hi + 2.0**20)
    # |entry| <= b.lo and the tower >= b.lo: b.lo - 1.0 == b.lo would have
    # certified the entry
    assert _pick(near, cap) == "unknown"
    # and the mirror case for the cap
    assert _pick(far, cap) == "unknown"


# machine-integer caps, F(1) ~ 1.7 up to F(36) ~ 4.3e15, and symbolic ones
CAPS = ([(1, 1), (3, 1), (10, 1), (3, 2), (30, 1), (36, 1), (4, 2)]
        + [_first_cap_from(x) for x in ROUNDING_UP])


@given(st.sampled_from(CAPS), st.floats(-3.0, 3.0), st.floats(0.0, 1e3), st.booleans())
@settings(max_examples=300)
def test_entry_vs_cap_certificates_hold_exactly(cap, gap, width, above):
    b = growth_net(*cap)
    if above:  # an enclosure from gap past the tower's upper end
        lo = max(b.hi + gap, 0.0)
        a = Interval(lo, lo + width)
    else:  # one up to gap below its lower end
        hi = max(b.lo - gap, 0.0)
        a = Interval(max(hi - width, 0.0), hi)
    _assert_certified(_pick(a, cap), a, cap)


def _ramp_step_holds(a: Interval, rate_hi: float, cap_below: Interval) -> bool:
    """The crossover conditions at 50 digits: cap >= arg + 1, e^(arg+1) - 1 >= arg + rate + 2."""
    with mp.workdps(50):
        lo, hi = mp.mpf(a.lo), mp.mpf(a.hi)
        return (mp.mpf(cap_below.lo) >= hi + 1 and lo >= 1
                and mp.expm1(lo + 1) >= hi + mp.mpf(rate_hi) + 2)


def _near_ties(count: int) -> list:
    """(arg, rate) where e^(arg+1) - 1 and arg + rate + 2 agree to a few ulps."""
    cases = []
    for i in range(1, 400):
        x = 1.0 + i / 97.0
        r = math.expm1(x + 1.0) - x - 2.0
        for _ in range(3):
            cases.append((x, r))
            r = math.nextafter(r, math.inf)
        if len(cases) >= count:
            break
    return cases


def test_ramp_crossover_step_is_directed():
    cap = Interval(1e6, 1e6)
    misjudged = 0
    for x, rate_hi in _near_ties(60):
        a = Interval.point(x)
        holds = _ramp_step_holds(a, rate_hi, cap)
        if _ramp_below_cap_from(a, rate_hi, cap):
            assert holds
        misjudged += (math.expm1(x + 1.0) >= x + rate_hi + 2.0) and not holds
    # the sample reaches cases that the comparison rounded to nearest accepts
    assert misjudged > 0


def test_ramp_crossover_cap_gap_is_directed():
    a = Interval.point(1.0 + 2.0**-52)
    assert a.hi + 1.0 == 2.0  # rounded down, a tie to even
    assert not _ramp_below_cap_from(a, 0.5, Interval.point(2.0))
    assert _ramp_below_cap_from(a, 0.5, Interval.point(math.nextafter(2.0, 3.0)))


@given(st.floats(1.0, 30.0), st.floats(0.0, 1e-9), st.floats(1e-4, 700.0),
       st.floats(0.0, 1e4))
@settings(max_examples=300)
def test_ramp_crossover_certificates_hold(arg, width, rate_hi, cap_lo):
    a = Interval(arg, arg + width)
    cap = Interval(cap_lo, cap_lo)
    if _ramp_below_cap_from(a, rate_hi, cap):
        assert _ramp_step_holds(a, rate_hi, cap)


def test_witness_cut_guards():
    base, alpha = fexp_seq(10), AlphaIndex((0,))
    with pytest.raises(ValueError, match="cut index"):
        witness_sequence(base, alpha, -1)


def test_a_threshold_past_the_slow_ramp_window_is_unknown_with_no_extension():
    # rate 1/10000 from arg ~1: the rule certifies threshold 3i + 2 from shift
    # ~(3i + 1) * 10^4, so each of 13 levels holds, but threshold 41 needs a
    # shift past the rule's 400,000-shift window
    seq = SymbolSeq((), LinExpTail(1, 10000, 9999))
    alpha = AlphaIndex(tuple(model.potential_floor(seq, 3.0 * i + 2.0) for i in range(13)))
    point = endpoint_of(seq)
    assert in_stratum(alpha, point).is_true
    assert in_stratum(alpha.child(400_001), point) == TriBool.unknown(None)
    with pytest.raises(BudgetExceededError, match="no certified divergence index"):
        extension_index(alpha, point)


def _only_for_witnesses(real, answer):
    """real(seq, ...) on the base fexp_seq(10) (no prefix), answer on its witnesses."""
    return lambda seq, *args: answer if seq.prefix else real(seq, *args)


def _only_for_witness_points(real, answer):
    return lambda alpha, x, *args: answer if x.seq.prefix else real(alpha, x, *args)


# each certificate of witness_family, its own or parent membership's, broken on the witnesses only
@pytest.mark.parametrize("name, stand_in, message", [
    ("potential", lambda real: _only_for_witnesses(real, Interval(0.0, math.inf, False, True)),
     "claim-two bound"),
    ("_threshold_holds_from", lambda real: _only_for_witnesses(real, TriBool.unknown()),
     "parent-stratum membership not certified"),
    ("in_stratum", lambda real: _only_for_witness_points(real, TriBool.unknown()),
     "parent-stratum membership"),
    ("endpoint_height_enclosure", lambda real: _only_for_witnesses(real, Interval.point(1e6)),
     "exceeds the base height"),
    ("point_distance", lambda real: lambda x, y: 1.0, "failed to decrease"),
])
def test_witness_family_raises_when_a_certificate_fails(name, stand_in, message, monkeypatch):
    point = endpoint_of(fexp_seq(10))
    # a witness height is read in strata and, by the endpoint test, in model
    for module in (strata, model) if name == "endpoint_height_enclosure" else (strata,):
        monkeypatch.setattr(module, name, stand_in(getattr(module, name)))
    # an unknown answer leaves the claim undecided; a height above the base's or a
    # distance that does not fall certainly refutes it, which no budget mends
    refuted = name in ("endpoint_height_enclosure", "point_distance")
    with pytest.raises(WitnessRefutedError if refuted else BudgetExceededError, match=message):
        witness_family(point, AlphaIndex((0,)), 1, 3)


# each certificate of witness_family, its own or parent membership's, answering a certain no
# on the witnesses only
@pytest.mark.parametrize("name, stand_in, message", [
    ("potential", lambda real: _only_for_witnesses(real, Interval.point(1e9)),
     "claim-two bound refuted at m=3"),
    ("_threshold_holds_from", lambda real: _only_for_witnesses(real, TriBool.no()),
     "parent-stratum membership refuted at m=3"),
    ("in_stratum", lambda real: _only_for_witness_points(real, TriBool.no()),
     "parent-stratum membership refuted at m=3"),
])
def test_witness_family_refutes_a_claim_that_certainly_fails(name, stand_in, message,
                                                             monkeypatch):
    point = endpoint_of(fexp_seq(10))
    monkeypatch.setattr(strata, name, stand_in(getattr(strata, name)))
    with pytest.raises(WitnessRefutedError, match=message) as caught:
        witness_family(point, AlphaIndex((0,)), 1, 3)
    assert not isinstance(caught.value, BudgetExceededError)


def test_a_witness_height_certainly_above_the_base_height_is_refuted(monkeypatch):
    # however small the excess: a witness height tol / 2 above the base's is refuted; parent
    # membership still holds, as the endpoint test reads the witness's own height in model
    point = endpoint_of(fexp_seq(10))
    base = endpoint_height_enclosure(point.seq)
    lifted = Interval(base.hi + DEFAULT_TOL / 2, base.hi + DEFAULT_TOL / 2 + base.width)
    assert lifted.lo > base.hi and lifted.width <= DEFAULT_TOL
    real = strata.endpoint_height_enclosure
    monkeypatch.setattr(strata, "endpoint_height_enclosure",
                        lambda seq, *args: lifted if seq.prefix else real(seq, *args))
    with pytest.raises(WitnessRefutedError, match="witness height exceeds the base height"):
        witness_family(point, AlphaIndex((0,)), 1, 3)


def test_a_witness_height_wider_than_tol_is_no_certified_parent_member(monkeypatch):
    # parent membership is asked at the caller's tol, so a witness height
    # enclosure 2e-6 wide (> DEFAULT_TOL) leaves it unknown; it was asked at
    # max(tol, 4 * width + 1e-15), which let any width through
    def widened(real):
        def enclosure(seq, *args):
            enc = real(seq, *args)
            return Interval(enc.lo - 1e-6, enc.hi + 1e-6) if seq.prefix else enc
        return enclosure
    point = endpoint_of(fexp_seq(10))
    for module in (strata, model):
        monkeypatch.setattr(module, "endpoint_height_enclosure",
                            widened(module.endpoint_height_enclosure))
    with pytest.raises(BudgetExceededError, match="parent-stratum membership not certified"):
        witness_family(point, AlphaIndex((0,)), 1, 3)
