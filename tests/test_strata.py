"""Stratum membership, extension search, and the thinning-witness pipeline."""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expbouquet import (
    AlphaIndex,
    IncomparableTailsError,
    ModelPoint,
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
    witness_cut_index,
    witness_family,
    witness_sequence,
)
from expbouquet import model, strata
from expbouquet.intervals import Interval, growth_net
from expbouquet.sequences import (
    ExpTowerTail,
    FloorPow,
    IntEntry,
    LinExpTail,
    _entry_abs_vs_tower,
    _ramp_below_cap_from,
    _tower_entry,
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


def test_one_query_nests_each_sequence_once(monkeypatch):
    # a strata --extend query: the CLI's height, then membership and extension
    descends, pot0 = [], []
    real_descend, real_potential = model._descend, model.potential

    def counting_descend(*args):
        descends.append(args)
        return real_descend(*args)

    def counting_potential(seq, shift=0):
        if shift == 0:
            pot0.append(seq)
        return real_potential(seq, shift)

    monkeypatch.setattr(model, "_descend", counting_descend)
    monkeypatch.setattr(model, "potential", counting_potential)
    monkeypatch.setattr(strata, "potential", counting_potential)
    seq = fexp_seq(3)
    point = ModelPoint(max(endpoint_height_enclosure(seq).mid, 0.0), seq)
    assert in_stratum(AlphaIndex((0,)), point).is_true
    assert extension_index(AlphaIndex((0,)), point, 0) >= 1
    assert len(descends) == 1
    assert sum(s is seq for s in pot0) == 1


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


# -- witness construction ---------------------------------------------------------------


def test_witness_depth_is_one_for_big_towers():
    assert least_witness_depth(fexp_seq(10), 0, 5.0) == 1
    assert least_witness_depth(fexp_seq(10), 3, 5.0) == 1


def test_cut_index_matches_the_max_formula():
    base = fexp_seq(10)
    # all depths are 1, so m = max(n + 1 : n in [0, 3]) = 4
    assert witness_cut_index(base, AlphaIndex((0,)), 0, 3) == 4
    # degenerate single-depth case: the empty below-window maximum reads as 0
    assert witness_cut_index(base, AlphaIndex((0,)), 0, 0) == 1
    assert witness_cut_index(base, AlphaIndex((0,)), 2, 3) == 4


def test_cut_index_enforces_span_floor():
    base = fexp_seq(10)
    with pytest.raises(ValueError):
        witness_cut_index(base, AlphaIndex((0,)), 3, 2)


def test_cut_index_fails_on_non_member():
    from expbouquet import BudgetExceededError

    # a bounded address can never witness terms above the child threshold
    with pytest.raises(BudgetExceededError):
        witness_cut_index(const_seq(1), AlphaIndex((0,)), 0, 1, budget=64)


def test_witness_structure_over_tower_base():
    base = fexp_seq(10)
    w = witness_sequence(base, AlphaIndex((0,)), 2)
    # first three entries copied from the base, tower cap beyond
    assert w.entry(0) == IntEntry(22025)
    assert w.entry(1) == FloorPow(10, 2)
    assert w.entry(2) == FloorPow(10, 3)
    assert isinstance(w.tail, ExpTowerTail)
    assert w.tail.c == 3 and w.tail.anchor == 2
    assert w.value_at(3) == 19  # floor(F(3))


def test_witness_keeps_small_entries():
    # a zero in the base past the cut survives the min
    base = fexp_seq(10, (5, 0))
    w = witness_sequence(base, AlphaIndex((0,)), 0)
    assert w.value_at(1) == 0


def test_witness_requires_diverging_tail_and_depth():
    with pytest.raises(IncomparableTailsError):
        witness_sequence(const_seq(1), AlphaIndex((0,)), 2)
    with pytest.raises(ValueError):
        witness_sequence(fexp_seq(10), AlphaIndex(()), 2)


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
    assert w.value_at(3) == 19
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


# -- directed rounding in the thinning comparisons ------------------------------


class _Symbolic:
    """A symbolic entry with a chosen enclosure of its absolute value."""

    def __init__(self, iv: Interval):
        self.iv = iv

    def abs_interval(self):
        return self.iv


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
    assert _entry_abs_vs_tower(_Symbolic(near), cap) == "unknown"
    # and the mirror case for the cap
    assert _entry_abs_vs_tower(_Symbolic(far), cap) == "unknown"


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
    _assert_certified(_entry_abs_vs_tower(_Symbolic(a), cap), a, cap)


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
