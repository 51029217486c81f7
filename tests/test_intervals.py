"""Directed-rounding soundness of the interval layer."""

import copy
import math
import pickle
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expbouquet.intervals import (
    HUGE,
    Interval,
    RigorError,
    expm1_down,
    expm1_up,
    growth_inv_pow,
    growth_net,
    growth_pow,
    growth_sub,
    ln1p_sum,
    log1p_down,
    log1p_up,
    round_down,
    round_up,
    sum_down,
    sum_up,
)
from expbouquet import (AlphaIndex, Classification, ExpTowerTail, LinExpTail, ModelPoint,
                        PeriodicTail, RunConfig, TriBool, Verdict, WitnessReport, fexp_seq)
from expbouquet.intervals import Frozen, _int_tower
from expbouquet.model import _descend
from expbouquet.sequences import CeilExp, ConstTail, FloorPow, IntEntry, SymbolSeq, _TowerRel

finite_floats = st.floats(min_value=-1e300, max_value=1e300,
                          allow_nan=False, allow_infinity=False)


@given(finite_floats, finite_floats)
@settings(max_examples=300)
def test_directed_sums_bracket_exact_value(a, b):
    exact = Fraction(a) + Fraction(b)
    assert Fraction(sum_down(a, b)) <= exact <= Fraction(sum_up(a, b))


@given(finite_floats, finite_floats)
@settings(max_examples=300)
def test_directed_sums_are_tight(a, b):
    # at most one ulp apart, and exact sums stay degenerate
    lo, hi = sum_down(a, b), sum_up(a, b)
    assert lo <= hi
    if Fraction(a) + Fraction(b) == Fraction(a + b):
        assert lo == hi == a + b


def test_exact_zero_arithmetic_stays_degenerate():
    z = Interval.point(0.0)
    assert (z + z).width == 0.0
    assert (z.growth() - z).width == 0.0
    assert z.ln1p() == Interval.point(0.0)


@given(st.floats(min_value=0.0, max_value=700.0, allow_nan=False))
@settings(max_examples=200)
def test_growth_round_trip_encloses_argument(t):
    iv = Interval.point(t).growth().ln1p()
    assert iv.lo <= t <= iv.hi
    assert iv.width < 1e-12 * max(1.0, t)


def test_growth_saturation():
    iv = Interval.point(800.0).growth()
    assert iv.lo == HUGE
    assert iv.hi == math.inf and iv.hi_open
    # saturated lower bounds stay sound under further growth
    assert growth_pow(3, 10).lo >= HUGE


def test_growth_net_negative_exponent():
    iv = growth_net(20.0, -3)
    v = 20.0
    for _ in range(3):
        v = math.log1p(v)
    assert iv.lo <= v <= iv.hi


def test_interval_validation():
    with pytest.raises(RigorError):
        Interval(2.0, 1.0)
    with pytest.raises(RigorError):
        Interval(1.0, 1.0, lo_open=True)
    with pytest.raises(RigorError):
        Interval(math.nan, 1.0)


@pytest.mark.parametrize("v", [0.0, -0.0, 1.0, -2.5, 5e-324, HUGE, math.inf, -math.inf])
def test_a_closed_point_is_accepted_and_an_open_one_refused(v):
    # a closed point passes before the NaN and empty checks, which it cannot fail
    assert Interval(v, v).bounds() == (v, v, False, False)
    for flags in ((True, False), (False, True), (True, True)):
        with pytest.raises(RigorError, match="empty interval"):
            Interval(v, v, *flags)
    for lo, hi in ((math.nan, math.nan), (math.nan, v), (v, math.nan)):
        with pytest.raises(RigorError, match="NaN"):
            Interval(lo, hi)


def test_threshold_decisions_respect_openness():
    win = Interval(2.0, 3.0, lo_open=True, hi_open=False)
    assert win.certainly_gt(2.0)
    assert not win.certainly_gt(2.5)
    assert win.certainly_le(3.0)
    assert win.tri_gt(2.5).is_unknown
    assert win.tri_gt(3.0).is_false


def test_sup_hull_prefers_strict_lower_bounds():
    sup = Interval.sup_hull([Interval(1.0, 2.0), Interval(1.0, 3.0, lo_open=True)])
    assert sup.lo == 1.0 and sup.lo_open
    assert sup.hi == 3.0 and not sup.hi_open


def test_intersect_and_empty_detection():
    a = Interval(0.0, 2.0)
    b = Interval(1.0, 3.0)
    assert a.intersect(b) == Interval(1.0, 2.0)
    with pytest.raises(RigorError):
        Interval(0.0, 1.0).intersect(Interval(2.0, 3.0))


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
@settings(max_examples=100)
def test_inverse_growth_chain_encloses_oracle(c, k):
    from conftest import mp_growth_inv

    iv = growth_inv_pow(c, k)
    v = float(mp_growth_inv(c, k))
    assert iv.lo - 1e-15 <= v <= iv.hi + 1e-15


def test_fraction_interval_brackets_value():
    fr = Fraction(1, 10)
    iv = Interval.from_fraction(fr)
    assert Fraction(iv.lo) <= fr <= Fraction(iv.hi)
    assert iv.width <= 2 * math.ulp(0.1)


def _from_fraction_by_comparison(fr: Fraction) -> Interval:
    """Reference enclosure: place the nearest double by Fraction comparisons."""
    f = float(fr)
    lo = f if Fraction(f) <= fr else round_down(f)
    hi = f if Fraction(f) >= fr else round_up(f)
    return Interval(lo, hi)


def _midpoint_above(f: float) -> Fraction:
    """The exact tie between f and the next double up."""
    return (Fraction(f) + Fraction(math.nextafter(f, math.inf))) / 2


huge_ints = st.integers(min_value=1, max_value=10**400)
fractions_in_double_range = st.one_of(
    # huge numerators and denominators
    st.builds(Fraction, st.integers(-10**400, 10**400), huge_ints).filter(
        lambda fr: abs(fr) < 2**1023),
    # exact doubles, ties between neighbours, and values one 2^-1100 off a tie
    st.builds(Fraction, finite_floats),
    st.builds(_midpoint_above, finite_floats),
    st.builds(lambda f, s: _midpoint_above(f) + s * Fraction(1, 2**1100),
              finite_floats, st.sampled_from([-1, 1])),
    # ramp arguments k/q, as the linexp tails produce them
    st.builds(Fraction, st.integers(0, 10**6), st.integers(1, 10**4)),
)


@given(fractions_in_double_range)
@settings(max_examples=600)
def test_from_fraction_matches_the_comparison_reference(fr):
    iv = Interval.from_fraction(fr)
    ref = _from_fraction_by_comparison(fr)
    assert iv == ref and repr(iv) == repr(ref)
    assert Fraction(iv.lo) <= fr <= Fraction(iv.hi)


def _assert_tightest(iv: Interval, fr: Fraction):
    """iv holds fr, closed, and is a point or two neighbouring doubles with fr strictly between."""
    assert not iv.lo_open and not iv.hi_open
    assert Fraction(iv.lo) <= fr <= Fraction(iv.hi)
    if iv.lo != iv.hi:
        assert math.nextafter(iv.lo, math.inf) == iv.hi
        assert Fraction(iv.lo) < fr < Fraction(iv.hi)


# (num, den) with den > 0, reduced or not: the rate and argument pairs of the ramps, each
# pair scaled by a common factor, huge numerators, and exact doubles written over 2^k
RATIO_PAIRS = ([(k * g, q * g) for q in (1, 3, 7, 10, 107, 10000) for k in (0, 1, 2, 81 * q + 1)
                for g in (1, 2, 6, 10**20)]
               + [(s * (10**300 + j), 10**k) for s in (1, -1) for j in (0, 1, 7)
                  for k in (0, 1, 17, 300)]
               + [(p * 2**e, q * 2**e) for f in (0.1, -0.5, 1e-300, 5e-324, 1.7976931348623157e308,
                                                 2.0**53 + 2, 80.0, 700.0)
                  for p, q in [f.as_integer_ratio()] for e in (0, 3, 64)])


@pytest.mark.parametrize("num, den", RATIO_PAIRS)
def test_from_ratio_is_from_fraction_and_the_tightest_enclosure(num, den):
    fr = Fraction(num, den)
    iv, ref = Interval.from_ratio(num, den), Interval.from_fraction(fr)
    assert iv == ref and (iv.lo.hex(), iv.hi.hex()) == (ref.lo.hex(), ref.hi.hex())
    _assert_tightest(iv, fr)


@given(st.integers(-10**400, 10**400), huge_ints, st.integers(1, 10**6))
@settings(max_examples=300)
def test_from_ratio_of_a_scaled_pair_is_that_of_the_reduced_one(num, den, g):
    fr = Fraction(num, den)
    try:
        float(fr)
    except OverflowError:  # beyond the double range, as float() of the Fraction
        with pytest.raises(OverflowError):
            Interval.from_ratio(num * g, den * g)
        return
    iv = Interval.from_ratio(num * g, den * g)
    assert iv.bounds() == Interval.from_ratio(fr.numerator, fr.denominator).bounds()
    _assert_tightest(iv, fr)


def _full_growth_loop(iv: Interval, n: int) -> Interval:
    for _ in range(n):
        iv = iv.growth()
    return iv


def _reference_net(base: int, e: int) -> Interval:
    """Uncached F^e(base) by the plain step loop, no saturation stop."""
    iv = Interval.point(float(base))
    if e >= 0:
        return _full_growth_loop(iv, e)
    for _ in range(-e):
        iv = iv.ln1p()
    return iv


@pytest.mark.parametrize("base", [*range(1, 13), 700])
def test_memoised_tower_equals_reference_loop(base):
    for e in range(-8, 41):
        got, want = growth_net(base, e), _reference_net(base, e)
        # == compares both endpoints and both open flags; repr tells -0.0 from 0.0
        assert got == want and repr(got) == repr(want), (base, e)
        assert growth_net(base, e) is got  # served from the cache the second time


def test_tower_cache_is_bounded_and_keyed_by_int_bases_only():
    assert _int_tower.cache_info().maxsize is not None
    growth_net(1, 2)
    before = _int_tower.cache_info()
    # True == 1 as a dict key, so a bool must not even look the cache up
    for x in (True, 1.0, 3.0, Interval.point(3.0)):
        start = x if isinstance(x, Interval) else Interval.point(float(x))
        assert growth_net(x, 2) == _full_growth_loop(start, 2)
    assert _int_tower.cache_info() == before


@pytest.mark.parametrize("iv", [
    Interval(HUGE, math.inf, False, True),
    Interval(HUGE, math.inf, True, True),
    Interval.point(0.0),
    Interval.point(-0.0),
    Interval(-0.0, 0.0),
    Interval.point(3.0),
    Interval(1.0, 2.0, True, False),
    Interval(-1e9, 0.0),
    Interval(-0.5, 0.25, False, True),
    Interval(700.0, 710.0),
    Interval(5.0, math.inf, False, True),
    Interval(0.0, 1.0),  # lower endpoint fixed, upper one still moving
    Interval(HUGE, 1.7e308),
    Interval(-2.0, math.inf, False, True),  # upper endpoint fixed, lower one moving
])
def test_growth_pow_saturation_stop_matches_full_loop(iv):
    for n in (0, 1, 2, 3, 7, 40):
        got, want = growth_pow(iv, n), _full_growth_loop(iv, n)
        assert got == want and repr(got) == repr(want), (iv, n)


def test_growth_pow_stops_at_the_fixed_point():
    # a million-fold tower is saturated after a handful of steps
    iv = growth_pow(3, 10**6)
    assert iv == Interval(HUGE, math.inf, False, True)


def test_from_int_encloses_integers_beyond_double_precision():
    for v in (0, 7, 2**53, 2**53 + 1, -(2**53 + 1), 3**100, 10**300, -(10**300)):
        iv = Interval.from_int(v)
        assert Fraction(iv.lo) <= v <= Fraction(iv.hi), v
        assert (iv.width == 0.0) == (float(v) == v)
    big = 2**1024 - 2**971 + 1  # one above the largest double, rounds down to it
    iv = Interval.from_int(big)
    assert iv.lo < big and iv.hi == math.inf and iv.hi_open


# -- the lean core: float loops and operations against the checked constructor


def _ref(lo, hi, lo_open, hi_open) -> Interval:
    """The checked constructor, applied after every step (the float loops wrap only their result)."""
    return Interval(lo, hi, lo_open, hi_open)


def _ref_add(a, b):
    return _ref(sum_down(a.lo, b.lo), sum_up(a.hi, b.hi), a.lo_open or b.lo_open,
                a.hi_open or b.hi_open)


def _ref_sub(a, b):
    return _ref(sum_down(a.lo, -b.hi), sum_up(a.hi, -b.lo), a.lo_open or b.hi_open,
                a.hi_open or b.lo_open)


def _ref_ln1p(a):
    if a.lo <= -1.0:
        raise RigorError("domain")
    return _ref(log1p_down(a.lo), log1p_up(a.hi), a.lo_open, a.hi_open)


def _ref_growth(a):
    hi = expm1_up(a.hi)
    return _ref(expm1_down(a.lo), hi, a.lo_open, a.hi_open or (hi == math.inf and a.hi != math.inf))


def _ref_sup_hull(terms):
    lo, lo_open = -math.inf, False
    for t in terms:
        if t.lo > lo or (t.lo == lo and t.lo_open):
            lo, lo_open = t.lo, t.lo_open
    hi = max(t.hi for t in terms)
    return _ref(lo, hi, lo_open, all(t.hi_open for t in terms if t.hi == hi))


def _ref_loop(step, iv, n):
    for _ in range(n):
        iv = step(iv)
    return iv


def _bits(iv: Interval):
    return struct.pack("<dd", iv.lo, iv.hi), iv.lo_open, iv.hi_open


def _same_as_reference(got, want):
    """Both raise RigorError, or both give the same bits and flags, accepted by the constructor."""
    try:
        ref = want()
    except RigorError:
        with pytest.raises(RigorError):
            got()
        return
    res = got()
    assert type(res) is Interval
    assert _bits(res) == _bits(ref), (res, ref)
    assert _bits(Interval(*res.bounds())) == _bits(res)


ENDPOINTS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, HUGE, 1.7e308, -1.7e308, 709.0, 710.0,
                     -1.0, math.nextafter(-1.0, 0.0), -0.5, 1.0, 5e-324, -5e-324]),
    st.floats(allow_nan=False),
    st.floats(-1.0, -0.9),  # lo near -1: ln1p's domain edge, and below it after a step
    st.floats(-50.0, 750.0),
)


@st.composite
def valid_intervals(draw):
    if draw(st.integers(0, 9)) == 0:
        return Interval(HUGE, math.inf, draw(st.booleans()), True)  # the saturated state
    lo, hi = sorted((draw(ENDPOINTS), draw(ENDPOINTS)))
    lo_open, hi_open = draw(st.booleans()), draw(st.booleans())
    if lo == hi:
        lo_open = hi_open = False
    return Interval(lo, hi, lo_open, hi_open)


@given(valid_intervals(), valid_intervals(), st.lists(valid_intervals(), min_size=1, max_size=4),
       st.integers(0, 6))
# both sums overflow to +inf under an open flag: only the checked constructor refuses it
@example(Interval(1.7e308, 1.7e308), Interval(1.7e308, math.inf, False, True),
         [Interval(-0.0, 0.0)], 3)
@example(Interval.point(1.0), Interval.point(-0.0), [Interval(HUGE, math.inf, True, True)], 6)
@settings(max_examples=600)
def test_fast_results_match_the_checked_reference(a, b, terms, n):
    _same_as_reference(lambda: a + b, lambda: _ref_add(a, b))
    _same_as_reference(lambda: a - b, lambda: _ref_sub(a, b))
    _same_as_reference(a.ln1p, lambda: _ref_ln1p(a))
    _same_as_reference(a.growth, lambda: _ref_growth(a))
    _same_as_reference(lambda: Interval.sup_hull(terms), lambda: _ref_sup_hull(terms))
    _same_as_reference(lambda: growth_pow(a, n), lambda: _ref_loop(_ref_growth, a, n))
    _same_as_reference(lambda: growth_inv_pow(a, n), lambda: _ref_loop(_ref_ln1p, a, n))
    # classify's orbit step and one backward-nesting step of _descend
    _same_as_reference(lambda: growth_sub(a, b), lambda: _ref_sub(_ref_growth(a), b))
    _same_as_reference(lambda: Interval(*ln1p_sum(a, b.bounds())),
                       lambda: _ref_ln1p(_ref_add(a, b)))


@given(st.lists(st.integers(-10**20, 10**20), min_size=1, max_size=12), valid_intervals())
@settings(max_examples=300)
def test_float_nesting_matches_the_interval_steps(values, w):
    # model._descend runs integer entries on endpoint floats; the reference
    # takes every step through Intervals built by the checked constructor
    seq = SymbolSeq(tuple(IntEntry(v) for v in values), ConstTail(0))

    def reference():
        iv = w
        for j in range(len(values), 0, -1):
            iv = _ref_ln1p(_ref_add(Interval.from_int(abs(seq.entry(j).value)), iv))
        return iv

    _same_as_reference(lambda: _descend(seq, len(values), w), reference)


def test_intervals_refuse_attribute_writes():
    iv = Interval(1.0, 2.0)
    for name in ("lo", "hi", "lo_open", "hi_open", "other"):
        with pytest.raises(AttributeError):
            setattr(iv, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(iv, name)
    assert iv.bounds() == (1.0, 2.0, False, False)


def _values() -> list[Frozen]:
    """One instance of each value class, a subclass's own fields given as it names them."""
    iv, seq = Interval(1.0, 2.0), fexp_seq(3, (1, 2))
    return [TriBool(None, iv), ModelPoint(1.5, seq), Classification(Verdict.UNKNOWN, 3, iv),
            _TowerRel(3, 4, iv), IntEntry(-5), FloorPow(3, 4), CeilExp(801, 2), ConstTail(3),
            PeriodicTail((1, 2)), ExpTowerTail(3, 2), LinExpTail(1, 4, 2), seq,
            AlphaIndex((0, 2)), WitnessReport(3, seq, iv, iv, 0.25, iv, 8), RunConfig(1e-6, 7, 2),
            iv]


def test_value_classes_compare_hash_print_and_copy_by_their_fields():
    values = _values()
    # every value class of the package, the abstract bounded tail aside
    assert sorted(type(v).__name__ for v in values) == sorted(
        c.__name__ for c in _subclasses(Frozen)
        if c.__module__.startswith("expbouquet.") and c.__name__ != "_BoundedTail")
    for v in values:
        cls, args = type(v), tuple(getattr(v, name) for name in type(v)._fields)
        twin = cls(*args)
        assert twin == v and not twin != v and hash(twin) == hash(v) and repr(twin) == repr(v)
        if cls not in (SymbolSeq, Interval):  # which print a descriptor and a bracket form
            fields = ", ".join(f"{name}={a!r}" for name, a in zip(cls._fields, args))
            assert repr(v) == f"{cls.__name__}({fields})"
        for copied in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert type(copied) is cls and copied == v
        # one class only: a constant tail and an integer entry of one value differ
        assert (v == ConstTail(3)) == (cls is ConstTail) and v != args
        assert not hasattr(v, "__dict__")
        for name in (*cls.__slots__, *cls._fields, "other"):
            with pytest.raises(AttributeError):
                setattr(v, name, None)
            with pytest.raises(AttributeError):
                delattr(v, name)
    assert IntEntry(3) != ConstTail(3) and hash(IntEntry(3)) == hash(ConstTail(3))
    assert repr(values[0]) == "TriBool(value=None, evidence=[1, 2])"
    assert repr(ExpTowerTail(3)) == "ExpTowerTail(c=3, anchor=None)"


def _subclasses(cls) -> list[type]:
    return [c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))]


@given(valid_intervals(), valid_intervals())
@settings(max_examples=200)
def test_eq_hash_and_repr_follow_the_field_tuple(a, b):
    assert (a == b) == (a.bounds() == b.bounds())
    assert (a != b) == (a.bounds() != b.bounds())
    assert hash(a) == hash(a.bounds())
    lb, rb = "(" if a.lo_open else "[", ")" if a.hi_open else "]"
    assert repr(a) == f"{lb}{a.lo:.17g}, {a.hi:.17g}{rb}"
    assert a != a.bounds() and a == Interval(*a.bounds())
    for copied in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert _bits(copied) == _bits(a)


def test_threshold_decisions_answer_all_three_ways():
    iv = Interval(1.0, 2.0)
    assert iv.tri_gt(0.5).is_true and iv.tri_gt(2.0).is_false
    assert iv.tri_gt(1.5).is_unknown and iv.tri_gt(1.5).evidence == iv


def test_sup_hull_of_no_terms_raises():
    with pytest.raises(ValueError, match="no terms"):
        Interval.sup_hull([])


def test_expm1_down_never_reaches_an_overflow():
    # the guard comes first: e^709 is below 8.3e307, and a NaN does not raise
    assert expm1_down(709.0) == round_down(math.expm1(709.0)) < 8.3e307
    assert expm1_down(math.nextafter(709.0, math.inf)) == HUGE
    assert math.isnan(expm1_down(math.nan))
