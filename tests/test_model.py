"""Model operations against independent oracles and the stated invariants."""

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_encloses, clear_rule_memos, mp_growth, mp_growth_inv
from expbouquet import (
    Classification,
    DescriptorError,
    ModelPoint,
    NonConvergenceError,
    Verdict,
    classify,
    const_seq,
    endpoint_height,
    endpoint_height_enclosure,
    endpoint_lower_bound,
    fexp_seq,
    is_escaping_endpoint_address,
    linexp_seq,
    periodic_seq,
    potential,
    potential_term,
)
from expbouquet.intervals import (
    PIN_ARG,
    Interval,
    TriBool,
    growth_inv_pow,
    growth_net,
    growth_sub,
    round_up,
    sum_down,
    sum_up,
)
from expbouquet import intervals, model, sequences, strata
from expbouquet.model import _bounded_tail_escape_threshold, _potential_terms
from expbouquet.sequences import (
    Asymptotics,
    ConstTail,
    ExpTowerTail,
    LinExpTail,
    PeriodicTail,
    SymbolSeq,
)
from expbouquet.verify import dominated_pair, random_sequence

POOLS = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
with mp.workdps(80):
    LN2, LN6, LN20 = mp.log(2), mp.log(6), mp.log(20)


# -- growth map -------------------------------------------------------------


def test_growth_values():
    assert Interval.point(0.0).growth() == Interval.point(0.0)
    for t in (math.log(2.0), 3.0):
        iv = Interval.point(t).growth()
        assert_encloses(iv, mp_growth(t))
        assert iv.width < 1e-13
    assert_encloses(Interval.point(3.0).growth(), mp_growth(3))


def test_growth_inverse_values():
    assert growth_inv_pow(0.0, 1) == Interval.point(0.0)
    assert_encloses(growth_inv_pow(1.0, 1), LN2)
    # F^-3(1) = 0.42303585716440204...
    assert_encloses(growth_inv_pow(1.0, 3), mp_growth_inv(1, 3))


@given(st.integers(min_value=1, max_value=20),
       st.floats(min_value=1.0, max_value=100.0, allow_nan=False))
@settings(max_examples=200)
def test_growth_inverse_strict_inequalities(k, t):
    # certified from the interval bounds: F^-k(t) > F^-(k+1)(t) and
    # F^-k(t - 1) > F^-k(t) - 1
    a = growth_inv_pow(t, k)
    assert a.lo > a.ln1p().hi
    assert growth_inv_pow(t - 1.0, k).lo > sum_up(a.hi, -1.0)


# -- potential terms ----------------------------------------------------------


def test_potential_term_const():
    seq = const_seq(1)
    assert_encloses(potential_term(seq, 3, 3), mp_growth_inv(1, 3))


def test_potential_term_materialized_tower():
    seq = fexp_seq(3, (0,))
    term = potential_term(seq, 1, 1)
    assert_encloses(term, LN20)
    assert term.width < 1e-12


def test_potential_term_deep_tower_window():
    # F^4(3) overflows doubles; the term must sit inside (F^0(3) - 1, F^0(3)] = (2, 3]
    term = potential_term(fexp_seq(3, (0,)), 4, 4)
    assert term.lo >= 2.0 - 1e-12 and term.lo_open
    assert term.hi <= 3.0


def test_potential_term_validates():
    with pytest.raises(ValueError):
        potential_term(const_seq(1), 0, 1)
    with pytest.raises(ValueError):
        potential_term(const_seq(1), 1, 0)


# -- potentials ---------------------------------------------------------------


def test_potential_const_anchors():
    zero = potential(const_seq(0), 0)
    assert zero.lo == zero.hi == 0.0
    win = potential(const_seq(1), 0)
    assert_encloses(win, LN2)
    assert win.width < 1e-12


def test_potential_tower():
    win = potential(fexp_seq(3, (0,)), 0)
    assert 2.995 <= win.lo <= win.hi <= 3.0


def test_potential_brute_force_sup():
    # brute-force oracle: max of many explicit terms never exceeds the enclosure
    rng = random.Random(7)
    for _ in range(25):
        seq = random_sequence(rng)
        shift = rng.randint(0, 3)
        win = potential(seq, shift)
        brute = 0.0
        for k in range(1, 40):
            term = potential_term(seq, shift + k, k)
            if term.hi != math.inf:
                brute = max(brute, term.lo)
        assert brute <= win.hi + 1e-9
        assert win.lo <= (brute + 1.0) + 1e-9 or win.hi == math.inf


def test_shift_identity_interval_equality():
    rng = random.Random(3)
    for _ in range(30):
        seq = random_sequence(rng)
        n = rng.randint(0, 4)
        a = potential(seq, n)
        b = potential(seq.shift(n), 0)
        if a.is_finite and b.is_finite:
            assert abs(a.lo - b.lo) < 1e-9 and abs(a.hi - b.hi) < 1e-9
        else:
            assert a.is_finite == b.is_finite


# -- endpoint heights ---------------------------------------------------------


def test_endpoint_height_all_zero():
    enc = endpoint_height(const_seq(0))
    assert enc.lo == enc.hi == 0.0


def test_endpoint_height_const1_oracle(const1_height_oracle):
    enc = endpoint_height(const_seq(1))
    # a float bisection's root, rounded in every step: the one oracle with a slack
    assert_encloses(enc, const1_height_oracle, slack=1e-12)
    assert enc.width < 1e-9
    assert abs(const1_height_oracle - 1.146193) < 1e-6


def test_endpoint_height_prefix_override():
    # only binding constraint is the jump by 5 at index 1: height is ln 6
    enc = endpoint_height(const_seq(0, (0, 5)))
    assert_encloses(enc, LN6)
    # orbit check: F(ln 6) - 5 = 0, then fixed at 0
    assert abs(math.expm1(enc.mid) - 5.0) < 1e-9


def test_endpoint_height_tower_oracle():
    # assumption-free oracle: nest exact floors down from level three, seeding
    # with the sandwich bracket (F^3(2) - 1, F^3(2) + 1] for the shifted
    # height; the bracket collapses to ~1e-263 because the entries are huge
    with mp.workdps(700):
        one = mp.mpf(1)
        f = lambda t: mp.e ** t - 1
        f3 = f(f(f(mp.mpf(2))))
        s1, s2, s3 = mp.floor(f(mp.mpf(2))), mp.floor(f(f(mp.mpf(2)))), mp.floor(f3)

        def nest(seed):
            return mp.log(one + s1 + mp.log(one + s2 + mp.log(one + s3 + seed)))

        lo, hi = nest(f3 - 1), nest(f3 + 1)
        assert hi - lo < mp.mpf("1e-250")
    enc = endpoint_height(fexp_seq(2, (0,)))
    assert enc.lo - 1e-12 <= float(lo) and float(hi) <= enc.hi + 1e-12
    assert enc.width < 1e-9


def test_endpoint_height_tower_oracle_base_three():
    # same bracketing one level shallower for the base-3 tower (floors beyond
    # F^2(3) are not materializable even for mpmath at sane precision)
    with mp.workdps(60):
        f = lambda t: mp.e ** t - 1
        f2 = f(f(mp.mpf(3)))
        lo = mp.log(1 + 19 + mp.log(1 + mp.floor(f2) + (f2 - 1)))
        hi = mp.log(1 + 19 + mp.log(1 + mp.floor(f2) + (f2 + 1)))
    enc = endpoint_height(fexp_seq(3, (0,)))
    assert float(lo) - 1e-12 <= enc.mid <= float(hi) + 1e-12
    assert enc.width < 1e-9


def test_endpoint_height_linexp_converges():
    enc = endpoint_height(linexp_seq(1))
    assert enc.width < 1e-9
    pot = potential(linexp_seq(1), 0)
    assert pot.lo - 1e-9 <= enc.lo and enc.hi <= pot.hi + 1.0 + 1e-9


def test_bounded_tails_enclose_integers_beyond_double_precision():
    # 2^53 + 1 rounds to 2^53 as a double; every enclosure of |c| must hold it
    big = 2**53 + 1
    const, periodic = ConstTail(big), PeriodicTail((big, 3))
    for tail in (const, periodic):
        for i, v in enumerate(tail.pattern):
            iv = tail.entry_at(0, i).abs_interval()
            assert Fraction(iv.lo) <= abs(v) <= Fraction(iv.hi)
        assert tail.abs_bound() >= big
    level, height = const.nesting_anchor(0)
    with mp.workdps(60):
        root = mp.findroot(lambda t: mp.e ** t - 1 - big - t, 37)
    assert level == 0
    assert_encloses(height, root)
    assert_encloses(endpoint_height(SymbolSeq((), const)), root)


def test_endpoint_height_unattainable_tolerance():
    with pytest.raises(NonConvergenceError) as exc:
        endpoint_height(const_seq(1), tol=1e-30)
    assert exc.value.enclosure.width > 1e-30
    # the enclosure does not depend on tol: one memoised enclosure serves both
    seq = const_seq(1)
    enc = endpoint_height(seq)
    with pytest.raises(NonConvergenceError) as again:
        endpoint_height(seq, tol=1e-30)
    assert again.value.enclosure == enc == exc.value.enclosure
    assert endpoint_height(seq) == enc


def test_potential_at_a_shift_beyond_double_range_is_a_descriptor_error():
    # the ramp argument at such a shift has no double enclosure
    with pytest.raises(DescriptorError, match="beyond double range"):
        potential(linexp_seq("1/2"), 10**310)


def test_backward_nesting_monotone():
    for seq in (const_seq(1), fexp_seq(3, (0,)), periodic_seq((2, 0)), linexp_seq(1)):
        pot_hi = potential(seq, 0).hi
        prev = -1.0
        for n in range(10):
            u = endpoint_lower_bound(seq, n)
            assert u.mid >= prev - 1e-9
            if math.isfinite(pot_hi):
                assert u.lo <= pot_hi + 1.0 + 1e-9
            prev = u.mid


def test_sandwich_property_seeded():
    rng = random.Random(11)
    for _ in range(60):
        seq = random_sequence(rng)
        pot = potential(seq, 0)
        if not pot.is_finite:
            continue
        enc = endpoint_height_enclosure(seq)
        assert enc.lo >= pot.lo - 1e-6
        assert enc.hi <= pot.hi + 1.0 + 1e-6


def test_domination_property_seeded():
    rng = random.Random(13)
    for _ in range(60):
        small, big = dominated_pair(rng)
        assert endpoint_height_enclosure(small).mid <= endpoint_height_enclosure(big).mid + 1e-6
        assert potential(small, 0).mid <= potential(big, 0).mid + 1e-6


# -- escaping-endpoint test ----------------------------------------------------


def test_escaping_endpoint_examples():
    assert is_escaping_endpoint_address(const_seq(1)).is_false
    assert is_escaping_endpoint_address(fexp_seq(3, (0,))).is_true
    assert is_escaping_endpoint_address(linexp_seq(1)).is_true
    assert is_escaping_endpoint_address(periodic_seq((3, 1))).is_false


# -- classification ----------------------------------------------------------------


def test_classify_fixed_point():
    assert classify(ModelPoint(0.0, const_seq(0)), 10).verdict is Verdict.NON_ESCAPING


def test_classify_below_endpoint():
    result = classify(ModelPoint(math.log(2.0), const_seq(1)), 10)
    assert result.verdict is Verdict.NOT_IN_JULIA
    assert result.first_failing_step == 2


def test_classify_escape():
    assert classify(ModelPoint(2.0, const_seq(0)), 10).verdict is Verdict.ESCAPE_CERTIFIED


def test_classify_asks_for_escape_only_once_the_height_reaches_2():
    # the ramp's escape floor is shift 0, and 1.9 is already above potential + 1 there: the
    # gate lo >= 2 holds the certificate back to step 1, which reports its height as evidence
    seq = SymbolSeq.from_json({"prefix": [0], "tail": {"kind": "linexp", "c": "1/2"}})
    assert classify(ModelPoint(1.9, seq)).to_json() == {
        "verdict": "escape_certified",
        "evidence": {"lo": 4.685894442279268, "hi": 4.685894442279269,
                     "lo_open": False, "hi_open": False}}


def test_classify_endpoint_of_tower_address():
    seq = fexp_seq(3, (0,))
    h = endpoint_height_enclosure(seq)
    assert classify(ModelPoint(h.mid, seq), 10).verdict is Verdict.ENDPOINT


def test_classify_high_above_tower_endpoint_escapes():
    seq = fexp_seq(3, (0,))
    assert classify(ModelPoint(100.0, seq), 10).verdict is Verdict.ESCAPE_CERTIFIED


def test_classify_bounded_hair_above_endpoint_escapes():
    # above the endpoint of a bounded-tail hair the excess grows by a factor
    # e^height per step, so escape certifies quickly
    seq = const_seq(1)
    h = endpoint_height_enclosure(seq)
    result = classify(ModelPoint(h.mid + 0.25, seq), 12)
    assert result.verdict is Verdict.ESCAPE_CERTIFIED


def test_classify_above_tower_endpoint_escapes():
    # above a tower endpoint the first step already clears the shifted
    # potential by a wide margin, so escape certifies before any tower wall
    seq = fexp_seq(3, (0,))
    h = endpoint_height_enclosure(seq)
    result = classify(ModelPoint(h.mid + 0.25, seq), 12)
    assert result.verdict is Verdict.ESCAPE_CERTIFIED


# the full 4096-step scans of these endpoints (verdict and evidence), at the
# default tolerance and at one too tight for the endpoint certificate, and the
# orbit steps they need
SETTLED_ORBITS = [
    (const_seq(1), 1e-9, 60,
     {"verdict": "endpoint", "evidence": {"lo": 1.1461932206205703, "hi": 1.1461932206205945,
                                          "lo_open": False, "hi_open": False}}),
    (const_seq(1), 1e-20, 60,
     {"verdict": "unknown", "evidence": {"lo": -1.8414056604369609, "hi": "inf",
                                         "lo_open": False, "hi_open": True}}),
    (const_seq(5, (2, -3)), 1e-9, 60,
     {"verdict": "endpoint", "evidence": {"lo": 1.806765875302011, "hi": 1.8067658753020117,
                                          "lo_open": False, "hi_open": False}}),
    (const_seq(5, (2, -3)), 1e-20, 60,
     {"verdict": "unknown", "evidence": {"lo": -5.997515080664851, "hi": "inf",
                                         "lo_open": False, "hi_open": True}}),
    # the enclosure settles among the prefix's ones, but the entries change
    # after them, so the scan goes on to the tail
    (const_seq(100, (1,) * 70), 1e-20, 80,
     {"verdict": "unknown", "evidence": {"lo": -101.0, "hi": "inf",
                                         "lo_open": False, "hi_open": True}}),
    # two certify-pool queries (perfbench/reference/certify.json): the orbit
    # enclosure reaches [lo < 0, inf] within a few steps, but a scan that runs
    # on from there takes 2,840 and all 4,096 steps
    (SymbolSeq.from_json({"prefix": [], "tail": {"kind": "linexp", "c": "1/4"}}), 1e-9, 40,
     {"verdict": "endpoint", "evidence": {"lo": 1.1811288661361132, "hi": 1.181128866136114,
                                          "lo_open": False, "hi_open": True}}),
    (SymbolSeq.from_json({"prefix": [13, 18, -18, {"kind": "ceil_exp", "arg": "969/7"}],
                          "tail": {"kind": "periodic", "pattern": [1, -1]}}), 1e-9, 40,
     {"verdict": "endpoint", "evidence": {"lo": 3.180507976493693, "hi": 3.180507976493694,
                                          "lo_open": False, "hi_open": False}}),
    # a cycle of non-point states, one per pattern phase, under the pattern's
    # rotations; the full scan runs all 4096 steps
    (SymbolSeq.from_json({"prefix": [13, 18, -18],
                          "tail": {"kind": "periodic", "pattern": [2, -3, 5]}}), 1e-20, 40,
     {"verdict": "unknown", "evidence": {"lo": -3.9500869637059552, "hi": "inf",
                                         "lo_open": False, "hi_open": True}}),
    # every state from step 25 on is the same [lo, inf) while the shifted
    # sequence alternates between the pattern's two rotations, so it repeats
    # two steps later; the full scan runs all 4096 steps
    (SymbolSeq.from_json({"prefix": [13, 18, -18, {"kind": "ceil_exp", "arg": "969/7"}],
                          "tail": {"kind": "periodic", "pattern": [1, -1]}}), 1e-20, 64,
     {"verdict": "unknown", "evidence": {"lo": -1.8414056604369609, "hi": "inf",
                                         "lo_open": True, "hi_open": True}}),
]


@pytest.mark.counts_work
@pytest.mark.parametrize("seq, tol, max_steps, want", SETTLED_ORBITS)
def test_classify_stops_at_a_settled_orbit_enclosure(seq, tol, max_steps, want, monkeypatch,
                                                      empty_rule_memos):
    # at a bounded-tail endpoint the orbit enclosure settles on a fixed
    # [lo, inf), lo < 0, or on a cycle of them; the rest of the 4096-step scan
    # would repeat it
    steps = []
    step = model.growth_sub
    monkeypatch.setattr(model, "growth_sub", lambda *a: steps.append(1) or step(*a))
    t = endpoint_height_enclosure(seq).mid
    assert classify(ModelPoint(t, seq), 4096, tol).to_json() == want
    assert len(steps) <= max_steps


@pytest.mark.counts_work
def test_classify_above_a_slow_ramp_endpoint_takes_few_potentials(monkeypatch, empty_rule_memos):
    # the escape floor of a rate-1/10000 ramp lies near shift 6,930, so no orbit
    # step within the budget asks for its potential (the full scan makes 131 calls)
    calls = []
    real_potential = model.potential
    monkeypatch.setattr(model, "potential", lambda *a: calls.append(a) or real_potential(*a))
    result = classify(ModelPoint(3.0, linexp_seq("1/10000")), 64)
    assert result.to_json() == {"verdict": "unknown",
                                "evidence": {"lo": 7.999999999999999e+307, "hi": "inf",
                                             "lo_open": False, "hi_open": True}}
    assert len(calls) <= 20


@pytest.mark.counts_work
@pytest.mark.parametrize("prefix", [(), (1, 2)])
def test_classify_builds_a_bounded_tail_escape_threshold_once_per_prefix_position(
        prefix, monkeypatch, empty_rule_memos):
    # the orbit of a const 50 endpoint stays near its fixed point 4.0 > 2 for 9 or 10 steps,
    # each of which asked for the escape threshold; past the prefix it is one value
    asked = []
    real = model._bounded_tail_escape_threshold
    monkeypatch.setattr(model, "_bounded_tail_escape_threshold",
                        lambda seq, n: asked.append(n) or real(seq, n))
    seq = const_seq(50, prefix)
    assert classify(ModelPoint(endpoint_height_enclosure(seq).mid, seq)).verdict is Verdict.ENDPOINT
    assert len(asked) <= len(prefix) + 1


def _diverging_tail_growth_certificate(seq: SymbolSeq, n: int) -> bool:
    """Reference: every shifted potential from n on is at least 0.694, checked upward."""
    n1 = seq.tail.potential_floor(len(seq.prefix), 0.694)
    if n1 is None:
        return False
    for j in range(n, n1):
        if potential(seq, j).lo < 0.694:
            return False
    return True


def _full_scan_classify(x: ModelPoint, budget: int, tol: float):
    """Reference classify without the absorbing-state pause: it scans the orbit to its end."""
    seq = x.seq
    t_iv = Interval.point(x.t)
    seen: dict = {}
    evidence = t_iv
    for n in range(budget + 1):
        if t_iv.certainly_lt(0.0):
            return Classification(Verdict.NOT_IN_JULIA, first_failing_step=n, evidence=t_iv)
        if t_iv.lo == -math.inf and t_iv.hi == math.inf:
            evidence = t_iv
            break
        if t_iv.width == 0.0:
            key = (t_iv.lo, seq.shift(n))
            if key in seen:
                return Classification(Verdict.NON_ESCAPING)
            seen[key] = n
        if t_iv.lo >= 2.0:
            cur = seq.shift(n)
            pot_n = potential(cur, 0)
            if pot_n.hi != math.inf and t_iv.lo > sum_up(pot_n.hi, 1.0):
                if cur.asymptotics is Asymptotics.BOUNDED:
                    if t_iv.lo >= _bounded_tail_escape_threshold(cur, 0):
                        return Classification(Verdict.ESCAPE_CERTIFIED, evidence=t_iv)
                elif _diverging_tail_growth_certificate(cur, 0):
                    return Classification(Verdict.ESCAPE_CERTIFIED, evidence=t_iv)
        evidence = t_iv
        if n < budget:
            step = growth_sub(t_iv, seq.entry(n + 1).abs_interval())
            if step == t_iv and step.width != 0.0 and seq.shift(n + 1) == seq.shift(n):
                evidence = step
                break
            t_iv = step
    if (endpoint := _inline_endpoint_tests(x, tol)).is_true:
        return Classification(Verdict.ENDPOINT, evidence=endpoint.evidence)
    return Classification(Verdict.UNKNOWN, evidence=evidence)


def _outcome(f, *args):
    try:
        return f(*args).to_json()
    except ArithmeticError as e:  # the same honest failure from both, if any
        return type(e).__name__


prefix_entries = st.one_of(
    st.integers(-20, 20),
    st.fixed_dictionaries({"kind": st.just("floor_tower"), "c": st.integers(1, 9),
                           "h": st.integers(1, 5)}),
    st.fixed_dictionaries({"kind": st.just("ceil_exp"),
                           "arg": st.integers(0, 1100).map(lambda k: f"{k}/7")}),
)
tail_rules = st.one_of(
    st.fixed_dictionaries({"kind": st.just("const"), "c": st.integers(-12, 12)}),
    st.fixed_dictionaries({"kind": st.just("periodic"),
                           "pattern": st.lists(st.integers(-9, 9), min_size=1, max_size=5)}),
    st.fixed_dictionaries({"kind": st.just("fexp"), "c": st.integers(1, 10)}),
    st.fixed_dictionaries({"kind": st.just("linexp"), "c": st.sampled_from(
        ["1/4", "1/3", "1/2", "2/3", "1", "3/2", "2", "3"])}),
)


@given(st.fixed_dictionaries({"prefix": st.lists(prefix_entries, max_size=4), "tail": tail_rules}),
       st.floats(0.0, 10.0))
# at the midpoint the enclosure settles after its pause (tol 1e-20), and it
# straddles 0 with a finite upper end before certifying a negative height (tol 1e-9)
@example({"prefix": [], "tail": {"kind": "const", "c": 1}}, 0.0)
@example({"prefix": [-3], "tail": {"kind": "const", "c": 5}}, 0.0)
# the pattern [0, 0] repeats after one step: budget 1 meets the repeat
@example({"prefix": [], "tail": {"kind": "periodic", "pattern": [0, 0]}}, 0.0)
@settings(max_examples=100, deadline=None)
def test_classify_matches_the_full_orbit_scan(descriptor, t_random):
    # heights at and around the endpoint, where orbit enclosures blow up to
    # [lo < 0, inf]; at tol 1e-20 the endpoint certificate fails, so the
    # scan resumes after its pause
    seq = SymbolSeq.from_json(descriptor)
    enc = endpoint_height_enclosure(seq)
    for tol in (1e-9, 1e-20):
        for t in (enc.mid, enc.lo - tol, enc.hi + tol, enc.mid - 1e-7, enc.mid + 1e-7, t_random):
            if not (math.isfinite(t) and t >= 0.0):  # no finite endpoint there
                continue
            point = ModelPoint(t, seq)
            for budget in (0, 1, 7, 64, 4096):
                assert (_outcome(classify, point, budget, tol)
                        == _outcome(_full_scan_classify, point, budget, tol)), (t, tol, budget)


def test_classify_matches_the_full_orbit_scan_on_small_periodic_tails():
    # every pattern of length <= 4 over {0, +-1, 2}, repeated ones such as
    # [0, 0] and [1, -1, 1, -1] included, behind three short prefixes; budgets
    # shorter than the pattern are where a repeat keyed on its length, not its
    # least period, goes unseen
    diffs = []
    for length in range(1, 5):
        for pattern in itertools.product((0, 1, -1, 2), repeat=length):
            for prefix in ([], [1], [0, 2]):
                seq = SymbolSeq.from_json({"prefix": prefix,
                                           "tail": {"kind": "periodic", "pattern": list(pattern)}})
                enc = endpoint_height_enclosure(seq)
                for tol in (1e-9, 1e-20):
                    for t in sorted({enc.mid, enc.lo - tol, enc.hi + tol, 0.0}):
                        if t < 0.0:
                            continue
                        point = ModelPoint(t, seq)
                        for budget in (0, 1, 2, 3, 5, 64):
                            if (_outcome(classify, point, budget, tol)
                                    != _outcome(_full_scan_classify, point, budget, tol)):
                                diffs.append((pattern, prefix, tol, t, budget))
    assert diffs == []


def test_least_period_of_bounded_tails():
    assert [PeriodicTail(p).period for p in [(0, 0), (1, -1, 1, -1), (1, -1), (2, 2, 2), (1, 1, 2)]] \
        == [1, 2, 2, 1, 3]
    assert const_seq(7).tail.period == 1
    # the descriptor keeps the pattern as given
    assert PeriodicTail((0, 0)).to_json() == {"kind": "periodic", "pattern": [0, 0]}


def test_classify_rejects_a_negative_budget():
    point = ModelPoint(1.0, const_seq(1))
    with pytest.raises(ValueError, match=r"budget must be >= 0, got -5"):
        classify(point, budget=-5)
    assert classify(point, budget=0).to_json() == {"verdict": "unknown",
                                                   "evidence": Interval.point(1.0).to_json()}


def test_classify_unknown_when_budget_too_small():
    # an excess too small to certify within the budget stays unknown:
    # sound, not complete
    seq = const_seq(1)
    h = endpoint_height_enclosure(seq)
    result = classify(ModelPoint(h.mid + 1e-7, seq), 10)
    assert result.verdict is Verdict.UNKNOWN
    assert result.evidence is not None


# -- ramp anchors and floors in closed form -------------------------------------

ramp_tails = st.builds(lambda rate, offset: LinExpTail(rate.numerator, rate.denominator, offset),
                       st.builds(Fraction, st.integers(1, 3000), st.integers(1, 300)).filter(
                           lambda r: Fraction(1, 10000) <= r <= 700),
                       st.integers(0, 2000))


def _pin_anchor(tail: LinExpTail, p: int) -> tuple[int, Interval]:
    """Reference: the anchor at the level before the ramp argument reaches PIN_ARG,
    with the same seed formula but a closed upper end."""
    n = max(p, 1, math.ceil(Fraction(PIN_ARG) * tail.den / tail.num) - tail.offset)
    a = Interval.from_fraction(tail.arg(n))
    u_hi = round_up(float(tail.arg(n + 1)) + 2.0)
    corr = round_up((2.0 + u_hi) / (1.0 + growth_net(a.lo, 1).lo))
    return n - 1, Interval(a.lo, round_up(a.hi + corr))


def _pinned_height(descriptor: dict) -> Interval:
    with pytest.MonkeyPatch.context() as mp_ctx:
        mp_ctx.setattr(LinExpTail, "nesting_anchor", _pin_anchor)
        return model._height(SymbolSeq.from_json(descriptor))


# How far apart two sound walks through the same outward-rounded steps may
# end, relative to the value.  Each end of a step is rounded outward by less
# than 3 * 2^-52 of its value (``sum_down``, then one ulp past a faithful
# log1p), so walks whose exact values have met can still stop at different
# doubles.  A relative gap shrinks by h / ((1 + s + h) ln(1 + s + h)) < 0.37
# per tail step (|s| >= 1) and does not grow by more than the rounding per
# prefix step, so with at most 4 prefix entries it stays below
# (3 / 0.63 + 4 * 3) * 2^-52 < 2^-47.
WALK_GAP = 2.0**-47


@given(st.lists(prefix_entries, max_size=4),
       st.builds(Fraction, st.integers(1, 30), st.integers(1, 500)).filter(lambda r: r <= 3),
       st.one_of(st.integers(0, 40), st.integers(0, 3000)))
@settings(max_examples=60, deadline=None)
# the lower ends stop one ulp apart, 1.5168709159336495 against ...498
@example(prefix=[], rate=Fraction(1, 107), offset=115)
def test_ramp_contraction_anchor_matches_the_pin_anchor(prefix, rate, offset):
    _assert_contraction_anchor_matches_the_pin_anchor(prefix, rate, offset)


# slow rates 1/q at offsets 0, q, 1.27q and 115, where the two walks start far apart
@pytest.mark.parametrize("prefix, q, offset", [
    (prefix, q, offset) for prefix in ([], [3]) for q in (10, 40, 107, 150)
    for offset in (0, q, math.floor(1.27 * q), 115)])
def test_ramp_contraction_anchor_matches_the_pin_anchor_on_a_grid(prefix, q, offset):
    _assert_contraction_anchor_matches_the_pin_anchor(prefix, Fraction(1, q), offset)


def _assert_contraction_anchor_matches_the_pin_anchor(prefix, rate, offset):
    tail = {"kind": "linexp", "c": f"{rate.numerator}/{rate.denominator}", "offset": offset}
    descriptor = {"prefix": prefix, "tail": tail}
    seq = SymbolSeq.from_json(descriptor)
    got = model._height(seq)
    want = _pinned_height(descriptor)
    if seq.tail.nesting_anchor(len(prefix))[0] >= max(len(prefix), 1):
        # at least one tail step below the seed: descend is monotone and the
        # contraction seed holds the pin walk's state there, so the contraction
        # walk holds the pin walk, and the two meet up to their roundings
        assert (got.lo_open, got.hi_open) == (want.lo_open, want.hi_open)
        assert got.lo <= want.lo <= got.lo + WALK_GAP * want.lo
        assert want.hi <= got.hi <= want.hi + WALK_GAP * want.hi
    else:
        # the seed is the whole tail walk (arg >= 49 or so at the first tail
        # level): one directed rounding fewer, and an open upper end
        assert _within(got, want)


def _within(a: Interval, b: Interval) -> bool:
    """a is the same enclosure as b or a tighter one, flags included."""
    lo = a.lo > b.lo or (a.lo == b.lo and a.lo_open >= b.lo_open)
    return lo and (a.hi < b.hi or (a.hi == b.hi and a.hi_open >= b.hi_open))


def test_ramp_anchor_seed_is_open_above_the_pin_argument():
    # arg(1) = 101 >= PIN_ARG: the seed at level 0 is the whole walk, and its
    # upper end is open where the pin anchor's was closed
    descriptor = {"prefix": [], "tail": {"kind": "linexp", "c": "1", "offset": 100}}
    assert SymbolSeq.from_json(descriptor).tail.nesting_anchor(0)[0] == 0
    got = endpoint_height(SymbolSeq.from_json(descriptor))
    want = _pinned_height(descriptor)
    assert not want.hi_open and got == Interval(want.lo, want.hi, want.lo_open, True)
    assert got.lo <= 101.0 < got.hi


def _reference_potential(seq: SymbolSeq, shift: int) -> Interval:
    """Reference: every term with all of its inverse steps."""
    p = len(seq.prefix)
    prefix_terms = max(p - shift, 0)
    terms: list[Interval] = []
    k = 0
    while True:
        k += 1
        terms.append(potential_term(seq, shift + k, k))
        if k > prefix_terms:
            closing = seq.tail.closing_terms(p, shift, k)
            if closing is not None:
                return Interval.sup_hull(terms + list(closing))


@given(st.fixed_dictionaries({"prefix": st.lists(prefix_entries, max_size=6), "tail": st.one_of(
           tail_rules,
           st.fixed_dictionaries({"kind": st.just("linexp"), "c": st.sampled_from(
               ["1/2000", "1/300", "1/40", "7/9", "40", "700"]),
               "offset": st.integers(0, 50)}))}),
       st.integers(0, 12))
@settings(max_examples=150, deadline=None)
def test_potential_early_stop_matches_every_step(descriptor, shift):
    seq = SymbolSeq.from_json(descriptor)
    assert potential(seq, shift).bounds() == _reference_potential(seq, shift).bounds()


def _bits(iv: Interval) -> tuple:
    return iv.lo.hex(), iv.hi.hex(), iv.lo_open, iv.hi_open


@given(st.fixed_dictionaries({"prefix": st.lists(prefix_entries, max_size=4), "tail": tail_rules}),
       st.floats(-5.0, 1e6))
# an open lower end of the tower window, tied with r = lo
@example({"prefix": [], "tail": {"kind": "fexp", "c": 1}}, 95.022365565026618)
@settings(max_examples=100, deadline=None)
def test_memoised_potential_and_threshold_check_equal_fresh_ones(descriptor, r_random):
    seq = SymbolSeq.from_json(descriptor)
    for shift in (6, 0, 3, 0, 1, 2, 6, 4, 5):  # memo misses, then hits
        got = potential(seq, shift)
        fresh = potential(SymbolSeq.from_json(descriptor), shift)
        assert _bits(got) == _bits(fresh)
        # the terms of a sequence with no memo, read one by one
        terms = list(_potential_terms(SymbolSeq.from_json(descriptor), shift))
        for r in (fresh.lo, math.nextafter(fresh.lo, -math.inf),
                  math.nextafter(fresh.lo, math.inf), fresh.hi, r_random):
            want = fresh.certainly_gt(r)
            # sup_hull keeps an open lower end on ties: the hull is above r iff a term is
            assert any(t.certainly_gt(r) for t in terms) is want, r
            assert got.certainly_gt(r) is want, r


@given(st.fixed_dictionaries({"prefix": st.lists(prefix_entries, max_size=3), "tail": tail_rules}),
       st.integers(0, 5), st.integers(1, 12), st.floats(0.1, 20.0), st.floats(0.1, 20.0))
@settings(max_examples=150, deadline=None)
def test_least_depth_is_the_first_term_above_r_within_its_stop(descriptor, n, stop, r, r_first):
    # the one least-depth search of witness depths and cut floors against a scan of every
    # term; the first term's slot is empty at the first ask, filled by another r at the second
    seq = SymbolSeq.from_json(descriptor)
    want = next((k for k in range(1, stop + 1) if potential_term(seq, n + k, k).certainly_gt(r)), 0)
    assert ("first", n) not in seq._memo
    assert model._least_depth(seq, n, r, stop) == want
    filled = SymbolSeq.from_json(descriptor)
    model._least_depth(filled, n, r_first, stop)
    assert ("first", n) in filled._memo
    assert model._least_depth(filled, n, r, stop) == want


# -- tail-rule memos: bounded and ramp anchors, pure-tail hulls ----------------

SWEEP_PREFIXES = ([], [4], [-2, 0], [7, -1, 30])


def _sweep_tails(kind: str, p: int):
    """The sweep's tail rules of one kind after a prefix of length p."""
    if kind == "const":
        yield from ({"kind": "const", "c": c} for c in range(-40, 41))
    if kind == "periodic":  # every pattern, so every rotation of each
        for n in (1, 2, 3):
            yield from ({"kind": "periodic", "pattern": list(pat)}
                        for pat in itertools.product(range(-3, 4), repeat=n))
    if kind == "fexp":
        for c in range(1, 10):
            yield from ({"kind": "fexp", "c": c}, {"kind": "fexp", "c": c, "anchor": p - 3})
    if kind == "linexp":
        for rate in ("1/10000", "1/10", "1/4", "2", "3"):
            yield from ({"kind": "linexp", "c": rate, "offset": offset} for offset in range(4))


def _anchor_bits(anchor) -> tuple:
    level, state = anchor
    if isinstance(state, Interval):
        return level, _bits(state)
    return level, state.base, state.height, _bits(state.delta)


def _rule_quantities(seq: SymbolSeq, cold: dict | None = None) -> list:
    """The bits of every potential at shifts 0..p+6, of the height and of the nesting anchor.

    With ``cold``, each is computed on a fresh sequence after the memos are cleared, once
    per address it depends on (a potential at shift k on the address from k on) and kept
    in ``cold``, so the prefixes of one tail share the cold hulls of their shared tails.
    """
    p = len(seq.prefix)
    descriptor = json.dumps(seq.to_json())
    calls = [(json.dumps(seq.shift(k).to_json()), "potential",
              lambda s, k=k: _bits(potential(s, k))) for k in range(p + 7)]
    calls += [(descriptor, "height", lambda s: _bits(endpoint_height_enclosure(s))),
              (descriptor, "anchor", lambda s: _anchor_bits(s.tail.nesting_anchor(p)))]
    if cold is None:
        return [call(seq) for _, _, call in calls]
    out = []
    for key in calls:
        if key[:2] not in cold:
            clear_rule_memos()
            cold[key[:2]] = key[2](SymbolSeq.from_json(seq.to_json()))
        out.append(cold[key[:2]])
    return out


@pytest.mark.parametrize("kind", ["const", "periodic", "fexp", "linexp"])
def test_memoised_rule_work_equals_work_with_the_memos_cleared(kind, empty_rule_memos):
    # the warm pass runs every prefix of a tail in turn, so the shifted rules,
    # bounded heights and ramp anchors of one prefix answer the next
    seqs = [SymbolSeq.from_json({"prefix": prefix, "tail": tail})
            for tails in zip(*(_sweep_tails(kind, len(prefix)) for prefix in SWEEP_PREFIXES))
            for prefix, tail in zip(SWEEP_PREFIXES, tails)]
    warm = [_rule_quantities(seq) for seq in seqs]
    assert model._tail_hull.cache_info().hits > 0
    cold: dict = {}
    for seq, got in zip(seqs, warm):
        assert got == _rule_quantities(seq, cold), seq


@pytest.mark.parametrize("memo, fill", [
    (ConstTail.height, lambda k: ConstTail(k).nesting_anchor(0)),
    (LinExpTail.nesting_anchor, lambda k: LinExpTail(1, 1, k).nesting_anchor(0)),
    (model._tail_hull, lambda k: potential(const_seq(k))),
])
def test_rule_memo_holds_at_most_its_bound(memo, fill, empty_rule_memos):
    size = memo.cache_parameters()["maxsize"]
    for k in range(size + 8):
        fill(k)
    info = memo.cache_info()
    assert info.misses == size + 8 and info.currsize == size


def test_rule_memos_share_equal_rules_and_keep_unequal_ones_apart(empty_rule_memos):
    # ConstTail(3) and PeriodicTail((3,)) have equal entries, but their heights
    # come from a bisection and from interval sweeps, and differ
    const, periodic = ConstTail(3), PeriodicTail((3,))
    assert const.nesting_anchor(0)[1] != periodic.nesting_anchor(0)[1]
    assert ConstTail.height.cache_info().currsize == 1
    potential(SymbolSeq((), const)), potential(SymbolSeq((), periodic))
    assert model._tail_hull.cache_info().currsize == 2
    # the rotations of one pattern have heights and hulls of their own
    rotations = [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
    assert len({PeriodicTail(pat).nesting_anchor(0)[1] for pat in rotations}) == 3
    assert len({potential(periodic_seq(pat)) for pat in rotations}) == 3
    assert model._tail_hull.cache_info().currsize == 5
    # equal rules share an entry: a bounded tail shifted past its prefix, and
    # ramp anchors at one p with equal rates written apart
    hits = model._tail_hull.cache_info().hits
    pattern = PeriodicTail((1, 2, 3))  # whole periods past the prefix: the rule itself
    assert pattern.shifted(1, 7) is pattern and const.shifted(2, 9) is const
    assert potential(const_seq(3, (1, 2)), 2) is potential(SymbolSeq((), const))
    assert potential(periodic_seq((1, 2, 3), (5,)), 2) is potential(periodic_seq((2, 3, 1)))
    assert model._tail_hull.cache_info().hits == hits + 4
    # a ramp whose seed holds at the first level: level max(p, 1) - 1, so p = 0
    # and 1 (both start at level 1) have equal anchors, each in an entry of its own
    ramp = LinExpTail(1, 1, 100)
    same_rate = SymbolSeq.from_json(
        {"prefix": [], "tail": {"kind": "linexp", "c": "2/2", "offset": 100}}).tail
    assert ramp.nesting_anchor(1) is same_rate.nesting_anchor(1)
    assert ramp.nesting_anchor(0) == ramp.nesting_anchor(1)
    assert ramp.nesting_anchor(2)[0] == 1 and ramp.nesting_anchor(1)[0] == 0
    assert LinExpTail.nesting_anchor.cache_info().currsize == 3


@pytest.mark.parametrize("descriptor", [
    {"prefix": [1, 2], "tail": {"kind": "const", "c": 3}},
    {"prefix": [5], "tail": {"kind": "periodic", "pattern": [1, -2, 3]}},
    {"prefix": [0, 4, 4], "tail": {"kind": "fexp", "c": 3}},
    {"prefix": [7], "tail": {"kind": "linexp", "c": "1/4", "offset": 2}},
])
def test_a_hull_past_the_prefix_is_kept_by_the_pure_tail_alone(descriptor, empty_rule_memos):
    # from shift p - 1 on a hull reads tail entries alone: the shifted rule's
    # sequence, after one leading entry at p - 1 and none past it, has its terms
    seq = SymbolSeq.from_json(descriptor)
    p = len(seq.prefix)
    for k in range(p + 4):
        hull = potential(seq, k)
        scanned = Interval.sup_hull(list(model._potential_terms(seq, k)))
        assert _bits(hull) == _bits(scanned)
        if k < p - 1:
            assert seq._memo[("potential", k)] is hull
            continue
        assert ("potential", k) not in seq._memo
        assert hull is potential(SymbolSeq((0,) * max(p - k, 0), seq.tail.shifted(p, k)))


def _eight_term_tower_hull(seq: SymbolSeq, shift: int) -> Interval:
    """A tower hull with eight explicit tail terms before its floor window."""
    terms, cut = [], -math.inf
    for k in range(1, max(len(seq.prefix) - shift, 0) + 9):
        if (term := potential_term(seq, shift + k, k, cut)) is not None:
            cut = max(cut, term.lo)
            terms.append(term)
    net = growth_net(seq.tail.c, shift - seq.tail.resolved_anchor(len(seq.prefix)))
    lo = max(intervals.round_down(net.lo - 1.0), 0.0)
    return Interval.sup_hull(terms + [Interval(lo, net.hi, lo > 0.0, net.hi_open)])


@pytest.mark.parametrize("c", [1, 2, 3, 5, 9, 50, 700])
def test_a_tower_hull_closes_at_its_first_big_tower_term_with_every_bit(c, empty_rule_memos):
    # every tail term whose entry is a tower past 2^53 equals the floor window
    for prefix in [(), (0,), (3, 1), (10**15, 2)]:
        for anchor in (None, len(prefix) - 3, len(prefix) - 1):
            seq = SymbolSeq(prefix, ExpTowerTail(c, anchor))
            for shift in range(len(prefix) + 8):
                assert _bits(potential(seq, shift)) == _bits(_eight_term_tower_hull(seq, shift))


@given(st.fixed_dictionaries({"prefix": st.lists(prefix_entries, max_size=4), "tail": tail_rules}))
@settings(max_examples=100, deadline=None)
def test_every_height_enclosure_starts_at_or_above_zero(descriptor):
    # the sandwich's lower end is the potential's, a hull of terms clamped at
    # 0, so no height enclosure, nor its midpoint, is ever negative
    enc = endpoint_height_enclosure(SymbolSeq.from_json(descriptor))
    assert enc.lo >= 0.0 and enc.mid >= 0.0, enc


def test_every_pool_height_enclosure_starts_at_or_above_zero():
    descriptors = {}
    for pool in sorted(POOLS.glob("*.json")):
        for cell in json.loads(pool.read_text())["cells"].values():
            for q in cell["queries"]:
                if "seq" in q:
                    descriptors[json.dumps(q["seq"], sort_keys=True)] = q["seq"]
    assert descriptors
    for descriptor in descriptors.values():
        enc = endpoint_height_enclosure(SymbolSeq.from_json(descriptor))
        assert enc.lo >= 0.0 and enc.mid >= 0.0, (descriptor, enc)


def _inline_endpoint_tests(x: ModelPoint, tol: float) -> TriBool:
    """The endpoint test in exact rationals: unknown when the height enclosure is wider than
    tol, else yes when enc.lo - tol <= t <= enc.hi + tol and no outside these bounds."""
    enc = endpoint_height_enclosure(x.seq, tol)
    if enc.width > tol:
        return TriBool.unknown(enc)
    lo, hi, t = Fraction(enc.lo) - Fraction(tol), Fraction(enc.hi) + Fraction(tol), Fraction(x.t)
    return TriBool(lo <= t <= hi, enc)


@pytest.mark.parametrize("descriptor", [
    {"prefix": [], "tail": {"kind": "fexp", "c": 3}},
    {"prefix": [0, 5], "tail": {"kind": "fexp", "c": 10}},
    {"prefix": [], "tail": {"kind": "const", "c": 1}},
    {"prefix": [2], "tail": {"kind": "periodic", "pattern": [1, -1]}},
    {"prefix": [], "tail": {"kind": "linexp", "c": "1/2"}},
])
@pytest.mark.parametrize("tol", [1e-3, 1e-9, 1e-20])
def test_at_endpoint_agrees_with_the_inline_copies_at_both_tolerance_edges(descriptor, tol):
    seq = SymbolSeq.from_json(descriptor)
    enc = endpoint_height_enclosure(seq)
    for edge in (enc.lo - tol, enc.hi + tol):
        for t in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)):
            if not 0.0 <= t < math.inf:
                continue
            x = ModelPoint(t, seq)
            assert model.at_endpoint(x, tol) == _inline_endpoint_tests(x, tol), (t, tol)


def test_at_endpoint_answers_no_at_both_rounded_ties():
    # fexp c = 3 at tol 1e-9: fl(enc.hi + tol) lies above the exact sum and
    # fl(enc.lo - tol) below it, so neither height is within tol of the enclosure:
    # at_endpoint answers no, and neither is an endpoint for classify (budget 0 asks
    # at_endpoint before any escape certificate can fire above) or the empty stratum
    seq, tol = SymbolSeq.from_json({"prefix": [], "tail": {"kind": "fexp", "c": 3}}), 1e-9
    enc = endpoint_height_enclosure(seq)
    assert enc.width <= tol
    for t, exact, out in ((enc.hi + tol, Fraction(enc.hi) + Fraction(tol), math.inf),
                          (enc.lo - tol, Fraction(enc.lo) - Fraction(tol), -math.inf)):
        assert (Fraction(t) > exact) if out > 0 else (Fraction(t) < exact)  # outside the bound
        x = ModelPoint(t, seq)
        assert model.at_endpoint(x, tol) == TriBool.no(enc)
        assert classify(x, budget=0, tol=tol).verdict is Verdict.UNKNOWN
        assert strata.in_stratum(strata.AlphaIndex(()), x, tol) == TriBool.no(enc)
        # the next double inward is certainly within tol, the next outward certainly not
        assert model.at_endpoint(ModelPoint(math.nextafter(t, enc.mid), seq), tol).is_true
        assert model.at_endpoint(ModelPoint(math.nextafter(t, out), seq), tol).is_false


class _HighClosingTail(ConstTail):
    """A constant tail whose closing term (5, 6] lies above every explicit term."""

    def closing_terms(self, p, shift, k, below=-math.inf):
        return (Interval(5.0, 6.0, True, False),)


def test_threshold_check_reads_the_closing_terms():
    # only the open closing term (5, 6] is certainly above 5, and nothing is above 6
    seq = SymbolSeq((), _HighClosingTail(1))
    assert [t for t in _potential_terms(seq, 0) if t.certainly_gt(5.0)] == [
        Interval(5.0, 6.0, True, False)]
    assert potential(seq, 0).certainly_gt(5.0) and not potential(seq, 0).certainly_gt(6.0)
    assert potential(seq, 0) == Interval(5.0, 6.0, True, False)


@pytest.mark.counts_work
def test_ramp_height_builds_few_entries(empty_rule_memos):
    # 18 misses; a walk from the level where the ramp argument reaches 80
    # visits 320 levels, more than the 256-entry ramp memo holds, and misses
    # on every one
    endpoint_height(linexp_seq("1/4"))
    assert sequences._ramp_entry.cache_info().misses <= 100


@pytest.mark.counts_work
def test_slow_ramp_potential_takes_linear_steps(monkeypatch, empty_rule_memos):
    # 1600-odd terms before the envelope closes: 4,802 steps, where every
    # term stepped to its full depth takes 1,284,002
    steps = [0]
    ln1p_bounds = intervals._ln1p_bounds

    def counted(lo, hi):
        steps[0] += 1
        return ln1p_bounds(lo, hi)

    monkeypatch.setattr(intervals, "_ln1p_bounds", counted)
    potential(linexp_seq("1/10000"))
    assert steps[0] <= 6000


@given(ramp_tails, st.integers(0, 40),
       st.one_of(st.sampled_from([0.694, 2.0, 5.0, 8.0, 0.0, -0.0, -1.0]),
                 st.floats(-5.0, 60.0),
                 # index j: a threshold that the ramp argument at j meets exactly
                 # or misses by one ulp either way
                 st.tuples(st.integers(0, 300), st.sampled_from([-1.0, 0.0, 1.0]))))
@settings(max_examples=300, deadline=None)
def test_ramp_potential_floor_matches_the_scan(tail, p, threshold):
    if isinstance(threshold, tuple):
        j, direction = threshold
        at = float(tail.arg(j))
        threshold = math.nextafter(at, direction * math.inf) if direction else at
    n = max(p - 1, 0)
    for _ in range(400000):
        if Interval.from_fraction(tail.arg(n + 1)).lo > threshold:
            want = n
            break
        n += 1
    else:
        want = None
    assert tail.potential_floor(p, threshold) == want


def test_ramp_potential_floor_gives_up_past_the_scan_budget():
    # rate 1/10000 reaches 50 at index 500000, beyond the 400000-index window
    tail = LinExpTail(1, 10000)
    assert tail.potential_floor(0, 50.0) is None
    # arg(390000) = 39 exactly is not above 39, arg(390001) is
    assert tail.potential_floor(0, 39.0) == 390000


# -- directed rounding at the certificate comparisons ---------------------------


def test_escape_certificate_compares_against_a_directed_sum():
    # pot.hi + 1.0 rounds down for this tail, so a height one ulp above the
    # nearest sum is not certified above pot + 1; one more ulp is
    c = next(c for c in range(2, 100)
             if Fraction(potential(const_seq(c), 0).hi) + 1
             > Fraction(potential(const_seq(c), 0).hi + 1.0))
    pot_hi = potential(const_seq(c), 0).hi
    t = math.nextafter(pot_hi + 1.0, math.inf)
    assert t == sum_up(pot_hi, 1.0)
    assert classify(ModelPoint(t, const_seq(c)), 0).verdict is Verdict.UNKNOWN
    above = classify(ModelPoint(math.nextafter(t, math.inf), const_seq(c)), 0)
    assert above.verdict is Verdict.ESCAPE_CERTIFIED


def test_tower_floor_compares_a_directed_lower_bound():
    # F^2(4) ~ 1.9e23: subtracting 1 rounds back up to F^2(4).lo, so the
    # height-2 terms are not certified above a threshold one ulp below it
    seq = fexp_seq(4)
    lo = growth_net(4, 2).lo
    threshold = math.nextafter(lo, 0.0)
    assert lo - 1.0 == lo and sum_down(lo, -1.0) == threshold
    assert seq.tail.potential_floor(len(seq.prefix), threshold) == 2
    assert seq.tail.potential_floor(len(seq.prefix), math.nextafter(threshold, 0.0)) == 1


def test_ramp_envelope_step_compares_against_a_directed_sum(monkeypatch):
    # ln(2 + a_(k+1)) <= a_k + 1 holds with a margin of at least 1 - ln 2 on
    # every ramp, so no real input reaches a tie; pin the directed sum at one:
    # a_k + 1.0 rounds up to the tie 2 + 2^-50 while the exact sum is below it
    a_k = 1.0 + 3 * 2.0**-52
    tie = 2.0 + 2.0**-50
    assert a_k + 1.0 == tie and Fraction(a_k) + 1 < tie
    tail = LinExpTail(*a_k.as_integer_ratio())  # a_k = arg(1) for shift 0 and term 1
    monkeypatch.setattr(sequences, "log1p_up", lambda x: tie)
    assert tail.closing_terms(0, 0, 1) is None
    monkeypatch.setattr(sequences, "log1p_up", lambda x: sum_down(a_k, 1.0))
    assert tail.closing_terms(0, 0, 1) is not None


def test_bounded_escape_threshold_is_directed(monkeypatch):
    for c in (0, 1, 7, 2**53 + 1, 2**61 + 513, 10**300):
        seq = const_seq(c)
        a_max = mp.mpf(seq.tail.abs_bound())
        with mp.workdps(60):
            assert mp.mpf(_bounded_tail_escape_threshold(seq, 0)) >= mp.log(4 + 2 * a_max), c
    # 3 + 2 a_max is not a double for this c: it reaches the log rounded up
    seq = const_seq(2**61 + 513)
    seen = []
    monkeypatch.setattr(model, "log1p_up", lambda x: seen.append(x) or 50.0)
    assert _bounded_tail_escape_threshold(seq, 0) == 50.0
    assert seen and Fraction(seen[0]) > 3 + 2 * Fraction(seq.tail.abs_bound())


def test_public_guards_reject_negative_shifts_depths_and_heights():
    # every rule and prefix length: shift -1 is at least p - 1 when p = 0, and a
    # tower rule shifted by -1 is still a rule, so only the guard refuses it
    for tail in ({"kind": "const", "c": 1}, {"kind": "periodic", "pattern": [1, 2]},
                 {"kind": "fexp", "c": 2}, {"kind": "linexp", "c": "1/2"}):
        for prefix in ([], [3], [3, 0]):
            with pytest.raises(ValueError, match="shift"):
                potential(SymbolSeq.from_json({"prefix": prefix, "tail": tail}), -1)
    seq = const_seq(1)
    with pytest.raises(ValueError, match="n must be"):
        endpoint_lower_bound(seq, -1)
    with pytest.raises(ValueError, match="finite height"):
        ModelPoint(-1.0, seq)


def test_potential_floor_past_the_rule_window_and_over_budget():
    # threshold 41 at rate 1/10000 needs a shift past the ramp's 400,000-shift window
    assert model.potential_floor(linexp_seq("1/10000"), 41.0) is None
    # rate 1, threshold 2: the rule certifies shift 2 on (arg 3 > 2), and
    # shift 1 is above 2 explicitly (ln 8): one explicit shift, over budget 0
    assert model.potential_floor(linexp_seq(1), 2.0) == 1
    with pytest.raises(model.BudgetExceededError, match="exceeds budget"):
        model.potential_floor(linexp_seq(1), 2.0, budget=0)


def test_a_pattern_of_200001_entries_closes_on_its_own():
    # no term cap: a bounded tail closes one pattern length past the prefix
    assert potential(periodic_seq((1,) * 200_001)) == Interval(0.69314718055994518,
                                                              0.6931471805599454)


@pytest.mark.parametrize("descriptor", [
    {"prefix": [10**308], "tail": {"kind": "const", "c": 0}},
    {"prefix": [{"kind": "floor_tower", "c": 5, "h": 4}], "tail": {"kind": "const", "c": 1}},
    {"prefix": [{"kind": "ceil_exp", "arg": "800"}], "tail": {"kind": "periodic",
                                                              "pattern": [10**308, -3]}},
    {"prefix": [], "tail": {"kind": "fexp", "c": 700}},
    {"prefix": [5], "tail": {"kind": "linexp", "c": "700", "offset": 3}},
])
def test_saturated_potentials_and_heights_keep_an_open_upper_end(descriptor):
    # every hair has a finite endpoint: a value past double range is [lo, inf)
    seq = SymbolSeq.from_json(descriptor)
    for iv in (potential(seq), potential(seq, 1), endpoint_height_enclosure(seq)):
        assert iv.hi < math.inf or iv.hi_open
    assert is_escaping_endpoint_address(seq).is_true is (seq.asymptotics is Asymptotics.DIVERGES)
