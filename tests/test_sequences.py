"""Entry-rule semantics: totality, shifting, symbolic values, descriptors."""

import copy
import json
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expbouquet import AlphaIndex, witness_sequence
from expbouquet.intervals import (
    DEFAULT_TOL,
    PIN_ARG,
    TOWER_PIN,
    Interval,
    growth_inv_pow,
    growth_net,
    growth_sub,
    log1p_up,
    round_down,
    round_up,
)
from expbouquet.sequences import (
    MAX_EXACT_INT,
    CeilExp,
    ConstTail,
    DescriptorError,
    ExpTowerTail,
    FloorPow,
    IncomparableTailsError,
    IntEntry,
    LinExpTail,
    PeriodicTail,
    SymbolSeq,
    const_seq,
    fexp_seq,
    linexp_seq,
    periodic_seq,
    _LN2,
    _int_entry,
    _ramp_entry,
    _tower_entry,
    _TowerRel,
)

from test_cli_fuzz import HUGE, _paths, _valid


def test_prefix_lookup_and_const_tail():
    seq = const_seq(0, (7, -2))
    assert seq.entry(0).value == 7
    assert seq.entry(1).value == -2
    assert seq.entry(2).value == 0
    assert seq.entry(100).value == 0


def test_tower_tail_materializes_small_heights():
    seq = fexp_seq(3, (0,))
    assert seq.entry(0).value == 0
    assert seq.entry(1).value == 19            # floor(F(3)) = floor(e^3 - 1)
    assert seq.entry(2).value == 194421087     # floor(F^2(3))
    assert isinstance(seq.entry(4), FloorPow)  # F^4(3) overflows doubles


def test_tower_entry_window():
    e = _tower_entry(3, 4)
    assert isinstance(e, FloorPow)
    iv = e.abs_interval()
    assert iv.lo_open and iv.hi == math.inf
    assert _tower_entry(3, 1) == IntEntry(19)


@pytest.mark.parametrize("seq", [
    const_seq(3, (1, -4)),
    periodic_seq((2, 0, 5), (7,)),
    SymbolSeq((IntEntry(7), FloorPow(10, 3)), ExpTowerTail(3, anchor=1)),
    SymbolSeq((CeilExp(801, 2), IntEntry(3)), LinExpTail(2, 3, 5)),
], ids=["const", "periodic", "fexp", "linexp"])
def test_entry_after_n_steps_is_the_first_entry_of_the_shift(seq):
    # classify steps its orbit by index, without building the shifted sequences
    for n in range(40):
        assert seq.entry(n + 1) == seq.shift(n).entry(1)


def test_ramp_tail_entries():
    seq = linexp_seq(1)
    # s_n = ceil(F(n)): F(0) = 0, F(1) = e - 1, F(2) = e^2 - 1
    assert seq.entry(0).value == 0
    assert seq.entry(1).value == 2
    assert seq.entry(2).value == 7
    big = linexp_seq(Fraction(1), ()).entry(400)
    assert isinstance(big, CeilExp)


def test_periodic_tail_and_rotation_under_shift():
    seq = periodic_seq((1, -2, 3), (9,))
    values = [seq.entry(n).value for n in range(1, 7)]
    assert values == [1, -2, 3, 1, -2, 3]
    shifted = seq.shift(2)
    assert [shifted.entry(n).value for n in range(5)] == [seq.entry(n + 2).value for n in range(5)]



def _interval_sweep_height(pattern: tuple[int, ...]) -> Interval:
    """A periodic tail's height by the sweeps in Interval arithmetic: one Interval per entry
    per sweep."""
    if all(v == 0 for v in pattern):
        return Interval.point(0.0)
    pats = [Interval.from_int(abs(v)) for v in pattern]
    L = len(pats)
    upper = log1p_up(max(iv.hi for iv in pats)) + 1.0
    w = [Interval(0.0, upper) for _ in range(L)]
    goal = max(DEFAULT_TOL / 4.0, 4e-16 * upper)
    for _ in range(4000):
        for r in range(L - 1, -1, -1):
            w[r] = (pats[(r + 1) % L] + w[(r + 1) % L]).ln1p()
        if max(iv.width for iv in w) < goal:
            break
    return w[0]


def test_periodic_height_sweeps_on_endpoints_keep_every_bit():
    values = (0, 1, -2, 3, 50, 10**6, 2**53 + 1, 10**300, int(1.7976931348623157e308))
    patterns = [(a,) for a in values] + [(a, b) for a in values for b in values]
    patterns += [(a, b, c) for a in values[:6] for b in values[:6] for c in values[:6]]
    huge = values[-1] + 2**969  # rounds down to the largest double: its enclosure is open at +inf
    patterns += [(huge,), (1, huge), (huge, -2, 0)]
    for pattern in patterns:
        got, want = PeriodicTail(pattern).height(), _interval_sweep_height(pattern)
        assert (got.lo.hex(), got.hi.hex(), got.lo_open, got.hi_open) == \
            (want.lo.hex(), want.hi.hex(), want.lo_open, want.hi_open), pattern


def _interval_bisection_height(c: int) -> Interval:
    """A constant tail's height by bisection on F(t) - |c| - t built in Interval arithmetic:
    two point intervals, one ``growth_sub`` and one difference per step."""
    a = _int_entry(c).abs_interval()
    if a.hi == 0.0:
        return Interval.point(0.0)
    lo, hi = 0.0, log1p_up(a.hi) + 1.0

    def h_sign(t: float) -> int:
        iv = growth_sub(Interval.point(t), a) - Interval.point(t)
        return 1 if iv.certainly_gt(0.0) else -1 if iv.certainly_lt(0.0) else 0

    if h_sign(hi) <= 0:
        return PeriodicTail((c,)).height()
    for _ in range(160):
        mid = 0.5 * (lo + hi)
        s = h_sign(mid)
        if s == 0 or mid <= lo or mid >= hi:
            break
        if s < 0:
            lo = mid
        else:
            hi = mid
    return Interval(lo, hi)


def test_const_height_bisection_on_endpoints_keeps_every_bit():
    rng = random.Random(20)
    largest = int(sys.float_info.max)
    values = [*range(-300, 301), *(s * 2**k for k in range(1023) for s in (1, -1)),
              largest, -largest]
    values += [rng.getrandbits(60) * rng.choice((1, -1)) for _ in range(2000)]
    assert len(values) == 4649
    for c in values:
        got, want = ConstTail(c).height(), _interval_bisection_height(c)
        assert (got.lo.hex(), got.hi.hex(), got.lo_open, got.hi_open) == \
            (want.lo.hex(), want.hi.hex(), want.lo_open, want.hi_open), c


@pytest.mark.parametrize("seq", [
    const_seq(4, (1, -5)),
    periodic_seq((2, 0, -3), (7,)),
    fexp_seq(3, (0, 2)),
    linexp_seq(Fraction(1, 2), (-1,)),
    SymbolSeq((IntEntry(7), FloorPow(10, 3)), ExpTowerTail(3, anchor=0)),
    SymbolSeq((CeilExp(801, 2), IntEntry(3)), LinExpTail(2, 3, 5)),
])
@pytest.mark.parametrize("k", [0, 1, 2, 5, 40])
def test_shift_commutes_with_entry_lookup(seq, k):
    shifted = seq.shift(k)
    for n in range(6):
        assert shifted.entry(n) == seq.entry(n + k)


def _fresh_entry(seq: SymbolSeq, n: int):
    """s_n built by the factories from the rule's formula, past every memo."""
    p, tail = len(seq.prefix), seq.tail
    if n < p:
        return seq.prefix[n]
    if isinstance(tail, ExpTowerTail):
        return _tower_entry.__wrapped__(tail.c, n - tail.resolved_anchor(p))
    if isinstance(tail, LinExpTail):
        return _ramp_entry.__wrapped__(tail.num, tail.den, n + tail.offset)
    return IntEntry(tail.pattern[(n - p) % len(tail.pattern)])


def _slots(entry) -> dict:
    """Every slot of an entry by name: its fields and the enclosures built from them."""
    return {name: getattr(entry, name) for name in type(entry).__slots__}


@pytest.mark.parametrize("seq", [
    const_seq(3, (1, -4)),
    periodic_seq((2, 0, -5), (7,)),
    SymbolSeq((CeilExp(801, 2), FloorPow(10, 3)), ExpTowerTail(3, anchor=0)),
    SymbolSeq((FloorPow(4, 2), IntEntry(-3)), LinExpTail(2, 3, 5)),
], ids=["const", "periodic", "fexp", "linexp"])
def test_memoised_entries_equal_fresh_ones(seq):
    # 300 distinct indices, up and then down, run the 256-entry memos through eviction
    walk = list(range(300))
    for s in (seq, seq.shift(3)):
        for n in walk + walk[::-1]:
            got, fresh = s.entry(n), _fresh_entry(s, n)
            # slot for slot, the enclosures built at construction included
            assert type(got) is type(fresh) and _slots(got) == _slots(fresh), (s, n)
            assert got.abs_interval() == fresh.abs_interval()
            assert got.pot(1) == fresh.pot(1) and got.pot(2) == fresh.pot(2)


def test_shift_zero_is_identity():
    seq = fexp_seq(5, (1, 2))
    assert seq.shift(0) is seq


def test_a_negative_shift_is_refused_with_the_potential_message():
    with pytest.raises(ValueError, match=r"^shift must be >= 0$"):
        fexp_seq(5, (1, 2)).shift(-1)


def test_shift_example_rebases_tower():
    seq = fexp_seq(3, (0,))
    shifted = seq.shift(1)
    assert shifted.entry(0).value == 19
    assert shifted.prefix == ()


def test_descriptor_round_trip():
    for seq in (const_seq(1), periodic_seq((1, 2)), fexp_seq(3, (0,)),
                linexp_seq("1/2", (4,))):
        again = SymbolSeq.from_json(json.loads(json.dumps(seq.to_json())))
        assert again == seq


def test_descriptor_round_trip_with_symbolic_prefix():
    seq = SymbolSeq((IntEntry(7), FloorPow(10, 3)), ExpTowerTail(3, anchor=1))
    again = SymbolSeq.from_json(seq.to_json())
    assert again == seq


@pytest.mark.parametrize("bad", [
    "[]",
    '{"prefix": 3, "tail": {"kind": "const", "c": 0}}',
    '{"prefix": [], "tail": {"kind": "nope"}}',
    '{"prefix": [], "tail": {"kind": "periodic", "pattern": []}}',
    '{"prefix": [], "tail": {"kind": "fexp", "c": 0}}',
    '{"prefix": [], "tail": {"kind": "linexp", "c": "0"}}',
    '{"prefix": [1.5], "tail": {"kind": "const", "c": 0}}',
])
def test_descriptor_rejects_malformed(bad):
    with pytest.raises(DescriptorError):
        SymbolSeq.from_json(json.loads(bad))


BEYOND_DOUBLE = 10**336


def _parsed(desc: dict) -> SymbolSeq:
    return SymbolSeq.from_json(json.loads(json.dumps(desc)))


def _built(desc: dict) -> SymbolSeq:
    """The descriptor's sequence built by the constructors from its values as given: only a
    rational is read, as the rule and the entry hold it, in coprime ints.  A symbolic entry
    that fits a machine integer is then that integer's entry, as the parser gives it."""
    def entry(e):
        if not isinstance(e, dict):
            return e
        if e["kind"] == "floor_tower":
            tower = FloorPow(e["c"], e["h"])
            return _tower_entry(tower.base, tower.height)
        ramp = CeilExp(*Fraction(e["arg"]).as_integer_ratio())
        return _ramp_entry(ramp.num, ramp.den, 1)

    tail = desc["tail"]
    rule = {"const": lambda: ConstTail(tail["c"]),
            "periodic": lambda: PeriodicTail(tuple(tail["pattern"])),
            "fexp": lambda: ExpTowerTail(tail["c"], tail.get("anchor")),
            "linexp": lambda: LinExpTail(*Fraction(tail["c"]).as_integer_ratio(),
                                         tail.get("offset", 0))}[tail["kind"]]
    return SymbolSeq(tuple(entry(e) for e in desc["prefix"]), rule())


# values each constructor refuses as the parser does
OUT_OF_RANGE = [
    ({"prefix": [0, BEYOND_DOUBLE], "tail": {"kind": "const", "c": 0}}, "prefix integer"),
    ({"prefix": [], "tail": {"kind": "const", "c": -BEYOND_DOUBLE}}, "const c"),
    ({"prefix": [], "tail": {"kind": "periodic", "pattern": [1, BEYOND_DOUBLE]}}, "periodic entry"),
    ({"prefix": [], "tail": {"kind": "linexp", "c": "1/2", "offset": BEYOND_DOUBLE}},
     "linexp rate * offset"),
    ({"prefix": [], "tail": {"kind": "linexp", "c": 700, "offset": 10**306}},
     "linexp rate * offset"),
    ({"prefix": [{"kind": "floor_tower", "c": 0, "h": -3}], "tail": {"kind": "const", "c": 0}},
     "floor_tower needs"),
    ({"prefix": [{"kind": "floor_tower", "c": -5, "h": 2}], "tail": {"kind": "const", "c": 0}},
     "floor_tower needs"),
    ({"prefix": [{"kind": "floor_tower", "c": 3, "h": 0}], "tail": {"kind": "const", "c": 0}},
     "floor_tower needs"),
    ({"prefix": [{"kind": "floor_tower", "c": BEYOND_DOUBLE, "h": 2}],
      "tail": {"kind": "const", "c": 0}}, "floor_tower base"),
    ({"prefix": [{"kind": "ceil_exp", "arg": "-3"}], "tail": {"kind": "const", "c": 0}},
     "nonnegative"),
    # JSON 1e400 reads as an infinite float
    ({"prefix": [], "tail": {"kind": "const", "c": math.inf}}, "const c"),
    ({"prefix": [], "tail": {"kind": "fexp", "c": 3, "anchor": -math.inf}}, "fexp anchor"),
]
# values only the parser reads: a symbolic entry built past double range was refused before
# its descriptor was (``test_ramp_arguments_past_double_range_are_descriptor_errors``)
PARSE_ONLY = [
    ({"prefix": [{"kind": "ceil_exp", "arg": str(BEYOND_DOUBLE)}],
      "tail": {"kind": "const", "c": 0}}, "ceil_exp arg beyond double range"),
    ({"prefix": [], "tail": {"kind": "linexp", "c": math.inf}}, "bad rational"),
    # a missing required field is named with its kind
    ({"prefix": [{"kind": "floor_tower", "c": 3}], "tail": {"kind": "const", "c": 0}},
     "floor_tower needs the field 'h'"),
    ({"prefix": [{"kind": "floor_tower", "h": 2}], "tail": {"kind": "const", "c": 0}},
     "floor_tower needs the field 'c'"),
    ({"prefix": [{"kind": "ceil_exp"}], "tail": {"kind": "const", "c": 0}},
     "ceil_exp needs the field 'arg'"),
    ({"prefix": [], "tail": {"kind": "const"}}, "const tail needs the field 'c'"),
    ({"prefix": [], "tail": {"kind": "fexp", "anchor": 0}}, "fexp tail needs the field 'c'"),
    ({"prefix": [], "tail": {"kind": "linexp", "offset": 2}}, "linexp tail needs the field 'c'"),
]


@pytest.mark.parametrize("build, desc, message",
                         [(build, *case) for build in (_parsed, _built) for case in OUT_OF_RANGE]
                         + [(_parsed, *case) for case in PARSE_ONLY],
                         ids=lambda v: v.__name__.strip("_") if callable(v) else None)
def test_descriptor_rejects_values_outside_the_documented_range(build, desc, message):
    with pytest.raises(DescriptorError, match=re.escape(message)):
        build(desc)


def _with_int_field(field, v):
    """A valid descriptor with ``v`` in the named integer field."""
    tail = {"kind": "const", "c": 0}
    prefix = []
    if field == "const c":
        tail = {"kind": "const", "c": v}
    elif field == "periodic entry":
        tail = {"kind": "periodic", "pattern": [1, v]}
    elif field == "fexp c":
        tail = {"kind": "fexp", "c": v}
    elif field == "fexp anchor":
        tail = {"kind": "fexp", "c": 3, "anchor": v}
    elif field == "floor_tower base":
        prefix = [{"kind": "floor_tower", "c": v, "h": 2}]
    elif field == "floor_tower height":
        prefix = [{"kind": "floor_tower", "c": 2, "h": v}]
    elif field == "linexp offset":
        tail = {"kind": "linexp", "c": "1/2", "offset": v}
    return {"prefix": prefix, "tail": tail}


INT_FIELDS = ["const c", "periodic entry", "fexp c", "fexp anchor", "floor_tower base",
              "floor_tower height", "linexp offset"]


@pytest.mark.parametrize("build", [_parsed, _built], ids=["parsed", "built"])
@pytest.mark.parametrize("field", INT_FIELDS)
@pytest.mark.parametrize("v", [1.9, 2.0, "3", True])
def test_integer_fields_accept_only_json_integers(field, v, build):
    with pytest.raises(DescriptorError, match=re.escape(f"{field} must be an integer, got {v!r}")):
        build(_with_int_field(field, v))


# a bool, a float or an integer past double range, in place of an integer field
_WIDE = st.one_of(st.booleans(), st.floats(), st.sampled_from([-HUGE, 2**1024 - 2**970]))


@st.composite
def _widened_descriptors(draw) -> dict:
    """A descriptor of the CLI fuzzer with some of its integer fields widened."""
    desc = copy.deepcopy(draw(_valid))
    for path in [p for p in _paths(desc) if type(_at(desc, p)) is int]:
        if draw(st.booleans()):
            _at(desc, path[:-1])[path[-1]] = draw(_WIDE)
    return desc


def _at(obj, path: tuple):
    for key in path:
        obj = obj[key]
    return obj


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(desc=_widened_descriptors())
def test_a_sequence_built_directly_is_refused_or_parsed_alike(desc):
    # the same values, parsed or handed to the constructors, meet the same checks
    outcomes = []
    for build in (_parsed, _built):
        try:
            outcomes.append(build(desc))
        except DescriptorError as e:
            outcomes.append(f"refused: {e}")
    parsed, built = outcomes
    assert parsed == built, desc
    if isinstance(parsed, SymbolSeq):
        assert SymbolSeq.from_json(json.loads(json.dumps(parsed.to_json()))) == parsed


@pytest.mark.parametrize("field", INT_FIELDS)
def test_integer_fields_parse_json_integers(field):
    desc = _with_int_field(field, -1 if field == "fexp anchor" else 2)
    assert SymbolSeq.from_json(desc).to_json()["tail"]["kind"] == desc["tail"]["kind"]


def test_large_values_inside_double_range_still_parse():
    big = 10**300
    for desc in ({"prefix": [0, big], "tail": {"kind": "const", "c": -big}},
                 {"prefix": [{"kind": "floor_tower", "c": big, "h": 1}],
                  "tail": {"kind": "linexp", "c": "1/2", "offset": big}}):
        assert SymbolSeq.from_json(desc).to_json() == desc


def test_int_entry_enclosures_round_outward():
    for v in (2**53 + 1, -(2**53 + 1), 3**60, 10**300):
        e = IntEntry(v)
        iv = e.abs_interval()
        assert Fraction(iv.lo) <= abs(v) <= Fraction(iv.hi), v
        assert iv.lo < iv.hi
        assert e.pot(0) == iv
    # exactly representable values keep their point enclosures
    assert IntEntry(-7).abs_interval() == Interval.point(7.0)
    assert IntEntry(2**53).abs_interval() == Interval.point(float(2**53))


def test_tail_validation():
    with pytest.raises(DescriptorError):
        SymbolSeq((), ExpTowerTail(800))
    with pytest.raises(DescriptorError):
        SymbolSeq((), LinExpTail(-1))
    with pytest.raises(DescriptorError):
        SymbolSeq((), PeriodicTail(()))
    with pytest.raises(DescriptorError, match="nonempty integer pattern"):
        SymbolSeq((), PeriodicTail([1, 2]))  # a list pattern, which no rule memo can key
    with pytest.raises(DescriptorError, match="^fexp anchor beyond the first tail index$"):
        SymbolSeq((), ExpTowerTail(3, anchor=5))


def test_ceil_entry_window():
    e = _ramp_entry(800, 1, 1)
    assert isinstance(e, CeilExp)
    iv = e.abs_interval()
    assert iv.hi == math.inf and iv.hi_open
    assert _ramp_entry(1, 1, 1) == IntEntry(2)
    assert _ramp_entry(0, 1, 1) == IntEntry(0)


# -- entry enclosures built at construction -----------------------------------
#
# Lazy references: each method recomputes from the defining fields, with the
# Fraction comparisons on arg, as the entries did before they kept their
# enclosures and before a value that fits a machine integer became an
# IntEntry.  The entries the factories build must agree bit for bit.


def _tiny_ln1p(y: Interval) -> Interval:
    """ln(1 + y) from y - y^2 <= ln(1 + y) <= y, y >= -1/2: the bound of the entries' log
    correction, kept here as the references' own copy."""
    assert y.lo >= -0.5
    hi = y.hi if y.hi >= 0 else round_up(y.hi)
    return Interval(min(round_down(y.lo - y.lo * y.lo), hi), hi)


class _LazyCeilExp:
    def __init__(self, arg: Fraction):
        self.arg = arg

    def as_int(self):
        if self.arg == 0:
            return 0
        t = Interval.from_fraction(self.arg).growth()
        if t.hi < MAX_EXACT_INT and math.ceil(t.lo) == math.ceil(t.hi):
            return int(math.ceil(t.hi))
        return None

    def abs_interval(self):
        v = self.as_int()
        if v is not None:
            return Interval.point(float(v))
        t = Interval.from_fraction(self.arg).growth()
        return Interval(t.lo, round_up(t.hi + 1.0) if math.isfinite(t.hi) else math.inf,
                        t.lo_open, True)

    def pot(self, k):
        v = self.as_int()
        if v is not None:
            return growth_inv_pow(v, k)
        if self.arg <= 700:
            return growth_inv_pow(self.abs_interval(), k)
        inner = growth_inv_pow(Interval.from_fraction(self.arg), k - 1)
        return Interval(inner.lo, round_up(inner.hi + 1.0), inner.lo_open, True)

    def descend(self, w):
        if self.arg <= PIN_ARG:
            return (self.abs_interval() + w).ln1p()
        a = Interval.from_fraction(self.arg)
        denom = 1.0 + growth_net(a.lo, 1).lo
        y_lo = min(0.0, round_down(w.lo / denom))
        y_hi = max(0.0, round_up((w.hi + 2.0) / denom))
        return a + _tiny_ln1p(Interval(y_lo, y_hi))


class _LazyFloorPow:
    def __init__(self, base: int, height: int):
        self.base, self.height = base, height

    def tower(self):
        return growth_net(self.base, self.height)

    def as_int(self):
        t = self.tower()
        if t.hi < MAX_EXACT_INT and math.floor(t.lo) == math.floor(t.hi):
            return int(math.floor(t.lo))
        return None

    def abs_interval(self):
        v = self.as_int()
        if v is not None:
            return Interval.point(float(v))
        t = self.tower()
        return Interval(round_down(t.lo - 1.0), t.hi, True, t.hi_open)

    def pot(self, k):
        v = self.as_int()
        if v is not None:
            return growth_inv_pow(v, k)
        t = growth_net(self.base, self.height - k)
        return Interval(round_down(t.lo - 1.0), t.hi, True, t.hi_open)

    def descend(self, w):
        t = self.tower()
        if t.lo < TOWER_PIN:
            return (self.abs_interval() + w).ln1p()
        below = growth_net(self.base, self.height - 1)
        denom = 1.0 + t.lo
        y_lo = min(0.0, round_down((w.lo - 1.0) / denom))
        y_hi = max(0.0, round_up(w.hi / denom))
        return below + _tiny_ln1p(Interval(y_lo, y_hi))


def _just_beside(v: int) -> list[Fraction]:
    tiny = Fraction(1, 10**30)
    return [Fraction(v) - tiny, Fraction(v), Fraction(v) + tiny]


CEIL_ARGS = ([Fraction(0), Fraction(1, 10**40), Fraction(1), Fraction(359, 7), Fraction(801, 2),
              Fraction(1500), Fraction(2, 3) * 77, Fraction(10**30 + 1, 10**30)]
             # both sides of the PIN_ARG and overflow-guard tests, and of exp overflow
             + _just_beside(80) + _just_beside(700) + _just_beside(709) + _just_beside(710)
             # ramp arguments k/q around the materialisation limit ln(2^53) ~ 36.7
             + [Fraction(k, q) for q in (3, 7, 26, 383) for k in (q, 36 * q + 1, 37 * q, 81 * q)])
WIDTHS = [Interval.point(0.0), Interval(0.5, 0.75), Interval(2.0, 3.5), Interval(0.0, 40.0)]


def _assert_same(got, want):
    assert got == want and repr(got) == repr(want)


def _int_of(e):
    """The exact value of an IntEntry, None for a symbolic entry."""
    return e.value if isinstance(e, IntEntry) else None


def _stepped(e, state):
    """One nesting step of entry e from an Interval or a _TowerRel, materialized."""
    got = e.descend(state.bounds() if isinstance(state, Interval) else state)
    return Interval(*(got.bounds() if isinstance(got, _TowerRel) else got))


@pytest.mark.parametrize("arg", CEIL_ARGS, ids=str)
def test_ceil_entry_enclosures_match_the_lazy_reference(arg):
    e, ref = _ramp_entry.__wrapped__(arg.numerator, arg.denominator, 1), _LazyCeilExp(arg)
    _assert_same(_int_of(e), ref.as_int())
    _assert_same(e.abs_interval(), ref.abs_interval())
    for k in (1, 2, 3, 7):
        _assert_same(e.pot(k), ref.pot(k))
    for w in WIDTHS:
        _assert_same(_stepped(e, w), ref.descend(w))


@pytest.mark.parametrize("base, height", [(b, h) for b in (1, 2, 3, 7, 12, 700)
                                          for h in (1, 2, 3, 4, 6)])
def test_tower_entry_enclosures_match_the_lazy_reference(base, height):
    e, ref = _tower_entry.__wrapped__(base, height), _LazyFloorPow(base, height)
    _assert_same(_int_of(e), ref.as_int())
    _assert_same(FloorPow(base, height).tower(), ref.tower())
    _assert_same(e.abs_interval(), ref.abs_interval())
    for k in (1, 2, 3, 7):
        _assert_same(e.pot(k), ref.pot(k))
    # the last two widths fail the guard of the step into tower-relative form
    # (hi <= (1 + A)/2 and lo >= 0), so a tower past TOWER_PIN materializes them
    for w in WIDTHS + [Interval(1e300, math.inf, False, True), Interval(-0.5, 0.25)]:
        _assert_same(_stepped(e, w), ref.descend(w))
    # a tower-relative state of another tower is stepped as its materialized bounds
    other = _TowerRel(base + 1, height, _LN2)
    _assert_same(_stepped(e, other), ref.descend(Interval(*other.bounds())))
    # one of this tower takes the pin step once the tower passes TOWER_PIN, and
    # its enclosure lies inside the reference's step of the materialized state
    own = _TowerRel(base, height, _LN2)
    want = ref.descend(Interval(*own.bounds()))
    if ref.tower().lo < TOWER_PIN:
        _assert_same(_stepped(e, own), want)
    else:
        pinned = e.descend(own)
        assert (pinned.base, pinned.height) == (base, height - 1)
        got = _stepped(e, own)
        assert want.lo <= got.lo and got.hi <= want.hi


def test_entry_enclosures_stay_out_of_equality_and_json():
    # two cache keys of one argument, 801/2 and 1602/4, build two equal entries
    a, b = _ramp_entry(801, 2, 1), _ramp_entry(801, 4, 2)
    assert a == b and hash(a) == hash(b) and a is not b
    assert repr(a) == "CeilExp(num=801, den=2)"
    assert repr(_tower_entry(3, 4)) == "FloorPow(base=3, height=4)"
    assert a.to_json() == {"kind": "ceil_exp", "arg": "801/2"}
    assert _tower_entry(3, 4).to_json() == {"kind": "floor_tower", "c": 3, "h": 4}
    assert _tower_entry(3, 1).to_json() == 19


# -- one representation per entry value ----------------------------------------


def _symbolic_entry_fits_a_machine_int(e) -> bool:
    """Whether a FloorPow or CeilExp holds a value its enclosures pin to a machine integer."""
    if isinstance(e, FloorPow):
        return _LazyFloorPow(e.base, e.height).as_int() is not None
    if isinstance(e, CeilExp):
        return _LazyCeilExp(Fraction(e.num, e.den)).as_int() is not None
    assert isinstance(e, IntEntry)
    return False


PARSED_ENTRIES = ([{"kind": "floor_tower", "c": c, "h": h} for c in (1, 2, 3, 10, 36, 37, 700)
                   for h in (1, 2, 3)]
                  + [{"kind": "ceil_exp", "arg": f"{a.numerator}/{a.denominator}"}
                     for a in CEIL_ARGS])


def test_no_public_path_hands_out_a_symbolic_machine_integer():
    parsed = SymbolSeq.from_json({"prefix": PARSED_ENTRIES, "tail": {"kind": "const", "c": 0}})
    seqs = [parsed,
            const_seq(3, (1, -4)),
            periodic_seq((2, 0, -5), (7,)),
            fexp_seq(1), fexp_seq(3, (0, 2)), fexp_seq(700),
            SymbolSeq((), ExpTowerTail(2, anchor=-2)),
            linexp_seq(1), linexp_seq("1/3", (5,)), linexp_seq("1/100"), linexp_seq(700),
            SymbolSeq((), LinExpTail(2, 7, 40))]
    for seq in seqs:
        for s in (seq, seq.shift(1), seq.shift(7)):
            for n in range(401 if s is not parsed else len(PARSED_ENTRIES)):
                assert not _symbolic_entry_fits_a_machine_int(s.entry(n)), (s, n)


def test_small_parsed_entries_round_trip_to_the_same_json_integer():
    desc = {"prefix": [{"kind": "floor_tower", "c": 3, "h": 1},
                       {"kind": "floor_tower", "c": 3, "h": 2},
                       {"kind": "ceil_exp", "arg": "1"}, {"kind": "ceil_exp", "arg": "0"},
                       {"kind": "ceil_exp", "arg": "801/2"}],
            "tail": {"kind": "const", "c": 0}}
    seq = SymbolSeq.from_json(desc)
    assert seq.prefix[:4] == (IntEntry(19), IntEntry(194421087), IntEntry(2), IntEntry(0))
    out = seq.to_json()
    assert out["prefix"] == [19, 194421087, 2, 0, {"kind": "ceil_exp", "arg": "801/2"}]
    again = SymbolSeq.from_json(json.loads(json.dumps(out)))
    assert again == seq and again.to_json() == out


def test_thinning_caps_are_machine_integers_when_they_fit():
    # one thinning step builds every cap, in the prefix and past it
    bases = [fexp_seq(10), linexp_seq(3), linexp_seq("1/2"),
             SymbolSeq.from_json({"prefix": [0, {"kind": "floor_tower", "c": 10, "h": 2}, 7,
                                             {"kind": "ceil_exp", "arg": "801/2"}, 90, 3000],
                                  "tail": {"kind": "linexp", "c": "3/2"}})]
    for base in bases:
        for alpha in (AlphaIndex((0,)), AlphaIndex((0, 1))):
            for m in (0, 1, 3):
                w = witness_sequence(base, alpha, m)
                for n in range(80):
                    assert not _symbolic_entry_fits_a_machine_int(w.entry(n)), (base, m, n)


@pytest.mark.parametrize("c, message", [
    (True, "rational expected"), ([1], "bad rational"), ("1/0", "bad rational"),
    ("abc", "bad rational"), (math.inf, "bad rational"), (math.nan, "bad rational"),
    ("1/100000", "outside supported range"),
])
def test_malformed_ramp_rates_are_descriptor_errors(c, message):
    with pytest.raises(DescriptorError, match=message):
        SymbolSeq.from_json({"prefix": [], "tail": {"kind": "linexp", "c": c}})


def test_a_float_ramp_rate_is_read_exactly():
    tail = {"kind": "linexp", "c": 0.25}
    parsed = SymbolSeq.from_json({"prefix": [], "tail": tail}).tail
    assert (parsed.num, parsed.den) == (1, 4)


@pytest.mark.parametrize("tail, text", [
    ({"kind": "linexp", "c": "2/4"}, {"kind": "linexp", "c": "1/2"}),
    ({"kind": "linexp", "c": "0.5"}, {"kind": "linexp", "c": "1/2"}),
    ({"kind": "linexp", "c": 0.5}, {"kind": "linexp", "c": "1/2"}),
    ({"kind": "linexp", "c": 1}, {"kind": "linexp", "c": "1/1"}),
    ({"kind": "linexp", "c": "3/6", "offset": 4}, {"kind": "linexp", "c": "1/2", "offset": 4}),
    ({"kind": "linexp", "c": "700"}, {"kind": "linexp", "c": "700/1"}),
])
def test_ramp_rates_print_reduced(tail, text):
    # the text every earlier release printed: the rate reduced, as num/den
    seq = SymbolSeq.from_json({"prefix": [{"kind": "ceil_exp", "arg": "6/4"},
                                          {"kind": "ceil_exp", "arg": "1602/4"}], "tail": tail})
    assert seq.to_json() == {"prefix": [4, {"kind": "ceil_exp", "arg": "801/2"}], "tail": text}
    assert seq.shift(3).to_json()["tail"] == {**text, "offset": text.get("offset", 0) + 3}


@pytest.mark.parametrize("c, message", [
    ("1/10000", None), ("700", None), ("7000/10", None), ("2/20000", None),
    ("9999999/100000000000", "outside supported range"), ("1/10001", "outside supported range"),
    ("700000000001/1000000000", "outside supported range"), ("701", "outside supported range"),
    ("0", "positive rational rate"), ("-1/2", "positive rational rate"),
])
def test_ramp_rate_bounds_hold_at_each_end(c, message):
    desc = {"prefix": [], "tail": {"kind": "linexp", "c": c}}
    if message is None:
        tail = SymbolSeq.from_json(desc).tail
        assert Fraction(tail.num, tail.den) == Fraction(c)
    else:
        with pytest.raises(DescriptorError, match=message):
            SymbolSeq.from_json(desc)


@pytest.mark.parametrize("num, den, message", [
    (2, 4, "coprime ints"), (0, 5, "coprime ints"), (True, 1, "coprime ints"),
    (1.5, 1, "coprime ints"), (1, 0, "positive rational rate"), (1, -2, "positive rational rate"),
    (-1, 2, "positive rational rate"), (1, 10001, "supported range"), (1401, 2, "supported range"),
    (0, 1, "positive rational rate"),
])
def test_a_ramp_rule_built_directly_holds_coprime_ints(num, den, message):
    with pytest.raises(DescriptorError, match=message):
        LinExpTail(num, den)


@pytest.mark.parametrize("num, den, message", [
    # (1, 0) once raised a bare ZeroDivisionError; 1.5 and True printed "1.5/1" and "True/1",
    # which the parser refuses; (2, 4) printed "2/4" and differed from the entry of 1/2
    *((num, den, "ceil_exp arg must be coprime ints with den > 0")
      for num, den in ((1, 0), (1, -2), (1.5, 1), (True, 1), (2, 4), (0, 2))),
    (-1, 2, "ceil_exp needs a nonnegative arg"),
])
def test_a_ramp_entry_built_directly_holds_coprime_ints(num, den, message):
    with pytest.raises(DescriptorError, match=f"^{re.escape(message)}$"):
        CeilExp(num, den)


def test_integer_entries_are_shared_and_keep_their_type():
    a, b = SymbolSeq.from_json({"prefix": [7, -3, 7], "tail": {"kind": "periodic",
                                                             "pattern": [-3, 7]}}), const_seq(7)
    assert a.entry(0) is a.entry(2) is a.entry(4) is b.entry(0)
    assert a.entry(1) is a.entry(3)
    # True == 1 and 1.0 == 1, yet neither reads as the entry of 1, nor 1 as theirs
    one = SymbolSeq((1,), ConstTail(0)).entry(0)
    assert type(_int_entry(True).value) is bool
    assert type(_int_entry(1.0).value) is float
    assert SymbolSeq((1,), ConstTail(0)).entry(0) is one and type(one.value) is int


@pytest.mark.parametrize("descriptor, message", [
    ({"prefix": [True], "tail": {"kind": "const", "c": 0}}, "bad prefix entry True"),
    ({"prefix": [{"kind": "wat"}], "tail": {"kind": "const", "c": 0}}, "unknown prefix entry"),
    ({"prefix": [], "tail": {"c": 1}}, "tail must be an object with a kind"),
    ({"prefix": [], "tail": {"kind": "periodic", "pattern": 1}}, "pattern list"),
    ({"prefix": [], "tail": {"kind": "linexp", "c": "1", "offset": -1}}, "nonnegative"),
])
def test_malformed_descriptors_name_their_fault(descriptor, message):
    with pytest.raises(DescriptorError, match=message):
        SymbolSeq.from_json(descriptor)


def test_bounded_tails_refuse_a_bad_value_when_built():
    # a constant past double range once raised a bare OverflowError from height(), and a
    # float constant gave itself as abs_bound(): each rule now refuses such a value when
    # built, with the message a parsed descriptor gets
    for build, bad, message in (
            (ConstTail, 10**400, "const c beyond double range"),
            (ConstTail, 1.5, "const c must be an integer, got 1.5"),
            (PeriodicTail, (1, -10**400), "periodic entry beyond double range"),
            (PeriodicTail, (2, 1.5), "periodic entry must be an integer, got 1.5"),
            (PeriodicTail, (), "periodic tail needs a nonempty integer pattern")):
        with pytest.raises(DescriptorError, match=f"^{re.escape(message)}$"):
            build(bad)
        tail = ({"kind": "const", "c": bad} if build is ConstTail
                else {"kind": "periodic", "pattern": list(bad)})
        with pytest.raises(DescriptorError, match=f"^{re.escape(message)}$"):
            SymbolSeq.from_json({"prefix": [], "tail": tail})


@pytest.mark.parametrize("build, tail, message", [
    # nesting_anchor of the first two once looped forever, and potential_floor of the third
    # raised a bare OverflowError
    (lambda: ExpTowerTail(0), {"kind": "fexp", "c": 0}, "fexp c outside supported range [1, 700]"),
    (lambda: LinExpTail(0, 1), {"kind": "linexp", "c": 0},
     "linexp tail needs a positive rational rate"),
    (lambda: ExpTowerTail(10**400), {"kind": "fexp", "c": 10**400},
     "fexp c outside supported range [1, 700]"),
    (lambda: ExpTowerTail(3, 1.5), {"kind": "fexp", "c": 3, "anchor": 1.5},
     "fexp anchor must be an integer, got 1.5"),
    (lambda: LinExpTail(1, 0), None, "linexp tail needs a positive rational rate"),
    (lambda: LinExpTail(1, 1, 0.5), {"kind": "linexp", "c": 1, "offset": 0.5},
     "linexp offset must be an integer, got 0.5"),
    # these two were once refused only when an entry was built, as a negative ceil_exp arg
    (lambda: LinExpTail(-1), {"kind": "linexp", "c": -1},
     "linexp tail needs a positive rational rate"),
    (lambda: LinExpTail(1, 1, -5), {"kind": "linexp", "c": 1, "offset": -5},
     "linexp offset must be nonnegative"),
])
def test_tower_and_ramp_rules_refuse_a_bad_value_when_built(build, tail, message):
    # the rule's constructor alone refuses, with the message a parsed descriptor gets
    with pytest.raises(DescriptorError, match=f"^{re.escape(message)}$"):
        build()
    if tail is not None:
        with pytest.raises(DescriptorError, match=f"^{re.escape(message)}$"):
            SymbolSeq.from_json({"prefix": [], "tail": tail})


def test_a_constant_tail_keeps_one_pattern_outside_its_fields():
    tail = ConstTail(-3)
    assert tail.pattern == (-3,) and tail.pattern is tail.pattern
    assert tail == ConstTail(-3) and hash(tail) == hash(ConstTail(-3))
    assert repr(tail) == "ConstTail(c=-3)" and tail.to_json() == {"kind": "const", "c": -3}
    assert tail.abs_bound() == 3.0 and tail.period == 1


def test_sequence_guards_and_repr():
    with pytest.raises(DescriptorError, match="const c must be an integer"):
        SymbolSeq((), ConstTail(1.5))
    with pytest.raises(DescriptorError, match="^bad prefix entry 1.5$"):
        SymbolSeq((1.5,), ConstTail(0))
    seq = const_seq(1, (7,))
    with pytest.raises(ValueError, match="index"):
        seq.entry(-1)
    with pytest.raises(ValueError, match="shift"):
        seq.shift(-1)
    assert repr(seq) == "SymbolSeq([7] + {'kind': 'const', 'c': 1})"


def test_tower_thinning_cannot_order_a_cap_past_double_range():
    # F^6(3) saturates to [HUGE, inf), and the cap 1e308 lies in it
    with pytest.raises(IncomparableTailsError, match="after stripping"):
        ExpTowerTail(3).thin(0, 5, int(1e308), 6)


def test_ramp_thinning_gives_up_past_its_crossover_scan():
    with pytest.raises(IncomparableTailsError, match="no certified crossover"):
        LinExpTail(1).thin(0, 0, 3, 100_001)


def test_ramp_arguments_past_double_range_are_descriptor_errors():
    # offset + 1 lies past the largest double: each reader of the ramp argument
    # there says so, not with an OverflowError; the entry there is a symbolic
    # entry past double range, which names itself as one built directly does
    edge = LinExpTail(1, 1, 2**1024 - 2**970 - 1)
    for read in (lambda: edge.closing_terms(0, 0, 1), lambda: edge.nesting_anchor(0),
                 lambda: edge.thin(0, 0, 3, 1)):
        with pytest.raises(DescriptorError, match="^linexp argument beyond double range$"):
            read()
    for build in (lambda: edge.entry_at(0, 1), lambda: CeilExp(2**1100)):
        with pytest.raises(DescriptorError, match="^ceil_exp arg beyond double range$"):
            build()


def test_a_ramp_at_the_top_of_double_range_closes_its_hull():
    # the next argument rounds to +inf, where the closing check cannot read
    # ln(2 + a_next) <= a + 1; past the overflow guard that holds unchecked
    top = LinExpTail(1, 1, int(1.7976931348623157e308))
    assert top.closing_terms(0, 0, 1) == (Interval(0.0, math.inf, False, True),)
    level, seed = top.nesting_anchor(0)
    assert level == 0 and seed.lo == 1.7976931348623157e308 and seed.hi == math.inf
    # the anchor past the guard reads no further argument, which here lies past double range
    assert LinExpTail(1, 1, 2**1024 - 2**970 - 2).nesting_anchor(0)[1].hi == math.inf


def test_a_ramp_past_the_overflow_guard_keeps_its_rule_below_the_cap():
    # at n = 3 the argument is 2100 and the cap F^2(3) ~ 1.9e8: the ramp stays below
    witness = witness_sequence(linexp_seq(700), AlphaIndex((0,)), 0)
    assert witness.to_json() == {"prefix": [0, 19, 194421087],
                                 "tail": {"kind": "linexp", "c": "700/1"}}
