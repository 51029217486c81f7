"""Rule-described integer sequences and their symbolic entries.

A ``SymbolSeq`` is an exact finite prefix plus one of four decidable tail
rules.  Entry values that exceed the double/exact-integer range are never
materialized; they stay symbolic (``FloorPow``: the floor of an iterated
growth tower, ``CeilExp``: the ceiling of one exponential of a rational) and
every consumer works through certified enclosures with exponent
cancellation, so quantities like ln-of-a-tower stay computable.

Each tail rule also carries everything about it that the model and the
strata need (the ``TailRule`` protocol): where a potential's explicit terms
may stop, the eventual floor of the shifted potentials, the anchor of
backward nesting, and the bound or thinning step of its family.
"""

from __future__ import annotations

import functools
import itertools
import math
from enum import Enum
from typing import Protocol

from .intervals import (
    DEFAULT_TOL,
    OVERFLOW_GUARD,
    PIN_ARG,
    TOWER_PIN,
    Frozen,
    Interval,
    RigorError,
    _set_slot,
    expm1_down,
    growth_inv_pow,
    growth_net,
    growth_sub,
    ln1p_sum,
    log1p_up,
    round_down,
    round_up,
    sum_down,
    sum_up,
)

MAX_EXACT_INT = 2**53
_DOUBLE_END = 2**1024 - 2**970  # the least magnitude that float() refuses: largest double + ulp/2


class DescriptorError(ValueError):
    """Malformed sequence descriptor."""


class Asymptotics(Enum):
    """Behavior of the shifted potentials t -> sup_k F^-k |s_{n+k}| as n grows."""

    BOUNDED = "bounded"
    DIVERGES = "diverges_to_infinity"


# ---------------------------------------------------------------------------
# entries
# ---------------------------------------------------------------------------


def _log_correction(y_lo: float, y_hi: float) -> Interval:
    """The tower-relative log correction ln(1 + y) of one nesting step, y between y_lo and y_hi
    as computed: both rounded outward and widened to hold 0, then bounded by
    y - y^2 <= ln(1 + y) <= y (y >= -1/2).  It runs at every tower-relative step, so it calls
    nextafter directly, which differs from round_down and round_up only where the min and max
    with 0.0 drop the result."""
    lo = min(0.0, math.nextafter(y_lo, -math.inf))
    if lo < -0.5:
        raise RigorError("tiny ln1p bound needs y >= -1/2")
    hi = max(0.0, math.nextafter(y_hi, math.inf))
    return Interval(math.nextafter(lo - lo * lo, -math.inf), hi)


_LN2 = Interval(round_down(math.log(2.0)), round_up(math.log(2.0)))


class _TowerRel(Frozen):
    """Backward-nesting state F^height(base) + delta, for astronomically large levels."""

    __slots__ = _fields = ("base", "height", "delta")

    def __init__(self, base: int, height: int, delta: Interval):
        _set_slot(self, "base", base)
        _set_slot(self, "height", height)
        _set_slot(self, "delta", delta)

    def bounds(self) -> tuple:
        """Endpoints of the materialized state F^height(base) + delta."""
        return (growth_net(self.base, self.height) + self.delta).bounds()


class IntEntry(Frozen):
    """An exact machine integer entry."""

    _fields = ("value",)
    __slots__ = ("value", "_abs")

    def __init__(self, value: int):
        _set_slot(self, "value", value)
        _set_slot(self, "_abs", Interval.from_int(abs(value)))

    def abs_interval(self) -> Interval:
        return self._abs

    def pot(self, k: int, below: float = -math.inf) -> Interval | None:
        """Enclosure of F^-k |value|, or None once it falls below ``below``."""
        return growth_inv_pow(self._abs, k, below)

    def descend(self, state: tuple | _TowerRel) -> tuple:
        """One backward-nesting step: a state enclosing F^-1(|value| + w), w the given state.

        A plain state is carried as its endpoints (lo, hi, lo_open, hi_open).
        """
        return ln1p_sum(self._abs, state.bounds() if isinstance(state, _TowerRel) else state)

    def to_json(self):
        return self.value


class FloorPow(Frozen):
    """Symbolic entry floor(F^height(base)) with base >= 1, height >= 1.

    Its absolute value lies in (F^height(base) - 1, F^height(base)]; through
    F^-k this becomes (F^(height-k)(base) - 1, F^(height-k)(base)] because
    F^-k(t - 1) > F^-k(t) - 1.  Entries come from ``_tower_entry``, which
    gives an ``IntEntry`` instead when the value fits a machine integer.
    """

    _fields = ("base", "height")
    # the tower F^height(base): |entry| is built from it on request, as the potential and
    # tower-relative nesting loops, which build most symbolic towers, never ask for it
    __slots__ = ("base", "height", "_tower")

    def __init__(self, base: int, height: int):
        for v, what in ((base, "floor_tower base"), (height, "floor_tower height")):
            if type(v) is not int:  # int(v) would truncate a float and accept True
                raise DescriptorError(f"{what} must be an integer, got {v!r}")
            if not -_DOUBLE_END < v < _DOUBLE_END:
                raise DescriptorError(f"{what} beyond double range")
        if base < 1 or height < 1:
            raise DescriptorError("floor_tower needs base c >= 1 and height h >= 1")
        _set_slot(self, "base", base)
        _set_slot(self, "height", height)
        _set_slot(self, "_tower", growth_net(base, height))

    @staticmethod
    def from_json(obj: dict) -> Entry:
        e = FloorPow(_field(obj, "c", "floor_tower"), _field(obj, "h", "floor_tower"))
        return _tower_entry(e.base, e.height)

    def tower(self) -> Interval:
        return self._tower

    def abs_interval(self) -> Interval:
        t = self._tower
        return Interval(round_down(t.lo - 1.0), t.hi, True, t.hi_open)

    def pot(self, k: int, below: float = -math.inf) -> Interval:
        t = growth_net(self.base, self.height - k)
        return Interval(round_down(t.lo - 1.0), t.hi, True, t.hi_open)

    def descend(self, state: tuple | _TowerRel) -> tuple | _TowerRel:
        t = self._tower
        if isinstance(state, _TowerRel):
            if state.base == self.base and state.height == self.height and t.lo >= TOWER_PIN:
                # ln(1 + floor(A) + A + delta) = F^(h-1) + ln2 + ln1p((delta - phi - 1)/(2(1+A)))
                d = state.delta
                denom = 2.0 * (1.0 + t.lo)
                corr = _log_correction((d.lo - 2.0) / denom, (d.hi - 1.0) / denom)
                return _TowerRel(self.base, self.height - 1, _LN2 + corr)
            state = state.bounds()
        if t.lo < TOWER_PIN:
            return ln1p_sum(self.abs_interval(), state)
        # tower-relative step: ln(1 + floor(A) + w) = F^(h-1)(base) + ln(1 + (w - phi)/(1 + A))
        # with phi in [0, 1); the correction is ~1e-30, added as a rigorous tiny-log bound;
        # a small nonnegative w stays tower-relative, any other is materialized
        denom = 1.0 + t.lo
        corr = _log_correction((state[0] - 1.0) / denom, state[1] / denom)
        if state[1] / denom <= 0.5 and state[0] >= 0.0:
            return _TowerRel(self.base, self.height - 1, corr)
        return (growth_net(self.base, self.height - 1) + corr).bounds()

    def to_json(self):
        return {"kind": "floor_tower", "c": self.base, "h": self.height}


# keyed by ints only: every ramp argument num/den * m, of an entry, a closing term, an anchor
# or a thinning step, is read here, and a far index or shift is refused here alone
@functools.lru_cache(maxsize=1024)
def _ramp_arg(num: int, den: int, m: int) -> Interval:
    """The tightest enclosure of the ramp argument num/den * m."""
    try:
        return Interval.from_ratio(num * m, den)
    except OverflowError:
        raise DescriptorError("linexp argument beyond double range") from None


class CeilExp(Frozen):
    """Symbolic entry ceil(F(arg)) for a nonnegative rational arg = num/den, held as coprime ints.

    Lies in [F(arg), F(arg) + 1); through F^-k it lies in
    [F^-(k-1)(arg), F^-(k-1)(arg) + 1).  Entries come from ``_ramp_entry``,
    which gives an ``IntEntry`` instead when the value fits a machine integer.

    The tests arg <= PIN_ARG and arg <= OVERFLOW_GUARD read the upper end of
    the arg enclosure, the least double >= arg; as every bound is a
    double and arg >= 0, they are exact.
    """

    _fields = ("num", "den")
    __slots__ = ("num", "den", "_arg_iv", "_grow", "_abs")

    def __init__(self, num: int, den: int = 1):
        if not (type(num) is type(den) is int and den > 0 and math.gcd(num, den) == 1):
            raise DescriptorError("ceil_exp arg must be coprime ints with den > 0")
        if num < 0:
            raise DescriptorError("ceil_exp needs a nonnegative arg")
        a = _ramp_arg(num, den, 1)
        t = a.growth()
        _set_slot(self, "num", num)
        _set_slot(self, "den", den)
        _set_slot(self, "_arg_iv", a)
        _set_slot(self, "_grow", t)
        _set_slot(self, "_abs", Interval(
            t.lo, round_up(t.hi + 1.0) if math.isfinite(t.hi) else math.inf, t.lo_open, True))

    def abs_interval(self) -> Interval:
        return self._abs

    def pot(self, k: int, below: float = -math.inf) -> Interval | None:
        if self._arg_iv.hi <= OVERFLOW_GUARD:
            # ceil(F(a)) is in [F(a), F(a) + 1); push the slack through all k
            # inverse steps, where it contracts away
            return growth_inv_pow(self._abs, k, below)
        inner = growth_inv_pow(self._arg_iv, k - 1)
        return Interval(inner.lo, round_up(inner.hi + 1.0), inner.lo_open, True)

    def descend(self, state: tuple | _TowerRel) -> tuple:
        w = state.bounds() if isinstance(state, _TowerRel) else state
        if self._arg_iv.hi <= PIN_ARG:
            return ln1p_sum(self._abs, w)
        # ln(1 + ceil(F(a)) + w) = a + ln(1 + u e^-a), u in [w.lo, w.hi + 2)
        denom = 1.0 + self._grow.lo
        corr = _log_correction(w[0] / denom, (w[1] + 2.0) / denom)
        return (self._arg_iv + corr).bounds()

    @staticmethod
    def from_json(obj: dict) -> Entry:
        return _ramp_entry(*_parse_rational(_field(obj, "arg", "ceil_exp")).as_integer_ratio(), 1)

    def to_json(self):
        return {"kind": "ceil_exp", "arg": f"{self.num}/{self.den}"}


Entry = IntEntry | FloorPow | CeilExp


# Every entry, of a tail, a parsed prefix or a thinning cap, comes from these three factories;
# the tower and ramp ones decide from the enclosures their symbolic entry built.  Entries are
# immutable, so one memo serves every sequence; 256 hold a nesting walk, whose entries its
# anchor has just built (a slow ramp's potential asks for more, once each).
@functools.lru_cache(maxsize=1024, typed=True)  # typed: True and 1.0 keep their own entries
def _int_entry(v: int) -> IntEntry:
    """The entry of a machine integer, one per value: prefixes and patterns repeat few values."""
    return IntEntry(v)


@functools.lru_cache(maxsize=256)
def _tower_entry(c: int, h: int) -> Entry:
    """The entry floor(F^h(c)): an IntEntry when it fits a machine integer, else a FloorPow."""
    e = FloorPow(c, h)
    t = e.tower()
    if t.hi < MAX_EXACT_INT and math.floor(t.lo) == math.floor(t.hi):
        return _int_entry(math.floor(t.lo))
    return e


@functools.lru_cache(maxsize=256)
def _ramp_entry(num: int, den: int, m: int) -> Entry:
    """The entry ceil(F(num/den * m)): an IntEntry when it fits a machine int, else a CeilExp."""
    g = math.gcd(num * m, den)
    e = CeilExp(num * m // g, den // g)
    t = e._grow  # [0, 0] when arg == 0
    if t.hi < MAX_EXACT_INT and math.ceil(t.lo) == math.ceil(t.hi):
        return _int_entry(math.ceil(t.hi))
    return e


def _field(obj: dict, key: str, kind: str):
    """obj[key], or a DescriptorError naming the missing field and the kind."""
    if key not in obj:
        raise DescriptorError(f"{kind} needs the field {key!r}")
    return obj[key]


def _parse_kind(table: dict, obj: dict, what: str):
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in table:
        raise DescriptorError(f"unknown {what} kind {kind!r}")
    return table[kind].from_json(obj)


# ---------------------------------------------------------------------------
# comparisons with a thinning cap and tower-relative nesting states
# ---------------------------------------------------------------------------


class IncomparableTailsError(ValueError):
    """The thinning min could not be resolved by a certified comparison."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def _thin_entry(entry: Entry, c: int, h: int) -> Entry | None:
    """The thinning step min(|entry|, floor(F^h(c))) as an entry: the kept entry, the cap
    entry, or None when no certified comparison decides it.

    floor monotonicity: A <= B certifies floor(A) <= floor(B), so interval
    separation of the underlying reals decides the min, and equal towers too.
    """
    cap = _tower_entry(c, h)
    if isinstance(entry, FloorPow) and (entry.base, entry.height) == (c, h):
        return cap
    ev = abs(entry.value) if isinstance(entry, IntEntry) else None
    cv = cap.value if isinstance(cap, IntEntry) else None
    kept = entry if ev is None else _int_entry(ev)
    if ev is not None and cv is not None:
        return kept if ev <= cv else cap
    a = entry.abs_interval()
    b = growth_net(c, h)
    if (ev is not None and b.lo >= ev + 1) or a.hi <= sum_down(b.lo, -1.0):
        return kept
    if b.hi <= sum_down(a.lo, -1.0) or (cv is not None and a.lo >= cv + 1):
        return cap
    return None


def _ramp_below_cap_from(a: Interval, rate_hi: float, cap_below: Interval) -> bool:
    """Certify ceil(F(arg)) stays below the thinning cap from this index on.

    ``a`` encloses the ramp argument arg, ``rate_hi`` bounds the rate above
    and ``cap_below`` encloses F^(n-m-1)(cap_c).  Holds once
    F^(n-m-1)(cap_c) >= arg + 1 and F(arg + 1) >= arg + rate + 2; both persist
    as n grows (the tower at least squares, the ramp is linear).
    """
    if not (cap_below.lo >= sum_up(a.hi, 1.0) and a.lo >= 1.0):
        return False
    if a.lo >= OVERFLOW_GUARD:
        return True
    return expm1_down(sum_down(a.lo, 1.0)) >= sum_up(sum_up(a.hi, rate_hi), 2.0)


def _tower_pin_delta(a_lo: float) -> Interval:
    """Enclosure of the pinned offset: ln 2 - 3/(1+A) <= w - F^g(c) <= ln 2."""
    return Interval(round_down(_LN2.lo - 3.0 / (1.0 + a_lo)), _LN2.hi)


# ---------------------------------------------------------------------------
# tail rules
# ---------------------------------------------------------------------------


def _parse_rational(v) -> Fraction:
    from fractions import Fraction  # here alone: the model path never loads it otherwise
    if isinstance(v, bool):
        raise DescriptorError("rational expected")
    try:  # a non-finite float, a malformed string, a zero denominator or another type raises
        return Fraction(v)
    except (ArithmeticError, TypeError, ValueError) as e:
        raise DescriptorError(f"bad rational {v!r}") from e


class TailRule(Protocol):
    """Everything the model and the strata ask of a tail rule.

    ``p`` is always the prefix length of the sequence the tail belongs to.
    Bounded rules (constant, periodic) also give ``abs_bound``, ``pattern``
    and its least ``period``; diverging rules (tower, ramp) give
    ``potential_floor(p, threshold)``, an index from which every shifted
    potential is certainly above threshold (or None), and ``thin(p, m,
    cap_c, n)``: asked at the tail indices n = max(m + 1, p), ... in turn,
    the rule that min(|s_n|, floor(F^(n-m)(cap_c))) follows from n on, or
    None while entry-wise thinning must go on.
    """

    kind: str
    asymptotics: Asymptotics

    def entry_at(self, p: int, n: int) -> Entry:
        """Entry s_n at a tail index n >= p."""

    def shifted(self, p: int, k: int) -> TailRule:
        """The rule of the k-fold shifted sequence."""

    def to_json(self) -> dict:
        """The descriptor's ``tail`` object."""

    def closing_terms(self, p: int, shift: int, k: int,
                      below: float = -math.inf) -> tuple[Interval, ...] | None:
        """Terms closing the hull of potential(seq, shift) once term k, a tail term, is in.

        None while explicit terms must go on; the terms returned (possibly
        none) bound every later term, or lie below ``below``.
        """

    def nesting_anchor(self, p: int) -> tuple[int, Interval | _TowerRel]:
        """A backward-nesting start level and an enclosure of the height there."""


class _BoundedTail(Frozen):
    """Constant and periodic tails: |s_n| runs through a finite pattern."""

    __slots__ = ("pattern",)
    asymptotics = Asymptotics.BOUNDED

    def nesting_anchor(self, p: int) -> tuple[int, Interval]:
        return p, self.height()

    def abs_bound(self) -> float:
        """Upper bound of every |s_n| in the tail."""
        return max(_int_entry(v).abs_interval().hi for v in self.pattern)

    def entry_at(self, p: int, n: int) -> Entry:
        return _int_entry(self.pattern[(n - p) % len(self.pattern)])

    def shifted(self, p: int, k: int) -> "_BoundedTail":
        r = (k - p) % len(self.pattern) if k > p else 0
        return PeriodicTail(self.pattern[r:] + self.pattern[:r]) if r else self

    @property
    def period(self) -> int:
        """The pattern's least period: its least rotation that leaves it unchanged."""
        pat = self.pattern
        return next(d for d in range(1, len(pat) + 1) if pat[d:] + pat[:d] == pat)

    def closing_terms(self, p: int, shift: int, k: int, below: float = -math.inf):
        # after one full period of tail terms every later term repeats an
        # entry at a larger depth, so it is smaller
        return () if k - max(p - shift, 0) >= len(self.pattern) else None


class ConstTail(_BoundedTail):
    """s_n = c for every tail index."""

    __slots__ = _fields = ("c",)
    kind = "const"

    def __init__(self, c: int):
        if type(c) is not int:
            raise DescriptorError(f"const c must be an integer, got {c!r}")
        if not -_DOUBLE_END < c < _DOUBLE_END:
            raise DescriptorError("const c beyond double range")
        _set_slot(self, "c", c)
        _set_slot(self, "pattern", (c,))  # built once, outside ==, hash and repr

    @staticmethod
    def from_json(obj: dict) -> "ConstTail":
        return ConstTail(_field(obj, "c", "const tail"))

    def to_json(self) -> dict:
        return {"kind": "const", "c": self.c}

    # the constant alone sets it: a memo keyed by the rule, so built once per constant
    @functools.lru_cache(maxsize=256)
    def height(self) -> Interval:
        """The pure tail's height: the certified root of F(t) = |c| + t, by bisection."""
        a = _int_entry(self.c).abs_interval()
        if a.hi == 0.0:
            return Interval.point(0.0)
        lo, hi = 0.0, log1p_up(a.hi) + 1.0

        def h_sign(t: float) -> int:
            iv = growth_sub(Interval.point(t), a) - Interval.point(t)
            return 1 if iv.certainly_gt(0.0) else -1 if iv.certainly_lt(0.0) else 0

        if h_sign(hi) <= 0:  # F(hi) saturates for |c| near the double range
            return PeriodicTail(self.pattern).height()
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


class PeriodicTail(_BoundedTail):
    """s_n cycles through ``pattern`` starting at the first tail index."""

    __slots__ = ()
    _fields = ("pattern",)
    kind = "periodic"

    def __init__(self, pattern: tuple[int, ...]):
        if type(pattern) is not tuple or not pattern:  # a list, which no rule memo can key
            raise DescriptorError("periodic tail needs a nonempty integer pattern")
        for v in pattern:
            if type(v) is not int:
                raise DescriptorError(f"periodic entry must be an integer, got {v!r}")
            if not -_DOUBLE_END < v < _DOUBLE_END:
                raise DescriptorError("periodic entry beyond double range")
        _set_slot(self, "pattern", pattern)

    @staticmethod
    def from_json(obj: dict) -> "PeriodicTail":
        pattern = obj.get("pattern")
        if not isinstance(pattern, list):
            raise DescriptorError("periodic tail needs a pattern list")
        return PeriodicTail(tuple(pattern))

    def to_json(self) -> dict:
        return {"kind": "periodic", "pattern": list(self.pattern)}

    def height(self) -> Interval:
        """The pure tail's height, by contracting sweeps of ``ln1p_sum`` over one period: each sets
        w_r = ln(1 + |s_(r+1)| + w_(r+1)) for r = L-1, ..., 0, one chain from w_0."""
        if all(v == 0 for v in self.pattern):
            return Interval.point(0.0)
        pats = [_int_entry(v).abs_interval() for v in (self.pattern[0], *self.pattern[:0:-1])]
        w = (0.0, log1p_up(self.abs_bound()) + 1.0, False, False)
        goal = max(DEFAULT_TOL / 4.0, 4e-16 * w[1])
        for _ in range(4000):
            width = 0.0
            for a in pats:
                w = ln1p_sum(a, w)
                width = max(width, w[1] - w[0])
            if width < goal:
                break
        return Interval(*w)


class ExpTowerTail(Frozen):
    """s_n = floor(F^(n - anchor)(c)): the iterated-growth tower family.

    With the default anchor p - 1 this realizes s_(p+j) = floor(F^(j+1)(c)).
    The anchor is carried explicitly so shifts commute with entry lookup.
    """

    __slots__ = _fields = ("c", "anchor")
    kind = "fexp"
    asymptotics = Asymptotics.DIVERGES

    def __init__(self, c: int, anchor: int | None = None):
        if type(c) is not int:
            raise DescriptorError(f"fexp c must be an integer, got {c!r}")
        if anchor is not None:
            if type(anchor) is not int:
                raise DescriptorError(f"fexp anchor must be an integer, got {anchor!r}")
            if not -_DOUBLE_END < anchor < _DOUBLE_END:
                raise DescriptorError("fexp anchor beyond double range")
        if not 1 <= c <= OVERFLOW_GUARD:
            raise DescriptorError(f"fexp c outside supported range [1, {OVERFLOW_GUARD:g}]")
        _set_slot(self, "c", c)
        _set_slot(self, "anchor", anchor)

    @staticmethod
    def from_json(obj: dict) -> "ExpTowerTail":
        return ExpTowerTail(_field(obj, "c", "fexp tail"), obj.get("anchor"))

    def resolved_anchor(self, p: int) -> int:
        return p - 1 if self.anchor is None else self.anchor

    def entry_at(self, p: int, n: int) -> Entry:
        h = n - (p - 1 if self.anchor is None else self.anchor)  # resolved_anchor, inlined
        if h < 1:
            raise RigorError("fexp entry below its anchor")
        return _tower_entry(self.c, h)

    def shifted(self, p: int, k: int) -> "ExpTowerTail":
        return ExpTowerTail(self.c, self.resolved_anchor(p) - k)

    def to_json(self) -> dict:
        out = {"kind": "fexp", "c": self.c}
        if self.anchor is not None:
            out["anchor"] = self.anchor
        return out

    def closing_terms(self, p: int, shift: int, k: int, below: float = -math.inf):
        # all tail terms live in (F^E(c) - 1, F^E(c)], E = shift - anchor, and one whose entry
        # is a tower past 2^53 (a FloorPow, as are all later ones) is this window bit for bit
        anchor = self.resolved_anchor(p)
        if growth_net(self.c, shift + k + 1 - anchor).hi < MAX_EXACT_INT:
            return None
        net = growth_net(self.c, shift - anchor)
        lo = max(round_down(net.lo - 1.0), 0.0)
        return (Interval(lo, net.hi, lo > 0.0, net.hi_open),)

    def potential_floor(self, p: int, threshold: float) -> int | None:
        anchor = self.resolved_anchor(p)
        start = max(anchor + 1, 0)
        for n in range(start, start + 200):
            if sum_down(growth_net(self.c, n - anchor).lo, -1.0) > threshold:
                return n
        return None

    def nesting_anchor(self, p: int) -> tuple[int, _TowerRel]:
        """The first level whose tower passes TOWER_PIN, in tower-relative form.  The constructor
        holds c >= 1, so F^4(c) >= F^4(1) ~ 5.0e41 is above TOWER_PIN: g rises at most twice."""
        anchor = self.resolved_anchor(p)
        g = 1
        while growth_net(self.c, g + 1).lo < TOWER_PIN:
            g += 1
        level = max(p - 1, anchor + g, 0)
        g_level = level - anchor
        a_lo = growth_net(self.c, g_level + 1).lo
        if a_lo < TOWER_PIN:
            raise RigorError("tower pin level miscomputed")
        return level, _TowerRel(self.c, g_level, _tower_pin_delta(a_lo))

    def thin(self, p: int, m: int, cap_c: int, n: int) -> "ExpTowerTail":
        """The rule of min(|s_n|, floor(F^(n-m)(cap_c))) from the first index n asked on."""
        anchor = self.resolved_anchor(p)
        # both sides are towers, F^(n-anchor)(c) and F^(n-m)(cap_c), whose
        # exponents shift in lockstep; growth is strictly increasing, so
        # stripping the shared exponent keeps the order, and one comparison
        # decides every index
        common = min(m - anchor, 0)
        base = growth_net(self.c, m - anchor - common)
        cap = growth_net(cap_c, -common)
        if cap.hi < base.lo or (self.c, m - anchor) == (cap_c, 0):
            return ExpTowerTail(cap_c, anchor=m)  # or equal (c, exponent) pairs
        if base.hi < cap.lo:
            return ExpTowerTail(self.c, anchor=anchor)
        raise IncomparableTailsError(
            "tower tails incomparable after stripping",
            {"base_c": self.c, "base_exp": m - anchor, "cap_c": cap_c})


class LinExpTail(Frozen):
    """s_n = ceil(F(num/den * (n + offset))): one exponential of a linear ramp, coprime num, den."""

    __slots__ = _fields = ("num", "den", "offset")
    kind = "linexp"
    asymptotics = Asymptotics.DIVERGES

    def __init__(self, num: int, den: int = 1, offset: int = 0):
        if not (type(num) is type(den) is int and math.gcd(num, den) == 1):
            raise DescriptorError("linexp rate must be coprime ints")
        if type(offset) is not int:
            raise DescriptorError(f"linexp offset must be an integer, got {offset!r}")
        if num <= 0 or den <= 0:
            raise DescriptorError("linexp tail needs a positive rational rate")
        if abs(num * offset) >= _DOUBLE_END * den:
            raise DescriptorError("linexp rate * offset beyond double range")
        if 10000 * num < den or num > int(OVERFLOW_GUARD) * den:  # the guard is the integer 700
            raise DescriptorError(
                f"linexp rate outside supported range [1/10000, {OVERFLOW_GUARD:g}]")
        if offset < 0:
            raise DescriptorError("linexp offset must be nonnegative")
        _set_slot(self, "num", num)
        _set_slot(self, "den", den)
        _set_slot(self, "offset", offset)

    @staticmethod
    def from_json(obj: dict) -> "LinExpTail":
        rate = _parse_rational(_field(obj, "c", "linexp tail"))
        return LinExpTail(*rate.as_integer_ratio(), obj.get("offset", 0))

    def arg(self, n: int) -> Fraction:  # exact, for readers outside the package
        from fractions import Fraction
        return Fraction(self.num * (n + self.offset), self.den)

    def entry_at(self, p: int, n: int) -> Entry:
        return _ramp_entry(self.num, self.den, n + self.offset)

    def shifted(self, p: int, k: int) -> "LinExpTail":
        return LinExpTail(self.num, self.den, self.offset + k)

    def to_json(self) -> dict:
        out = {"kind": "linexp", "c": f"{self.num}/{self.den}"}
        if self.offset:
            out["offset"] = self.offset
        return out

    def closing_terms(self, p: int, shift: int, k: int, below: float = -math.inf):
        # Terms satisfy F^-k ceil(F(a)) < F^-k(F(a) + 1) <= F^-(k-1)(a + 1) once a >= 0.16
        # (there F(a) + 1 <= F(a + 1)); the envelope W_k = F^-(k-1)(a_k + 1) decreases from k
        # on when ln(2 + a_{k+1}) <= a_k + 1, and both conditions persist as k grows since the
        # ramp is linear while the logarithm flattens.  From a_k >= OVERFLOW_GUARD on, where
        # a_{k+1} + 1 may round to +inf, it holds unchecked: a_{k+1} + 2 <= a_k + 702 <= 3 a_k,
        # so ln(2 + a_{k+1}) <= ln 3 + ln a_k < a_k + 1.  An envelope wholly below ``below``
        # bounds terms that cannot touch the hull (see ``model.potential``): none is returned.
        m = shift + k + self.offset
        a_k, a_next = _ramp_arg(self.num, self.den, m), _ramp_arg(self.num, self.den, m + 1)
        if not (a_k.lo >= OVERFLOW_GUARD or a_k.lo >= 0.16
                and log1p_up(round_up(a_next.hi + 1.0)) <= sum_down(a_k.lo, 1.0)):
            return None
        env = growth_inv_pow(a_next + 1.0, k, below)
        return () if env is None else (Interval(0.0, env.hi, False, True),)

    def potential_floor(self, p: int, threshold: float) -> int | None:
        # the lower end of the enclosure of arg(n + 1) is the greatest double
        # <= arg(n + 1), so it exceeds threshold exactly when arg(n + 1)
        # reaches the least double a/b above threshold: n + 1 + offset >= a den / (b num)
        a, b = round_up(threshold).as_integer_ratio()
        start = max(p - 1, 0)
        n = max(start, -(-a * self.den // (b * self.num)) - 1 - self.offset)
        return n if n - start < 400000 else None

    @functools.lru_cache(maxsize=256)
    def nesting_anchor(self, p: int) -> tuple[int, Interval]:
        """Level n - 1 and the seed arg(n) + [0, (2 + U)/(1 + F(arg(n)).lo)) of its height.

        With a = arg(n), phi = ceil(F(a)) - F(a) < 1 and ln(1 + x) <= x, the height there,
        a + ln(1 + (phi + w_n) e^-a), is below a + (1 + U) e^-a: the upper end is open.
        U = arg(n + 1) + 2 >= w_n at every level: w_n <= t* + 1 (the sandwich), and with
        b = arg(n + 1) >= rate each term of t* is at most F^-(k-1)(b + (k-1) rate + ln 2),
        which is <= b + 1 as F(x) >= x + b + 1/2 for x >= b + 1.  A step down from level j
        shrinks widths by 1 + |s_j|.lo or more; n is the least n >= max(p, 1) at which the
        seed's width over a, times these factors for the tail levels below n, is at most
        2^-64 (a few dozen levels at rate 1/10000), or a >= OVERFLOW_GUARD: there (2 + U) e^-a
        <= (4 + 2a) e^-a is below half an ulp of a, so the seed ends one double above a.hi.
        The constructor holds rate >= 1/10000 and offset >= 0, so the loop returns by the level
        where a reaches OVERFLOW_GUARD, at most ceil(700 den/num) levels past max(p, 1); in
        practice at level 66 at rate 1/10000 and 18 at rate 1/4 (p = 0).
        """
        n = max(p, 1)
        shrink = 1.0  # upper bound of the product of slopes below level n
        while True:
            a = _ramp_arg(self.num, self.den, n + self.offset)
            if a.lo >= OVERFLOW_GUARD:
                return n - 1, Interval(a.lo, round_up(a.hi), False, True)
            u_hi = round_up(self.num * (n + 1 + self.offset) / self.den + 2.0)
            corr = round_up((2.0 + u_hi) / (1.0 + growth_net(a.lo, 1).lo))
            if round_up(corr * shrink) <= 2.0**-64:
                return n - 1, Interval(a.lo, round_up(a.hi + corr), False, True)
            shrink = round_up(shrink / sum_down(1.0, self.entry_at(p, n).abs_interval().lo))
            n += 1

    def thin(self, p: int, m: int, cap_c: int, n: int) -> "LinExpTail | None":
        """This rule from index n on once ceil(F(arg)) stays below the thinning cap, else None."""
        # the cap tower eventually dominates the single exponential, so a
        # finite scan reaches a certified crossover
        if n - m > 100000:
            raise IncomparableTailsError("no certified crossover within budget", {"m": m, "n": n})
        if _ramp_below_cap_from(_ramp_arg(self.num, self.den, n + self.offset),
                                _ramp_arg(self.num, self.den, 1).hi, growth_net(cap_c, n - m - 1)):
            return self
        return None


_ENTRY_KINDS = {"floor_tower": FloorPow, "ceil_exp": CeilExp}
_TAIL_KINDS = {rule.kind: rule for rule in (ConstTail, PeriodicTail, ExpTowerTail, LinExpTail)}


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


class SymbolSeq(Frozen):
    """Exact prefix plus tail rule; total over all indices n >= 0."""

    _fields = ("prefix", "tail")
    # a witness's cut (base, m), set by strata.witness_sequence; the memo is model.py's alone
    __slots__ = ("prefix", "tail", "cut", "_memo")

    def __init__(self, prefix: tuple[Entry, ...] = (), tail: TailRule = ConstTail(0)):
        norm = tuple(prefix)
        if not all(map(isinstance, norm, itertools.repeat(Entry))):  # entries stay as they are
            for v in norm:
                if isinstance(v, bool) or not isinstance(v, int | Entry):
                    raise DescriptorError(f"bad prefix entry {v!r}")
                if isinstance(v, int) and not -_DOUBLE_END < v < _DOUBLE_END:
                    raise DescriptorError("prefix integer beyond double range")
            norm = tuple([_int_entry(v) if isinstance(v, int) else v for v in norm])
        if isinstance(tail, ExpTowerTail) and tail.anchor is not None and tail.anchor >= len(norm):
            raise DescriptorError("fexp anchor beyond the first tail index")
        _set_slot(self, "prefix", norm)
        _set_slot(self, "tail", tail)
        _set_slot(self, "cut", None)
        _set_slot(self, "_memo", {})

    # -- entry access --------------------------------------------------------

    def entry(self, n: int) -> Entry:
        if n < 0:
            raise ValueError("negative sequence index")
        if n < (p := len(self.prefix)):
            return self.prefix[n]
        return self.tail.entry_at(p, n)

    def shift(self, n: int = 1) -> "SymbolSeq":
        """Descriptor of the n-fold shifted sequence (drop the first n entries)."""
        if n < 0:
            raise ValueError("shift must be >= 0")
        if n == 0:
            return self
        p = len(self.prefix)
        return SymbolSeq(self.prefix[n:], self.tail.shifted(p, n))

    @property
    def asymptotics(self) -> Asymptotics:
        return self.tail.asymptotics

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {"prefix": [e.to_json() for e in self.prefix], "tail": self.tail.to_json()}

    @staticmethod
    def from_json(obj) -> "SymbolSeq":
        if not isinstance(obj, dict):
            raise DescriptorError("descriptor must be an object")
        prefix, tail = obj.get("prefix", []), obj.get("tail")
        if not isinstance(prefix, list):
            raise DescriptorError("prefix must be a list")
        if not isinstance(tail, dict) or "kind" not in tail:
            raise DescriptorError("tail must be an object with a kind")
        return SymbolSeq(tuple([_parse_kind(_ENTRY_KINDS, v, "prefix entry")
                                if isinstance(v, dict) else v for v in prefix]),
                         _parse_kind(_TAIL_KINDS, tail, "tail"))

    def __repr__(self) -> str:
        pfx = ",".join(str(e.to_json()) for e in self.prefix)
        return f"SymbolSeq([{pfx}] + {self.tail.to_json()})"


def const_seq(c: int, prefix: tuple[int, ...] = ()) -> SymbolSeq:
    return SymbolSeq(tuple(prefix), ConstTail(c))


def fexp_seq(c: int, prefix: tuple[int, ...] = ()) -> SymbolSeq:
    return SymbolSeq(tuple(prefix), ExpTowerTail(c))


def linexp_seq(rate, prefix: tuple[int, ...] = ()) -> SymbolSeq:
    return SymbolSeq(tuple(prefix), LinExpTail(*_parse_rational(rate).as_integer_ratio()))


def periodic_seq(pattern: tuple[int, ...], prefix: tuple[int, ...] = ()) -> SymbolSeq:
    return SymbolSeq(tuple(prefix), PeriodicTail(tuple(pattern)))
