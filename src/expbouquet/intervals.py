"""Directed-rounding interval arithmetic.

Every certified quantity in this package (potentials, endpoint heights,
orbit coordinates) is carried as an ``Interval`` with outward rounding via
``math.nextafter``, so enclosures are sound under double precision.  Upper
bounds saturate to ``+inf`` (flagged open) once the growth map e^t - 1
overflows; lower bounds saturate to a certified huge constant instead, so
"this value exceeds any threshold we care about" remains decidable.

Threshold questions are answered as a ``TriBool``: yes / no / unknown, the
last carrying the blocking enclosure as evidence.
"""

from __future__ import annotations

import functools
import math
import operator

# expm1 overflows just above e^709 ~ 8.2e307
EXP_OVERFLOW_T = 709.0
# real parts above this are not stepped: e^700 ~ 1e304 leaves headroom below overflow
OVERFLOW_GUARD = 700.0
# certified lower saturation: 8e307 < e^709 - 1, so growth of any t > 709 exceeds it
HUGE = 8.0e307
# beyond this, a +-1 floor/ceil slack propagates through one log far below 1 ulp
TOWER_PIN = 1e30
# growth-map arguments above this pin a +-1 slack below 1e-30 after one log
PIN_ARG = 80.0

DEFAULT_TOL = 1e-9


def check_tolerance(tol: float) -> None:
    """Reject a tolerance that is not positive and finite (NaN fails every comparison)."""
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")


class RigorError(Exception):
    """An enclosure violated a proven bound; indicates a bug, never bad input."""


def round_down(x: float) -> float:
    # nextafter leaves NaN and the infinity it steps towards as they are
    return x if x == math.inf else math.nextafter(x, -math.inf)


def round_up(x: float) -> float:
    return x if x == -math.inf else math.nextafter(x, math.inf)


def sum_down(a: float, b: float) -> float:
    """Largest double certainly <= a + b (2Sum error term decides the direction)."""
    s = a + b
    if not math.isfinite(s):
        return -math.inf if math.isnan(s) else s
    bv = s - a
    err = (a - (s - bv)) + (b - bv)
    # s is finite here: the step down is round_down(s), taken directly
    return s if err >= 0 else math.nextafter(s, -math.inf)


def sum_up(a: float, b: float) -> float:
    """Smallest double certainly >= a + b."""
    s = a + b
    if not math.isfinite(s):
        return math.inf if math.isnan(s) else s
    bv = s - a
    err = (a - (s - bv)) + (b - bv)
    return s if err <= 0 else math.nextafter(s, math.inf)


def expm1_down(t: float) -> float:
    """Certified lower bound of e^t - 1, saturating at HUGE."""
    if t == 0.0:
        return 0.0
    # the guard comes first, so expm1 never overflows: e^709 < 8.3e307, and a
    # NaN passes the guard and comes back NaN without raising
    if t > EXP_OVERFLOW_T:
        return HUGE
    # e^t - 1 > -1 always
    return max(round_down(math.expm1(t)), -1.0)


def expm1_up(t: float) -> float:
    """Certified upper bound of e^t - 1 (+inf once the double range is exceeded)."""
    if t == 0.0:
        return 0.0
    try:
        return round_up(math.expm1(t))
    except OverflowError:
        return math.inf


# round_down and round_up taken directly: log1p is +inf only at +inf and never -inf (it
# raises at -1), so only the lower end keeps +inf as it is
def log1p_down(x: float) -> float:
    return 0.0 if x == 0.0 else x if x == math.inf else math.nextafter(math.log1p(x), -math.inf)


def log1p_up(x: float) -> float:
    return 0.0 if x == 0.0 else math.nextafter(math.log1p(x), math.inf)


class Interval:
    """Enclosure [lo, hi] of one real value, with open/closed endpoint flags.

    ``hi = inf`` with ``hi_open`` means "finite but beyond double range" (the
    saturation case): every potential and endpoint height is finite, so the
    model's enclosures never carry a closed ``hi = inf``.

    Immutable, compared and hashed by its field tuple ``bounds()``.  The
    constructor validates every result, arithmetic ones included.
    """

    __slots__ = ("lo", "hi", "lo_open", "hi_open")

    def __init__(self, lo: float, hi: float, lo_open: bool = False, hi_open: bool = False):
        # lo < hi (whatever the flags) or a closed point lo == hi needs no further test
        if not (lo < hi or lo == hi and not (lo_open or hi_open)):
            if math.isnan(lo) or math.isnan(hi):
                raise RigorError("NaN endpoint in interval")
            if lo > hi:
                raise RigorError(f"inverted interval [{lo}, {hi}]")
            if lo_open or hi_open:
                raise RigorError(f"empty interval at {lo}")
        _set_lo(self, lo)
        _set_hi(self, hi)
        _set_lo_open(self, lo_open)
        _set_hi_open(self, hi_open)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Interval fields are read-only: {name!r}")

    __delattr__ = __setattr__

    def bounds(self) -> tuple[float, float, bool, bool]:
        """The field tuple (lo, hi, lo_open, hi_open)."""
        return (self.lo, self.hi, self.lo_open, self.hi_open)

    def __eq__(self, other):
        if other.__class__ is not Interval:
            return NotImplemented
        return self.bounds() == other.bounds()

    def __hash__(self) -> int:
        return hash(self.bounds())

    def __reduce__(self):
        return (Interval, self.bounds())

    # -- constructors ------------------------------------------------------

    @staticmethod
    def point(v: float) -> "Interval":
        return Interval(v, v)

    @staticmethod
    def from_int(n: int) -> "Interval":
        """Tightest enclosure of an integer; a point when the double is exact, open at +inf."""
        iv = Interval.from_ratio(n, 1)
        return iv if iv.hi < math.inf else Interval(iv.lo, iv.hi, False, True)

    @staticmethod
    def from_ratio(num: int, den: int) -> "Interval":
        """Tightest enclosure of num/den for den > 0; a point when the double is exact."""
        f = num / den  # correctly rounded; OverflowError beyond the double range
        p, q = f.as_integer_ratio()
        d = p * den - num * q  # the sign of f - num/den, in exact integers (den, q > 0)
        if d == 0:
            return Interval(f, f)
        if d < 0:
            return Interval(f, round_up(f))
        return Interval(round_down(f), f)

    @staticmethod
    def from_fraction(fr: Fraction) -> "Interval":
        """Tightest enclosure of a rational; a point when the double is exact."""
        return Interval.from_ratio(fr.numerator, fr.denominator)

    # -- basic queries -----------------------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        if self.hi == math.inf:
            return self.lo
        if self.lo == -math.inf:
            return self.hi
        return 0.5 * (self.lo + self.hi)

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    # -- arithmetic (outward rounded) ---------------------------------------

    def __add__(self, other) -> "Interval":
        o = other if isinstance(other, Interval) else Interval.point(float(other))
        return Interval(sum_down(self.lo, o.lo), sum_up(self.hi, o.hi),
                        self.lo_open or o.lo_open, self.hi_open or o.hi_open)

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        o = other if isinstance(other, Interval) else Interval.point(float(other))
        return Interval(sum_down(self.lo, -o.hi), sum_up(self.hi, -o.lo),
                        self.lo_open or o.hi_open, self.hi_open or o.lo_open)

    def ln1p(self) -> "Interval":
        """Image under the strictly increasing map t -> ln(1 + t)."""
        lo, hi = _ln1p_bounds(self.lo, self.hi)
        return Interval(lo, hi, self.lo_open, self.hi_open)

    def growth(self) -> "Interval":
        """Image under t -> e^t - 1, saturating outside the double range."""
        lo, hi, hi_open = _growth_bounds(self.lo, self.hi, self.hi_open)
        return Interval(lo, hi, self.lo_open, hi_open)

    # -- threshold decisions -------------------------------------------------

    def certainly_gt(self, r: float) -> bool:
        return self.lo > r or (self.lo == r and self.lo_open)

    def certainly_lt(self, r: float) -> bool:
        return self.hi < r or (self.hi == r and self.hi_open)

    def certainly_le(self, r: float) -> bool:
        return self.hi <= r

    def tri_gt(self, r: float) -> "TriBool":
        if self.certainly_gt(r):
            return TriBool.yes()
        if self.certainly_le(r):
            return TriBool.no()
        return TriBool.unknown(self)

    # -- lattice helpers -----------------------------------------------------

    def intersect(self, other: "Interval") -> "Interval":
        if other.lo > self.lo or (other.lo == self.lo and other.lo_open):
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open
        if other.hi < self.hi or (other.hi == self.hi and other.hi_open):
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open
        if lo > hi or (lo == hi and (lo_open or hi_open)):
            raise RigorError(f"empty intersection of {self} and {other}")
        return Interval(lo, hi, lo_open, hi_open)

    @staticmethod
    def sup_hull(terms: list["Interval"]) -> "Interval":
        """Enclosure of sup(v_1, v_2, ...) given enclosures of each v_i.

        The sup is > every open lower bound and <= every term's upper bound,
        so [max lo, max hi] is sound; on ties an open lower bound is kept
        (strict information survives) and the upper stays closed unless all
        maximal terms are open.
        """
        if not terms:
            raise ValueError("sup_hull of no terms")
        lo, lo_open, hi, hi_open = -math.inf, False, -math.inf, True
        for t in terms:
            if t.lo > lo or (t.lo == lo and t.lo_open):
                lo, lo_open = t.lo, t.lo_open
            if t.hi > hi:  # the first of equal upper ends, as max() keeps it
                hi, hi_open = t.hi, t.hi_open
            elif t.hi == hi:
                hi_open = hi_open and t.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        lo, hi = self.lo, self.hi
        return {"lo": "inf" if lo == math.inf else "-inf" if lo == -math.inf else lo,
                "hi": "inf" if hi == math.inf else "-inf" if hi == -math.inf else hi,
                "lo_open": self.lo_open, "hi_open": self.hi_open}

    def __repr__(self) -> str:
        lb = "(" if self.lo_open else "["
        rb = ")" if self.hi_open else "]"
        return f"{lb}{self.lo:.17g}, {self.hi:.17g}{rb}"


# a constructor writes its slots past the read-only __setattr__ of its class with this
_set_slot = object.__setattr__


class Frozen:
    """Base of the immutable value classes, which follow ``Interval``'s rules.

    ``_fields`` names the constructor's arguments, in order.  Two instances of one class are
    equal when these are; they hash, print as ``Class(name=value, ...)`` and pickle by them.
    Any other slot holds what the constructor derives from them.  Assignment raises.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if cls._fields:  # built in C: the field tuple, or the lone field's value
            cls._key = operator.attrgetter(*cls._fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} fields are read-only: {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        args = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({args})"


class TriBool(Frozen):
    """Certified three-valued answer; unknown carries the blocking enclosure."""

    __slots__ = _fields = ("value", "evidence")

    def __init__(self, value: bool | None, evidence: Interval | None = None):
        _set_slot(self, "value", value)
        _set_slot(self, "evidence", evidence)

    @staticmethod
    def yes() -> "TriBool":
        return _YES

    @staticmethod
    def no(evidence: Interval | None = None) -> "TriBool":
        return TriBool(False, evidence)

    @staticmethod
    def unknown(evidence: Interval | None = None) -> "TriBool":
        return TriBool(None, evidence)

    @property
    def is_true(self) -> bool:
        return self.value is True

    @property
    def is_false(self) -> bool:
        return self.value is False

    @property
    def is_unknown(self) -> bool:
        return self.value is None

    def label(self) -> str:
        return {True: "true", False: "false", None: "unknown"}[self.value]


_YES = TriBool(True)  # frozen and without evidence, so one instance serves every yes

_set_lo, _set_hi, _set_lo_open, _set_hi_open = (
    getattr(Interval, name).__set__ for name in Interval.__slots__)


# each directed step on endpoints has one implementation, shared by the methods
# and the float loops; rounded outward around an increasing map, an ordered
# pair stays ordered, so a loop validates once, when its result is wrapped
def _ln1p_bounds(lo: float, hi: float) -> tuple[float, float]:
    """Outward-rounded endpoints of ln(1 + [lo, hi]), domain-checked at every step."""
    if lo <= -1.0:
        raise RigorError(f"ln1p domain violation: lo = {lo}")
    # log1p_down(lo) and log1p_up(hi), inlined: growth_inv_pow takes this step in its loop
    down = 0.0 if lo == 0.0 else lo if lo == math.inf else math.nextafter(math.log1p(lo), -math.inf)
    return down, 0.0 if hi == 0.0 else math.nextafter(math.log1p(hi), math.inf)


def _growth_bounds(lo: float, hi: float, hi_open: bool) -> tuple[float, float, bool]:
    """Outward-rounded endpoints of e^[lo, hi] - 1 and the upper flag, open once hi saturates."""
    g_hi = expm1_up(hi)
    return expm1_down(lo), g_hi, hi_open or (g_hi == math.inf and hi != math.inf)


def ln1p_sum(a: Interval, w: tuple[float, float, bool, bool]) -> tuple[float, float, bool, bool]:
    """Endpoints of ln(1 + a + w), w given by its endpoints: one backward-nesting step."""
    lo, hi, lo_open, hi_open = w
    lo, hi = _ln1p_bounds(sum_down(a.lo, lo), sum_up(a.hi, hi))
    return lo, hi, a.lo_open or lo_open, a.hi_open or hi_open


def growth_sub(t: Interval, a: Interval) -> Interval:
    """F(t) - a, F(t) = e^t - 1, without building F(t): the model map's height step."""
    lo, hi, hi_open = _growth_bounds(t.lo, t.hi, t.hi_open)
    return Interval(sum_down(lo, -a.hi), sum_up(hi, -a.lo),
                    t.lo_open or a.hi_open, hi_open or a.lo_open)


def growth_pow(x: Interval | float | int, n: int) -> Interval:
    """Interval enclosure of the n-fold growth map F^n, F(t) = e^t - 1, n >= 0."""
    iv = x if isinstance(x, Interval) else Interval.point(float(x))
    state = (iv.lo, iv.hi, iv.hi_open)
    for _ in range(n):
        state, prev = _growth_bounds(*state), state
        if state == prev:
            # a step depends only on endpoint values and flags (a signed zero
            # takes the t == 0 branch), so the next is this one bit for bit: a
            # fixed point such as [HUGE, inf) or [0, 0] stays fixed for the rest
            break
    return Interval(state[0], state[1], iv.lo_open, state[2])


def growth_inv_pow(x: Interval | float | int, k: int, below: float = -math.inf) -> Interval | None:
    """Interval enclosure of the k-fold inverse growth map F^-k = ln(1 + .) iterated.

    None once the running upper end is strictly below ``below`` before a step.
    """
    iv = x if isinstance(x, Interval) else Interval.point(float(x))
    lo, hi = iv.lo, iv.hi
    for _ in range(k):
        if hi < below:
            return None
        lo, hi = _ln1p_bounds(lo, hi)
    return Interval(lo, hi, iv.lo_open, iv.hi_open)


def growth_net(x: Interval | float | int, e: int) -> Interval:
    """F^e for any integer e: forward growth for e >= 0, iterated ln(1+.) below.

    Integer bases (towers F^h(c) and their inverse steps) are memoised; the
    Interval results are frozen, so callers share them safely.
    """
    if type(x) is int:
        return _int_tower(x, e)
    if e >= 0:
        return growth_pow(x, e)
    return growth_inv_pow(x, -e)


# keyed by (int base, exponent) only: bools and floats never reach it, so
# True and 1.0 cannot alias the entry of 1
@functools.lru_cache(maxsize=4096)
def _int_tower(base: int, e: int) -> Interval:
    return growth_net(float(base), e)
