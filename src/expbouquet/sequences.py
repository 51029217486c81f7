"""Rule-described integer sequences and their symbolic entries.

A ``SymbolSeq`` is an exact finite prefix plus one of four decidable tail
rules.  Entry values that exceed the double/exact-integer range are never
materialized; they stay symbolic (``FloorPow``: the floor of an iterated
growth tower, ``CeilExp``: the ceiling of one exponential of a rational) and
every consumer works through certified enclosures with exponent
cancellation, so quantities like ln-of-a-tower stay computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .intervals import (
    OVERFLOW_GUARD,
    PIN_ARG,
    TOWER_PIN,
    Interval,
    RigorError,
    growth_inv_pow,
    growth_net,
    round_down,
    round_up,
)

MAX_EXACT_INT = 2**53


class DescriptorError(ValueError):
    """Malformed sequence descriptor."""


class Asymptotics(Enum):
    """Behavior of the shifted potentials t -> sup_k F^-k |s_{n+k}| as n grows."""

    BOUNDED = "bounded"
    DIVERGES = "diverges_to_infinity"


# ---------------------------------------------------------------------------
# entries
# ---------------------------------------------------------------------------


def _tiny_ln1p(y: Interval) -> Interval:
    """Enclosure of ln(1 + y) from the bound y - y^2 <= ln(1+y) <= y, y >= -1/2."""
    if y.lo < -0.5:
        raise RigorError("tiny ln1p bound needs y >= -1/2")
    lo = round_down(y.lo - y.lo * y.lo)
    hi = y.hi if y.hi >= 0 else round_up(y.hi)
    return Interval(min(lo, hi), hi)


@dataclass(frozen=True)
class IntEntry:
    """An exact machine integer entry."""

    value: int

    def abs_interval(self) -> Interval:
        return Interval.from_int(abs(self.value))

    def pot(self, k: int) -> Interval:
        """Enclosure of F^-k |value|."""
        return growth_inv_pow(self.abs_interval(), k)

    def descend(self, w: Interval) -> Interval:
        """Enclosure of F^-1(|value| + w)."""
        return (self.abs_interval() + w).ln1p()

    def as_int(self) -> int | None:
        return self.value

    def to_json(self):
        return self.value


def _exact_floor(t: Interval) -> int | None:
    """The common floor of every value in t, when it is an exact machine integer."""
    if t.hi < MAX_EXACT_INT and math.floor(t.lo) == math.floor(t.hi):
        return int(math.floor(t.lo))
    return None


def _enclosure():
    """A field computed once in ``__post_init__``, left out of ==, hash and repr."""
    return field(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class FloorPow:
    """Symbolic entry floor(F^height(base)) with base >= 1, height >= 1.

    Its absolute value lies in (F^height(base) - 1, F^height(base)]; through
    F^-k this becomes (F^(height-k)(base) - 1, F^(height-k)(base)] because
    F^-k(t - 1) > F^-k(t) - 1.
    """

    base: int
    height: int
    # |entry| is built on request: the potential and tower-relative nesting
    # loops, which build most symbolic towers, never ask for it
    _tower: Interval = _enclosure()
    _int: int | None = _enclosure()

    def __post_init__(self):
        t = growth_net(self.base, self.height)
        object.__setattr__(self, "_tower", t)
        object.__setattr__(self, "_int", _exact_floor(t))

    def tower(self) -> Interval:
        return self._tower

    def abs_interval(self) -> Interval:
        if self._int is not None:
            return Interval.point(float(self._int))
        t = self._tower
        return Interval(round_down(t.lo - 1.0), t.hi, True, t.hi_open)

    def pot(self, k: int) -> Interval:
        v = self._int
        if v is not None:
            return growth_inv_pow(v, k)
        t = growth_net(self.base, self.height - k)
        return Interval(round_down(t.lo - 1.0), t.hi, True, t.hi_open)

    def descend(self, w: Interval) -> Interval:
        t = self._tower
        if t.lo < TOWER_PIN:
            return (self.abs_interval() + w).ln1p()
        # tower-relative step: ln(1 + floor(A) + w) = F^(h-1)(base) + ln(1 + (w - phi)/(1 + A))
        # with phi in [0, 1); the correction is ~1e-30, added as a rigorous tiny-log bound
        below = growth_net(self.base, self.height - 1)
        denom = 1.0 + t.lo
        y_lo = min(0.0, round_down((w.lo - 1.0) / denom))
        y_hi = max(0.0, round_up(w.hi / denom))
        corr = _tiny_ln1p(Interval(y_lo, y_hi))
        return below + corr

    def as_int(self) -> int | None:
        return self._int

    def to_json(self):
        v = self._int
        if v is not None:
            return v
        return {"kind": "floor_tower", "c": self.base, "h": self.height}


@dataclass(frozen=True)
class CeilExp:
    """Symbolic entry ceil(F(arg)) for a nonnegative rational arg.

    Lies in [F(arg), F(arg) + 1); through F^-k it lies in
    [F^-(k-1)(arg), F^-(k-1)(arg) + 1).

    The tests arg == 0, arg <= PIN_ARG and arg <= OVERFLOW_GUARD read the upper
    end of the arg enclosure, the least double >= arg; as every bound is a
    double and arg >= 0, they are exact.
    """

    arg: Fraction
    _arg_iv: Interval = _enclosure()
    _grow: Interval = _enclosure()
    _int: int | None = _enclosure()
    _abs: Interval = _enclosure()

    def __post_init__(self):
        a = Interval.from_fraction(self.arg)
        t = a.growth()
        v = None
        if a.hi == 0.0:
            v = 0
        elif t.hi < MAX_EXACT_INT and math.ceil(t.lo) == math.ceil(t.hi):
            v = int(math.ceil(t.hi))
        if v is not None:
            absv = Interval.point(float(v))
        else:
            absv = Interval(t.lo, round_up(t.hi + 1.0) if math.isfinite(t.hi) else math.inf,
                            t.lo_open, True)
        object.__setattr__(self, "_arg_iv", a)
        object.__setattr__(self, "_grow", t)
        object.__setattr__(self, "_int", v)
        object.__setattr__(self, "_abs", absv)

    def arg_interval(self) -> Interval:
        return self._arg_iv

    def abs_interval(self) -> Interval:
        return self._abs

    def pot(self, k: int) -> Interval:
        v = self._int
        if v is not None:
            return growth_inv_pow(v, k)
        if self._arg_iv.hi <= OVERFLOW_GUARD:
            # ceil(F(a)) is in [F(a), F(a) + 1); push the slack through all k
            # inverse steps, where it contracts away
            return growth_inv_pow(self._abs, k)
        inner = growth_inv_pow(self._arg_iv, k - 1)
        return Interval(inner.lo, round_up(inner.hi + 1.0), inner.lo_open, True)

    def descend(self, w: Interval) -> Interval:
        if self._arg_iv.hi <= PIN_ARG:
            return (self._abs + w).ln1p()
        # ln(1 + ceil(F(a)) + w) = a + ln(1 + u e^-a), u in [w.lo, w.hi + 2)
        denom = 1.0 + self._grow.lo
        y_lo = min(0.0, round_down(w.lo / denom))
        y_hi = max(0.0, round_up((w.hi + 2.0) / denom))
        corr = _tiny_ln1p(Interval(y_lo, y_hi))
        return self._arg_iv + corr

    def as_int(self) -> int | None:
        return self._int

    def to_json(self):
        v = self._int
        if v is not None:
            return v
        return {"kind": "ceil_exp", "arg": f"{self.arg.numerator}/{self.arg.denominator}"}


Entry = IntEntry | FloorPow | CeilExp


def _in_double_range(v, what: str):
    """Reject a descriptor value whose enclosure cannot be built from a double."""
    try:
        float(v)
    except OverflowError:
        raise DescriptorError(f"{what} beyond double range") from None
    return v


def _parse_int(v, what: str) -> int:
    # int(v) would truncate a float and accept a numeric string or a bool
    if type(v) is not int:
        raise DescriptorError(f"{what} must be an integer, got {v!r}")
    return _in_double_range(v, what)


def entry_from_json(obj) -> Entry:
    if isinstance(obj, bool):
        raise DescriptorError("prefix entries must be integers")
    if isinstance(obj, int):
        return IntEntry(_in_double_range(obj, "prefix integer"))
    if isinstance(obj, dict):
        kind = obj.get("kind")
        if kind == "floor_tower":
            base = _parse_int(obj["c"], "floor_tower base")
            height = _parse_int(obj["h"], "floor_tower height")
            if base < 1 or height < 1:
                raise DescriptorError("floor_tower needs base c >= 1 and height h >= 1")
            return FloorPow(base, height)
        if kind == "ceil_exp":
            arg = _parse_rational(obj["arg"])
            if arg < 0:
                raise DescriptorError("ceil_exp needs a nonnegative arg")
            return CeilExp(_in_double_range(arg, "ceil_exp arg"))
        raise DescriptorError(f"unknown prefix entry kind {kind!r}")
    raise DescriptorError(f"bad prefix entry {obj!r}")


# ---------------------------------------------------------------------------
# tail rules
# ---------------------------------------------------------------------------


def _parse_rational(v) -> Fraction:
    if isinstance(v, bool):
        raise DescriptorError("rational expected")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise DescriptorError(f"bad rational {v!r}")
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise DescriptorError(f"bad rational {v!r}") from e
    if isinstance(v, Fraction):
        return v
    raise DescriptorError(f"bad rational {v!r}")


@dataclass(frozen=True)
class ConstTail:
    """s_n = c for every tail index."""

    c: int

    kind = "const"
    asymptotics = Asymptotics.BOUNDED

    def validate(self):
        if not isinstance(self.c, int):
            raise DescriptorError("const tail needs an integer c")

    def entry_at(self, p: int, n: int) -> Entry:
        return IntEntry(self.c)

    def shifted(self, p: int, k: int) -> "ConstTail":
        return self

    def to_json(self) -> dict:
        return {"kind": "const", "c": self.c}


@dataclass(frozen=True)
class PeriodicTail:
    """s_n cycles through ``pattern`` starting at the first tail index."""

    pattern: tuple[int, ...]

    kind = "periodic"
    asymptotics = Asymptotics.BOUNDED

    def validate(self):
        if not self.pattern or not all(isinstance(v, int) for v in self.pattern):
            raise DescriptorError("periodic tail needs a nonempty integer pattern")

    def entry_at(self, p: int, n: int) -> Entry:
        return IntEntry(self.pattern[(n - p) % len(self.pattern)])

    def shifted(self, p: int, k: int) -> "PeriodicTail":
        if k <= p:
            return self
        r = (k - p) % len(self.pattern)
        return PeriodicTail(self.pattern[r:] + self.pattern[:r])

    def to_json(self) -> dict:
        return {"kind": "periodic", "pattern": list(self.pattern)}


@dataclass(frozen=True)
class ExpTowerTail:
    """s_n = floor(F^(n - anchor)(c)): the iterated-growth tower family.

    With the default anchor p - 1 this realizes s_(p+j) = floor(F^(j+1)(c)).
    The anchor is carried explicitly so shifts commute with entry lookup.
    """

    c: int
    anchor: int | None = None

    kind = "fexp"
    asymptotics = Asymptotics.DIVERGES

    def validate(self):
        if not isinstance(self.c, int) or self.c < 1:
            raise DescriptorError("fexp tail needs an integer c >= 1")
        if self.c > OVERFLOW_GUARD:
            raise DescriptorError("fexp base above the overflow guard (700)")

    def resolved_anchor(self, p: int) -> int:
        return p - 1 if self.anchor is None else self.anchor

    def entry_at(self, p: int, n: int) -> Entry:
        h = n - self.resolved_anchor(p)
        if h < 1:
            raise RigorError("fexp entry below its anchor")
        # an entry that fits a machine integer is an IntEntry; no FloorPow is built
        v = _exact_floor(growth_net(self.c, h))
        return IntEntry(v) if v is not None else FloorPow(self.c, h)

    def shifted(self, p: int, k: int) -> "ExpTowerTail":
        return ExpTowerTail(self.c, self.resolved_anchor(p) - k)

    def to_json(self) -> dict:
        out = {"kind": "fexp", "c": self.c}
        if self.anchor is not None:
            out["anchor"] = self.anchor
        return out


@dataclass(frozen=True)
class LinExpTail:
    """s_n = ceil(F(rate * (n + offset))): one exponential of a linear ramp."""

    rate: Fraction
    offset: int = 0

    kind = "linexp"
    asymptotics = Asymptotics.DIVERGES

    def validate(self):
        if not isinstance(self.rate, Fraction) or self.rate <= 0:
            raise DescriptorError("linexp tail needs a positive rational rate")
        if self.rate < Fraction(1, 10000) or self.rate > OVERFLOW_GUARD:
            raise DescriptorError("linexp rate outside supported range [1/10000, 700]")
        if self.offset < 0:
            raise DescriptorError("linexp offset must be nonnegative")

    def arg(self, n: int) -> Fraction:
        return self.rate * (n + self.offset)

    def entry_at(self, p: int, n: int) -> Entry:
        e = CeilExp(self.arg(n))
        v = e.as_int()
        return IntEntry(v) if v is not None else e

    def shifted(self, p: int, k: int) -> "LinExpTail":
        return LinExpTail(self.rate, self.offset + k)

    def to_json(self) -> dict:
        out = {"kind": "linexp", "c": f"{self.rate.numerator}/{self.rate.denominator}"}
        if self.offset:
            out["offset"] = self.offset
        return out


TailRule = ConstTail | PeriodicTail | ExpTowerTail | LinExpTail


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolSeq:
    """Exact prefix plus tail rule; total over all indices n >= 0."""

    prefix: tuple[Entry, ...] = ()
    tail: TailRule = ConstTail(0)

    def __post_init__(self):
        norm = tuple(IntEntry(e) if isinstance(e, int) else e for e in self.prefix)
        object.__setattr__(self, "prefix", norm)
        self.tail.validate()
        if isinstance(self.tail, ExpTowerTail):
            if self.tail.resolved_anchor(len(norm)) > len(norm) - 1:
                raise DescriptorError("fexp anchor beyond the first tail index")

    # -- entry access --------------------------------------------------------

    def entry(self, n: int) -> Entry:
        if n < 0:
            raise ValueError("negative sequence index")
        if n < len(self.prefix):
            return self.prefix[n]
        return self.tail.entry_at(len(self.prefix), n)

    def value_at(self, n: int):
        """Exact integer when it fits the machine range, else the symbolic entry."""
        e = self.entry(n)
        v = e.as_int()
        return v if v is not None else e

    def shift(self, n: int = 1) -> "SymbolSeq":
        """Descriptor of the n-fold shifted sequence (drop the first n entries)."""
        if n < 0:
            raise ValueError("negative shift")
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
        prefix_raw = obj.get("prefix", [])
        if not isinstance(prefix_raw, list):
            raise DescriptorError("prefix must be a list")
        prefix = tuple(entry_from_json(e) for e in prefix_raw)
        tail_raw = obj.get("tail")
        if not isinstance(tail_raw, dict) or "kind" not in tail_raw:
            raise DescriptorError("tail must be an object with a kind")
        kind = tail_raw["kind"]
        if kind == "const":
            tail: TailRule = ConstTail(_parse_int(tail_raw["c"], "const c"))
        elif kind == "periodic":
            pat = tail_raw.get("pattern")
            if not isinstance(pat, list):
                raise DescriptorError("periodic tail needs a pattern list")
            tail = PeriodicTail(tuple(_parse_int(v, "periodic entry") for v in pat))
        elif kind == "fexp":
            anchor = tail_raw.get("anchor")
            tail = ExpTowerTail(_parse_int(tail_raw["c"], "fexp c"),
                                None if anchor is None else _parse_int(anchor, "fexp anchor"))
        elif kind == "linexp":
            rate = _parse_rational(tail_raw["c"])
            offset = _parse_int(tail_raw.get("offset", 0), "linexp offset")
            _in_double_range(rate * offset, "linexp rate * offset")
            tail = LinExpTail(rate, offset)
        else:
            raise DescriptorError(f"unknown tail kind {kind!r}")
        try:
            return SymbolSeq(prefix, tail)
        except (TypeError, ValueError) as e:
            raise DescriptorError(str(e)) from e

    def __repr__(self) -> str:
        pfx = ",".join(str(e.to_json()) for e in self.prefix)
        return f"SymbolSeq([{pfx}] + {self.tail.to_json()})"


def const_seq(c: int, prefix: tuple[int, ...] = ()) -> SymbolSeq:
    return SymbolSeq(tuple(IntEntry(v) for v in prefix), ConstTail(c))


def fexp_seq(c: int, prefix: tuple[int, ...] = ()) -> SymbolSeq:
    return SymbolSeq(tuple(IntEntry(v) for v in prefix), ExpTowerTail(c))


def linexp_seq(rate, prefix: tuple[int, ...] = ()) -> SymbolSeq:
    return SymbolSeq(tuple(IntEntry(v) for v in prefix), LinExpTail(_parse_rational(rate)))


def periodic_seq(pattern: tuple[int, ...], prefix: tuple[int, ...] = ()) -> SymbolSeq:
    return SymbolSeq(tuple(IntEntry(v) for v in prefix), PeriodicTail(tuple(pattern)))
