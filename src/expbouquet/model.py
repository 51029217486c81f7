"""Certified dynamics on the half-line-times-sequence model of exp(z) - 1.

The model map sends (t, s) to (F(t) - |s_1|, shifted s) with F(t) = e^t - 1.
This module computes, with certified interval enclosures:

* ``potential_term`` - single terms F^-k |s_n|,
* ``potential``      - the shifted potential sup_k F^-k |s_{shift+k}|,
* ``endpoint_height``- the minimal height t at which (t, s) stays in the
  model's invariant set (the hair endpoint), via backward nesting,
* ``classify``       - a sound (not complete) classification of points.

Entries of escaping sequences are iterated-exponential towers far beyond
double range.  Backward nesting through that region is done tower-relative:
the running bound is carried as F^h(c) + delta with a certified small delta,
because one inverse step of ``floor(F^h(c)) + (F^h(c) + delta)`` lands on
F^(h-1)(c) + ln 2 + O(1/F^h(c)).  Heights unwind one level per step until the
tower is machine-representable, at which point plain interval arithmetic
takes over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .intervals import (
    HUGE,
    OVERFLOW_GUARD,
    PIN_ARG,
    TOWER_PIN,
    DEFAULT_TOL,
    Interval,
    RigorError,
    TriBool,
    growth_inv_pow,
    growth_net,
    log1p_up,
    round_down,
    round_up,
    sum_down,
    sum_up,
)
from .sequences import (
    Asymptotics,
    ConstTail,
    Entry,
    ExpTowerTail,
    FloorPow,
    LinExpTail,
    PeriodicTail,
    SymbolSeq,
)

EXTRA_TERMS = 8

_LN2 = Interval(round_down(math.log(2.0)), round_up(math.log(2.0)))


class OverflowGuardError(ArithmeticError):
    """Argument exceeds the e^t - 1 overflow guard; switch to certificates."""


class NonConvergenceError(ArithmeticError):
    """Requested tolerance was not reached; carries the honest enclosure."""

    def __init__(self, enclosure: Interval, message: str = ""):
        super().__init__(message or f"enclosure {enclosure} wider than tolerance")
        self.enclosure = enclosure


class UnsupportedTailError(TypeError):
    """Sequence tail is not one of the four supported rules."""


class BudgetExceededError(RuntimeError):
    """Certification stalled before the iteration budget ran out."""


# ---------------------------------------------------------------------------
# scalar growth maps
# ---------------------------------------------------------------------------


def growth(t: float) -> float:
    """e^t - 1 to nearest double; guarded against overflow."""
    if not math.isfinite(t) or t < 0:
        raise ValueError("growth expects a finite nonnegative argument")
    if t > OVERFLOW_GUARD:
        raise OverflowGuardError(f"growth argument {t} exceeds guard {OVERFLOW_GUARD}")
    return math.expm1(t)


def growth_inverse(t: float, k: int = 1) -> float:
    """k-fold inverse growth map: ln(1 + .) iterated k times."""
    if not math.isfinite(t) or t < 0:
        raise ValueError("growth_inverse expects a finite nonnegative argument")
    if k < 1:
        raise ValueError("k must be >= 1")
    v = t
    for _ in range(k):
        v = math.log1p(v)
    return v


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


def potential_term(seq: SymbolSeq, n: int, k: int) -> Interval:
    """Certified enclosure of F^-k |s_n| (one term of a shifted potential)."""
    if n < 1 or k < 1:
        raise ValueError("potential_term needs n >= 1 and k >= 1")
    iv = seq.entry(n).pot(k)
    if iv.lo < 0.0:
        iv = Interval(0.0, iv.hi, False, iv.hi_open)
    return iv


def _linexp_envelope_decreasing(tail: LinExpTail, shift: int, k: int) -> bool:
    """Certify the ramp-term envelope W_k = F^-(k-1)(a_k + 1) decreases from k on.

    Terms satisfy F^-k ceil(F(a)) < F^-k(F(a) + 1) <= F^-(k-1)(a + 1) once
    a >= 0.16 (there F(a) + 1 <= F(a + 1)); the envelope decreases when
    ln(2 + a_{k+1}) <= a_k + 1, and both conditions persist as k grows since
    the ramp is linear while the logarithm flattens.
    """
    a_k = Interval.from_fraction(tail.arg(shift + k))
    a_next = Interval.from_fraction(tail.arg(shift + k + 1))
    return a_k.lo >= 0.16 and log1p_up(round_up(a_next.hi + 1.0)) <= a_k.lo + 1.0


def potential(seq: SymbolSeq, shift: int = 0) -> Interval:
    """Certified enclosure of the shifted potential sup_{k>=1} F^-k |s_{shift+k}|.

    Finitely determined: terms are evaluated explicitly through the prefix and
    a rule-specific burn-in, after which the tail family admits a closed
    enclosure (constant/periodic terms only decrease; tower terms all live in
    one floor window; ramp terms fall under a certified decreasing envelope).
    """
    if shift < 0:
        raise ValueError("shift must be >= 0")
    p = len(seq.prefix)
    tail = seq.tail
    prefix_terms = max(p - shift, 0)
    terms: list[Interval] = []

    if isinstance(tail, ConstTail):
        horizon = prefix_terms + 1
        for k in range(1, horizon + 1):
            terms.append(potential_term(seq, shift + k, k))
        return Interval.sup_hull(terms)

    if isinstance(tail, PeriodicTail):
        horizon = prefix_terms + len(tail.pattern)
        for k in range(1, horizon + 1):
            terms.append(potential_term(seq, shift + k, k))
        return Interval.sup_hull(terms)

    if isinstance(tail, ExpTowerTail):
        horizon = prefix_terms + EXTRA_TERMS
        for k in range(1, horizon + 1):
            terms.append(potential_term(seq, shift + k, k))
        # all tail terms live in (F^E(c) - 1, F^E(c)], E = shift - anchor
        net = growth_net(tail.c, shift - tail.resolved_anchor(p))
        lo = max(round_down(net.lo - 1.0), 0.0)
        terms.append(Interval(lo, net.hi, lo > 0.0, net.hi_open))
        return Interval.sup_hull(terms)

    if isinstance(tail, LinExpTail):
        k = 0
        budget = 200000
        while True:
            k += 1
            if k > budget:
                raise NonConvergenceError(Interval.sup_hull(terms),
                                          "ramp envelope certification stalled")
            terms.append(potential_term(seq, shift + k, k))
            if shift + k >= p and k > prefix_terms and _linexp_envelope_decreasing(tail, shift, k):
                arg1 = Interval.from_fraction(tail.arg(shift + k + 1)) + 1.0
                env = growth_inv_pow(arg1, k)
                terms.append(Interval(0.0, env.hi, False, True))
                return Interval.sup_hull(terms)

    raise UnsupportedTailError(f"unsupported tail {tail!r}")


def is_escaping_endpoint_address(seq: SymbolSeq) -> TriBool:
    """Whether the hair of this address has a finite endpoint whose orbit heights diverge.

    Holds exactly when the potential is finite and the shifted potentials
    diverge; for the four supported rules the divergence question is decided
    by the rule itself, so unknown never occurs here.
    """
    pot0 = potential(seq, 0)
    if pot0.hi == math.inf and not pot0.hi_open:
        return TriBool.no(pot0)
    if seq.asymptotics is Asymptotics.DIVERGES:
        return TriBool.yes()
    return TriBool.no(pot0)


def potential_floor_from(seq: SymbolSeq, threshold: float) -> tuple[str, int | None]:
    """Eventual behavior of n -> potential(seq, n) against a threshold.

    Returns ("above", n1): certified potential > threshold for every n >= n1;
    ("below", n1): certified potential <= threshold for some n in every tail
    window past n1 (bounded rules); or ("unknown", None).
    """
    p = len(seq.prefix)
    tail = seq.tail

    if isinstance(tail, ExpTowerTail):
        anchor = tail.resolved_anchor(p)
        n = max(anchor + 1, 0)
        for _ in range(200):
            lo = sum_down(growth_net(tail.c, n - anchor).lo, -1.0)
            if lo > threshold:
                return ("above", n)
            n += 1
        return ("unknown", None)

    if isinstance(tail, LinExpTail):
        # the lower end of the enclosure of arg(n + 1) is the greatest double
        # <= arg(n + 1), so it exceeds threshold exactly when arg(n + 1)
        # reaches the least double above threshold
        start = max(p - 1, 0)
        n = max(start, math.ceil(Fraction(round_up(threshold)) / tail.rate) - 1 - tail.offset)
        if n - start < 400000:
            return ("above", n)
        return ("unknown", None)

    if isinstance(tail, ConstTail):
        stable = growth_inv_pow(abs(tail.c), 1)
        n1 = max(p - 1, 0)
        if stable.certainly_gt(threshold):
            return ("above", n1)
        if stable.certainly_le(threshold):
            return ("below", n1)
        return ("unknown", None)

    if isinstance(tail, PeriodicTail):
        pats = [abs(v) for v in tail.pattern]
        L = len(pats)
        values = []
        for r in range(L):
            terms = [growth_inv_pow(pats[(r + k) % L], k) for k in range(1, L + 1)]
            values.append(Interval.sup_hull(terms))
        if all(v.certainly_gt(threshold) for v in values):
            return ("above", max(p, 0))
        if any(v.certainly_le(threshold) for v in values):
            return ("below", max(p, 0))
        return ("unknown", None)

    raise UnsupportedTailError(f"unsupported tail {tail!r}")


# ---------------------------------------------------------------------------
# endpoint heights (backward nesting with tower-relative state)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _TowerRel:
    """Backward-nesting state F^height(base) + delta, for astronomically large levels."""

    base: int
    height: int
    delta: Interval


_DescendState = Interval | _TowerRel


def _materialize(state: _DescendState) -> Interval:
    if isinstance(state, Interval):
        return state
    return growth_net(state.base, state.height) + state.delta


def _tower_pin_delta(a_lo: float) -> Interval:
    """Enclosure of the pinned offset: ln 2 - 3/(1+A) <= w - F^g(c) <= ln 2."""
    return Interval(round_down(_LN2.lo - 3.0 / (1.0 + a_lo)), _LN2.hi)


def _descend_step(entry: Entry, state: _DescendState) -> _DescendState:
    """One backward-nesting step: new state encloses F^-1(|entry| + old)."""
    if isinstance(state, _TowerRel):
        if (isinstance(entry, FloorPow) and entry.base == state.base
                and entry.height == state.height):
            a = growth_net(state.base, state.height)
            if a.lo >= TOWER_PIN:
                # ln(1 + floor(A) + A + delta) = F^(h-1) + ln2 + ln1p((delta - phi - 1)/(2(1+A)))
                d = state.delta
                denom = 2.0 * (1.0 + a.lo)
                y_lo = min(0.0, round_down((d.lo - 2.0) / denom))
                y_hi = max(0.0, round_up((d.hi - 1.0) / denom))
                corr = Interval(round_down(y_lo - y_lo * y_lo), y_hi)
                return _TowerRel(state.base, state.height - 1, _LN2 + corr)
        state = _materialize(state)

    w = state
    if isinstance(entry, FloorPow):
        t = entry.tower()
        if t.lo >= TOWER_PIN and w.hi / (1.0 + t.lo) <= 0.5 and w.lo >= 0.0:
            denom = 1.0 + t.lo
            y_lo = min(0.0, round_down((w.lo - 1.0) / denom))
            y_hi = max(0.0, round_up(w.hi / denom))
            corr = Interval(round_down(y_lo - y_lo * y_lo), y_hi)
            return _TowerRel(entry.base, entry.height - 1, corr)
    return entry.descend(w)


def _descend(seq: SymbolSeq, level: int, state: _DescendState) -> Interval:
    """Run backward nesting from the given level down to the full height t_s."""
    for j in range(level, 0, -1):
        state = _descend_step(seq.entry(j), state)
    return _materialize(state)


def endpoint_lower_bound(seq: SymbolSeq, n: int) -> Interval:
    """Enclosure of the n-th backward-nesting constraint u_n (seeded at zero).

    The u_n are nondecreasing and converge to the endpoint height from below.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return _descend(seq, n, Interval.point(0.0))


def _const_tail_height(a: int, budget: int = 160) -> Interval:
    """Certified root of F(t) = a + t, the endpoint height of a constant tail."""
    if a == 0:
        return Interval.point(0.0)
    lo, hi = 0.0, log1p_up(float(a)) + 1.0

    def h_sign(t: float) -> int:
        iv = Interval.point(t).growth() - Interval.point(float(a)) - Interval.point(t)
        if iv.certainly_gt(0.0):
            return 1
        if iv.certainly_lt(0.0):
            return -1
        return 0

    if h_sign(hi) <= 0:
        raise RigorError("constant-tail bracket failed")
    for _ in range(budget):
        mid = 0.5 * (lo + hi)
        s = h_sign(mid)
        if s == 0 or mid <= lo or mid >= hi:
            break
        if s < 0:
            lo = mid
        else:
            hi = mid
    return Interval(lo, hi)


def _periodic_tail_height(tail: PeriodicTail, tol: float, budget: int = 4000) -> Interval:
    """Certified height of the pure periodic tail via contracting interval sweeps."""
    pats = [abs(v) for v in tail.pattern]
    L = len(pats)
    if all(v == 0 for v in pats):
        return Interval.point(0.0)
    upper = log1p_up(float(max(pats))) + 1.0
    w = [Interval(0.0, upper) for _ in range(L)]
    goal = max(tol / 4.0, 4e-16 * upper)
    for _ in range(budget):
        for r in range(L - 1, -1, -1):
            w[r] = (Interval.point(float(pats[(r + 1) % L])) + w[(r + 1) % L]).ln1p()
        if max(iv.width for iv in w) < goal:
            break
    return w[0]


def _endpoint_anchor(seq: SymbolSeq) -> tuple[int, _DescendState]:
    """Pick a nesting start level and a certified enclosure of the height there."""
    p = len(seq.prefix)
    tail = seq.tail

    if isinstance(tail, ConstTail):
        return p, _const_tail_height(abs(tail.c))

    if isinstance(tail, PeriodicTail):
        return p, _periodic_tail_height(tail, DEFAULT_TOL)

    if isinstance(tail, ExpTowerTail):
        anchor = tail.resolved_anchor(p)
        g = 1
        while growth_net(tail.c, g + 1).lo < TOWER_PIN:
            g += 1
        level = max(p - 1, anchor + g, 0)
        g_level = level - anchor
        a_lo = growth_net(tail.c, g_level + 1).lo
        if a_lo < TOWER_PIN:
            raise RigorError("tower pin level miscomputed")
        return level, _TowerRel(tail.c, g_level, _tower_pin_delta(a_lo))

    if isinstance(tail, LinExpTail):
        # the least n >= max(p, 1) with rate * (n + offset) >= PIN_ARG
        n = max(p, 1, math.ceil(Fraction(PIN_ARG) / tail.rate) - tail.offset)
        # w at level n-1 is rate*(n+offset) + [0, (2 + U)/e^arg], U a crude upper bound
        a = Interval.from_fraction(tail.arg(n))
        u_hi = round_up(float(tail.arg(n + 1)) + 2.0)
        grow_lo = growth_net(a.lo, 1).lo
        corr = round_up((2.0 + u_hi) / (1.0 + grow_lo))
        return n - 1, Interval(a.lo, round_up(a.hi + corr))

    raise UnsupportedTailError(f"unsupported tail {tail!r}")


def endpoint_height(seq: SymbolSeq, tol: float = DEFAULT_TOL) -> Interval:
    """Certified enclosure of the endpoint height t_s of the hair at this address.

    Backward nesting: lower bounds from the constraints u_n, upper bound from
    seeding the nesting with a certified bound on a shifted endpoint height
    (rule-specific anchor).  The result is intersected with the sandwich
    t* <= t_s <= t* + 1.  Raises NonConvergenceError (carrying the honest
    enclosure) when the requested tolerance is unattainable.
    """
    pot0 = potential(seq, 0)
    if pot0.hi == math.inf and not pot0.hi_open:
        # genuinely unbounded potential: the hair has no finite endpoint
        return Interval(math.inf, math.inf)
    level, state = _endpoint_anchor(seq)
    enc = _descend(seq, level, state)
    if pot0.is_finite:
        sandwich = Interval(pot0.lo, round_up(pot0.hi + 1.0))
        enc = enc.intersect(sandwich)
    else:
        enc = enc.intersect(Interval(pot0.lo, math.inf, pot0.lo_open, True))
    if enc.width > tol:
        raise NonConvergenceError(enc)
    return enc


def endpoint_height_enclosure(seq: SymbolSeq, tol: float = DEFAULT_TOL) -> Interval:
    """Like endpoint_height but always returns the enclosure, however wide."""
    try:
        return endpoint_height(seq, tol)
    except NonConvergenceError as e:
        return e.enclosure


# ---------------------------------------------------------------------------
# model points, stepping, classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelPoint:
    """A point (t, s) of the model: height coordinate plus symbol sequence."""

    t: float
    seq: SymbolSeq

    def __post_init__(self):
        if not math.isfinite(self.t) or self.t < 0.0:
            raise ValueError("model points need a finite height t >= 0")


@dataclass(frozen=True)
class NotInDomain:
    """Signal: the stepped height is certifiably negative (point left the model set)."""

    t_enclosure: Interval


@dataclass(frozen=True)
class CertifiedLarge:
    """Signal: the stepped height certifiably exceeds the overflow guard."""

    t_lower: float
    seq: SymbolSeq


class Verdict(Enum):
    NOT_IN_JULIA = "not_in_julia"
    ESCAPE_CERTIFIED = "escape_certified"
    ENDPOINT = "endpoint"
    NON_ESCAPING = "non_escaping"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    first_failing_step: int | None = None
    evidence: Interval | None = None

    def to_json(self) -> dict:
        out: dict = {"verdict": self.verdict.value}
        if self.first_failing_step is not None:
            out["first_failing_step"] = self.first_failing_step
        if self.evidence is not None:
            out["evidence"] = self.evidence.to_json()
        return out


def model_step(x: ModelPoint):
    """One application of the model map: (t, s) -> (F(t) - |s_1|, shifted s).

    Returns the stepped ModelPoint, or NotInDomain when the new height is
    certifiably negative, or CertifiedLarge when F(t) overflows the guard.
    Sub-ulp negative noise on a mathematically zero height is clamped to 0.
    """
    shifted = x.seq.shift(1)
    if x.t > OVERFLOW_GUARD:
        return CertifiedLarge(HUGE, shifted)
    t_new = Interval.point(x.t).growth() - x.seq.entry(1).abs_interval()
    if t_new.certainly_lt(0.0):
        return NotInDomain(t_new)
    if t_new.lo > OVERFLOW_GUARD:
        return CertifiedLarge(t_new.lo, shifted)
    return ModelPoint(max(t_new.mid, 0.0), shifted)


def _bounded_tail_escape_threshold(seq: SymbolSeq, n: int) -> float:
    """Height above which growth outruns every later symbol of a bounded-tail address.

    If T >= max(2, ln(4 + 2 a_max)) then e^T >= 2T and e^T >= 2(a_max + 2),
    so F(T) - a >= T + 1; the bound re-applies forever and T diverges.
    """
    tail = seq.tail
    if isinstance(tail, ConstTail):
        a_max = float(abs(tail.c))
    else:
        a_max = float(max(abs(v) for v in tail.pattern))
    for j in range(n + 1, len(seq.prefix) + 1):
        a_max = max(a_max, seq.entry(j).abs_interval().hi)
    if not math.isfinite(a_max):
        return math.inf
    return max(2.0, round_up(math.log(4.0 + 2.0 * a_max)))


def _diverging_tail_growth_certificate(seq: SymbolSeq, n: int) -> bool:
    """Certify that every shifted potential from n on is at least ln 2.

    Then any height exceeding the endpoint by delta grows by a factor
    e^(height of shifted endpoint) >= 2 per step, so the excess diverges and
    so do the heights.
    """
    kind, n1 = potential_floor_from(seq, 0.694)
    if kind != "above" or n1 is None:
        return False
    for j in range(n, n1):
        if not potential(seq, j).certainly_ge(0.694):
            return False
    return True


def classify(x: ModelPoint, budget: int = 64, tol: float = DEFAULT_TOL) -> Classification:
    """Sound classification of a model point within an iteration budget.

    Certificates, in the order they can fire while scanning the orbit:
    a certifiably negative height (least such step is reported); an exactly
    repeating state (non-escaping); a height certifiably above the shifted
    potential + 1 together with a tail-rule divergence certificate (escape).
    If the orbit stays inconclusive, the endpoint certificate is tried:
    the height must sit inside a below-tolerance enclosure of the endpoint
    height.  Everything else is reported unknown with evidence.
    """
    seq = x.seq
    t_iv: Interval = Interval.point(x.t)
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
            t_iv = t_iv.growth() - seq.entry(n + 1).abs_interval()

    enc = endpoint_height_enclosure(seq, tol)
    if enc.width <= tol and enc.lo - tol <= x.t <= enc.hi + tol:
        return Classification(Verdict.ENDPOINT, evidence=enc)
    return Classification(Verdict.UNKNOWN, evidence=evidence)
