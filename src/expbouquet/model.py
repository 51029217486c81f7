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

import functools
import math
from dataclasses import dataclass
from enum import Enum

from .intervals import (
    PIN_ARG,  # noqa: F401 -- the ramp pin argument, read as model.PIN_ARG
    DEFAULT_TOL,
    Interval,
    TriBool,
    check_tolerance,
    growth_sub,
    log1p_up,
    round_up,
    sum_down,
    sum_up,
)
from .sequences import Asymptotics, Entry, SymbolSeq, _TowerRel


class NonConvergenceError(ArithmeticError):
    """Requested tolerance was not reached; carries the honest enclosure."""

    def __init__(self, enclosure: Interval, message: str = ""):
        super().__init__(message or f"enclosure {enclosure} wider than tolerance")
        self.enclosure = enclosure


class BudgetExceededError(RuntimeError):
    """Certification stalled before the iteration budget ran out."""


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


def potential_term(seq: SymbolSeq, n: int, k: int, below: float = -math.inf) -> Interval | None:
    """Certified enclosure of F^-k |s_n|, or None once it falls below ``below`` (``potential``)."""
    if n < 1 or k < 1:
        raise ValueError("potential_term needs n >= 1 and k >= 1")
    iv = seq.entry(n).pot(k, below)
    if iv is not None and iv.lo < 0.0:
        iv = Interval(0.0, iv.hi, False, iv.hi_open)
    return iv


def _memoised(seq: SymbolSeq, key: tuple, compute):
    """compute(seq), built once per sequence instance and kept in its memo under key."""
    if key not in seq._memo:
        seq._memo[key] = compute(seq)
    return seq._memo[key]


def _potential_terms(seq: SymbolSeq, shift: int):
    """The terms whose sup hull is ``potential(seq, shift)``: F^-k |s_{shift+k}|, then the
    closing ones; a witness cut at m opens shift 0 with its cut's ``_shared_head``.

    Each term past that cut is the same entry's term at shift m taken m inverse steps further,
    and inverse steps never raise an upper end (see ``potential``); one the shift-m scan left
    out was already below that hull, and the closing terms close at the same index, m steps
    further down too.  So none reaches potential(seq, m).hi: when that is below the head's
    lower end, the head alone is the hull, bit for bit.
    """
    p = len(seq.prefix)
    prefix_terms = max(p - shift, 0)
    k, below = 0, -math.inf
    if shift == 0 and seq.cut:
        base, k = seq.cut
        yield (head := _shared_head(base, k))
        if potential(seq, k).hi < head.lo:
            return
        below = head.lo
    while True:
        k += 1
        term = potential_term(seq, shift + k, k, below)
        if term is not None:
            below = max(below, term.lo)
            yield term
        if k > prefix_terms and (closing := seq.tail.closing_terms(p, shift, k, below)) is not None:
            yield from closing
            return


def _shared_head(base: SymbolSeq, m: int) -> Interval:
    """sup_hull of terms 1..m of potential(base, 0), which its witnesses cut at m share."""
    def build(b: SymbolSeq) -> Interval:
        head = _shared_head(b, m - 1) if m > 1 else None
        term = potential_term(b, m, m, head.lo if head else -math.inf)
        return head if term is None else term if head is None else Interval.sup_hull([head, term])
    return _memoised(base, ("head", m), build)


def cut_entries(base: SymbolSeq, m: int) -> list[Entry]:
    """base's entries 0..m, which its witnesses cut at m share, from one tuple per base that a
    longer cut extends; stored whole, so threads that race each store a correct tuple."""
    built = base._memo.get(("entries",), ())
    if len(built) <= m:
        built = base._memo[("entries",)] = built + tuple(map(base.entry, range(len(built), m + 1)))
    return list(built[:m + 1])


@functools.lru_cache(maxsize=256)
def _tail_hull(rule, lead: int) -> Interval:
    """The shift-0 hull of the pure tail sequence of this rule after lead zeros."""
    return Interval.sup_hull(list(_potential_terms(SymbolSeq((0,) * lead, rule), 0)))


def potential(seq: SymbolSeq, shift: int = 0) -> Interval:
    """Certified enclosure of the shifted potential sup_{k>=1} F^-k |s_{shift+k}|.

    Finitely determined: terms are evaluated explicitly through the prefix and
    into the tail until the tail rule's ``closing_terms`` close the hull
    (constant/periodic terms only decrease; tower terms all live in one floor
    window; ramp terms fall under a certified decreasing envelope).  Each hull
    is built once: below p - 1 in the sequence's memo; from there once per shifted rule
    (``_tail_hull``), as shift 0 after max(p - shift, 0) leading entries has the same terms.
    A witness reads terms 1..m of its shift-0 hull through its cut (``_shared_head``), and
    no further term when potential(seq, m) lies below them (``_potential_terms``).

    Past the prefix a bounded tail closes within one pattern, a tower at its first
    entry past 2^53 (four terms at most) and a ramp within about 1,600 terms (rate
    1/10000).  The hull is finite: a term saturating to +inf gets an open upper end,
    kept by ``sup_hull``, so every hair has a finite endpoint.

    An integer or ramp term (``CeilExp`` arg <= OVERFLOW_GUARD) stops its inverse
    steps once its upper end is strictly below ``below``, the largest lower end so
    far, and is left out: that end is 0 or above F^-k(1) > 2^-50, where
    log1p_up(x) <= x, so the term stays below it and the hull keeps its ends and
    flags bit for bit.  A ramp potential takes O(K) steps, not O(K^2).
    """
    if shift < 0:
        raise ValueError("shift must be >= 0")
    if shift >= (p := len(seq.prefix)) - 1:
        return _tail_hull(seq.tail.shifted(p, shift), max(p - shift, 0))
    return _memoised(seq, ("potential", shift),
                     lambda s: Interval.sup_hull(list(_potential_terms(s, shift))))


def _least_depth(seq: SymbolSeq, n: int, r: float, stop: int) -> int:
    """The least k in 1..stop (stop >= 1) with F^-k |s_{n+k}| certainly above r, else 0: the
    witness depth, and a cut (seq, m) certifies potential(witness, n) > r if stop = m - n gives
    one.  The first term, kept once for every r, settles most thresholds."""
    if _memoised(seq, ("first", n), lambda s: potential_term(s, n + 1, 1)).certainly_gt(r):
        return 1
    return next((k for k in range(2, stop + 1) if potential_term(seq, n + k, k).certainly_gt(r)), 0)


def _cut_floor(seq: SymbolSeq, start: int, stop: int, r: float) -> int:
    """The least shift n in [start, stop] at which seq's cut (base, m) does not certify
    potential(seq, n) > r (``_least_depth``), stop when it certifies all below; start when seq
    has no cut.

    Every longer cut of base certifies those shifts too, so base keeps the floor of its longest
    cut so far for each (start, r), and the next witness goes on from there.  That floor may lie
    past this witness's stop (an earlier member scanned further), so the answer is cut to stop.
    """
    if not seq.cut:
        return start
    base, m = seq.cut
    cut, n = base._memo.get(key := ("floor", start, r), (0, start))
    if cut > m:  # a longer cut's floor: this one may certify less
        n = start
    end = min(m, stop)
    while n < end and _least_depth(base, n, r, m - n):
        n += 1
    if m >= cut:
        base._memo[key] = (m, n)
    return min(n, stop)


def is_escaping_endpoint_address(seq: SymbolSeq) -> TriBool:
    """Whether the endpoint of the hair at this address has diverging orbit heights.

    Every hair has a finite endpoint (the potential is finite, see
    ``potential``), so this holds exactly when the shifted potentials diverge,
    which each of the four rules decides itself: unknown never occurs here.
    """
    if seq.asymptotics is Asymptotics.DIVERGES:
        return TriBool.yes()
    return TriBool.no(potential(seq))


def potential_floor(seq: SymbolSeq, threshold: float, floor: int = 0,
                    budget: float = math.inf) -> int | None:
    """Least n >= floor from which every shifted potential is certainly above threshold.

    The tail rule certifies the shifts from its ``potential_floor`` index n1 on
    (a diverging tail; None when it cannot); the explicit shifts below n1 are
    scanned down to floor until one is not certainly above.  Raises
    BudgetExceededError when more than budget explicit shifts are left.
    """
    n1 = seq.tail.potential_floor(len(seq.prefix), threshold)
    if n1 is None:
        return None
    n = max(n1, floor)
    while n > floor and potential(seq, n - 1).certainly_gt(threshold):
        n -= 1
    if n1 - n > budget:
        raise BudgetExceededError("explicit threshold window exceeds budget")
    return n


def _threshold_holds_from(seq: SymbolSeq, start: int, threshold: float, budget: int) -> TriBool:
    """Certify potential(seq, n) > threshold for every n >= start (a diverging tail): the rule
    from its ``potential_floor`` on, a witness's cut below its ``_cut_floor``, hulls between."""
    n1 = seq.tail.potential_floor(len(seq.prefix), threshold)
    if n1 is None:
        return TriBool.unknown(None)
    if n1 - start > budget:
        raise BudgetExceededError("explicit threshold window exceeds budget")
    for n in range(_cut_floor(seq, start, n1, threshold), n1):
        if not (hull := potential(seq, n)).certainly_gt(threshold):
            return hull.tri_gt(threshold)
    return TriBool.yes()


# ---------------------------------------------------------------------------
# endpoint heights (backward nesting with tower-relative state)
# ---------------------------------------------------------------------------


def _descend(seq: SymbolSeq, level: int, state: Interval | _TowerRel) -> Interval:
    """Run backward nesting from the given level down to the full height t_s.

    Each entry takes its own step (``Entry.descend``); a plain state runs on
    its endpoint floats and is wrapped once, at the end.  A witness with cut (base, m) keeps in
    base's memo the state it hands down to level m, once per past, level - m and start state,
    and the enclosure from each level j <= m and state met.  A slot is keyed by the state (its
    endpoint tuple or ``_TowerRel``), whose float == merges only a state and its twin with zero
    ends of the other sign, and every ``descend`` steps both to the same bits: ``ln1p_sum`` adds
    a zero to the entry's end, at least +0, so ``sum_down`` and ``sum_up`` give the same sum and
    ``_ln1p_bounds`` +0.0 at zero; a tower-relative step adds it to a nonzero double, or
    divides it and rounds outward with ``nextafter``, the same double from 0.0 and -0.0.
    """
    if isinstance(state, Interval):
        state = state.bounds()
    base, m = seq.cut or (seq, 0)
    if level > m > 0:  # hand reads level before it moves to m
        def hand(_, state=state) -> tuple | _TowerRel:
            for j in range(level, m, -1):
                state = seq.entry(j).descend(state)
            return state
        state = _memoised(base, ("handed", *_past_cut(seq, m), level - m, state), hand)
        level = m
    keys = []
    for j in range(level, 0, -1):
        if j <= m:
            if (enc := base._memo.get(key := ("descend", j, state))) is not None:
                break
            keys.append(key)
        state = seq.entry(j).descend(state)
    else:
        enc = Interval(*(state.bounds() if isinstance(state, _TowerRel) else state))
    base._memo.update(dict.fromkeys(keys, enc))
    return enc


def _past_cut(seq: SymbolSeq, m: int) -> tuple:
    """A witness cut at m past its cut: its entries from m + 1 on, as the prefix and tail rule of
    its (m + 1)-fold shift.  The witnesses of one base with the same past share the work on it."""
    return seq.prefix[m + 1:], seq.tail.shifted(len(seq.prefix), m + 1)


def endpoint_lower_bound(seq: SymbolSeq, n: int) -> Interval:
    """Enclosure of the n-th backward-nesting constraint u_n (seeded at zero).

    The u_n are nondecreasing and converge to the endpoint height from below.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return _descend(seq, n, Interval.point(0.0))


def _height(seq: SymbolSeq) -> Interval:
    """The endpoint-height enclosure, however wide; its upper end is open when it saturates."""
    pot0 = potential(seq)
    enc = _descend(seq, *seq.tail.nesting_anchor(len(seq.prefix)))
    if pot0.is_finite:  # the sandwich t* <= t_s <= t* + 1
        return enc.intersect(Interval(pot0.lo, round_up(pot0.hi + 1.0)))
    return enc.intersect(Interval(pot0.lo, math.inf, pot0.lo_open, True))


def endpoint_height_enclosure(seq: SymbolSeq, tol: float = DEFAULT_TOL) -> Interval:
    """Like endpoint_height but always returns the enclosure, however wide."""
    check_tolerance(tol)
    return _memoised(seq, ("height",), _height)


def endpoint_height(seq: SymbolSeq, tol: float = DEFAULT_TOL) -> Interval:
    """Certified enclosure of the endpoint height t_s of the hair at this address.

    Backward nesting: lower bounds from the constraints u_n, upper bound from
    seeding the nesting with a certified bound on a shifted endpoint height
    (the tail rule's ``nesting_anchor``).  The result is intersected with the sandwich
    t* <= t_s <= t* + 1.  Raises NonConvergenceError (carrying the honest
    enclosure) when the requested tolerance is unattainable.  The enclosure does
    not depend on tol: a sequence builds it once.
    """
    enc = endpoint_height_enclosure(seq, tol)
    if enc.width > tol:
        raise NonConvergenceError(enc)
    return enc


# ---------------------------------------------------------------------------
# model points and classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelPoint:
    """A point (t, s) of the model: height coordinate plus symbol sequence."""

    t: float
    seq: SymbolSeq

    def __post_init__(self):
        if not math.isfinite(self.t) or self.t < 0.0:
            raise ValueError("model points need a finite height t >= 0")


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


def _bounded_tail_escape_threshold(seq: SymbolSeq, n: int) -> float:
    """Height above which growth outruns every later symbol of a bounded-tail address.

    If T >= max(2, ln(4 + 2 a_max)) then e^T >= 2T and e^T >= 2(a_max + 2),
    so F(T) - a >= T + 1; the bound re-applies forever and T diverges.
    """
    a_max = seq.tail.abs_bound()
    for j in range(n + 1, len(seq.prefix) + 1):
        a_max = max(a_max, seq.entry(j).abs_interval().hi)
    if not math.isfinite(a_max):
        return math.inf
    # ln(4 + 2 a_max) = ln(1 + (3 + 2 a_max)), rounded up at the sum and at the log
    return max(2.0, log1p_up(sum_up(3.0, 2.0 * a_max)))


def at_endpoint(x: ModelPoint, tol: float = DEFAULT_TOL) -> TriBool:
    """The one endpoint test, asked by ``classify`` and ``strata.in_stratum``.

    Unknown when the height enclosure (the evidence of every answer) is wider than tol, else
    whether enc.lo - tol <= t <= enc.hi + tol, decided exactly: the sums rounded inward are
    the nearest doubles inside the exact bounds, so a double t between them is inside and any
    other outside.  A yes puts t within enc.width + tol <= 2 tol of the endpoint height.
    """
    enc = endpoint_height_enclosure(x.seq, tol)
    if enc.width > tol:
        return TriBool.unknown(enc)
    return TriBool(sum_up(enc.lo, -tol) <= x.t <= sum_down(enc.hi, tol), enc)


def classify(x: ModelPoint, budget: int = 64, tol: float = DEFAULT_TOL) -> Classification:
    """Sound classification of a model point within an iteration budget.

    Certificates, in the order they can fire while scanning the orbit:
    a certifiably negative height (least such step is reported); a repeat;
    a height certifiably above the shifted potential + 1 together with a
    divergence certificate (escape).  If the orbit stays inconclusive, the endpoint
    certificate is tried: ``at_endpoint(x, tol)`` must answer yes (t within 2 tol of the
    endpoint height, not tol), and its height enclosure is the evidence.  Everything else
    is reported unknown with evidence, the orbit enclosure at the end of the budget.

    A repeat is a state (bounds and flags) met at an earlier step m under the
    same shifted sequence: a step depends only on these (a signed zero takes
    the t == 0 branch), so the orbit cycles from m with period n - m.  A point
    state is then non-escaping; any other ends the scan with the state at
    m + (budget - m) mod (n - m), the one the full scan would end on.  Only past
    the prefix of a bounded tail can two shifted sequences be equal: there they
    follow the pattern's phase, so states are keyed on their bounds and n mod its least
    period (a pattern such as [0, 0] repeats after one step, not two).

    A diverging tail grows from the least shift from which every shifted potential is strictly
    above 0.694 > ln 2 (``potential_floor``, as for the strata thresholds): a height exceeding
    the endpoint by delta then grows by a factor e^(height of the shifted endpoint) >= 2 per
    step, so it escapes.  Escape is asked only once lo >= 2: soundness needs no such gate (a
    bounded tail's threshold is at least 2 already), but it fixes the step that reports escape.

    A state [lo, inf] with lo < 0 is absorbing: sum_up(inf, .) stays inf, and
    expm1_down(lo) lies in [-1, 0), from which sum_down subtracts |s|.hi >= 0.
    So no scan certificate can fire again (they need hi < 0, a point state or
    lo >= 2), and the endpoint certificate is tried there; only if it fails
    does the scan resume, for the evidence of the unknown verdict.
    """
    check_tolerance(tol)
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    seq = x.seq
    period = seq.tail.period if seq.asymptotics is Asymptotics.BOUNDED else 0
    t_iv: Interval = Interval.point(x.t)
    seen: dict = {}  # (state bounds, phase) -> the step that reached them
    trail: list[Interval] = []  # the state at each step
    grows_from: int | None = -1  # the escape floor of a diverging tail, once asked
    escape_at = (-1, math.inf)  # (min(n, p), a bounded tail's escape threshold there), once asked
    absorbed = False
    for n in range(budget + 1):
        evidence = t_iv
        if t_iv.certainly_lt(0.0):
            return Classification(Verdict.NOT_IN_JULIA, first_failing_step=n, evidence=t_iv)
        if not absorbed and t_iv.lo < 0.0 and t_iv.hi == math.inf:
            absorbed = True
            if (found := at_endpoint(x, tol)).is_true:
                return Classification(Verdict.ENDPOINT, evidence=found.evidence)
        if t_iv.lo == -math.inf and t_iv.hi == math.inf:
            break
        if period and n >= len(seq.prefix):
            key = (t_iv.bounds(), n % period)
            if (m := seen.get(key)) is not None:
                if t_iv.width == 0.0:
                    return Classification(Verdict.NON_ESCAPING)
                evidence = trail[m + (budget - m) % (n - m)]
                break
            seen[key] = n
        trail.append(t_iv)
        if t_iv.lo >= 2.0:
            if seq.asymptotics is Asymptotics.BOUNDED:
                if escape_at[0] != (at := min(n, len(seq.prefix))):  # the same from p on
                    escape_at = at, _bounded_tail_escape_threshold(seq, at)
                grows = t_iv.lo >= escape_at[1]
            else:
                grows_from = potential_floor(seq, 0.694) if grows_from == -1 else grows_from
                grows = grows_from is not None and n >= grows_from
            # sum_up(inf, 1.0) is inf: an unbounded potential certifies nothing
            if grows and t_iv.lo > sum_up(potential(seq, n).hi, 1.0):
                return Classification(Verdict.ESCAPE_CERTIFIED, evidence=t_iv)
        if n < budget:
            t_iv = growth_sub(t_iv, seq.entry(n + 1).abs_interval())

    if not absorbed and (found := at_endpoint(x, tol)).is_true:
        return Classification(Verdict.ENDPOINT, evidence=found.evidence)
    return Classification(Verdict.UNKNOWN, evidence=evidence)
