"""Stratification of the escaping endpoints by shifted-potential thresholds.

A stratum is indexed by a strictly increasing tuple of naturals
``<N_0, ..., N_{k-1}>``: level i demands every shifted potential from N_i on
to exceed 3i + 2.  Level 0's threshold is 2 and the empty index denotes the
set of escaping endpoints itself.

``witness_sequence`` thins an address beyond a cut index m to
min(|s_n|, floor(F^(n-m)(3k))), which caps the potential at shift m by 3k
(certified exclusion from the closure of the child stratum) while keeping
every earlier shifted potential above 3k - 1; ``witness_family`` generates a
convergent family of these witnesses with verified margins, searching the witness
depth once at each shift the first member spans, then once per later member, each
search stopping at ``DEPTH_BUDGET``.  Each witness carries its cut ``(base, m)``;
members whose entries past the cut agree share both claims.

Membership asks ``model.at_endpoint``, the one endpoint test, at the caller's
tolerance, for witnesses too: an exact yes or no once the height enclosure is that narrow.
"""

from __future__ import annotations

import math

from .intervals import DEFAULT_TOL, Frozen, Interval, TriBool, _set_slot, check_tolerance, sum_down
from .model import (
    BudgetExceededError,
    ModelPoint,
    _least_depth,
    _past_cut,
    _threshold_holds_from,
    at_endpoint,
    cut_entries,
    endpoint_height_enclosure,
    is_escaping_endpoint_address,
    potential,
    potential_floor,
)
from .sequences import (
    Asymptotics,
    Entry,
    ExpTowerTail,
    IncomparableTailsError,
    IntEntry,
    SymbolSeq,
    _thin_entry,
    _tower_entry,
)


EXTRA_CLAIM_SHIFTS = 6
DEPTH_BUDGET = 512  # the largest witness depth k any search tries
DEFAULT_BUDGET = 100000  # the most explicit shifts a threshold window may span


class WitnessRefutedError(ArithmeticError):
    """A witness claim that certainly fails: a fault of the construction, not a budget stop."""


class AlphaIndex(Frozen):
    """Strictly increasing tuple of naturals indexing a stratum."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[int, ...] = ()):
        entries = tuple(entries)
        # int(v) would truncate a float and accept a bool
        if any(type(v) is not int for v in entries):
            raise ValueError(f"stratum index entries must be integers, got {entries!r}")
        if any(v < 0 for v in entries):
            raise ValueError("stratum index entries must be naturals")
        if any(a >= b for a, b in zip(entries, entries[1:], strict=False)):
            raise ValueError("stratum index must be strictly increasing")
        _set_slot(self, "entries", entries)

    @property
    def dom(self) -> int:
        return len(self.entries)

    def threshold(self, i: int) -> float:
        """Constraint level of the i-th entry: 3i + 2 (so 2 at depth zero)."""
        return 3.0 * i + 2.0

    def child(self, n: int) -> "AlphaIndex":
        if self.entries and n <= self.entries[-1]:
            raise ValueError("child entry must exceed the last index entry")
        return AlphaIndex(self.entries + (n,))

    def to_json(self) -> list[int]:
        return list(self.entries)


class WitnessReport(Frozen):
    """One verified thinning witness: margins for both claims plus its distance.

    ``claim1_margin`` is the hull of least lower end among the potentials at
    shifts m through ``horizon``; parent membership certifies claim one at
    every shift from m on.
    """

    __slots__ = _fields = ("m", "witness", "claim1_margin", "claim2_bound", "distance_to_base",
                           "height", "horizon")

    def __init__(self, m: int, witness: SymbolSeq, claim1_margin: Interval,
                 claim2_bound: Interval, distance_to_base: float, height: Interval, horizon: int):
        _set_slot(self, "m", m)
        _set_slot(self, "witness", witness)
        _set_slot(self, "claim1_margin", claim1_margin)
        _set_slot(self, "claim2_bound", claim2_bound)
        _set_slot(self, "distance_to_base", distance_to_base)
        _set_slot(self, "height", height)
        _set_slot(self, "horizon", horizon)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "witness": self.witness.to_json(),
            "claim1_margin": self.claim1_margin.to_json(),
            "claim2_bound": self.claim2_bound.to_json(),
            "distance": self.distance_to_base,
            "height": self.height.to_json(),
            "horizon": self.horizon,
        }


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def in_stratum(alpha: AlphaIndex, x: ModelPoint, tol: float = DEFAULT_TOL,
               budget: int = DEFAULT_BUDGET) -> TriBool:
    """Certified membership of a model point in the stratum indexed by alpha.

    Requires the escaping-endpoint certificate (the address's shifted
    potentials diverge, and ``model.at_endpoint(x, tol)``, the one endpoint
    test, answers yes), then every threshold constraint of alpha,
    decided finitely: explicit shifts up to the rule's stabilization index,
    the rest by the rule's certified tail behavior.
    """
    check_tolerance(tol)
    escaping = is_escaping_endpoint_address(x.seq)
    if not escaping.is_true:
        return escaping
    if not (endpoint := at_endpoint(x, tol)).is_true:
        return endpoint

    for i in range(alpha.dom):
        tri = _threshold_holds_from(x.seq, alpha.entries[i], alpha.threshold(i), budget)
        if not tri.is_true:
            return tri
    return TriBool.yes()


def extension_index(alpha: AlphaIndex, x: ModelPoint, n_floor: int = 0,
                    tol: float = DEFAULT_TOL, budget: int = DEFAULT_BUDGET) -> int:
    """Least N extending alpha with certified membership of x in the child stratum.

    Terminates for certified members because their shifted potentials diverge.
    """
    if (member := in_stratum(alpha, x, tol, budget)).is_unknown:  # not a usage error
        raise BudgetExceededError(f"stratum membership not certified at tol {tol}")
    if member.is_false:
        raise ValueError("extension_index requires a certified stratum member")
    threshold = alpha.threshold(alpha.dom)
    # a nonempty index forces strict growth; n_floor itself stays admissible
    floor = max(alpha.entries[-1] + 1 if alpha.entries else 0, n_floor)

    n = potential_floor(x.seq, threshold, floor, budget)
    if n is None:
        raise BudgetExceededError("no certified divergence index for the child threshold")
    return n


# ---------------------------------------------------------------------------
# witness construction
# ---------------------------------------------------------------------------


def witness_sequence(base: SymbolSeq, alpha: AlphaIndex, m: int) -> SymbolSeq:
    """The thinned address: base entries through m, then min(|s_n|, floor(F^(n-m)(3k))).

    The min is resolved entry-wise, prefix and tail entries in one loop,
    until the tail rule's ``thin`` gives the rule the thinned sequence follows
    from there on; each comparison is a single certified one.  The witness carries its cut
    ``(base, m)``, outside ==, hash, repr and to_json, through which model.py shares work.
    """
    if base.asymptotics is not Asymptotics.DIVERGES:
        raise IncomparableTailsError("witness thinning needs a diverging-tail base",
                                     {"tail": base.tail.kind})
    if alpha.dom < 1:
        raise ValueError("witness thinning needs an index of depth >= 1")
    if m < 0:
        raise ValueError("cut index must be a natural")
    cap_c = 3 * alpha.dom
    p = len(base.prefix)

    entries: list[Entry] = cut_entries(base, m)
    n = m + 1
    while n < p or (tail := base.tail.thin(p, m, cap_c, n)) is None:
        e = base.entry(n)
        thinned = _thin_entry(e, cap_c, n - m)
        if thinned is None:
            raise IncomparableTailsError(
                "entry incomparable with the thinning cap",
                {"n": n, "entry": e.to_json(), "cap": _tower_entry(cap_c, n - m).to_json()})
        entries.append(thinned)
        n += 1
    witness = SymbolSeq(tuple(entries), tail)
    _set_slot(witness, "cut", (base, m))
    return witness


def least_witness_depth(seq: SymbolSeq, n: int, threshold: float) -> int:
    """Least k in 1..DEPTH_BUDGET with a certified potential term F^-k |s_{n+k}| > threshold."""
    if k := _least_depth(seq, n, threshold, DEPTH_BUDGET):
        return k
    raise BudgetExceededError(f"no certified witness depth at shift {n} for threshold {threshold}")


# ---------------------------------------------------------------------------
# distances and the witness family
# ---------------------------------------------------------------------------

_DIST_HORIZON = 60


def _entry_gap(a: Entry, b: Entry) -> float:
    """min(1, |a - b|) for the product metric, certified where it matters."""
    if a == b:
        return 0.0
    if isinstance(a, IntEntry) and isinstance(b, IntEntry):
        return min(1.0, float(abs(a.value - b.value)))
    # 1.0 for a difference certainly beyond +-1, 0.0 for the point difference [0, 0]
    return min(1.0, abs((a.abs_interval() - b.abs_interval()).mid))


def _towers_apart(x: Entry, y: Entry) -> bool:
    """Whether two tower entries are certainly more than 2 apart, read from their values or
    towers t = F^h(c): floor(t) is an integer above t.lo - 1, so at least the double nearest it."""
    (x_lo, x_hi), (y_lo, y_hi) = [(e.value, e.value) if isinstance(e, IntEntry) else
                                  (e.tower().lo - 1.0, e.tower().hi) for e in (x, y)]
    return sum_down(y_lo, -x_hi) > 2.0 or sum_down(x_lo, -y_hi) > 2.0


def address_distance(a: SymbolSeq, b: SymbolSeq, horizon: int = _DIST_HORIZON) -> float:
    """Product metric on addresses: sum of 2^-n min(1, |s_n - s'_n|), in one loop over n.

    Its term, halved at each index, is 2^-n down to the least subnormal and 0.0 past it, so
    gap * term rounds as ldexp(gap, -n).  Past both prefixes, equal shifted tail rules end the
    sum, and once two tower tails' entries are certainly more than 2 apart, F' >= 1 keeps their
    towers more than 1 apart: gap 1.0 at every later index, and no entry is read.  A witness
    cut at m and its base agree through m, so the sum starts at m + 1."""
    tails = max(len(a.prefix), len(b.prefix))
    towers = type(a.tail) is type(b.tail) is ExpTowerTail
    start = 0
    for x, y in ((a, b), (b, a)):
        if x.cut and x.cut[0] is y:
            start = x.cut[1] + 1
    total, term, apart = 0.0, math.ldexp(1.0, -start), False
    for n in range(start, horizon + 1):
        if not apart:
            if n == tails and a.tail.shifted(len(a.prefix), n) == b.tail.shifted(len(b.prefix), n):
                break
            ea, eb = a.entry(n), b.entry(n)
            apart = towers and n >= tails and _towers_apart(ea, eb)
        total += (1.0 if apart else _entry_gap(ea, eb)) * term
        term *= 0.5
    return total


def point_distance(x: ModelPoint, y: ModelPoint) -> float:
    """Metric on model points: height gap plus the address product metric."""
    return abs(x.t - y.t) + address_distance(x.seq, y.seq)


def witness_family(base_point: ModelPoint, alpha: AlphaIndex, n_ext: int,
                   count: int, tol: float = DEFAULT_TOL,
                   budget: int = DEFAULT_BUDGET) -> list[WitnessReport]:
    """A verified family of thinning witnesses for the child stratum at n_ext.

    Each witness is checked: parent-stratum membership is certified at tol, at the witness
    height's midpoint, and with it claim one (every shifted potential from the cut index m on
    exceeds 3*dom - 1): dom >= 1, N_(dom-1) < n_ext < m, and ``in_stratum`` certifies the last
    entry's threshold 3(dom - 1) + 2 = 3*dom - 1 from shift N_(dom-1) on.  The potential at m
    is at most 3*dom, hence at least one below the child's closure bound 3*dom + 1 (claim two).
    Cut indices strictly increase, distances to the base strictly decrease, and heights stay
    below the base height.  Distances sum entry gaps through index ``_DIST_HORIZON`` = 60
    only: a cut index of 60 or more raises.  A check left undecided raises
    ``BudgetExceededError``, one that certainly fails ``WitnessRefutedError``.

    Cuts come from least depths k_n (``least_witness_depth``) at the child threshold, below n_ext
    at the deepest index entry's at or below n, which the span covers (thinning clips none):
    m_0 = max{n + k_n : n_ext <= n <= span}, m_{j+1} = m_j + k_{m_j}.  With m_j = n0 + k_{n0}, a
    shift n in (n0, m_j) sees entry m_j at depth m_j - n < k_{n0}, a lower end no lower, so n +
    k_n <= m below a cut m, also at a parent threshold, none higher: ``_cut_floor`` is min(m, stop).
    """
    check_tolerance(tol)
    if count < 0:
        raise ValueError(f"witness count must be >= 0, got {count}")
    child = alpha.child(n_ext)
    if (member := in_stratum(child, base_point, tol, budget)).is_unknown:  # not a usage error
        raise BudgetExceededError(f"child-stratum membership not certified at tol {tol}")
    if member.is_false:
        raise ValueError("witness_family requires certified membership in the child stratum")
    if count == 0:
        return []
    if n_ext >= _DIST_HORIZON - 1:  # every cut index exceeds n_ext: raise before any depth search
        raise BudgetExceededError(
            f"extension index {n_ext} exceeds the budget {budget}" if n_ext > budget
            else f"cut index past {n_ext} reaches the distance horizon {_DIST_HORIZON}")

    base = base_point.seq
    bound, threshold = 3.0 * alpha.dom, alpha.threshold(alpha.dom)
    span = n_ext  # each shift below n_ext, under the deepest index entry at or below it
    for i, (start, stop) in enumerate(zip(alpha.entries, alpha.entries[1:] + (n_ext,))):
        for n in range(start, stop):
            span = max(span, n_ext + least_witness_depth(base, n, alpha.threshold(i)))

    reports: list[WitnessReport] = []
    past_claims: dict = {}  # (claim two, claim one's margin) of each past a cut leaves
    base_height = endpoint_height_enclosure(base, tol)
    last_distance = math.inf
    for _ in range(count):
        m = (reports[-1].m + least_witness_depth(base, reports[-1].m, threshold) if reports else
             max(n + least_witness_depth(base, n, threshold) for n in range(n_ext, span + 1)))
        if m >= _DIST_HORIZON:  # the witness would equal its base as far as the metric looks
            raise BudgetExceededError(f"cut index {m} reaches the distance horizon {_DIST_HORIZON}")
        witness = witness_sequence(base, alpha, m)
        # both claims read only the witness past its cut, which members often share
        if (claims := past_claims.get(past := _past_cut(witness, m))) is None:
            # claim two first: the thinned potential at the cut is capped by 3*dom
            claim2 = potential(witness, m)
            if claim2.certainly_gt(bound):
                raise WitnessRefutedError(f"claim-two bound refuted at m={m}")
            if not claim2.certainly_le(bound):
                raise BudgetExceededError(f"claim-two bound not certified at m={m}")

            # claim one's margin; parent membership below certifies claim one itself
            claim1 = min((potential(witness, n) for n in range(m, m + EXTRA_CLAIM_SHIFTS)),
                         key=lambda iv: iv.lo)
            claims = past_claims[past] = claim2, claim1
        claim2, claim1 = claims

        height = endpoint_height_enclosure(witness, tol)
        w_point = ModelPoint(height.mid, witness)
        # membership in the parent stratum is certified at the caller's tol
        parent = in_stratum(alpha, w_point, tol, budget)
        if parent.is_false:
            raise WitnessRefutedError(f"parent-stratum membership refuted at m={m}")
        if not parent.is_true:
            raise BudgetExceededError(f"parent-stratum membership not certified at m={m}")
        if height.lo > base_height.hi:
            raise WitnessRefutedError("witness height exceeds the base height")

        distance = point_distance(w_point, base_point)
        if distance >= last_distance:
            raise WitnessRefutedError("witness distances failed to decrease")

        reports.append(WitnessReport(m, witness, claim1, claim2, distance, height,
                                     m + EXTRA_CLAIM_SHIFTS - 1))
        last_distance = distance
    return reports
