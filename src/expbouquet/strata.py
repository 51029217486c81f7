"""Stratification of the escaping endpoints by shifted-potential thresholds.

A stratum is indexed by a strictly increasing tuple of naturals
``<N_0, ..., N_{k-1}>``: level i demands every shifted potential from N_i on
to exceed 3i + 2.  Level 0's threshold is 2 and the empty index denotes the
set of escaping endpoints itself.

``witness_sequence`` thins an address beyond a cut index m to
min(|s_n|, floor(F^(n-m)(3k))), which caps the potential at shift m by 3k
(certified exclusion from the closure of the child stratum) while keeping
every earlier shifted potential above 3k - 1; ``witness_family`` generates a
convergent family of these witnesses with verified margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .intervals import DEFAULT_TOL, Interval, TriBool, check_tolerance
from .model import (
    BudgetExceededError,
    ModelPoint,
    _memoised,
    endpoint_height_enclosure,
    is_escaping_endpoint_address,
    potential,
    potential_above,
    potential_floor,
    potential_term,
)
from .sequences import (
    Asymptotics,
    Entry,
    FloorPow,
    IncomparableTailsError,
    IntEntry,
    SymbolSeq,
    _thin_entry,
    _tower_entry,
)


EXTRA_CLAIM_SHIFTS = 6


@dataclass(frozen=True)
class AlphaIndex:
    """Strictly increasing tuple of naturals indexing a stratum."""

    entries: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        # int(v) would truncate a float and accept a bool
        if any(type(v) is not int for v in self.entries):
            raise ValueError(f"stratum index entries must be integers, got {self.entries!r}")
        if any(v < 0 for v in self.entries):
            raise ValueError("stratum index entries must be naturals")
        if any(a >= b for a, b in zip(self.entries, self.entries[1:], strict=False)):
            raise ValueError("stratum index must be strictly increasing")

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


@dataclass(frozen=True)
class WitnessReport:
    """One verified thinning witness: margins for both claims plus its distance.

    ``claim1_margin`` is the hull of least lower end among the potentials at
    shifts m through ``horizon``; the threshold certificate of claim one
    covers every shift from m on.
    """

    m: int
    witness: SymbolSeq
    claim1_margin: Interval
    claim2_bound: Interval
    distance_to_base: float
    height: Interval
    horizon: int

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


def _threshold_holds_from(seq: SymbolSeq, start: int, threshold: float,
                          budget: int) -> TriBool:
    """Certify potential(seq, n) > threshold for every n >= start (a diverging tail)."""
    n1 = seq.tail.potential_floor(len(seq.prefix), threshold)
    if n1 is None:
        return TriBool.unknown(None)
    if n1 - start > budget:
        raise BudgetExceededError("explicit threshold window exceeds budget")
    for n in range(start, n1):
        if not potential_above(seq, n, threshold):
            return potential(seq, n).tri_gt(threshold)
    return TriBool.yes()


def in_stratum(alpha: AlphaIndex, x: ModelPoint, tol: float = DEFAULT_TOL,
               budget: int = 100000) -> TriBool:
    """Certified membership of a model point in the stratum indexed by alpha.

    Requires the escaping-endpoint certificate (the height sits in a
    below-tolerance enclosure of the endpoint height, and the address's
    shifted potentials diverge), then every threshold constraint of alpha,
    decided finitely: explicit shifts up to the rule's stabilization index,
    the rest by the rule's certified tail behavior.
    """
    check_tolerance(tol)
    escaping = is_escaping_endpoint_address(x.seq)
    if not escaping.is_true:
        return escaping

    enc = endpoint_height_enclosure(x.seq, tol)
    if enc.width > tol:
        return TriBool.unknown(enc)
    if x.t < enc.lo - tol or x.t > enc.hi + tol:
        return TriBool.no(enc)

    for i in range(alpha.dom):
        tri = _threshold_holds_from(x.seq, alpha.entries[i], alpha.threshold(i), budget)
        if not tri.is_true:
            return tri
    return TriBool.yes()


def extension_index(alpha: AlphaIndex, x: ModelPoint, n_floor: int = 0,
                    tol: float = DEFAULT_TOL, budget: int = 100000) -> int:
    """Least N extending alpha with certified membership of x in the child stratum.

    Terminates for certified members because their shifted potentials diverge.
    """
    member = in_stratum(alpha, x, tol, budget)
    if not member.is_true:
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
    from there on; each comparison is a single certified one.
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

    entries: list[Entry] = [base.entry(n) for n in range(m + 1)]
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
    return SymbolSeq(tuple(entries), tail)


def least_witness_depth(seq: SymbolSeq, n: int, threshold: float,
                        budget: int = 512) -> int:
    """Least k >= 1 with a certified potential term F^-k |s_{n+k}| > threshold.

    Memoised per shift and threshold for every budget; a failed search keeps nothing.
    """
    failed = f"no certified witness depth at shift {n} for threshold {threshold}"

    def least(s: SymbolSeq) -> int:
        for k in range(1, budget + 1):
            if potential_term(s, n + k, k).certainly_gt(threshold):
                return k
        raise BudgetExceededError(failed)
    depth = _memoised(seq, ("depth", n, threshold), least)
    if depth > budget:
        raise BudgetExceededError(failed)
    return depth


def _segment_depths(base: SymbolSeq, alpha: AlphaIndex, n_ext: int,
                    budget: int = 512) -> list[int]:
    """Witness depths below the extension index, each at its own segment threshold.

    Shifts below the first index entry carry no constraint; elsewhere the
    binding level is the deepest index entry at or below the shift.
    """
    levels = ((n, sum(1 for e in alpha.entries if e <= n) - 1) for n in range(n_ext))
    return [least_witness_depth(base, n, alpha.threshold(i), budget) for n, i in levels if i >= 0]


def witness_cut_index(base: SymbolSeq, alpha: AlphaIndex, n_ext: int, m_span: int,
                      budget: int = 10000) -> int:
    """The cut index m = max{n + k_n : n in [n_ext, m_span]}.

    k_n is the least depth certifying a potential term above 3*dom + 2 at
    shift n.  Enforces m_span >= n_ext + max{k_n : n < n_ext} (with the empty
    maximum read as zero), so thinning cannot clip the depths used below
    n_ext; m > m_span always holds since every k_n is at least 1.
    """
    if m_span < n_ext:
        raise ValueError("span must reach at least the extension index")
    threshold = alpha.threshold(alpha.dom)
    below = max(_segment_depths(base, alpha, n_ext, budget), default=0)
    if m_span < n_ext + below:
        raise ValueError(
            f"span {m_span} below the enforced minimum {n_ext + below}")
    return max(n + least_witness_depth(base, n, threshold, budget)
               for n in range(n_ext, m_span + 1))


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


def address_distance(a: SymbolSeq, b: SymbolSeq, horizon: int = _DIST_HORIZON) -> float:
    """Product metric on addresses: sum of 2^-n min(1, |s_n - s'_n|).

    Past both prefixes, equal shifted tail rules end the sum and two unequal
    towers unbounded above (only tower tails give them there; they stay so) add
    gap 1.0 at each later index, in order: the sum is the same bit for bit.
    """
    tails = max(len(a.prefix), len(b.prefix))
    total = 0.0
    for n in range(horizon + 1):
        if n == tails and a.tail.shifted(len(a.prefix), n) == b.tail.shifted(len(b.prefix), n):
            break
        ea, eb = a.entry(n), b.entry(n)
        if (n >= tails and type(ea) is type(eb) is FloorPow and ea != eb
                and ea.tower().hi == eb.tower().hi == math.inf):
            for k in range(n, horizon + 1):
                total += math.ldexp(1.0, -k)
            break
        gap = _entry_gap(ea, eb)
        if gap:
            total += math.ldexp(gap, -n)
    return total


def point_distance(x: ModelPoint, y: ModelPoint) -> float:
    """Metric on model points: height gap plus the address product metric."""
    return abs(x.t - y.t) + address_distance(x.seq, y.seq)


def witness_family(base_point: ModelPoint, alpha: AlphaIndex, n_ext: int,
                   count: int, tol: float = DEFAULT_TOL,
                   budget: int = 100000) -> list[WitnessReport]:
    """A verified family of thinning witnesses for the child stratum at n_ext.

    Each witness is checked: every shifted potential from its cut index on
    exceeds 3*dom - 1 (one threshold certificate) and membership in the parent stratum is
    certified (claim one); the potential at the cut index is at most 3*dom,
    hence at least one below the closure bound 3*dom + 1 of the child stratum
    (claim two).  Cut indices strictly increase, distances to the base
    strictly decrease, and heights stay below the base height.  Distances sum entry
    gaps through index ``_DIST_HORIZON`` = 60 only: a cut index of 60 or more raises.
    """
    check_tolerance(tol)
    if count < 0:
        raise ValueError(f"witness count must be >= 0, got {count}")
    child = alpha.child(n_ext)
    member = in_stratum(child, base_point, tol, budget)
    if not member.is_true:
        raise ValueError("witness_family requires certified membership in the child stratum")
    if count == 0:
        return []

    base = base_point.seq
    bound = 3.0 * alpha.dom

    span = n_ext + max(_segment_depths(base, alpha, n_ext), default=0)

    reports: list[WitnessReport] = []
    base_height = endpoint_height_enclosure(base, tol)
    last_distance = math.inf
    last_m = -1
    for _ in range(count):
        m = witness_cut_index(base, alpha, n_ext, span)
        if m <= last_m:
            m = last_m + 1
        if m >= _DIST_HORIZON:  # the witness would equal its base as far as the metric looks
            raise BudgetExceededError(f"cut index {m} reaches the distance horizon {_DIST_HORIZON}")
        witness = witness_sequence(base, alpha, m)

        # claim two first: the thinned potential at the cut is capped by 3*dom
        claim2 = potential(witness, m)
        if not claim2.certainly_le(bound):
            raise BudgetExceededError(f"claim-two bound not certified at m={m}")

        # claim one: every shifted potential from m on exceeds 3*dom - 1, one
        # threshold certificate whose scan reads the margin's hulls from the memo ...
        claim1 = min((potential(witness, n) for n in range(m, m + EXTRA_CLAIM_SHIFTS)),
                     key=lambda iv: iv.lo)
        if not _threshold_holds_from(witness, m, bound - 1.0, budget).is_true:
            raise BudgetExceededError(f"claim-one threshold certificate failed at m={m}")

        height = endpoint_height_enclosure(witness, tol)
        w_point = ModelPoint(max(height.mid, 0.0), witness)
        # ... and membership in the parent stratum is certified
        parent = in_stratum(alpha, w_point, max(tol, height.width * 4.0 + 1e-15), budget)
        if not parent.is_true:
            raise BudgetExceededError(f"parent-stratum membership not certified at m={m}")
        if height.lo > base_height.hi + tol:
            raise BudgetExceededError("witness height exceeds the base height")

        distance = point_distance(w_point, base_point)
        if distance >= last_distance:
            raise BudgetExceededError("witness distances failed to decrease")

        reports.append(WitnessReport(m, witness, claim1, claim2, distance, height,
                                     m + EXTRA_CLAIM_SHIFTS - 1))
        last_distance = distance
        last_m = m
        span = max(span + 1, m)
    return reports
