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
    endpoint_height_enclosure,
    is_escaping_endpoint_address,
    potential,
    potential_floor_from,
    potential_term,
)
from .sequences import (
    Asymptotics,
    Entry,
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
        object.__setattr__(self, "entries", tuple(int(v) for v in self.entries))
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
        return AlphaIndex(self.entries + (int(n),))

    def to_json(self) -> list[int]:
        return list(self.entries)

    @staticmethod
    def from_json(obj) -> "AlphaIndex":
        return AlphaIndex(tuple(int(v) for v in obj))


@dataclass(frozen=True)
class WitnessReport:
    """One verified thinning witness: margins for both claims plus its distance.

    ``horizon`` is the last shift whose potential was checked explicitly;
    beyond it the tail rule's certificate covers the remaining shifts.
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
    kind, n1 = potential_floor_from(seq, threshold)
    if kind != "above" or n1 is None:
        return TriBool.unknown(None)
    if n1 - start > budget:
        raise BudgetExceededError("explicit threshold window exceeds budget")
    for n in range(start, n1):
        tri = potential(seq, n).tri_gt(threshold)
        if not tri.is_true:
            return tri
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
        return TriBool.no(escaping.evidence) if escaping.is_false else escaping

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

    kind, n1 = potential_floor_from(x.seq, threshold)
    if kind != "above" or n1 is None:
        raise BudgetExceededError("no certified divergence index for the child threshold")
    # potentials are certified above the threshold from n1 on; the least valid N
    # is just past the last certified-or-possible violation below n1
    candidate = n1
    n = n1 - 1
    while n >= floor:
        if not potential(x.seq, n).certainly_gt(threshold):
            break
        candidate = n
        n -= 1
    candidate = max(candidate, floor)
    check = _threshold_holds_from(x.seq, candidate, threshold, budget)
    if not check.is_true:
        raise BudgetExceededError("could not certify the extension membership")
    return candidate


# ---------------------------------------------------------------------------
# witness construction
# ---------------------------------------------------------------------------


def witness_sequence(base: SymbolSeq, alpha: AlphaIndex, m: int) -> SymbolSeq:
    """The thinned address: base entries through m, then min(|s_n|, floor(F^(n-m)(3k))).

    The min is resolved entry-wise through the prefix and by the tail rule's
    ``thin`` beyond it, with single certified comparisons where matched growth
    applications are stripped.
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

    prefix: list[Entry] = [base.entry(n) for n in range(m + 1)]
    for n in range(m + 1, p):
        e = base.entry(n)
        thinned = _thin_entry(e, cap_c, n - m)
        if thinned is None:
            raise IncomparableTailsError(
                "prefix entry incomparable with the thinning cap",
                {"n": n, "entry": e.to_json(), "cap": _tower_entry(cap_c, n - m).to_json()})
        prefix.append(thinned)
    entries, tail = base.tail.thin(p, m, cap_c)
    return SymbolSeq(tuple(prefix) + entries, tail)


def least_witness_depth(seq: SymbolSeq, n: int, threshold: float,
                        budget: int = 512) -> int:
    """Least k >= 1 with a certified potential term F^-k |s_{n+k}| > threshold."""
    for k in range(1, budget + 1):
        if potential_term(seq, n + k, k).certainly_gt(threshold):
            return k
    raise BudgetExceededError(
        f"no certified witness depth at shift {n} for threshold {threshold}")


def _segment_depths(base: SymbolSeq, alpha: AlphaIndex, n_ext: int,
                    budget: int = 512) -> list[int]:
    """Witness depths below the extension index, each at its own segment threshold.

    Shifts below the first index entry carry no constraint; elsewhere the
    binding level is the deepest index entry at or below the shift.
    """
    depths = []
    for n in range(n_ext):
        i = sum(1 for e in alpha.entries if e <= n) - 1
        if i < 0:
            continue
        depths.append(least_witness_depth(base, n, alpha.threshold(i), budget))
    return depths


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
    depths = _segment_depths(base, alpha, n_ext, budget)
    below = max(depths) if depths else 0
    if m_span < n_ext + below:
        raise ValueError(
            f"span {m_span} below the enforced minimum {n_ext + below}")
    m = 0
    for n in range(n_ext, m_span + 1):
        m = max(m, n + least_witness_depth(base, n, threshold, budget))
    return m


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
    diff = a.abs_interval() - b.abs_interval()
    if diff.lo >= 1.0 or diff.hi <= -1.0:
        return 1.0
    if diff.contains_value(0.0):
        return 0.0 if diff.width == 0.0 else min(1.0, abs(diff.mid))
    return min(1.0, abs(diff.mid))


def address_distance(a: SymbolSeq, b: SymbolSeq, horizon: int = _DIST_HORIZON) -> float:
    """Product metric on addresses: sum of 2^-n min(1, |s_n - s'_n|)."""
    total = 0.0
    for n in range(horizon + 1):
        gap = _entry_gap(a.entry(n), b.entry(n))
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

    Each witness is checked: every inspected shifted potential from its cut
    index on exceeds 3*dom - 1 and membership in the parent stratum is
    certified (claim one); the potential at the cut index is at most 3*dom,
    hence at least one below the closure bound 3*dom + 1 of the child stratum
    (claim two).  Cut indices strictly increase, distances to the base
    strictly decrease, and heights stay below the base height.
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

    depths = _segment_depths(base, alpha, n_ext)
    span = n_ext + (max(depths) if depths else 0)

    reports: list[WitnessReport] = []
    base_height = endpoint_height_enclosure(base, tol)
    last_distance = math.inf
    last_m = -1
    for _ in range(count):
        m = witness_cut_index(base, alpha, n_ext, span)
        if m <= last_m:
            m = last_m + 1
        witness = witness_sequence(base, alpha, m)

        # claim two first: the thinned potential at the cut is capped by 3*dom
        claim2 = potential(witness, m)
        if not claim2.certainly_le(bound):
            raise BudgetExceededError(f"claim-two bound not certified at m={m}")

        # claim one: inspected shifted potentials from m on exceed 3*dom - 1 ...
        claim1 = None
        for n in range(m, m + EXTRA_CLAIM_SHIFTS):
            pot_n = potential(witness, n)
            if not pot_n.certainly_gt(bound - 1.0):
                raise BudgetExceededError(f"claim-one margin not certified at shift {n}")
            if claim1 is None or pot_n.lo < claim1.lo:
                claim1 = pot_n
        tail_cert = _threshold_holds_from(witness, m + EXTRA_CLAIM_SHIFTS, bound - 1.0, budget)
        if not tail_cert.is_true:
            raise BudgetExceededError("claim-one tail certificate failed")

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
