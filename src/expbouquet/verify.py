"""Deterministic invariant suites behind the ``verify`` subcommand.

Each suite returns a machine-readable record with a pass flag and the margins
it measured.  Randomized suites draw from a seeded generator, so a fixed seed
reproduces the report byte for byte.  Unattainable tolerances are reported as
honest failures (the enclosure and its width), never silently widened.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .intervals import Interval, check_tolerance, growth_inv_pow, growth_net, sum_down
from .model import (
    ModelPoint,
    NonConvergenceError,
    endpoint_height,
    endpoint_height_enclosure,
    endpoint_lower_bound,
    potential,
    potential_term,
)
from .plane import (
    ESCAPE_RE,
    Viewport,
    exp_orbit,
    find_cycle,
    render_escape,
    strip_itinerary,
)
from .sequences import (
    ConstTail,
    ExpTowerTail,
    LinExpTail,
    PeriodicTail,
    SymbolSeq,
    const_seq,
    fexp_seq,
)
from .strata import AlphaIndex, extension_index, in_stratum, witness_family

MARGIN = 1e-6


@dataclass
class RunConfig:
    """Numeric defaults shared by every subcommand."""

    tolerance: float = 1e-9
    budget: int = 100000
    seed: int = 0
    fmt: str = "json"
    out_dir: str = field(default_factory=lambda: os.environ.get("EXPBOUQUET_OUT", "."))

    def __post_init__(self):
        check_tolerance(self.tolerance)
        if self.budget < 1:
            raise ValueError("budget must be >= 1")


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------

_RATES = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))


def random_sequence(rng: random.Random) -> SymbolSeq:
    prefix = tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 3)))
    kind = rng.randrange(4)
    if kind == 0:
        return SymbolSeq(prefix, ConstTail(rng.randint(-6, 6)))
    if kind == 1:
        pattern = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 3)))
        return SymbolSeq(prefix, PeriodicTail(pattern))
    if kind == 2:
        return SymbolSeq(prefix, ExpTowerTail(rng.randint(1, 8)))
    return SymbolSeq(prefix, LinExpTail(rng.choice(_RATES)))


def dominated_pair(rng: random.Random) -> tuple[SymbolSeq, SymbolSeq]:
    """A pair (small, big) with |small_n| <= |big_n| at every index."""
    n_prefix = rng.randint(0, 3)
    big_prefix = tuple(rng.randint(-9, 9) for _ in range(n_prefix))
    small_prefix = tuple(rng.randint(-abs(v), abs(v)) for v in big_prefix)
    kind = rng.randrange(4)
    if kind == 0:
        cb = rng.randint(0, 6)
        cs = rng.randint(0, cb)
        return (SymbolSeq(small_prefix, ConstTail(cs)),
                SymbolSeq(big_prefix, ConstTail(cb)))
    if kind == 1:
        length = rng.randint(1, 3)
        pb = tuple(rng.randint(0, 5) for _ in range(length))
        ps = tuple(rng.randint(0, v) for v in pb)
        return (SymbolSeq(small_prefix, PeriodicTail(ps)),
                SymbolSeq(big_prefix, PeriodicTail(pb)))
    if kind == 2:
        cb = rng.randint(2, 8)
        cs = rng.randint(1, cb)
        return (SymbolSeq(small_prefix, ExpTowerTail(cs)),
                SymbolSeq(big_prefix, ExpTowerTail(cb)))
    rb = rng.choice(_RATES)
    rs = rng.choice([r for r in _RATES if r <= rb])
    return (SymbolSeq(small_prefix, LinExpTail(rs)),
            SymbolSeq(big_prefix, LinExpTail(rb)))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite(name: str, passed: bool, **details) -> dict:
    return {"name": name, "passed": bool(passed), "details": details}


def suite_inverse_growth_strictness(cfg: RunConfig) -> dict:
    """Both strict inequalities of the inverse growth map, with certified margins.

    Each margin is a lower bound from the interval enclosures:
    F^-k(t) - F^-(k+1)(t) and F^-k(t - 1) - (F^-k(t) - 1).
    """
    ts = [10.0 ** (x / 39.0 * 2.0) for x in range(40)]  # 40 log-spaced in [1, 100]
    min_margin_depth = math.inf
    min_margin_slide = math.inf
    for t in ts:
        for k in range(1, 21):
            a = growth_inv_pow(t, k)
            depth = sum_down(a.lo, -a.ln1p().hi)
            slide = sum_down(sum_down(growth_inv_pow(t - 1.0, k).lo, -a.hi), 1.0)
            min_margin_depth = min(min_margin_depth, depth)
            min_margin_slide = min(min_margin_slide, slide)
    passed = min_margin_depth > 1e-9 and min_margin_slide > 1e-9
    return _suite("inverse_growth_strictness", passed,
                  grid="k in [1,20] x 40 log-spaced t in [1,100]",
                  min_margin_depth=min_margin_depth,
                  min_margin_slide=min_margin_slide)


def suite_sandwich(cfg: RunConfig, count: int = 120) -> dict:
    """Endpoint heights sit inside [potential, potential + 1]."""
    rng = random.Random(cfg.seed)
    failures = []
    checked = 0
    worst = math.inf
    for i in range(count):
        seq = random_sequence(rng)
        pot = potential(seq, 0)
        if not pot.is_finite:
            continue
        checked += 1
        try:
            height = endpoint_height(seq, cfg.tolerance)
        except NonConvergenceError as e:
            failures.append({"case": i, "reason": "nonconvergence",
                             "width": e.enclosure.width})
            continue
        lo_ok = height.lo >= pot.lo - MARGIN
        hi_ok = height.hi <= pot.hi + 1.0 + MARGIN
        worst = min(worst, height.lo - (pot.lo - MARGIN), (pot.hi + 1.0 + MARGIN) - height.hi)
        if not (lo_ok and hi_ok):
            failures.append({"case": i, "seq": seq.to_json()})
    return _suite("sandwich", checked >= 100 and not failures,
                  checked=checked, failures=failures, worst_slack=worst)


def suite_domination(cfg: RunConfig, count: int = 120) -> dict:
    """Coordinate-wise domination is respected by heights and potentials."""
    rng = random.Random(cfg.seed + 1)
    failures = []
    for i in range(count):
        small, big = dominated_pair(rng)
        hs = endpoint_height_enclosure(small, cfg.tolerance)
        hb = endpoint_height_enclosure(big, cfg.tolerance)
        ps = potential(small, 0)
        pb = potential(big, 0)
        if hs.mid > hb.mid + MARGIN or ps.mid > pb.mid + MARGIN:
            failures.append({"case": i, "small": small.to_json(), "big": big.to_json()})
    return _suite("domination", not failures, checked=count, failures=failures)


def suite_backward_nesting(cfg: RunConfig, count: int = 40, depth: int = 12) -> dict:
    """Nesting constraints increase with depth and stay under potential + 1."""
    rng = random.Random(cfg.seed + 2)
    failures = []
    for i in range(count):
        seq = random_sequence(rng)
        pot = potential(seq, 0)
        prev = -math.inf
        for n in range(depth + 1):
            u = endpoint_lower_bound(seq, n)
            if u.mid < prev - MARGIN:
                failures.append({"case": i, "n": n, "reason": "not monotone"})
                break
            if pot.is_finite and u.lo > pot.hi + 1.0 + MARGIN:
                failures.append({"case": i, "n": n, "reason": "above sandwich"})
                break
            prev = u.mid
    return _suite("backward_nesting", not failures, checked=count, failures=failures)


def suite_shift_identity(cfg: RunConfig, count: int = 60) -> dict:
    """potential(seq, n) agrees with potential(seq shifted by n, 0)."""
    rng = random.Random(cfg.seed + 3)
    failures = []
    for i in range(count):
        seq = random_sequence(rng)
        n = rng.randint(0, 5)
        a = potential(seq, n)
        b = potential(seq.shift(n), 0)
        lo_gap = abs(min(a.lo, 1e12) - min(b.lo, 1e12))
        hi_gap = abs(min(a.hi, 1e12) - min(b.hi, 1e12))
        if lo_gap > MARGIN or hi_gap > MARGIN:
            failures.append({"case": i, "n": n, "seq": seq.to_json()})
    return _suite("shift_identity", not failures, checked=count, failures=failures)


def suite_floor_window(cfg: RunConfig, count: int = 200) -> dict:
    """Tower potential terms stay inside their floor window (F^e - 1, F^e]."""
    rng = random.Random(cfg.seed + 4)
    failures = []
    for i in range(count):
        c = rng.randint(1, 10)
        seq = fexp_seq(c)
        k = rng.randint(1, 8)
        n = rng.randint(max(1, k - 6), k + 2)
        term = potential_term(seq, n, k)
        window = _floor_window(c, n + 1 - k)
        # slack: the stated test margin plus a few ulps at the window's scale
        lo_slack = MARGIN + 16.0 * (math.ulp(window.lo) if math.isfinite(window.lo) else 0.0)
        hi_slack = MARGIN + 16.0 * (math.ulp(window.hi) if math.isfinite(window.hi) else 0.0)
        lo_ok = term.lo >= window.lo - lo_slack
        hi_ok = term.hi <= window.hi + hi_slack or (term.hi == math.inf and window.hi == math.inf)
        if not (lo_ok and hi_ok):
            failures.append({"case": i, "c": c, "n": n, "k": k})
    return _suite("floor_window", not failures, checked=count, failures=failures)


def _floor_window(c: int, e: int) -> Interval:
    net = growth_net(c, e)
    return Interval(max(net.lo - 1.0, 0.0), net.hi)


def _demo_family(cfg: RunConfig, base_c: int, alpha: AlphaIndex, n_ext: int, count: int):
    base = fexp_seq(base_c)
    height = endpoint_height_enclosure(base, cfg.tolerance)
    point = ModelPoint(height.mid, base)
    return point, witness_family(point, alpha, n_ext, count, cfg.tolerance, cfg.budget)


def suite_witness_claims(cfg: RunConfig) -> dict:
    """Thinning witnesses at index depths 1, 2, 3: both claims plus convergence."""
    cases = [
        (10, AlphaIndex((0,)), 1),
        (10, AlphaIndex((0, 1)), 2),
        (10, AlphaIndex((0, 2, 4)), 5),
    ]
    failures = []
    details = []
    for base_c, alpha, n_ext in cases:
        bound = 3.0 * alpha.dom
        try:
            point, reports = _demo_family(cfg, base_c, alpha, n_ext, 3)
        except Exception as e:  # honest reporting of any certification failure
            failures.append({"alpha": alpha.to_json(), "error": str(e)})
            continue
        base_height = endpoint_height_enclosure(point.seq, cfg.tolerance)
        gaps = [abs(r.height.mid - base_height.mid) for r in reports]
        ok = all(r.claim1_margin.lo > bound - 1.0 for r in reports)
        ok &= all(r.claim2_bound.hi <= bound for r in reports)
        # exclusion margin >= 1 below the child-stratum closure bound 3*dom + 1
        ok &= all((bound + 1.0) - r.claim2_bound.hi >= 1.0 for r in reports)
        ok &= all(b < a + cfg.tolerance for a, b in zip(gaps, gaps[1:], strict=False))
        ok &= gaps[-1] < 1e-4
        ok &= all(b.distance_to_base < a.distance_to_base
                  for a, b in zip(reports, reports[1:], strict=False))
        if not ok:
            failures.append({"alpha": alpha.to_json()})
        details.append({"alpha": alpha.to_json(),
                        "ms": [r.m for r in reports],
                        "final_height_gap": gaps[-1] if gaps else None})
    return _suite("witness_claims", not failures, cases=details, failures=failures)


def suite_closure_bound(cfg: RunConfig) -> dict:
    """Limits of threshold-exceeding families keep (almost) the threshold."""
    alpha = AlphaIndex((0,))
    failures = []
    point, reports = _demo_family(cfg, 10, alpha, 1, 3)
    base = point.seq
    for n in range(4):
        lows = [potential(r.witness, n).lo for r in reports]
        r_bound = min(lows)
        if r_bound <= 0:
            continue
        h = endpoint_height_enclosure(base.shift(n), cfg.tolerance)
        p = potential(base, n)
        if h.hi < r_bound - MARGIN:
            failures.append({"n": n, "reason": "height below closure bound"})
        if p.hi < r_bound - 1.0 - MARGIN:
            failures.append({"n": n, "reason": "potential below closure bound"})
    return _suite("closure_bound", not failures, failures=failures)


def suite_lower_semicontinuity(cfg: RunConfig) -> dict:
    """Coordinate-wise dominated approximations converge to the limit height from below."""
    failures = []
    for base in (fexp_seq(5, (2, -3)), fexp_seq(3), const_seq(4, (1, -2))):
        limit = endpoint_height_enclosure(base, cfg.tolerance)
        prev = -math.inf
        gaps = []
        for m in range(1, 14):
            approx = SymbolSeq(tuple(base.entry(n) for n in range(m)), ConstTail(0))
            h = endpoint_height_enclosure(approx, cfg.tolerance)
            if h.mid > limit.mid + MARGIN:
                failures.append({"base": base.to_json(), "m": m, "reason": "above limit"})
            if h.mid < prev - MARGIN:
                failures.append({"base": base.to_json(), "m": m, "reason": "not monotone"})
            prev = h.mid
            gaps.append(abs(limit.mid - h.mid))
        if gaps[-1] > MARGIN:
            failures.append({"base": base.to_json(), "reason": "no convergence",
                             "gap": gaps[-1]})
    return _suite("lower_semicontinuity", not failures, failures=failures)


def suite_stratum_nesting(cfg: RunConfig) -> dict:
    """Child-stratum membership implies parent membership."""
    failures = []
    checked = 0
    for c in (3, 5, 10):
        base = fexp_seq(c)
        h = endpoint_height_enclosure(base, cfg.tolerance)
        point = ModelPoint(h.mid, base)
        for alpha, n in ((AlphaIndex(()), 0), (AlphaIndex((0,)), 2), (AlphaIndex((0, 2)), 3)):
            child = alpha.child(n)
            mem_child = in_stratum(child, point, cfg.tolerance, cfg.budget)
            mem_parent = in_stratum(alpha, point, cfg.tolerance, cfg.budget)
            checked += 1
            if mem_child.is_true and not mem_parent.is_true:
                failures.append({"c": c, "alpha": alpha.to_json(), "n": n})
    return _suite("stratum_nesting", not failures, checked=checked, failures=failures)


def suite_extension(cfg: RunConfig, count: int = 25) -> dict:
    """Certified members admit a certified extension index."""
    rng = random.Random(cfg.seed + 5)
    failures = []
    done = 0
    attempts = 0
    while done < count and attempts < 20 * count:
        attempts += 1
        kind = rng.randrange(2)
        prefix = tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 2)))
        if kind == 0:
            seq = SymbolSeq(prefix, ExpTowerTail(rng.randint(3, 9)))
        else:
            seq = SymbolSeq(prefix, LinExpTail(rng.choice((Fraction(1), Fraction(2), Fraction(3)))))
        h = endpoint_height_enclosure(seq, cfg.tolerance)
        point = ModelPoint(h.mid, seq)
        alpha = AlphaIndex(())
        if not in_stratum(alpha, point, cfg.tolerance, cfg.budget).is_true:
            continue
        done += 1
        try:
            n_ext = extension_index(alpha, point, 0, cfg.tolerance, cfg.budget)
            member = in_stratum(alpha.child(n_ext), point, cfg.tolerance, cfg.budget)
            if not member.is_true:
                failures.append({"seq": seq.to_json(), "n": n_ext})
        except Exception as e:
            failures.append({"seq": seq.to_json(), "error": str(e)})
    return _suite("extension", not failures, checked=done, failures=failures)


def suite_plane_real_axis(cfg: RunConfig) -> dict:
    """Real parameters keep real orbits real; their itineraries are all zero."""
    failures = []
    for x in (-2.0, -0.5, 0.25, 0.5, 1.0):
        orbit = exp_orbit(-1.0, x, 12)
        if any(p.imag != 0.0 for p in orbit):
            failures.append({"x": x, "reason": "left the real axis"})
        itin = strip_itinerary(-1.0, x, 8)
        if any(s != 0 for s in itin):
            failures.append({"x": x, "reason": "nonzero strip symbol"})
    return _suite("plane_real_axis", not failures, failures=failures)


def suite_escape_monotonicity(cfg: RunConfig) -> dict:
    """For a = -1: positive reals increase and escape; negatives fall into the basin."""
    failures = []
    for x in (0.5, 1.0, 2.0, 3.5):
        # the orbit stops at its first point past the escape line
        orbit = exp_orbit(-1.0, x, 400)
        escaped = orbit[-1].real > ESCAPE_RE
        increasing = all(b.real > a.real for a, b in zip(orbit, orbit[1:], strict=False)
                         if b.real <= 50.0)
        if not escaped or not increasing:
            failures.append({"x": x, "reason": "positive ray failed to escape"})
    for x in (-3.0, -1.0, -0.25):
        w = exp_orbit(-1.0, x, 400)[-1].real
        if not (-0.05 < w <= 0.0):
            failures.append({"x": x, "reason": "basin orbit missed the fixed point"})
    return _suite("escape_monotonicity", not failures, failures=failures)


def suite_multiplier_consistency(cfg: RunConfig) -> dict:
    """|multiplier| equals the product of |e^(z_i)| along the reported cycle."""
    failures = []
    for a, period, seed in ((-2.0, 1, -2.0), (-2.0 + 0.3j, 1, -2.0), (-3.0, 2, 0.5)):
        try:
            info = find_cycle(a, period, seed)
        except Exception as e:
            failures.append({"a": str(a), "period": period, "error": str(e)})
            continue
        prod = 1.0
        for p in info.points:
            prod *= abs(math.e ** complex(p).real)
        if abs(abs(info.multiplier) - prod) > 1e-8 * max(1.0, prod):
            failures.append({"a": str(a), "period": period})
    return _suite("multiplier_consistency", not failures, failures=failures)


def suite_renderer_determinism(cfg: RunConfig) -> dict:
    """Identical render invocations produce bit-identical files."""
    viewport = Viewport(-2.0, 4.0, -math.pi, math.pi, 80, 60)
    path = os.path.join(cfg.out_dir, "verify_render.ppm")
    s1 = render_escape(-1.0, viewport, 60, path)
    s2 = render_escape(-1.0, viewport, 60, path)
    passed = (s1.content_hash == s2.content_hash and s1.escaped_pixels > 0
              and s1.retained_pixels > 0)
    return _suite("renderer_determinism", passed,
                  hash=s1.content_hash, escaped=s1.escaped_pixels,
                  retained=s1.retained_pixels)


ALL_SUITES = (
    suite_inverse_growth_strictness,
    suite_sandwich,
    suite_domination,
    suite_backward_nesting,
    suite_shift_identity,
    suite_floor_window,
    suite_witness_claims,
    suite_closure_bound,
    suite_lower_semicontinuity,
    suite_stratum_nesting,
    suite_extension,
    suite_plane_real_axis,
    suite_escape_monotonicity,
    suite_multiplier_consistency,
    suite_renderer_determinism,
)


def run_all(cfg: RunConfig) -> dict:
    suites = []
    for fn in ALL_SUITES:
        try:
            suites.append(fn(cfg))
        except Exception as e:  # a crashed suite is a failed suite, honestly reported
            suites.append(_suite(fn.__name__.removeprefix("suite_"), False, error=str(e)))
    return {
        "config": {"tolerance": cfg.tolerance, "budget": cfg.budget, "seed": cfg.seed},
        "suites": suites,
        "passed": all(s["passed"] for s in suites),
    }
