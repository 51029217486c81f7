"""Deterministic invariant suites behind the ``verify`` subcommand.

Each suite returns a machine-readable record with a pass flag and what it
measured; the model's suites count each case, a relation between interval
enclosures, as proved, refuted or undecided, and pass only with none refuted.
Randomized suites draw from a seeded generator, so a fixed seed reproduces the
report byte for byte.  Unattainable tolerances are reported as honest failures
(the enclosure and its width), never silently widened; a case the budget leaves
undecided (``BudgetExceededError``) is counted as undecided and listed with its
message, while any other error, a refuted witness claim included, fails its suite.
"""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction

from .cli import RunConfig
from .intervals import Interval, growth_inv_pow, growth_net, sum_down
from .model import (
    BudgetExceededError,
    ModelPoint,
    NonConvergenceError,
    _descend,
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
    PeriodicTail,
    SymbolSeq,
    const_seq,
    fexp_seq,
    linexp_seq,
)
from .strata import AlphaIndex, extension_index, in_stratum, witness_family


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
    return linexp_seq(rng.choice(_RATES), prefix)


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
    return linexp_seq(rs, small_prefix), linexp_seq(rb, big_prefix)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite(name: str, passed: bool, stopped: list | tuple = (), **details) -> dict:
    """A suite's record; each case in ``stopped``, {case, reason}, is one the budget left
    undecided: counted as undecided and listed, keys present only when there is one."""
    if stopped:
        details["undecided"] = details.get("undecided", 0) + len(stopped)
        details["undecided_cases"] = stopped
    return {"name": name, "passed": bool(passed), "details": details}


def _tally() -> dict:
    return dict.fromkeys(("proved", "refuted", "undecided"), 0)


def _count(tally: dict, proved: bool, refuted: bool) -> bool:
    """Count one case as proved, refuted or undecided; True unless it is refuted."""
    tally["proved" if proved else "refuted" if refuted else "undecided"] += 1
    return not refuted


def _le(tally: dict, x: Interval, y: Interval) -> bool:
    """Count the relation x <= y: proved when x.hi <= y.lo, refuted when x.lo > y.hi."""
    return _count(tally, x.certainly_le(y.lo), x.certainly_gt(y.hi))


def _endpoint(seq: SymbolSeq, cfg: RunConfig) -> ModelPoint:
    """The model point at the lower end of the certified endpoint height of seq."""
    return ModelPoint(endpoint_height_enclosure(seq, cfg.tolerance).lo, seq)


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
    """Endpoint heights sit in [potential, potential + 1], before ``_height`` imposes it."""
    rng = random.Random(cfg.seed)
    tally, failures = _tally(), []
    checked = 0
    for i in range(count):
        seq = random_sequence(rng)
        pot = potential(seq, 0)
        if not pot.is_finite:
            continue
        checked += 1
        enc = _descend(seq, *seq.tail.nesting_anchor(len(seq.prefix)))
        if not (_le(tally, pot, enc) & _le(tally, enc, pot + 1.0)):
            failures.append({"case": i, "seq": seq.to_json()})
        try:
            endpoint_height(seq, cfg.tolerance)
        except NonConvergenceError as e:
            failures.append({"case": i, "reason": "nonconvergence",
                             "width": e.enclosure.width})
    return _suite("sandwich", checked >= 100 and not failures,
                  checked=checked, failures=failures, **tally)


def suite_domination(cfg: RunConfig, count: int = 120) -> dict:
    """Coordinate-wise domination is respected by heights and potentials."""
    rng = random.Random(cfg.seed + 1)
    tally, failures = _tally(), []
    for i in range(count):
        small, big = dominated_pair(rng)
        heights = _le(tally, endpoint_height_enclosure(small, cfg.tolerance),
                      endpoint_height_enclosure(big, cfg.tolerance))
        if not (heights & _le(tally, potential(small, 0), potential(big, 0))):
            failures.append({"case": i, "small": small.to_json(), "big": big.to_json()})
    return _suite("domination", not failures, checked=count, failures=failures, **tally)


def suite_backward_nesting(cfg: RunConfig, count: int = 40, depth: int = 12) -> dict:
    """Nesting constraints increase with depth and stay under potential + 1."""
    rng = random.Random(cfg.seed + 2)
    tally, failures = _tally(), []
    for i in range(count):
        seq = random_sequence(rng)
        top = potential(seq, 0) + 1.0
        prev = None
        for n in range(depth + 1):
            u = endpoint_lower_bound(seq, n)
            if prev is not None and not _le(tally, prev, u):
                failures.append({"case": i, "n": n, "reason": "not monotone"})
                break
            if not _le(tally, u, top):
                failures.append({"case": i, "n": n, "reason": "above sandwich"})
                break
            prev = u
    return _suite("backward_nesting", not failures, checked=count, failures=failures, **tally)


def suite_shift_identity(cfg: RunConfig, count: int = 60) -> dict:
    """potential(seq, n) agrees with potential(seq shifted by n, 0)."""
    rng = random.Random(cfg.seed + 3)
    tally, failures = _tally(), []
    for i in range(count):
        seq = random_sequence(rng)
        n = rng.randint(0, 5)
        a, b = potential(seq, n), potential(seq.shift(n), 0)
        # two enclosures of one value: proved when equal, refuted when disjoint
        if not _count(tally, a == b, a.certainly_lt(b.lo) or b.certainly_lt(a.lo)):
            failures.append({"case": i, "n": n, "seq": seq.to_json()})
    return _suite("shift_identity", not failures, checked=count, failures=failures, **tally)


def suite_floor_window(cfg: RunConfig, count: int = 200) -> dict:
    """Tower potential terms stay inside their floor window (F^e - 1, F^e]."""
    rng = random.Random(cfg.seed + 4)
    tally, failures = _tally(), []
    for i in range(count):
        c = rng.randint(1, 10)
        k = rng.randint(1, 8)
        n = rng.randint(max(1, k - 6), k + 2)
        term = potential_term(fexp_seq(c), n, k)
        top = growth_net(c, n + 1 - k)
        low = top - 1.0
        above = _count(tally, term.certainly_gt(low.hi), term.certainly_le(low.lo))
        if not (above & _le(tally, term, top)):
            failures.append({"case": i, "c": c, "n": n, "k": k})
    return _suite("floor_window", not failures, checked=count, failures=failures, **tally)


def _demo_family(cfg: RunConfig, alpha: AlphaIndex, n_ext: int, count: int):
    point = _endpoint(fexp_seq(10), cfg)
    return point, witness_family(point, alpha, n_ext, count, cfg.tolerance, cfg.budget)


def suite_witness_claims(cfg: RunConfig) -> dict:
    """Thinning witnesses at index depths 1, 2, 3: both claims plus convergence."""
    tally, failures, stopped = _tally(), [], []
    details = []
    for alpha, n_ext in ((AlphaIndex((0,)), 1), (AlphaIndex((0, 1)), 2),
                         (AlphaIndex((0, 2, 4)), 5)):
        bound = 3.0 * alpha.dom
        try:
            point, reports = _demo_family(cfg, alpha, n_ext, 3)
        except BudgetExceededError as e:  # not decided within the budget
            stopped.append({"case": alpha.to_json(), "reason": str(e)})
            continue
        except Exception as e:  # honest reporting of any certification failure
            failures.append({"alpha": alpha.to_json(), "error": str(e)})
            continue
        base_height = endpoint_height_enclosure(point.seq, cfg.tolerance)
        ok = True
        for r in reports:
            margin = r.claim1_margin
            ok &= _count(tally, margin.certainly_gt(bound - 1.0), margin.certainly_le(bound - 1.0))
            # at most 3*dom: 1 or more below the child-stratum closure bound 3*dom + 1
            ok &= _le(tally, r.claim2_bound, Interval.point(bound))
            ok &= _le(tally, r.height, base_height)
        # the witness heights approach the base height from below
        gaps = [base_height - r.height for r in reports]
        for a, b in zip(gaps, gaps[1:], strict=False):
            ok &= _le(tally, b, a + cfg.tolerance)
        ok &= _le(tally, gaps[-1], Interval.point(1e-4))
        ok &= all(b.distance_to_base < a.distance_to_base
                  for a, b in zip(reports, reports[1:], strict=False))
        if not ok:
            failures.append({"alpha": alpha.to_json()})
        details.append({"alpha": alpha.to_json(),
                        "ms": [r.m for r in reports],
                        "final_height_gap": gaps[-1].to_json()})
    return _suite("witness_claims", not failures, stopped, cases=details, failures=failures,
                  **tally)


def suite_closure_bound(cfg: RunConfig) -> dict:
    """Limits of threshold-exceeding families keep (almost) the threshold."""
    alpha = AlphaIndex((0,))
    tally, failures = _tally(), []
    try:
        point, reports = _demo_family(cfg, alpha, 1, 3)
    except BudgetExceededError as e:  # not decided within the budget
        stopped = [{"case": alpha.to_json(), "reason": str(e)}]
        return _suite("closure_bound", True, stopped, failures=failures, **tally)
    except Exception as e:  # honest reporting of any certification failure
        failures.append({"alpha": alpha.to_json(), "error": str(e)})
        return _suite("closure_bound", False, failures=failures, **tally)
    base = point.seq
    for n in range(4):
        r_bound = min(potential(r.witness, n).lo for r in reports)
        if r_bound <= 0:
            continue
        bound = Interval.point(r_bound)
        if not _le(tally, bound, endpoint_height_enclosure(base.shift(n), cfg.tolerance)):
            failures.append({"n": n, "reason": "height below closure bound"})
        if not _le(tally, bound - 1.0, potential(base, n)):
            failures.append({"n": n, "reason": "potential below closure bound"})
    return _suite("closure_bound", not failures, failures=failures, **tally)


def suite_lower_semicontinuity(cfg: RunConfig) -> dict:
    """Coordinate-wise dominated approximations converge to the limit height from below."""
    tally, failures = _tally(), []
    for base in (fexp_seq(5, (2, -3)), fexp_seq(3), const_seq(4, (1, -2))):
        limit = endpoint_height_enclosure(base, cfg.tolerance)
        prev = None
        for m in range(1, 14):
            approx = SymbolSeq(tuple(base.entry(n) for n in range(m)), ConstTail(0))
            h = endpoint_height_enclosure(approx, cfg.tolerance)
            if not _le(tally, h, limit):
                failures.append({"base": base.to_json(), "m": m, "reason": "above limit"})
            if prev is not None and not _le(tally, prev, h):
                failures.append({"base": base.to_json(), "m": m, "reason": "not monotone"})
            prev = h
        gap = limit - h
        if not _le(tally, gap, Interval.point(cfg.tolerance)):
            failures.append({"base": base.to_json(), "reason": "no convergence",
                             "gap": gap.to_json()})
    return _suite("lower_semicontinuity", not failures, failures=failures, **tally)


def suite_stratum_nesting(cfg: RunConfig) -> dict:
    """Child-stratum membership implies parent membership."""
    failures = []
    checked = 0
    for c in (3, 5, 10):
        point = _endpoint(fexp_seq(c), cfg)
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
    failures, stopped = [], []
    done = 0
    attempts = 0
    while done < count and attempts < 20 * count:
        attempts += 1
        kind = rng.randrange(2)
        prefix = tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 2)))
        if kind == 0:
            seq = SymbolSeq(prefix, ExpTowerTail(rng.randint(3, 9)))
        else:
            seq = linexp_seq(rng.choice((1, 2, 3)), prefix)
        point = _endpoint(seq, cfg)
        alpha = AlphaIndex(())
        if not in_stratum(alpha, point, cfg.tolerance, cfg.budget).is_true:
            continue
        done += 1
        try:
            n_ext = extension_index(alpha, point, 0, cfg.tolerance, cfg.budget)
            member = in_stratum(alpha.child(n_ext), point, cfg.tolerance, cfg.budget)
            if not member.is_true:
                failures.append({"seq": seq.to_json(), "n": n_ext})
        except BudgetExceededError as e:  # not decided within the budget
            stopped.append({"case": seq.to_json(), "reason": str(e)})
        except Exception as e:
            failures.append({"seq": seq.to_json(), "error": str(e)})
    return _suite("extension", not failures, stopped, checked=done, failures=failures)


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
    """Identical render invocations produce bit-identical images; both are
    hashed from memory and written to the null device."""
    viewport = Viewport(-2.0, 4.0, -math.pi, math.pi, 80, 60)
    s1 = render_escape(-1.0, viewport, 60, os.devnull)
    s2 = render_escape(-1.0, viewport, 60, os.devnull)
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
