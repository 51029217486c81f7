"""Acceptance gate: every primary criterion at its stated tolerance.

Each test prints one pass line on success.  Expected values are frozen from
the independent oracles in conftest (plain bisection, mpmath high precision);
the criteria and tolerances are pinned here, not tuned at runtime.

Run with ``pytest tests/test_acceptance.py -v -s`` for the per-criterion lines.
"""

import math
import random

import pytest

from conftest import mp_growth_pow
from expbouquet import (
    AlphaIndex,
    ModelPoint,
    Viewport,
    const_seq,
    endpoint_height,
    endpoint_height_enclosure,
    extension_index,
    fexp_seq,
    find_cycle,
    in_stratum,
    potential,
    potential_term,
    render_escape,
    witness_family,
)
from expbouquet.intervals import growth_inv_pow, sum_down
from expbouquet.verify import dominated_pair, random_sequence

TOL_ANCHOR = 1e-6
SEED = 20260808


def _ok(name: str) -> None:
    print(f"PASS {name}")


def test_acceptance_inverse_growth_strict_inequalities():
    """Both strict inequalities with margin > 1e-9 on k in [1,20] x 40 log-spaced t in [1,100].

    The margins are certified lower bounds from the interval enclosures.
    """
    ts = [10.0 ** (i / 39.0 * 2.0) for i in range(40)]
    margin_depth = math.inf
    margin_slide = math.inf
    for t in ts:
        for k in range(1, 21):
            a = growth_inv_pow(t, k)
            margin_depth = min(margin_depth, sum_down(a.lo, -growth_inv_pow(t, k + 1).hi))
            margin_slide = min(margin_slide,
                               sum_down(sum_down(growth_inv_pow(t - 1.0, k).lo, -a.hi), 1.0))
    assert margin_depth > 1e-9, f"depth margin {margin_depth}"
    assert margin_slide > 1e-9, f"slide margin {margin_slide}"
    _ok(f"inverse-growth strictness (margins {margin_depth:.3g}, {margin_slide:.3g})")


def test_acceptance_sandwich_suite():
    """>= 100 seeded rule sequences: endpoint height inside [pot - 1e-6, pot + 1 + 1e-6]."""
    rng = random.Random(SEED)
    checked = 0
    while checked < 100:
        seq = random_sequence(rng)
        pot = potential(seq, 0)
        if not pot.is_finite:
            continue
        checked += 1
        enc = endpoint_height_enclosure(seq)
        assert enc.lo >= pot.lo - TOL_ANCHOR, (seq, enc, pot)
        assert enc.hi <= pot.hi + 1.0 + TOL_ANCHOR, (seq, enc, pot)
    _ok(f"sandwich suite ({checked} sequences)")


def test_acceptance_monotonicity_suite():
    """>= 100 dominated pairs: heights and potentials respect domination within 1e-6."""
    rng = random.Random(SEED + 1)
    for _ in range(100):
        small, big = dominated_pair(rng)
        hs = endpoint_height_enclosure(small).mid
        hb = endpoint_height_enclosure(big).mid
        assert hs <= hb + TOL_ANCHOR, (small, big)
        assert potential(small, 0).mid <= potential(big, 0).mid + TOL_ANCHOR
    _ok("monotonicity suite (100 dominated pairs)")


def test_acceptance_exact_anchors(const1_height_oracle):
    """Three closed-form anchors at 1e-6."""
    enc1 = endpoint_height(const_seq(1))
    assert abs(enc1.mid - const1_height_oracle) < TOL_ANCHOR
    assert abs(enc1.mid - 1.146193) < TOL_ANCHOR

    enc2 = endpoint_height(const_seq(0, (0, 5)))
    assert abs(enc2.mid - math.log(6.0)) < TOL_ANCHOR

    pot1 = potential(const_seq(1), 0)
    assert abs(pot1.mid - math.log(2.0)) < TOL_ANCHOR
    _ok("exact anchors (root of e^t = t + 2; ln 6; ln 2)")


def test_acceptance_floor_window_soundness():
    """200 sampled tower potential terms inside (F^(n+1-k)(c) - 1, F^(n+1-k)(c)]."""
    rng = random.Random(SEED + 2)
    checked = 0
    while checked < 200:
        c = rng.randint(1, 6)
        k = rng.randint(1, 8)
        n = rng.randint(max(1, k - 6), k + 1)
        e = n + 1 - k
        if e > 2:
            continue
        checked += 1
        term = potential_term(fexp_seq(c), n, k)
        dps = 80 if e < 2 else int(float(mp_growth_pow(c, 1, 30)) / math.log(10.0)) + 80
        w = mp_growth_pow(c, e, dps)
        # relative + absolute slack: directed rounding at the window's scale
        slack = 1e-9 * max(1.0, abs(float(w))) + 1e-9
        assert term.lo >= float(w - 1) - slack, (c, n, k)
        assert term.hi <= float(w) + slack, (c, n, k)
    _ok("floor-window soundness (200 sampled terms, mpmath oracle)")


@pytest.mark.parametrize("alpha,n_ext", [
    (AlphaIndex((0,)), 1),
    (AlphaIndex((0, 1)), 2),
    (AlphaIndex((0, 2, 4)), 5),
])
def test_acceptance_witness_suite(alpha, n_ext):
    """Thinning witnesses at depths 1..3: both claims, exclusion margin, height convergence."""
    base = fexp_seq(10)
    base_height = endpoint_height_enclosure(base)
    point = ModelPoint(base_height.mid, base)
    bound = 3.0 * alpha.dom

    reports = witness_family(point, alpha, n_ext, 3)
    assert len(reports) == 3
    gaps = []
    for r in reports:
        # claim one: every checked shifted potential beyond the cut > 3 dom - 1
        assert r.claim1_margin.lo > bound - 1.0
        # claim two: potential at the cut <= 3 dom, margin >= 1 under the
        # closure bound 3 dom + 1 of the child stratum
        assert r.claim2_bound.hi <= bound
        assert (bound + 1.0) - r.claim2_bound.hi >= 1.0
        gaps.append(abs(r.height.mid - base_height.mid))
    assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] < 1e-4, gaps
    _ok(f"witness suite depth {alpha.dom} (final height gap {gaps[-1]:.2e})")


def test_acceptance_closure_property():
    """Limits of potential-exceeding witness families keep the bound up to 1e-6."""
    base = fexp_seq(10)
    point = ModelPoint(endpoint_height_enclosure(base).mid, base)
    reports = witness_family(point, AlphaIndex((0,)), 1, 3)
    checked = 0
    for n in range(4):
        r_bound = min(potential(r.witness, n).lo for r in reports)
        if r_bound <= 0.0:
            continue
        checked += 1
        assert endpoint_height_enclosure(base.shift(n)).hi >= r_bound - TOL_ANCHOR
        assert potential(base, n).hi >= r_bound - 1.0 - TOL_ANCHOR
    assert checked > 0
    _ok(f"closure property ({checked} shifts)")


def test_acceptance_extension_property():
    """25 seeded stratum members admit a certified extension index."""
    rng = random.Random(SEED + 3)
    done = 0
    attempts = 0
    while done < 25:
        attempts += 1
        assert attempts < 500
        seq = random_sequence(rng)
        if seq.tail.kind not in ("fexp", "linexp"):
            continue
        point = ModelPoint(endpoint_height_enclosure(seq).mid, seq)
        alpha = AlphaIndex(())
        if not in_stratum(alpha, point).is_true:
            continue
        done += 1
        n = extension_index(alpha, point, 0)
        assert in_stratum(alpha.child(n), point).is_true, (seq, n)
    _ok(f"extension property (25 members, {attempts} draws)")


def test_acceptance_plane_anchors(tmp_path):
    """Cycle anchors at both parameters plus a reproducible two-phase render."""
    info1 = find_cycle(-1.0, 1, 0.1)
    assert abs(info1.points[0]) < 1e-5
    assert abs(info1.multiplier - 1.0) < 1e-5
    assert info1.kind == "parabolic"

    info2 = find_cycle(-2.0, 1, -2.0)
    assert abs(info2.points[0] - (-1.841406)) < 1e-5
    assert abs(abs(info2.multiplier) - 0.158594) < 1e-5
    assert info2.kind == "attracting"

    viewport = Viewport(-2.0, 4.0, -math.pi, math.pi, 200, 200)
    s1 = render_escape(-1.0, viewport, 100, str(tmp_path / "r1.ppm"))
    s2 = render_escape(-1.0, viewport, 100, str(tmp_path / "r2.ppm"))
    assert s1.escaped_pixels > 0 and s1.retained_pixels > 0
    assert s1.content_hash == s2.content_hash
    _ok(f"plane anchors (render {s1.escaped_pixels}/{s1.retained_pixels}, "
        f"hash {s1.content_hash[:12]})")
