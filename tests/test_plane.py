"""Plane dynamics: orbits, itineraries, cycles, the disk step, traps, rendering."""

import cmath
import dataclasses
import hashlib
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bisect_root
from expbouquet import (
    NoConvergenceError,
    Viewport,
    exp_orbit,
    find_cycle,
    render_escape,
    strip_itinerary,
)
from expbouquet.plane import (
    TRAP_MAX_PERIOD,
    TRAP_MEMO_SIZE,
    TRAP_SLACK,
    _basin_trap,
    _block_pass,
    _check_param,
    _memo_trap,
    _step,
    _Trap,
    _trap_chain,
    classify_multiplier,
    escape_times,
)


def test_orbit_fixed_point():
    orbit = exp_orbit(-1.0, 0.0, 3)
    assert orbit == [0j, 0j, 0j, 0j]


def test_orbit_attracting_fixed_point():
    # Newton oracle: the real root of e^z = z + 2 near -1.84
    z_fix = bisect_root(lambda t: math.exp(t) - t - 2.0, -1.9, -1.5)
    orbit = exp_orbit(-2.0, z_fix, 2)
    assert all(abs(p - z_fix) < 1e-5 for p in orbit)


def test_orbit_truncates_past_guard():
    orbit = exp_orbit(-1.0, 10.0, 5)
    assert len(orbit) == 2  # e^10 - 1 > 50 ends the listing
    assert orbit[1].real > 50.0


def test_param_cap():
    with pytest.raises(ValueError):
        exp_orbit(-20.0, 0.0, 1)


@pytest.mark.parametrize("a", [complex("nan"), complex(1.0, math.nan),
                               complex(math.inf, 0.0)])
def test_param_must_be_finite(a):
    with pytest.raises(ValueError):
        exp_orbit(a, 0.0, 1)
    with pytest.raises(ValueError):
        find_cycle(a, 1, 0.0)


def test_itinerary_real_orbit_is_zero():
    assert strip_itinerary(-1.0, 0.5, 5) == [0, 0, 0, 0, 0]


def test_itinerary_strip_offsets():
    assert strip_itinerary(-1.0, 0.5 + 2j * math.pi, 1) == [1]
    assert strip_itinerary(-1.0, 0.5 - 4j * math.pi, 1) == [-2]


def test_itinerary_truncates_after_escape():
    # symbols for z and f(z) are defined; later iterates are not computable
    itin = strip_itinerary(-1.0, 10.0, 6)
    assert itin == [0, 0]


def test_cycle_parabolic_at_minus_one():
    info = find_cycle(-1.0, 1, 0.1)
    assert abs(info.points[0]) < 1e-5
    assert abs(info.multiplier - 1.0) < 1e-5
    assert info.kind == "parabolic"


def test_cycle_attracting_at_minus_two():
    info = find_cycle(-2.0, 1, -2.0)
    assert abs(info.points[0] - (-1.841406)) < 1e-5
    assert abs(abs(info.multiplier) - 0.158594) < 1e-5
    assert info.kind == "attracting"


def test_cycle_no_real_fixed_point_at_plus_one():
    with pytest.raises(NoConvergenceError):
        find_cycle(1.0, 1, 0.5)


def test_cycle_multiplier_matches_orbit_product():
    info = find_cycle(-2.0 + 0.3j, 1, -2.0)
    prod = 1.0
    for p in info.points:
        prod *= math.exp(p.real)
    assert abs(abs(info.multiplier) - prod) < 1e-8


def test_multiplier_classification_bands():
    assert classify_multiplier(0.5 + 0j) == "attracting"
    assert classify_multiplier(2.0 + 0j) == "repelling"
    assert classify_multiplier(-1.0 + 0j) == "parabolic"       # order two
    assert classify_multiplier(complex(math.cos(1.0), math.sin(1.0))) == "indeterminate"


def test_escape_times_has_both_phases():
    v = Viewport(-2.0, 4.0, -math.pi, math.pi, 50, 50)
    times = escape_times(-1.0, v, 80)
    assert (times < 80).any() and (times == 80).any()


def test_render_deterministic_and_well_formed(tmp_path):
    v = Viewport(-2.0, 4.0, -math.pi, math.pi, 64, 48)
    p1 = tmp_path / "a.ppm"
    p2 = tmp_path / "b.ppm"
    s1 = render_escape(-1.0, v, 60, str(p1))
    s2 = render_escape(-1.0, v, 60, str(p2))
    assert s1.content_hash == s2.content_hash
    data = p1.read_bytes()
    assert data.startswith(b"P6\n64 48\n255\n")
    assert len(data) == len(b"P6\n64 48\n255\n") + 64 * 48 * 3
    assert s1.escaped_pixels + s1.retained_pixels == 64 * 48


def test_render_maps_each_pixel_of_a_tile_with_fewer_pixels_than_times(tmp_path):
    # 4 pixels and 101 escape times: no gray table, the same bytes
    v = Viewport(0.5, 3.9, 0.0, 2.0, 2, 2)
    times = escape_times(-1.0, v, 100).ravel().tolist()
    assert times == [100, 100, 6, 2]
    path = tmp_path / "tile.ppm"
    render_escape(-1.0, v, 100, str(path))
    gray = bytes(round(n * (255.0 / 100)) for n in times for _ in range(3))
    assert path.read_bytes() == b"P6\n2 2\n255\n" + gray


def test_render_single_pixel_escapes(tmp_path):
    v = Viewport(10.0, 10.0, 0.0, 0.0, 1, 1)
    s = render_escape(-1.0, v, 50, str(tmp_path / "px.ppm"))
    assert s.escaped_pixels == 1 and s.retained_pixels == 0


def test_viewport_validation():
    with pytest.raises(ValueError):
        Viewport(0, 1, 0, 1, 0, 5)
    with pytest.raises(ValueError):
        Viewport(1, 0, 0, 1, 5, 5)
    with pytest.raises(ValueError):
        Viewport(0, 0, 0, 1, 5, 5)
    # non-finite bounds, and finite bounds whose span overflows
    for bounds in ((0.0, math.nan, 0.0, 1.0), (0.0, math.inf, 0.0, 1.0),
                   (-math.inf, 0.0, 0.0, 1.0), (0.0, 1.0, math.nan, 1.0),
                   (-1e308, 1e308, 0.0, 1.0)):
        with pytest.raises(ValueError):
            Viewport(*bounds, 4, 4)


@pytest.mark.parametrize("escape_re", [math.nan, math.inf, -math.inf])
def test_escape_times_rejects_non_finite_escape_line(escape_re):
    with pytest.raises(ValueError):
        escape_times(-1.0, Viewport(-2.0, 4.0, -1.0, 1.0, 4, 4), 10, escape_re)


def reference_escape_times(a, viewport, max_iter, escape_re=50.0):
    """The full-grid loop: every pixel stays in the array until it escapes."""
    a = _check_param(a)
    re = np.linspace(viewport.re_min, viewport.re_max, viewport.width_px)
    im = np.linspace(viewport.im_max, viewport.im_min, viewport.height_px)
    z = re[np.newaxis, :] + 1j * im[:, np.newaxis]
    times = np.full(z.shape, max_iter, dtype=np.int32)
    alive = np.ones(z.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for n in range(max_iter):
            esc = alive & (z.real > escape_re)
            times[esc] = n
            alive &= ~esc
            if not alive.any():
                break
            zn = np.where(alive, z, 0.0)
            z = np.where(alive, np.exp(zn) + a, z)
            bad = alive & ~np.isfinite(z)
            times[bad] = n + 1
            alive &= ~bad
    return times


# attracting (disk; half-plane and disk), parabolic, super-attracting
# 4-cycle through a (its fixed point repels), attracting
EQUIVALENCE_PARAMS = [-0.5 + 1j, -2.0, -1.0, 0.3 + 0.2j, -3.0]
# attracting cycles of period 2, 3, 4 and 8 (multipliers about 0.81, 0.79,
# 1.7e-5 and 0.033), each with an escape line just above the cycle; for
# a = 0.2-0.2i it shrinks the trap chain
CYCLE_PARAMS = {1.6 - 2.2j: 2.0, 0.7 - 0.7j: 2.5, 0.2 - 0.2j: 4.0, 0.3 - 0.5j: 4.5}


@pytest.mark.parametrize("max_iter", [1, 60, 200])
# at 700, the overflow guard, the loop skips its non-finite pass
@pytest.mark.parametrize("escape_re", [50.0, 1.0, 0.0, -1.0, 700.0])
@pytest.mark.parametrize("a", EQUIVALENCE_PARAMS + list(CYCLE_PARAMS))
def test_escape_times_equals_the_full_grid_loop(a, escape_re, max_iter):
    v = Viewport(-3.0, 4.0, -4.0, 4.0, 41, 29)
    expected = reference_escape_times(a, v, max_iter, escape_re)
    got = escape_times(a, v, max_iter, escape_re)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("a", list(CYCLE_PARAMS))
def test_escape_times_equals_the_full_grid_loop_on_a_bounding_escape_line(a):
    v = Viewport(-3.0, 4.0, -4.0, 4.0, 41, 29)
    assert np.array_equal(escape_times(a, v, 200, CYCLE_PARAMS[a]),
                          reference_escape_times(a, v, 200, CYCLE_PARAMS[a]))


def test_escape_times_equals_the_full_grid_loop_past_overflow():
    # above Re ~ 709.8 the step overflows and the pixel takes time n + 1
    v = Viewport(-2.0, 800.0, -3.0, 3.0, 37, 5)
    for a in (-2.0, 0.3 + 0.2j):
        assert np.array_equal(escape_times(a, v, 30, 1000.0),
                              reference_escape_times(a, v, 30, 1000.0))


# sha256 of 64x64 tiles of the default viewport at max_iter 100, rendered by
# the full-grid loop before the traps and the active set were introduced
PINNED_TILES = {
    -0.5 + 1j: "8b93212795149950e9aaf2aebc9f31b0a4ee1d6efed640bd43961b2b63a4621b",
    -2.0: "c368fdbc673975858b0f7b92171c56bae9efbf8d084948831e631a862a2b669a",
    -1.0: "cf69fea75a24fff1652e5b113b4c838119c3315ba61744935886a1a0f27cb5da",
    0.3 + 0.2j: "7f848426fae7d9263ad4b62038f0ea1ce1c87cfcf92a4e60381c3e375877613a",
}


@pytest.mark.parametrize("a", list(PINNED_TILES))
def test_render_matches_pinned_hash(a, tmp_path):
    v = Viewport(-2.0, 4.0, -math.pi, math.pi, 64, 64)
    path = tmp_path / "tile.ppm"
    summary = render_escape(a, v, 100, str(path))
    assert summary.content_hash == PINNED_TILES[a]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_TILES[a]


def test_render_matches_pinned_hash_at_max_iter_200(tmp_path):
    # rendered before trap chains existed; the 4-cycle chain of a = 0.3+0.2i
    # retires most pixels here
    digest = "396cb0a1f9d9a7c7c4360b68642cfc040acf49e03664a046fef1a5c37e97a825"
    v = Viewport(-2.0, 4.0, -math.pi, math.pi, 64, 64)
    assert render_escape(0.3 + 0.2j, v, 200, str(tmp_path / "tile.ppm")).content_hash == digest


def test_basin_trap_kinds():
    trap = _basin_trap(-1.0 + 0j, 50.0)             # parabolic: no disk exists
    assert (trap.level, trap.disks) == (0.0, ())
    # Re a <= -1: the level is ln(-Re a) less TRAP_REL_SLACK, rounded down and
    # capped at the escape line; the fixed point's disk lies below it
    for a in (-2.0, -3.0, -9.9, -1.5 + 2j):
        trap = _basin_trap(complex(a), 50.0)
        assert trap.disks == () and len(_trap_chain(complex(a), 50.0)) == 1
        assert math.log(-a.real) - 1e-13 < trap.level < math.log(-a.real)
    assert _basin_trap(-2.0 + 0j, 0.5).level == 0.5
    # period 1: the disk found before trap chains existed, bit for bit, and a
    # level from the orbit of a, whose disk D(a, e^L) f maps into that disk
    trap = _basin_trap(-0.5 + 1j, 50.0)
    assert trap.disks == ((-0.5156063086295142 + 1.5969344631287699j, 0.507549960057178),)
    assert trap.level == -0.875
    ((center, _),) = trap.disks
    assert abs(center - find_cycle(-0.5 + 1j, 1, center).points[0]) < 1e-12
    # below a negative escape line only the orbit of a certifies a level, and
    # the fixed point's disk lies below it
    assert _trap_chain(-2.0 + 0j, -1.0) == ((-1.8414056604369606 + 0j, 0.8282586969926331),)
    trap = _basin_trap(-2.0 + 0j, -1.0)
    assert (trap.level, trap.disks) == (-1.0, ())
    # the fixed point is repelling, but a lies on a super-attracting 4-cycle;
    # its point of least real part lies far inside the half-plane, so the
    # chain is dropped
    chain = _trap_chain(0.3 + 0.2j, 50.0)
    cycle = find_cycle(0.3 + 0.2j, 4, 0.3 + 0.2j)
    assert cycle.kind == "attracting" and abs(cycle.multiplier) < 1e-30
    assert len(chain) == 4
    for center, _ in chain:
        assert min(abs(center - c) for c in cycle.points) < 1e-12
    trap = _basin_trap(0.3 + 0.2j, 50.0)
    assert (trap.level, trap.disks) == (-2.875, ())
    # no disk D(a, e^L) reaches this 2-cycle's chain within TRAP_MAX_PERIOD - 1
    # steps: the chain alone
    trap = _basin_trap(1.6 - 2.2j, 50.0)
    assert trap.level == -math.inf and trap.disks == _trap_chain(1.6 - 2.2j, 50.0)
    assert len(trap.disks) == 2
    # no trap can lie below an escape line that the cycle crosses
    assert _basin_trap(0.3 + 0.2j, 1.0) is None
    assert _basin_trap(-0.9 + 0j, 50.0) is None     # no attracting cycle


def _assert_trap_returns(trap, a, escape_re, z, window, steps=500):
    """Float orbits from the points of z that ``holds`` accepts stay below the
    escape line for ``steps`` steps, and ``holds`` accepts each again within
    every ``window`` steps (1: the trap maps into itself)."""
    z = z[trap.holds(z, 0.0)]
    since = np.zeros(z.size, dtype=int)
    with np.errstate(under="ignore"):
        for _ in range(steps):
            assert (z.real <= escape_re).all()
            z = np.exp(z) + a
            since = np.where(trap.holds(z, 0.0), 0, since + 1)
            assert (since < window).all()
    assert (z.real <= escape_re).all()


def _trap_samples(trap, fracs, angles, depths, heights):
    """Points of the half-plane Re z <= level and of the rims and interiors of the disks."""
    n = len(fracs)
    rim = np.array(fracs) * np.exp(1j * np.array(angles[:n]))
    parts = [center + radius * rim for center, radius in trap.disks]
    if trap.level > -math.inf:
        parts.append(trap.level - np.array(depths[:n]) + 1j * np.array(heights[:n]))
    return np.concatenate(parts)


@settings(max_examples=60, deadline=None)
# a few parameters on either side of the half-plane gate Re a <= -1, and the
# parameters with a trap chain (period 2 to 8)
@given(a=st.one_of(st.sampled_from(EQUIVALENCE_PARAMS + [-0.9, -0.95 + 0.5j, -1.5 + 2j]
                                   + list(CYCLE_PARAMS)),
                   st.builds(cmath.rect, st.floats(0.0, 9.999), st.floats(-math.pi, math.pi))),
       escape_re=st.sampled_from([50.0, 1.0, 0.0, -1.0]),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
       angles=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=16, max_size=16),
       depths=st.lists(st.floats(0.0, 60.0), min_size=16, max_size=16),
       heights=st.lists(st.floats(-1e3, 1e3), min_size=16, max_size=16))
# the parabolic fixed point 0 of a = -1 lies on the closed half-plane's line
# (level 0): -1e-300 steps onto 0.0 exactly, which the trap must hold again
@example(a=-1.0, escape_re=50.0, fracs=[0.0], angles=[0.0] * 16, depths=[1e-300] + [0.0] * 15,
         heights=[0.0] * 16)
def test_basin_traps_are_forward_invariant(a, escape_re, fracs, angles, depths, heights):
    # the half-plane of a level from the orbit of a need not map into the
    # trap: its orbits reach a chain disk within TRAP_MAX_PERIOD steps, and
    # a dropped disk (inside the half-plane) within p more
    a = complex(a)
    trap = _basin_trap(a, escape_re)
    if trap is not None:
        window = TRAP_MAX_PERIOD + max(1, len(_trap_chain(a, escape_re)))
        z = _trap_samples(trap, fracs, angles, depths, heights)
        _assert_trap_returns(trap, a, escape_re, z, window)


@pytest.mark.parametrize("a", list(CYCLE_PARAMS))
@pytest.mark.parametrize("bounded", [False, True])
def test_trap_chains_are_forward_invariant(a, bounded):
    escape_re = CYCLE_PARAMS[a] if bounded else 50.0
    chain = _trap_chain(a, escape_re)
    assert len(chain) > 1
    # rims and interiors of every disk, 16 directions; the union of the
    # chain's disks maps into itself, whether or not the trap keeps them
    fracs = [1.0, 0.999, 0.9, 0.5, 0.1, 0.0] + [1.0] * 10
    angles = [2.0 * math.pi * k / 16 for k in range(16)]
    trap = _Trap(disks=chain)
    _assert_trap_returns(trap, a, escape_re, _trap_samples(trap, fracs, angles, [], []), 1)


def _closes(c, r):
    """Whether a one-link chain from D(c, r) closes for the map e^z + a that
    fixes c, a = c - e^c."""
    nxt, image, below = _step(c, r, c - cmath.exp(c), 50.0)
    return bool(below and _Trap(disks=((c, r),)).holds(nxt, image))


def test_chain_slack_grows_with_the_size_of_the_step():
    # one float step onto a point of modulus 1e5 may be off by half an ulp
    # of 1e5, more than the absolute TRAP_SLACK
    assert math.ulp(1e5) / 2 > TRAP_SLACK
    # at r = 1 the exact bound e^(Re c + r) r falls short of r by about 1e-11
    re_c = -1.0 - 1e-11
    assert _closes(complex(re_c), 1.0)
    assert not _closes(complex(re_c, 1e5), 1.0)
    # a repelling link maps D(c, 0.5) onto a disk of radius e^0.6 * 0.5 > 0.5,
    # so no chain through it closes
    _, image, below = _step(0.1 + 0j, 0.5, 0.1 - math.exp(0.1), 50.0)
    assert below and image > 0.5
    assert not _closes(0.1 + 0j, 0.5)


# chain disks for the membership oracle: those of the cycles of period 2 to 8,
# a unit disk at 0 and two off the axes; 17 rims each, r (1 + k 2^-53), k = -8..8
HOLDS_DISKS = [d for a in CYCLE_PARAMS for d in _trap_chain(a, 50.0)] + [
    (0j, 1.0), (-1.5 + 0.25j, 0.75), (3.0 - 4.0j, 2.5)]
HOLDS_RIMS = 1.0 + np.arange(-8.0, 9.0) * 2.0 ** -53


def _exactly_inside(w, r, center, radius) -> bool:
    """|w - center| + r < radius, exactly: 512 bits hold these squares of doubles."""
    with mp.workprec(512):
        dx = mp.mpf(w.real) - mp.mpf(center.real)
        dy = mp.mpf(w.imag) - mp.mpf(center.imag)
        gap = mp.mpf(radius) - mp.mpf(r)
        return gap > 0 and dx * dx + dy * dy < gap * gap


def test_holds_accepts_only_what_lies_inside_exactly():
    # zero slack on the one membership test every trap certificate rests on:
    # a point on a rim within 8 ulps of the circle is accepted only if it lies
    # inside, and so is a disk tangent to the circle from inside
    angles = np.exp(2j * np.pi * np.arange(480) / 480)
    for center, radius in HOLDS_DISKS:
        trap = _Trap(disks=((center, radius),))
        z = (center + radius * HOLDS_RIMS[:, np.newaxis] * angles).ravel()
        for w in z[trap.holds(z, 0.0)]:
            assert _exactly_inside(w, 0.0, center, radius), (center, radius, w)
        # what lies clearly inside, past the rounding of the sums, is accepted
        assert trap.holds(center + radius * (1.0 - 2.0 ** -30) * angles, 0.0).all()
        for f in (0.5, 0.9, 0.999):
            c = center + radius * f * angles[::8]
            for r in radius * (1.0 - f) * HOLDS_RIMS:
                for w in c[trap.holds(c, r)]:
                    assert _exactly_inside(w, r, center, radius), (center, radius, w, r)
        # a disk is open: it does not hold itself
        assert not trap.holds(np.array([center]), radius).any()
    # the half-plane is closed: it holds the point on its line
    assert _Trap(level=0.0).holds(np.array([0j]), 0.0).all()


# disks for the step oracle: radii from a point (where the open membership
# test accepts nothing) and 1e-300 (the sum c + r w rounds to c off the real
# axis) to a few units; centres just below the escape line, 1e-9 and 0.5 under it
STEP_RADII = [0.0, 1e-300, 1e-12, 1e-3, 0.1, 1.0, 4.0]
STEP_FRACS = [1.0, 0.999, 0.5]
STEP_ANGLES = [2.0 * math.pi * k / 16 for k in range(16)]


@pytest.mark.parametrize("escape_re", [50.0, 0.0])
@pytest.mark.parametrize("a", [0j, 10 + 0j, -10 + 0j, 7.07 - 7.07j, 2.5j, -0.5 + 1j])
def test_step_holds_the_exact_and_the_float_image(a, escape_re):
    # zero slack: every point the membership test accepts in D(c, r) has its
    # exact e^z + a (50 digits) and its float np.exp(z) + a within r' of c'
    rim = np.array([0j] + [f * cmath.exp(1j * t) for f in STEP_FRACS for t in STEP_ANGLES])
    for r in STEP_RADII:
        for depth in (1e-9, 0.5):
            for im in (0.0, 2.0, -3.1):
                c = complex(escape_re - r - depth, im)
                nxt, image, below = _step(c, r, a, escape_re)
                assert below
                z = c + r * rim
                z = z[_Trap(disks=((c, r),)).holds(z, 0.0)]
                with mp.workdps(50):
                    bound = mp.mpf(float(image))
                    for w, fw in zip(z, np.exp(z) + a):
                        exact = mp.exp(mp.mpc(w.real, w.imag)) + mp.mpc(a.real, a.imag)
                        for v in (exact, mp.mpc(fw.real, fw.imag)):
                            assert abs(v - mp.mpc(nxt.real, nxt.imag)) <= bound, (c, r, w)
    # a disk reaching the escape line is not below it
    assert not _step(complex(escape_re - 1.0), 1.0, a, escape_re)[2]


# the render pool's parameters, the cycles at both escape lines, and an
# orbit spiralling into a fixed point (|multiplier| 0.93) slowly enough to
# pass for a longer cycle: Newton lands on the fixed point, repeated
@pytest.mark.parametrize("a, escape_re", [(a, 50.0) for a in EQUIVALENCE_PARAMS[:4]]
                         + [(a, 50.0) for a in CYCLE_PARAMS] + list(CYCLE_PARAMS.items())
                         + [(0.2 + 0.97j, 50.0)])
def test_basin_trap_runs_one_newton_search(a, escape_re, monkeypatch):
    from expbouquet import plane

    calls = []

    def counted(*args):
        calls.append(args)
        return find_cycle(*args)

    monkeypatch.setattr(plane, "find_cycle", counted)
    trap = _basin_trap(complex(a), escape_re)
    assert trap is not None and len(calls) == 1
    if a == 0.2 + 0.97j:
        assert calls[0][1] > 1 and len(trap.disks) == 1


@pytest.fixture
def empty_trap_memo():
    """The trap memo, emptied before and after the test, so that a test that
    patches ``plane`` leaves no trap behind for later tests."""
    _memo_trap.cache_clear()
    yield _memo_trap
    _memo_trap.cache_clear()


def test_tiles_of_one_parameter_run_one_newton_search(empty_trap_memo, monkeypatch):
    from expbouquet import plane

    calls = []

    def counted(*args):
        calls.append(args)
        return find_cycle(*args)

    monkeypatch.setattr(plane, "find_cycle", counted)
    a = -0.5 + 1j
    for v in (Viewport(-2.0, 4.0, -math.pi, math.pi, 64, 64),
              Viewport(-3.0, 4.0, -4.0, 4.0, 41, 29)):
        assert np.array_equal(escape_times(a, v, 60), reference_escape_times(a, v, 60))
    assert len(calls) == 1


# Re a <= -1 and the escape line 0 give the level min(escape_re, 0.0): -0.0 at
# escape_re = -0.0, which a key by value would hand to escape_re = 0.0
def test_trap_memo_tells_signed_zeros_apart(empty_trap_memo):
    params = [(a, e) for a in (complex(-2.0, 0.0), complex(-2.0, -0.0), complex(-1.0, 0.0),
                               complex(-1.0, -0.0), 0.3 + 0.2j) for e in (50.0, 0.0, -0.0)]
    v = Viewport(-3.0, 3.0, -3.0, 3.0, 16, 16)
    for a, escape_re in params:
        assert np.array_equal(escape_times(a, v, 20, escape_re),
                              reference_escape_times(a, v, 20, escape_re)), (a, escape_re)
    assert empty_trap_memo.cache_info().currsize == len(params)
    for a, escape_re in params:
        trap = empty_trap_memo(a.real.hex(), a.imag.hex(), escape_re.hex())
        assert repr(trap) == repr(_basin_trap(a, escape_re)), (a, escape_re)
    assert empty_trap_memo.cache_info().hits == len(params)


def test_trap_memo_holds_at_most_its_bound(empty_trap_memo):
    for k in range(TRAP_MEMO_SIZE + 8):
        escape_times(complex(-3.0, k / 64), Viewport(0.0, 0.0, 0.0, 0.0, 1, 1), 1)
    info = empty_trap_memo.cache_info()
    assert info.misses == TRAP_MEMO_SIZE + 8 and info.currsize == TRAP_MEMO_SIZE


def _assert_chain_certified(a, escape_re, chain):
    """The chain's centres are the float orbit of ``_step``, its radii are
    positive, each disk's step stays below the escape line and fits the next
    radius, and the last image lies in the first disk."""
    radii = [r for _, r in chain]
    assert min(radii) > 0.0
    nxt = chain[0][0]
    for j, (c, r) in enumerate(chain):
        assert c == nxt
        nxt, image, below = _step(c, r, a, escape_re)
        assert below and (j + 1 == len(chain) or image <= radii[j + 1])
    assert _Trap(disks=(chain[0],)).holds(nxt, image)


# the certificate does not trust the polish: a cycle point handed over 0.01
# off (a closing gap of about 0.012, more than the slack of the largest
# candidate) and a repelling fixed point right of the imaginary axis
@pytest.mark.parametrize("a, escape_re, shift, seed", [
    (a, 50.0, 0j, None) for a in EQUIVALENCE_PARAMS + [0.2 + 0.97j] + list(CYCLE_PARAMS)
] + [(a, e, 0j, None) for a, e in CYCLE_PARAMS.items()] + [
    (-0.5 + 1j, 50.0, 0.01, None), (0.3 + 0.2j, 50.0, 0j, 0.31 + 1.56j)])
def test_trap_chains_carry_their_certificate(a, escape_re, shift, seed, monkeypatch):
    from expbouquet import plane

    def polish(a, period, w):
        info = find_cycle(a, period, w if seed is None else seed)
        return dataclasses.replace(info, points=tuple(p + shift for p in info.points))

    monkeypatch.setattr(plane, "find_cycle", polish)
    chain = _trap_chain(complex(a), escape_re)
    assert (chain == ()) if seed is not None else (chain or not shift)
    if chain:
        _assert_chain_certified(complex(a), escape_re, chain)


# ragged viewports (one pixel, and sizes that are no multiple of the block
# side), each straddling some of the levels of the parameters below: about
# 0.69 (a = -2), 1.10 (-3), 2.29 (-9.9), -0.375 (-0.95+0.5i), -0.875
# (-0.5+1i), -2.875 (0.3+0.2i), -3.375 (0.2-0.2i) and -7.75 (0.3-0.5i)
SWEEP_VIEWPORTS = [Viewport(0.69, 0.69, 0.1, 0.1, 1, 1),
                   Viewport(-3.5, 1.5, -2.0, 2.5, 7, 9),
                   Viewport(-4.0, 3.0, -4.0, 4.0, 33, 40),
                   Viewport(-9.0, 2.5, -3.2, 3.2, 65, 64)]
SWEEP_PARAMS = list(CYCLE_PARAMS) + [-2.0, -3.0, -9.9, -0.5 + 1j, 0.3 + 0.2j, -0.95 + 0.5j]


@pytest.mark.parametrize("a", SWEEP_PARAMS)
def test_escape_times_sweep_finds_no_difference(a):
    differences = 0
    for v in SWEEP_VIEWPORTS:
        for escape_re in (50.0, 5.0, 1.0, 0.0, -1.0):
            got = escape_times(a, v, 80, escape_re)
            differences += int((got != reference_escape_times(a, v, 80, escape_re)).sum())
    assert differences == 0


@pytest.mark.parametrize("a", SWEEP_PARAMS + [-1.0])
@pytest.mark.parametrize("escape_re", [50.0, 1.0, -1.0])
def test_block_pass_retires_only_pixels_that_never_escape(a, escape_re):
    a = complex(a)
    trap = _basin_trap(a, escape_re)
    if trap is None:
        return
    for v in SWEEP_VIEWPORTS + [Viewport(-2.0, 4.0, -math.pi, math.pi, 64, 64)]:
        re = np.linspace(v.re_min, v.re_max, v.width_px)
        im = np.linspace(v.im_max, v.im_min, v.height_px)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            retired = _block_pass(a, re, im, trap, escape_re)
        assert retired.shape == (v.width_px * v.height_px,)
        full = reference_escape_times(a, v, 300, escape_re).ravel()
        assert (full[retired] == 300).all()


def test_block_pass_retires_most_of_an_attracting_basin():
    v = Viewport(-2.0, 4.0, -math.pi, math.pi, 200, 200)
    re = np.linspace(v.re_min, v.re_max, v.width_px)
    im = np.linspace(v.im_max, v.im_min, v.height_px)
    for a in (-0.5 + 1j, -2.0 + 0j):
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            retired = _block_pass(a, re, im, _basin_trap(a, 50.0), 50.0)
        retained = reference_escape_times(a, v, 100).ravel() == 100
        assert retired.sum() > 0.5 * retained.sum()


def test_find_cycle_guards():
    with pytest.raises(ValueError, match="period"):
        find_cycle(1.0, 0, 0.0)
    # f'(z) - 1 = e^z - 1 is 1e-320 i at z = 1e-320 i: the Newton step overflows
    with pytest.raises(NoConvergenceError, match="finite plane"):
        find_cycle(1.0, 1, 1e-320j)


@pytest.mark.parametrize("a, period, seed", [(-2.0, 3, -2.0), (-0.5 + 1j, 100_000, 0.3)])
def test_find_cycle_reduces_a_repeated_fixed_point_to_period_one(a, period, seed):
    # Newton lands on the attracting fixed point, repeated; its multiplier is
    # e^z over one point, not the period-th power of it
    info = find_cycle(a, period, seed)
    assert info.period == 1 and len(info.points) == 1
    assert info.multiplier == cmath.exp(info.points[0])
    assert info.kind == "attracting" and abs(info.multiplier) > 0.1
