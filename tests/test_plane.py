"""Plane dynamics: orbits, itineraries, cycles, the disk step, traps, rendering."""

import cmath
import hashlib
import math
import os

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
from expbouquet.orbits import ESCAPE_RE, CycleInfo, _check_param, classify_multiplier
from expbouquet.plane import (
    TRAP_MEMO_SIZE,
    TRAP_ORBIT_STEPS,
    _basin_trap,
    _block_pass,
    _memo_trap,
    _step,
    _Trap,
    _trap_chain,
    escape_times,
)
from workcount import work


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


# a real parameter keeps a real orbit real, so every symbol is 0; each start at
# a = -1 comes with the length of its itinerary, which an escape cuts short
@pytest.mark.parametrize("x, symbols", [(-2.0, 8), (-0.5, 8), (0.25, 8), (0.5, 7), (1.0, 4)])
def test_itinerary_real_orbit_is_zero(x, symbols):
    assert all(p.imag == 0.0 for p in exp_orbit(-1.0, x, 12))
    assert strip_itinerary(-1.0, x, 8) == [0] * symbols


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


@pytest.mark.parametrize("a, period, seed", [(-2.0, 1, -2.0), (-2.0 + 0.3j, 1, -2.0),
                                             (-3.0, 2, 0.5)])
def test_cycle_multiplier_matches_orbit_product(a, period, seed):
    # |multiplier| is the product of |e^(z_i)| along the reported cycle
    info = find_cycle(a, period, seed)
    prod = 1.0
    for p in info.points:
        prod *= math.exp(p.real)
    assert abs(abs(info.multiplier) - prod) < 1e-8 * max(1.0, prod)


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 3.5, -3.0, -1.0, -0.25])
def test_real_orbits_at_minus_one_escape_or_fall_to_the_fixed_point(x):
    # positive reals increase until they cross the escape line; negative reals
    # fall into the basin of the parabolic fixed point 0
    orbit = exp_orbit(-1.0, x, 400)
    if x > 0:
        assert orbit[-1].real > ESCAPE_RE
        assert all(b.real > a.real for a, b in zip(orbit, orbit[1:], strict=False)
                   if b.real <= ESCAPE_RE)
    else:
        assert -0.05 < orbit[-1].real <= 0.0


def test_multiplier_classification_bands():
    assert classify_multiplier(0.5 + 0j) == "attracting"
    assert classify_multiplier(2.0 + 0j) == "repelling"
    assert classify_multiplier(-1.0 + 0j) == "parabolic"       # order two
    assert classify_multiplier(complex(math.cos(1.0), math.sin(1.0))) == "indeterminate"


def test_escape_times_has_both_phases():
    v = Viewport(-2.0, 4.0, -math.pi, math.pi, 50, 50)
    times = escape_times(-1.0, v, 80)
    assert (times < 80).any() and (times == 80).any()


@pytest.mark.parametrize("width, height", [(64, 48), (80, 60)])
def test_render_deterministic_and_well_formed(width, height, tmp_path):
    v = Viewport(-2.0, 4.0, -math.pi, math.pi, width, height)
    p1 = tmp_path / "a.ppm"
    p2 = tmp_path / "b.ppm"
    s1 = render_escape(-1.0, v, 60, str(p1))
    s2 = render_escape(-1.0, v, 60, str(p2))
    assert s1.content_hash == s2.content_hash
    header = f"P6\n{width} {height}\n255\n".encode()
    data = p1.read_bytes()
    assert data.startswith(header)
    assert len(data) == len(header) + width * height * 3
    assert s1.escaped_pixels + s1.retained_pixels == width * height
    assert s1.escaped_pixels > 0 and s1.retained_pixels > 0


def test_render_maps_each_pixel_of_a_tile_with_fewer_pixels_than_times(tmp_path):
    # 4 pixels and 101 escape times: each pixel gets the gray level of its own time
    v = Viewport(0.5, 3.9, 0.0, 2.0, 2, 2)
    times = escape_times(-1.0, v, 100).ravel().tolist()
    assert times == [100, 100, 6, 2]
    path = tmp_path / "tile.ppm"
    render_escape(-1.0, v, 100, str(path))
    gray = bytes(round(n * (255.0 / 100)) for n in times for _ in range(3))
    assert path.read_bytes() == b"P6\n2 2\n255\n" + gray


def test_render_over_an_existing_file_leaves_exactly_the_tile(tmp_path):
    # the tile is written in place and then cut to length: neither a stale
    # tail of a longer file nor bytes of a shorter one may survive
    v = Viewport(-2.0, 4.0, -math.pi, math.pi, 64, 48)
    size = len(b"P6\n64 48\n255\n") + 64 * 48 * 3
    path = tmp_path / "tile.ppm"
    for stale in (b"\xff" * (size + 4096), b"\xff" * 100):
        path.write_bytes(stale)
        summary = render_escape(-1.0, v, 60, str(path))
        data = path.read_bytes()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == summary.content_hash


@pytest.mark.parametrize("umask", [0o002, 0o077])
def test_render_creates_a_fresh_file_with_the_mode_of_open_wb(umask, tmp_path):
    v = Viewport(0.5, 3.9, 0.0, 2.0, 2, 2)
    previous = os.umask(umask)
    try:
        render_escape(-1.0, v, 10, str(tmp_path / "tile.ppm"))
        with open(tmp_path / "reference", "wb"):
            pass
    finally:
        os.umask(previous)
    assert (tmp_path / "tile.ppm").stat().st_mode == (tmp_path / "reference").stat().st_mode


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


def reference_escape_times(a, viewport, max_iter):
    """The full-grid loop: every pixel stays in the array until it escapes."""
    a = _check_param(a)
    re = np.linspace(viewport.re_min, viewport.re_max, viewport.width_px)
    im = np.linspace(viewport.im_max, viewport.im_min, viewport.height_px)
    z = re[np.newaxis, :] + 1j * im[:, np.newaxis]
    times = np.full(z.shape, max_iter, dtype=np.int32)
    alive = np.ones(z.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for n in range(max_iter):
            esc = alive & (z.real > ESCAPE_RE)
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
# 1.7e-5 and 0.033), each with a line Re z = x just right of the cycle
CYCLE_PARAMS = {1.6 - 2.2j: 2.0, 0.7 - 0.7j: 2.5, 0.2 - 0.2j: 4.0, 0.3 - 0.5j: 4.5}


def _shifted(v, shift):
    """The viewport v moved right by ``shift``."""
    return Viewport(v.re_min + shift, v.re_max + shift, v.im_min, v.im_max, v.width_px, v.height_px)


@pytest.mark.parametrize("max_iter", [1, 60, 200])
# the viewport about the traps' levels near 0, across the escape line at 50,
# and past the overflow guard at 700, where every pixel escapes at once
@pytest.mark.parametrize("shift", [50.0, 1.0, 0.0, -1.0, 700.0])
@pytest.mark.parametrize("a", EQUIVALENCE_PARAMS + list(CYCLE_PARAMS))
def test_escape_times_equals_the_full_grid_loop(a, shift, max_iter):
    v = _shifted(Viewport(-3.0, 4.0, -4.0, 4.0, 41, 29), shift)
    expected = reference_escape_times(a, v, max_iter)
    got = escape_times(a, v, max_iter)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("a", list(CYCLE_PARAMS))
def test_escape_times_equals_the_full_grid_loop_on_a_bounding_escape_line(a):
    # the last column lies on the escape line, which it does not cross
    v = Viewport(-3.0, ESCAPE_RE, -4.0, 4.0, 41, 29)
    times = escape_times(a, v, 200)
    assert (times[:, -1] > 0).all()
    assert np.array_equal(times, reference_escape_times(a, v, 200))


def test_escape_times_equals_the_full_grid_loop_past_overflow():
    # above Re ~ 709.8 a step would overflow: such pixels, like all right of
    # the escape line, escape at time 0
    v = Viewport(-2.0, 800.0, -3.0, 3.0, 37, 5)
    right = np.linspace(v.re_min, v.re_max, v.width_px) > ESCAPE_RE
    for a in (-2.0, 0.3 + 0.2j):
        times = escape_times(a, v, 30)
        assert (times[:, right] == 0).all() and (times[:, ~right] > 0).all()
        assert np.array_equal(times, reference_escape_times(a, v, 30))


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
    trap = _basin_trap(-1.0 + 0j)  # parabolic: no disk exists
    assert (trap.level, trap.disks) == (0.0, ())
    # Re a <= -1: the level is ln(-Re a) less TRAP_REL_SLACK, rounded down;
    # the fixed point's disk lies below it
    for a in (-2.0, -3.0, -9.9, -1.5 + 2j):
        trap = _basin_trap(complex(a))
        assert trap.disks == () and len(_trap_chain(complex(a))) == 1
        assert math.log(-a.real) - 1e-13 < trap.level < math.log(-a.real)
    # a = -2: the first candidate, 63/64 of the fixed point's distance to the
    # imaginary axis, closes
    assert _trap_chain(-2.0 + 0j) == ((-1.8414056604369606 + 0j, 1.812633696992633),)
    # period 1: the disk found before trap chains existed, bit for bit, and a
    # level from the orbit of a, whose disk D(a, e^L) f maps into that disk
    trap = _basin_trap(-0.5 + 1j)
    assert trap.disks == ((-0.5156063086295142 + 1.5969344631287699j, 0.507549960057178),)
    assert trap.level == -0.875
    ((center, _),) = trap.disks
    assert abs(center - find_cycle(-0.5 + 1j, 1, center).points[0]) < 1e-12
    # the fixed point is repelling, but a lies on a super-attracting 4-cycle;
    # its point of least real part lies far inside the half-plane, so the
    # chain is dropped
    chain = _trap_chain(0.3 + 0.2j)
    cycle = find_cycle(0.3 + 0.2j, 4, 0.3 + 0.2j)
    assert cycle.kind == "attracting" and abs(cycle.multiplier) < 1e-30
    assert len(chain) == 4
    for center, _ in chain:
        assert min(abs(center - c) for c in cycle.points) < 1e-12
    trap = _basin_trap(0.3 + 0.2j)
    assert (trap.level, trap.disks) == (-2.875, ())
    # the disk D(a, rho) of level -4 reaches this 2-cycle's chain within
    # TRAP_ORBIT_STEPS steps, that of -3.875 does not: the level beside the chain
    trap = _basin_trap(1.6 - 2.2j)
    assert trap.level == -4.0 and trap.disks == _trap_chain(1.6 - 2.2j)
    assert len(trap.disks) == 2
    assert _basin_trap(-0.9 + 0j) is None  # no attracting cycle


def _assert_trap_returns(trap, a, z, window, steps=500):
    """Float orbits from the points of z that ``holds`` accepts stay below the
    escape line for ``steps`` steps, and ``holds`` accepts each again within
    every ``window`` steps (1: the trap maps into itself)."""
    z = z[trap.holds(z, 0.0)]
    since = np.zeros(z.size, dtype=int)
    with np.errstate(under="ignore"):
        for _ in range(steps):
            assert (z.real <= ESCAPE_RE).all()
            z = np.exp(z) + a
            since = np.where(trap.holds(z, 0.0), 0, since + 1)
            assert (since < window).all()
    assert (z.real <= ESCAPE_RE).all()


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
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
       angles=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=16, max_size=16),
       depths=st.lists(st.floats(0.0, 60.0), min_size=16, max_size=16),
       heights=st.lists(st.floats(-1e3, 1e3), min_size=16, max_size=16))
# the parabolic fixed point 0 of a = -1 lies on the closed half-plane's line
# (level 0): -1e-300 steps onto 0.0 exactly, which the trap must hold again
@example(a=-1.0, fracs=[0.0], angles=[0.0] * 16, depths=[1e-300] + [0.0] * 15,
         heights=[0.0] * 16)
def test_basin_traps_are_forward_invariant(a, fracs, angles, depths, heights):
    # the half-plane of a level from the orbit of a need not map into the
    # trap: its orbits reach a chain disk within TRAP_ORBIT_STEPS steps, its
    # landing budget, and a dropped disk (inside the half-plane) within p more
    a = complex(a)
    trap = _basin_trap(a)
    if trap is not None:
        window = TRAP_ORBIT_STEPS + max(1, len(_trap_chain(a)))
        z = _trap_samples(trap, fracs, angles, depths, heights)
        _assert_trap_returns(trap, a, z, window)


@pytest.mark.parametrize("a", list(CYCLE_PARAMS))
@pytest.mark.parametrize("whole_trap", [False, True])
def test_trap_chains_are_forward_invariant(a, whole_trap):
    chain = _trap_chain(a)
    assert len(chain) > 1
    # rims and interiors of every disk, 16 directions, and points of the
    # half-plane down to 60 below its level; the union of the chain's disks
    # maps into itself, whether or not the trap keeps them, and the whole
    # trap, its level and the disks it keeps, is entered again within a window
    fracs = [1.0, 0.999, 0.9, 0.5, 0.1, 0.0] + [1.0] * 10
    angles = [2.0 * math.pi * k / 16 for k in range(16)]
    depths = [0.0, 1e-9, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 10.0, 13.0, 20.0, 30.0, 40.0, 50.0,
              55.0, 60.0]
    heights = [3.5 * k - 26.0 for k in range(16)]
    trap, window = (_basin_trap(a), TRAP_ORBIT_STEPS + len(chain)) if whole_trap else (
        _Trap(disks=chain), 1)
    _assert_trap_returns(trap, a, _trap_samples(trap, fracs, angles, depths, heights), window)


def _closes(c, r):
    """Whether a one-link chain from D(c, r) closes for the map e^z + a that
    fixes c, a = c - e^c."""
    nxt, image, below = _step(c, r, c - cmath.exp(c))
    return bool(below and _Trap(disks=((c, r),)).holds(nxt, image))


def test_chain_slack_grows_with_the_size_of_the_step():
    # one float step onto a point of modulus 1e5 may be off by half an ulp
    # of 1e5, so the slack of a link grows with the size of its step; at
    # r = 1 the exact bound e^(Re c + r) r falls short of r by about 1e-11
    re_c = -1.0 - 1e-11
    assert _closes(complex(re_c), 1.0)
    assert not _closes(complex(re_c, 1e5), 1.0)
    # a repelling link maps D(c, 0.5) onto a disk of radius e^0.6 * 0.5 > 0.5,
    # so no chain through it closes
    _, image, below = _step(0.1 + 0j, 0.5, 0.1 - math.exp(0.1))
    assert below and image > 0.5
    assert not _closes(0.1 + 0j, 0.5)


# chain disks for the membership oracle: those of the cycles of period 2 to 8,
# a unit disk at 0 and two off the axes; 17 rims each, r (1 + k 2^-53), k = -8..8
HOLDS_DISKS = [d for a in CYCLE_PARAMS for d in _trap_chain(a)] + [
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
# axis) to a few units; disks reaching up to 1e-9 and 0.5 under the escape line,
# and as far under 0
STEP_RADII = [0.0, 1e-300, 1e-12, 1e-3, 0.1, 1.0, 4.0]
STEP_FRACS = [1.0, 0.999, 0.5]
STEP_ANGLES = [2.0 * math.pi * k / 16 for k in range(16)]


@pytest.mark.parametrize("top", [ESCAPE_RE, 0.0])
@pytest.mark.parametrize("a", [0j, 10 + 0j, -10 + 0j, 7.07 - 7.07j, 2.5j, -0.5 + 1j])
def test_step_holds_the_exact_and_the_float_image(a, top):
    # zero slack: every point the membership test accepts in D(c, r) has its
    # exact e^z + a (50 digits) and its float np.exp(z) + a within r' of c'
    rim = np.array([0j] + [f * cmath.exp(1j * t) for f in STEP_FRACS for t in STEP_ANGLES])
    for r in STEP_RADII:
        for depth in (1e-9, 0.5):
            for im in (0.0, 2.0, -3.1):
                c = complex(top - r - depth, im)
                nxt, image, below = _step(c, r, a)
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
    assert not _step(complex(ESCAPE_RE - 1.0), 1.0, a)[2]


# the render pool's parameters, the cycles with the escape line and with the
# line just right of them, and an orbit spiralling into a fixed point
# (|multiplier| 0.93) slowly enough to pass for a longer cycle: Newton lands
# on the fixed point, repeated
@pytest.mark.parametrize("a, right", [(a, ESCAPE_RE) for a in EQUIVALENCE_PARAMS[:4]]
                         + [(a, ESCAPE_RE) for a in CYCLE_PARAMS] + list(CYCLE_PARAMS.items())
                         + [(0.2 + 0.97j, ESCAPE_RE)])
def test_basin_trap_runs_one_newton_search(a, right, monkeypatch):
    from expbouquet import plane

    calls = []

    def counted(*args):
        calls.append((args, find_cycle(*args)))
        return calls[-1][1]

    monkeypatch.setattr(plane, "find_cycle", counted)
    trap = _basin_trap(complex(a))
    assert trap is not None and len(calls) == 1
    # the one search finds the cycle, left of the line Re z = right
    (args, cycle), = calls
    assert max(p.real for p in cycle.points) < right
    if a == 0.2 + 0.97j:
        assert args[1] > 1 and len(trap.disks) == 1


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


# the memo keys a by its bits: a = -2 and a = -1 with Im a = 0.0 and -0.0 get
# an entry each, the very trap that building it again returns
def test_trap_memo_tells_signed_zeros_apart(empty_trap_memo):
    params = [complex(-2.0, 0.0), complex(-2.0, -0.0), complex(-1.0, 0.0),
              complex(-1.0, -0.0), 0.3 + 0.2j]
    v = Viewport(-3.0, 3.0, -3.0, 3.0, 16, 16)
    for a in params:
        assert np.array_equal(escape_times(a, v, 20), reference_escape_times(a, v, 20)), a
    assert empty_trap_memo.cache_info().currsize == len(params)
    for a in params:
        trap = empty_trap_memo(a.real.hex(), a.imag.hex())
        assert repr(trap) == repr(_basin_trap(a)), a
    assert empty_trap_memo.cache_info().hits == len(params)


def test_trap_memo_holds_at_most_its_bound(empty_trap_memo):
    for k in range(TRAP_MEMO_SIZE + 8):
        escape_times(complex(-3.0, k / 64), Viewport(0.0, 0.0, 0.0, 0.0, 1, 1), 1)
    info = empty_trap_memo.cache_info()
    assert info.misses == TRAP_MEMO_SIZE + 8 and info.currsize == TRAP_MEMO_SIZE


def _assert_chain_certified(a, chain):
    """The chain's centres are the float orbit of ``_step``, its radii are
    positive, each disk's step stays below the escape line and fits the next
    radius, and the last image lies in the first disk."""
    radii = [r for _, r in chain]
    assert min(radii) > 0.0
    nxt = chain[0][0]
    for j, (c, r) in enumerate(chain):
        assert c == nxt
        nxt, image, below = _step(c, r, a)
        assert below and (j + 1 == len(chain) or image <= radii[j + 1])
    assert _Trap(disks=(chain[0],)).holds(nxt, image)


# the certificate does not trust the polish: a cycle point handed over 0.01
# off (a closing gap of about 0.012, more than the slack of the largest
# candidate) and a repelling fixed point right of the imaginary axis; the
# centres lie left of the escape line, and left of the line just right of a cycle
@pytest.mark.parametrize("a, right, shift, seed", [
    (a, ESCAPE_RE, 0j, None) for a in EQUIVALENCE_PARAMS + [0.2 + 0.97j] + list(CYCLE_PARAMS)
] + [(a, x, 0j, None) for a, x in CYCLE_PARAMS.items()] + [
    (-0.5 + 1j, ESCAPE_RE, 0.01, None), (0.3 + 0.2j, ESCAPE_RE, 0j, 0.31 + 1.56j)])
def test_trap_chains_carry_their_certificate(a, right, shift, seed, monkeypatch):
    from expbouquet import plane

    def polish(a, period, w):
        info = find_cycle(a, period, w if seed is None else seed)
        return CycleInfo(info.period, tuple(p + shift for p in info.points), info.multiplier,
                         info.kind)

    monkeypatch.setattr(plane, "find_cycle", polish)
    chain = _trap_chain(complex(a))
    assert (chain == ()) if seed is not None else (chain or not shift)
    if chain:
        _assert_chain_certified(complex(a), chain)
        assert max(c.real for c, _ in chain) < right


# ragged viewports (one pixel, and sizes that are no multiple of the block
# side), each straddling some of the levels of the parameters below: about
# 0.69 (a = -2), 1.10 (-3), 2.29 (-9.9), -0.375 (-0.95+0.5i), -0.875
# (-0.5+1i), -2.875 (0.3+0.2i), -3.375 (0.2-0.2i) and -7.75 (0.3-0.5i)
SWEEP_VIEWPORTS = [Viewport(0.69, 0.69, 0.1, 0.1, 1, 1),
                   Viewport(-3.5, 1.5, -2.0, 2.5, 7, 9),
                   Viewport(-4.0, 3.0, -4.0, 4.0, 33, 40),
                   Viewport(-9.0, 2.5, -3.2, 3.2, 65, 64)]
SWEEP_PARAMS = list(CYCLE_PARAMS) + [-2.0, -3.0, -9.9, -0.5 + 1j, 0.3 + 0.2j, -0.95 + 0.5j]


# each viewport also moved right across the escape line, and by 5, 1 and -1
@pytest.mark.parametrize("a", SWEEP_PARAMS)
def test_escape_times_sweep_finds_no_difference(a):
    differences = 0
    for v in SWEEP_VIEWPORTS:
        for shift in (50.0, 5.0, 1.0, 0.0, -1.0):
            w = _shifted(v, shift)
            differences += int((escape_times(a, w, 80) != reference_escape_times(a, w, 80)).sum())
    assert differences == 0


@pytest.mark.parametrize("a", SWEEP_PARAMS + [-1.0])
@pytest.mark.parametrize("shift", [50.0, 1.0, -1.0])
def test_block_pass_retires_only_pixels_that_never_escape(a, shift):
    a = complex(a)
    trap = _basin_trap(a)
    if trap is None:
        return
    for v in SWEEP_VIEWPORTS + [Viewport(-2.0, 4.0, -math.pi, math.pi, 64, 64)]:
        v = _shifted(v, shift)
        re = np.linspace(v.re_min, v.re_max, v.width_px)
        im = np.linspace(v.im_max, v.im_min, v.height_px)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            retired = _block_pass(a, re, im, trap)
        assert retired.shape == (v.width_px * v.height_px,)
        full = reference_escape_times(a, v, 300).ravel()
        assert (full[retired] == 300).all()


def test_block_pass_retires_most_of_an_attracting_basin():
    v = Viewport(-2.0, 4.0, -math.pi, math.pi, 200, 200)
    re = np.linspace(v.re_min, v.re_max, v.width_px)
    im = np.linspace(v.im_max, v.im_min, v.height_px)
    for a in (-0.5 + 1j, -2.0 + 0j):
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            retired = _block_pass(a, re, im, _basin_trap(a))
        retained = reference_escape_times(a, v, 100).ravel() == 100
        assert retired.sum() > 0.5 * retained.sum()


# pixels reach these small chain disks after about 23 steps, so their blocks and
# levels land only with the whole orbit budget; each tile, its trap built too,
# takes some 370,000 trap tests
@pytest.mark.parametrize("a", [1.6 - 2.2j, 0.7 - 0.7j])
def test_slow_landing_chains_bound_the_trap_work(a, empty_trap_memo):
    v = Viewport(-2.0, 4.0, -math.pi, math.pi, 200, 200)
    times, _, tests = work(escape_times, a, v, 100)
    assert np.array_equal(times, reference_escape_times(a, v, 100))
    assert tests <= 400_000


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
