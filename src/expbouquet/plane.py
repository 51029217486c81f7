"""Plane dynamics for the exponential family z -> e^z + a.

Orbits (and the horizontal-strip itineraries read off them), an
outside-a-disk escape predicate, Newton search for periodic cycles with
multiplier classification, and a deterministic escape-time renderer
emitting a binary P6 pixmap.
"""

from __future__ import annotations

import cmath
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .intervals import OVERFLOW_GUARD, TriBool, Interval, expm1_up, round_up, sum_up

# one-step escape certificate for rendering: e^50 dwarfs any supported |a|
ESCAPE_RE = 50.0
PARAM_CAP = 10.0
TWO_PI = 2.0 * math.pi

# Float errors covered by the trap-chain certificate of ``_basin_trap``, with
# u = 2^-53 and faithful libm exp, cos and sin.  On disk j of a chain
# |e^z| <= e^top, top = Re c_j + r_j, so
# - one float step e^z + a is off by at most 8u (e^top + |a|), and
# - the float residual |e^(c_j) + a - c_(j+1)| by at most 10u (e^top + |a| + |c_(j+1)|);
# TRAP_REL_SLACK (1e-14 > 10u) times e^top + |a| + |c_(j+1)| covers both.
# TRAP_SLACK covers the absolute rest: underflow in the membership test
# and the rounding of the modulus.  The membership test dx*dx + dy*dy <= r*r
# accepts only points within r (1 + 2.6u) of the centre and every point
# within r (1 - 2.6u); TRAP_RADIUS_REL (1e-15 > 2.6u) widens the disk a
# point may lie in and narrows the one its image must hit.
TRAP_SLACK = 1e-12
TRAP_REL_SLACK = 1e-14
TRAP_RADIUS_REL = 1e-15
# orbit steps of the asymptotic value a before polishing its limit cycle
TRAP_ORBIT_STEPS = 200
# longest attracting cycle that gets a trap chain, and how close f^p(w) must
# come back to the orbit end w for p to be taken as its period
TRAP_MAX_PERIOD = 8
TRAP_PERIOD_TOL = 1e-6

NEWTON_TOL = 1e-10
NEWTON_STEPS = 200
MULTIPLIER_TOL = 1e-6
MAX_UNITY_ORDER = 12


class NoConvergenceError(ArithmeticError):
    """Newton iteration failed to reach the residual tolerance."""


def _check_param(a: complex) -> complex:
    a = complex(a)
    # written so that a NaN modulus fails the check too
    if not abs(a) <= PARAM_CAP:
        raise ValueError(f"parameter |a| = {abs(a):.3g} is not a finite value "
                         f"within the supported cap {PARAM_CAP}")
    return a


def _orbit(a: complex, z: complex, n: int, guard: float) -> tuple[list[complex], complex]:
    """The orbit z, f(z), ..., f^n(z) of f(z) = e^z + a and the product of e^w over it.

    The one scalar loop of the plane: the orbit is cut after the first point
    whose real part exceeds ``guard`` (at most OVERFLOW_GUARD, so e^w stays
    finite), and the product runs over every listed point but the last, which
    makes it the derivative of f^k at z for the k = len(orbit) - 1 steps taken.
    """
    pts = [z]
    deriv = complex(1.0)
    for _ in range(n):
        if pts[-1].real > guard:
            break
        e = cmath.exp(pts[-1])
        deriv *= e
        pts.append(e + a)
    return pts, deriv


def exp_orbit(a: complex, z: complex, n: int) -> list[complex]:
    """Orbit z, f(z), ..., f^n(z) for f(z) = e^z + a.

    Stops early once the real part exceeds the escape guard: the last listed
    point is the first guard-exceeding iterate and later values are omitted.
    """
    return _orbit(_check_param(a), complex(z), n, ESCAPE_RE)[0]


def strip_itinerary(a: complex, z: complex, n: int) -> list[int]:
    """First n strip symbols: nearest integer to Im(f^k(z)) / 2pi, k = 0..n-1.

    Strips are centered on the lines Im = 2 pi k (nearest-integer rule).
    Entries past an escape-guard crossing are undefined and truncate the list.
    """
    # the orbit through f^(n-1) holds at least one point, so [:n] is empty for n <= 0
    return [round(w.imag / TWO_PI) for w in exp_orbit(a, z, n - 1)[:n]]


def region_stays_outside(a: complex, radius: float, z: complex,
                         budget: int) -> TriBool:
    """Whether every iterate f^n(z), n >= 1, keeps modulus at least ``radius``.

    Certified no when some inspected iterate dips inside; yes when every
    inspected iterate stays outside and the last carries the growth
    certificate Re > radius + |a| + 1 (so |f| >= e^Re - |a| stays outside);
    unknown otherwise.  The modulus reading of the region is a documented
    interpretation choice.
    """
    a = _check_param(a)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    orbit, _ = _orbit(a, complex(z), budget, OVERFLOW_GUARD)
    ok_margin = 1e-9
    for w in orbit[1:]:
        if abs(w) < radius - ok_margin:
            return TriBool.no()
        if abs(w) < radius + ok_margin:
            return TriBool.unknown(Interval.point(abs(w)))
    # an orbit cut short passed the overflow guard: its last point escapes
    if len(orbit) <= budget or orbit[-1].real > radius + abs(a) + 1.0:
        return TriBool.yes()
    return TriBool.unknown(Interval.point(orbit[-1].real))


@dataclass(frozen=True)
class CycleInfo:
    period: int
    points: tuple[complex, ...]
    multiplier: complex
    kind: str  # attracting | parabolic | repelling | indeterminate

    def to_json(self) -> dict:
        return {
            "period": self.period,
            "points": [[p.real, p.imag] for p in self.points],
            "multiplier": [self.multiplier.real, self.multiplier.imag],
            "kind": self.kind,
        }


def _near_root_of_unity(mult: complex) -> bool:
    return any(abs(mult ** q - 1.0) <= MULTIPLIER_TOL * q for q in range(1, MAX_UNITY_ORDER + 1))


def classify_multiplier(mult: complex) -> str:
    r = abs(mult)
    if r < 1.0 - MULTIPLIER_TOL:
        return "attracting"
    if r > 1.0 + MULTIPLIER_TOL:
        return "repelling"
    if _near_root_of_unity(mult):
        return "parabolic"
    return "indeterminate"


def find_cycle(a: complex, period: int, seed: complex) -> CycleInfo:
    """Newton search for a period-``period`` cycle of e^z + a from a seed.

    Solves f^period(z) = z; the derivative along the orbit is the product of
    e^(z_i), which is also the cycle multiplier at convergence.  Convergence
    means residual |f^period(z) - z| below NEWTON_TOL within NEWTON_STEPS
    steps; the iterate of least residual is reported, with the orbit and
    derivative its step computed.
    """
    a = _check_param(a)
    if period < 1:
        raise ValueError("period must be >= 1")
    z = complex(seed)
    best: tuple[list[complex], complex] | None = None
    best_res = math.inf
    prev_res = math.inf
    for _ in range(NEWTON_STEPS):
        orbit, deriv = _orbit(a, z, period, OVERFLOW_GUARD)
        left = len(orbit) <= period
        for w in orbit[:-1]:
            left = left or w.real < -OVERFLOW_GUARD
        if left:
            raise NoConvergenceError("orbit left the computable range during Newton")
        g = orbit[-1] - z
        res = abs(g)
        if res < best_res:
            best, best_res = (orbit, deriv), res
        if res < 1e-15:
            break
        # once below tolerance, keep polishing while the residual still falls
        # fast; multiple roots converge linearly and need the extra digits for
        # a faithful multiplier
        if res < NEWTON_TOL and res > 0.5 * prev_res:
            break
        prev_res = res
        z = z - g / (deriv - 1.0 or complex(1e-14))
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise NoConvergenceError("Newton iterate left the finite plane")
    if best is None or best_res >= NEWTON_TOL:
        raise NoConvergenceError(f"no residual < {NEWTON_TOL} within {NEWTON_STEPS} Newton steps")
    orbit, mult = best
    return CycleInfo(period, tuple(orbit[:-1]), mult, classify_multiplier(mult))


@dataclass(frozen=True)
class Viewport:
    re_min: float
    re_max: float
    im_min: float
    im_max: float
    width_px: int
    height_px: int

    def __post_init__(self):
        # the spans too: linspace over an overflowing span yields NaN pixels
        spans = (self.re_min, self.re_max, self.im_min, self.im_max,
                 self.re_max - self.re_min, self.im_max - self.im_min)
        if not all(math.isfinite(v) for v in spans):
            raise ValueError("viewport bounds and spans must be finite")
        if self.width_px < 1 or self.height_px < 1:
            raise ValueError("viewport needs at least one pixel per axis")
        if self.re_min > self.re_max or self.im_min > self.im_max:
            raise ValueError("viewport bounds are inverted")
        if (self.width_px > 1 and self.re_min == self.re_max) or (
                self.height_px > 1 and self.im_min == self.im_max):
            raise ValueError("degenerate viewport for a multi-pixel axis")


@dataclass(frozen=True)
class RenderSummary:
    escaped_pixels: int
    retained_pixels: int
    content_hash: str
    path: str

    def to_json(self) -> dict:
        return {
            "escaped_pixels": self.escaped_pixels,
            "retained_pixels": self.retained_pixels,
            "hash": self.content_hash,
            "path": self.path,
        }


@dataclass(frozen=True)
class _Trap:
    """A forward-invariant set of e^z + a that lies below the escape line.

    With ``disks`` empty it is the half-plane Re z <= 0, otherwise the union
    of the closed disks |z - c| <= r over its (c, r) pairs.  ``contains`` is
    the float membership test whose invariance under the float step the
    trap certificate covers.
    """
    disks: tuple[tuple[complex, float], ...] = ()

    def contains(self, z: np.ndarray) -> np.ndarray:
        if not self.disks:
            return z.real <= 0.0
        inside = None
        for center, radius in self.disks:
            # dx*dx + dy*dy in place: the same float operations, fewer
            # temporaries
            dx = z.real - center.real
            dy = z.imag - center.imag
            dx *= dx
            dy *= dy
            dx += dy
            hit = dx <= radius * radius
            if inside is None:
                inside = hit
            else:
                inside |= hit
        return inside


def _cycle_of_a(a: complex, escape_re: float) -> tuple[complex, ...] | None:
    """The cycle the orbit of a settles on, polished by ``find_cycle``.

    Follows the orbit for TRAP_ORBIT_STEPS steps and takes the smallest
    period p <= TRAP_MAX_PERIOD with |f^p(w) - w| below TRAP_PERIOD_TOL at
    the orbit end w, else p = 1 (a slowly attracting fixed point).  None
    when the orbit crosses the escape line or the overflow guard, or Newton
    fails.
    """
    orbit, _ = _orbit(a, a, TRAP_ORBIT_STEPS, min(escape_re, OVERFLOW_GUARD))
    if len(orbit) <= TRAP_ORBIT_STEPS:
        return None
    w = orbit[-1]
    orbit, _ = _orbit(a, w, TRAP_MAX_PERIOD, OVERFLOW_GUARD)
    period = next((p for p in range(1, len(orbit)) if abs(orbit[p] - w) < TRAP_PERIOD_TOL), 1)
    try:
        points = find_cycle(a, period, w).points
        # an orbit spiralling slowly into a fixed point can pass for a longer
        # cycle; Newton then lands on the fixed point, repeated
        least = next(d for d in range(1, period + 1)
                     if d == period or abs(points[d] - points[0]) < TRAP_PERIOD_TOL)
        return points if least == period else find_cycle(a, least, w).points
    except NoConvergenceError:
        return None


def _chain_radii(links: list[tuple[float, float, float]], r0: float,
                 escape_re: float) -> tuple[float, ...] | None:
    """Radii of a certified trap chain starting at r0, or None.

    ``links`` holds, for each cycle point c_j, the triple Re c_j,
    |f(c_j) - c_(j+1)| and |a| + |c_(j+1)| (indices mod p).  For z in
    D(c_j, r_j), |f'| = e^(Re z) <= e^(Re c_j + r_j), so
    |f(z) - c_(j+1)| <= e^(Re c_j + r_j) r_j + |f(c_j) - c_(j+1)| + slack_j
    (see TRAP_SLACK for the float errors); that bound, in directed rounding,
    is r_(j+1).  The chain is certified when the bound after the last disk
    falls below r_0, every disk lies below escape_re by TRAP_SLACK and no
    exponent passes the overflow guard.
    """
    radii = [r0]
    for re_c, residual, sizes in links:
        outer = round_up(radii[-1] * (1.0 + TRAP_RADIUS_REL))
        top = sum_up(re_c, outer)
        if not (top <= OVERFLOW_GUARD and sum_up(top, TRAP_SLACK) < escape_re):
            return None
        lipschitz = sum_up(1.0, expm1_up(top))
        slack = sum_up(TRAP_SLACK, round_up(TRAP_REL_SLACK * sum_up(lipschitz, sizes)))
        image = sum_up(sum_up(round_up(lipschitz * outer), residual), slack)
        radii.append(round_up(image * (1.0 + 2.0 * TRAP_RADIUS_REL)))
    return tuple(radii[:-1]) if radii[-1] < r0 else None


def _basin_trap(a: complex, escape_re: float) -> tuple[_Trap, ...]:
    """Certified forward-invariant traps of e^z + a below ``escape_re``.

    Half-plane: for Re a <= -1 and escape_re >= 0, Re z <= 0 implies
    Re(e^z + a) <= 1 + Re a <= 0.  The float step keeps it too, because
    fl(e^x cos y) <= 1 for x <= 0 when libm exp and cos are faithful and
    rounding is monotone.
    Disk chain: every attracting cycle attracts the orbit of the asymptotic
    value a, so the cycle of period p <= TRAP_MAX_PERIOD that the orbit of a
    settles on is polished by ``find_cycle`` (see ``_cycle_of_a``).  Its
    points c_0, ..., c_(p-1) are listed from the one of least real part,
    where the cycle contracts most; r_0 runs down a grid of 63 radii below
    min(-Re c_0, escape_re - Re c_0), and the first r_0 whose chain of disks
    D(c_j, r_j) ``_chain_radii`` certifies is kept: each disk maps into the
    next and the last into the first, so the union is forward-invariant.
    A chain inside the half-plane trap catches nothing new and is dropped.
    """
    traps: list[_Trap] = []
    half_plane = a.real <= -1.0 and escape_re >= 0.0
    if half_plane:
        traps.append(_Trap())
    cycle = _cycle_of_a(a, escape_re)
    if cycle is None:
        return tuple(traps)
    start = min(range(len(cycle)), key=lambda j: cycle[j].real)
    cycle = cycle[start:] + cycle[:start]
    r_max = min(-cycle[0].real, escape_re - cycle[0].real)
    # each r_(j+1) is at least e^(Re c_j) r_j, and the last one TRAP_SLACK
    # more, so no r_0 <= r_max closes a chain unless this holds (it fails
    # for repelling and parabolic cycles)
    contraction = -math.expm1(min(0.0, sum(c.real for c in cycle)))
    if not (r_max > 0.0 and r_max * contraction > TRAP_SLACK):
        return tuple(traps)
    links = [(c.real, abs(cmath.exp(c) + a - nxt), sum_up(abs(a), abs(nxt)))
             for c, nxt in zip(cycle, cycle[1:] + cycle[:1])]
    for k in range(63, 0, -1):
        radii = _chain_radii(links, r_max * k / 64, escape_re)
        if radii is not None:
            if not (half_plane and all(sum_up(c.real, r) <= 0.0 for c, r in zip(cycle, radii))):
                traps.append(_Trap(tuple(zip(cycle, radii))))
            break
    return tuple(traps)


def escape_times(a: complex, viewport: Viewport, max_iter: int,
                 escape_re: float = ESCAPE_RE) -> np.ndarray:
    """Escape-time grid: first n with Re(f^n(z)) > escape_re, else max_iter.

    Rows run top-down (first row at im_max); vectorized and deterministic.
    Only pixels still in play are iterated: a pixel leaves once it escapes,
    turns non-finite (time n + 1) or enters a trap of ``_basin_trap``, where
    its orbit provably never escapes, so it keeps max_iter.  Each pixel goes
    through the same float steps as on a full-grid pass, so the times are
    exactly those of iterating every pixel for max_iter steps.  Traps exist
    for an attracting cycle of period up to TRAP_MAX_PERIOD that the orbit
    of a settles on (a chain of disks around its points, one disk for a
    fixed point), and for Re a <= -1 with escape_re >= 0 (this covers the
    parabolic a = -1).  Longer attracting cycles get no trap.
    """
    a = _check_param(a)
    if not math.isfinite(escape_re):
        raise ValueError("escape_re must be finite")
    re = np.linspace(viewport.re_min, viewport.re_max, viewport.width_px)
    im = np.linspace(viewport.im_max, viewport.im_min, viewport.height_px)
    z = (re[np.newaxis, :] + 1j * im[:, np.newaxis]).ravel()
    times = np.full(z.size, max_iter, dtype=np.int32)
    idx = np.arange(z.size)
    traps = _basin_trap(a, escape_re)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for n in range(max_iter):
            drop = z.real > escape_re
            times[idx[drop]] = n
            for trap in traps:
                drop |= trap.contains(z)
            if drop.any():
                keep = ~drop
                z, idx = z[keep], idx[keep]
                if not z.size:
                    break
            np.exp(z, out=z)
            z += a
            # a non-finite iterate needs a huge real part: with the escape line at
            # or below the overflow guard, Re z <= 700 and |a| <= 10 keep it finite
            if escape_re > OVERFLOW_GUARD and (bad := ~np.isfinite(z)).any():
                times[idx[bad]] = n + 1
                keep = ~bad
                z, idx = z[keep], idx[keep]
    return times.reshape(viewport.height_px, viewport.width_px)


def render_escape(a: complex, viewport: Viewport, max_iter: int, path: str,
                  escape_re: float = ESCAPE_RE) -> RenderSummary:
    """Write a binary P6 pixmap of escape times and return a summary.

    Grayscale mapping (equal RGB channels): byte = round(255 * n / max_iter),
    with non-escaping pixels at 255.  Identical parameters give bit-identical
    files; the sha256 of the file contents is reported for determinism checks.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    times = escape_times(a, viewport, max_iter, escape_re)
    escaped = int((times < max_iter).sum())
    retained = int(times.size - escaped)
    # one RGB gray level per escape time, the same float steps as scaling each
    # pixel; take() copies whole 3-byte rows, where lut[times] is twice as slow
    levels = np.round(np.arange(max_iter + 1, dtype=np.float64) * (255.0 / max_iter))
    lut = np.repeat(levels.astype(np.uint8)[:, np.newaxis], 3, axis=1)
    rgb = lut.take(times, axis=0)
    header = f"P6\n{viewport.width_px} {viewport.height_px}\n255\n".encode("ascii")
    payload = header + rgb.tobytes()
    with open(path, "wb") as fh:
        fh.write(payload)
    digest = hashlib.sha256(payload).hexdigest()
    return RenderSummary(escaped, retained, digest, path)
