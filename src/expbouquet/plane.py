"""Plane dynamics for the exponential family z -> e^z + a.

Orbits (and the horizontal-strip itineraries read off them), Newton search
for periodic cycles with multiplier classification, and a deterministic
escape-time renderer emitting a binary P6 pixmap, whose traps carry disks
by one certified step, ``_step``.
"""

from __future__ import annotations

import cmath
import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .intervals import OVERFLOW_GUARD, log1p_down, sum_down

# one-step escape certificate for rendering: e^50 dwarfs any supported |a|
ESCAPE_RE = 50.0
PARAM_CAP = 10.0
TWO_PI = 2.0 * math.pi

# the float-error budget of the disk step, derived on ``_image_radius``
TRAP_SLACK = 1e-12
TRAP_REL_SLACK = 1e-14
TRAP_RADIUS_REL = 1e-15
# orbit steps of the asymptotic value a before polishing its limit cycle
TRAP_ORBIT_STEPS = 200
# longest attracting cycle that gets a trap chain
TRAP_MAX_PERIOD = 8
# how close f^p(w) must come back to w for p to be taken as the period of w
PERIOD_TOL = 1e-6
# levels tried along the orbit of a; side and steps of the blocks carried as disks
TRAP_LEVELS = np.arange(-16.0, 4.0625, 0.125)
BLOCK_PX = 8
BLOCK_STEPS = 10
TRAP_MEMO_SIZE = 64  # parameters (a, escape_re) whose trap ``escape_times`` keeps

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
    """Float orbit z, f(z), ..., f^n(z) for f(z) = e^z + a, not certified.

    Stops early once the real part exceeds the escape guard: the last listed
    point is the first guard-exceeding iterate and later values are omitted.
    """
    return _orbit(_check_param(a), complex(z), n, ESCAPE_RE)[0]


def strip_itinerary(a: complex, z: complex, n: int) -> list[int]:
    """First n strip symbols: nearest integer to Im(f^k(z)) / 2pi, k = 0..n-1.

    Strips are centered on the lines Im = 2 pi k (nearest-integer rule).  The
    symbols are read off the float orbit of ``exp_orbit`` and are not
    certified: a point near a strip boundary may get its neighbour's symbol.
    Entries past an escape-guard crossing are undefined and truncate the list.
    """
    # the orbit through f^(n-1) holds at least one point, so [:n] is empty for n <= 0
    return [round(w.imag / TWO_PI) for w in exp_orbit(a, z, n - 1)[:n]]


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
    derivative its step computed, reduced to the least period d with
    |f^d(z) - z| below PERIOD_TOL (the multiplier then taken over d points).
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
    d = next(d for d in range(1, period + 1)
             if d == period or abs(orbit[d] - orbit[0]) < PERIOD_TOL)
    if d < period:
        mult = _orbit(a, orbit[0], d, OVERFLOW_GUARD)[1]
    return CycleInfo(d, tuple(orbit[:d]), mult, classify_multiplier(mult))


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
    """Where float orbits of e^z + a provably never cross the escape line: the
    closed half-plane Re z <= ``level`` and the open disks |z - c| < r of a
    certified chain (see ``_basin_trap``), with one test for disks and points."""
    level: float = -math.inf
    disks: tuple[tuple[complex, float], ...] = ()

    def holds(self, c: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Whether each disk D(c, r), a point if r = 0, lies in the trap: if
        fl(c.real + r) <= level, so is the real part of every double in D(c, r);
        TRAP_RADIUS_REL covers the subtraction and ``hypot`` (see ``_image_radius``)."""
        inside = c.real + r <= self.level
        for center, radius in self.disks:
            inside |= np.abs(c - center) * (1.0 + TRAP_RADIUS_REL) + r < radius
        return inside


def _up(x):
    return np.nextafter(x, np.inf)  # bounds every real number that rounds to x


def _image_radius(top, reach, sizes):
    """e^top reach plus the float-error slack, rounded up: the image radius of
    the disk step (reach r, see ``_step``) and of the half-plane Re z <= top
    (reach 1, about a); ``sizes`` bounds |a| + |c'| for the image's centre c'.

    With u = 2^-53 and faithful libm exp, cos and sin, |e^z| <= e^top, so one
    float step e^z + a is off by at most 8u (e^top + |a|), and so is c';
    TRAP_REL_SLACK (1e-14 > 16u) times e^top + |a| + |c'| covers both.
    TRAP_SLACK adds an absolute margin for underflow in e^z and the rounding
    of |c'|.  ``_Trap.holds`` accepts only disks inside a chain disk exactly
    (TRAP_RADIUS_REL, 1e-15 > 4u, covers its subtraction and ``hypot``), so
    the disk a point lies in needs no widening.  e^top rounds up (faithful
    ``expm1``); 1 + 4 TRAP_RADIUS_REL covers the six roundings of the radius.
    """
    lipschitz = _up(1.0 + _up(np.expm1(top)))
    return _up((lipschitz * reach + TRAP_SLACK + TRAP_REL_SLACK * (lipschitz + sizes))
               * (1.0 + 4.0 * TRAP_RADIUS_REL))


def _step(c, r, a: complex, escape_re: float):
    """The one disk step of the plane: ``(c', r', below)`` for the disks D(c, r).

    c' = fl(e^c + a), and D(c', r') holds the exact image e^z + a and the float
    step fl(e^z + a) of every z in D(c, r), where |f'| <= e^top, top rounded
    up.  ``below``: D(c, r) lies below the escape line and the guard.
    """
    nxt = np.exp(c) + a
    top = _up(c.real + r)
    below = (top <= OVERFLOW_GUARD) & (top + TRAP_SLACK < escape_re)
    return nxt, _image_radius(top, r, abs(a) + np.abs(nxt)), below


def _disks_land(centers: np.ndarray, radii: np.ndarray, a: complex, trap: _Trap,
                escape_re: float, steps: int) -> np.ndarray:
    """Which disks D(c, r) carry every float orbit from them into ``trap``: each
    is carried by ``_step`` for at most ``steps`` steps, and lands once it lies
    in the trap, every earlier disk having stayed below the escape line."""
    landed = np.zeros(centers.size, dtype=bool)
    live = np.arange(centers.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            hit = trap.holds(centers, radii)
            landed[live[hit]] = True
            if k == steps or hit.all():
                break
            centers, radii, below = _step(centers, radii, a, escape_re)
            go = below & ~hit
            live, centers, radii = live[go], centers[go], radii[go]
    return landed


def _trap_chain(a: complex, escape_re: float) -> tuple[tuple[complex, float], ...]:
    """The certified disk chain of e^z + a below ``escape_re``, (c_j, r_j) pairs, or ().

    Every attracting cycle attracts the orbit of the asymptotic value a.  The
    orbit is followed for TRAP_ORBIT_STEPS steps (none if it crosses the
    escape line) and the period p <= TRAP_MAX_PERIOD read off its end w: the
    least with |f^p(w) - w| below PERIOD_TOL, else 1 (a slowly attracting
    fixed point).  ``find_cycle`` polishes the cycle once, down to its least
    period (a slow spiral into a fixed point passes for a cycle); its point c_0
    of least real part and the candidates r_0 = r_max k / 64, k = 63 .. 1,
    r_max = min(-Re c_0, escape_re - Re c_0), go round the cycle together
    through ``_step``, which gives the centres c_1, ..., c_p; the largest
    candidate whose disks stay below the escape line and whose last disk
    D(c_p, r_p) lies in D(c_0, r_0) is kept: the union of D(c_j, r_j), j < p,
    is then forward-invariant.
    """
    orbit, _ = _orbit(a, a, TRAP_ORBIT_STEPS, min(escape_re, OVERFLOW_GUARD))
    if len(orbit) <= TRAP_ORBIT_STEPS:
        return ()
    w = orbit[-1]
    orbit, _ = _orbit(a, w, TRAP_MAX_PERIOD, OVERFLOW_GUARD)
    period = next((p for p in range(1, len(orbit)) if abs(orbit[p] - w) < PERIOD_TOL), 1)
    try:
        cycle = find_cycle(a, period, w)
    except NoConvergenceError:
        return ()
    start = min(cycle.points, key=lambda c: c.real)
    r_max = min(-start.real, escape_re - start.real)
    # negative candidates could pass the closing test on an expanding cycle
    if not r_max > 0.0:
        return ()
    c, r = start, r_max * np.arange(63.0, 0.0, -1.0) / 64
    disks, ok = [], True
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cycle.period):
            disks.append((complex(c), r))
            c, r, below = _step(c, r, a, escape_re)
            ok &= below
    ok &= _Trap(disks=((start, disks[0][1]),)).holds(c, r)
    if not ok.any():
        return ()
    k = int(ok.argmax())
    return tuple((c, float(r[k])) for c, r in disks)


def _basin_trap(a: complex, escape_re: float) -> _Trap | None:
    """The certified trap of e^z + a below ``escape_re``, or None.

    Its disks are the chain of ``_trap_chain``.  For Re z <= its level L the
    float step lies in D(a, rho), rho = ``_image_radius(L, 1, 2|a|)``.  L is
    the larger of max(0, ln(-Re a) - TRAP_REL_SLACK), at most escape_re, for
    Re a <= -1 and escape_re >= 0 (then fl(e^x cos y) <= -Re a, at L = 0 as
    faithful exp and cos keep it <= 1, else as its 4u error is below
    TRAP_REL_SLACK, so the step keeps real part <= 0 <= L), and the largest
    of TRAP_LEVELS, at most escape_re, whose D(a, rho) ``_disks_land``
    carries by ``_step`` into a chain disk within TRAP_MAX_PERIOD - 1 steps.
    A chain with a disk in the half-plane is dropped, as its orbits pass
    that disk once a period.
    """
    chain = _trap_chain(a, escape_re)
    level = -math.inf
    if a.real <= -1.0 and escape_re >= 0.0:
        level = min(escape_re, max(0.0, sum_down(log1p_down(sum_down(-a.real, -1.0)),
                                                 -TRAP_REL_SLACK)))
    if chain:
        levels = TRAP_LEVELS[TRAP_LEVELS <= escape_re]
        landed = _disks_land(np.full(levels.size, a), _image_radius(levels, 1.0, 2.0 * abs(a)),
                             a, _Trap(disks=chain), escape_re, TRAP_MAX_PERIOD - 1)
        level = max(level, float(levels[landed].max(initial=-math.inf)))
        if any(c.real + r <= level for c, r in chain):
            chain = ()
    return _Trap(level, chain) if chain or level > -math.inf else None


@functools.lru_cache(maxsize=TRAP_MEMO_SIZE)
def _memo_trap(re: str, im: str, escape_re: str) -> _Trap | None:
    """``_basin_trap`` keyed by ``float.hex``: a signed zero gets the very trap that
    recomputing returns, though no tile depends on it (a trap is only compared)."""
    return _basin_trap(complex(float.fromhex(re), float.fromhex(im)), float.fromhex(escape_re))


def _block_pass(a: complex, re: np.ndarray, im: np.ndarray, trap: _Trap,
                escape_re: float) -> np.ndarray:
    """The pixels of the grid re x im, flattened row by row, whose block lands in
    ``trap``: each BLOCK_PX-square block (ragged at the edges) is the disk about
    its midpoint of radius ``hypot`` of its half-widths, rounded up."""
    axes = []
    for axis in (re, im):
        first = axis[::BLOCK_PX]
        last = np.append(axis[BLOCK_PX - 1::BLOCK_PX], axis[-1])[:first.size]
        mid = first + 0.5 * (last - first)
        axes.append((mid, _up(np.maximum(np.abs(last - mid), np.abs(mid - first)))))
    (cx, hx), (cy, hy) = axes
    centers = (cx[np.newaxis, :] + 1j * cy[:, np.newaxis]).ravel()
    radii = _up(np.hypot(hx[np.newaxis, :], hy[:, np.newaxis])).ravel()
    landed = _disks_land(centers, radii, a, trap, escape_re, BLOCK_STEPS)
    blocks = landed.reshape(cy.size, cx.size).repeat(BLOCK_PX, 0).repeat(BLOCK_PX, 1)
    return blocks[:im.size, :re.size].ravel()


def escape_times(a: complex, viewport: Viewport, max_iter: int,
                 escape_re: float = ESCAPE_RE) -> np.ndarray:
    """Escape-time grid: first n with Re(f^n(z)) > escape_re, else max_iter.

    Rows run top-down (first row at im_max); vectorized and deterministic.
    ``_block_pass`` carries blocks of pixels as disks, each holding the float
    iterates of its pixels, so the pixels of a block that lands in the trap of
    ``_basin_trap`` keep max_iter without a step.  Other pixels leave the loop
    once they escape, turn non-finite (time n + 1) or enter the trap.  Each
    pixel goes through the same float steps as on a full-grid pass, so the
    times are exactly those of iterating every pixel for max_iter steps.
    Traps exist for an attracting cycle of period up to TRAP_MAX_PERIOD that
    the orbit of a settles on, and for Re a <= -1 with escape_re >= 0.
    """
    a = _check_param(a)
    if not math.isfinite(escape_re):
        raise ValueError("escape_re must be finite")
    re = np.linspace(viewport.re_min, viewport.re_max, viewport.width_px)
    im = np.linspace(viewport.im_max, viewport.im_min, viewport.height_px)
    z = (re[np.newaxis, :] + 1j * im[:, np.newaxis]).ravel()
    times = np.full(z.size, max_iter, dtype=np.int32)
    idx = np.arange(z.size)
    trap = _memo_trap(a.real.hex(), a.imag.hex(), float(escape_re).hex())
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        if trap is not None:
            keep = ~_block_pass(a, re, im, trap, escape_re)
            z, idx = z[keep], idx[keep]
        for n in range(max_iter):
            if not z.size:
                break
            drop = z.real > escape_re
            times[idx[drop]] = n
            if trap is not None:
                drop |= trap.holds(z, 0.0)
            if drop.any():
                keep = ~drop
                z, idx = z[keep], idx[keep]
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
    # escape times are int32
    if not 1 <= max_iter <= np.iinfo(np.int32).max:
        raise ValueError(f"max_iter must be in 1..{np.iinfo(np.int32).max}")
    times = escape_times(a, viewport, max_iter, escape_re)
    escaped = int((times < max_iter).sum())
    retained = int(times.size - escaped)
    # one RGB gray level per escape time, when there are no more times than
    # pixels, else per pixel: the same float steps either way; take() copies
    # whole 3-byte rows, where lut[times] is twice as slow
    table = max_iter < times.size
    levels = np.round((np.arange(max_iter + 1) if table else times) * (255.0 / max_iter))
    gray = np.repeat(levels.astype(np.uint8)[..., np.newaxis], 3, axis=-1)
    rgb = gray.take(times, axis=0) if table else gray
    header = f"P6\n{viewport.width_px} {viewport.height_px}\n255\n".encode("ascii")
    # the file and the hash read the RGB array through its buffer: no copy
    digest = hashlib.sha256(header)
    digest.update(rgb)
    with open(path, "wb") as fh:
        fh.writelines((header, rgb))
    return RenderSummary(escaped, retained, digest.hexdigest(), path)
