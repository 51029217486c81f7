"""Scalar plane dynamics for the exponential family z -> e^z + a.

Float orbits (and the horizontal-strip itineraries read off them) and a
Newton search for periodic cycles with multiplier classification: plain
complex arithmetic, no numpy.  ``plane`` renders escape times on top of it.
"""

from __future__ import annotations

import cmath
import math

from .intervals import OVERFLOW_GUARD, Frozen, _set_slot

# the escape line of every escape time, trap and ``exp_orbit``: e^50 dwarfs
# any supported |a|, and e^z + a stays finite for Re z at most 50
ESCAPE_RE = 50.0
PARAM_CAP = 10.0
TWO_PI = 2.0 * math.pi
# how close f^p(w) must come back to w for p to be taken as the period of w
PERIOD_TOL = 1e-6

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


class CycleInfo(Frozen):
    __slots__ = _fields = ("period", "points", "multiplier", "kind")

    def __init__(self, period: int, points: tuple[complex, ...], multiplier: complex, kind: str):
        _set_slot(self, "period", period)
        _set_slot(self, "points", points)
        _set_slot(self, "multiplier", multiplier)
        _set_slot(self, "kind", kind)  # attracting | parabolic | repelling | indeterminate

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
    if not cmath.isfinite(z := complex(seed)):
        raise ValueError(f"Newton seed {z} is not a finite complex number")
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
