"""Escape-time rendering for the exponential family z -> e^z + a.

A deterministic renderer emitting a binary P6 pixmap, whose traps carry disks
by one certified step, ``_step``; the scalar orbits and the cycle search it
reads live in ``orbits``.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import stat

import numpy as np

from .intervals import OVERFLOW_GUARD, Frozen, _set_slot, log1p_down, sum_down
from .orbits import ESCAPE_RE, PERIOD_TOL, NoConvergenceError, _check_param, _orbit, find_cycle

# the float-error budget of the disk step, derived on ``_image_radius``
TRAP_REL_SLACK = 1e-14
TRAP_RADIUS_REL = 1e-15
# orbit steps of the asymptotic value a before polishing its limit cycle
TRAP_ORBIT_STEPS = 200
# longest attracting cycle that gets a trap chain
TRAP_MAX_PERIOD = 8
# levels tried along the orbit of a; side and steps of the blocks carried as disks
TRAP_LEVELS = np.arange(-16.0, 4.0625, 0.125)
BLOCK_PX = 8
BLOCK_STEPS = 10
TRAP_MEMO_SIZE = 64  # parameters a whose trap ``escape_times`` keeps


class Viewport(Frozen):
    __slots__ = _fields = ("re_min", "re_max", "im_min", "im_max", "width_px", "height_px")

    def __init__(self, re_min: float, re_max: float, im_min: float, im_max: float,
                 width_px: int, height_px: int):
        # the spans too: linspace over an overflowing span yields NaN pixels
        spans = (re_min, re_max, im_min, im_max, re_max - re_min, im_max - im_min)
        if not all(math.isfinite(v) for v in spans):
            raise ValueError("viewport bounds and spans must be finite")
        if width_px < 1 or height_px < 1:
            raise ValueError("viewport needs at least one pixel per axis")
        if re_min > re_max or im_min > im_max:
            raise ValueError("viewport bounds are inverted")
        if (width_px > 1 and re_min == re_max) or (height_px > 1 and im_min == im_max):
            raise ValueError("degenerate viewport for a multi-pixel axis")
        for name, value in zip(self._fields, (re_min, re_max, im_min, im_max, width_px, height_px)):
            _set_slot(self, name, value)


class RenderSummary(Frozen):
    __slots__ = _fields = ("escaped_pixels", "retained_pixels", "content_hash", "path")

    def __init__(self, escaped_pixels: int, retained_pixels: int, content_hash: str, path: str):
        _set_slot(self, "escaped_pixels", escaped_pixels)
        _set_slot(self, "retained_pixels", retained_pixels)
        _set_slot(self, "content_hash", content_hash)
        _set_slot(self, "path", path)

    def to_json(self) -> dict:
        return {
            "escaped_pixels": self.escaped_pixels,
            "retained_pixels": self.retained_pixels,
            "hash": self.content_hash,
            "path": self.path,
        }


class _Trap(Frozen):
    """Where float orbits of e^z + a provably never cross the escape line: the
    closed half-plane Re z <= ``level`` and the open disks |z - c| < r of a
    certified chain (see ``_basin_trap``), with one test for disks and points."""

    __slots__ = _fields = ("level", "disks")

    def __init__(self, level: float = -math.inf, disks: tuple[tuple[complex, float], ...] = ()):
        _set_slot(self, "level", level)
        _set_slot(self, "disks", disks)

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
    TRAP_REL_SLACK (1e-14 > 16u) times e^top + |a| + |c'| covers both, the
    roundings of ``sizes`` and the 2^-1074 of an e^z that underflows, as
    ``lipschitz`` >= 2^-53.  ``_Trap.holds`` accepts only disks inside a chain
    disk exactly (TRAP_RADIUS_REL, 1e-15 > 4u, covers its subtraction and
    ``hypot``), so the disk a point lies in needs no widening.  e^top rounds up
    (faithful ``expm1``); 1 + 4 TRAP_RADIUS_REL covers the six roundings.
    """
    lipschitz = _up(1.0 + _up(np.expm1(top)))
    return _up((lipschitz * reach + TRAP_REL_SLACK * (lipschitz + sizes))
               * (1.0 + 4.0 * TRAP_RADIUS_REL))


def _step(c, r, a: complex):
    """The one disk step of the plane: ``(c', r', below)`` for the disks D(c, r).

    c' = fl(e^c + a), and D(c', r') holds the exact image e^z + a and the float
    step fl(e^z + a) of every z in D(c, r), where |f'| <= e^top, top rounded
    up.  ``below``: D(c, r) lies below the escape line ESCAPE_RE, so e^top is finite.
    """
    nxt = np.exp(c) + a
    top = _up(c.real + r)
    return nxt, _image_radius(top, r, abs(a) + np.abs(nxt)), top < ESCAPE_RE


def _disks_land(centers: np.ndarray, radii: np.ndarray, a: complex, trap: _Trap,
                steps: int) -> np.ndarray:
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
            centers, radii, below = _step(centers, radii, a)
            go = below & ~hit
            live, centers, radii = live[go], centers[go], radii[go]
    return landed


def _trap_chain(a: complex) -> tuple[tuple[complex, float], ...]:
    """The certified disk chain of e^z + a below the escape line, (c_j, r_j) pairs, or ().

    Every attracting cycle attracts the orbit of the asymptotic value a.  The
    orbit is followed for TRAP_ORBIT_STEPS steps (none if it crosses the
    escape line) and the period p <= TRAP_MAX_PERIOD read off its end w: the
    least with |f^p(w) - w| below PERIOD_TOL, else 1 (a slowly attracting
    fixed point).  ``find_cycle`` polishes the cycle once, down to its least
    period (a slow spiral into a fixed point passes for a cycle); its point c_0
    of least real part and the candidates r_0 = -Re c_0 k / 64, k = 63 .. 1, go
    round the cycle together through ``_step``, which gives the centres c_1,
    ..., c_p; the largest candidate whose disks stay below the escape line and
    whose last disk D(c_p, r_p) lies in D(c_0, r_0) is kept: the union of
    D(c_j, r_j), j < p, is then forward-invariant.
    """
    orbit, _ = _orbit(a, a, TRAP_ORBIT_STEPS, ESCAPE_RE)
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
    r_max = -start.real
    # negative candidates could pass the closing test on an expanding cycle
    if not r_max > 0.0:
        return ()
    c, r = start, r_max * np.arange(63.0, 0.0, -1.0) / 64
    disks, ok = [], True
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cycle.period):
            disks.append((complex(c), r))
            c, r, below = _step(c, r, a)
            ok &= below
    ok &= _Trap(disks=((start, disks[0][1]),)).holds(c, r)
    if not ok.any():
        return ()
    k = int(ok.argmax())
    return tuple((c, float(r[k])) for c, r in disks)


def _basin_trap(a: complex) -> _Trap | None:
    """The certified trap of e^z + a below the escape line, or None.

    Its disks are the chain of ``_trap_chain``.  For Re z <= its level L the
    float step lies in D(a, rho), rho = ``_image_radius(L, 1, 2|a|)``.  L is
    the larger of max(0, ln(-Re a) - TRAP_REL_SLACK) for Re a <= -1 (then
    fl(e^x cos y) <= -Re a, at L = 0 as faithful exp and cos keep it <= 1,
    else as its 4u error is below TRAP_REL_SLACK, so the step keeps real part
    <= 0 <= L; L <= ln 10 as |a| <= PARAM_CAP), and the largest of
    TRAP_LEVELS (all below the escape line) whose D(a, rho) ``_disks_land``
    carries by ``_step`` into a chain disk within TRAP_MAX_PERIOD - 1 steps.
    A chain with a disk in the half-plane is dropped, as its orbits pass
    that disk once a period.
    """
    chain = _trap_chain(a)
    level = -math.inf
    if a.real <= -1.0:
        level = max(0.0, sum_down(log1p_down(sum_down(-a.real, -1.0)), -TRAP_REL_SLACK))
    if chain:
        landed = _disks_land(np.full(TRAP_LEVELS.size, a),
                             _image_radius(TRAP_LEVELS, 1.0, 2.0 * abs(a)),
                             a, _Trap(disks=chain), TRAP_MAX_PERIOD - 1)
        level = max(level, float(TRAP_LEVELS[landed].max(initial=-math.inf)))
        if any(c.real + r <= level for c, r in chain):
            chain = ()
    return _Trap(level, chain) if chain or level > -math.inf else None


@functools.lru_cache(maxsize=TRAP_MEMO_SIZE)
def _memo_trap(re: str, im: str) -> _Trap | None:
    """``_basin_trap`` keyed by ``float.hex``: a signed zero gets the very trap that
    recomputing returns, though no tile depends on it (a trap is only compared)."""
    return _basin_trap(complex(float.fromhex(re), float.fromhex(im)))


def _block_pass(a: complex, re: np.ndarray, im: np.ndarray, trap: _Trap) -> np.ndarray:
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
    landed = _disks_land(centers, radii, a, trap, BLOCK_STEPS)
    blocks = landed.reshape(cy.size, cx.size).repeat(BLOCK_PX, 0).repeat(BLOCK_PX, 1)
    return blocks[:im.size, :re.size].ravel()


def escape_times(a: complex, viewport: Viewport, max_iter: int) -> np.ndarray:
    """Escape-time grid: first n with Re(f^n(z)) > ESCAPE_RE, else max_iter.

    Rows run top-down (first row at im_max); vectorized and deterministic.
    ``_block_pass`` carries blocks of pixels as disks, each holding the float
    iterates of its pixels, so the pixels of a block that lands in the trap of
    ``_basin_trap`` keep max_iter without a step.  Other pixels leave the loop
    once they escape or enter the trap; the rest have Re z <= ESCAPE_RE and
    |a| <= PARAM_CAP, so their next iterate is finite.  Each pixel goes
    through the same float steps as on a full-grid pass, so the times are
    exactly those of iterating every pixel for max_iter steps.  Traps exist
    for an attracting cycle of period up to TRAP_MAX_PERIOD that the orbit of
    a settles on, and for Re a <= -1.
    """
    a = _check_param(a)
    re = np.linspace(viewport.re_min, viewport.re_max, viewport.width_px)
    im = np.linspace(viewport.im_max, viewport.im_min, viewport.height_px)
    z = (re[np.newaxis, :] + 1j * im[:, np.newaxis]).ravel()
    times = np.full(z.size, max_iter, dtype=np.int32)
    idx = np.arange(z.size)
    trap = _memo_trap(a.real.hex(), a.imag.hex())
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        if trap is not None:
            keep = ~_block_pass(a, re, im, trap)
            z, idx = z[keep], idx[keep]
        for n in range(max_iter):
            if not z.size:
                break
            drop = z.real > ESCAPE_RE
            times[idx[drop]] = n
            if trap is not None:
                drop |= trap.holds(z, 0.0)
            if drop.any():
                keep = ~drop
                z, idx = z[keep], idx[keep]
            np.exp(z, out=z)
            z += a
    return times.reshape(viewport.height_px, viewport.width_px)


def render_escape(a: complex, viewport: Viewport, max_iter: int, path: str) -> RenderSummary:
    """Write a binary P6 pixmap of escape times and return a summary.

    Grayscale mapping (equal RGB channels): byte = round(255 * n / max_iter),
    with non-escaping pixels at 255.  Identical parameters give bit-identical
    files, written in place and cut to length (ext4 flushes a file truncated
    to zero at close).  The write is not atomic: a reader or a crash may see
    old and new bytes at once; the reported sha256 names the intended content.
    """
    # escape times are int32
    if not 1 <= max_iter <= np.iinfo(np.int32).max:
        raise ValueError(f"max_iter must be in 1..{np.iinfo(np.int32).max}")
    times = escape_times(a, viewport, max_iter)
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
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        fh.writelines((header, rgb))
        if stat.S_ISREG(os.fstat(fd).st_mode):  # ftruncate fails on a FIFO or device
            fh.truncate(fh.tell())
    return RenderSummary(escaped, retained, digest.hexdigest(), path)
