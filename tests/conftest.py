"""Shared oracles for the test suite.

The oracles here are deliberately independent of the library's own interval
code: plain-float bisection, mpmath high-precision evaluation, and brute
enumeration.  Expected values asserted in the tests were computed with these
and frozen.  ``RULE_MEMOS`` lists the process-wide memos of tail-rule work that
tests counting work empty first: a constant tail's height, a ramp's nesting
anchor, the pure tails whose memos keep the potential hulls past a prefix, and
the ramp entries the anchors build.
"""

import math

import mpmath as mp
import pytest

from expbouquet import model, sequences

RULE_MEMOS = (sequences.ConstTail.height, sequences.LinExpTail.nesting_anchor,
              sequences._ramp_entry, model._tail_seq)


def clear_rule_memos() -> None:
    for memo in RULE_MEMOS:
        memo.cache_clear()


@pytest.fixture
def empty_rule_memos():
    """The tail-rule memos, emptied before and after the test, so that a test
    that counts work meets its bound without an earlier test's warm memo."""
    clear_rule_memos()
    yield
    clear_rule_memos()


def bisect_root(f, lo: float, hi: float, steps: int = 200) -> float:
    """Plain bisection oracle; f(lo) and f(hi) must straddle zero."""
    flo = f(lo)
    if flo > 0:
        lo, hi = hi, lo
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mp_growth(t, dps: int = 60):
    with mp.workdps(dps):
        return mp.e ** mp.mpf(t) - 1


def mp_growth_pow(c, e: int, dps: int = 60):
    """F^e(c) at high precision; e < 0 iterates ln(1 + .)."""
    with mp.workdps(dps):
        v = mp.mpf(c)
        if e >= 0:
            for _ in range(e):
                v = mp.e ** v - 1
        else:
            for _ in range(-e):
                v = mp.log(1 + v)
        return v


def mp_growth_inv(t, k: int, dps: int = 60):
    with mp.workdps(dps):
        v = mp.mpf(t)
        for _ in range(k):
            v = mp.log(1 + v)
        return v


@pytest.fixture(scope="session")
def const1_height_oracle() -> float:
    """Root of e^t = t + 2 by bisection (endpoint height of the all-ones tail)."""
    return bisect_root(lambda t: math.exp(t) - t - 2.0, 0.5, 2.0)


def assert_encloses(interval, value, slack: float = 0.0) -> None:
    """The interval's ends, read exactly as mpmath numbers, hold value to within slack."""
    with mp.workdps(80):
        assert mp.mpf(interval.lo) - slack <= value <= mp.mpf(interval.hi) + slack, \
            f"{value} outside {interval}"
