"""Harrell-Davis quantile estimates.

One query's time on the shared host varies by about 25% between identical
runs, and the workloads' latencies come in clusters (render tiles at
max_iter 100 and 200, ramp bands), so a single order statistic jumps
between clusters from run to run.  The Harrell-Davis estimate of the
p-quantile is a weighted mean of all order statistics, with weights from
the Beta((n+1)p, (n+1)(1-p)) distribution; it estimates the same quantile
with a much smaller spread.
"""

from __future__ import annotations

import math

_EPS = 1e-15
_TINY = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, 10000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(ln_front) * _betacf(a, b, x) / a
    return 1.0 - math.exp(ln_front) * _betacf(b, a, 1.0 - x) / b


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of ``values`` (0 < p < 1)."""
    x = sorted(values)
    n = len(x)
    if n == 1:
        return x[0]
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x[i] for i in range(n))
