"""Reference values the benchmark checks every output row against.

Everything here is independent of `contact_hj`: closed forms of the
discounted quadratic system and dense brute-force minima of the
inf-representation for the `sin` datum.  `self_check` pins them to the
constants the project README states before any workload runs.
"""

from __future__ import annotations

import math

import numpy as np

#: README constants: A(t=1, x=0, y=1, u=0) of discounted-quadratic(1.0)
#: is 1 / (2 (e - 1)) = 0.29099 and its initial momentum is 1 / (1 - 1/e)
README_A = 0.29099
README_P0 = 1.0 / (1.0 - 1.0 / math.e)


def rel(a: float, b: float) -> float:
    """Guarded relative error |a - b| / max(1, |b|)."""
    return abs(a - b) / max(1.0, abs(b))


def disc_A(lam: float, t: float, d: float, u: float) -> float:
    """Closed form exp(-lam t) u + lam d^2 / (2 (exp(lam t) - 1))."""
    return math.exp(-lam * t) * u + lam * d * d / (2.0 * math.expm1(lam * t))


def disc_p0(lam: float, t: float, d: float) -> float:
    """Initial momentum lam d / (1 - exp(-lam t)) of the discounted minimizer."""
    return lam * d / -math.expm1(-lam * t)


def _weights(lam: float, t: float) -> tuple:
    """(datum weight, quadratic coefficient) of the inf-representation.

    u(t, x) = min_y w phi(y) + c (x - y)^2 with w = exp(-lam t) and
    c = lam / (2 (exp(lam t) - 1)); lam = 0 is the Hopf-Lax limit 1/(2t).
    """
    if lam == 0.0:
        return 1.0, 1.0 / (2.0 * t)
    return math.exp(-lam * t), lam / (2.0 * math.expm1(lam * t))


def brute_min(f, lo: float, hi: float, points: int = 20001, zooms: int = 3) -> float:
    """Dense-grid minimum of a vectorized scalar function on [lo, hi].

    A uniform grid finds the basin; each zoom re-grids two cells either
    side of the best node, so the argmin error shrinks by ~points/4 per
    zoom and the value error is far below the 1e-3 item tolerance.
    """
    for _ in range(zooms + 1):
        y = np.linspace(lo, hi, points)
        vals = f(y)
        j = int(np.argmin(vals))
        step = (hi - lo) / (points - 1)
        lo, hi = y[j] - 2.0 * step, y[j] + 2.0 * step
    return float(vals[j])


def sin_value(lam: float, t: float, x: float) -> float:
    """u(t, x) for L = -lam u + v^2/2 and phi = sin, by brute force.

    Any y beating the rest point y = x satisfies c (x - y)^2 <= 2 w
    (sup |sin| = 1), which bounds the search interval rigorously.
    """
    w, c = _weights(lam, t)
    half = math.sqrt(2.0 * w / c) * 1.01 + 1e-3
    return brute_min(lambda y: w * np.sin(y) + c * (x - y) ** 2, x - half, x + half)


def sin_gap(lam: float, times, points) -> float:
    """sup over the grid of |u_lam - u_0| (discounted vs Hopf-Lax, datum sin)."""
    return max(abs(sin_value(lam, t, x) - sin_value(0.0, t, x))
               for t in times for x in points)


def _linear_value(lam: float, t: float, x: float, a: float) -> float:
    """Closed form of the inf-representation for phi(y) = a y."""
    w, c = _weights(lam, t)
    return w * a * x - (w * a) ** 2 / (4.0 * c)


def self_check() -> list:
    """Check the oracles against README constants and linear-datum closed forms.

    Returns a list of failure messages (empty when every oracle holds).
    """
    bad = []
    if abs(disc_A(1.0, 1.0, 1.0, 0.0) - README_A) > 5e-6:
        bad.append(f"disc_A(1,1,1,0) = {disc_A(1.0, 1.0, 1.0, 0.0)!r}, README says {README_A}")
    if abs(disc_p0(1.0, 1.0, 1.0) - README_P0) > 1e-12:
        bad.append(f"disc_p0(1,1,1) = {disc_p0(1.0, 1.0, 1.0)!r}, README says {README_P0!r}")
    a = 0.7
    for lam, t, x in ((1.0, 0.5, 0.3), (0.0, 0.8, -1.2), (0.05, 0.6, 1.5)):
        w, c = _weights(lam, t)
        got = brute_min(lambda y: w * a * y + c * (x - y) ** 2, x - 5.0, x + 5.0)
        want = _linear_value(lam, t, x, a)
        if abs(got - want) > 1e-9:
            bad.append(f"brute-force minimum {got!r} != closed form {want!r} at {(lam, t, x)}")
    # Hopf-Lax: the zero-discount limit of the discounted oracle
    if abs(sin_value(1e-9, 0.7, 0.4) - sin_value(0.0, 0.7, 0.4)) > 1e-8:
        bad.append("discounted oracle does not reduce to Hopf-Lax as lam -> 0")
    if sin_gap(0.3, [0.5], [0.2]) <= 0.0:
        bad.append("gap oracle is not positive for a positive discount")
    return bad
