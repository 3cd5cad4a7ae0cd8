"""Small numeric helpers used by several modules."""

from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


def _golden_step(a: float, b: float, c: float, d: float, left: bool) -> tuple:
    """One golden-section step: shrink [a, b] to [a, d] (left) or [c, b].

    Returns the new (a, b, c, d, h) and the one new interior point.  The
    walk of `golden_min` and its lookahead share this arithmetic, so a
    point enumerated ahead is bitwise the point the walk requests.
    """
    if left:
        b, d = d, c
        h = b - a
        c = a + _INVPHI2 * h
        return (a, b, c, d, h), c
    a, c = c, d
    h = b - a
    d = a + _INVPHI * h
    return (a, b, c, d, h), d


def golden_min(f, lo: float, hi: float, xtol: float = 1e-10, max_iter: int = 200,
               prefetch=None, depth: int = 1):
    """Golden-section minimum of a scalar function on [lo, hi].

    Deterministic and derivative-free; returns (x_best, f_best).  The
    endpoints are always candidates, so a monotone f cannot escape the
    bracket; f is called once per distinct point.

    With `prefetch`, the walk runs in rounds of `depth` steps.  Before a
    round, `prefetch(points)` receives, in one call, every point the next
    `depth` steps could request (up to 2^(depth+1) - 2, since each step's
    point depends only on the outcome of one comparison) that no earlier
    call named; the first round also names the two first interior points
    and the bracket ends.  Every point reaches `prefetch` before `f` is
    called on it, and `f` is called exactly as without `prefetch`: the
    points on the walk's path only, in the same order, each one once.
    """
    a, b = float(lo), float(hi)
    if b < a:
        a, b = b, a
    h = b - a
    asked = set()

    def ahead(state, k, points=()):
        # every point the steps k .. k + depth - 1 could request from state
        if prefetch is None:
            return
        points, level = list(points), [state]
        for _ in range(min(depth, max_iter - k)):
            level = [_golden_step(*s[:4], left) for s in level if s[4] > xtol
                     for left in (True, False)]
            points += [p for _, p in level]
            level = [s for s, _ in level]
        new = [p for p in dict.fromkeys(points) if p not in asked]
        if new:
            asked.update(new)
            prefetch(new)

    if h <= xtol:
        m = 0.5 * (a + b)
        if prefetch is not None:
            prefetch([m])
        return m, f(m)
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    ahead((a, b, c, d, h), 0, (c, d, a, b))
    fc, fd = f(c), f(d)
    fa = fb = None  # an endpoint's value is known once it was an interior point
    for k in range(max_iter):
        if h <= xtol:
            break
        if k and k % depth == 0:
            ahead((a, b, c, d, h), k)
        if fc < fd:
            fb, fd = fd, fc
            (a, b, c, d, h), _ = _golden_step(a, b, c, d, True)
            fc = f(c)
        else:
            fa, fc = fc, fd
            (a, b, c, d, h), _ = _golden_step(a, b, c, d, False)
            fd = f(d)
    if fa is None:
        fa = f(a)
    if fb is None:
        fb = f(b)
    candidates = [(fc, c), (fd, d), (fa, a), (fb, b)]
    fbest, xbest = min(candidates, key=lambda p: p[0])
    return xbest, fbest


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce a scalar/sequence to a 1-D float point, optionally checking dim."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise ValueError(f"expected a point, got shape {p.shape}")
    if dim is not None and p.size != dim:
        raise ValueError(f"expected a point of dimension {dim}, got {p.size}")
    return p


def parse_id(spec_id: str, kind: str) -> tuple:
    """Split a built-in id 'name' or 'name(<finite number>)' into (name, number or None)."""
    if not isinstance(spec_id, str):
        raise PreconditionError(f"{kind} id must be a string, got {spec_id!r}")
    base = spec_id.strip()
    arg = None
    if "(" in base:
        if not base.endswith(")"):
            raise PreconditionError(f"malformed {kind} id {spec_id!r}")
        base, raw = base[:-1].split("(", 1)
        try:
            arg = float(raw)
        except ValueError as exc:
            raise PreconditionError(f"malformed {kind} argument in {spec_id!r}") from exc
        if not math.isfinite(arg):
            raise PreconditionError(f"{kind} argument must be finite in {spec_id!r}")
    return base, arg
