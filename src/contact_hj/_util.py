"""Small numeric helpers used by several modules."""

from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


def golden_min(f, lo: float, hi: float, xtol: float = 1e-10, max_iter: int = 200):
    """Golden-section minimum of a scalar function on [lo, hi].

    Deterministic and derivative-free; returns (x_best, f_best).  The
    endpoints are always candidates, so a monotone f cannot escape the
    bracket; f is called once per distinct point.
    """
    a, b = float(lo), float(hi)
    if b < a:
        a, b = b, a
    h = b - a
    if h <= xtol:
        m = 0.5 * (a + b)
        return m, f(m)
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc, fd = f(c), f(d)
    fa = fb = None  # an endpoint's value is known once it was an interior point
    for _ in range(max_iter):
        if h <= xtol:
            break
        if fc < fd:
            b, fb, d, fd = d, fd, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, fa, c, fc = c, fc, d, fd
            h = b - a
            d = a + _INVPHI * h
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
    """Split a built-in id 'name' or 'name(<number>)' into (name, number or None)."""
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
    return base, arg
