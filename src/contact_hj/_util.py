"""Small numeric helpers used by several modules."""

from __future__ import annotations

import math
import numbers

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
            b, d, fb, fd = d, c, fd, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fa, fc = c, d, fc, fd
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
        raise PreconditionError(f"expected a point, got shape {p.shape}")
    if dim is not None and p.size != dim:
        raise PreconditionError(f"expected a point of dimension {dim}, got {p.size}")
    return p


def const(c) -> np.ndarray:
    """The number c as a read-only 0-d float64 array.  As a ufunc operand it
    costs less per call than a Python float, and on float64 operands it
    gives the same bits; a float32 operand is widened to float64 by it,
    where a Python float would keep float32."""
    a = np.array(c, dtype=float)
    a.flags.writeable = False
    return a


def as_count(value, name: str, least: int = 1) -> int:
    """`value` as an int of at least `least`; a fraction such as 2.5 or a
    bool raises PreconditionError rather than being truncated or read as
    0 or 1, while integral floats such as 8.0 and numpy ints pass."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool) and value >= least
            and float(value).is_integer()):
        raise PreconditionError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def resolve_id(spec_id: str, kind: str, registry: dict, *extra):
    """Build the built-in named by 'name' or 'name(<finite number>)'.

    `registry` maps a name to (builder, arity): arity 0 takes no argument,
    1 requires one and None allows either.  The builder gets the argument,
    if any, then `extra`.
    """
    if not isinstance(spec_id, str):
        raise PreconditionError(f"{kind} id must be a string, got {spec_id!r}")
    base, args = spec_id.strip(), ()
    if "(" in base:
        if not base.endswith(")"):
            raise PreconditionError(f"malformed {kind} id {spec_id!r}")
        base, raw = base[:-1].split("(", 1)
        try:
            args = (float(raw),)
        except ValueError as exc:
            raise PreconditionError(f"malformed {kind} argument in {spec_id!r}") from exc
        if not math.isfinite(args[0]):
            raise PreconditionError(f"{kind} argument must be finite in {spec_id!r}")
    if base not in registry:
        raise PreconditionError(f"unknown {kind} id {spec_id!r}; known: {tuple(registry)}")
    build, arity = registry[base]
    if arity == 0 and args:
        raise PreconditionError(f"{base} takes no argument, got {spec_id!r}")
    if arity == 1 and not args:
        raise PreconditionError(f"{base} requires an argument, e.g. {base}(1.0)")
    return build(*args, *extra)
