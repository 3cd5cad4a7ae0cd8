"""Viscosity solution of the Cauchy problem via the inf-representation.

The solution is u(t, x) = inf_y A(t, y, x, phi(y)), with A produced by
the fundamental-solution machinery.  A quantitative localization radius
mu(t) bounds every minimizing y inside the closed ball B(x, mu(t) t), so
the search is a coarse grid over that ball followed by per-coordinate
bracket refinement; the rest point y = x is always a candidate.
The search, its rounds and its start curves are described in README.md
("Numerical conventions", `solve_value`); `_search_ball` states its
contract.

For value-independent Lagrangians (K = 0) the same search reduces to the
classical inf-convolution formula; `lax_oleinik_classical` exposes that
path under an explicit precondition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ._util import as_count, as_point, resolve_id
from .errors import PreconditionError
from .fundamental import OptimizerParams, _cold_start, _direct_lockstep, _slice_lanes
# unused here; perfbench/tracing.py hooks this module's binding of the names
from ._util import golden_min  # noqa: F401
from .fundamental import fundamental_direct  # noqa: F401
from .systems import ContactSystem, HamiltonianSystem, hamiltonian_from_contact


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

@dataclass
class InitialDatum:
    """Bounded Lipschitz initial condition with declared constants.

    phi is vectorized over a leading batch axis ((..., n) -> (...)); lip
    and sup_abs are declared, not inferred, because they parameterize the
    localization radius.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    lip: float
    sup_abs: float
    name: str = ""

    def __post_init__(self):
        for key in ("lip", "sup_abs"):
            v = getattr(self, key)
            if not 0.0 <= v < math.inf:
                raise PreconditionError(f"{key} must be finite and nonnegative, got {v!r}")

    def __call__(self, y):
        return self.phi(np.asarray(y, dtype=float))

    def validate(self, x_bounds, samples: int = 512) -> bool:
        """Spot-check |phi| <= sup_abs and difference quotients <= lip, each
        up to a relative slack of 1e-6, on points drawn with seed 0.

        Pairs both far-apart and nearby points; nearby pairs are what
        actually probe the local slope.
        """
        samples = as_count(samples, "samples")
        rng, slack = np.random.default_rng(0), 1e-6
        lo = np.array([b[0] for b in x_bounds], dtype=float)
        hi = np.array([b[1] for b in x_bounds], dtype=float)
        a = rng.uniform(lo, hi, size=(samples, lo.size))
        b_far = rng.uniform(lo, hi, size=(samples, lo.size))
        b_near = a + rng.uniform(-1e-3, 1e-3, size=a.shape)
        a = np.concatenate([a, a])
        b = np.concatenate([b_far, b_near])
        fa = np.asarray(self(a), dtype=float)
        fb = np.asarray(self(b), dtype=float)
        ok_bound = np.max(np.abs(np.concatenate([fa, fb]))) <= self.sup_abs * (1.0 + slack)
        dist = np.linalg.norm(a - b, axis=-1)
        mask = dist > 1e-12
        quot = np.abs(fa - fb)[mask] / dist[mask]
        ok_lip = quot.size == 0 or float(quot.max()) <= self.lip * (1.0 + slack)
        return bool(ok_bound and ok_lip)


def datum_sin() -> InitialDatum:
    """phi(y) = sin(y_1)."""
    return InitialDatum(phi=lambda y: np.sin(y[..., 0]), lip=1.0, sup_abs=1.0,
                        name="sin")


def datum_cos_bump(width: float = math.pi) -> InitialDatum:
    """Compactly supported cosine bump (1 + cos(pi |y| / width)) / 2."""
    w = float(width)
    if not 0.0 < w < math.inf:
        raise PreconditionError(f"cos-bump width must be positive and finite, got {width!r}")

    def phi(y):
        r = np.linalg.norm(y, axis=-1)
        return np.where(r <= w, 0.5 * (1.0 + np.cos(math.pi * r / w)), 0.0)

    return InitialDatum(phi=phi, lip=0.5 * math.pi / w, sup_abs=1.0,
                        name=f"cos-bump({w:g})")


def datum_constant(c: float) -> InitialDatum:
    return InitialDatum(phi=lambda y: np.full(y.shape[:-1], float(c)),
                        lip=0.0, sup_abs=abs(float(c)), name=f"constant({c:g})")


def datum_quadratic_window(window: float = 10.0) -> InitialDatum:
    """phi(y) = min(|y|, window)^2 / 2: quadratic well clipped to stay bounded."""
    w = float(window)

    def phi(y):
        r = np.minimum(np.linalg.norm(y, axis=-1), w)
        return 0.5 * r * r

    return InitialDatum(phi=phi, lip=w, sup_abs=0.5 * w * w,
                        name=f"quadratic-window({w:g})")


def datum_abs_window(window: float = 10.0) -> InitialDatum:
    """phi(y) = min(|y|, window)."""
    w = float(window)
    return InitialDatum(phi=lambda y: np.minimum(np.linalg.norm(y, axis=-1), w),
                        lip=1.0, sup_abs=w, name=f"abs-window({w:g})")


def datum_linear_window(slope: float, window: float = 10.0) -> InitialDatum:
    """phi(y) = slope * clamp(y_1, -window, window)."""
    a, w = float(slope), float(window)
    return InitialDatum(phi=lambda y: a * np.clip(y[..., 0], -w, w),
                        lip=abs(a), sup_abs=abs(a) * w,
                        name=f"linear-window({a:g},{w:g})")


#: built-in datum id -> (builder, arity)
_DATA = {"sin": (datum_sin, 0), "cos-bump": (datum_cos_bump, None),
         "constant": (datum_constant, 1)}


def builtin_datum(spec_id: str) -> InitialDatum:
    """Resolve a built-in initial datum id."""
    return resolve_id(spec_id, "datum", _DATA)


# ---------------------------------------------------------------------------
# localization radius
# ---------------------------------------------------------------------------

def mu_radius(S: ContactSystem, datum: InitialDatum, t: float) -> float:
    """Localization rate: every argmin satisfies |y - x| <= mu(t) * t.

    Maximum of the four sign-case envelopes (phi at the argmin and at x
    each may be of either sign), which over-approximates soundly without
    knowing the minimizer.  Uses C1 = 2K (so 1 - e^{-2Kt} <= C1 t for all
    t >= 0) and C2 = sup|phi| * C1.
    """
    if not 0 < t < math.inf:
        raise PreconditionError("t must be positive and finite")
    K = S.K
    C = float(S.C_const)
    c0 = S.c0
    C2 = datum.sup_abs * 2.0 * K
    e2 = math.exp(2.0 * K * t)
    lip1 = datum.lip + 1.0
    conj_scaled = S.theta0_star(e2 * lip1)
    conj_plain = S.theta0_star(lip1)
    cases = (
        c0 + C2 + C + conj_scaled / e2,   # phi(y) <= 0, phi(x) <= 0
        e2 * (c0 + C2 + C) + conj_plain,  # phi(y) >= 0, phi(x) >= 0
        c0 + C + conj_scaled / e2,        # phi(y) <= 0, phi(x) >= 0
        e2 * (c0 + C) + conj_plain,       # phi(y) >= 0, phi(x) <= 0
    )
    return float(max(cases))


# ---------------------------------------------------------------------------
# argmin search
# ---------------------------------------------------------------------------

@dataclass
class SearchParams:
    """Controls of the inf-over-y search."""

    segments: int = 16         # curve segments of every inner solve
    grid_points: int = 33      # coarse grid points per axis
    ytol: float = 1e-6         # refinement stops once a certified bracket is this narrow
    refine_sweeps: int = 2     # coordinate-descent sweeps (n = 2; n = 1 needs one)
    opt: OptimizerParams = field(default_factory=OptimizerParams)


#: half-width of a sampled interval over the gap between its two vertex
#: predictions
_SAFETY = 4.0


def _vertex(y, h, below, at, above) -> float:
    """Vertex of the parabola through (y - h, below), (y, at), (y + h, above);
    nan unless it opens upwards."""
    curv = float(below) - 2.0 * float(at) + float(above)
    if not curv > 0.0:
        return math.nan
    return float(y) + h * (float(below) - float(above)) / (2.0 * curv)


def _bracket_starts(ends: np.ndarray, nodes: np.ndarray, ys: np.ndarray, i: int,
                    cold: np.ndarray) -> np.ndarray:
    """Interior start nodes (K, N-1, n) of a round's lanes from ys (K, n),
    which differ from one another in coordinate i only, off the converged
    lanes solved so far: endpoints ends (M, n), nodes (M, N+1, n).

    A lane from y' takes, of the solved lanes on its line (every other
    coordinate bitwise that of y'), the nearest one below y'_i, a (the
    latest solved of a tie), and the nearest one at or above it, b (the
    earliest of a tie), and starts from (1 - theta) nodes_a +
    theta nodes_b, theta = (y'_i - a_i) / (b_i - a_i).  A lane without such
    a pair keeps its row of `cold` (K, N-1, n), which is overwritten and
    returned.
    """
    line = np.flatnonzero(np.all(np.delete(ends, i, axis=1) == np.delete(ys[0], i), axis=1))
    line = line[np.argsort(ends[line, i], kind="stable")]
    j = np.searchsorted(ends[line, i], ys[:, i])  # the first solved point at or above y'_i
    pair = (0 < j) & (j < line.size)
    a, b = line[j[pair] - 1], line[j[pair]]
    theta = ((ys[pair, i] - ends[a, i]) / (ends[b, i] - ends[a, i]))[:, None, None]
    cold[pair] = (1.0 - theta) * nodes[a, 1:-1] + theta * nodes[b, 1:-1]
    return cold


def _search_ball(S, datum, t, x, search) -> tuple:
    """Coarse grid + parabolic bracket refinement of y -> A(t, y, x, phi(y))
    over the ball B(x, mu(t) t), as README.md describes `solve_value`.

    Returns (value, argmin, winning `FundamentalResult`).  Every round's
    lanes start as `_bracket_starts` says, their cold rows from
    `_cold_start`.  The pick is that of a strict-< scan in point order,
    and every lane is bitwise the solve it would be alone from the same
    start, so the result is that of solving the points one after another;
    the kept solve is a fixed point of the inner solver, but not in general
    bitwise a cold solve from the argmin.  A lane that exhausts max_iter
    raises its NonConvergence, the first in point order.  A fractional or
    too small count (`grid_points` and `refine_sweeps` below 1, `segments`
    below 2), or a `ytol` that is not finite, raises PreconditionError
    before any sweep; one grid point per axis is taken as two, and a
    `ytol` of 0 or below refines until rounding stops it.
    """
    G = max(2, as_count(search.grid_points, "grid_points"))
    N = as_count(search.segments, "segments", 2)
    sweeps = as_count(search.refine_sweeps, "refine_sweeps")
    if not math.isfinite(search.ytol):
        raise PreconditionError(f"ytol must be finite, got {search.ytol!r}")
    n = x.size
    radius = mu_radius(S, datum, t) * t
    best_y = best = None
    ends, curves = [], []  # the converged lanes solved so far, batch by batch

    def solve(ys, start=None):
        """Solve a batch from its start curves; returns its terminal costs,
        its first least lane and whether that lane became the best so far."""
        nonlocal best_y, best
        # phi point by point: a batched call may round differently
        u = np.array([float(datum(y)) for y in ys])
        lanes = _direct_lockstep(S, t, ys, np.broadcast_to(x, ys.shape), u, N, search.opt,
                                 start)
        ends.append(ys[lanes.converged])
        curves.append(lanes.nodes[lanes.converged])
        k = int(np.argmin(lanes.A))  # the first least A, as a strict-< scan takes
        improved = best is None or lanes.A[k] < best.A
        if improved:
            best_y, best = ys[k].copy(), lanes.result(k)
        return lanes.A, k, improved

    axes = [np.linspace(x[i] - radius, x[i] + radius, G) for i in range(n)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    inside = np.linalg.norm(mesh - x, axis=-1) <= radius + 1e-12
    solve(np.concatenate([x[None], mesh[inside]]))  # the rest point comes first
    step = 2.0 * radius / (G - 1)
    K = max(2, min(30, _slice_lanes((N - 1) * n)))
    floor = K * search.ytol / 8.0  # the least sampled half-width
    # a single coordinate is settled by one sweep
    for _ in range(1 if n == 1 else sweeps):
        for i in range(n):
            others = np.delete(best_y - x, i)
            half = math.sqrt(max(radius ** 2 - float(np.dot(others, others)), 0.0))
            lo = max(x[i] - half, best_y[i] - step)
            hi = min(x[i] + half, best_y[i] + step)
            a, b = lo, hi
            while hi - lo > search.ytol:
                w = (b - a) / (K + 1)
                ys = np.repeat(best_y[None], K, axis=0)
                ys[:, i] = a + w * np.arange(1, K + 1)
                A, k, improved = solve(ys, _bracket_starts(
                    np.concatenate(ends), np.concatenate(curves), ys, i,
                    _cold_start(S, t, ys, x, N, search.opt.substeps)))
                interior = improved and 0 < k < K - 1
                if interior or (a, b) == (lo, hi):
                    new_lo, new_hi = max(lo, best_y[i] - w), min(hi, best_y[i] + w)
                    if new_hi - new_lo >= hi - lo:  # rounding stalls a bracket a few ulps wide
                        break
                    lo, hi = new_lo, new_hi
                a, b = lo, hi
                if interior and 1 < k < K - 2:
                    v = _vertex(ys[k, i], w, A[k - 1], A[k], A[k + 1])
                    v2 = _vertex(ys[k, i], 2.0 * w, A[k - 2], A[k], A[k + 2])
                    if lo <= v <= hi and not math.isnan(v2):
                        r = max(_SAFETY * abs(v - v2), floor)
                        a, b = max(lo, v - r), min(hi, v + r)
    return float(best.A), best_y, best


def solve_value(S: ContactSystem, datum: InitialDatum, t: float, x,
                search: Optional[SearchParams] = None) -> tuple:
    """u(t, x) = min_y A(t, y, x, phi(y)), its argmin and the winning solve.

    Returns (value, y_star, best), where best is the `FundamentalResult`
    from y_star to x whose A is the value.  The search ball B(x, mu(t) t)
    provably contains every minimizer, and the center candidate
    guarantees the result never exceeds the value of resting at x.
    """
    search = search or SearchParams()
    x = as_point(x, S.dim)
    return _search_ball(S, datum, t, x, search)


def _require_classical(S: ContactSystem) -> None:
    """Raise unless S is value-independent (declared K = 0)."""
    if S.K != 0.0:
        raise PreconditionError(
            "classical formula requires a value-independent system (K = 0)")


def lax_oleinik_classical(S: ContactSystem, datum: InitialDatum, t: float, x,
                          search: Optional[SearchParams] = None) -> tuple:
    """Classical inf-convolution value for value-independent Lagrangians.

    Same search as `solve_value`; requires a declared K = 0 so the cost
    ODE degenerates to the plain action integral.
    """
    _require_classical(S)
    return solve_value(S, datum, t, x, search)


@dataclass
class ValueGrid:
    """u(t, x) over a (times x points) table, with argmins, radii and solves."""

    times: np.ndarray           # (T,)
    points: np.ndarray          # (P, n)
    values: np.ndarray          # (T, P)
    argmins: np.ndarray         # (T, P, n)
    radius_used: np.ndarray     # (T,) = mu(t) * t
    axes: Optional[list] = None  # spatial lattice axes when points form one
    results: list = field(default_factory=list)  # (T, P) winning FundamentalResults


def solve_value_grid(S: ContactSystem, datum: InitialDatum,
                     times: Sequence[float], points: np.ndarray,
                     search: Optional[SearchParams] = None,
                     axes: Optional[list] = None) -> ValueGrid:
    """Tabulate solve_value over times x points (deterministic order).

    This is the library's one loop over (t, x): the `solve` command and
    `run_vanishing` tabulate through it.
    """
    search = search or SearchParams()
    times = np.asarray(list(times), dtype=float)
    if (times.size == 0 or not np.all((times > 0) & (times < math.inf))
            or np.any(np.diff(times) <= 0)):
        raise PreconditionError("times must be positive, finite and strictly ascending")
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != S.dim:
        raise PreconditionError("points must have shape (P, dim)")
    T, P = times.size, points.shape[0]
    values = np.empty((T, P))
    argmins = np.empty((T, P, S.dim))
    radius = np.empty(T)
    results = [[None] * P for _ in range(T)]
    for a, t in enumerate(times):
        radius[a] = mu_radius(S, datum, float(t)) * float(t)
        for b in range(P):
            values[a, b], argmins[a, b], results[a][b] = solve_value(
                S, datum, float(t), points[b], search)
    return ValueGrid(times=times, points=points, values=values,
                     argmins=argmins, radius_used=radius, axes=axes,
                     results=results)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclass
class ResidualReport:
    """Centered-difference residual of the evolution equation on a grid."""

    median: float
    p90: float
    residuals: np.ndarray


def _uniform_spacing(vals, what):
    steps = np.diff(vals)
    if vals.size < 3 or not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise PreconditionError(f"{what} must be uniform with >= 3 points")
    return float(steps[0])


def pde_residual(system, grid: ValueGrid) -> ResidualReport:
    """|d_t u + H(x, u, d_x u)| at interior grid points (median / p90).

    `system` may be a HamiltonianSystem or a ContactSystem (in which case
    the Hamiltonian is the numeric convex dual).  Percentiles rather than
    a max: the value function is only almost-everywhere smooth, so a few
    kink points carry no information about scheme consistency.
    """
    times = grid.times
    dt = _uniform_spacing(times, "time levels")
    if grid.axes is None or len(grid.axes) not in (1, 2):
        raise PreconditionError("pde_residual requires a 1-D or 2-D lattice "
                                "with recorded axes")
    axes = [np.asarray(a, dtype=float) for a in grid.axes]
    dxs = [_uniform_spacing(a, "spatial lattice") for a in axes]
    shape = (times.size,) + tuple(a.size for a in axes)
    if grid.values.size != np.prod(shape):
        raise PreconditionError("grid points do not form the recorded lattice")
    U = grid.values.reshape(shape)

    if isinstance(system, ContactSystem):
        system = hamiltonian_from_contact(system)
    elif not isinstance(system, HamiltonianSystem):
        raise PreconditionError("system must be a ContactSystem or HamiltonianSystem")

    inner = (slice(1, -1),) * U.ndim

    def central(axis, h):
        """Central difference along `axis` at the interior points."""
        hi, lo = (inner[:axis] + (end,) + inner[axis + 1:]
                  for end in (slice(2, None), slice(None, -2)))
        return (U[hi] - U[lo]) / (2.0 * h)

    u_t, *grads = [central(i, h) for i, h in enumerate([dt] + dxs)]
    n = len(axes)
    p = np.stack(grads, axis=-1)
    x = np.broadcast_to(np.stack(np.meshgrid(*[a[1:-1] for a in axes], indexing="ij"),
                                 axis=-1), p.shape)
    # point by point: a batched call may round differently (np.power does)
    H = [float(system.H(*pt)) for pt in zip(x.reshape(-1, n), U[inner].ravel(), p.reshape(-1, n))]
    res = np.abs(u_t + np.reshape(H, u_t.shape))
    flat = res.ravel()
    return ResidualReport(median=float(np.median(flat)),
                          p90=float(np.percentile(flat, 90)),
                          residuals=res)


@dataclass
class InitialGapReport:
    """How fast u(t, x) returns to phi(x) as the horizon shrinks."""

    ts: np.ndarray
    gaps: np.ndarray
    mus: np.ndarray
    fitted_c2: float
    linear_bound: np.ndarray    # lip * mu(t) * t + fitted_c2 * t
    decay_ok: bool


def initial_condition_check(S: ContactSystem, datum: InitialDatum, x,
                            t_sequence: Sequence[float],
                            search: Optional[SearchParams] = None) -> InitialGapReport:
    """Track |u(t, x) - phi(x)| down a decreasing sequence of horizons.

    Gaps must fit under lip * mu(t) * t + C2' t for a fitted constant C2'
    (which holds by construction once C2' is fitted; the meaningful flag
    is `decay_ok`, requiring gap(t') <= 1.5 * (t'/t) * gap(t) + 1e-6 for
    consecutive horizons).
    """
    search = search or SearchParams()
    x = as_point(x, S.dim)
    ts = np.asarray(list(t_sequence), dtype=float)
    if ts.size < 1 or np.any(ts <= 0) or np.any(np.diff(ts) >= 0):
        raise PreconditionError("t_sequence must be positive and strictly decreasing")
    phi_x = float(datum(x))
    # the grid wants ascending horizons; read its values back in this order
    values = solve_value_grid(S, datum, ts[::-1], x[None], search).values[::-1, 0]
    gaps = np.abs(values - phi_x)
    mus = np.array([mu_radius(S, datum, float(t)) for t in ts])
    slack = gaps - datum.lip * mus * ts
    fitted_c2 = float(max(0.0, np.max(slack / ts)))
    bound = datum.lip * mus * ts + fitted_c2 * ts
    decay_ok = True
    for i in range(ts.size - 1):
        rho = ts[i + 1] / ts[i]
        if gaps[i + 1] > 1.5 * rho * gaps[i] + 1e-6:
            decay_ok = False
    return InitialGapReport(ts=ts, gaps=gaps, mus=mus, fitted_c2=fitted_c2,
                            linear_bound=bound, decay_ok=decay_ok)
