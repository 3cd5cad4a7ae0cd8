"""The lockstep L-BFGS-B driver against the scipy `minimize` loop it replaced.

The reference loops below are the earlier `fundamental_direct` (one
`scipy.optimize.minimize` call per inner solve), the sequential
`_search_ball` and the earlier `golden_min`, kept verbatim apart from
their names.  Every lane of the driver must follow its reference solve
bit for bit: same optimum, minimizer, trajectory, iteration count,
objective history and verdict.
"""

import math
from typing import Optional

import numpy as np
import pytest
from scipy.optimize import minimize

from contact_hj import (ContactSystem, FundamentalResult, InitialDatum,
                        NonConvergence, PreconditionError, SearchParams,
                        datum_cos_bump, datum_sin, discounted_quadratic_system,
                        fundamental_direct, perturbed_system, quadratic_system,
                        quartic_system, solve_value, trig_contact_system)
from contact_hj._util import _INVPHI, _INVPHI2, as_point, golden_min
from contact_hj.cost_ode import Curve, integrate_cost, integrate_cost_many
from contact_hj import fundamental
from contact_hj.fundamental import T_MIN, OptimizerParams, _direct_lockstep
from contact_hj.value import mu_radius

# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------

def _ref_fundamental_direct(S: ContactSystem, t: float, x, y, u: float,
                            segments: int = 32,
                            opt: Optional[OptimizerParams] = None) -> FundamentalResult:
    """Minimize the terminal running cost over curves from x to y.

    The decision variables are the interior nodes of a piecewise-linear
    curve initialized as the straight segment; the objective value is the
    final sample of the cost ODE.  Gradients are central differences on
    the node coordinates, evaluated as one batched integration sweep.
    """
    opt = opt or OptimizerParams()
    if t <= T_MIN:
        raise PreconditionError(f"t must exceed {T_MIN:g}")
    if segments < 2:
        raise PreconditionError("need at least 2 segments")
    if not np.isfinite(u):
        raise PreconditionError("u must be finite")
    x = as_point(x, S.dim)
    y = as_point(y, S.dim)
    n = S.dim
    N = int(segments)
    D = (N - 1) * n

    base = Curve.straight(x, y, t, N)
    z0 = base.interior
    eye = np.eye(D) * opt.fd_step
    last_f = {"f": np.nan}

    def fun_and_grad(z):
        zs = np.vstack([z[None, :], z[None, :] + eye, z[None, :] - eye])
        nodes = np.empty((2 * D + 1, N + 1, n))
        nodes[:, 0, :] = x
        nodes[:, -1, :] = y
        nodes[:, 1:-1, :] = zs.reshape(-1, N - 1, n)
        finals = integrate_cost_many(S, t, nodes, u, opt.substeps)[:, -1]
        f = float(finals[0])
        g = (finals[1:D + 1] - finals[D + 1:]) / (2.0 * opt.fd_step)
        last_f["f"] = f
        return f, g

    f0, g0 = fun_and_grad(z0)
    history = [f0]
    # scipy's L-BFGS-B stops on EITHER criterion; the contract wants both,
    # so its own ftol is disabled and the per-component gradient tolerance
    # is tightened to imply the 2-norm criterion.
    pgtol = opt.gtol / np.sqrt(max(D, 1))
    res = minimize(fun_and_grad, z0, jac=True, method="L-BFGS-B",
                   callback=lambda xk: history.append(last_f["f"]),
                   options={"maxiter": opt.max_iter, "ftol": 1e-15,
                            "gtol": pgtol, "maxls": 100,
                            "maxcor": min(max(D, 1), 64)})
    curve = base.with_interior(res.x)
    traj = integrate_cost(S, curve, u, opt.substeps)
    A = traj.final
    if history[-1] != A:
        history.append(A)

    grad_norm = float(np.linalg.norm(np.atleast_1d(res.jac)))
    last_dec = history[-2] - history[-1] if len(history) >= 2 else 0.0
    converged = grad_norm < opt.gtol and last_dec < opt.tol
    if res.nit >= opt.max_iter and not converged:
        raise NonConvergence(
            f"curve minimization exhausted {opt.max_iter} iterations "
            f"(gradient norm {grad_norm:.3g})")
    return FundamentalResult(h=A - u, A=A, minimizer=curve, trajectory=traj,
                             iterations=int(res.nit),
                             objective_history=np.asarray(history),
                             converged=bool(converged))


def _ref_golden_min(f, lo: float, hi: float, xtol: float = 1e-10, max_iter: int = 200):
    """Golden-section minimum of a scalar function on [lo, hi].

    Deterministic and derivative-free; returns (x_best, f_best).  The
    endpoints are always candidates, so a monotone f cannot escape the
    bracket.
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
    for _ in range(max_iter):
        if h <= xtol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    candidates = [(fc, c), (fd, d), (f(a), a), (f(b), b)]
    fbest, xbest = min(candidates, key=lambda p: p[0])
    return xbest, fbest


def _ref_value_at(S: ContactSystem, datum: InitialDatum, t: float, x: np.ndarray,
                  y: np.ndarray, search: SearchParams) -> float:
    phi_y = float(datum(y))
    res = _ref_fundamental_direct(S, t, y, x, phi_y, segments=search.segments,
                                  opt=search.opt)
    return res.A


def _ref_search_ball(S, datum, t, x, search) -> tuple:
    """Coarse grid + golden refinement of y -> A(t, y, x, phi(y)) over the ball."""
    n = x.size
    radius = mu_radius(S, datum, t) * t

    def g(y):
        return _ref_value_at(S, datum, t, x, np.asarray(y, dtype=float), search)

    best_y = x.copy()
    best_val = g(x)  # rest point always participates

    G = max(2, int(search.grid_points))
    axes = [np.linspace(x[i] - radius, x[i] + radius, G) for i in range(n)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    inside = np.linalg.norm(mesh - x, axis=-1) <= radius + 1e-12
    for y in mesh[inside]:
        val = g(y)
        if val < best_val:
            best_val, best_y = val, y.copy()
    step = 2.0 * radius / (G - 1)
    y_cur = best_y.copy()
    # a single coordinate is settled by one sweep
    sweeps = 1 if n == 1 else max(1, search.refine_sweeps)
    for _ in range(sweeps):
        for i in range(n):
            others = np.delete(y_cur - x, i)
            half = math.sqrt(max(radius ** 2 - float(np.dot(others, others)), 0.0))
            lo = max(x[i] - half, y_cur[i] - step)
            hi = min(x[i] + half, y_cur[i] + step)
            if hi <= lo:
                continue

            def gi(c, i=i):
                yy = y_cur.copy()
                yy[i] = c
                return g(yy)

            ci, vi = _ref_golden_min(gi, lo, hi, xtol=search.ytol)
            if vi < best_val:
                best_val = vi
                y_cur[i] = ci
                best_y = y_cur.copy()
    return float(best_val), best_y, radius


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def _same(got: FundamentalResult, ref: FundamentalResult) -> None:
    assert got.A == ref.A
    assert got.h == ref.h
    assert np.array_equal(got.minimizer.nodes, ref.minimizer.nodes)
    assert np.array_equal(got.trajectory.samples, ref.trajectory.samples)
    assert np.array_equal(got.trajectory.times, ref.trajectory.times)
    assert got.iterations == ref.iterations
    assert np.array_equal(got.objective_history, ref.objective_history)
    assert got.converged == ref.converged


OPT = OptimizerParams(substeps=2)

CASES = [
    (quadratic_system(), 1.0, 0.0, 1.5, 0.3, 12),
    (discounted_quadratic_system(0.5, 2), 0.8, [0.0, 0.2], [1.0, -0.5], 0.7, 8),
    (quartic_system(), 1.2, -0.4, 0.9, 0.0, 10),
    (trig_contact_system(), 0.9, 0.3, -1.1, 0.5, 12),
    (trig_contact_system(2), 0.7, [0.1, -0.3], [0.8, 0.6], -0.2, 6),
    (perturbed_system(0.1), 1.1, -0.7, 0.6, 1.3, 12),
]


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0].name}-{c[0].dim}d")
def test_single_lane_matches_minimize(case):
    S, t, x, y, u, N = case
    _same(fundamental_direct(S, t, x, y, u, segments=N, opt=OPT),
          _ref_fundamental_direct(S, t, x, y, u, segments=N, opt=OPT))


def test_lanes_stopping_at_different_rounds_match_alone():
    S = trig_contact_system()
    ends = [(0.0, 0.0, 0.2), (0.0, 1.5, -0.4), (-1.0, 0.3, 0.9), (0.5, -2.0, 0.0),
            (0.2, 0.25, 1.0)]
    got = _direct_lockstep(S, 0.9, ends, 10, OPT)
    iters = set()
    for res, (x, y, u) in zip(got, ends):
        _same(res, _ref_fundamental_direct(S, 0.9, x, y, u, segments=10, opt=OPT))
        iters.add(res.iterations)
    assert len(iters) > 1  # the lanes really left the batch at different rounds


def test_lanes_split_into_slices_match_alone(monkeypatch):
    # 19 sweep rows per lane at 10 segments in 1-D: slices of two lanes
    monkeypatch.setattr(fundamental, "_LOCKSTEP_ROWS", 40)
    rows = []

    def spy(S, t, nodes, *rest):
        rows.append(nodes.shape[0])
        return integrate_cost_many(S, t, nodes, *rest)

    monkeypatch.setattr(fundamental, "integrate_cost_many", spy)
    S = trig_contact_system()
    ends = [(0.0, 0.0, 0.2), (0.0, 1.5, -0.4), (-1.0, 0.3, 0.9), (0.5, -2.0, 0.0),
            (0.2, 0.25, 1.0)]
    got = _direct_lockstep(S, 0.9, ends, 10, OPT)
    assert max(rows) == 38  # no sweep answers more than one slice
    assert len(got) == len(ends)
    for res, (x, y, u) in zip(got, ends):
        _same(res, _ref_fundamental_direct(S, 0.9, x, y, u, segments=10, opt=OPT))


def test_first_failing_lane_of_a_later_slice_raises(monkeypatch):
    monkeypatch.setattr(fundamental, "_LOCKSTEP_ROWS", 40)
    S = trig_contact_system()
    opt = OptimizerParams(substeps=2, max_iter=2)
    # the first slice converges at once; both lanes of the second exhaust max_iter
    ends = [(0.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.0, 2.0, 0.5), (-1.0, 1.5, -0.3)]
    for x, y, u in ends[:2]:
        assert _ref_fundamental_direct(S, 1.0, x, y, u, segments=10, opt=opt).converged
    with pytest.raises(NonConvergence) as ref:
        for x, y, u in ends:
            _ref_fundamental_direct(S, 1.0, x, y, u, segments=10, opt=opt)
    with pytest.raises(NonConvergence) as other:
        _ref_fundamental_direct(S, 1.0, *ends[3], segments=10, opt=opt)
    assert str(other.value) != str(ref.value)  # the message tells the lanes apart
    with pytest.raises(NonConvergence) as got:
        _direct_lockstep(S, 1.0, ends, 10, opt)
    assert str(got.value) == str(ref.value)


def test_max_iter_exhaustion_raises_the_same_error():
    S = trig_contact_system()
    opt = OptimizerParams(substeps=2, max_iter=2)
    with pytest.raises(NonConvergence) as ref:
        _ref_fundamental_direct(S, 1.0, 0.0, 2.0, 0.5, segments=12, opt=opt)
    with pytest.raises(NonConvergence) as got:
        fundamental_direct(S, 1.0, 0.0, 2.0, 0.5, segments=12, opt=opt)
    assert str(got.value) == str(ref.value)


def test_golden_min_calls_f_once_per_point():
    calls = []

    def f(c):
        calls.append(c)
        return (c - 0.3) ** 2

    got = golden_min(f, -1.0, 2.0, xtol=1e-8)
    assert len(calls) == len(set(calls))
    ref_calls = []
    ref = _ref_golden_min(lambda c: ref_calls.append(c) or (c - 0.3) ** 2,
                          -1.0, 2.0, xtol=1e-8)
    assert got == ref
    assert len(calls) == len(ref_calls) - 2  # both bracket ends moved


def test_golden_min_evaluates_an_unmoved_end():
    calls = []
    got = golden_min(lambda c: calls.append(c) or c, 0.0, 1.0, xtol=1e-6)
    assert got == _ref_golden_min(lambda c: c, 0.0, 1.0, xtol=1e-6)
    assert calls.count(0.0) == 1  # the left end never moved, so it is evaluated


FAST = SearchParams(segments=6, grid_points=9, ytol=1e-5, refine_sweeps=1,
                    opt=OptimizerParams(substeps=2))


@pytest.mark.parametrize("S, datum, t, x", [
    (discounted_quadratic_system(1.0), datum_sin(), 0.5, [0.4]),
    (trig_contact_system(), datum_cos_bump(), 0.8, [-0.3]),
    (perturbed_system(0.1), datum_sin(), 0.4, [1.2]),
    (quadratic_system(2), datum_cos_bump(), 0.3, [0.2, -0.1]),
], ids=["disc-1d", "trig-1d", "perturbed-1d", "quadratic-2d"])
def test_solve_value_matches_sequential_search(S, datum, t, x):
    val, y_star, _ = solve_value(S, datum, t, x, FAST)
    ref_val, ref_y, _ = _ref_search_ball(S, datum, t, as_point(x, S.dim), FAST)
    assert val == ref_val
    assert np.array_equal(y_star, ref_y)


def test_screen_split_into_slices_matches_sequential_search(monkeypatch):
    # 11 sweep rows per lane at 6 segments in 1-D: one lane per slice
    monkeypatch.setattr(fundamental, "_LOCKSTEP_ROWS", 20)
    S, datum, x = trig_contact_system(), datum_cos_bump(), np.array([-0.3])
    val, y_star, _ = solve_value(S, datum, 0.8, x, FAST)
    ref_val, ref_y, _ = _ref_search_ball(S, datum, 0.8, x, FAST)
    assert val == ref_val
    assert np.array_equal(y_star, ref_y)


def test_search_raises_the_first_failing_lane_like_the_sequential_search():
    search = SearchParams(segments=8, grid_points=7, ytol=1e-5,
                          opt=OptimizerParams(substeps=2, max_iter=2))
    S, x = trig_contact_system(), np.array([0.3])
    with pytest.raises(NonConvergence) as ref:
        _ref_search_ball(S, datum_sin(), 1.5, x, search)
    with pytest.raises(NonConvergence) as got:
        solve_value(S, datum_sin(), 1.5, x, search)
    assert str(got.value) == str(ref.value)
