"""The lockstep L-BFGS driver against a one-solve loop, one solve at a time.

The reference loops below are a `fundamental_direct` that writes the
preconditioned L-BFGS iteration out for a single solve, with no lanes and
no batching, a `_search_ball` that solves its points one at a time, and
the earlier `golden_min`, kept verbatim apart from its name.  Every lane
of the driver must follow its reference solve bit for bit: same optimum,
minimizer, trajectory, iteration count, objective history and verdict.
"""

import math
from typing import Optional

import numpy as np
import pytest
from conftest import stack_lanes

from contact_hj import (ContactSystem, FundamentalResult, InitialDatum,
                        NonConvergence, Overflow, PreconditionError, SearchParams,
                        datum_abs_window, datum_cos_bump, datum_sin,
                        discounted_quadratic_system,
                        fundamental_direct, perturbed_system, quadratic_system,
                        quartic_system, solve_value, trig_contact_system)
from contact_hj._util import _INVPHI, _INVPHI2, as_point, golden_min
from contact_hj.cost_ode import Curve, integrate_cost, integrate_cost_many
from contact_hj import fundamental, value
from contact_hj.fundamental import (_MEMORY, T_MIN, OptimizerParams, _direct_lockstep,
                                    _direction, _precondition)
from contact_hj.value import mu_radius

# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------

def _ref_fundamental_direct(S: ContactSystem, t: float, x, y, u: float,
                            segments: int = 32,
                            opt: Optional[OptimizerParams] = None) -> FundamentalResult:
    """Minimize the terminal running cost over curves from x to y.

    L-BFGS on the interior nodes z, one solve in one loop.  The direction
    is the two-loop recursion over the last `_MEMORY` curvature pairs
    (s, y) with s.y > 0, started from H0 = R^-1 R^-T, where R is the
    factor that `_precondition` builds from the straight curve; when that
    is no descent direction the pairs are dropped and the direction is
    -R^-1 R^-T g.  The step starts at 1 and halves until Armijo's
    condition (c1 = 1e-4) holds, unless the predicted decrease falls below
    tol first, which ends the solve with a null iteration that repeats f.
    Gradients are central differences on the node coordinates, evaluated
    as one integration sweep.  The solve stops on the node-space contract,
    checked at the first point and at every iterate.
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
    Rinv = _precondition(S, t, x[None], y[None],
                         integrate_cost_many(S, t, base.nodes[None], u, opt.substeps),
                         N, opt.substeps)[0]
    eye = np.eye(D) * opt.fd_step

    def fun_and_grad(z):
        zs = np.vstack([z[None, :], z[None, :] + eye, z[None, :] - eye])
        nodes = np.empty((2 * D + 1, N + 1, n))
        nodes[:, 0, :] = x
        nodes[:, -1, :] = y
        nodes[:, 1:-1, :] = zs.reshape(-1, N - 1, n)
        finals = integrate_cost_many(S, t, nodes, u, opt.substeps)[:, -1]
        return float(finals[0]), (finals[1:D + 1] - finals[D + 1:]) / (2.0 * opt.fd_step)

    z = base.interior
    f, g = fun_and_grad(z)
    history, pairs, nit = [f], [], 0
    while nit < opt.max_iter:
        last = history[-2] - history[-1] if nit else 0.0
        if np.linalg.norm(g) < opt.gtol and last < opt.tol:
            break
        q, coef = -g, []
        for s, yy in reversed(pairs):
            coef.append((s @ q) / float(s @ yy))
            q = q - coef[-1] * yy
        d = Rinv @ (Rinv.T @ q)
        for (s, yy), a in zip(pairs, reversed(coef)):
            d = d + (a - (yy @ d) / float(s @ yy)) * s
        if not d @ g < 0.0:
            pairs = []
            d = -(Rinv @ (Rinv.T @ g))
        slope, alpha = float(g @ d), 1.0
        nit += 1
        while True:
            z_new = z + alpha * d
            f_new, g_new = fun_and_grad(z_new)
            if f_new <= f + 1e-4 * alpha * slope or -alpha * slope < opt.tol:
                break
            alpha *= 0.5
        if f_new > f + 1e-4 * alpha * slope:  # the noise floor: a null iteration
            history.append(f)
            break
        if float((z_new - z) @ (g_new - g)) > 0.0:
            pairs = (pairs + [(z_new - z, g_new - g)])[-_MEMORY:]
        z, f, g = z_new, f_new, g_new
        history.append(f)
    curve = base.with_interior(z)
    traj = integrate_cost(S, curve, u, opt.substeps)
    A = traj.final
    assert A == history[-1]

    grad_norm = float(np.linalg.norm(g))
    last_dec = history[-2] - history[-1] if len(history) >= 2 else 0.0
    converged = grad_norm < opt.gtol and last_dec < opt.tol
    if nit >= opt.max_iter and not converged:
        raise NonConvergence(
            f"curve minimization exhausted {opt.max_iter} iterations "
            f"(gradient norm {grad_norm:.3g})")
    return FundamentalResult(h=A - u, A=A, minimizer=curve, trajectory=traj,
                             iterations=nit, objective_history=np.asarray(history),
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


def _ref_solve_at(S: ContactSystem, datum: InitialDatum, t: float, x: np.ndarray,
                  y: np.ndarray, search: SearchParams) -> FundamentalResult:
    phi_y = float(datum(y))
    return _ref_fundamental_direct(S, t, y, x, phi_y, segments=search.segments,
                                   opt=search.opt)


def _ref_search_ball(S, datum, t, x, search, log: Optional[list] = None) -> tuple:
    """Coarse grid + bracket refinement of y -> A(t, y, x, phi(y)) over the ball.

    Each round solves, one after another, the K evenly spaced interior
    points of a sampled interval [a, b] inside the certified bracket
    [lo, hi], K being the lanes of one lockstep slice clamped to [2, 30].
    With w = (b - a) / (K + 1), the bracket narrows to +-w around the best
    point so far after a round over the whole bracket, and after a round
    over less only when the round's first least point is none of its two
    end points and beats the best point before the round.  The next round
    samples the whole bracket, unless that point has two samples on either
    side: then it samples around the vertex v of the parabola through the
    point and its neighbours, if the parabola opens upwards and v lies in
    the bracket, and so does the parabola through the point and its second
    neighbours, with vertex v2.  Its half-width is 4 |v - v2|, at least
    K ytol / 8, and it is clipped to the bracket.  Each round appends
    (lo, hi, points) to `log`, and each coordinate's last bracket follows
    as (lo, hi, []).  Returns (value, argmin, winning FundamentalResult).
    """
    n = x.size
    radius = mu_radius(S, datum, t) * t

    def g(y):
        return _ref_solve_at(S, datum, t, x, np.asarray(y, dtype=float), search)

    best_y = x.copy()
    best = g(x)  # rest point always participates

    G = max(2, int(search.grid_points))
    axes = [np.linspace(x[i] - radius, x[i] + radius, G) for i in range(n)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    inside = np.linalg.norm(mesh - x, axis=-1) <= radius + 1e-12
    for y in mesh[inside]:
        res = g(y)
        if res.A < best.A:
            best, best_y = res, y.copy()
    step = 2.0 * radius / (G - 1)
    rows = 2 * (search.segments - 1) * n + 1
    K = max(2, min(30, fundamental._LOCKSTEP_ROWS // rows))
    y_cur = best_y.copy()
    # a single coordinate is settled by one sweep
    sweeps = 1 if n == 1 else max(1, search.refine_sweeps)
    for _ in range(sweeps):
        for i in range(n):
            others = np.delete(y_cur - x, i)
            half = math.sqrt(max(radius ** 2 - float(np.dot(others, others)), 0.0))
            lo = max(x[i] - half, y_cur[i] - step)
            hi = min(x[i] + half, y_cur[i] + step)
            a, b = lo, hi
            while hi - lo > search.ytol:
                w = (b - a) / (K + 1)
                points, costs, first, improved = [a + w * j for j in range(1, K + 1)], [], 0, False
                if log is not None:
                    log.append((lo, hi, points))
                for j, c in enumerate(points):
                    yy = y_cur.copy()
                    yy[i] = c
                    res = g(yy)
                    costs.append(res.A)
                    if res.A < costs[first]:
                        first = j
                    if res.A < best.A:
                        best, best_y, improved = res, yy, True
                moved = improved and first not in (0, K - 1)
                if moved or (a == lo and b == hi):
                    new_lo, new_hi = max(lo, best_y[i] - w), min(hi, best_y[i] + w)
                    if new_hi - new_lo >= hi - lo:
                        break
                    lo, hi = new_lo, new_hi
                a, b = lo, hi
                if moved and 2 <= first <= K - 3:
                    f0, f1, f2 = costs[first - 1], costs[first], costs[first + 1]
                    e0, e2 = costs[first - 2], costs[first + 2]
                    c1, c2 = f0 - 2.0 * f1 + f2, e0 - 2.0 * f1 + e2
                    if c1 > 0.0 and c2 > 0.0:
                        v = points[first] + w * (f0 - f2) / (2.0 * c1)
                        v2 = points[first] + 2.0 * w * (e0 - e2) / (2.0 * c2)
                        if lo <= v <= hi:
                            r = max(4.0 * abs(v - v2), K * search.ytol / 8.0)
                            a, b = max(lo, v - r), min(hi, v + r)
            if log is not None:
                log.append((lo, hi, []))
            y_cur = best_y.copy()
    return float(best.A), best_y, best


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
    got = fundamental_direct(S, t, x, y, u, segments=N, opt=OPT)
    _same(got, _ref_fundamental_direct(S, t, x, y, u, segments=N, opt=OPT))
    # the trajectory is a row of the last sweep, bitwise a lone integration
    lone = integrate_cost(S, got.minimizer, u, OPT.substeps)
    assert np.array_equal(got.trajectory.samples, lone.samples)


def test_lanes_stopping_at_different_rounds_match_alone():
    S = trig_contact_system()
    ends = [(0.0, 0.0, 0.2), (0.0, 1.5, -0.4), (-1.0, 0.3, 0.9), (0.5, -2.0, 0.0),
            (0.2, 0.25, 1.0)]
    lanes = _direct_lockstep(S, 0.9, *stack_lanes(ends), 10, OPT)
    iters = set()
    for k, (x, y, u) in enumerate(ends):
        _same(lanes.result(k), _ref_fundamental_direct(S, 0.9, x, y, u, segments=10, opt=OPT))
        iters.add(lanes.iterations[k])
    assert len(iters) > 1  # the lanes really left the batch at different rounds


def test_float32_horizon_is_used_as_given():
    # the horizon reaches the cost sweep and the metric as passed, like a
    # lone solve's: a float32 t gives a float32 step h = t / N in the metric
    # (N = 6, so h is rounded differently than float(t) / N would be)
    S, t = trig_contact_system(), np.float32(0.7)
    ends = [(0.0, 1.0, 0.2), (0.3, -0.5, 0.0)]
    lanes = _direct_lockstep(S, t, *stack_lanes(ends), 6, OPT)
    for k, (x, y, u) in enumerate(ends):
        res = lanes.result(k)
        _same(res, _ref_fundamental_direct(S, t, x, y, u, segments=6, opt=OPT))
        assert type(res.minimizer.t_final) is float


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
    lanes = _direct_lockstep(S, 0.9, *stack_lanes(ends), 10, OPT)
    assert max(rows) == 38  # no sweep answers more than one slice
    assert len(lanes.A) == len(ends)
    for k, (x, y, u) in enumerate(ends):
        _same(lanes.result(k), _ref_fundamental_direct(S, 0.9, x, y, u, segments=10, opt=OPT))


def test_2d_lanes_stopping_at_different_rounds_match_alone():
    S = trig_contact_system(2)
    ends = [([0.0, 0.0], [0.0, 0.0], 0.2), ([0.1, -0.3], [0.8, 0.6], -0.2),
            ([-0.5, 0.4], [0.3, -0.9], 0.7), ([0.2, 0.2], [1.4, 1.1], 0.0),
            ([1.0, -1.0], [-0.2, 0.5], 1.1), ([-1.2, 0.3], [1.0, 1.5], -0.5)]
    lanes = _direct_lockstep(S, 0.7, *stack_lanes(ends), 6, OPT)
    for k, (x, y, u) in enumerate(ends):
        _same(lanes.result(k), _ref_fundamental_direct(S, 0.7, x, y, u, segments=6, opt=OPT))
    assert len(set(lanes.iterations)) == 3  # 3, 4 and 5 iterations


def _quartic_potential(x, u, v):
    v = np.asarray(v, float)
    return 0.25 * np.add.reduce(v * v, axis=-1) ** 2 + 0.5 * np.sin(np.asarray(x)[..., 0])


# L_vv = 3 v^2 vanishes on a rest lane's straight curve, so its P is zero and
# it runs in node coordinates (R = I); the potential keeps every lane moving
QUARTIC_SIN = ContactSystem(dim=1, lagrangian=_quartic_potential, K=0.0,
                            theta0=lambda r: 0.25 * np.asarray(r, float) ** 4,
                            theta0_bar=lambda r: 0.25 * np.asarray(r, float) ** 4 + 1.0,
                            c0=1.0)


def test_rest_lanes_without_a_metric_beside_preconditioned_lanes_match_alone():
    S, t, N = QUARTIC_SIN, 1.2, 10
    ends = [(0.5, 0.5, 0.0), (0.0, 1.0, 0.0), (-0.4, 0.9, 0.3), (0.2, -1.5, -0.1),
            (1.0, 1.0, 0.4), (0.0, 0.6, 0.0)]
    xs, ys = np.array([[x] for x, _, _ in ends]), np.array([[y] for _, y, _ in ends])
    nodes = np.stack([Curve.straight(x, y, t, N).nodes for x, y, _ in ends])
    rows = integrate_cost_many(S, t, nodes, [u for _, _, u in ends], OPT.substeps)
    Rinv = _precondition(S, t, xs, ys, rows, N, OPT.substeps)
    assert [np.array_equal(r, np.eye(N - 1)) for r in Rinv] == [x == y for x, y, _ in ends]
    lanes = _direct_lockstep(S, t, *stack_lanes(ends), N, OPT)
    for k, (x, y, u) in enumerate(ends):
        _same(lanes.result(k), _ref_fundamental_direct(S, t, x, y, u, segments=N, opt=OPT))
    # the rest lanes outlast the ring of curvature pairs and end on the noise floor
    assert all(lanes.iterations[k] > _MEMORY and not lanes.converged[k] for k in (0, 4))
    assert all(lanes.converged[k] for k in (1, 2, 3, 5))


def test_far_screen_lanes_match_alone():
    # the screen of solve_value(trig-contact, sin, t = 1.5, x = 0.3) with 7
    # grid points: the ball radius mu(t) t is 123, so the far lanes run 10 to
    # 20 iterations, wrap their ring of pairs and end unconverged, on the
    # noise floor, far below max_iter
    S, datum, t, x = trig_contact_system(), datum_sin(), 1.5, np.array([0.3])
    search = SearchParams(segments=6, grid_points=7)
    radius = mu_radius(S, datum, t) * t
    mesh = np.linspace(x[0] - radius, x[0] + radius, 7)
    ys = [x] + [np.array([c]) for c in mesh if abs(c - x[0]) <= radius + 1e-12]
    ends = [(y, x, float(datum(y))) for y in ys]
    lanes = _direct_lockstep(S, t, *stack_lanes(ends), search.segments, search.opt)
    for k, (y, _, u) in enumerate(ends):
        _same(lanes.result(k), _ref_fundamental_direct(S, t, y, x, u, segments=search.segments,
                                                       opt=search.opt))
    assert len(lanes.A) == 8
    assert sorted(lanes.iterations)[-3:] == [13, 14, 20]
    assert np.count_nonzero(~lanes.converged) == 4


def test_direction_rows_match_the_two_loop_recursion_of_each_lane():
    # lanes with 0, 3, 10 and 2 pairs, stale pairs in their unused slots, and
    # a zero gradient (no descent direction) on a lane that takes a new
    # direction and on one that does not
    rng = np.random.default_rng(5)
    B, D = 6, 7
    counts = np.array([0, 3, _MEMORY, 2, 4, 1])
    new = np.array([True, True, True, True, True, False])
    gz = rng.standard_normal((B, D))
    gz[4] = gz[5] = 0.0
    Rinv = np.tril(rng.standard_normal((B, D, D))) + 3.0 * np.eye(D)
    ps, py = rng.standard_normal((2, B, _MEMORY, D)) * 10.0
    psy = rng.standard_normal((B, _MEMORY)) * 10.0
    for k in range(B):
        for j in range(counts[k]):  # slot 0 is the newest pair
            py[k, j] = ps[k, j] + 0.1 * rng.standard_normal(D)
            psy[k, j] = ps[k, j] @ py[k, j]
    count = counts.copy()
    got = _direction(gz, Rinv, ps, py, psy, count, new)
    for k in range(B):
        pairs = [(ps[k, j], py[k, j]) for j in reversed(range(counts[k]))]
        q, coef = -gz[k], []
        for s, yy in reversed(pairs):
            coef.append((s @ q) / float(s @ yy))
            q = q - coef[-1] * yy
        d = Rinv[k] @ (Rinv[k].T @ q)
        for (s, yy), a in zip(pairs, reversed(coef)):
            d = d + (a - (yy @ d) / float(s @ yy)) * s
        flat = not d @ gz[k] < 0.0
        if flat:
            d = -(Rinv[k] @ (Rinv[k].T @ gz[k]))
        if new[k]:
            assert np.array_equal(got[k], d)
        assert count[k] == (0 if flat and new[k] else counts[k])
    assert count[4] == 0 and count[5] == 1


def test_first_failing_lane_of_a_later_slice_raises(monkeypatch):
    monkeypatch.setattr(fundamental, "_LOCKSTEP_ROWS", 40)
    S = trig_contact_system()
    opt = OptimizerParams(substeps=2, max_iter=2)
    # the first slice converges at once; both lanes of the second exhaust max_iter
    ends = [(0.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.0, 2.0, 0.5), (-1.0, 1.5, -0.3)]
    for x, y, u in ends[:2]:
        assert _ref_fundamental_direct(S, 1.0, x, y, u, segments=10, opt=opt).converged
    with pytest.raises(NonConvergence, match="exhausted 2 iterations") as ref:
        for x, y, u in ends:
            _ref_fundamental_direct(S, 1.0, x, y, u, segments=10, opt=opt)
    with pytest.raises(NonConvergence) as other:
        _ref_fundamental_direct(S, 1.0, *ends[3], segments=10, opt=opt)
    assert str(other.value) != str(ref.value)  # the message tells the lanes apart
    with pytest.raises(NonConvergence) as got:
        _direct_lockstep(S, 1.0, *stack_lanes(ends), 10, opt)
    assert str(got.value) == str(ref.value)


def test_max_iter_exhaustion_raises_the_same_error():
    S = trig_contact_system()
    opt = OptimizerParams(substeps=2, max_iter=2)
    with pytest.raises(NonConvergence, match="exhausted 2 iterations") as ref:
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


GOLDEN_INPUTS = {
    "quadratic": (lambda c: (c - 0.3) ** 2, -1.0, 2.0, 1e-8, 200),
    "monotone": (lambda c: c, 0.0, 1.0, 1e-6, 200),
    "constant": (lambda c: 0.5, -2.0, 3.0, 1e-6, 200),  # fc == fd at every step
    "narrow-at-entry": (lambda c: (c - 0.3) ** 2, 0.3, 0.3 + 1e-12, 1e-10, 200),
    "max-iter-capped": (lambda c: math.cos(3.0 * c), -1.0, 2.0, 1e-12, 7),
}


@pytest.mark.parametrize("name", list(GOLDEN_INPUTS))
def test_golden_min_walks_the_reference_path(name):
    fn, lo, hi, xtol, max_iter = GOLDEN_INPUTS[name]
    calls, ref_calls = [], []
    got = golden_min(lambda c: calls.append(c) or fn(c), lo, hi, xtol=xtol,
                     max_iter=max_iter)
    want = _ref_golden_min(lambda c: ref_calls.append(c) or fn(c), lo, hi, xtol=xtol,
                           max_iter=max_iter)
    assert got == want
    assert len(calls) == len(set(calls))
    # the same interior points in the same order; a moved end is not asked again
    assert calls == [c for k, c in enumerate(ref_calls) if c not in ref_calls[:k]]


FAST = SearchParams(segments=6, grid_points=9, ytol=1e-5, refine_sweeps=1,
                    opt=OptimizerParams(substeps=2))

# phi(y) = 3 y declared 0-Lipschitz: the ball B(x, mu(t) t) is too small for
# the argmin, so the screen wins on its rim and the refinement bracket is clipped
STEEP = InitialDatum(phi=lambda y: 3.0 * y[..., 0], lip=0.0, sup_abs=0.0)


@pytest.mark.parametrize("S, datum, t, x, search, rows", [
    (discounted_quadratic_system(1.0), datum_sin(), 0.5, [0.4], FAST, None),
    (trig_contact_system(), datum_cos_bump(), 0.8, [-0.3], FAST, None),
    (perturbed_system(0.1), datum_sin(), 0.4, [1.2], FAST, None),
    (quadratic_system(2), datum_cos_bump(), 0.3, [0.2, -0.1], FAST, None),
    (quadratic_system(), STEEP, 0.5, [0.1], FAST, None),
    (trig_contact_system(2), datum_cos_bump(), 0.4, [0.3, -0.2],
     SearchParams(segments=4, grid_points=5, ytol=1e-4, refine_sweeps=2,
                  opt=OptimizerParams(substeps=2)), None),
    # 11 sweep rows per lane: slices of six lanes, so the screen's 10 lanes
    # run as two slices and every refinement round has K = 6 points
    (trig_contact_system(), datum_sin(), 0.6, [0.5], FAST, 70),
], ids=["disc-1d", "trig-1d", "perturbed-1d", "quadratic-2d", "clipped-1d",
        "trig-2d-two-sweeps", "golden-rounds-in-slices"])
def test_solve_value_matches_sequential_search(S, datum, t, x, search, rows, monkeypatch):
    if rows is not None:
        monkeypatch.setattr(fundamental, "_LOCKSTEP_ROWS", rows)
    val, y_star, best = solve_value(S, datum, t, x, search)
    ref_val, ref_y, ref_best = _ref_search_ball(S, datum, t, as_point(x, S.dim), search)
    assert val == ref_val
    assert np.array_equal(y_star, ref_y)
    _same(best, ref_best)


def test_screen_split_into_slices_matches_sequential_search(monkeypatch):
    # 11 sweep rows per lane at 6 segments in 1-D: one lane per slice
    monkeypatch.setattr(fundamental, "_LOCKSTEP_ROWS", 20)
    S, datum, x = trig_contact_system(), datum_cos_bump(), np.array([-0.3])
    val, y_star, best = solve_value(S, datum, 0.8, x, FAST)
    ref_val, ref_y, ref_best = _ref_search_ball(S, datum, 0.8, x, FAST)
    assert val == ref_val
    assert np.array_equal(y_star, ref_y)
    _same(best, ref_best)


def test_search_raises_the_first_failing_lane_like_the_sequential_search():
    search = SearchParams(segments=8, grid_points=7, ytol=1e-5,
                          opt=OptimizerParams(substeps=2, max_iter=2))
    S, x = trig_contact_system(), np.array([0.3])
    with pytest.raises(NonConvergence, match="exhausted 2 iterations") as ref:
        _ref_search_ball(S, datum_sin(), 1.5, x, search)
    with pytest.raises(NonConvergence) as got:
        solve_value(S, datum_sin(), 1.5, x, search)
    assert str(got.value) == str(ref.value)


def test_search_with_far_screen_lanes_matches_sequential_search(monkeypatch):
    # the ball radius mu(t) t is 123 at t = 1.5, so the screen's far lanes
    # take up to 18 iterations and several end unconverged, on the noise
    # floor before max_iter
    search = SearchParams(segments=6, grid_points=7, ytol=1e-5,
                          opt=OptimizerParams(substeps=2, max_iter=30))
    S, x = trig_contact_system(), np.array([0.3])
    batches = []
    lockstep = value._direct_lockstep
    monkeypatch.setattr(value, "_direct_lockstep",
                        lambda *args: batches.append(lockstep(*args)) or batches[-1])
    val, y_star, best = solve_value(S, datum_sin(), 1.5, x, search)
    ref_val, ref_y, ref_best = _ref_search_ball(S, datum_sin(), 1.5, x, search)
    screen = batches[0]
    assert 10 < screen.iterations.max() < 30
    assert np.count_nonzero(~screen.converged) > 1
    assert val == ref_val
    assert np.array_equal(y_star, ref_y)
    _same(best, ref_best)


def test_golden_stage_failure_raises_like_the_sequential_search(monkeypatch):
    # at max_iter 4 the screen converges and a point of a refinement round
    # does not
    search = SearchParams(segments=6, grid_points=3, ytol=1e-4,
                          opt=OptimizerParams(substeps=2, max_iter=4))
    S, x = trig_contact_system(), np.array([0.3])
    batches = []
    lockstep = value._direct_lockstep
    monkeypatch.setattr(value, "_direct_lockstep",
                        lambda S, t, ys, *rest: batches.append(ys.shape[0])
                        or lockstep(S, t, ys, *rest))
    with pytest.raises(NonConvergence, match="exhausted 4 iterations") as ref:
        _ref_search_ball(S, datum_sin(), 0.5, x, search)
    with pytest.raises(NonConvergence) as got:
        solve_value(S, datum_sin(), 0.5, x, search)
    assert len(batches) > 1 and batches[1:] == [30] * (len(batches) - 1)  # the screen passed
    assert str(got.value) == str(ref.value)


def test_overflow_in_a_refinement_round_raises(monkeypatch):
    lockstep, calls = value._direct_lockstep, []

    def overflowing(*args):
        calls.append(args)
        if len(calls) > 1:  # every batch after the screen
            raise Overflow("refinement lane overflowed")
        return lockstep(*args)

    monkeypatch.setattr(value, "_direct_lockstep", overflowing)
    with pytest.raises(Overflow, match="refinement lane overflowed"):
        solve_value(trig_contact_system(), datum_cos_bump(), 0.8, [-0.3], FAST)
    assert len(calls) == 2


def _spans(log) -> str:
    """W for each round of a one-coordinate `_ref_search_ball` log that
    sampled its whole certified bracket, S for one that sampled less."""
    return "".join("W" if np.isclose(r[0] - lo, (hi - lo) / (len(r) + 1), rtol=1e-6, atol=0.0)
                   else "S" for lo, hi, r in log[:-1])


@pytest.mark.parametrize("rows, K, spans", [(None, 30, "WSS"), (70, 6, "WWWWSS"),
                                           (20, 2, "W" * 30)],
                         ids=["None-30", "70-6", "20-2"])
def test_each_round_is_one_batch_of_k_points_shrinking_the_bracket(rows, K, spans,
                                                                   monkeypatch):
    # 11 sweep rows per lane at 6 segments in 1-D: K = 30 fits the default
    # slice, 70 rows hold six lanes and 20 rows one, so K is clamped to 2 and
    # no point has two samples on either side; `spans` tells the rounds over
    # the whole bracket (W) from those over a sampled sub-interval (S)
    if rows is not None:
        monkeypatch.setattr(fundamental, "_LOCKSTEP_ROWS", rows)
    S, datum, t, x = discounted_quadratic_system(1.0), datum_sin(), 0.5, np.array([0.4])
    rounds = []
    lockstep = value._direct_lockstep

    def spy(S, t, ys, *rest):
        rounds.append([float(c) for c in ys[:, 0]])
        return lockstep(S, t, ys, *rest)

    monkeypatch.setattr(value, "_direct_lockstep", spy)
    val, y_star, _ = solve_value(S, datum, t, x, FAST)
    assert any(y_star[0] in r for r in rounds)  # the argmin is a solved point
    rounds = rounds[1:]  # after the screen
    log = []
    _ref_search_ball(S, datum, t, x, FAST, log)
    assert rounds == [r for _, _, r in log[:-1]]  # the reference's points, bit for bit
    assert rounds and all(len(r) == K for r in rounds)
    assert _spans(log) == spans
    widths = [hi - lo for lo, hi, _ in log]
    for (lo, hi, r), after, kind in zip(log, widths[1:], spans):
        # evenly spaced points strictly inside the certified bracket
        w = (r[-1] - r[0]) / (K - 1)
        assert lo < r[0] and r[-1] < hi
        assert np.allclose(np.diff(r), w, rtol=1e-6, atol=0.0)
        if kind == "W":  # narrowed as before, to +-w around the best point
            assert np.isclose((hi - lo) / after, (K + 1) / 2, rtol=1e-6)
        else:  # kept, or narrowed to +-w
            assert after == hi - lo or after <= 2.0 * w * (1.0 + 1e-6)
    assert all(b <= a for a, b in zip(widths, widths[1:]))  # the bracket never widens
    assert widths[-2] > FAST.ytol >= widths[-1]


@pytest.mark.parametrize("S, datum, x, y_true, spans", [
    (quadratic_system(), datum_abs_window(), 0.2, 0.0, "WSSW"),
    (discounted_quadratic_system(1.0), datum_abs_window(), -0.3, 0.0, "WSWWW"),
    (quadratic_system(), STEEP, 0.1, -0.15, "WWW"),
], ids=["kink-quadratic", "kink-discounted", "clipped-1d"])
def test_a_missed_vertex_falls_back_to_the_whole_bracket(S, datum, x, y_true, spans,
                                                         monkeypatch):
    # phi = |y| puts y* on its kink, where a parabola through a round's best
    # point and its neighbours mispredicts: a sampled sub-interval (S) that
    # misses y* ends in a round over the whole bracket (W).  On the clipped
    # case y* is the rim of the ball, every round's best is its end point and
    # every round samples the whole bracket.
    rounds = []
    lockstep = value._direct_lockstep

    def spy(S, t, ys, *rest):
        rounds.append([float(c) for c in ys[:, 0]])
        return lockstep(S, t, ys, *rest)

    monkeypatch.setattr(value, "_direct_lockstep", spy)
    x = np.array([x])
    val, y_star, best = solve_value(S, datum, 0.5, x, FAST)
    log = []
    ref_val, ref_y, ref_best = _ref_search_ball(S, datum, 0.5, x, FAST, log)
    assert val == ref_val
    assert np.array_equal(y_star, ref_y)
    _same(best, ref_best)
    assert rounds[1:] == [r for _, _, r in log[:-1]]
    assert _spans(log) == spans
    lo, hi, _ = log[-1]
    assert hi - lo <= FAST.ytol
    assert lo <= y_true <= hi and lo <= y_star[0] <= hi


def test_a_value_search_round_builds_at_most_one_result(monkeypatch):
    # a round reads its lanes' terminal costs off the stacked batch and
    # builds a FundamentalResult only for a lane that becomes the best
    result_class, built, marks = fundamental.FundamentalResult, [], []
    monkeypatch.setattr(fundamental, "FundamentalResult",
                        lambda *a, **k: built.append(1) or result_class(*a, **k))
    lockstep = value._direct_lockstep

    def spy(S, t, ys, *rest):
        marks.append((len(ys), len(built)))
        return lockstep(S, t, ys, *rest)

    monkeypatch.setattr(value, "_direct_lockstep", spy)
    S, datum, x = discounted_quadratic_system(1.0), datum_sin(), np.array([0.4])
    val, y_star, best = solve_value(S, datum, 0.5, x, FAST)
    marks.append((None, len(built)))
    per_batch = [(lanes, b - a) for (lanes, a), (_, b) in zip(marks, marks[1:])]
    assert len(per_batch) > 2 and all(lanes == 30 for lanes, _ in per_batch[1:])
    assert all(count <= 1 for _, count in per_batch)
    assert per_batch[0][1] == 1  # the screen's best
    assert type(best) is result_class
    ref_val, ref_y, ref_best = _ref_search_ball(S, datum, 0.5, x, FAST)
    assert val == ref_val
    assert np.array_equal(y_star, ref_y)
    _same(best, ref_best)


@pytest.mark.parametrize("rows, ytol", [(None, 0.0), (None, -1.0), (20, 0.0)])
def test_refinement_ends_when_rounding_stalls_the_bracket(rows, ytol, monkeypatch):
    # a bracket a few ulps wide can no longer narrow (at K = 2 its ends
    # round back out), so a ytol of 0 or below ends there, not never
    if rows is not None:
        monkeypatch.setattr(fundamental, "_LOCKSTEP_ROWS", rows)
    search = SearchParams(segments=6, grid_points=9, ytol=ytol,
                          opt=OptimizerParams(substeps=2))
    S, datum, x = discounted_quadratic_system(1.0), datum_sin(), np.array([0.4])
    calls = []
    lockstep = value._direct_lockstep

    def spy(*args):
        calls.append(args[2].shape[0])
        assert len(calls) < 500, "the refinement does not end"
        return lockstep(*args)

    monkeypatch.setattr(value, "_direct_lockstep", spy)
    val, y_star, _ = solve_value(S, datum, 0.5, x, search)
    ref_val, ref_y, _ = _ref_search_ball(S, datum, 0.5, x, search)
    assert val == ref_val
    assert np.array_equal(y_star, ref_y)
    assert len(calls) > 10  # the rounds ran down to the last bits
