"""Fundamental solutions of contact Hamilton-Jacobi equations.

Two independent routes compute the same object.  The variational route
minimizes the terminal running cost u_xi(t) over discretized curves
pinned at both endpoints (generalized variational principle of Herglotz
type); the characteristic route shoots the first-order system

    xi' = H_p,   p' = -H_x - H_u p,   u' = <p, xi'> - H

and solves the two-point boundary condition in the initial momentum.
`fundamental_exponential` evaluates the exponential-weight form of the
terminal cost, an identity that holds along every curve and ties the
integrator and the representation together; `herglotz_residual` measures
how well a curve satisfies the stationarity ODE

    d/ds L_v = L_x + L_u L_v.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize._lbfgsb import setulb

from ._util import as_point
from .cost_ode import (CostTrajectory, Curve, _rk4, _rk4_sweep, integrate_cost,
                       integrate_cost_many)
from .errors import NoRootFound, NonConvergence, PreconditionError
from .systems import ContactSystem, HamiltonianSystem

#: below this horizon the fundamental solution is refused rather than
#: extrapolated (it blows up as t -> 0+ for distinct endpoints)
T_MIN = 1e-6


@dataclass
class OptimizerParams:
    """Knobs of the interior-node quasi-Newton minimization."""

    tol: float = 1e-9          # objective decrease defining convergence
    gtol: float = 1e-6         # gradient norm defining convergence
    max_iter: int = 500
    fd_step: float = 1e-6      # central-difference step on node coordinates
    substeps: int = 4          # cost-ODE substeps per curve segment


@dataclass
class FundamentalResult:
    """Outcome of a fundamental-solution computation.

    A is the terminal running cost of the best curve and h = A - u by
    definition, so A - h recovers the initial value exactly.
    """

    h: float
    A: float
    minimizer: Curve
    trajectory: CostTrajectory
    iterations: int
    objective_history: np.ndarray
    converged: bool
    p0: Optional[np.ndarray] = None  # shooting route only


@dataclass
class CharacteristicState:
    """State (xi, p, u) of the characteristic system at time s."""

    xi: np.ndarray
    p: np.ndarray
    u: float
    s: float


# ---------------------------------------------------------------------------
# direct minimization
# ---------------------------------------------------------------------------

#: the lockstep driver solves its lanes in slices of at most this many cost
#: sweep rows (2D + 1 per lane), so that neither the sweep's arrays nor the
#: lanes' L-BFGS-B workspaces grow with the number of lanes
_LOCKSTEP_ROWS = 1024


class _Lane:
    """One L-BFGS-B instance: its reverse-communication state and its cache.

    The arrays are those scipy's `_minimize_lbfgsb` hands to `setulb`; the
    cache holds the last evaluated point, like scipy's x-equality cache.
    """

    def __init__(self, x, y, u, z0, m):
        D = z0.size
        self.x0, self.y0, self.u = x, y, float(u)
        self.z = np.array(z0, dtype=np.float64)
        self.f = np.array(0.0, dtype=np.float64)
        self.g = np.zeros(D)
        self.wa = np.zeros(2 * m * D + 5 * D + 11 * m * m + 8 * m)
        self.iwa = np.zeros(3 * D, dtype=np.int32)
        self.task = np.zeros(2, dtype=np.int32)
        self.ln_task = np.zeros(2, dtype=np.int32)
        self.lsave = np.zeros(4, dtype=np.int32)
        self.isave = np.zeros(44, dtype=np.int32)
        self.dsave = np.zeros(29)
        self.nit = 0
        self.nfev = 0
        self.history = []
        self.seen = None      # (z, f, g, cost samples of the unperturbed row)

    def advance(self, m, nbd, bnd, factr, pgtol, maxls, maxiter, maxfun) -> bool:
        """Step `setulb` until it asks for f and g at an unseen point (True)
        or stops (False), mirroring the loop of scipy's `_minimize_lbfgsb`."""
        while True:
            self.g = self.g.astype(np.float64)
            setulb(m, self.z, bnd, bnd, nbd, self.f, self.g, factr, pgtol,
                   self.wa, self.iwa, self.task, self.lsave, self.isave,
                   self.dsave, maxls, self.ln_task)
            if self.task[0] == 3:
                if self.seen is None or not np.array_equal(self.z, self.seen[0]):
                    return True
                self.f, self.g = self.seen[1], self.seen[2]
            elif self.task[0] == 1:
                self.nit += 1
                self.history.append(self.seen[1])
                if self.nit >= maxiter:
                    self.task[:] = (5, 504)
                elif self.nfev > maxfun:
                    self.task[:] = (5, 502)
            else:
                return False


def _sweep_lanes(S, t, lanes, N, opt, eye) -> None:
    """Answer every lane's f and g request with one batched cost sweep."""
    n = lanes[0].x0.size
    D = eye.shape[0]
    R = 2 * D + 1
    nodes = np.empty((R * len(lanes), N + 1, n))
    for k, ln in enumerate(lanes):
        z = ln.z
        zs = np.vstack([z[None, :], z[None, :] + eye, z[None, :] - eye])
        block = nodes[k * R:(k + 1) * R]
        block[:, 0, :] = ln.x0
        block[:, -1, :] = ln.y0
        block[:, 1:-1, :] = zs.reshape(-1, N - 1, n)
    u0 = np.repeat([ln.u for ln in lanes], R)
    samples = integrate_cost_many(S, t, nodes, u0, opt.substeps)
    for k, ln in enumerate(lanes):
        finals = samples[k * R:(k + 1) * R, -1]
        f = float(finals[0])
        g = (finals[1:D + 1] - finals[D + 1:]) / (2.0 * opt.fd_step)
        ln.nfev += 1
        ln.seen = (ln.z.copy(), f, g, samples[k * R].copy())
        if not ln.history:
            ln.history.append(f)
        ln.f, ln.g = f, g


def _direct_lockstep(S: ContactSystem, t: float, ends, segments: int,
                     opt: OptimizerParams) -> list:
    """Minimize the terminal running cost for a batch of (x, y, u) lanes.

    Each lane runs scipy's L-BFGS-B (`setulb`) with the options and stops
    of `scipy.optimize.minimize`, so it follows the iterates it would
    follow alone; every round, the lanes that ask for f and g are answered
    together by one `integrate_cost_many` sweep.  The lanes run in
    successive slices of at most `_LOCKSTEP_ROWS` sweep rows.  Returns one
    FundamentalResult per lane; when lanes miss their criteria within
    max_iter, raises the NonConvergence of the first such lane, as solving
    the lanes one after another would.  An Overflow in any sweep ends the
    whole batch.
    """
    if t <= T_MIN:
        raise PreconditionError(f"t must exceed {T_MIN:g}")
    if segments < 2:
        raise PreconditionError("need at least 2 segments")
    n = S.dim
    N = int(segments)
    D = (N - 1) * n
    eye = np.eye(D) * opt.fd_step
    # scipy's L-BFGS-B stops on EITHER criterion; the contract wants both,
    # so its own ftol is disabled and the per-component gradient tolerance
    # is tightened to imply the 2-norm criterion.
    m = min(max(D, 1), 64)
    pgtol = opt.gtol / np.sqrt(max(D, 1))
    factr = 1e-15 / np.finfo(float).eps
    nbd = np.zeros(D, dtype=np.int32)
    bnd = np.zeros(D)
    settings = (m, nbd, bnd, factr, pgtol, 100, opt.max_iter, 15000)

    width = max(1, _LOCKSTEP_ROWS // (2 * D + 1))
    results = []
    for i in range(0, len(ends), width):
        lanes = []
        for x, y, u in ends[i:i + width]:
            if not np.isfinite(u):
                raise PreconditionError("u must be finite")
            x, y = as_point(x, n), as_point(y, n)
            lanes.append(_Lane(x, y, u, Curve.straight(x, y, t, N).interior, m))
        active = [ln for ln in lanes if ln.advance(*settings)]
        while active:
            _sweep_lanes(S, t, active, N, opt, eye)
            active = [ln for ln in active if ln.advance(*settings)]
        results += [_finish(S, t, ln, N, opt) for ln in lanes]
    return results


def _finish(S, t, ln: _Lane, N: int, opt: OptimizerParams) -> FundamentalResult:
    """Result of a stopped lane; NonConvergence if it exhausted max_iter."""
    curve = Curve.straight(ln.x0, ln.y0, t, N).with_interior(ln.z)
    if ln.z.tobytes() == ln.seen[0].tobytes():
        # the last evaluation's unperturbed row already is the trajectory
        samples = ln.seen[3]
        samples[0] = ln.u
        traj = CostTrajectory(times=np.linspace(0.0, float(t), samples.size),
                              samples=samples, u0=ln.u)
    else:
        traj = integrate_cost(S, curve, ln.u, opt.substeps)
    A = traj.final
    history = ln.history
    if history[-1] != A:
        history.append(A)

    grad_norm = float(np.linalg.norm(np.atleast_1d(ln.g)))
    last_dec = history[-2] - history[-1] if len(history) >= 2 else 0.0
    converged = grad_norm < opt.gtol and last_dec < opt.tol
    if ln.nit >= opt.max_iter and not converged:
        raise NonConvergence(
            f"curve minimization exhausted {opt.max_iter} iterations "
            f"(gradient norm {grad_norm:.3g})")
    return FundamentalResult(h=A - ln.u, A=A, minimizer=curve, trajectory=traj,
                             iterations=int(ln.nit),
                             objective_history=np.asarray(history),
                             converged=bool(converged))


def fundamental_direct(S: ContactSystem, t: float, x, y, u: float,
                       segments: int = 32,
                       opt: Optional[OptimizerParams] = None) -> FundamentalResult:
    """Minimize the terminal running cost over curves from x to y.

    The decision variables are the interior nodes of a piecewise-linear
    curve initialized as the straight segment; the objective value is the
    final sample of the cost ODE.  Gradients are central differences on
    the node coordinates, evaluated as one batched integration sweep.
    This is the one-lane case of `_direct_lockstep`, which also solves
    the rest point and coarse screen of `value._search_ball` as one batch.
    """
    return _direct_lockstep(S, t, [(x, y, u)], segments, opt or OptimizerParams())[0]


# ---------------------------------------------------------------------------
# exponential-weight representation
# ---------------------------------------------------------------------------

def fundamental_exponential(S: ContactSystem, xi: Curve, u: float,
                            substeps_per_segment: int = 4) -> float:
    """Exponential-weight value of the terminal cost along a given curve.

    Equals the forward-integrated terminal cost for *every* curve (not
    just minimizers); the pair of routes is used as a consistency check.
    """
    if not np.isfinite(u):
        raise PreconditionError("u must be finite")

    def rhs(x, y, v):
        # y stacks (u, I, J): I integrates the value derivative of L along
        # the trajectory and J integrates exp(-I) (L - u dL/du)
        uu = y[:, 0]
        lval = np.asarray(S.L(x, uu, v), dtype=float)
        lu = np.asarray(S.Lu(x, uu, v), dtype=float)
        return np.stack([lval, lu, np.exp(-y[:, 1]) * (lval - uu * lu)], axis=-1)

    _, I, J = _rk4_sweep(rhs, xi.t_final, xi.nodes[None], np.array([[u, 0.0, 0.0]]),
                         substeps_per_segment)[0, -1]
    return float(np.exp(I) * (u + J))


# ---------------------------------------------------------------------------
# characteristics
# ---------------------------------------------------------------------------

def _lie_rhs(HS: HamiltonianSystem, xi, p, u):
    Hp = np.asarray(HS.Hp(xi, u, p), dtype=float)
    Hx = np.asarray(HS.Hx(xi, u, p), dtype=float)
    Hu = np.asarray(HS.Hu(xi, u, p), dtype=float)
    Hval = np.asarray(HS.H(xi, u, p), dtype=float)
    dxi = Hp
    dp = -Hx - Hu[..., None] * p
    du = np.sum(p * Hp, axis=-1) - Hval
    return dxi, dp, du


def lie_step_field(HS: HamiltonianSystem, state: CharacteristicState):
    """Right-hand side (xi', p', u') of the characteristic system."""
    xi = as_point(state.xi, HS.dim)
    p = as_point(state.p, HS.dim)
    dxi, dp, du = _lie_rhs(HS, xi, p, float(state.u))
    return dxi, dp, float(du)


def _characteristics(HS: HamiltonianSystem, t: float, x0: np.ndarray, u0: float,
                     p0: np.ndarray, steps: int, record: bool = False) -> np.ndarray:
    """RK4 the characteristic system for a batch of initial momenta.

    Returns the stacked state (xi, p, u) of shape (B, 2n+1), or the
    (steps+1, B, 2n+1) path when record is set.  The overflow guard runs
    after every step.
    """
    B, n = p0.shape
    y0 = np.concatenate([np.broadcast_to(x0, (B, n)), p0, np.full((B, 1), float(u0))],
                        axis=1)

    def rhs(_x, y, _v):  # autonomous: no stage positions
        dxi, dp, du = _lie_rhs(HS, y[:, :n], y[:, n:-1], y[:, -1])
        return np.concatenate([dxi, dp, du[:, None]], axis=1)

    return _rk4(rhs, y0, t / steps, [(None,) * 4] * steps, record=record)


def shoot(HS: HamiltonianSystem, t: float, x, u0: float, p0, steps: int = 256) -> CharacteristicState:
    """Integrate one characteristic from (x, p0, u0) to time t."""
    if not t > 0:
        raise PreconditionError("t must be positive")
    x = as_point(x, HS.dim)
    p0 = as_point(p0, HS.dim)
    y = _characteristics(HS, t, x, u0, p0[None, :], int(steps))[0]
    n = HS.dim
    return CharacteristicState(xi=y[:n], p=y[n:-1], u=float(y[-1]), s=float(t))


def fundamental_shooting(HS: HamiltonianSystem, t: float, x, y, u: float,
                         steps: int = 256, segments: int = 64,
                         p_max: Optional[float] = None,
                         newton_tol: float = 1e-9, max_newton: int = 40,
                         grid_per_axis: int = 9) -> FundamentalResult:
    """Solve the two-point boundary problem xi(t; p0) = y in the momentum.

    Multi-start damped Newton on the shooting map (Jacobian by central
    finite differences), all starts advanced as one batch.  Among the
    converged roots the one with minimal terminal cost wins; ties within
    1e-12 break toward the smallest initial momentum.
    """
    if t <= T_MIN:
        raise PreconditionError(f"t must exceed {T_MIN:g}")
    x = as_point(x, HS.dim)
    y = as_point(y, HS.dim)
    n = HS.dim
    d = float(np.linalg.norm(y - x))
    if p_max is None:
        p_max = 2.0 * d / t + 5.0
    axes = [np.linspace(-p_max, p_max, grid_per_axis)] * n
    p_cur = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    B = p_cur.shape[0]
    tol_abs = newton_tol * max(1.0, d)

    def final_state(P):
        y = _characteristics(HS, t, x, u, P, int(steps))
        return y[:, :n], y[:, -1]

    xiT, uT = final_state(p_cur)
    miss = np.linalg.norm(xiT - y, axis=-1)
    alive = np.ones(B, dtype=bool)
    iters = 0

    for _ in range(max_newton):
        work = alive & (miss > tol_abs)
        if not work.any():
            break
        iters += 1
        idx = np.where(work)[0]
        P = p_cur[idx]
        W = len(idx)
        eps = 1e-6 * (1.0 + np.abs(P).max(axis=1))
        jac = np.empty((W, n, n))
        for jc in range(n):
            Pp = P.copy()
            Pp[:, jc] += eps
            Pm = P.copy()
            Pm[:, jc] -= eps
            xp, _ = final_state(Pp)
            xm, _ = final_state(Pm)
            jac[:, :, jc] = (xp - xm) / (2.0 * eps[:, None])
        resid = xiT[idx] - y
        dets = np.linalg.det(jac)
        good = np.isfinite(dets) & (np.abs(dets) > 1e-14)
        dp = np.zeros_like(P)
        if good.any():
            dp[good] = np.linalg.solve(jac[good], resid[good][..., None])[..., 0]
        alive[idx[~good]] = False

        alpha = np.ones(W)
        improved = np.zeros(W, dtype=bool)
        remaining = good.copy()
        newP, new_miss = P.copy(), miss[idx].copy()
        new_xi, new_u = xiT[idx].copy(), uT[idx].copy()
        for _bt in range(30):
            if not remaining.any():
                break
            rows = np.where(remaining)[0]
            cand = P[rows] - alpha[rows, None] * dp[rows]
            cxi, cu = final_state(cand)
            cmiss = np.linalg.norm(cxi - y, axis=-1)
            ok = cmiss < (1.0 - 1e-4 * alpha[rows]) * miss[idx][rows]
            hit = rows[ok]
            newP[hit] = cand[ok]
            new_miss[hit] = cmiss[ok]
            new_xi[hit] = cxi[ok]
            new_u[hit] = cu[ok]
            improved[hit] = True
            remaining[hit] = False
            alpha[np.where(remaining)[0]] *= 0.5
        alive[idx[good & ~improved]] = False
        p_cur[idx] = newP
        miss[idx] = new_miss
        xiT[idx] = new_xi
        uT[idx] = new_u

    root_mask = miss <= tol_abs
    if not root_mask.any():
        raise NoRootFound(
            "no shooting start reached the target endpoint; t may lie beyond "
            "the focal time or the momentum grid is too coarse")
    roots_p = p_cur[root_mask]
    roots_u = uT[root_mask]

    order = np.lexsort((np.linalg.norm(roots_p, axis=1), roots_u))
    kept = []
    for i in order:
        if all(np.linalg.norm(roots_p[i] - roots_p[j]) >
               1e-7 * (1.0 + np.linalg.norm(roots_p[j])) for j in kept):
            kept.append(i)
    u_min = min(roots_u[i] for i in kept)
    winners = [i for i in kept if roots_u[i] <= u_min + 1e-12]
    best = min(winners, key=lambda i: float(np.linalg.norm(roots_p[i])))
    p0_win = roots_p[best]

    stride = max(1, int(np.ceil(steps / segments)))
    steps_eff = segments * stride
    path = _characteristics(HS, t, x, u, p0_win[None, :], steps_eff, record=True)[:, 0]
    curve = Curve(t_final=t, nodes=path[::stride, :n])
    traj = CostTrajectory(times=np.linspace(0.0, t, steps_eff + 1),
                          samples=path[:, -1].copy(), u0=float(u))
    A = float(path[-1, -1])
    return FundamentalResult(h=A - u, A=A, minimizer=curve, trajectory=traj,
                             iterations=iters, objective_history=np.array([A]),
                             converged=True, p0=p0_win)


def speed_envelope_check(xi: Curve, R: float, F) -> tuple:
    """Diagnostic against a user-supplied speed envelope F(t, R/t).

    Minimizers between endpoints at most R apart admit an essential speed
    bound of this shape, but no closed form for F is available in
    general; the check is therefore only exposed for caller-supplied
    envelopes.  Returns (max_speed, bound, within).
    """
    vmax = float(np.max(np.linalg.norm(xi.velocities, axis=-1)))
    bound = float(F(xi.t_final, R / xi.t_final))
    return vmax, bound, vmax <= bound * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# stationarity residual
# ---------------------------------------------------------------------------

def herglotz_residual(S: ContactSystem, xi: Curve, traj: CostTrajectory) -> float:
    """Max residual of d/ds L_v = L_x + L_u L_v at interior segment midpoints.

    L_v is sampled at segment midpoints (where the piecewise-constant
    velocity is unambiguous) and differentiated in s by central
    differences, a second-order probe of curve stationarity.
    """
    N = xi.segments
    if N < 4:
        raise PreconditionError("need at least 4 segments for the residual stencil")
    dt = xi.t_final / N
    mid_t = (np.arange(N) + 0.5) * dt
    mid_x = 0.5 * (xi.nodes[:-1] + xi.nodes[1:])
    vel = xi.velocities
    mid_u = np.asarray(traj.value_at(mid_t), dtype=float)

    q = np.asarray(S.Lv(mid_x, mid_u, vel), dtype=float)
    lx = np.asarray(S.Lx(mid_x, mid_u, vel), dtype=float)
    lu = np.asarray(S.Lu(mid_x, mid_u, vel), dtype=float)

    dq = (q[2:] - q[:-2]) / (2.0 * dt)
    rhs = lx[1:-1] + lu[1:-1, None] * q[1:-1]
    return float(np.max(np.abs(dq - rhs)))
