"""Fundamental solutions of contact Hamilton-Jacobi equations.

Two independent routes compute the same object.  The variational route
minimizes the terminal running cost u_xi(t) over discretized curves
pinned at both endpoints (generalized variational principle of Herglotz
type), by L-BFGS preconditioned with an exponentially weighted Sobolev
metric; the characteristic route shoots the first-order system

    xi' = H_p,   p' = -H_x - H_u p,   u' = <p, xi'> - H

and solves the two-point boundary condition in the initial momentum.
`fundamental_exponential` evaluates the exponential-weight form of the
terminal cost, an identity that holds along every curve and ties the
integrator and the representation together; `herglotz_residual` measures
how well a curve satisfies the stationarity ODE

    d/ds L_v = L_x + L_u L_v.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import as_point
from .cost_ode import (_OVERFLOW, CostTrajectory, Curve, _check_range, _rk4,
                       _rk4_sweep, integrate_cost_many)
from .errors import (OVERFLOW_LIMIT, NoRootFound, NonConvergence, Overflow,
                     PreconditionError)
from .systems import ContactSystem, HamiltonianSystem

#: below this horizon the fundamental solution is refused rather than
#: extrapolated (it blows up as t -> 0+ for distinct endpoints)
T_MIN = 1e-6


@dataclass
class OptimizerParams:
    """Knobs of the interior-node quasi-Newton minimization.

    L-BFGS is preconditioned by a Sobolev metric (see `_direct_lockstep`),
    but every knob here is in node coordinates.
    """

    tol: float = 1e-9          # objective decrease defining convergence
    gtol: float = 1e-6         # node-space gradient norm defining convergence
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
#: lanes' curvature memories grow with the number of lanes
_LOCKSTEP_ROWS = 1024

#: curvature pairs (s, y) each lane keeps for its L-BFGS direction
_MEMORY = 10


def _slice_lanes(D: int) -> int:
    """Lanes per lockstep slice when each lane solves for D node coordinates."""
    return max(1, _LOCKSTEP_ROWS // (2 * D + 1))


class _Lane:
    """One preconditioned L-BFGS solve over the interior nodes z of a curve.

    The lane holds its iterate (z, f, node gradient gz and the cost row of
    the curve), its last `_MEMORY` curvature pairs, and the point `trial`
    that the next sweep evaluates.  `_precondition` sets R^-1 after the
    first sweep, which evaluates the straight starting curve.
    """

    def __init__(self, x, y, u, z0):
        self.x0, self.y0, self.u = x, y, float(u)
        self.trial = np.array(z0, dtype=np.float64)
        self.Rinv = None
        self.pairs = deque(maxlen=_MEMORY)   # (s, y, s.y), oldest first
        self.history = []
        self.nit = 0
        self.done = False

    def take(self, f, gz, row, opt) -> None:
        """Read f, the node gradient gz and the cost row at the trial point.

        The starting curve, or a trial step that meets Armijo's condition
        (c1 = 1e-4), becomes the iterate, and the lane stops there if it meets the
        convergence contract or has used max_iter iterations.  A step that
        fails the condition is halved, unless its predicted decrease is
        already below tol: then the lane ends on a null iteration that
        repeats f.
        """
        if self.history:
            if f > self.f + 1e-4 * self.alpha * self.slope:
                if -self.alpha * self.slope < opt.tol:
                    self.nit += 1
                    self.history.append(self.f)
                    self.done = True
                else:
                    self.alpha *= 0.5
                    self.trial = self.z + self.alpha * self.d
                return
            s, y = self.trial - self.z, gz - self.gz
            sy = float(s @ y)
            if sy > 0.0:
                self.pairs.append((s, y, sy))
            self.nit += 1
        self.z, self.f, self.gz, self.row = self.trial, f, gz, row.copy()
        self.history.append(f)
        last = self.history[-2] - f if self.nit else 0.0
        if (np.linalg.norm(gz) < opt.gtol and last < opt.tol) or self.nit >= opt.max_iter:
            self.done = True
            return
        self.d = self._direction()
        self.slope = float(gz @ self.d)
        self.alpha = 1.0
        self.trial = self.z + self.d

    def _direction(self) -> np.ndarray:
        """-H gz by the two-loop recursion over the kept pairs, from
        H0 = R^-1 R^-T = P^-1; if that is no descent direction, the pairs
        are dropped and the direction is -P^-1 gz."""
        q = -self.gz
        coef = []
        for s, y, sy in reversed(self.pairs):
            coef.append((s @ q) / sy)
            q = q - coef[-1] * y
        d = self.Rinv @ (self.Rinv.T @ q)
        for (s, y, sy), a in zip(self.pairs, reversed(coef)):
            d = d + (a - (y @ d) / sy) * s
        if not d @ self.gz < 0.0:
            self.pairs.clear()
            d = -(self.Rinv @ (self.Rinv.T @ self.gz))
        return d


def _precondition(S, t, lanes, rows, N, substeps) -> None:
    """Set each lane's R^-1, where R^T R = P is its Sobolev metric.

    P models the Hessian of the discrete action on the lane's straight
    starting curve: block-tridiagonal, from c_k = exp(int_{s_k}^t L_u) L_vv / h
    at the segment midpoints s_k, with u read off the unperturbed cost row
    of the lane's first sweep (`rows`); diagonal blocks c_{k-1} + c_k and
    off-diagonal blocks -c_k.  A lane whose P is not positive definite, or
    whose factor is not finite, gets R = I (no preconditioning).
    """
    B, n = len(lanes), lanes[0].x0.size
    D = (N - 1) * n
    h = t / N
    x = np.array([ln.x0 for ln in lanes])
    y = np.array([ln.y0 for ln in lanes])
    frac = ((np.arange(N) + 0.5) / N)[None, :, None]
    xm = (1.0 - frac) * x[:, None] + frac * y[:, None]
    vm = np.broadcast_to(((y - x) / t)[:, None], (B, N, n))
    k = np.arange(N) * substeps
    um = 0.5 * (rows[:, k + substeps // 2] + rows[:, k + (substeps + 1) // 2])
    args = (xm.reshape(-1, n), um.reshape(-1), vm.reshape(-1, n))
    lu = np.asarray(S.Lu(*args), dtype=float).reshape(B, N)
    lvv = np.asarray(S.Lvv(*args), dtype=float).reshape(B, N, n, n)
    # midpoint rule for int_{s_k}^t L_u: half of segment k, all of the later ones
    weight = np.exp(h * (np.cumsum(lu[:, ::-1], axis=1)[:, ::-1] - 0.5 * lu))
    c = weight[..., None, None] * lvv / h
    P = np.zeros((B, N - 1, n, N - 1, n))
    j = np.arange(N - 1)
    P[:, j, :, j, :] = (c[:, :-1] + c[:, 1:]).swapaxes(0, 1)
    P[:, j[:-1], :, j[1:], :] = -c[:, 1:-1].swapaxes(0, 1)
    P[:, j[1:], :, j[:-1], :] = -c[:, 1:-1].swapaxes(0, 1).swapaxes(-1, -2)
    for ln, p in zip(lanes, P.reshape(B, D, D)):
        try:
            # R = chol^T, so R^-1 = (chol^-1)^T
            rinv = np.ascontiguousarray(np.linalg.inv(np.linalg.cholesky(p)).T)
        except np.linalg.LinAlgError:
            rinv = np.eye(D)
        ln.Rinv = rinv if np.all(np.isfinite(rinv)) else np.eye(D)


def _sweep_lanes(S, t, lanes, N, opt, eye) -> None:
    """Evaluate every lane's trial point and its central differences in
    one batched cost sweep."""
    n = lanes[0].x0.size
    D = eye.shape[0]
    R = 2 * D + 1
    nodes = np.empty((R * len(lanes), N + 1, n))
    for k, ln in enumerate(lanes):
        z = ln.trial
        zs = np.vstack([z[None, :], z[None, :] + eye, z[None, :] - eye])
        block = nodes[k * R:(k + 1) * R]
        block[:, 0, :] = ln.x0
        block[:, -1, :] = ln.y0
        block[:, 1:-1, :] = zs.reshape(-1, N - 1, n)
    u0 = np.repeat([ln.u for ln in lanes], R)
    samples = integrate_cost_many(S, t, nodes, u0, opt.substeps)
    fresh = [k for k, ln in enumerate(lanes) if ln.Rinv is None]
    if fresh:
        _precondition(S, t, [lanes[k] for k in fresh], samples[np.array(fresh) * R],
                      N, opt.substeps)
    for k, ln in enumerate(lanes):
        finals = samples[k * R:(k + 1) * R, -1]
        g = (finals[1:D + 1] - finals[D + 1:]) / (2.0 * opt.fd_step)
        ln.take(float(finals[0]), g, samples[k * R], opt)


def _direct_lockstep(S: ContactSystem, t: float, ends, segments: int,
                     opt: OptimizerParams, outcomes: bool = False) -> list:
    """Minimize the terminal running cost for a batch of (x, y, u) lanes.

    Each lane runs L-BFGS on its interior nodes (see `_Lane`), with the
    Sobolev metric P of `_precondition` as its initial inverse Hessian
    P^-1, a finite-difference gradient in node coordinates, and a
    backtracking line search from the unit step.  A lane stops on the
    convergence contract: node-space gradient norm below gtol and last
    decrease below tol, checked at its first point and at every iterate.
    Every round, the trial points of all running lanes are evaluated
    together by one `integrate_cost_many` sweep, and each lane follows,
    bit for bit, the iterates it would follow alone.  The lanes run in
    successive slices of at most `_LOCKSTEP_ROWS` sweep rows.  Returns one
    FundamentalResult per lane; when lanes miss their criteria within
    max_iter, raises the NonConvergence of the first such lane, as solving
    the lanes one after another would, unless `outcomes` is set, in which
    case that lane's entry is its NonConvergence and every lane is solved.
    An Overflow in any sweep ends the whole batch.
    """
    if t <= T_MIN:
        raise PreconditionError(f"t must exceed {T_MIN:g}")
    if segments < 2:
        raise PreconditionError("need at least 2 segments")
    n = S.dim
    N = int(segments)
    D = (N - 1) * n
    eye = np.eye(D) * opt.fd_step

    width = _slice_lanes(D)
    results = []
    for i in range(0, len(ends), width):
        lanes = []
        for x, y, u in ends[i:i + width]:
            if not np.isfinite(u):
                raise PreconditionError("u must be finite")
            x, y = as_point(x, n), as_point(y, n)
            lanes.append(_Lane(x, y, u, Curve.straight(x, y, t, N).interior))
        active = lanes
        while active:
            _sweep_lanes(S, t, active, N, opt, eye)
            active = [ln for ln in active if not ln.done]
        for ln in lanes:
            res = _finish(t, ln, N, opt)
            if isinstance(res, NonConvergence) and not outcomes:
                raise res
            results.append(res)
    return results


def _finish(t, ln: _Lane, N: int, opt: OptimizerParams):
    """Result of a stopped lane, or its NonConvergence if it exhausted max_iter."""
    curve = Curve.straight(ln.x0, ln.y0, t, N).with_interior(ln.z)
    samples = ln.row
    samples[0] = ln.u
    traj = CostTrajectory(times=np.linspace(0.0, float(t), samples.size),
                          samples=samples, u0=ln.u)
    A = traj.final
    history = ln.history
    grad_norm = float(np.linalg.norm(ln.gz))
    last_dec = history[-2] - history[-1] if len(history) >= 2 else 0.0
    converged = grad_norm < opt.gtol and last_dec < opt.tol
    if ln.nit >= opt.max_iter and not converged:
        return NonConvergence(
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
    final sample of the cost ODE.  L-BFGS starts from the inverse of the
    exponentially weighted discrete Laplacian of the starting curve (a
    Sobolev-gradient metric); gradients are central differences on the
    node coordinates, evaluated as one batched integration sweep, and
    `converged` is judged in node coordinates.  This is the one-lane case
    of `_direct_lockstep`, which also solves the value search's screen and
    golden rounds as batches.
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

def _lie_rhs(HS: HamiltonianSystem, xi, p, u, out=None):
    """(xi', p', u') at (xi, p, u), written into one stage array `out` of
    shape (..., 2n+1) (a fresh one by default) and returned as its views."""
    Hp = np.asarray(HS.Hp(xi, u, p), dtype=float)
    Hx = np.asarray(HS.Hx(xi, u, p), dtype=float)
    Hu = np.asarray(HS.Hu(xi, u, p), dtype=float)
    Hval = np.asarray(HS.H(xi, u, p), dtype=float)
    n = HS.dim
    if out is None:
        out = np.empty(np.shape(xi)[:-1] + (2 * n + 1,))
    out[..., :n] = Hp
    np.subtract(-Hx, Hu[..., None] * p, out=out[..., n:-1])
    np.subtract(np.add.reduce(p * Hp, axis=-1), Hval, out=out[..., -1])
    return out[..., :n], out[..., n:-1], out[..., -1]


def lie_step_field(HS: HamiltonianSystem, state: CharacteristicState):
    """Right-hand side (xi', p', u') of the characteristic system."""
    xi = as_point(state.xi, HS.dim)
    p = as_point(state.p, HS.dim)
    dxi, dp, du = _lie_rhs(HS, xi, p, float(state.u))
    return dxi, dp, float(du)


def _characteristics(HS: HamiltonianSystem, t: float, x0: np.ndarray, u0: float,
                     p0: np.ndarray, steps: int, record: bool = False,
                     guard=_check_range) -> np.ndarray:
    """RK4 the characteristic system for a batch of initial momenta.

    Returns the stacked state (xi, p, u) of shape (B, 2n+1), or the
    (steps+1, B, 2n+1) path when record is set.  `guard` runs after every
    step; the default raises Overflow on any row.
    """
    B, n = p0.shape
    y0 = np.concatenate([np.broadcast_to(x0, (B, n)), p0, np.full((B, 1), float(u0))],
                        axis=1)

    def rhs(_x, y, _v):  # autonomous: no stage positions
        k = np.empty_like(y)
        _lie_rhs(HS, y[:, :n], y[:, n:-1], y[:, -1], k)
        return k

    return _rk4(rhs, y0, t / steps, [(None,) * 4] * steps, record=record, guard=guard)


def _check_inputs(finite: dict, counts: dict) -> None:
    """PreconditionError unless every `finite` value is finite and every
    `counts` value is at least 1."""
    for name, value in finite.items():
        if not np.all(np.isfinite(value)):
            raise PreconditionError(f"{name} must be finite")
    for name, value in counts.items():
        if not value >= 1:
            raise PreconditionError(f"{name} must be at least 1")


def shoot(HS: HamiltonianSystem, t: float, x, u0: float, p0, steps: int = 256) -> CharacteristicState:
    """Integrate one characteristic from (x, p0, u0) to time t."""
    x = as_point(x, HS.dim)
    p0 = as_point(p0, HS.dim)
    _check_inputs({"t": t, "x": x, "u0": u0, "p0": p0}, {"steps": steps})
    if not t > 0:
        raise PreconditionError("t must be positive")
    y = _characteristics(HS, t, x, u0, p0[None, :], int(steps))[0]
    n = HS.dim
    return CharacteristicState(xi=y[:n], p=y[n:-1], u=float(y[-1]), s=float(t))


def _candidate_sweep(HS: HamiltonianSystem, t: float, x, u: float, P: np.ndarray,
                     steps: int) -> tuple:
    """One recorded characteristic sweep of the candidate momenta P.

    Each candidate travels with its central-difference rows P +- eps e_j,
    eps = 1e-6 (1 + max|P|), so its shooting Jacobian comes out of the same
    sweep.  A fault in a candidate row raises Overflow at once; a fault in
    a difference row only marks that candidate's Jacobian as spoiled.
    Returns the candidates' (steps+1, W, 2n+1) path, their Jacobians of
    xi(t) in p0, shape (W, n, n), and the spoiled mask.
    """
    W, n = P.shape
    eps = 1e-6 * (1.0 + np.abs(P).max(axis=1))
    rows = [P]
    for jc in range(n):
        Pp = P.copy()
        Pp[:, jc] += eps
        Pm = P.copy()
        Pm[:, jc] -= eps
        rows += [Pp, Pm]
    faulted = np.zeros(W * (2 * n + 1), dtype=bool)

    def guard(y):
        size = np.abs(y)
        if np.maximum.reduce(size, axis=None) <= OVERFLOW_LIMIT:  # nan fails it
            return
        bad = ~np.all(size <= OVERFLOW_LIMIT, axis=1)
        if bad[:W].any():
            raise Overflow(_OVERFLOW)
        faulted[bad] = True

    path = _characteristics(HS, t, x, u, np.concatenate(rows), steps, record=True,
                            guard=guard)
    ends = path[-1, W:, :n].reshape(2 * n, W, n)
    with np.errstate(over="ignore", invalid="ignore"):
        jac = np.stack([(ends[2 * jc] - ends[2 * jc + 1]) / (2.0 * eps[:, None])
                        for jc in range(n)], axis=-1)
    return path[:, :W], jac, faulted[W:].reshape(2 * n, W).any(axis=0)


def fundamental_shooting(HS: HamiltonianSystem, t: float, x, y, u: float,
                         steps: int = 256, segments: int = 64,
                         p_max: Optional[float] = None,
                         newton_tol: float = 1e-9, max_newton: int = 40,
                         grid_per_axis: int = 9) -> FundamentalResult:
    """Solve the two-point boundary problem xi(t; p0) = y in the momentum.

    Multi-start damped Newton on the shooting map, all starts advanced as
    one batch.  Every characteristic sweep carries, next to each candidate
    momentum, its central-difference rows (`_candidate_sweep`), so the
    Jacobian at an accepted candidate is in hand when the next Newton step
    needs it: one sweep for the start grid and one per backtracking trial.
    Among the converged roots the one with minimal terminal cost wins;
    ties within 1e-12 break toward the smallest initial momentum.  When
    `segments` divides `steps`, the winner's path is the one recorded in
    the sweep that produced it; otherwise it is re-integrated on
    segments * ceil(steps / segments) steps.

    Overflow is raised exactly when a characteristic the solve depends on
    leaves the range: a candidate, or a difference row of a candidate that
    a Newton step then works from.  A fault in a difference row of a root
    or of a rejected candidate is never read and raises nothing.
    """
    x = as_point(x, HS.dim)
    y = as_point(y, HS.dim)
    _check_inputs({"t": t, "x": x, "y": y, "u": u},
                  {"steps": steps, "segments": segments, "grid_per_axis": grid_per_axis})
    if t <= T_MIN:
        raise PreconditionError(f"t must exceed {T_MIN:g}")
    n = HS.dim
    d = float(np.linalg.norm(y - x))
    if p_max is None:
        p_max = 2.0 * d / t + 5.0
    axes = [np.linspace(-p_max, p_max, grid_per_axis)] * n
    p_cur = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    tol_abs = newton_tol * max(1.0, d)

    # per start: the recorded path, Jacobian and spoiled flag of its momentum
    paths, jac, spoiled = _candidate_sweep(HS, t, x, u, p_cur, int(steps))
    miss = np.linalg.norm(paths[-1, :, :n] - y, axis=-1)
    alive = np.ones(len(p_cur), dtype=bool)
    iters = 0

    for _ in range(max_newton):
        work = alive & (miss > tol_abs)
        if not work.any():
            break
        idx = np.where(work)[0]
        if spoiled[idx].any():
            raise Overflow(_OVERFLOW)
        iters += 1
        P, J = p_cur[idx], jac[idx]
        resid = paths[-1, idx, :n] - y
        dets = np.linalg.det(J)
        good = np.isfinite(dets) & (np.abs(dets) > 1e-14)
        dp = np.zeros_like(P)
        if good.any():
            dp[good] = np.linalg.solve(J[good], resid[good][..., None])[..., 0]
        alive[idx[~good]] = False

        alpha = np.ones(len(idx))
        base = miss[idx]
        remaining = good.copy()
        for _bt in range(30):
            if not remaining.any():
                break
            rows = np.where(remaining)[0]
            cand = P[rows] - alpha[rows, None] * dp[rows]
            cpath, cjac, cspoiled = _candidate_sweep(HS, t, x, u, cand, int(steps))
            cmiss = np.linalg.norm(cpath[-1, :, :n] - y, axis=-1)
            ok = cmiss < (1.0 - 1e-4 * alpha[rows]) * base[rows]
            hit = idx[rows[ok]]
            p_cur[hit] = cand[ok]
            miss[hit] = cmiss[ok]
            paths[:, hit] = cpath[:, ok]
            jac[hit] = cjac[ok]
            spoiled[hit] = cspoiled[ok]
            remaining[rows[ok]] = False
            alpha[remaining] *= 0.5
        alive[idx[remaining]] = False

    roots = np.where(miss <= tol_abs)[0]
    if not roots.size:
        raise NoRootFound(
            "no shooting start reached the target endpoint; t may lie beyond "
            "the focal time or the momentum grid is too coarse")
    roots_p = p_cur[roots]
    roots_u = paths[-1, roots, -1]

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
    if steps_eff == steps:
        path = paths[:, roots[best]]
    else:
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
