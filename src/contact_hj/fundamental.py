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

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._util import as_count, as_point
from .cost_ode import (_OVERFLOW, CostTrajectory, Curve, _check_range, _rk4,
                       _rk4_sweep, integrate_cost_many)
from .errors import (OVERFLOW_LIMIT, NoRootFound, NonConvergence, Overflow,
                     PreconditionError)
from .systems import ContactSystem, HamiltonianSystem

#: below this horizon the fundamental solution is refused rather than
#: extrapolated (it blows up as t -> 0+ for distinct endpoints)
T_MIN = 1e-6
#: objective decrease defining convergence of a direct solve
DECREASE_TOL = 1e-9
#: central-difference step of the direct solve's gradient, in node coordinates
FD_STEP = 1e-6
#: a shooting root misses its target endpoint by at most this times max(1, |y - x|)
SHOOT_TOL = 1e-9


@dataclass
class OptimizerParams:
    """Knobs of the interior-node quasi-Newton minimization.

    L-BFGS is preconditioned by a Sobolev metric (see `_direct_lockstep`),
    but `gtol`, like `DECREASE_TOL` and `FD_STEP`, is in node coordinates.
    """

    gtol: float = 1e-6         # node-space gradient norm defining convergence
    max_iter: int = 500
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


def _precondition(S, t, x, y, rows, N, substeps) -> np.ndarray:
    """R^-1 of each lane from x to y (B, n), where R^T R = P is its Sobolev metric.

    P models the Hessian of the discrete action on the straight curve from
    x to y: block-tridiagonal, from c_k = exp(int_{s_k}^t L_u) L_vv / h at
    the segment midpoints s_k of that straight curve, with u read off the
    cost row of the lane's start curve (`rows`, the unperturbed row of its
    first sweep: the straight curve only for a cold lane of a system
    without a constant rate, since `_rate_start` starts a discounted one on
    its discrete minimizer);
    diagonal blocks c_{k-1} + c_k and off-diagonal blocks -c_k.  A lane
    whose P is not positive definite, or whose factor is not finite, gets
    R = I (no preconditioning).
    """
    (B, n), h = x.shape, t / N
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
    return _inverse_factor(P.reshape(B, (N - 1) * n, (N - 1) * n))


def _rate_start(S, t, x, y, N, substeps) -> Optional[np.ndarray]:
    """Interior start nodes (B, N-1, n) of lanes from x to y when S declares
    a constant rate r = L_u != 0 (an evaluator made by `systems._constant`),
    or None, for the straight start.

    With r constant, RK4 is linear in u: each substep multiplies u by the
    stability polynomial R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 of
    z = r t / (N m), so the terminal cost weighs segment k's running cost by
    beta_k, proportional to R(z)^(m (N-1-k)) (R(z)^m - 1) / r.  Minimizing
    sum_k beta_k |v_k|^2 with sum_k v_k fixed gives speeds proportional to
    q_k = R(z)^(m k), the largest scaled to 1: node j is
    x + (y - x) sum_{k<j} q_k / sum_k q_k, the minimizer of the discrete
    action of L = r u + |v|^2 / 2 (the discounted quadratic).  Past RK4's
    stability limit the beta_k change sign and that action has no
    minimizer, so there, too, the lanes start straight.
    """
    rate = float(getattr(S.L_u, "value", 0.0))
    z = rate * t / (N * substeps)
    log_r = math.log(1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))))
    if not 0.0 < log_r * rate < math.inf:  # r = 0, or past the stability limit
        return None
    e = substeps * np.arange(N) * log_r
    c = np.cumsum(np.exp(e - e.max()))
    return x[:, None] + (y - x)[:, None] * (c[:-1] / c[-1])[:, None]


def _inverse_factor(P: np.ndarray) -> np.ndarray:
    """C-contiguous (chol(P)^-1)^T of each P of a (B, D, D) stack, or I where
    that fails or is not finite."""
    try:  # LAPACK factors a stack matrix by matrix, bitwise as alone
        rinv = np.linalg.inv(np.linalg.cholesky(P)).swapaxes(1, 2).copy()
    except np.linalg.LinAlgError:  # halve the stack until a failing P stands alone
        if len(P) == 1:
            return np.eye(P.shape[1])[None]
        return np.concatenate([_inverse_factor(half) for half in np.split(P, [len(P) // 2])])
    if not np.isfinite(rinv).all():
        rinv[~np.isfinite(rinv).all(axis=(1, 2))] = np.eye(P.shape[1])
    return rinv


def _direction(gz, Rinv, ps, py, psy, count, new) -> np.ndarray:
    """-H gz for every lane by the two-loop recursion over its count[k] newest
    curvature pairs (slot 0 of ps, py and psy = s.y is the newest), from
    H0 = R^-1 R^-T = P^-1, on (B, D) rows.  A `new` lane whose result is no
    descent direction drops its pairs for -P^-1 gz."""
    q, coef, top = -gz, [], int(count.max())
    live = count[:, None] > np.arange(top) if count.min() < top else None
    for j in range(top):
        coef.append(np.vecdot(ps[:, j], q) / psy[:, j])
        step = q - coef[-1][:, None] * py[:, j]
        q = step if live is None else np.where(live[:, j:j + 1], step, q)
    RinvT = Rinv.swapaxes(1, 2)
    d = np.matvec(Rinv, np.matvec(RinvT, q))
    for j in reversed(range(top)):
        step = d + (coef[j] - np.vecdot(py[:, j], d) / psy[:, j])[:, None] * ps[:, j]
        d = step if live is None else np.where(live[:, j:j + 1], step, d)
    flat = new & ~(np.vecdot(d, gz) < 0.0)
    if np.count_nonzero(flat):
        count[flat] = 0
        d[flat] = -np.matvec(Rinv[flat], np.matvec(RinvT[flat], gz[flat]))
    return d


@dataclass
class DirectLanes:
    """The lanes of a `_direct_lockstep` batch, as stacked arrays.

    Lane k's terminal cost is A[k], its minimizer nodes[k], the cost along
    it samples[k] and its objective after i iterations history[k, i];
    `result(k)` builds its FundamentalResult.
    """

    t: float
    u: np.ndarray           # (B,) initial values
    A: np.ndarray           # (B,) terminal costs
    nodes: np.ndarray       # (B, N+1, n) minimizing curves
    samples: np.ndarray     # (B, N*m+1) cost samples along them
    iterations: np.ndarray  # (B,)
    converged: np.ndarray   # (B,) bool
    history: np.ndarray     # (B, W), W > the most iterations of any lane

    def result(self, k: int) -> FundamentalResult:
        A, u, nit = float(self.A[k]), float(self.u[k]), int(self.iterations[k])
        return FundamentalResult(
            h=A - u, A=A, minimizer=Curve(float(self.t), self.nodes[k].copy()),
            trajectory=CostTrajectory(
                times=np.linspace(0.0, float(self.t), self.samples.shape[1]),
                samples=self.samples[k].copy(), u0=u),
            iterations=nit, objective_history=self.history[k, :nit + 1].copy(),
            converged=bool(self.converged[k]))


def _direct_lockstep(S: ContactSystem, t: float, x, y, u, segments: int,
                     opt: OptimizerParams, start=None) -> DirectLanes:
    """Minimize the terminal running cost for a batch of lanes, lane k from
    x[k] to y[k] with initial value u[k] ((B, n), (B, n) and (B,) stacks).

    Lane k starts from the interior nodes start[k] of a (B, N-1, n) stack,
    or, when `start` is None, cold: on the discrete minimizer when S declares
    a constant rate L_u != 0 (`_rate_start`, so a discounted lane stops on
    its first point), else from the straight curve.  Each lane runs L-BFGS
    on its interior nodes: the two-loop recursion over its last `_MEMORY`
    pairs (s, y) with s.y > 0 from H0 = P^-1 (the Sobolev metric of
    `_precondition`, built after the first point's stop test and only for
    the lanes that go on, so a lane that stops on its start curve factors
    no matrix), or -P^-1 g without the pairs when that is no descent
    direction; a step from 1, halved until Armijo's condition
    (c1 = 1e-4) holds, unless the predicted decrease falls below
    `DECREASE_TOL` first: then the lane ends on a null iteration that
    repeats f.  It stops where its node gradient norm is below gtol and its
    last decrease below `DECREASE_TOL` (its first point or an iterate), or
    after max_iter iterations.
    The lanes are rows of stacked arrays: (B, D) points, (B,) scalars and
    masks, (B, `_MEMORY`, D) pairs and a (B, D, D) stack of R^-1.  A round is
    one `integrate_cost_many` sweep of every running lane's trial point and
    central differences, then a fixed number of numpy calls whatever B is.
    Each lane follows its lone solve bit for bit: every per-lane product is a
    `vecdot`, `matvec` or LAPACK call that repeats the lone call row by row
    (never `einsum`, which sums in another order).  Slices of at most
    `_LOCKSTEP_ROWS` sweep rows run one after another.  The inputs are
    checked whole, one call each (`segments` an integer >= 2, `opt.substeps`
    and `opt.max_iter` integers >= 1), and the lanes come back stacked as
    `DirectLanes`, which builds a lane's FundamentalResult only when asked.
    Raises the NonConvergence of the first lane that misses its criteria
    within max_iter, as solving the lanes one after another would.  An
    Overflow in any sweep ends the batch.  A horizon that is not finite, or
    not above `T_MIN`, raises PreconditionError before any sweep.
    """
    if not T_MIN < t < math.inf:
        raise PreconditionError(f"t must exceed {T_MIN:g} and be finite, got {t!r}")
    N = as_count(segments, "segments", 2)
    opt = replace(opt, substeps=as_count(opt.substeps, "substeps"),
                  max_iter=as_count(opt.max_iter, "max_iter"))
    u = np.asarray(u, dtype=float)
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    start = None if start is None else np.asarray(start, dtype=float)
    if not np.isfinite(u).all():
        raise PreconditionError("u must be finite")
    if not (np.isfinite(x).all() and np.isfinite(y).all()
            and (start is None or np.isfinite(start).all())):
        raise PreconditionError("curve nodes must be finite")
    width = _slice_lanes((N - 1) * S.dim)
    parts = [_solve_slice(S, t, x[i:i + width], y[i:i + width], u[i:i + width], N, opt,
                          None if start is None else start[i:i + width])
             for i in range(0, len(u), width)]
    if len(parts) == 1:
        return parts[0]
    hist = np.zeros((len(u), max(p.history.shape[1] for p in parts)))
    for i, p in zip(range(0, len(u), width), parts):
        hist[i:i + width, :p.history.shape[1]] = p.history
    return DirectLanes(t, u, *(np.concatenate([getattr(p, name) for p in parts])
                               for name in ("A", "nodes", "samples", "iterations",
                                            "converged")), hist)


def _solve_slice(S, t, x, y, u, N, opt, start) -> DirectLanes:
    """One slice of `_direct_lockstep`, its lanes stacked; raises the
    NonConvergence of the first lane that exhausted max_iter unconverged."""
    B, n = x.shape
    D, R = (N - 1) * n, 2 * (N - 1) * n + 1
    lam = np.linspace(0.0, 1.0, N + 1)[:, None]
    curves = (1.0 - lam) * x[:, None] + lam * y[:, None]  # each lane's Curve.straight
    fd = (np.eye(D) * FD_STEP).reshape(D, N - 1, n)
    lane, xa, ya, ua = np.arange(B), x, y, np.repeat(u, R)  # row k runs lane lane[k]
    if start is None:
        start = _rate_start(S, t, x, y, N, opt.substeps)
    trial = (curves[:, 1:-1] if start is None else start).reshape(B, D).copy()
    z, gz, d = np.zeros((3, B, D))
    f, slope, alpha, out_gn = np.zeros((4, B))  # out_gn: the final gradient norms
    nit, count, out_nit, out_conv = np.zeros((4, B), dtype=int)
    ps, py, psy = np.zeros((B, _MEMORY, D)), np.zeros((B, _MEMORY, D)), np.ones((B, _MEMORY))
    hist, Rinv, rounds = np.empty((B, 8)), None, 0  # hist[k, i]: f after i iterations
    while True:
        nodes = np.empty((len(lane), R, N + 1, n))
        nodes[:, :, 0], nodes[:, :, -1] = xa[:, None], ya[:, None]
        inner, z4 = nodes[:, :, 1:-1], trial.reshape(-1, 1, N - 1, n)
        inner[:, :1] = z4
        np.add(z4, fd, out=inner[:, 1:D + 1])
        np.subtract(z4, fd, out=inner[:, D + 1:])
        samples = integrate_cost_many(S, t, nodes.reshape(-1, N + 1, n), ua,
                                      opt.substeps).reshape(len(lane), R, -1)
        f_new, rows = samples[:, 0, -1], samples[:, 0]
        g_new = (samples[:, 1:D + 1, -1] - samples[:, D + 1:, -1]) / (2.0 * FD_STEP)
        if not rounds:  # the start curves: every lane takes its point
            row, out_row = np.zeros((2,) + rows.shape)
            last, acc, null, some = 0.0, np.ones(B, dtype=bool), False, False
        else:  # some: whether some lane failed Armijo's condition
            fail = f_new > f + 1e-4 * alpha * slope
            acc, null, some, last = ~fail, False, np.count_nonzero(fail) > 0, f - f_new
            if some:
                null = fail & (-alpha * slope < DECREASE_TOL)
                alpha = 0.5 * alpha  # an accepted lane restarts at 1 below
                last[null] = 0.0  # a null iteration repeats f
            sv, yv = trial - z, g_new - gz
            sy = np.vecdot(sv, yv)
            keep = acc & (sy > 0.0)
            kept = np.count_nonzero(keep)
            if kept:
                sel = slice(None) if kept == len(keep) else keep
                for buf, new in ((ps, sv), (py, yv), (psy, sy)):
                    buf[sel, 1:] = buf[sel, :-1]
                    buf[sel, 0] = new[sel]
                count = np.minimum(count + keep, _MEMORY)
            nit = nit + (acc | null)
        sel = acc if some else slice(None)  # the lanes that take their trial point
        z[sel], f[sel], gz[sel], row[sel] = trial[sel], f_new[sel], g_new[sel], rows[sel]
        del samples, rows, f_new  # free the sweep's path, its largest array, before the next
        if rounds == hist.shape[1]:  # nit <= rounds
            hist = np.concatenate([hist, np.empty_like(hist)], axis=1)
        hist[lane, nit] = f  # a lane that only halved rewrites its entry
        gn = np.sqrt(np.vecdot(gz, gz))
        conv = (gn < opt.gtol) & (last < DECREASE_TOL)
        done = conv | (nit >= opt.max_iter)
        stop = null | (acc & done) if some else done
        stopped = np.count_nonzero(stop)
        if stopped:
            k = lane[stop]
            curves[k, 1:-1], out_row[k] = z[stop].reshape(-1, N - 1, n), row[stop]
            out_nit[k], out_gn[k], out_conv[k] = nit[stop], gn[stop], conv[stop]
            if stopped == len(stop):
                break
            run = ~stop
            (lane, xa, ya, z, f, gz, row, d, slope, alpha, ps, py, psy, count, nit,
             acc) = (a[run] for a in (lane, xa, ya, z, f, gz, row, d, slope, alpha, ps, py,
                                      psy, count, nit, acc))
            if rounds:
                Rinv = Rinv[run]
            ua, some = np.repeat(u[lane], R), not acc.all()
        if not rounds:  # the metric of the lanes that go on
            Rinv = _precondition(S, t, xa, ya, row, N, opt.substeps)
        sel = acc if some else slice(None)  # and so a new direction and the unit step
        d[sel] = _direction(gz, Rinv, ps, py, psy, count, acc)[sel]
        slope[sel], alpha[sel] = np.vecdot(gz, d)[sel], 1.0
        trial = z + alpha[:, None] * d
        rounds += 1
    out_row[:, 0] = u
    failed = np.flatnonzero((out_nit >= opt.max_iter) & (out_conv == 0))
    if failed.size:
        raise NonConvergence(
            f"curve minimization exhausted {opt.max_iter} iterations "
            f"(gradient norm {out_gn[failed[0]]:.3g})")
    return DirectLanes(t, u, out_row[:, -1].copy(), curves, out_row, out_nit,
                       out_conv.astype(bool), hist)


def fundamental_direct(S: ContactSystem, t: float, x, y, u: float,
                       segments: int = 32,
                       opt: Optional[OptimizerParams] = None) -> FundamentalResult:
    """Minimize the terminal running cost over curves from x to y.

    The decision variables are the interior nodes of a piecewise-linear
    curve initialized cold, as `_direct_lockstep` says: on the discrete
    minimizer for a declared constant rate L_u != 0 (the discounted
    quadratic), else as the straight segment; the objective value is the
    final sample of the cost ODE.  L-BFGS starts from the inverse of the
    exponentially weighted discrete Laplacian of the starting curve (a
    Sobolev-gradient metric), with central-difference gradients in node
    coordinates, where `converged` is judged.  This is the one-lane case of
    `_direct_lockstep`, which also solves the value search's batches.
    """
    return _direct_lockstep(S, t, as_point(x, S.dim)[None], as_point(y, S.dim)[None], [u],
                            segments, opt or OptimizerParams()).result(0)


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

def lie_step_field(HS: HamiltonianSystem, state: CharacteristicState):
    """Right-hand side (xi', p', u') of the characteristic system."""
    xi = as_point(state.xi, HS.dim)
    p = as_point(state.p, HS.dim)
    dxi, dp, du = HS.characteristic_field(xi, p, float(state.u))
    return dxi, dp, float(du)


def _characteristics(HS: HamiltonianSystem, t: float, x0: np.ndarray, u0: float,
                     p0: np.ndarray, steps: int, record: bool = False,
                     guard=_check_range) -> np.ndarray:
    """RK4 the characteristic system for a batch of initial momenta.

    The state is stepped component-major, as a (2n+1, B) array, so every
    operation of a stage reads and writes contiguous rows: the field gets
    xi and p as (B, n) transposed views and u as a (B,) row.  The field is
    resolved once (`HamiltonianSystem.stage_field`), and it writes the four
    slopes of a step into four buffers made once, in turn, so a buffer is
    written again only after the step that read it has ended.  Returns the
    stacked state (xi, p, u) of shape (B, 2n+1), or the (steps+1, B, 2n+1)
    path when record is set, as views of the component-major arrays.
    `guard` runs after every step on the (B, 2n+1) state; the default
    raises Overflow on any row.
    """
    B, n = p0.shape
    y0 = np.empty((2 * n + 1, B))
    y0[:n] = x0[:, None]
    y0[n:-1] = p0.T
    y0[-1] = float(u0)
    field = HS.stage_field()
    slopes = itertools.cycle([(k, k[:n].T, k[n:-1].T, k[-1])
                              for k in np.empty((4, 2 * n + 1, B))])

    def rhs(_x, y, _v):  # autonomous: no stage positions
        k, dxi, dp, du = next(slopes)
        field(y[:n].T, y[n:-1].T, y[-1], dxi, dp, du)
        return k

    y = _rk4(rhs, y0, t / steps, steps, record=record, guard=lambda y: guard(y.T))
    return np.swapaxes(y, -1, -2)


def _check_inputs(finite: dict, counts: dict) -> list:
    """PreconditionError unless every `finite` value is finite and every
    `counts` value is an integer of at least 1; returns the counts as ints."""
    for name, value in finite.items():
        if not np.all(np.isfinite(value)):
            raise PreconditionError(f"{name} must be finite")
    return [as_count(value, name) for name, value in counts.items()]


def shoot(HS: HamiltonianSystem, t: float, x, u0: float, p0, steps: int = 256) -> CharacteristicState:
    """Integrate one characteristic from (x, p0, u0) to time t."""
    x = as_point(x, HS.dim)
    p0 = as_point(p0, HS.dim)
    (steps,) = _check_inputs({"t": t, "x": x, "u0": u0, "p0": p0}, {"steps": steps})
    if not t > 0:
        raise PreconditionError("t must be positive")
    y = _characteristics(HS, t, x, u0, p0[None, :], steps)[0]
    n = HS.dim
    return CharacteristicState(xi=y[:n], p=y[n:-1], u=float(y[-1]), s=float(t))


#: relative step of the shooting Jacobian's difference rows, eps^(1/5): it
#: balances the O(h^4) truncation of the fourth-order stencil against the
#: O(eps / h) rounding of the difference quotient
_JAC_STEP = np.finfo(float).eps ** 0.2


def _candidate_sweep(HS: HamiltonianSystem, t: float, x, u: float, P: np.ndarray,
                     steps: int) -> tuple:
    """One recorded characteristic sweep of the candidate momenta P.

    Each candidate travels with its difference rows P +- h e_j and
    P +- 2h e_j, h = eps^(1/5) (1 + max|P|), so its shooting Jacobian comes
    out of the same sweep, by the fourth-order central stencil
    (8 (xi(+h) - xi(-h)) - (xi(+2h) - xi(-2h))) / (12 h).  A fault in a
    candidate row raises Overflow at once; a fault in a difference row only
    marks that candidate's Jacobian as spoiled.  Returns the candidates'
    (steps+1, W, 2n+1) path, their Jacobians of xi(t) in p0, shape
    (W, n, n), and the spoiled mask.
    """
    W, n = P.shape
    h = _JAC_STEP * (1.0 + np.abs(P).max(axis=1))
    rows = [P]
    for jc in range(n):
        for k in (1.0, -1.0, 2.0, -2.0):
            Pk = P.copy()
            Pk[:, jc] += k * h
            rows.append(Pk)
    rows = np.concatenate(rows)
    faulted = np.zeros(len(rows), dtype=bool)

    def guard(y):
        size = np.abs(y)
        if np.maximum.reduce(size, axis=None) <= OVERFLOW_LIMIT:  # nan fails it
            return
        bad = ~np.all(size <= OVERFLOW_LIMIT, axis=1)
        if bad[:W].any():
            raise Overflow(_OVERFLOW)
        faulted[bad] = True

    path = _characteristics(HS, t, x, u, rows, steps, record=True, guard=guard)
    e = path[-1, W:, :n].reshape(n, 4, W, n)  # axis, offset, candidate, xi
    with np.errstate(over="ignore", invalid="ignore"):
        jac = (8.0 * (e[:, 0] - e[:, 1]) - (e[:, 2] - e[:, 3])) / (12.0 * h[:, None])
    return path[:, :W], np.moveaxis(jac, 0, -1), faulted[W:].reshape(-1, W).any(axis=0)


def fundamental_shooting(HS: HamiltonianSystem, t: float, x, y, u: float,
                         steps: int = 256, segments: int = 64,
                         p_max: Optional[float] = None, max_newton: int = 40,
                         grid_per_axis: int = 9) -> FundamentalResult:
    """Solve the two-point boundary problem xi(t; p0) = y in the momentum.

    Multi-start damped Newton on the shooting map, to a miss |xi(t) - y| of
    at most `SHOOT_TOL` max(1, |y - x|).  Each start of the momentum grid
    is a lane with its own Newton step count, step dp and damping alpha; a
    trial p - alpha dp is accepted when it cuts the miss by the factor
    1 - 1e-4 alpha, and is otherwise halved.  A lane stops at a root, at a
    singular Jacobian (|det| <= 1e-14), after 30 rejected trials of one
    step or after max_newton steps.  A round is one `_candidate_sweep` of
    every running lane's trial, which carries its fourth-order difference
    rows, so an accepted lane takes its next Newton step from the Jacobian
    of that sweep; round 0 sweeps the starts.  On a
    linear shooting map the stencil is exact up to rounding, so a start
    reaches the root in one Newton step.  `iterations` is the most Newton
    steps of any lane.  Among the roots the one with minimal terminal cost
    wins; ties within 1e-12 break toward the smallest initial momentum.
    When `segments` divides `steps`, the winner's path is the one recorded
    in the sweep that produced it; otherwise it is re-integrated on
    segments * ceil(steps / segments) steps.

    Overflow is raised exactly when a characteristic the solve depends on
    leaves the range: a candidate, or a difference row of a candidate that
    a Newton step then works from.  A fault in a difference row of a root
    or of a rejected candidate is never read and raises nothing.  A
    non-finite input, `p_max` (which may be negative) included, and a count
    that is below 1 or fractional, `max_newton` included, raise
    PreconditionError before any sweep.
    """
    x = as_point(x, HS.dim)
    y = as_point(y, HS.dim)
    finite = {"t": t, "x": x, "y": y, "u": u}
    if p_max is not None:
        finite["p_max"] = p_max
    steps, segments, grid_per_axis, max_newton = _check_inputs(
        finite, {"steps": steps, "segments": segments, "grid_per_axis": grid_per_axis,
                 "max_newton": max_newton})
    if t <= T_MIN:
        raise PreconditionError(f"t must exceed {T_MIN:g}")
    n = HS.dim
    d = float(np.linalg.norm(y - x))
    if p_max is None:
        p_max = 2.0 * d / t + 5.0
    axes = [np.linspace(-p_max, p_max, grid_per_axis)] * n
    p_cur = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    tol_abs = SHOOT_TOL * max(1.0, d)

    # per lane: its accepted momentum with that momentum's miss, recorded
    # path, Jacobian and spoiled flag; the miss of no momentum is inf, so
    # round 0 accepts every start (dp = 0 makes each trial the start itself)
    B = len(p_cur)
    miss, paths = np.full(B, np.inf), np.empty((steps + 1, B, 2 * n + 1))
    jac, spoiled = np.empty((B, n, n)), np.zeros(B, dtype=bool)
    alpha, dp, (nit, rejected) = np.ones(B), np.zeros((B, n)), np.zeros((2, B), dtype=int)
    run = np.ones(B, dtype=bool)  # the lanes with a trial to sweep
    while run.any():
        lane = np.flatnonzero(run)
        trial = p_cur[lane] - alpha[lane, None] * dp[lane]
        path, J, bad = _candidate_sweep(HS, t, x, u, trial, steps)
        tmiss = np.linalg.norm(path[-1, :, :n] - y, axis=-1)
        ok = tmiss < (1.0 - 1e-4 * alpha[lane]) * miss[lane]
        acc, rej = lane[ok], lane[~ok]
        p_cur[acc], miss[acc], paths[:, acc] = trial[ok], tmiss[ok], path[:, ok]
        jac[acc], spoiled[acc] = J[ok], bad[ok]
        rejected[rej] += 1
        alpha[rej] *= 0.5
        run[rej] = rejected[rej] < 30
        step = acc[(miss[acc] > tol_abs) & (nit[acc] < max_newton)]
        if spoiled[step].any():
            raise Overflow(_OVERFLOW)
        nit[step] += 1
        dets = np.linalg.det(jac[step])
        go = step[np.isfinite(dets) & (np.abs(dets) > 1e-14)]
        dp[go] = np.linalg.solve(jac[go], (paths[-1, go, :n] - y)[..., None])[..., 0]
        alpha[go], rejected[go] = 1.0, 0
        run[acc] = np.isin(acc, go)  # an accepted lane runs on with a new Newton step

    roots = np.flatnonzero(miss <= tol_abs)
    if not roots.size:
        raise NoRootFound(
            "no shooting start reached the target endpoint; t may lie beyond "
            "the focal time or the momentum grid is too coarse")
    roots_p = p_cur[roots]
    roots_u = paths[-1, roots, -1]

    # the roots within 1e-12 of the least cost lead this order
    order = np.lexsort((np.linalg.norm(roots_p, axis=1), roots_u))
    kept = []
    for i in order[roots_u[order] <= roots_u[order[0]] + 1e-12]:
        if all(np.linalg.norm(roots_p[i] - roots_p[j]) >
               1e-7 * (1.0 + np.linalg.norm(roots_p[j])) for j in kept):
            kept.append(i)
    best = min(kept, key=lambda i: float(np.linalg.norm(roots_p[i])))
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
                             iterations=int(nit.max()), objective_history=np.array([A]),
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
