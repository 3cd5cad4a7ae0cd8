"""Shooting against the earlier one-sweep-per-Jacobian-column walk.

`_ref_fundamental_shooting` below is the `fundamental_shooting` that ran
a separate characteristic sweep for every +-h and +-2h difference row of
every Jacobian column of every Newton step and re-integrated the winner
to record its path, kept verbatim apart from its name and its Jacobian,
which takes the library's fourth-order stencil with the same float
operations.  The library carries every candidate's difference rows in
the candidate's own sweep and reads the winner's path from it; each row
is still integrated element-wise, so both must agree bit for bit, and
raise Overflow, NoRootFound or nothing on exactly the same inputs.
"""

import importlib
import sys
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from contact_hj import (FundamentalResult, HamiltonianSystem, NoRootFound, Overflow,
                        PreconditionError, discounted_quadratic_hamiltonian,
                        fundamental_shooting, quadratic_hamiltonian,
                        quartic_hamiltonian, trig_contact_hamiltonian)
from contact_hj._util import as_point
from contact_hj.cost_ode import CostTrajectory, Curve
from contact_hj.fundamental import T_MIN, _characteristics

# ---------------------------------------------------------------------------
# reference walk
# ---------------------------------------------------------------------------

def _ref_fundamental_shooting(HS: HamiltonianSystem, t: float, x, y, u: float,
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
        h = np.finfo(float).eps ** 0.2 * (1.0 + np.abs(P).max(axis=1))
        jac = np.empty((W, n, n))
        for jc in range(n):
            ends = []
            for k in (1.0, -1.0, 2.0, -2.0):
                Pk = P.copy()
                Pk[:, jc] += k * h
                ends.append(final_state(Pk)[0])
            jac[:, :, jc] = ((8.0 * (ends[0] - ends[1]) - (ends[2] - ends[3]))
                             / (12.0 * h[:, None]))
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


# ---------------------------------------------------------------------------
# bitwise agreement
# ---------------------------------------------------------------------------

def _assert_same(new: FundamentalResult, ref: FundamentalResult) -> None:
    assert new.A == ref.A and new.h == ref.h
    assert new.iterations == ref.iterations and new.converged == ref.converged
    assert np.array_equal(new.p0, ref.p0)
    assert np.array_equal(new.objective_history, ref.objective_history)
    assert np.array_equal(new.minimizer.nodes, ref.minimizer.nodes)
    assert new.minimizer.t_final == ref.minimizer.t_final
    assert np.array_equal(new.trajectory.times, ref.trajectory.times)
    assert np.array_equal(new.trajectory.samples, ref.trajectory.samples)
    assert new.trajectory.u0 == ref.trajectory.u0


def _both(HS, *args, **kwargs):
    _assert_same(fundamental_shooting(HS, *args, **kwargs),
                 _ref_fundamental_shooting(HS, *args, **kwargs))


def _panel_points(seed):
    """(lambda, t, x, y, u) of the benchmark's `fundamental` panel for a seed."""
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(perfbench)
        workloads = importlib.import_module("workloads")
        jobs = workloads.panel("fundamental", seed)
        for name in ("workloads", "oracles"):
            sys.modules.pop(name, None)
    return [(it["lam"], it["t"], it["x"], it["y"], it["u"])
            for job in jobs for it in job.items]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fundamental_panel_points_match(seed):
    # the CLI's and the benchmark's defaults: 256 steps, 64 segments
    points = _panel_points(seed)
    assert len(points) == 8
    for lam, t, x, y, u in points:
        _both(discounted_quadratic_hamiltonian(lam), t, x, y, u)


NON_PANEL = {
    "quadratic-1d": (quadratic_hamiltonian(), 1.0, 0.0, 1.0, 0.0, {}),
    "quadratic-2d": (quadratic_hamiltonian(2), 0.5, [0.0, 0.0], [1.6, -1.2], 1.0,
                     {"steps": 128, "segments": 16}),
    "quartic-1d": (quartic_hamiltonian(), 1.0, 0.0, 1.0, 0.0, {"steps": 128, "segments": 16}),
    "quartic-2d": (quartic_hamiltonian(2), 2.0, [0.0, 0.0], [2.4, -1.8], 0.3,
                   {"steps": 128, "segments": 16}),
    "trig-contact-1d": (trig_contact_hamiltonian(), 1.5, 0.0, 0.7, -0.5,
                        {"steps": 128, "segments": 16}),
    "trig-contact-2d": (trig_contact_hamiltonian(2), 1.0, [0.0, 0.0], [0.8, -0.6], 0.0,
                        {"steps": 128, "segments": 16}),
    "discounted-2d": (discounted_quadratic_hamiltonian(1.0, 2), 1.0, [0.0, 0.0],
                      [0.8, -0.6], 0.0, {"steps": 128, "segments": 16}),
    # segments does not divide steps: the winner is re-integrated
    "unaligned-discounted": (discounted_quadratic_hamiltonian(0.5), 1.2, 0.3, -1.1, 2.0,
                             {"steps": 100, "segments": 64}),
    "unaligned-trig-contact": (trig_contact_hamiltonian(), 0.9, 0.0, 1.3, 0.4,
                               {"steps": 90, "segments": 20}),
    # one Newton step halves its trial step eleven times
    "backtracking-halves": (trig_contact_hamiltonian(2), 0.8, [0.0, 0.0], [7.2, -5.4], 0.2,
                            {"steps": 64, "segments": 16}),
}


@pytest.mark.parametrize("case", sorted(NON_PANEL))
def test_shooting_matches_reference(case):
    HS, t, x, y, u, kw = NON_PANEL[case]
    _both(HS, t, x, y, u, **kw)


def test_unreachable_endpoint_raises_the_same_no_root_found():
    def ham(x, u, p):
        return np.sqrt(1.0 + np.sum(np.asarray(p, float) ** 2, axis=-1))

    HS = HamiltonianSystem(dim=1, hamiltonian=ham, K=0.0)
    messages = []
    for solve in (fundamental_shooting, _ref_fundamental_shooting):
        with pytest.raises(NoRootFound) as err:
            solve(HS, 1.0, 0.0, 3.0, 0.0, max_newton=25)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


# ---------------------------------------------------------------------------
# faults: Overflow exactly when the earlier walk integrates a faulting row
# ---------------------------------------------------------------------------

def _walled(power: int, edge: float) -> HamiltonianSystem:
    """H = p^power / power on |xi| <= edge and undefined (nan) beyond it.

    H_x = H_u = 0, so p stays at p0 and xi(s) = x + s p0^(power-1): a
    characteristic faults exactly when its momentum carries it past the
    wall within the horizon.
    """
    def ham(x, u, p):
        val = np.sum(np.asarray(p, float) ** power, axis=-1) / power
        return np.where(np.abs(np.asarray(x, float)[..., 0]) <= edge, val, np.nan)

    return HamiltonianSystem(dim=1, hamiltonian=ham, K=0.0,
                             H_x=lambda x, u, p: np.zeros_like(np.asarray(p, float)),
                             H_u=lambda x, u, p: np.zeros_like(np.asarray(u, float)),
                             H_p=lambda x, u, p: np.asarray(p, float) ** (power - 1))


def _p_walled(edge: float) -> HamiltonianSystem:
    """H = p^2 / 2 for |p| <= edge and nan beyond it, H_p alike.

    Momenta are constant (H_x = H_u = 0), so a characteristic is nan from
    its first stage on exactly when |p0| > edge, in xi and u alike, where
    a real Hamiltonian would overflow to +-inf.
    """
    def hp(x, u, p):
        p = np.asarray(p, float)
        return np.where(np.abs(p) <= edge, p, np.nan)

    return HamiltonianSystem(dim=1, K=0.0,
                             hamiltonian=lambda x, u, p: 0.5 * np.sum(hp(x, u, p) ** 2, axis=-1),
                             H_x=lambda x, u, p: np.zeros_like(np.asarray(p, float)),
                             H_u=lambda x, u, p: np.zeros_like(np.asarray(u, float)), H_p=hp)


def _outcomes(HS, *args, **kwargs):
    out = []
    for solve in (fundamental_shooting, _ref_fundamental_shooting):
        try:
            out.append(solve(HS, *args, **kwargs))
        except Overflow as exc:
            out.append(str(exc))
    return out


# quartic toy from x = 0 to y = -0.3 in t = 1, starts p0 = -0.5 and 0.5: a
# Newton step tries p0 = -22.5444444 (xi(1) = -11458.2584) and rejects it;
# its -h and -2h difference rows reach -11484.8481 and -11511.4788
QUARTIC_WALK = (1.0, 0.0, -0.3, 0.0)
QUARTIC_KW = {"steps": 64, "segments": 16, "p_max": 0.5, "grid_per_axis": 2}


def test_faulting_candidate_raises_in_both():
    for HS, args, kw in [
        (_walled(4, 11458.25), QUARTIC_WALK, QUARTIC_KW),
        # the one start p0 = -1 steps to p0 = 3, a nan candidate
        (_p_walled(2.0), (1.0, 0.0, 3.0, 0.0), {"p_max": 1.0, "grid_per_axis": 1}),
    ]:
        new, ref = _outcomes(HS, *args, **kw)
        assert isinstance(new, str) and new == ref


@pytest.mark.parametrize("HS, args, kw", [
    # the rejected backtracking candidate's -h and -2h rows alone cross the wall
    (_walled(4, 11458.27), QUARTIC_WALK, QUARTIC_KW),
    # the one start p0 = -1 is already the root (xi(1) = -0.5); only its
    # -h and -2h rows (xi(1) = -0.5 - 1.48e-3 and -0.5 - 2.96e-3) cross the wall
    (_walled(2, 0.5 + 1e-6), (1.0, 0.5, -0.5, 0.0), {"p_max": 1.0, "grid_per_axis": 1}),
    # the same root, where its -h and -2h rows (p0 = -1 - 1.48e-3 and
    # -1 - 2.96e-3) are nan
    (_p_walled(1.0 + 1e-6), (1.0, 0.5, -0.5, 0.0), {"p_max": 1.0, "grid_per_axis": 1}),
], ids=["rejected-candidate", "converged-start", "converged-start-nan"])
def test_speculative_row_fault_raises_nothing(HS, args, kw):
    new, ref = _outcomes(HS, *args, **kw)
    assert isinstance(ref, FundamentalResult)
    _assert_same(new, ref)


@pytest.mark.parametrize("HS, args, kw", [
    # start p0 = 1 ends at xi(1) = 1.5, short of y = 1, so Newton works from
    # it; its +h and +2h rows (xi(1) = 1.5 + 1.48e-3 and 1.5 + 2.96e-3) cross
    # the wall at 1.5 + 1e-6
    (_walled(2, 1.5 + 1e-6), (1.0, 0.5, 1.0, 0.0), {"p_max": 1.0}),
    # the one start p0 = -0.5 steps to p0 = -0.7333333 (xi(1) = -0.3943704),
    # which misses y = -0.3, so the next step works from it; its -h and -2h
    # rows (xi(1) = -0.3964436 and -0.3985241) alone cross the wall
    (_walled(4, 0.394372), QUARTIC_WALK, dict(QUARTIC_KW, grid_per_axis=1)),
    # starts p0 = +-1 miss y = 1, and their outer rows p0 = +-(1 + 1.48e-3) and
    # +-(1 + 2.96e-3) are nan
    (_p_walled(1.0 + 1e-6), (1.0, 0.5, 1.0, 0.0), {"p_max": 1.0}),
], ids=["start", "accepted-candidate", "start-nan"])
def test_faulting_difference_row_of_a_working_row_raises_in_both(HS, args, kw):
    new, ref = _outcomes(HS, *args, **kw)
    assert isinstance(new, str) and new == ref
