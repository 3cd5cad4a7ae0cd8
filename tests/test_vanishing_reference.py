"""`run_vanishing` against the loop it replaced.

The reference below is the earlier `run_vanishing`, kept verbatim apart
from its name and from taking (value, argmin, minimizer) off the search's
result.  It tabulated with its own double loops and solved each limit
point with `lax_oleinik_classical`, one point at a time; the current
`run_vanishing` tabulates with `solve_value_grid`.  Both read the limit
minimizer off the search's winning solve, which is no cold re-solve from
the argmin: its lanes start from the best curve so far.  Every array of
the report must agree bit for bit.
"""

import warnings
from typing import Optional, Sequence

import numpy as np
import pytest

from contact_hj import (ConvergenceReport, InitialDatum, LambdaFamily,
                        PreconditionError, SearchParams, ValueGrid,
                        datum_sin, family_discounted, family_perturbed,
                        lax_oleinik_classical, mu_radius,
                        run_vanishing, solve_value)
from contact_hj.errors import BoundViolation
from contact_hj.fundamental import OptimizerParams
from contact_hj.vanishing import contact_bound

# ---------------------------------------------------------------------------
# reference loop
# ---------------------------------------------------------------------------


def _ref_run_vanishing(family: LambdaFamily, datum: InitialDatum,
                       lambdas: Sequence[float], times: Sequence[float],
                       points: np.ndarray,
                       search: Optional[SearchParams] = None,
                       substeps: int = 4,
                       monotone_tol: float = 1e-6) -> ConvergenceReport:
    """Solve the family and its limit over a grid; report sup-gaps per lambda.

    lambdas must be positive and strictly descending.  The limit solution
    and its minimizing curves are computed once and reused for the
    envelope checks; envelope failures are recorded per point rather than
    aborting the run.
    """
    search = search or SearchParams()
    lambdas = np.asarray(list(lambdas), dtype=float)
    if lambdas.size == 0 or np.any(lambdas <= 0) or np.any(np.diff(lambdas) >= 0):
        raise PreconditionError("lambdas must be positive and strictly descending")
    times = np.asarray(list(times), dtype=float)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise PreconditionError("points must have shape (P, dim)")
    T, P = times.size, points.shape[0]
    L0 = family.limit_system

    base_vals = np.empty((T, P))
    base_args = np.empty((T, P, points.shape[1]))
    base_curves = {}
    base_u0 = np.empty((T, P))
    base_R = np.empty((T, P))
    base_radius = np.array([mu_radius(L0, datum, float(t)) * float(t) for t in times])
    for a, t in enumerate(times):
        for b in range(P):
            x = points[b]
            val, y_star, res = lax_oleinik_classical(L0, datum, float(t), x, search)
            base_vals[a, b] = val
            base_args[a, b] = y_star
            phi_y = float(datum(y_star))
            base_curves[(a, b)] = res.minimizer
            base_u0[a, b] = phi_y
            base_R[a, b] = max(float(np.linalg.norm(y_star - x)), 1e-9)
    baseline = ValueGrid(times=times, points=points, values=base_vals,
                         argmins=base_args, radius_used=base_radius)

    values = []
    argmins = []
    gaps = np.empty(lambdas.size)
    bound_values = np.empty((lambdas.size, T, P))
    bound_max = np.empty((lambdas.size, T, P))
    bound_ok = np.zeros((lambdas.size, T, P), dtype=bool)
    frozen_sup = np.empty(lambdas.size)

    for i, lam in enumerate(lambdas):
        S_lam = family.builder(float(lam))
        vals = np.empty((T, P))
        args = np.empty((T, P, points.shape[1]))
        fro = 0.0
        for a, t in enumerate(times):
            for b in range(P):
                vals[a, b], args[a, b] = solve_value(S_lam, datum, float(t),
                                                     points[b], search)[:2]
                xi = base_curves[(a, b)]
                try:
                    r = contact_bound(S_lam, L0, xi, base_u0[a, b], base_R[a, b],
                                      substeps=substeps)
                    bound_ok[i, a, b] = True
                except BoundViolation:
                    r = None
                if r is None:
                    bound_values[i, a, b] = np.nan
                    bound_max[i, a, b] = np.nan
                else:
                    bound_values[i, a, b] = r.bound
                    bound_max[i, a, b] = r.max_abs_u
                    if xi.t_final > 0:
                        fro = max(fro, r.correction_integral / xi.t_final)
        values.append(vals)
        argmins.append(args)
        gaps[i] = float(np.max(np.abs(vals - base_vals)))
        frozen_sup[i] = fro

    monotone = bool(np.all(np.diff(gaps) <= monotone_tol))
    if not monotone:
        warnings.warn("sup-gaps are not monotone along descending lambda "
                      "(convergence itself is still checked)", RuntimeWarning,
                      stacklevel=2)
    return ConvergenceReport(lambdas=lambdas, times=times, points=points,
                             baseline=baseline, values=values, argmins=argmins,
                             gaps=gaps, bound_values=bound_values,
                             bound_max_abs=bound_max, bound_passed=bound_ok,
                             frozen_gap_rate=frozen_sup, monotone=monotone)


# ---------------------------------------------------------------------------
# bitwise agreement
# ---------------------------------------------------------------------------

FAST = SearchParams(segments=6, grid_points=9, ytol=1e-5, refine_sweeps=1,
                    opt=OptimizerParams(substeps=2))


@pytest.mark.parametrize("family", [family_discounted(), family_perturbed()],
                         ids=["discounted", "perturbed"])
def test_run_vanishing_matches_the_resolving_loop(family):
    args = (family, datum_sin(), [0.3, 0.05], [0.3, 0.6],
            np.array([[-1.0], [0.2], [1.5]]), FAST)
    got = run_vanishing(*args)
    ref = _ref_run_vanishing(*args)

    def same(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)

    for name in ("lambdas", "times", "points", "gaps", "values", "argmins",
                 "bound_values", "bound_max_abs", "bound_passed",
                 "frozen_gap_rate"):
        assert same(getattr(got, name), getattr(ref, name)), name
    for name in ("values", "argmins", "radius_used"):
        assert same(getattr(got.baseline, name), getattr(ref.baseline, name)), name
    assert got.monotone == ref.monotone
    assert got.final_gap == ref.final_gap
