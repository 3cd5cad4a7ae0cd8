"""Vanishing contact-structure experiments.

A lambda-family of contact Lagrangians whose value coupling K_lambda
shrinks to zero degenerates, in the limit, to a classical Lagrangian
L0(x, v).  The experiment solves the Cauchy problem for each family
member and for the limit system, measures the sup-gap over a compact
(times x points) grid, and verifies the a-priori envelope on the running
cost that drives the convergence estimate.

The grid is the experiment's compact-set proxy and is recorded in the
report; descending lambda should produce nonincreasing gaps for the
built-in families, but monotonicity is reported as a soft flag rather
than enforced (only the limit itself is guaranteed).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ._util import resolve_id
from .cost_ode import Curve, _rk4_sweep, integrate_cost
from .errors import BoundViolation, PreconditionError
# unused here; perfbench/tracing.py hooks this module's binding of the name
from .fundamental import fundamental_direct  # noqa: F401
from .systems import (ContactSystem, discounted_quadratic_system, perturbed_system,
                      quadratic_system)
from .value import (InitialDatum, SearchParams, ValueGrid, _require_classical,
                    solve_value_grid)
# unused here; perfbench/tracing.py hooks this module's binding of the name
from .value import solve_value  # noqa: F401


@dataclass
class LambdaFamily:
    """Family lambda -> L^lambda with its declared limit system."""

    builder: Callable[[float], ContactSystem]
    limit_system: ContactSystem
    name: str = ""


def family_discounted(dim: int = 1) -> LambdaFamily:
    """L^lambda = -lambda u + |v|^2/2; the classical discounted family."""
    return LambdaFamily(builder=lambda lam: discounted_quadratic_system(lam, dim),
                        limit_system=quadratic_system(dim), name="discounted")


def family_perturbed(dim: int = 1) -> LambdaFamily:
    return LambdaFamily(builder=lambda lam: perturbed_system(lam, dim),
                        limit_system=quadratic_system(dim), name="perturbed")


#: built-in family id -> (builder, arity)
_FAMILIES = {"discounted": (family_discounted, 0), "perturbed": (family_perturbed, 0)}
#: the sup-gaps count as monotone while none rises by more than this
MONOTONE_TOL = 1e-6


def builtin_family(spec_id: str, dim: int = 1) -> LambdaFamily:
    return resolve_id(spec_id, "family", _FAMILIES, dim)


# ---------------------------------------------------------------------------
# a-priori envelope on the running cost
# ---------------------------------------------------------------------------

@dataclass
class ContactBoundResult:
    """Envelope check along one limit-system minimizer."""

    bound: float
    max_abs_u: float
    correction_integral: float
    f_term: float
    c_factor: float
    passed: bool


def contact_bound(S_lambda: ContactSystem, L0: ContactSystem, xi: Curve,
                  u: float, R: float, substeps: int = 4) -> ContactBoundResult:
    """Check max_s |u^lambda_xi(s)| against its Gronwall-type envelope.

    xi must be a minimizer of the limit action between endpoints at most
    R apart; the envelope combines the limit system's growth metadata
    with the family member's K and the frozen-value correction integral.
    Raises BoundViolation when the trajectory escapes it by more than 1e-9
    (an implementation or family-declaration error).
    """
    t = xi.t_final
    d = float(np.linalg.norm(xi.nodes[-1] - xi.nodes[0]))
    if d > R * (1.0 + 1e-9) + 1e-12:
        raise PreconditionError(f"endpoint distance {d:g} exceeds declared R={R:g}")
    K_lam = S_lambda.K
    ekt = math.exp(K_lam * t)
    kappa = float(L0.theta0_bar(R / t)) + 2.0 * L0.c0
    f_term = kappa * ekt
    c_factor = t * K_lam * ekt + 1.0
    # integral of |L_lambda(xi, xi') - L0(xi, xi')| with the value slot
    # frozen at zero; on this state-free integrand RK4 is Simpson's rule
    zero = np.zeros(1)
    corr = float(_rk4_sweep(lambda x, y, v: np.abs(S_lambda.L(x, zero, v) - L0.L(x, zero, v)),
                            t, xi.nodes[None], zero, substeps)[0, -1])
    bound = t * f_term + c_factor * abs(u) + ekt * corr

    traj = integrate_cost(S_lambda, xi, u, substeps)
    max_abs = float(np.max(np.abs(traj.samples)))
    passed = max_abs <= bound + 1e-9
    result = ContactBoundResult(bound=bound, max_abs_u=max_abs,
                                correction_integral=corr, f_term=f_term,
                                c_factor=c_factor, passed=passed)
    if not passed:
        raise BoundViolation(
            f"running cost reached {max_abs:.6g}, envelope is {bound:.6g}; "
            "check the declared growth metadata of the family")
    return result


# ---------------------------------------------------------------------------
# convergence experiment
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceReport:
    """Gaps, envelopes and pointwise tables of one vanishing run."""

    lambdas: np.ndarray          # (L,), descending
    times: np.ndarray            # (T,)
    points: np.ndarray           # (P, n)
    baseline: ValueGrid
    values: list                 # per lambda: (T, P) array of u^lambda
    argmins: list                # per lambda: (T, P, n) array of y_star
    gaps: np.ndarray             # (L,) sup over the grid of |u^lambda - u|
    bound_values: np.ndarray     # (L, T, P) envelope values
    bound_max_abs: np.ndarray    # (L, T, P) attained max |u^lambda_xi|
    bound_passed: np.ndarray     # (L, T, P) bool
    frozen_gap_rate: np.ndarray  # (L,) max over points of (1/t) * int |L_lambda - L0| along the limit minimizer
    monotone: bool
    final_gap: float = field(init=False)

    def __post_init__(self):
        self.final_gap = float(self.gaps[-1]) if self.gaps.size else 0.0

    def max_bound(self, i: int) -> float:
        """Largest envelope value (trajectory bound M) for lambda index i."""
        return float(np.max(self.bound_values[i]))


def run_vanishing(family: LambdaFamily, datum: InitialDatum,
                  lambdas: Sequence[float], times: Sequence[float],
                  points: np.ndarray,
                  search: Optional[SearchParams] = None) -> ConvergenceReport:
    """Solve the family and its limit over a grid; report sup-gaps per lambda.

    lambdas must be positive and strictly descending, and the limit
    system must be classical (K = 0).  The limit solution and each family
    member are tabulated with `solve_value_grid`; the envelope checks run
    along the limit minimizers that the limit search returned, at
    `contact_bound`'s default substeps; a failure leaves its point NaN.
    """
    search = search or SearchParams()
    lambdas = np.asarray(list(lambdas), dtype=float)
    if lambdas.size == 0 or np.any(lambdas <= 0) or np.any(np.diff(lambdas) >= 0):
        raise PreconditionError("lambdas must be positive and strictly descending")
    L0 = family.limit_system
    _require_classical(L0)
    baseline = solve_value_grid(L0, datum, times, points, search)
    times, points = baseline.times, baseline.points
    shape = (lambdas.size,) + baseline.values.shape
    # a BoundViolation leaves its point NaN in both envelope tables
    bound_values, bound_max = np.full(shape, np.nan), np.full(shape, np.nan)
    values, argmins = [], []
    gaps, frozen_sup = np.empty(lambdas.size), np.empty(lambdas.size)

    for i, lam in enumerate(lambdas):
        S_lam = family.builder(float(lam))
        grid = solve_value_grid(S_lam, datum, times, points, search)
        fro = 0.0
        for a, row in enumerate(baseline.results):
            for b, res in enumerate(row):
                y_star, xi = baseline.argmins[a, b], res.minimizer
                R = max(float(np.linalg.norm(y_star - points[b])), 1e-9)
                try:
                    r = contact_bound(S_lam, L0, xi, float(datum(y_star)), R)
                except BoundViolation:
                    continue
                bound_values[i, a, b], bound_max[i, a, b] = r.bound, r.max_abs_u
                fro = max(fro, r.correction_integral / xi.t_final)
        values.append(grid.values)
        argmins.append(grid.argmins)
        gaps[i] = float(np.max(np.abs(grid.values - baseline.values)))
        frozen_sup[i] = fro

    monotone = bool(np.all(np.diff(gaps) <= MONOTONE_TOL))
    if not monotone:
        warnings.warn("sup-gaps are not monotone along descending lambda "
                      "(convergence itself is still checked)", RuntimeWarning,
                      stacklevel=2)
    return ConvergenceReport(lambdas=lambdas, times=times, points=points,
                             baseline=baseline, values=values, argmins=argmins,
                             gaps=gaps, bound_values=bound_values,
                             bound_max_abs=bound_max, bound_passed=~np.isnan(bound_values),
                             frozen_gap_rate=frozen_sup, monotone=monotone)
