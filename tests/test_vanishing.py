"""Vanishing contact structure: families, envelopes, convergence runs."""

import warnings

import numpy as np
import pytest
from conftest import discounted_value_bruteforce, hopf_lax_bruteforce

from contact_hj import (BoundViolation, ContactSystem, Curve,
                        LambdaFamily, PreconditionError, SampleBox,
                        SearchParams, builtin_family, contact_bound,
                        datum_sin, discounted_quadratic_system,
                        family_discounted, family_perturbed, perturbed_system,
                        quadratic_system, run_vanishing, verify_conditions)
from contact_hj.fundamental import OptimizerParams

FAST = SearchParams(segments=8, grid_points=13, ytol=1e-7,
                    opt=OptimizerParams(substeps=2))


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def test_discounted_family_members_are_valid_systems():
    fam = family_discounted()
    box = SampleBox.cube(1, 4.0)
    for lam in (0.5, 0.1):
        S = fam.builder(lam)
        assert S.K == fam.builder(lam).K == lam
        assert verify_conditions(S, box, samples=128, seed=0).passed


def test_perturbed_family_members_are_valid_systems():
    fam = family_perturbed()
    box = SampleBox.cube(1, 4.0)
    for lam in (0.5, 0.02):
        S = fam.builder(lam)
        assert abs(S.K - lam) <= 1e-15
        report = verify_conditions(S, box, samples=256, seed=1)
        assert report.passed, report.violations


def test_family_value_coupling_shrinks():
    for fam in (family_discounted(), family_perturbed()):
        ks = [fam.builder(l).K for l in (0.5, 0.2, 0.1, 0.05)]
        assert all(b < a for a, b in zip(ks, ks[1:]))
        assert ks[-1] <= 0.05


def test_frozen_member_converges_uniformly_to_limit():
    # sup over a compact sample of |L_lambda - L0| must shrink with lambda
    fam = family_perturbed()
    L0 = fam.limit_system
    rng = np.random.default_rng(2)
    x = rng.uniform(-3, 3, (256, 1))
    v = rng.uniform(-3, 3, (256, 1))
    zero = np.zeros(256)
    sups = []
    for lam in (0.5, 0.2, 0.05):
        S = fam.builder(lam)
        sups.append(float(np.max(np.abs(S.L(x, zero, v) - L0.L(x, zero, v)))))
    assert all(b < a for a, b in zip(sups, sups[1:]))
    assert sups[-1] <= 0.05 * (1 + 1e-9)


def test_perturbed_system_coupling_is_globally_bounded():
    S = perturbed_system(0.3)
    u = np.linspace(-50, 50, 1001)
    lu = S.Lu(np.zeros((1001, 1)), u, np.zeros((1001, 1)))
    assert np.max(np.abs(lu)) <= 0.3 + 1e-12


# ---------------------------------------------------------------------------
# envelope check
# ---------------------------------------------------------------------------

def test_contact_bound_limit_member_formula():
    # K = 0 and L_lambda = L0: bound collapses to t*theta0_bar(R/t) + |u|
    L0 = quadratic_system()
    xi = Curve.straight(0.0, 1.0, 1.0, 8)
    res = contact_bound(L0, L0, xi, -0.4, 1.0)
    assert res.passed
    assert abs(res.bound - (1.0 * 0.5 + 0.4)) <= 1e-12
    assert res.correction_integral == 0.0


def test_contact_bound_discounted_straight_line_frozen():
    S1 = discounted_quadratic_system(1.0)
    L0 = quadratic_system()
    xi = Curve.straight(0.0, 1.0, 1.0, 16)
    res = contact_bound(S1, L0, xi, 0.0, 1.0, substeps=8)
    # trajectory solves u' = -u + 1/2 from 0: max = (1 - e^{-1})/2
    assert abs(res.max_abs_u - 0.31606027941427883) <= 1e-8
    assert abs(res.bound - 0.5 * np.e) <= 1e-12
    assert res.passed


def test_contact_bound_linear_in_initial_magnitude():
    S1 = discounted_quadratic_system(0.25)
    L0 = quadratic_system()
    xi = Curve.straight(0.0, 0.5, 1.0, 8)
    lo = contact_bound(S1, L0, xi, 0.0, 0.5)
    hi = contact_bound(S1, L0, xi, -1000.0, 0.5)
    assert abs((hi.bound - lo.bound) - hi.c_factor * 1000.0) <= 1e-9
    assert hi.c_factor == 1.0 * 0.25 * np.exp(0.25) + 1.0


def test_contact_bound_rejects_undeclared_coupling():
    # family member whose actual value derivative dwarfs its declared K
    lying = ContactSystem(
        dim=1,
        lagrangian=lambda x, u, v: 5.0 * np.asarray(u, float)
        + 0.5 * np.sum(np.asarray(v, float) ** 2, axis=-1),
        K=0.0,
        theta0=lambda r: 0.5 * np.asarray(r, float) ** 2,
        theta0_bar=lambda r: 0.5 * np.asarray(r, float) ** 2,
        c0=0.0)
    L0 = quadratic_system()
    xi = Curve.straight(0.0, 1.0, 1.0, 8)
    with pytest.raises(BoundViolation):
        contact_bound(lying, L0, xi, 2.0, 1.0)


def test_contact_bound_checks_endpoint_distance():
    L0 = quadratic_system()
    xi = Curve.straight(0.0, 2.0, 1.0, 8)
    with pytest.raises(PreconditionError):
        contact_bound(L0, L0, xi, 0.0, 0.5)


# ---------------------------------------------------------------------------
# convergence runs
# ---------------------------------------------------------------------------

def test_run_vanishing_constant_family_has_zero_gaps():
    fam = LambdaFamily(builder=lambda lam: quadratic_system(),
                       limit_system=quadratic_system(), name="constant")
    report = run_vanishing(fam, datum_sin(), [0.1], [0.5],
                           np.linspace(-1, 1, 3)[:, None], FAST)
    assert report.final_gap <= 1e-9
    assert report.monotone
    assert report.bound_passed.all()


def test_run_vanishing_discounted_small_grid():
    fam = family_discounted()
    datum = datum_sin()
    times = [0.5]
    pts = np.array([[-1.0], [0.0], [1.0]])
    report = run_vanishing(fam, datum, [0.5, 0.1], times, pts, FAST)
    assert report.gaps[1] < report.gaps[0]
    assert report.monotone
    assert report.bound_passed.all()
    # pointwise agreement with the closed-form kernels
    for i, lam in enumerate(report.lambdas):
        for b, x in enumerate(pts[:, 0]):
            oracle = discounted_value_bruteforce(lam, np.sin, 0.5, x)[0]
            assert abs(report.values[i][0, b] - oracle) <= 2e-3
    for b, x in enumerate(pts[:, 0]):
        oracle = hopf_lax_bruteforce(np.sin, 0.5, x)[0]
        assert abs(report.baseline.values[0, b] - oracle) <= 2e-3


def test_run_vanishing_pointwise_estimate_skeleton():
    # |u^lam - u| <= t K_lam M + t sup|L_lam - L0| + numerical slack
    fam = family_perturbed()
    datum = datum_sin()
    t = 0.5
    pts = np.array([[0.0], [1.0]])
    report = run_vanishing(fam, datum, [0.3, 0.1], [t], pts, FAST)
    for i, lam in enumerate(report.lambdas):
        for b in range(pts.shape[0]):
            gap = abs(report.values[i][0, b] - report.baseline.values[0, b])
            M = report.bound_values[i, 0, b]
            budget = t * lam * M + t * report.frozen_gap_rate[i] + 1e-3
            assert gap <= budget


def test_run_vanishing_flags_nonmonotone_family():
    # members deliberately ordered so the gap grows as lambda shrinks
    fam = LambdaFamily(builder=lambda lam: discounted_quadratic_system(0.6 - lam),
                       limit_system=quadratic_system(), name="inverted")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_vanishing(fam, datum_sin(), [0.5, 0.1], [0.5],
                               np.array([[0.0]]), FAST)
    assert not report.monotone
    assert any("monotone" in str(w.message) for w in caught)


def test_run_vanishing_gaps_invariant_under_point_permutation():
    fam = family_discounted()
    datum = datum_sin()
    pts = np.array([[-1.0], [0.0], [1.0]])
    r1 = run_vanishing(fam, datum, [0.3], [0.5], pts, FAST)
    r2 = run_vanishing(fam, datum, [0.3], [0.5], pts[::-1].copy(), FAST)
    assert abs(r1.gaps[0] - r2.gaps[0]) <= 1e-9


def test_run_vanishing_validates_lambda_order():
    fam = family_discounted()
    with pytest.raises(PreconditionError):
        run_vanishing(fam, datum_sin(), [0.1, 0.5], [0.5],
                      np.array([[0.0]]), FAST)
    with pytest.raises(PreconditionError):
        run_vanishing(fam, datum_sin(), [], [0.5], np.array([[0.0]]), FAST)


def test_builtin_family_registry():
    assert builtin_family("discounted").name == "discounted"
    assert builtin_family("perturbed").name == "perturbed"
    with pytest.raises(PreconditionError):
        builtin_family("exotic")


def test_run_vanishing_requires_a_classical_limit():
    # the baseline is the classical (K = 0) value function
    fam = LambdaFamily(builder=discounted_quadratic_system,
                       limit_system=discounted_quadratic_system(0.5),
                       name="coupled-limit")
    with pytest.raises(PreconditionError, match="K = 0"):
        run_vanishing(fam, datum_sin(), [0.3], [0.5], np.array([[0.0]]), FAST)


def test_warm_refinement_lanes_do_not_overflow_near_the_rest_point():
    # a perturbed job of the vanishing benchmark (seed 3): starting the
    # refinement lanes from the best curve scaled about x overflows here,
    # where y* lies near x; they start between solved lanes or cold instead
    report = run_vanishing(family_perturbed(), datum_sin(),
                           [0.2662370622444965, 0.030198342646425236], [0.6],
                           np.array([[1.6672704268900436]]),
                           SearchParams(segments=8, grid_points=17))
    assert np.all(np.isfinite(report.gaps)) and report.bound_passed.all()
