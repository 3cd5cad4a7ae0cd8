"""Value-function solver: localization radius, searches, diagnostics."""

import numpy as np
import pytest
from conftest import discounted_value_bruteforce, hopf_lax_bruteforce
from hypothesis import given, settings
from hypothesis import strategies as st

from contact_hj import (InitialDatum, PreconditionError, SearchParams,
                        builtin_datum, datum_abs_window, datum_constant,
                        datum_cos_bump, datum_linear_window,
                        datum_quadratic_window, datum_sin,
                        discounted_quadratic_system, fundamental_direct,
                        initial_condition_check, lax_oleinik_classical,
                        mu_radius, pde_residual, quadratic_hamiltonian,
                        quadratic_system, solve_value, solve_value_grid,
                        trig_contact_system)
from contact_hj import value
from contact_hj.fundamental import OptimizerParams

FAST = SearchParams(segments=8, grid_points=13, ytol=1e-7,
                    opt=OptimizerParams(substeps=2, gtol=1e-6))


# ---------------------------------------------------------------------------
# localization radius
# ---------------------------------------------------------------------------

def test_mu_radius_trivial_quadratic():
    # K = 0, C = 0, c0 = 0, conjugate (lip+1)^2/2: all four cases equal 2
    S = quadratic_system()
    assert abs(mu_radius(S, datum_sin(), 1.0) - 2.0) <= 1e-12


def test_mu_radius_discounted_frozen():
    # K = 1, C0 = 1, t = 1: case arithmetic gives max = 2 + 2 e^2
    S = discounted_quadratic_system(1.0)
    mu = mu_radius(S, datum_sin(), 1.0)
    assert abs(mu - (2.0 + 2.0 * np.e ** 2)) <= 1e-9
    assert abs(mu - 16.778112197861297) <= 1e-9


def test_mu_radius_small_time_limit():
    # exponentials flatten to 1: max case = c0 + C + C2 + conj(lip + 1)
    S = discounted_quadratic_system(1.0)
    mu = mu_radius(S, datum_sin(), 1e-9)
    assert abs(mu - 4.0) <= 1e-6


def test_mu_radius_monotone_in_lipschitz_constant():
    S = discounted_quadratic_system(0.5)
    lips = [0.5, 1.0, 2.0, 5.0]
    vals = [mu_radius(S, InitialDatum(phi=lambda y: 0.0 * y[..., 0], lip=l,
                                      sup_abs=1.0), 0.7) for l in lips]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_mu_radius_rejects_nonpositive_time():
    with pytest.raises(PreconditionError):
        mu_radius(quadratic_system(), datum_sin(), 0.0)


@pytest.mark.parametrize("lip, sup_abs, field", [
    (float("nan"), 1.0, "lip"), (float("inf"), 1.0, "lip"), (-1.0, 1.0, "lip"),
    (1.0, float("nan"), "sup_abs"), (1.0, float("inf"), "sup_abs"),
    (1.0, -0.5, "sup_abs"),
])
def test_datum_rejects_nonfinite_or_negative_constants(lip, sup_abs, field):
    # a NaN constant would otherwise surface only inside the search, as a
    # NaN radius and "u must be finite"
    with pytest.raises(PreconditionError, match=f"^{field} must be finite"):
        InitialDatum(phi=lambda y: np.sin(y[..., 0]), lip=lip, sup_abs=sup_abs)


# ---------------------------------------------------------------------------
# value solves against oracles
# ---------------------------------------------------------------------------

def test_constant_datum_rests():
    S = quadratic_system()
    val, y, _ = solve_value(S, datum_constant(0.7), 0.5, 0.0, FAST)
    assert abs(val - 0.7) <= 1e-9
    assert abs(y[0]) <= 1e-6


def test_hopf_lax_sin_against_dense_bruteforce():
    S = quadratic_system()
    datum = datum_sin()
    for (t, x) in [(0.5, 0.0), (0.5, 1.0), (1.0, 0.0)]:
        oracle, y_oracle = hopf_lax_bruteforce(np.sin, t, x)
        val, y, _ = solve_value(S, datum, t, x, FAST)
        assert abs(val - oracle) <= 1e-5
        assert abs(y[0] - y_oracle) <= 1e-3


def test_hopf_lax_sin_frozen_point():
    # dense oracle (step 1e-4 on [-10, 10]): min sin(y) + y^2 at t = 1/2
    S = quadratic_system()
    val, y, _ = solve_value(S, datum_sin(), 0.5, 0.0, FAST)
    assert abs(val - (-0.23246557483118863)) <= 1e-5
    assert abs(y[0] - (-0.4502)) <= 1e-3


def test_discounted_sin_against_weighted_bruteforce():
    # closed-form kernel: e^{-lam t} phi(y) + lam (x-y)^2 / (2 (e^{lam t}-1))
    lam, t, x = 1.0, 0.5, 0.0
    S = discounted_quadratic_system(lam)
    oracle, y_oracle = discounted_value_bruteforce(lam, np.sin, t, x)
    assert abs(oracle - (-0.11382230573160758)) <= 1e-9  # frozen
    val, y, _ = solve_value(S, datum_sin(), t, x, FAST)
    assert abs(val - oracle) <= 1e-4
    assert abs(y[0] - y_oracle) <= 1e-3


COMPARE = SearchParams(segments=8, grid_points=17, ytol=1e-4)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(lam=st.floats(0.0, 2.0), t=st.floats(0.3, 1.0), x=st.floats(-2.0, 2.0),
       height=st.floats(0.0, 1.0), shift=st.floats(-2.0, 2.0),
       width=st.floats(0.2, 2.0))
def test_value_comparison_principle(lam, t, x, height, shift, width):
    # phi1 = sin <= phi2 = sin + a cosine bump, so u1(t, x) <= u2(t, x).
    # The discrete cost is increasing in its initial value (the RK4 factor
    # of du/ds = -lam u + |v|^2/2 is positive), so A(y, phi1(y)) <=
    # A(y, phi2(y)) at every y, up to the inner solves' stopping tol each.
    # u2 is such a value at its argmin; u1 is the minimum of y ->
    # A(y, phi1(y)) up to the search's error.  For this convex objective
    # refinement ends within ytol of the minimizer, and the objective's slope
    # on the ball B(x, mu t) is at most lam d / (e^{lam t} - 1) + lip(phi1)
    # <= mu + lip(phi1).
    S = discounted_quadratic_system(lam)
    phi1 = datum_sin()
    center, bump = x + shift, datum_cos_bump(width)
    phi2 = InitialDatum(phi=lambda y: phi1(y) + height * bump(y - center),
                        lip=phi1.lip + height * bump.lip,
                        sup_abs=phi1.sup_abs + height, name="sin+bump")
    u1 = solve_value(S, phi1, t, x, COMPARE)[0]
    u2 = solve_value(S, phi2, t, x, COMPARE)[0]
    tol = (mu_radius(S, phi1, t) + phi1.lip) * COMPARE.ytol + 2.0 * COMPARE.opt.tol
    assert u1 <= u2 + tol, (u1, u2, tol)


def test_quadratic_window_datum_closed_form():
    # u(t, x) = x^2 / (2 (1 + t)) while the window stays inactive
    S = quadratic_system()
    datum = datum_quadratic_window(10.0)
    search = SearchParams(segments=8, grid_points=33, ytol=1e-7,
                          opt=OptimizerParams(substeps=2))
    for (t, x) in [(0.5, 1.0), (1.0, -2.0)]:
        val, y, _ = solve_value(S, datum, t, x, search)
        assert abs(val - x * x / (2.0 * (1.0 + t))) <= 1e-4
        assert abs(y[0] - x / (1.0 + t)) <= 1e-3


def test_lax_oleinik_matches_solve_value_identically():
    S = quadratic_system()
    datum = datum_sin()
    a = solve_value(S, datum, 1.0, 0.3, FAST)
    b = lax_oleinik_classical(S, datum, 1.0, 0.3, FAST)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


def test_lax_oleinik_frozen_sin_point():
    S = quadratic_system()
    val, _, _ = lax_oleinik_classical(S, datum_sin(), 1.0, 0.0, FAST)
    assert abs(val - (-0.400488611928426)) <= 1e-5


def test_lax_oleinik_rejects_value_coupled_systems():
    with pytest.raises(PreconditionError):
        lax_oleinik_classical(discounted_quadratic_system(1.0), datum_sin(),
                              1.0, 0.0, FAST)


def test_abs_window_keeps_origin():
    S = quadratic_system()
    datum = datum_abs_window(10.0)
    for t in (0.3, 1.0):
        val, y, _ = solve_value(S, datum, t, 0.0, FAST)
        assert abs(val) <= 1e-7
        assert abs(y[0]) <= 1e-5


def test_localization_and_center_dominance():
    S = discounted_quadratic_system(1.0)
    datum = datum_sin()
    for (t, x) in [(0.5, 0.7), (1.0, -1.2)]:
        val, y_star, _ = solve_value(S, datum, t, x, FAST)
        radius = mu_radius(S, datum, t) * t
        assert np.linalg.norm(y_star - x) <= radius + 1e-6
        rest = fundamental_direct(S, t, np.array([x]), np.array([x]),
                                  float(datum(np.array([x]))),
                                  segments=FAST.segments, opt=FAST.opt)
        assert val <= rest.A + 1e-9


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_single_point_matches_scalar_solve():
    for S, datum, x in [
        (quadratic_system(), datum_sin(), [0.3]),            # golden stage wins
        (quadratic_system(), datum_constant(0.0), [0.3]),    # rest point wins
        (quadratic_system(dim=2), datum_cos_bump(), [0.5, 0.0]),
    ]:
        grid = solve_value_grid(S, datum, [0.5], np.array([x]), FAST)
        val, y, best = solve_value(S, datum, 0.5, x, FAST)
        assert grid.values[0, 0] == val
        assert np.array_equal(grid.argmins[0, 0], y)
        assert grid.radius_used[0] == mu_radius(S, datum, 0.5) * 0.5
        # the kept solve is exactly a fresh inner solve from the argmin
        fresh = fundamental_direct(S, 0.5, y, np.array(x), float(datum(y)),
                                   segments=FAST.segments, opt=FAST.opt)
        for kept in (grid.results[0][0], best):
            assert kept.A == fresh.A == val
            assert np.array_equal(kept.minimizer.nodes, fresh.minimizer.nodes)
            assert np.array_equal(kept.trajectory.samples, fresh.trajectory.samples)


def test_grid_zero_datum_is_zero():
    S = quadratic_system()
    grid = solve_value_grid(S, datum_constant(0.0), [0.5, 1.0],
                            np.linspace(-1, 1, 5)[:, None], FAST)
    assert np.max(np.abs(grid.values)) <= 1e-9


def test_grid_order_invariance():
    S = quadratic_system()
    datum = datum_sin()
    pts = np.linspace(-1, 1, 5)[:, None]
    g1 = solve_value_grid(S, datum, [0.5], pts, FAST)
    g2 = solve_value_grid(S, datum, [0.5], pts[::-1].copy(), FAST)
    assert np.max(np.abs(g1.values[0] - g2.values[0][::-1])) <= 1e-12


def test_grid_validates_inputs():
    S = quadratic_system()
    with pytest.raises(PreconditionError):
        solve_value_grid(S, datum_sin(), [1.0, 0.5], np.array([[0.0]]), FAST)
    with pytest.raises(PreconditionError):
        solve_value_grid(S, datum_sin(), [0.5], np.array([0.0]), FAST)


# ---------------------------------------------------------------------------
# PDE residual
# ---------------------------------------------------------------------------

def _lattice_grid(S, datum, times, xs, search):
    pts = xs[:, None]
    return solve_value_grid(S, datum, times, pts, search, axes=[xs])


def test_pde_residual_zero_datum():
    S = quadratic_system()
    xs = np.linspace(-1, 1, 5)
    grid = _lattice_grid(S, datum_constant(0.0), [0.4, 0.5, 0.6], xs, FAST)
    rep = pde_residual(S, grid)
    assert rep.median <= 1e-9
    assert rep.p90 <= 1e-9


def test_pde_residual_linear_datum_smooth_region():
    # u = a x - a^2 t / 2 exactly: centered differences see zero residual
    S = quadratic_system()
    datum = datum_linear_window(0.7)
    xs = np.linspace(-1, 1, 5)
    grid = _lattice_grid(S, datum, [0.25, 0.3, 0.35], xs, FAST)
    rep = pde_residual(quadratic_hamiltonian(), grid)
    assert rep.median <= 1e-5


def test_pde_residual_linear_datum_on_a_2d_lattice():
    # u = a x_1 - a^2 t / 2 exactly, so every interior point sees zero residual
    xs = np.linspace(-1, 1, 4)
    pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    search = SearchParams(segments=4, grid_points=7, opt=OptimizerParams(substeps=2))
    grid = solve_value_grid(quadratic_system(2), datum_linear_window(0.7), [0.25, 0.3, 0.35],
                            pts, search, axes=[xs, xs])
    rep = pde_residual(quadratic_hamiltonian(2), grid)
    assert rep.residuals.shape == (1, 2, 2)
    assert rep.p90 <= 1e-8


def test_pde_residual_decreases_under_refinement():
    S = quadratic_system()
    datum = datum_sin()
    coarse = _lattice_grid(S, datum, [0.4, 0.5, 0.6], np.linspace(-1, 1, 9), FAST)
    fine = _lattice_grid(S, datum, [0.45, 0.5, 0.55], np.linspace(-1, 1, 17), FAST)
    rc = pde_residual(S, coarse)
    rf = pde_residual(S, fine)
    assert rf.median <= rc.median / 2.0


def test_pde_residual_requires_uniform_lattice():
    S = quadratic_system()
    xs = np.linspace(-1, 1, 5)
    grid = _lattice_grid(S, datum_constant(0.0), [0.4, 0.5, 0.6], xs, FAST)
    grid.axes = [np.array([0.0, 0.1, 0.5, 1.0, 2.0])]
    with pytest.raises(PreconditionError):
        pde_residual(S, grid)


def test_quartic_kernel_against_dense_bruteforce():
    # plain quartic action gives the kernel (x - y)^4 / (4 t^3)
    from contact_hj import quartic_system
    S = quartic_system()
    t, x = 0.8, 0.2
    y = np.arange(-10, 10 + 1e-4, 1e-4)
    oracle = float(np.min(np.sin(y) + (x - y) ** 4 / (4.0 * t ** 3)))
    val, _, _ = solve_value(S, datum_sin(), t, x,
                            SearchParams(segments=8, grid_points=21, ytol=1e-7,
                                         opt=OptimizerParams(substeps=2)))
    assert abs(val - oracle) <= 1e-4


# ---------------------------------------------------------------------------
# two spatial dimensions
# ---------------------------------------------------------------------------

def test_solve_value_2d_against_dense_bruteforce():
    S = quadratic_system(dim=2)
    datum = datum_cos_bump()
    t, x = 0.5, np.array([0.5, 0.0])
    # oracle: dense lattice minimization of phi(y) + |x - y|^2/(2t)
    g = np.arange(-2.5, 2.5 + 5e-3, 5e-3)
    Y1, Y2 = np.meshgrid(g, g, indexing="ij")
    pts = np.stack([Y1, Y2], axis=-1)
    vals = datum(pts) + ((pts[..., 0] - x[0]) ** 2 + (pts[..., 1] - x[1]) ** 2) / (2 * t)
    oracle = float(vals.min())
    search = SearchParams(segments=8, grid_points=13, ytol=1e-6,
                          refine_sweeps=3, opt=OptimizerParams(substeps=2))
    val, y_star, _ = solve_value(S, datum, t, x, search)
    assert abs(val - oracle) <= 2e-4
    assert np.linalg.norm(y_star - x) <= mu_radius(S, datum, t) * t + 1e-6


def test_pde_residual_2d_constant_datum():
    S = quadratic_system(dim=2)
    xs = np.linspace(-1, 1, 4)
    ys = np.linspace(-1, 1, 4)
    pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    grid = solve_value_grid(S, datum_constant(0.3), [0.4, 0.5, 0.6], pts,
                            SearchParams(segments=4, grid_points=7, ytol=1e-6,
                                         opt=OptimizerParams(substeps=2)),
                            axes=[xs, ys])
    rep = pde_residual(S, grid)
    assert rep.median <= 1e-8
    assert rep.residuals.shape == (1, 2, 2)


# ---------------------------------------------------------------------------
# search quality
# ---------------------------------------------------------------------------

def test_doubling_grid_never_degrades_minimum():
    S = quadratic_system()
    datum = datum_sin()
    base = SearchParams(segments=8, grid_points=17, ytol=1e-7,
                        opt=OptimizerParams(substeps=2))
    fine = SearchParams(segments=8, grid_points=34, ytol=1e-7,
                        opt=OptimizerParams(substeps=2))
    for (t, x) in [(0.5, 0.0), (1.0, 1.3)]:
        v1, _, _ = solve_value(S, datum, t, x, base)
        v2, _, _ = solve_value(S, datum, t, x, fine)
        assert v2 <= v1 + 1e-8


# ---------------------------------------------------------------------------
# initial condition
# ---------------------------------------------------------------------------

def test_initial_gap_constant_datum_is_zero():
    S = quadratic_system()
    rep = initial_condition_check(S, datum_constant(0.4), 0.0,
                                  [0.2, 0.1, 0.05], FAST)
    assert np.max(rep.gaps) <= 1e-9
    assert rep.decay_ok


def test_initial_gap_hopf_lax_linear_rate():
    # min_y sin y + (y-x)^2/(2t) >= sin x - t/2 and u <= phi(x): gap <= t/2
    S = quadratic_system()
    rep = initial_condition_check(S, datum_sin(), 0.3,
                                  [0.2, 0.1, 0.05, 0.025], FAST)
    assert np.all(rep.gaps <= rep.ts / 2.0 + 1e-9)
    assert rep.decay_ok
    assert rep.fitted_c2 >= 0.0
    assert np.all(rep.gaps <= rep.linear_bound + 1e-12)


def test_initial_gap_requires_decreasing_times():
    S = quadratic_system()
    with pytest.raises(PreconditionError):
        initial_condition_check(S, datum_sin(), 0.0, [0.1, 0.2], FAST)


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------

def test_datum_validate_accepts_honest_constants():
    assert datum_sin().validate([(-3.0, 3.0)])
    assert datum_cos_bump().validate([(-4.0, 4.0)])
    assert datum_quadratic_window(5.0).validate([(-6.0, 6.0)])


def test_datum_validate_rejects_lying_lipschitz():
    cheat = InitialDatum(phi=lambda y: np.sin(y[..., 0]), lip=0.5, sup_abs=1.0)
    assert not cheat.validate([(-3.0, 3.0)])


def test_builtin_datum_ids():
    assert builtin_datum("sin").lip == 1.0
    assert builtin_datum("constant(0.25)").sup_abs == 0.25
    assert builtin_datum("cos-bump").sup_abs == 1.0
    with pytest.raises(PreconditionError):
        builtin_datum("step")
    with pytest.raises(PreconditionError):
        builtin_datum("constant")
    # an id that takes no argument refuses one instead of ignoring it
    with pytest.raises(PreconditionError, match="takes no argument"):
        builtin_datum("sin(2)")


def test_cos_bump_is_continuous_at_support_edge():
    datum = datum_cos_bump()
    edge = np.array([[np.pi]])
    assert abs(datum(edge)[0]) <= 1e-12
    assert datum(edge * 1.01)[0] == 0.0


def test_winning_solve_converges_where_far_screen_lanes_do_not():
    # the ball radius mu(t) t is 123, and half of the screen's lanes (the
    # far ones) end unconverged on the noise floor; the value comes from a
    # lane that meets the convergence contract
    val, y_star, best = solve_value(trig_contact_system(), datum_sin(), 1.5, [0.3],
                                    SearchParams(segments=6, grid_points=7))
    assert best.converged and best.A == val
    assert abs(y_star[0] - 0.3) < 1.0


def test_winning_solves_of_the_readme_sample_converge():
    search = SearchParams(segments=16, grid_points=33, ytol=1e-6)
    grid = solve_value_grid(discounted_quadratic_system(0.5), datum_sin(), [0.5, 1.0],
                            np.linspace(-2.0, 2.0, 9)[:, None], search)
    assert all(res.converged for row in grid.results for res in row)
    assert np.array_equal(grid.values, [[res.A for res in row] for row in grid.results])


def test_a_value_point_takes_at_most_four_refinement_rounds(monkeypatch):
    # value points like those of the solve benchmark's panels: a parabola
    # through a round's best point and its neighbours places the next round
    # near y*, so a point takes 3 or 4 rounds where bracket rounds that
    # shrink (K + 1) / 2 times took 5 or 6
    batches = []
    lockstep = value._direct_lockstep
    monkeypatch.setattr(value, "_direct_lockstep",
                        lambda S, t, ys, *rest: batches.append(len(ys))
                        or lockstep(S, t, ys, *rest))
    S, search = discounted_quadratic_system(1.0), SearchParams(segments=8, grid_points=17)
    rounds = []
    for t in (0.3875, 0.7375):
        for x in (-1.3, 0.2, 1.7):
            batches.clear()
            solve_value(S, datum_sin(), t, [x], search)
            rounds.append(len(batches) - 1)  # after the screen
    assert max(rounds) <= 4, rounds


SEMIGROUP = {"trig-contact": trig_contact_system(),
             "discounted-quadratic": discounted_quadratic_system(1.0)}


@pytest.mark.parametrize("name", list(SEMIGROUP))
def test_value_semigroup_of_the_discrete_scheme(name):
    # T_t^N T_t^N phi = T_2t^2N phi exactly for the discrete scheme: the
    # segments have the same length and substeps, and the node at time t is
    # free in both; a search that misses its minimum shows as a gap.  The
    # bound is about ten times the larger gap that the search read when its
    # rounds shrank the bracket (K + 1) / 2 times: 1.1e-10 on trig-contact
    # and 9.5e-12 on discounted-quadratic
    S, datum, t, x = SEMIGROUP[name], datum_sin(), 0.3, 0.4
    half = SearchParams(segments=8, grid_points=9, ytol=1e-4)

    def phi(y):
        flat = np.reshape(y, (-1, S.dim))
        return np.reshape([solve_value(S, datum, t, yy, half)[0] for yy in flat],
                          np.shape(y)[:-1])

    inner = InitialDatum(phi=phi, lip=1.5, sup_abs=1.5, name="T_t sin")
    radius = mu_radius(S, inner, t) * t
    assert inner.validate([(x - radius, x + radius)], samples=4)
    composed = solve_value(S, inner, t, [x], half)[0]
    direct = solve_value(S, datum, 2.0 * t, [x],
                         SearchParams(segments=16, grid_points=9, ytol=1e-4))[0]
    assert abs(composed - direct) <= 1e-9
