"""Cost integration along curves: closed forms, order, ordering, bounds."""

import numpy as np
import pytest

from contact_hj import (ContactSystem, Curve, HamiltonianSystem,
                        MonotonicityViolation, Overflow, cost_comparison,
                        discounted_quadratic_system, fundamental_exponential,
                        integrate_cost, integrate_cost_backward,
                        quadratic_system, shoot, trig_contact_system)
from contact_hj.cost_ode import CostTrajectory, assert_ordered


def test_constant_curve_linear_decay():
    # u' = -u from u(0) = 1: u(1) = 1/e
    S = discounted_quadratic_system(1.0)
    xi = Curve.straight(0.5, 0.5, 1.0, 4)
    traj = integrate_cost(S, xi, 1.0, substeps_per_segment=16)
    assert abs(traj.final - np.exp(-1.0)) <= 1e-9


def test_straight_line_plain_action():
    # constant integrand |xi'|^2/2 = 1/2: RK4 is exact
    S = quadratic_system()
    xi = Curve.straight(0.0, 1.0, 1.0, 4)
    traj = integrate_cost(S, xi, 0.0)
    assert abs(traj.final - 0.5) <= 1e-13


def test_straight_line_discounted_closed_form():
    # u' = -u + 1/2 from 0: u(1) = (1 - e^{-1})/2 = 0.31606027941427883
    S = discounted_quadratic_system(1.0)
    xi = Curve.straight(0.0, 1.0, 1.0, 16)
    traj = integrate_cost(S, xi, 0.0, substeps_per_segment=4)
    assert abs(traj.final - 0.31606027941427883) <= 1e-9


def test_initial_sample_exact():
    S = trig_contact_system()
    xi = Curve.straight(-1.0, 2.0, 0.7, 5)
    traj = integrate_cost(S, xi, 0.37)
    assert traj.samples[0] == 0.37
    assert traj.u0 == 0.37


def test_increment_consistency_with_local_supremum():
    # |du| between samples is at most ds * sup |L| over the bracket
    S = trig_contact_system()
    rng = np.random.default_rng(5)
    nodes = np.cumsum(rng.uniform(-0.5, 0.5, (9, 1)), axis=0)
    xi = Curve(1.3, nodes)
    traj = integrate_cost(S, xi, 0.2, substeps_per_segment=4)
    ds = traj.times[1] - traj.times[0]
    vel = xi.velocities
    m = 4
    for i in range(len(traj.samples) - 1):
        seg = min(i // m, xi.segments - 1)
        probes = np.linspace(traj.times[i], traj.times[i + 1], 5)
        pos = xi.position(probes)
        us = np.linspace(traj.samples[i], traj.samples[i + 1], 5)
        sup_L = np.max(np.abs(S.L(pos, us, np.broadcast_to(vel[seg], pos.shape))))
        assert abs(traj.samples[i + 1] - traj.samples[i]) <= ds * sup_L * (1 + 1e-6) + 1e-12


def test_rk4_order_on_smooth_system():
    # doubling the substep count shrinks the error ~16x
    S = discounted_quadratic_system(1.0)
    xi = Curve.straight(0.5, 0.5, 1.0, 2)
    exact = np.exp(-1.0)
    errs = []
    for m in (1, 2, 4):
        errs.append(abs(integrate_cost(S, xi, 1.0, m).final - exact))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 8.0 <= r1 <= 24.0
    assert 8.0 <= r2 <= 24.0


def test_value_free_lagrangian_reduces_to_action_integral():
    S = quadratic_system()
    rng = np.random.default_rng(9)
    nodes = np.cumsum(rng.uniform(-1, 1, (7, 1)), axis=0)
    xi = Curve(0.9, nodes)
    traj = integrate_cost(S, xi, 1.7)
    action = float(np.sum(np.sum(xi.velocities ** 2, axis=-1)) * (0.9 / 6) / 2)
    assert abs((traj.final - 1.7) - action) <= 1e-12


def test_gronwall_envelope():
    # |u(s) - u0| <= exp(K s) * int_0^s |L(xi, u0, xi')|
    S = trig_contact_system()
    rng = np.random.default_rng(21)
    nodes = np.cumsum(rng.uniform(-0.7, 0.7, (9, 1)), axis=0)
    xi = Curve(1.1, nodes)
    u0 = 0.4
    traj = integrate_cost(S, xi, u0, substeps_per_segment=4)
    pos = xi.position(traj.times)
    seg = np.minimum((traj.times / 1.1 * xi.segments).astype(int), xi.segments - 1)
    vels = xi.velocities[seg]
    integrand = np.abs(S.L(pos, np.full(len(traj.times), u0), vels))
    for idx in range(1, len(traj.times)):
        s = traj.times[idx]
        integral = np.trapezoid(integrand[:idx + 1], traj.times[:idx + 1])
        bound = integral * np.exp(S.K * s)
        assert abs(traj.samples[idx] - u0) <= bound * (1 + 1e-6) + 1e-9


def test_comparison_identical_initial_values():
    S = discounted_quadratic_system(0.5)
    xi = Curve.straight(0.0, 1.0, 1.0, 6)
    w = cost_comparison(S, xi, 0.3, 0.3)
    assert np.array_equal(w.low.samples, w.high.samples)


def test_comparison_gap_decays_at_discount_rate():
    # linear ODE in u: gap(s) = e^{-lam s} * (u_high - u_low)
    lam = 1.0
    S = discounted_quadratic_system(lam)
    xi = Curve.straight(0.0, 1.0, 1.0, 8)
    w = cost_comparison(S, xi, 0.0, 1.0, substeps_per_segment=8)
    gap = w.high.samples - w.low.samples
    expected = np.exp(-lam * w.low.times)
    assert np.max(np.abs(gap - expected)) <= 1e-9


def test_comparison_gap_bracket_attained_by_extremal_systems():
    # L_u = +K grows the gap at exactly e^{+Ks}; L_u = -K shrinks it at e^{-Ks}
    K = 0.8
    grow = ContactSystem(
        dim=1,
        lagrangian=lambda x, u, v: K * np.asarray(u, float) + 0.5 * np.sum(np.asarray(v, float) ** 2, axis=-1),
        K=K, theta0=lambda r: 0.5 * np.asarray(r, float) ** 2,
        theta0_bar=lambda r: 0.5 * np.asarray(r, float) ** 2, c0=0.0)
    xi = Curve.straight(0.0, 0.5, 1.0, 8)
    w = cost_comparison(grow, xi, -0.2, 0.4, substeps_per_segment=8)
    gap = w.high.samples - w.low.samples
    assert np.max(np.abs(gap - 0.6 * np.exp(K * w.low.times))) <= 1e-9
    shrink = discounted_quadratic_system(K)
    w2 = cost_comparison(shrink, xi, -0.2, 0.4, substeps_per_segment=8)
    gap2 = w2.high.samples - w2.low.samples
    assert np.max(np.abs(gap2 - 0.6 * np.exp(-K * w2.low.times))) <= 1e-9


def test_comparison_rejects_swapped_inputs():
    from contact_hj import PreconditionError
    S = quadratic_system()
    xi = Curve.straight(0.0, 1.0, 1.0, 4)
    with pytest.raises(PreconditionError):
        cost_comparison(S, xi, 1.0, 0.0)


def test_ordering_check_raises_on_crossed_trajectories():
    times = np.linspace(0.0, 1.0, 5)
    low = CostTrajectory(times=times, samples=np.array([0.0, 0.1, 0.2, 0.3, 0.4]), u0=0.0)
    high = CostTrajectory(times=times, samples=np.array([0.1, 0.15, 0.19, 0.3, 0.4]), u0=0.1)
    with pytest.raises(MonotonicityViolation):
        assert_ordered(low, high, tol=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_guard():
    # u' = u^2 from u(0)=10 blows up before s=1
    def runaway(x, u, v):
        with np.errstate(over="ignore"):
            return np.asarray(u, float) ** 2 + 0.0 * np.sum(np.asarray(v, float), axis=-1)

    bad = ContactSystem(dim=1, lagrangian=runaway,
                        K=0.0, theta0=lambda r: np.asarray(r, float) * 0.0,
                        theta0_bar=lambda r: np.asarray(r, float) * 0.0 + 1.0, c0=0.0)
    xi = Curve.straight(0.0, 0.0, 1.0, 8)
    with pytest.raises(Overflow):
        integrate_cost(bad, xi, 10.0)
    with pytest.raises(Overflow):
        fundamental_exponential(bad, xi, 10.0)  # L_u by finite differences

    # characteristics: u' = <p, H_p> - H = u^2 while p stays 0
    def ham(x, u, p):
        with np.errstate(over="ignore"):
            return 0.5 * np.sum(np.asarray(p, float) ** 2, axis=-1) - np.asarray(u, float) ** 2

    bad_h = HamiltonianSystem(dim=1, hamiltonian=ham, K=0.0,
                              H_x=lambda x, u, p: np.zeros_like(np.asarray(p, float)),
                              H_u=lambda x, u, p: -2.0 * np.asarray(u, float),
                              H_p=lambda x, u, p: np.asarray(p, float).copy())
    with pytest.raises(Overflow):
        shoot(bad_h, 1.0, 0.0, 10.0, 0.0)


def test_backward_integration_roundtrip():
    S = trig_contact_system()
    rng = np.random.default_rng(3)
    nodes = np.cumsum(rng.uniform(-0.5, 0.5, (7, 1)), axis=0)
    xi = Curve(0.8, nodes)
    fwd = integrate_cost(S, xi, 0.25, substeps_per_segment=8)
    back = integrate_cost_backward(S, xi, fwd.final, substeps_per_segment=8)
    assert back.direction == "backward"
    assert np.max(np.abs(back.samples - fwd.samples)) <= 1e-9


def test_curve_helpers():
    xi = Curve.straight(np.array([0.0, 1.0]), np.array([2.0, -1.0]), 2.0, 4)
    assert xi.dim == 2 and xi.segments == 4
    assert np.allclose(xi.position(1.0), [1.0, 0.0])
    v = xi.velocities
    assert np.allclose(v, np.tile([[1.0, -1.0]], (4, 1)))
    z = xi.interior
    xi2 = xi.with_interior(z + 0.5)
    assert np.allclose(xi2.nodes[1:-1], xi.nodes[1:-1] + 0.5)
    assert np.allclose(xi2.nodes[[0, -1]], xi.nodes[[0, -1]])
