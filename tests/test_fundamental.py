"""Fundamental solutions: direct minimization, characteristics, identities."""

import numpy as np
import pytest
from conftest import disc_A, disc_p0, rel, stack_lanes, straight_starts
from hypothesis import given, settings
from hypothesis import strategies as st

from contact_hj import (ContactSystem, Curve, HamiltonianSystem, NoRootFound,
                        OptimizerParams, PreconditionError, SearchParams, datum_sin,
                        discounted_quadratic_hamiltonian,
                        discounted_quadratic_system, fundamental_direct,
                        fundamental_exponential, fundamental_shooting,
                        herglotz_residual, integrate_cost, lie_step_field,
                        quadratic_hamiltonian, quadratic_system,
                        quartic_system, shoot, solve_value, speed_envelope_check,
                        trig_contact_system, verify_conditions)
from contact_hj import SampleBox, cost_ode, fundamental, perturbed_system
from contact_hj._util import golden_min
from contact_hj.cost_ode import integrate_cost_many
from contact_hj.fundamental import (DECREASE_TOL, FD_STEP, CharacteristicState,
                                    _direct_lockstep, _precondition)


@pytest.fixture(scope="module")
def disc_direct_64():
    """Shared N=64 direct solve of the discounted reference problem."""
    S = discounted_quadratic_system(1.0)
    return S, fundamental_direct(S, 1.0, 0.0, 1.0, 2.0, segments=64,
                                 opt=OptimizerParams(substeps=2))


# ---------------------------------------------------------------------------
# direct minimization
# ---------------------------------------------------------------------------

def test_direct_quadratic_straight_line():
    S = quadratic_system()
    r = fundamental_direct(S, 1.0, 0.0, 1.0, 0.0, segments=16)
    assert abs(r.A - 0.5) <= 1e-9
    assert abs(r.h - 0.5) <= 1e-9
    straight = np.linspace(0, 1, 17)[:, None]
    assert np.max(np.abs(r.minimizer.nodes - straight)) <= 1e-6
    assert r.converged


def test_direct_discounted_matches_closed_form(disc_direct_64):
    _, r = disc_direct_64
    assert rel(r.A, disc_A(1.0, 1.0, 1.0, 2.0)) <= 1e-4
    assert r.converged


def test_direct_rest_point_when_endpoints_coincide():
    S = discounted_quadratic_system(1.0)
    r = fundamental_direct(S, 1.0, 0.0, 0.0, 1.0, segments=16)
    assert abs(r.A - np.exp(-1.0)) <= 1e-9
    assert np.max(np.abs(r.minimizer.nodes)) <= 1e-6


def _straight_direct(S, t, x, y, u, segments, opt):
    """The lone lane of `fundamental_direct`, started from its straight curve."""
    x, y, u = stack_lanes([(x, y, u)])
    return _direct_lockstep(S, t, x, y, u, segments, opt,
                            straight_starts(x, y, segments)).result(0)


def test_direct_result_identity_and_history(disc_direct_64):
    # the cold lane starts on its minimizer; from a straight curve it iterates
    S, cold = disc_direct_64
    straight = _straight_direct(S, 1.0, 0.0, 1.0, 2.0, 64, OptimizerParams(substeps=2))
    assert straight.iterations >= 1
    for r in (cold, straight):
        assert r.A - r.h == 2.0  # exact by construction
        hist = r.objective_history
        assert hist[0] >= hist[-1]
        assert abs(hist[-1] - r.A) <= 1e-12
        assert np.array_equal(r.minimizer.nodes[[0, -1]], [[0.0], [1.0]])


def test_direct_minimizer_survives_random_perturbations(disc_direct_64):
    # local-minimality certificate: no perturbed curve beats the minimizer,
    # and no curve undercuts the continuum closed form.
    S, r = disc_direct_64
    rng = np.random.default_rng(17)
    base = r.minimizer.nodes[None]  # (1, 65, 1)
    ensembles = []
    for scale in (0.3, 0.03, 0.003):
        noise = rng.standard_normal((700, 65, 1)) * scale
        noise[:, 0] = 0.0
        noise[:, -1] = 0.0
        ensembles.append(base + noise)
    nodes = np.concatenate(ensembles, axis=0)
    finals = integrate_cost_many(S, 1.0, nodes, 2.0, 2)[:, -1]
    assert finals.min() >= r.A - 1e-9
    assert finals.min() >= disc_A(1.0, 1.0, 1.0, 2.0) - 1e-6


def test_a_lane_that_stops_on_its_start_curve_builds_no_metric(monkeypatch):
    # a lane started on a converged minimizer stops on its first point with
    # it, bitwise, and factors no matrix; a cold lane beside it still
    # builds its own metric and ends on the lone solve from that curve (the
    # straight one: a cold discounted lane would start on its minimizer)
    S, t, opt = discounted_quadratic_system(1.0), 0.8, OptimizerParams(substeps=2)
    cold = _straight_direct(S, t, 0.0, 1.0, 0.5, 8, opt)
    assert cold.converged
    built, precondition = [], fundamental._precondition

    def spy(S, t, x, *rest):
        built.append(len(x))  # the lanes whose metric is built
        return precondition(S, t, x, *rest)

    monkeypatch.setattr(fundamental, "_precondition", spy)
    start = np.stack([cold.minimizer.nodes[1:-1], Curve.straight(0.0, 1.0, t, 8).nodes[1:-1]])
    lanes = _direct_lockstep(S, t, *stack_lanes([(0.0, 1.0, 0.5)] * 2), 8, opt, start)
    assert built == [1]
    assert list(lanes.iterations) == [0, cold.iterations]
    for k in range(2):
        assert lanes.A[k] == cold.A
        assert np.array_equal(lanes.nodes[k], cold.minimizer.nodes)
        assert np.array_equal(lanes.samples[k], cold.trajectory.samples)


def test_direct_preconditions():
    S = quadratic_system()
    with pytest.raises(PreconditionError):
        fundamental_direct(S, 1e-7, 0.0, 1.0, 0.0)
    with pytest.raises(PreconditionError):
        fundamental_direct(S, 1.0, 0.0, 1.0, 0.0, segments=1)
    with pytest.raises(PreconditionError):
        fundamental_direct(S, 1.0, 0.0, 1.0, np.inf)
    for substeps in (0, -1):  # the cost sweep refuses them before any lane array is sized
        with pytest.raises(PreconditionError):
            fundamental_direct(S, 1.0, 0.0, 1.0, 0.0, opt=OptimizerParams(substeps=substeps))


SEMIGROUP_XTOL = 1e-6


@settings(max_examples=12, deadline=None, derandomize=True)
@given(lam=st.floats(0.25, 2.0), h=st.floats(0.1, 0.3), n_t=st.integers(2, 4),
       n_s=st.integers(2, 4), x=st.floats(-1.5, 1.5), y=st.floats(-1.5, 1.5),
       u=st.floats(-2.0, 2.0))
def test_direct_semigroup(lam, h, n_t, n_s, x, y, u):
    # A_{t+s}(x, y, u) = min_z A_s(z, y, A_t(x, z, u)).  With both legs on
    # the step h of the whole horizon, the discrete problems obey it
    # exactly: the two legs glued at z are the (t+s)-curves with node z at
    # time t, and the cost ODE's RK4 flow composes.  What separates the two
    # sides is golden's resolution of z, whose cost is the curvature of
    # z -> A_s(z, y, A_t(x, z, u)) from the closed form (disc_A is
    # e^{-lam t} u + disc_A(lam, t, 1, 0) d^2), plus each of the three
    # solves' stopping tolerance.
    S = discounted_quadratic_system(lam)
    opt = OptimizerParams()
    t, s = n_t * h, n_s * h

    def glued(z):
        inner = fundamental_direct(S, t, x, z, u, segments=n_t, opt=opt).A
        return fundamental_direct(S, s, z, y, inner, segments=n_s, opt=opt).A

    whole = fundamental_direct(S, t + s, x, y, u, segments=n_t + n_s, opt=opt).A
    _, best = golden_min(glued, min(x, y) - 0.5, max(x, y) + 0.5, xtol=SEMIGROUP_XTOL)
    kappa = 2.0 * (np.exp(-lam * s) * disc_A(lam, t, 1.0, 0.0) + disc_A(lam, s, 1.0, 0.0))
    tol = 0.5 * kappa * SEMIGROUP_XTOL ** 2 + 3.0 * DECREASE_TOL
    assert abs(whole - best) <= tol


def test_direct_quartic_constant_speed():
    # straight constant-speed travel is exactly optimal: A = d^4 / (4 t^3)
    S = quartic_system()
    r = fundamental_direct(S, 2.0, 0.0, 1.0, 0.0, segments=16)
    assert abs(r.A - 1.0 / 32.0) <= 1e-10
    assert r.converged


def test_direct_exhausted_iterations_raise():
    from contact_hj import NonConvergence
    S = discounted_quadratic_system(1.0)
    with pytest.raises(NonConvergence):  # straight: the cold start is the minimizer
        _straight_direct(S, 1.0, 0.0, 1.0, 0.0, 32, OptimizerParams(max_iter=1))


def test_direct_converges_on_the_panel_point_that_stalled_in_node_coordinates(monkeypatch):
    # a point of the benchmark's seed-1 `fundamental` panel: in node
    # coordinates L-BFGS-B stopped there unconverged after 76 iterations
    sweeps = []
    monkeypatch.setattr(fundamental, "integrate_cost_many",
                        lambda *a: sweeps.append(1) or integrate_cost_many(*a))
    S = discounted_quadratic_system(0.5)
    t, x, y, u = 0.59375, -0.7116807745607325, 0.8237840995400376, 4.653245874281547
    r = fundamental_direct(S, t, x, y, u, segments=64)
    assert r.converged
    assert rel(r.A, disc_A(0.5, t, y - x, u)) <= 1e-4
    # the starting curve, one accepted unit step, and one trial whose
    # predicted decrease is below tol, which ends the lane on a null
    # iteration (the bound was 8 sweeps under L-BFGS-B)
    assert len(sweeps) <= 3


def test_direct_strong_discount_converges_in_a_few_iterations():
    # 465 iterations in node coordinates: the weight exp(-4 (t - s)) spans e^8
    S = discounted_quadratic_system(4.0)
    r = fundamental_direct(S, 2.0, 0.0, 3.0, 0.0, segments=64,
                           opt=OptimizerParams(substeps=2))
    assert r.converged
    assert r.iterations <= 5
    assert rel(r.A, disc_A(4.0, 2.0, 3.0, 0.0)) <= 1e-4


def test_direct_lane_at_its_optimum_stops_after_one_evaluation(monkeypatch):
    sweeps = []

    def spy(*args):
        sweeps.append(args[2].shape[0])
        return integrate_cost_many(*args)

    monkeypatch.setattr(fundamental, "integrate_cost_many", spy)
    r = fundamental_direct(quadratic_system(), 1.0, 0.0, 1.0, 0.0, segments=16)
    assert r.converged
    assert r.iterations == 0
    assert len(r.objective_history) == 1
    assert sweeps == [31]  # one evaluation: the point and its 2D central differences


def _node_gradient_norm(S, t, res, u, opt):
    """Norm of the central-difference node gradient at a 1-D result's
    minimizer, from the same sweep rows the driver evaluates."""
    z = res.minimizer.interior
    eye = np.eye(z.size) * FD_STEP
    nodes = np.repeat(res.minimizer.nodes[None], 2 * z.size + 1, axis=0)
    nodes[:, 1:-1, 0] = np.vstack([z[None], z[None] + eye, z[None] - eye])
    finals = integrate_cost_many(S, t, nodes, u, opt.substeps)[:, -1]
    return float(np.linalg.norm((finals[1:z.size + 1] - finals[z.size + 1:])
                                / (2.0 * FD_STEP)))


def test_direct_noise_floor_ends_the_lane_on_a_null_iteration(monkeypatch):
    # gtol 1e-12 lies below the finite-difference noise of the gradient, so
    # no iterate meets it.  Once a trial step fails Armijo's condition with
    # a predicted decrease below tol, the lane ends on a null iteration that
    # repeats the objective, without halving the step on noise: one sweep
    # per iteration, the null one included, after the first point's.  The
    # lane starts straight, since a cold one starts on its minimizer
    sweeps = []
    monkeypatch.setattr(fundamental, "integrate_cost_many",
                        lambda *a: sweeps.append(1) or integrate_cost_many(*a))
    S, t, x, u = discounted_quadratic_system(0.1), 0.5, -1.2, -0.9
    opt = OptimizerParams(substeps=2, gtol=1e-12)
    r = _straight_direct(S, t, x, 0.0, u, 8, opt)
    hist = r.objective_history
    assert hist[-1] == hist[-2] == r.A
    assert len(hist) == r.iterations + 1
    assert 1 < r.iterations < opt.max_iter
    assert len(sweeps) == r.iterations + 1
    assert not r.converged
    # the curve is where the default gtol holds: only the tight gtol failed
    assert opt.gtol <= _node_gradient_norm(S, t, r, u, opt) < OptimizerParams().gtol


def test_direct_quartic_rest_lane_keeps_node_coordinates():
    # L_vv = 3 v^2 vanishes on the straight curve from x to x, so its metric
    # P is zero; that lane uses R = I while the other lane keeps its metric
    S, N, t = quartic_system(), 16, 1.0
    ends = [(0.5, 0.5, 0.0), (0.0, 1.0, 0.0)]
    xs, ys = np.array([[x] for x, _, _ in ends]), np.array([[y] for _, y, _ in ends])
    nodes = np.stack([Curve.straight(x, y, t, N).nodes for x, y, _ in ends])
    Rinv = _precondition(S, t, xs, ys, integrate_cost_many(S, t, nodes, 0.0, 2), N, 2)
    assert np.array_equal(Rinv[0], np.eye(N - 1))
    assert not np.array_equal(Rinv[1], np.eye(N - 1))
    lanes = _direct_lockstep(S, t, *stack_lanes(ends), N, OptimizerParams(substeps=2))
    assert lanes.converged[0] and lanes.A[0] == 0.0
    assert lanes.converged[1]
    assert abs(lanes.A[1] - 0.25) <= 1e-9  # |v|^4 / 4 at v = 1 over t = 1


SYSTEMS = [discounted_quadratic_system(0.5), discounted_quadratic_system(2.0),
           trig_contact_system(), perturbed_system(0.3)]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(system=st.sampled_from(SYSTEMS), t=st.floats(0.4, 1.2),
       x=st.floats(-1.0, 1.0), d=st.floats(-1.5, 1.5), u1=st.floats(-2.0, 2.0),
       gap=st.floats(0.0, 2.0))
def test_direct_comparison_principle(system, t, x, d, u1, gap):
    """u1 <= u2 implies A(t, x, y, u1) <= A(t, x, y, u2): the cost ODE is
    monotone in its initial value along every curve, so is its minimum."""
    opt = OptimizerParams(substeps=2)
    low = fundamental_direct(system, t, x, x + d, u1, segments=8, opt=opt)
    high = fundamental_direct(system, t, x, x + d, u1 + gap, segments=8, opt=opt)
    assert low.A <= high.A + 1e-9


def _user_system(lagrangian, K):
    return ContactSystem(dim=1, lagrangian=lagrangian, K=K,
                         theta0=lambda r: 0.5 * np.asarray(r, float) ** 2,
                         theta0_bar=lambda r: 0.5 * np.asarray(r, float) ** 2 + 10.0,
                         c0=10.0)


def _half_sq(v):
    return 0.5 * np.add.reduce(np.asarray(v, float) ** 2, axis=-1)


SIN_2X = _user_system(lambda x, u, v: _half_sq(v) + 3.0 * np.sin(2.0 * np.asarray(x)[..., 0]),
                      0.0)
SIN_X = _user_system(lambda x, u, v: _half_sq(v) + 10.0 * np.sin(np.asarray(x)[..., 0]), 0.0)
TANH_U = _user_system(lambda x, u, v: _half_sq(v) + 2.0 * np.asarray(u, float)
                      * np.tanh(np.asarray(x)[..., 0]), 2.0)

# (system, t, segments, lanes (x, y, u), the earlier L-BFGS-B's iterations per lane)
STRESS = [
    (trig_contact_system(), 3.0, 64, [(0.0, 4.0, 0.0), (-1.0, 2.0, 0.5)], [9, 10]),
    (SIN_2X, 1.0, 32, [(0.0, 2.0, 0.0), (0.5, -1.0, 0.0)], [7, 7]),
    (SIN_2X, 2.0, 64, [(-1.0, 2.0, 0.0)], [14]),
    (SIN_X, 1.0, 32, [(0.0, 2.0, 0.0), (1.0, -1.0, 0.0)], [8, 8]),
    (TANH_U, 1.0, 32, [(-1.0, 1.5, 0.5), (0.0, 2.0, -1.0)], [9, 7]),
]


@pytest.mark.parametrize("S, t, N, ends, lbfgsb", STRESS,
                         ids=["trig-contact", "3sin2x-t1", "3sin2x-t2", "10sinx", "2u-tanhx"])
def test_direct_stress_batch_keeps_the_contract_in_few_iterations(S, t, N, ends, lbfgsb):
    # the Sobolev metric models L_vv only, and misses the Hessian of these
    # potentials, so the curvature memory must do the rest: every lane
    # converges within 2 iterations of what the earlier L-BFGS-B took,
    # where memoryless descent along -P^-1 g takes 11 to 265 iterations
    # and leaves three of the nine lanes unconverged
    opt = OptimizerParams()
    lanes = _direct_lockstep(S, t, *stack_lanes(ends), N, opt)
    for k, ((_, _, u), ref) in enumerate(zip(ends, lbfgsb)):
        nit = lanes.iterations[k]
        hist = lanes.history[k, :nit + 1]
        last = hist[-2] - hist[-1] if len(hist) >= 2 else 0.0
        small = _node_gradient_norm(S, t, lanes.result(k), u, opt) < opt.gtol
        assert lanes.converged[k] == (small and last < DECREASE_TOL)
        assert lanes.converged[k]
        assert nit <= ref + 2


def test_direct_propagates_cost_overflow():
    from contact_hj import NonConvergence, Overflow
    S = quartic_system()
    with pytest.raises(Overflow):
        fundamental_direct(S, 1.0, 0.0, 1e4, 0.0, segments=16)


# ---------------------------------------------------------------------------
# exponential-weight representation
# ---------------------------------------------------------------------------

def test_exponential_reduces_to_plain_action_when_value_free():
    S = quadratic_system()
    xi = Curve.straight(0.0, 1.0, 1.0, 8)
    val = fundamental_exponential(S, xi, 0.7)
    assert abs(val - (0.7 + 0.5)) <= 1e-12


def test_exponential_discounted_straight_line_closed_form():
    # weights e^{-lam (t-s)}: value (1 - e^{-1})/2 at u = 0
    S = discounted_quadratic_system(1.0)
    xi = Curve.straight(0.0, 1.0, 1.0, 16)
    val = fundamental_exponential(S, xi, 0.0, substeps_per_segment=8)
    assert abs(val - 0.31606027941427883) <= 1e-9


@pytest.mark.parametrize("make", [quadratic_system, quartic_system,
                                  trig_contact_system,
                                  lambda: discounted_quadratic_system(1.0)])
def test_exponential_equals_forward_integration_on_random_curves(make):
    S = make()
    rng = np.random.default_rng(23)
    for _ in range(5):
        nodes = np.cumsum(rng.uniform(-0.6, 0.6, (9, 1)), axis=0)
        xi = Curve(1.0, nodes)
        fwd = integrate_cost(S, xi, 0.7, substeps_per_segment=16).final
        expo = fundamental_exponential(S, xi, 0.7, substeps_per_segment=16)
        assert rel(expo, fwd) <= 1e-7


# ---------------------------------------------------------------------------
# characteristic system
# ---------------------------------------------------------------------------

def test_lie_field_rest_state():
    HS = discounted_quadratic_hamiltonian(1.0)
    dxi, dp, du = lie_step_field(HS, CharacteristicState(
        xi=np.array([0.0]), p=np.array([0.0]), u=1.0, s=0.0))
    assert np.allclose(dxi, 0.0) and np.allclose(dp, 0.0)
    assert abs(du - (-1.0)) <= 1e-14


def test_lie_field_free_motion():
    HS = quadratic_hamiltonian()
    dxi, dp, du = lie_step_field(HS, CharacteristicState(
        xi=np.array([0.0]), p=np.array([2.0]), u=0.0, s=0.0))
    assert abs(dxi[0] - 2.0) <= 1e-14
    assert abs(dp[0]) <= 1e-14
    assert abs(du - 2.0) <= 1e-14  # p^2 - p^2/2


def test_lie_field_discounted_plugin():
    HS = discounted_quadratic_hamiltonian(1.0)
    dxi, dp, du = lie_step_field(HS, CharacteristicState(
        xi=np.array([0.0]), p=np.array([1.0]), u=0.0, s=0.0))
    assert abs(dxi[0] - 1.0) <= 1e-14
    assert abs(dp[0] - (-1.0)) <= 1e-14
    assert abs(du - 0.5) <= 1e-14


def test_shoot_decoupled_decay():
    HS = discounted_quadratic_hamiltonian(1.0)
    end = shoot(HS, 1.0, 0.0, 1.0, 0.0, steps=128)
    assert np.allclose(end.xi, 0.0)
    assert np.allclose(end.p, 0.0)
    assert abs(end.u - np.exp(-1.0)) <= 1e-9


def test_shoot_straight_characteristic():
    HS = quadratic_hamiltonian()
    end = shoot(HS, 1.0, 0.0, 0.0, 1.0, steps=64)
    assert abs(end.xi[0] - 1.0) <= 1e-12
    assert abs(end.p[0] - 1.0) <= 1e-12
    assert abs(end.u - 0.5) <= 1e-12


def test_shoot_discounted_closed_form():
    # p(s) = e^{-s}, xi(s) = 1 - e^{-s}, u(s) = (e^{-s} - e^{-2s})/2
    HS = discounted_quadratic_hamiltonian(1.0)
    end = shoot(HS, 1.0, 0.0, 0.0, 1.0, steps=256)
    assert abs(end.xi[0] - 0.6321205588285577) <= 1e-9
    assert abs(end.p[0] - 0.36787944117144233) <= 1e-9
    assert abs(end.u - 0.11627207896741482) <= 1e-9


def test_shooting_quadratic():
    HS = quadratic_hamiltonian()
    r = fundamental_shooting(HS, 1.0, 0.0, 1.0, 0.0)
    assert abs(r.p0[0] - 1.0) <= 1e-8
    assert abs(r.A - 0.5) <= 1e-8
    assert r.converged


def test_shooting_discounted_frozen():
    HS = discounted_quadratic_hamiltonian(1.0)
    r = fundamental_shooting(HS, 1.0, 0.0, 1.0, 0.0)
    assert abs(r.p0[0] - disc_p0(1.0, 1.0, 1.0)) <= 1e-7
    assert abs(r.A - disc_A(1.0, 1.0, 1.0, 0.0)) <= 1e-7


def test_shooting_rest_characteristic():
    HS = discounted_quadratic_hamiltonian(0.7)
    r = fundamental_shooting(HS, 1.5, 0.3, 0.3, 0.0)
    assert abs(r.p0[0]) <= 1e-9
    assert abs(r.A) <= 1e-9


def test_shooting_agrees_with_direct():
    lam = 0.5
    S = discounted_quadratic_system(lam)
    HS = discounted_quadratic_hamiltonian(lam)
    for (t, d, u) in [(0.5, 1.0, 0.0), (1.0, 2.0, -1.0)]:
        direct = fundamental_direct(S, t, 0.0, d, u, segments=32,
                                    opt=OptimizerParams(substeps=2))
        shot = fundamental_shooting(HS, t, 0.0, d, u)
        assert rel(shot.A, direct.A) <= 1e-3


def _bounded_speed():
    # bounded characteristic speed |H_p| < 1 cannot bridge distance 3 in t=1
    def ham(x, u, p):
        return np.sqrt(1.0 + np.sum(np.asarray(p, float) ** 2, axis=-1))

    return HamiltonianSystem(dim=1, hamiltonian=ham, K=0.0)


def test_shooting_unreachable_raises():
    with pytest.raises(NoRootFound):
        fundamental_shooting(_bounded_speed(), 1.0, 0.0, 3.0, 0.0, max_newton=25)


def test_shooting_sweeps_one_trial_of_each_running_start_per_round(monkeypatch):
    # round r sweeps the r-th momentum that each start tries on its own (its
    # start, then its Newton trials), so no round waits for another start's
    # backtracking: 1 + (most trials of any start) sweeps in all
    HS, sweeps, sweep, swept = _bounded_speed(), [], fundamental._candidate_sweep, {}

    def spy(HS, t, x, u, P, steps):
        # the rows of a sweep are independent: a row swept before is replayed
        sweeps.append(sorted(P[:, 0]))
        new = np.array([p for p in P if p.tobytes() not in swept]).reshape(-1, 1)
        if len(new):
            path, jac, spoiled = sweep(HS, t, x, u, new, steps)
            for k, p in enumerate(new):
                swept[p.tobytes()] = path[:, k], jac[k], spoiled[k]
        path, jac, spoiled = zip(*(swept[p.tobytes()] for p in P))
        return np.stack(path, axis=1), np.stack(jac), np.array(spoiled)

    def tried(**kw):
        sweeps.clear()
        with pytest.raises(NoRootFound):
            fundamental_shooting(HS, 1.0, 0.0, 3.0, 0.0, max_newton=25, **kw)
        return list(sweeps)

    monkeypatch.setattr(fundamental, "_candidate_sweep", spy)
    rounds = tried()
    starts = rounds[0]
    assert len(starts) == 9
    # with one grid point per axis, the lone start is -p_max
    alone = [[p for p, in tried(p_max=-s, grid_per_axis=1)] for s in starts]
    assert len(rounds) == max(len(seq) for seq in alone) == 32
    assert rounds == [sorted(seq[r] for seq in alone if r < len(seq))
                      for r in range(len(rounds))]


def test_shooting_counts_a_newton_step_that_meets_a_singular_jacobian():
    # H_p = clip(p, -1, 1): the start p0 = 0 is already the root, and the
    # starts +-2 miss with a zero Jacobian, so each of them takes one Newton
    # step that stops at once; that step still counts as an iteration
    def ham(x, u, p):
        p = np.asarray(p, float)[..., 0]
        return np.where(np.abs(p) <= 1.0, 0.5 * p ** 2, np.abs(p) - 0.5)

    HS = HamiltonianSystem(dim=1, hamiltonian=ham, K=0.0,
                           H_p=lambda x, u, p: np.clip(np.asarray(p, float), -1.0, 1.0),
                           H_x=lambda x, u, p: np.zeros_like(np.asarray(p, float)),
                           H_u=lambda x, u, p: np.zeros_like(np.asarray(u, float)))
    r = fundamental_shooting(HS, 1.0, 0.3, 0.3, 0.0, p_max=2.0, grid_per_axis=3)
    assert r.iterations == 1
    assert r.p0[0] == 0.0 and r.A == 0.0


@pytest.mark.parametrize("lam", [0.25, 1.0, 4.0])
def test_shooting_jacobian_matches_the_secant_of_a_linear_map(lam):
    # xi(t; p0) of the discounted quadratic is linear in p0, and so is its
    # RK4 map, so the secant slope (xi(1) - xi(-1)) / 2 is its Jacobian up
    # to rounding, at every momentum
    HS = discounted_quadratic_hamiltonian(lam)
    P = np.linspace(-9.0, 9.0, 9)[:, None]
    for t in (0.5, 1.0, 2.0):
        _, jac, spoiled = fundamental._candidate_sweep(HS, t, np.array([0.3]), 0.7, P, 256)
        slope = (shoot(HS, t, 0.3, 0.7, 1.0).xi - shoot(HS, t, 0.3, 0.7, -1.0).xi)[0] / 2.0
        assert not spoiled.any()
        assert np.max(np.abs(jac[:, 0, 0] / slope - 1.0)) <= 1e-11


def test_shooting_takes_one_newton_step_on_a_linear_map(monkeypatch):
    # round 0 sweeps the starts and round 1 their Newton trials, which land
    # on the root: no round polishes it
    sizes, sweep = [], fundamental._candidate_sweep

    def spy(HS, t, x, u, P, steps):
        sizes.append(len(P))
        return sweep(HS, t, x, u, P, steps)

    monkeypatch.setattr(fundamental, "_candidate_sweep", spy)
    r = fundamental_shooting(quadratic_hamiltonian(), 1.0, 0.0, 1.0, 0.0)
    assert len(sizes) == 2 and r.iterations == 1


@pytest.fixture
def no_sweeps(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a characteristic sweep ran on a refused input")

    monkeypatch.setattr(fundamental, "_characteristics", refuse)


@pytest.mark.parametrize("bad", [
    {"t": np.nan}, {"t": np.inf}, {"x": np.nan}, {"y": np.inf}, {"u": np.nan},
    {"u": -np.inf}, {"steps": 0}, {"steps": -3}, {"segments": 0},
    {"grid_per_axis": 0}, {"p_max": np.nan}, {"p_max": np.inf},
    {"max_newton": 0}, {"max_newton": -2},
], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
def test_shooting_preconditions(bad, no_sweeps):
    with pytest.raises(PreconditionError):
        fundamental_shooting(quadratic_hamiltonian(), **{"t": 1.0, "x": 0.0, "y": 1.0,
                                                         "u": 0.0, **bad})


@pytest.mark.parametrize("bad", [
    {"t": np.nan}, {"t": np.inf}, {"x": np.nan}, {"u0": np.inf}, {"p0": np.nan},
    {"steps": 0}, {"steps": -3},
], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
def test_shoot_preconditions(bad, no_sweeps):
    with pytest.raises(PreconditionError):
        shoot(quadratic_hamiltonian(), **{"t": 1.0, "x": 0.0, "u0": 0.0, "p0": 1.0,
                                          "steps": 16, **bad})


@pytest.fixture
def no_steps(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an RK4 sweep ran on a refused count")

    monkeypatch.setattr(cost_ode, "_rk4", refuse)
    monkeypatch.setattr(fundamental, "_rk4", refuse)


def _shooting(**kw):
    return fundamental_shooting(quadratic_hamiltonian(), 1.0, 0.0, 1.0, 0.0, **kw)


def _direct(t=1.0, **kw):
    return fundamental_direct(quadratic_system(), t, 0.0, 1.0, 0.0, **kw)


def _value(dim=1, **kw):
    search = SearchParams(**dict({"segments": 4, "grid_points": 5, "ytol": 1e-4}, **kw))
    return solve_value(quadratic_system(dim), datum_sin(), 0.5, [0.3] * dim, search)


#: a fractional count in each place one reaches the library
FRACTIONAL = {
    "shooting-steps": lambda: _shooting(steps=256.7),
    "shooting-segments": lambda: _shooting(segments=64.5),
    "shooting-grid_per_axis": lambda: _shooting(grid_per_axis=2.5),
    "shooting-max_newton": lambda: _shooting(max_newton=1.5),
    "shoot-steps": lambda: shoot(quadratic_hamiltonian(), 1.0, 0.0, 0.0, 1.0, steps=16.5),
    "direct-segments": lambda: _direct(segments=8.5),
    "direct-substeps": lambda: _direct(opt=OptimizerParams(substeps=2.5)),
    "direct-max_iter": lambda: _direct(opt=OptimizerParams(max_iter=2.5)),
    "value-segments": lambda: _value(segments=8.5),
    "value-grid_points": lambda: _value(grid_points=9.7),
    "value-refine_sweeps": lambda: _value(dim=2, refine_sweeps=2.5),
    "cost-substeps": lambda: integrate_cost(quadratic_system(), Curve.straight(0.0, 1.0, 1.0, 4),
                                            0.0, 2.5),
    "cost-many-substeps": lambda: integrate_cost_many(
        quadratic_system(), 1.0, np.zeros((2, 5, 1)), 0.0, 2.5),
    "curve-segments": lambda: Curve.straight(0.0, 1.0, 1.0, 2.5),
    "audit-samples": lambda: verify_conditions(quadratic_system(), SampleBox.cube(1),
                                               samples=2.5),
    "audit-samples-bool": lambda: verify_conditions(quadratic_system(), SampleBox.cube(1),
                                                    samples=True),
    "datum-samples": lambda: datum_sin().validate([(-1.0, 1.0)], samples=2.5),
    "audit-seed": lambda: verify_conditions(quadratic_system(), SampleBox.cube(1), samples=8,
                                            seed=2.5),
}


@pytest.mark.parametrize("case", FRACTIONAL)
def test_fractional_counts_are_refused_before_any_sweep(case, no_steps):
    with pytest.raises(PreconditionError, match="must be an integer"):
        FRACTIONAL[case]()


#: an infinite horizon, a non-finite box bound or a negative seed, in each
#: place one reaches the library
NOT_FINITE = {
    "direct-horizon-inf": lambda: _direct(t=np.inf),
    "direct-horizon-nan": lambda: _direct(t=np.nan),
    "curve-horizon-inf": lambda: Curve.straight(0.0, 1.0, np.inf, 4),
    "exponential-horizon-inf": lambda: fundamental_exponential(
        quadratic_system(), Curve.straight(0.0, 1.0, np.inf, 4), 0.0),
    "audit-box-nan": lambda: verify_conditions(quadratic_system(), SampleBox.cube(1, np.nan)),
    "audit-box-inf": lambda: SampleBox(x_bounds=((0.0, np.inf),), u_bounds=(-1.0, 1.0),
                                       v_bounds=((-1.0, 1.0),)),
    "audit-seed-negative": lambda: verify_conditions(quadratic_system(), SampleBox.cube(1),
                                                     samples=8, seed=-1),
}


@pytest.mark.parametrize("case", NOT_FINITE)
def test_non_finite_inputs_are_refused_before_any_sweep(case, no_steps):
    with pytest.raises(PreconditionError, match="must"):
        NOT_FINITE[case]()


#: a value search setting out of range
OUT_OF_RANGE = {
    "grid_points": dict(grid_points=-3), "segments": dict(segments=1),
    "refine_sweeps": dict(dim=2, refine_sweeps=0), "ytol-nan": dict(ytol=np.nan),
    "ytol-inf": dict(ytol=np.inf), "ytol-minus-inf": dict(ytol=-np.inf),
}


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_out_of_range_value_search_settings_are_refused_before_any_sweep(case, no_steps):
    with pytest.raises(PreconditionError, match="must be"):
        _value(**OUT_OF_RANGE[case])


def test_one_grid_point_per_axis_is_taken_as_two():
    one, two = _value(grid_points=1), _value(grid_points=2.0)
    assert one[0] == two[0] and np.array_equal(one[1], two[1])


def test_integral_float_and_numpy_counts_are_taken_as_ints():
    ref = _shooting(steps=64, segments=16, grid_per_axis=3, max_newton=5)
    got = _shooting(steps=64.0, segments=np.int64(16), grid_per_axis=3.0,
                    max_newton=np.int32(5))
    assert np.array_equal(got.trajectory.samples, ref.trajectory.samples)
    assert np.array_equal(got.minimizer.nodes, ref.minimizer.nodes)
    ref = _direct(segments=8, opt=OptimizerParams(substeps=2))
    got = _direct(segments=8.0, opt=OptimizerParams(substeps=np.int64(2)))
    assert np.array_equal(got.trajectory.samples, ref.trajectory.samples)
    xi = Curve.straight(0.0, 1.0, 1.0, 4)
    assert np.array_equal(integrate_cost(quadratic_system(), xi, 0.0, 2.0).samples,
                          integrate_cost(quadratic_system(), xi, 0.0, 2).samples)


def test_shooting_trajectory_consistent_with_cost_ode():
    # u along the winning characteristic solves the same cost ODE; the
    # piecewise-linear resampling of the curve costs O((t/segments)^2)
    # extra action (~2.4e-5 here), which bounds the agreement.
    lam = 1.0
    S = discounted_quadratic_system(lam)
    HS = discounted_quadratic_hamiltonian(lam)
    r = fundamental_shooting(HS, 1.0, 0.0, 1.0, 0.0, segments=32)
    re_int = integrate_cost(S, r.minimizer, 0.0, 8)
    assert rel(re_int.final, r.A) <= 1e-4
    assert re_int.final >= r.A - 1e-9  # resampling can only add cost


# ---------------------------------------------------------------------------
# stationarity residual
# ---------------------------------------------------------------------------

def test_residual_zero_for_free_motion():
    S = quadratic_system()
    xi = Curve.straight(0.0, 1.0, 1.0, 16)
    traj = integrate_cost(S, xi, 0.0)
    assert herglotz_residual(S, xi, traj) <= 1e-12


def test_residual_detects_non_minimizer():
    # straight line in the discounted system: |d/ds L_v - L_x - L_u L_v| = lam |v|
    S = discounted_quadratic_system(1.0)
    xi = Curve.straight(0.0, 1.0, 1.0, 16)
    traj = integrate_cost(S, xi, 0.0)
    res = herglotz_residual(S, xi, traj)
    assert 0.9 <= res <= 1.1


def test_residual_small_on_minimizer_and_improves(disc_direct_64):
    S, r64 = disc_direct_64
    res64 = herglotz_residual(S, r64.minimizer, r64.trajectory)
    assert res64 <= 1e-2
    r32 = fundamental_direct(S, 1.0, 0.0, 1.0, 2.0, segments=32,
                             opt=OptimizerParams(substeps=2))
    res32 = herglotz_residual(S, r32.minimizer, r32.trajectory)
    assert res64 <= res32 / 2.5


def test_residual_needs_four_segments():
    S = quadratic_system()
    xi = Curve.straight(0.0, 1.0, 1.0, 3)
    traj = integrate_cost(S, xi, 0.0)
    with pytest.raises(PreconditionError):
        herglotz_residual(S, xi, traj)


# ---------------------------------------------------------------------------
# dynamic programming
# ---------------------------------------------------------------------------

def test_dynamic_programming_split(disc_direct_64):
    S, r = disc_direct_64
    t = 1.0
    for frac in (0.25, 0.5, 0.75):
        s = frac * t
        node = r.minimizer.position(s)
        sub = fundamental_direct(S, s, 0.0, node, 2.0, segments=32,
                                 opt=OptimizerParams(substeps=2))
        assert rel(sub.A, float(r.trajectory.value_at(s))) <= 1e-3


def test_two_parameter_semigroup(disc_direct_64):
    S, r = disc_direct_64
    s1, s2 = 0.25, 0.5
    xi_s1 = r.minimizer.position(s1)
    xi_s12 = r.minimizer.position(s1 + s2)
    u_s1 = float(r.trajectory.value_at(s1))
    left = fundamental_direct(S, s1 + s2, 0.0, xi_s12, 2.0, segments=32,
                              opt=OptimizerParams(substeps=2))
    right = fundamental_direct(S, s2, xi_s1, xi_s12, u_s1, segments=32,
                               opt=OptimizerParams(substeps=2))
    assert rel(left.A, right.A) <= 1e-3


# ---------------------------------------------------------------------------
# two spatial dimensions
# ---------------------------------------------------------------------------

def test_direct_discounted_closed_form_2d():
    # isotropic system: only |y - x|^2 = 2 enters the closed form
    lam, t, u = 1.0, 1.0, 0.5
    S = discounted_quadratic_system(lam, dim=2)
    r = fundamental_direct(S, t, np.zeros(2), np.ones(2), u, segments=24,
                           opt=OptimizerParams(substeps=2))
    target = np.exp(-lam * t) * u + lam * 2.0 / (2.0 * np.expm1(lam * t))
    assert rel(r.A, target) <= 1e-3


def test_shooting_discounted_closed_form_2d():
    lam, t = 1.0, 1.0
    HS = discounted_quadratic_hamiltonian(lam, dim=2)
    r = fundamental_shooting(HS, t, np.zeros(2), np.ones(2), 0.0, steps=128,
                             segments=16)
    p_true = disc_p0(lam, t, 1.0)
    assert np.max(np.abs(r.p0 - p_true)) <= 1e-6
    assert rel(r.A, disc_A(lam, t, np.sqrt(2.0), 0.0)) <= 1e-6


def test_speed_envelope_hook():
    xi = Curve.straight(np.zeros(1), np.array([2.0]), 1.0, 8)
    vmax, bound, ok = speed_envelope_check(xi, 2.0, lambda t, r: r + 1.0)
    assert ok and vmax == 2.0 and bound == 3.0
    _, _, tight = speed_envelope_check(xi, 2.0, lambda t, r: 0.5 * r)
    assert not tight


# ---------------------------------------------------------------------------
# a-priori bounds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("u", [-2.0, 0.0, 3.0])
def test_fundamental_bounds_discounted(u):
    lam, t = 1.0, 0.8
    S = discounted_quadratic_system(lam)
    r = fundamental_direct(S, t, 0.0, 1.2, u, segments=24,
                           opt=OptimizerParams(substeps=2))
    K, c0 = S.K, S.c0
    if u <= 0:
        assert r.A >= np.exp(K * t) * u - c0 * t * np.exp(K * t) - 1e-6
    if u >= 0:
        assert r.A >= np.exp(-K * t) * u - c0 * t * np.exp(K * t) - 1e-6
    # diagonal upper bound with C = theta0_bar(0)
    rd = fundamental_direct(S, t, 0.5, 0.5, u, segments=24,
                            opt=OptimizerParams(substeps=2))
    C = S.C_const
    if u <= 0:
        assert rd.A <= np.exp(-K * t) * u + C * t * np.exp(K * t) + 1e-6
    if u >= 0:
        assert rd.A <= np.exp(K * t) * u + C * t * np.exp(K * t) + 1e-6


# ---------------------------------------------------------------------------
# the cold start of a constant-rate system
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim,lam,t,N,m", [
    (dim, lam, t, N, m) for dim in (1, 2) for lam in (0.25, 1.0, 4.0) for t in (0.5, 2.0)
    for N in (8, 64) for m in (1, 2, 4)])
def test_a_cold_discounted_lane_stops_on_its_start(dim, lam, t, N, m):
    # the start is the discrete minimizer: the lane stops at iteration 0,
    # converged, no higher than the lane from the straight curve
    S, opt = discounted_quadratic_system(lam, dim), OptimizerParams(substeps=m)
    x, y, u = stack_lanes([([0.0] * dim, [-1.3] + [0.7] * (dim - 1), 0.5)])
    cold = _direct_lockstep(S, t, x, y, u, N, opt)
    straight = _direct_lockstep(S, t, x, y, u, N, opt, straight_starts(x, y, N))
    assert cold.iterations[0] == 0 and cold.converged[0]
    assert cold.A[0] <= straight.A[0] + 1e-12


def _user_system():
    return ContactSystem(dim=1, lagrangian=lambda x, u, v: 0.5 * v[..., 0] ** 2 - 0.3 * u,
                         K=0.3, theta0=lambda r: 0.5 * np.asarray(r) ** 2,
                         theta0_bar=lambda r: 0.5 * np.asarray(r) ** 2, c0=0.0)


@pytest.mark.parametrize("make", [
    quadratic_system, quartic_system, trig_contact_system, lambda dim: perturbed_system(0.5, dim),
    lambda dim: _user_system()], ids=["quadratic", "quartic", "trig-contact", "perturbed", "user"])
def test_a_system_without_a_constant_rate_starts_straight(make):
    S = make(1)
    x, y, u = stack_lanes([(0.0, 1.0, 0.2), (0.3, -0.8, -0.5), (0.1, 0.1, 0.4)])
    cold = _direct_lockstep(S, 0.9, x, y, u, 8, OptimizerParams(substeps=2))
    straight = _direct_lockstep(S, 0.9, x, y, u, 8, OptimizerParams(substeps=2),
                                straight_starts(x, y, 8))
    for name in ("A", "nodes", "samples", "iterations", "converged"):
        assert np.array_equal(getattr(cold, name), getattr(straight, name))
    for k, nit in enumerate(cold.iterations):  # the read part of each history
        assert np.array_equal(cold.history[k, :nit + 1], straight.history[k, :nit + 1])


@pytest.mark.parametrize("lam,t,N,m", [(1000.0, 1.0, 64, 16), (1000.0, 1.0, 8, 4),
                                       (6.0, 1.0, 2, 1)])
def test_an_extreme_rate_starts_finite_and_raises_no_new_overflow(lam, t, N, m):
    # lambda t = 1000 inside RK4's stability limit, and z = -31.25 and -3
    # past it (there the lanes start straight)
    from contact_hj import NonConvergence, Overflow
    S, opt = discounted_quadratic_system(lam), OptimizerParams(substeps=m)
    x, y, u = stack_lanes([(0.0, 1.0, 0.5)])
    start = fundamental._rate_start(S, t, x, y, N, m)
    assert start is None or np.isfinite(start).all()
    outcomes = []
    for s in (None, straight_starts(x, y, N)):
        try:
            outcomes.append(_direct_lockstep(S, t, x, y, u, N, opt, s))
        except Overflow:
            outcomes.append(Overflow)
        except NonConvergence:
            outcomes.append(NonConvergence)
    assert outcomes[0] is not Overflow or outcomes[1] is Overflow


def test_a_fundamental_direct_on_the_discounted_quadratic_is_one_sweep(monkeypatch):
    # the CLI's direct route: N = 64 with the default optimizer
    sweeps = []
    monkeypatch.setattr(fundamental, "integrate_cost_many",
                        lambda *a: sweeps.append(1) or integrate_cost_many(*a))
    r = fundamental_direct(discounted_quadratic_system(1.0), 1.0, -0.4, 0.9, 0.3, segments=64)
    assert r.converged and r.iterations == 0 and len(sweeps) == 1
