"""Contact systems: Legendre duality, condition audit, growth metadata."""

import numpy as np
import pytest

from contact_hj import (ContactSystem, HamiltonianSystem, NonConvergence,
                        SampleBox, builtin_hamiltonian, builtin_system,
                        discounted_quadratic_system,
                        legendre_to_hamiltonian, legendre_to_lagrangian,
                        quadratic_system, quartic_system, trig_contact_system,
                        verify_conditions, with_overrides)
from contact_hj.systems import H_FD

ALL_IDS = ["quadratic", "discounted-quadratic(1.0)", "quartic", "trig-contact"]


def scalar_system(f, K=0.0, theta0=None, theta0_bar=None, c0=0.0, **kw):
    theta0 = theta0 or (lambda r: 0.5 * np.asarray(r, float) ** 2)
    theta0_bar = theta0_bar or theta0
    return ContactSystem(dim=1, lagrangian=f, K=K, theta0=theta0,
                         theta0_bar=theta0_bar, c0=c0, **kw)


# ---------------------------------------------------------------------------
# Legendre transform
# ---------------------------------------------------------------------------

def test_legendre_quadratic_centered():
    H = HamiltonianSystem(dim=1, hamiltonian=lambda x, u, p: 0.5 * np.sum(np.asarray(p, float) ** 2, axis=-1), K=0.0)
    val, p = legendre_to_lagrangian(H, 0.0, 0.0, 0.0)
    assert abs(val) <= 1e-12
    assert abs(p[0]) <= 1e-10


def test_legendre_shifted_quadratic():
    lam, r = 0.3, 2.0
    H = HamiltonianSystem(
        dim=1,
        hamiltonian=lambda x, u, p: lam * np.asarray(u, float) + 0.5 * np.sum(np.asarray(p, float) ** 2, axis=-1),
        K=lam)
    val, p = legendre_to_lagrangian(H, 0.0, r, 1.0)
    # L = -lam*r + v^2/2 at v=1
    assert abs(val - (0.5 - lam * r)) <= 1e-10
    assert abs(p[0] - 1.0) <= 1e-9


def test_legendre_cosh_frozen():
    # oracle: max over p in [-10, 10], step 1e-6, of p - cosh(p) + 1
    # gave 0.46716002464633 at p = 0.88137399; Newton must match the
    # stationary point asinh(1) to full precision.
    H = HamiltonianSystem(dim=1, hamiltonian=lambda x, u, p: np.cosh(np.asarray(p, float)[..., 0]) - 1.0, K=0.0)
    val, p = legendre_to_lagrangian(H, 0.0, 0.0, 1.0)
    assert abs(val - 0.4671600246464479) <= 1e-9
    assert abs(p[0] - 0.8813735870195430) <= 1e-8


def test_legendre_quartic_to_hamiltonian():
    # stationarity v^3 = p at p = 1 -> v = 1, H = 3/4 (grid-confirmed)
    S = quartic_system()
    val, v = legendre_to_hamiltonian(S, 0.0, 0.0, 1.0)
    assert abs(val - 0.75) <= 1e-9
    assert abs(v[0] - 1.0) <= 1e-7


def test_legendre_discounted_zero_momentum():
    S = discounted_quadratic_system(0.3)
    val, v = legendre_to_hamiltonian(S, 0.0, 2.0, 0.0)
    # H = lam*r at p = 0
    assert abs(val - 0.6) <= 1e-10
    assert abs(v[0]) <= 1e-10


def test_legendre_plain_quadratic_momentum():
    S = quadratic_system()
    val, v = legendre_to_hamiltonian(S, 0.0, 0.0, 3.0)
    assert abs(val - 4.5) <= 1e-10
    assert abs(v[0] - 3.0) <= 1e-10


@pytest.mark.parametrize("spec_id", ALL_IDS)
def test_legendre_involution(spec_id):
    from contact_hj import hamiltonian_from_contact
    S = builtin_system(spec_id)
    HS = hamiltonian_from_contact(S)
    rng = np.random.default_rng(7)
    for _ in range(8):
        x = rng.uniform(-2, 2, 1)
        r = float(rng.uniform(-2, 2))
        v = rng.uniform(-2, 2, 1)
        direct = float(S.L(x, r, v))
        back, _ = legendre_to_lagrangian(HS, x, r, v)
        assert abs(back - direct) <= 10 * 1e-10


@pytest.mark.parametrize("dim", (1, 2))
@pytest.mark.parametrize("spec_id", ALL_IDS)
def test_builtin_hamiltonian_is_the_legendre_dual_of_its_lagrangian(spec_id, dim):
    # the declared dual side against the numeric transform of the Lagrangian side
    S, HS = builtin_system(spec_id, dim), builtin_hamiltonian(spec_id, dim)
    rng = np.random.default_rng(23)
    for _ in range(6):
        x = rng.uniform(-2, 2, dim)
        r = float(rng.uniform(-2, 2))
        p = rng.uniform(-2, 2, dim)
        H, v = legendre_to_hamiltonian(S, x, r, p)
        assert abs(float(HS.H(x, r, p)) - H) <= 1e-9
        assert np.max(np.abs(HS.Hp(x, r, p) - v)) <= 1e-9


def test_numeric_dual_broadcasts_its_arguments():
    # x, u and p broadcast against each other, as the built-in evaluators do
    from contact_hj import hamiltonian_from_contact
    HS = hamiltonian_from_contact(quadratic_system())
    for args in [(np.zeros((1, 1)), 0.0, np.ones((3, 1))),
                 (np.zeros(1), np.zeros(3), np.ones(1))]:
        H = HS.H(*args)
        assert H.shape == (3,)
        assert np.allclose(H, 0.5, atol=1e-10)
        assert HS.Hp(*args).shape == (3, 1)
    assert np.shape(HS.H(np.zeros(1), 0.0, np.ones(1))) == ()


def test_legendre_nonconvex_raises():
    H = HamiltonianSystem(dim=1, hamiltonian=lambda x, u, p: -0.5 * np.sum(np.asarray(p, float) ** 2, axis=-1), K=0.0)
    with pytest.raises(NonConvergence):
        legendre_to_lagrangian(H, 0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# finite differences vs analytic derivatives
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec_id", ALL_IDS)
def test_fd_first_derivatives_match_analytic(spec_id):
    S = builtin_system(spec_id)
    twin = ContactSystem(dim=S.dim, lagrangian=S.lagrangian, K=S.K,
                         theta0=S.theta0, theta0_bar=S.theta0_bar, c0=S.c0)
    rng = np.random.default_rng(11)
    tol = 100.0 * H_FD ** 2
    for _ in range(6):
        x = rng.uniform(-2, 2, (3, S.dim))
        u = rng.uniform(-2, 2, 3)
        v = rng.uniform(-2, 2, (3, S.dim))
        assert np.max(np.abs(twin.Lv(x, u, v) - S.Lv(x, u, v))) <= tol
        assert np.max(np.abs(twin.Lx(x, u, v) - S.Lx(x, u, v))) <= tol
        assert np.max(np.abs(twin.Lu(x, u, v) - S.Lu(x, u, v))) <= tol


@pytest.mark.parametrize("spec_id", ALL_IDS)
def test_fd_hessian_from_analytic_gradient(spec_id):
    S = builtin_system(spec_id)
    half = ContactSystem(dim=S.dim, lagrangian=S.lagrangian, K=S.K,
                         theta0=S.theta0, theta0_bar=S.theta0_bar, c0=S.c0,
                         L_v=S.L_v)
    rng = np.random.default_rng(13)
    x = rng.uniform(-2, 2, (4, S.dim))
    u = rng.uniform(-2, 2, 4)
    v = rng.uniform(-2, 2, (4, S.dim))
    assert np.max(np.abs(half.Lvv(x, u, v) - S.Lvv(x, u, v))) <= 100.0 * H_FD ** 2


def test_fd_hessian_without_any_analytic_gradient():
    S = quartic_system()
    bare = ContactSystem(dim=1, lagrangian=S.lagrangian, K=0.0,
                         theta0=S.theta0, theta0_bar=S.theta0_bar, c0=0.0)
    v = np.array([[1.3]])
    # double differencing amplifies roundoff; only a loose agreement holds
    assert np.max(np.abs(bare.Lvv(v * 0, np.zeros(1), v) - S.Lvv(v * 0, np.zeros(1), v))) <= 1e-4


# ---------------------------------------------------------------------------
# condition audit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec_id", ALL_IDS)
def test_builtins_pass_conditions(spec_id):
    S = builtin_system(spec_id)
    report = verify_conditions(S, SampleBox.cube(1, 5.0), samples=256, seed=0)
    assert report.passed, report.violations


def test_conditions_pass_simple_discounted():
    S = discounted_quadratic_system(0.7)
    report = verify_conditions(S, SampleBox.cube(1, 4.0), samples=128, seed=3)
    assert report.passed
    assert report.lu_bound_margin >= 0.0


def test_conditions_flag_misdeclared_K():
    from contact_hj import with_overrides
    S = with_overrides(discounted_quadratic_system(2.0), K=1.0)
    report = verify_conditions(S, SampleBox.cube(1, 4.0), samples=128, seed=3)
    assert not report.passed
    assert report.lu_bound_margin == pytest.approx(-1.0, abs=1e-12)
    assert any("K" in msg for msg in report.violations)


def test_overriding_theta0_drops_the_stale_closed_form_conjugate():
    from contact_hj import with_overrides
    S = with_overrides(quadratic_system(), theta0=lambda r: np.asarray(r, float) ** 4 / 4)
    assert S.theta0_conj is None
    # sup_r 2 r - r^4 / 4 = (3/4) 2^(4/3), not the quadratic conjugate 2
    assert S.theta0_star(2.0) == pytest.approx(0.75 * 2.0 ** (4.0 / 3.0), abs=1e-9)
    kept = with_overrides(quadratic_system(), theta0=S.theta0, theta0_conj=lambda k: 7.0)
    assert kept.theta0_star(2.0) == 7.0


def test_overriding_theta0_bar_recomputes_c_const():
    from contact_hj import with_overrides
    S = with_overrides(quadratic_system(),
                       theta0_bar=lambda r: 0.5 * np.asarray(r, float) ** 2 + 3.0)
    assert S.C_const == 3.0
    kept = with_overrides(quadratic_system(), theta0_bar=S.theta0_bar, C_const=5.0)
    assert kept.C_const == 5.0


def test_conditions_trig_variant_against_grid_oracle():
    # declared variant: K=1, theta0(r)=r^2/4, c0=2 on the box [-5,5]^3
    S = ContactSystem(
        dim=1,
        lagrangian=trig_contact_system().lagrangian,
        K=1.0,
        theta0=lambda r: 0.25 * np.asarray(r, float) ** 2,
        theta0_bar=lambda r: 0.5 * np.asarray(r, float) ** 2 + 1.0,
        c0=2.0,
    )
    # oracle: dense 50^3 lattice evaluation of both sandwich margins
    g = np.linspace(-5, 5, 50)
    X, U, V = np.meshgrid(g, g, g, indexing="ij")
    L = 0.5 * V ** 2 + np.sin(X) * np.sin(U)
    upper = (0.5 * np.abs(V) ** 2 + 1.0) + 1.0 * np.abs(U) - L
    lower = L - 0.25 * np.abs(V) ** 2 + 2.0 + 1.0 * np.abs(U)
    assert upper.min() >= 0.0 and lower.min() >= 0.0
    box = SampleBox(x_bounds=((-5.0, 5.0),), u_bounds=(-5.0, 5.0), v_bounds=((-5.0, 5.0),))
    report = verify_conditions(S, box, samples=512, seed=1)
    assert report.passed, report.violations


@pytest.mark.parametrize("dim", [1, 2])
def test_latin_hypercube_samples_match_scipy_qmc(dim):
    qmc = pytest.importorskip("scipy.stats.qmc")
    base = trig_contact_system(dim)
    seen = []
    S = ContactSystem(dim=dim, lagrangian=lambda x, u, v: seen.append((x, u, v))
                      or base.lagrangian(x, u, v), K=base.K, theta0=base.theta0,
                      theta0_bar=base.theta0_bar, c0=base.c0)
    box = SampleBox(x_bounds=((-1.0, 2.0), (-3.0, 0.5))[:dim], u_bounds=(-4.0, 4.0),
                    v_bounds=((-2.0, 2.5), (-1.0, 1.0))[:dim])
    lows = np.array([b[0] for b in box.x_bounds + (box.u_bounds,) + box.v_bounds])
    highs = np.array([b[1] for b in box.x_bounds + (box.u_bounds,) + box.v_bounds])
    for samples in (1, 7, 64):
        for seed in (0, 3, 11):
            seen.clear()
            verify_conditions(S, box, samples=samples, seed=seed)
            x, u, v = seen[0]
            want = qmc.scale(qmc.LatinHypercube(d=2 * dim + 1, seed=seed).random(samples),
                             lows, highs)
            assert np.array_equal(np.column_stack([x, u, v]), want)


def test_condition_report_deterministic_under_seed():
    S = trig_contact_system()
    box = SampleBox.cube(1, 3.0)
    r1 = verify_conditions(S, box, samples=64, seed=42)
    r2 = verify_conditions(S, box, samples=64, seed=42)
    assert r1.lvv_min_eig == r2.lvv_min_eig
    assert r1.sandwich_upper_margin == r2.sandwich_upper_margin


# ---------------------------------------------------------------------------
# numeric conjugate
# ---------------------------------------------------------------------------

def test_theta0_star_quadratic_matches_closed_form():
    S = quadratic_system()
    numeric = ContactSystem(dim=1, lagrangian=S.lagrangian, K=0.0,
                            theta0=S.theta0, theta0_bar=S.theta0_bar, c0=0.0)
    for k in (0.5, 2.0, 14.778112197861297):
        assert abs(numeric.theta0_star(k) - 0.5 * k * k) <= 1e-9


def test_theta0_star_quartic():
    S = quartic_system()
    numeric = ContactSystem(dim=1, lagrangian=S.lagrangian, K=0.0,
                            theta0=S.theta0, theta0_bar=S.theta0_bar, c0=0.0)
    for k in (1.0, 3.0):
        # sup_r k r - r^4/4 at r = k^{1/3}: (3/4) k^{4/3}
        assert abs(numeric.theta0_star(k) - 0.75 * k ** (4.0 / 3.0)) <= 1e-9


def test_theta0_star_override_wins():
    marker = 123.456
    S = ContactSystem(dim=1, lagrangian=lambda x, u, v: 0.5 * np.sum(np.asarray(v, float) ** 2, axis=-1),
                      K=0.0, theta0=lambda r: 0.5 * np.asarray(r, float) ** 2,
                      theta0_bar=lambda r: 0.5 * np.asarray(r, float) ** 2, c0=0.0,
                      theta0_conj=lambda k: marker)
    assert S.theta0_star(2.0) == marker


def test_theta0_star_cached():
    S = ContactSystem(dim=1, lagrangian=lambda x, u, v: 0.5 * np.sum(np.asarray(v, float) ** 2, axis=-1),
                      K=0.0, theta0=lambda r: 0.5 * np.asarray(r, float) ** 2,
                      theta0_bar=lambda r: 0.5 * np.asarray(r, float) ** 2, c0=0.0)
    a = S.theta0_star(2.0)
    assert S.theta0_star(2.0) == a


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_builtin_registry_roundtrip():
    assert builtin_system("discounted-quadratic(0.5)").K == 0.5
    assert builtin_system("quadratic").K == 0.0
    assert builtin_system("trig-contact").c0 == 1.0


def test_builtin_registry_rejects_unknown():
    from contact_hj import PreconditionError
    with pytest.raises(PreconditionError):
        builtin_system("pendulum")
    with pytest.raises(PreconditionError):
        builtin_system("discounted-quadratic")  # missing rate


@pytest.mark.parametrize("resolve, spec_id", [
    (builtin_system, "quadratic(3)"),
    (builtin_system, "quartic(0.5)"),
    (builtin_hamiltonian, "trig-contact(7)"),
    (builtin_hamiltonian, "quadratic(2.0)"),
], ids=["quadratic", "quartic", "trig-contact-hamiltonian", "quadratic-hamiltonian"])
def test_builtin_ids_without_a_rate_refuse_an_argument(resolve, spec_id):
    from contact_hj import PreconditionError
    with pytest.raises(PreconditionError, match="takes no argument"):
        resolve(spec_id)


def test_c_const_defaults_to_upper_envelope_at_zero():
    assert trig_contact_system().C_const == 1.0
    assert quadratic_system().C_const == 0.0


# ---------------------------------------------------------------------------
# the contract both sides share
# ---------------------------------------------------------------------------

def _kinetic(x, u, z):
    return 0.5 * np.sum(np.asarray(z, float) ** 2, axis=-1)


@pytest.mark.parametrize("build, match", [
    (lambda: builtin_system("quadratic", 3), "dim must be 1 or 2"),
    (lambda: builtin_hamiltonian("quadratic", 3), "dim must be 1 or 2"),
    (lambda: HamiltonianSystem(dim=0, hamiltonian=_kinetic, K=0.0), "dim must be 1 or 2"),
    (lambda: HamiltonianSystem(dim=1, hamiltonian=_kinetic, K=-1.0), "K must be nonnegative"),
    (lambda: scalar_system(_kinetic, K=-1.0), "K and c0 must be nonnegative"),
    (lambda: scalar_system(_kinetic, c0=-1.0), "K and c0 must be nonnegative"),
    (lambda: HamiltonianSystem(dim=1, hamiltonian=_kinetic, K=np.nan), "K must be finite"),
    (lambda: with_overrides(discounted_quadratic_system(0.5), K=np.nan),
     "K and c0 must be finite"),
    (lambda: scalar_system(_kinetic, c0=np.inf), "K and c0 must be finite"),
    (lambda: with_overrides(quadratic_system(), C_const=np.nan), "C_const must be finite"),
    (lambda: scalar_system(_kinetic, theta0_bar=lambda r: np.asarray(r, float) ** 2 + np.inf),
     "C_const must be finite"),
], ids=["lagrangian-3d", "hamiltonian-3d", "hamiltonian-0d", "hamiltonian-negative-K",
        "lagrangian-negative-K", "lagrangian-negative-c0", "hamiltonian-nan-K",
        "override-nan-K", "lagrangian-inf-c0", "override-nan-C_const", "lagrangian-inf-C_const"])
def test_both_sides_refuse_what_breaks_the_system_contract(build, match):
    from contact_hj import PreconditionError
    with pytest.raises(PreconditionError, match=match):
        build()


def test_a_point_of_the_wrong_dimension_is_a_precondition_error():
    from contact_hj import PreconditionError
    from contact_hj._util import as_point
    for bad, dim in (([1.0, 2.0], 1), ([[1.0, 2.0]], None)):
        with pytest.raises(PreconditionError):
            as_point(bad, dim)
    with pytest.raises(ValueError):  # a PreconditionError is still a ValueError
        legendre_to_lagrangian(builtin_hamiltonian("quadratic"), [0.0, 0.0], 0.0, 0.0)
