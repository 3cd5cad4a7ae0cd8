"""The evaluator layer against its earlier, written-out form.

The eight derivative methods once each spelled out "the declared field,
else central differences with step h_fd", and the two Legendre transforms
and `hamiltonian_from_contact` each had their own copy of the solve.  That
code is kept below, renamed, as the reference: every fallback, both
transforms and the numeric dual must agree with it bit for bit, on bare
twins (no declared derivatives) of every built-in in 1-D and 2-D.
"""

import numpy as np
import pytest

from contact_hj import (ContactSystem, HamiltonianSystem, NonConvergence,
                        builtin_hamiltonian, builtin_system,
                        hamiltonian_from_contact, legendre_to_hamiltonian,
                        legendre_to_lagrangian)
from contact_hj._util import as_point
from contact_hj.systems import _coordinate_golden_min, _is_local_max

ALL_IDS = ["quadratic", "discounted-quadratic(1.0)", "quartic", "trig-contact"]

TOL_NEWTON = 1e-10
DUAL_BOX = 1e3


# ---------------------------------------------------------------------------
# reference: the written-out evaluator layer
# ---------------------------------------------------------------------------

def _fd_grad_last_axis(f, z, h):
    """Central-difference gradient of f along the last axis of z."""
    n = z.shape[-1]
    cols = []
    for i in range(n):
        e = np.zeros_like(z)
        e[..., i] = h
        cols.append((f(z + e) - f(z - e)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def _fd_scalar(f, u, h):
    u = np.asarray(u, dtype=float)
    return (f(u + h) - f(u - h)) / (2.0 * h)


def _fd_jacobian_last_axis(g, z, h):
    """Central-difference Jacobian of a vector field g along the last axis.

    Returns shape (..., n, n) with [i, j] = d g_j / d z_i, symmetrized,
    which is the Hessian when g is a gradient.
    """
    m = _fd_grad_last_axis(g, z, h)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


class RefContactSystem(ContactSystem):
    h_fd = 1e-5

    def Lx(self, x, u, v):
        if self.L_x is not None:
            return self.L_x(x, u, v)
        return _fd_grad_last_axis(lambda xx: self.lagrangian(xx, u, v), np.asarray(x, float), self.h_fd)

    def Lu(self, x, u, v):
        if self.L_u is not None:
            return self.L_u(x, u, v)
        return _fd_scalar(lambda uu: self.lagrangian(x, uu, v), u, self.h_fd)

    def Lv(self, x, u, v):
        if self.L_v is not None:
            return self.L_v(x, u, v)
        return _fd_grad_last_axis(lambda vv: self.lagrangian(x, u, vv), np.asarray(v, float), self.h_fd)

    def Lvv(self, x, u, v):
        if self.L_vv is not None:
            return self.L_vv(x, u, v)
        return _fd_jacobian_last_axis(lambda vv: self.Lv(x, u, vv), np.asarray(v, float), self.h_fd)


class RefHamiltonianSystem(HamiltonianSystem):
    h_fd = 1e-5

    def Hx(self, x, u, p):
        if self.H_x is not None:
            return self.H_x(x, u, p)
        return _fd_grad_last_axis(lambda xx: self.hamiltonian(xx, u, p), np.asarray(x, float), self.h_fd)

    def Hu(self, x, u, p):
        if self.H_u is not None:
            return self.H_u(x, u, p)
        return _fd_scalar(lambda uu: self.hamiltonian(x, uu, p), u, self.h_fd)

    def Hp(self, x, u, p):
        if self.H_p is not None:
            return self.H_p(x, u, p)
        return _fd_grad_last_axis(lambda pp: self.hamiltonian(x, u, pp), np.asarray(p, float), self.h_fd)

    def Hpp(self, x, u, p):
        if self.H_pp is not None:
            return self.H_pp(x, u, p)
        return _fd_jacobian_last_axis(lambda pp: self.Hp(x, u, pp), np.asarray(p, float), self.h_fd)


def _damped_newton_root(F, J, z0, tol, max_iter):
    """Damped Newton for F(z) = 0; returns (z, converged)."""
    z = np.array(z0, dtype=float)
    Fz = np.atleast_1d(np.asarray(F(z), dtype=float))
    nrm = float(np.linalg.norm(Fz))
    for _ in range(max_iter):
        if nrm <= tol:
            return z, True
        Jz = np.atleast_2d(np.asarray(J(z), dtype=float))
        try:
            step = np.linalg.solve(Jz, Fz)
        except np.linalg.LinAlgError:
            return z, False
        if not np.all(np.isfinite(step)):
            return z, False
        alpha = 1.0
        while True:
            z_new = z - alpha * step
            F_new = np.atleast_1d(np.asarray(F(z_new), dtype=float))
            n_new = float(np.linalg.norm(F_new))
            if np.isfinite(n_new) and n_new < (1.0 - 1e-4 * alpha) * nrm:
                break
            alpha *= 0.5
            if alpha < 2.0 ** -30:
                return z, nrm <= tol
        z, Fz, nrm = z_new, F_new, n_new
    return z, nrm <= tol


def _legendre_solve(gain, F, J, z0, tol_newton, max_iter, dual_box, what):
    """Shared stationarity solve: damped Newton, golden fallback, max check."""
    z, ok = _damped_newton_root(F, J, z0, tol_newton, max_iter)
    if ok and not _is_local_max(gain, z):
        ok = False
    if not ok:
        z = _coordinate_golden_min(lambda q: -gain(q), z0.copy(), -dual_box, dual_box)
        z, ok = _damped_newton_root(F, J, z, tol_newton, max_iter)
        ok = ok and _is_local_max(gain, z)
    if not ok:
        raise NonConvergence(
            f"Legendre stationarity solve failed; the {what} may not be "
            "strictly convex/superlinear in its dual slot")
    return z


def ref_legendre_to_lagrangian(H, x, r, v, tol_newton=TOL_NEWTON, max_iter=100,
                               dual_box=DUAL_BOX):
    x = as_point(x, H.dim)
    v = as_point(v, H.dim)

    def gain(p):
        return float(np.dot(p, v) - np.asarray(H.H(x, r, p), dtype=float))

    p = _legendre_solve(gain,
                        lambda p: np.asarray(H.Hp(x, r, p), dtype=float) - v,
                        lambda p: H.Hpp(x, r, p),
                        np.zeros_like(v), tol_newton, max_iter, dual_box,
                        "Hamiltonian")
    return gain(p), p


def ref_legendre_to_hamiltonian(L, x, r, p, tol_newton=TOL_NEWTON, max_iter=100,
                                dual_box=DUAL_BOX):
    x = as_point(x, L.dim)
    p = as_point(p, L.dim)

    def gain(v):
        return float(np.dot(p, v) - np.asarray(L.L(x, r, v), dtype=float))

    v = _legendre_solve(gain,
                        lambda v: np.asarray(L.Lv(x, r, v), dtype=float) - p,
                        lambda v: L.Lvv(x, r, v),
                        np.zeros_like(p), tol_newton, max_iter, dual_box,
                        "Lagrangian")
    return gain(v), v


def ref_hamiltonian_from_contact(S, tol_newton=TOL_NEWTON):
    def _pointwise(fn, x, u, p):
        x = np.asarray(x, float)
        p = np.asarray(p, float)
        if x.ndim == 1:
            return fn(x, float(u), p)
        flat_x = x.reshape(-1, S.dim)
        flat_p = np.broadcast_to(p, x.shape).reshape(-1, S.dim)
        flat_u = np.broadcast_to(np.asarray(u, float), x.shape[:-1]).ravel()
        out = [fn(flat_x[i], float(flat_u[i]), flat_p[i])
               for i in range(flat_x.shape[0])]
        return np.asarray(out).reshape(x.shape[:-1] + np.shape(out[0]))

    def ham(x, u, p):
        return _pointwise(
            lambda xx, uu, pp: ref_legendre_to_hamiltonian(S, xx, uu, pp,
                                                           tol_newton=tol_newton)[0],
            x, u, p)

    def grad(x, u, p):
        return _pointwise(
            lambda xx, uu, pp: ref_legendre_to_hamiltonian(S, xx, uu, pp,
                                                           tol_newton=tol_newton)[1],
            x, u, p)

    return RefHamiltonianSystem(dim=S.dim, hamiltonian=ham, K=S.K, H_p=grad,
                                name=f"dual({S.name})" if S.name else "dual")


# ---------------------------------------------------------------------------
# twins and probes
# ---------------------------------------------------------------------------

def contact_twins(spec_id, dim, cls):
    """The built-in, a bare twin and a twin declaring only L_v, all of class cls."""
    S = builtin_system(spec_id, dim)
    meta = dict(dim=dim, lagrangian=S.lagrangian, K=S.K, theta0=S.theta0,
                theta0_bar=S.theta0_bar, c0=S.c0, theta0_conj=S.theta0_conj)
    full = dict(L_x=S.L_x, L_u=S.L_u, L_v=S.L_v, L_vv=S.L_vv)
    return {"builtin": cls(**meta, **full), "bare": cls(**meta),
            "gradient-only": cls(**meta, L_v=S.L_v)}


def hamiltonian_twins(spec_id, dim, cls):
    H = builtin_hamiltonian(spec_id, dim)
    full = dict(H_x=H.H_x, H_u=H.H_u, H_p=H.H_p, H_pp=H.H_pp)
    return {"builtin": cls(dim=dim, hamiltonian=H.hamiltonian, K=H.K, **full),
            "bare": cls(dim=dim, hamiltonian=H.hamiltonian, K=H.K),
            "gradient-only": cls(dim=dim, hamiltonian=H.hamiltonian, K=H.K, H_p=H.H_p)}


def probes(dim, seed):
    """A batch of states, one point, and a point with a scalar value slot."""
    rng = np.random.default_rng(seed)
    batch = (rng.uniform(-2, 2, (3, dim)), rng.uniform(-2, 2, 3),
             rng.uniform(-2, 2, (3, dim)))
    point = (rng.uniform(-2, 2, dim), rng.uniform(-2, 2, 1),
             rng.uniform(-2, 2, dim))
    scalar = (rng.uniform(-2, 2, dim), float(rng.uniform(-2, 2)),
              rng.uniform(-2, 2, dim))
    return [batch, point, scalar]


def outcome(fn, *args):
    """A call's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except NonConvergence as exc:
        return (type(exc), str(exc))


def same(a, b):
    if isinstance(a, tuple):
        assert isinstance(b, tuple) and len(a) == len(b)
        for x, y in zip(a, b):
            same(x, y)
    elif isinstance(a, type) or isinstance(a, str):
        assert a == b
    else:
        assert np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True), (a, b)


CASES = [(spec_id, dim) for spec_id in ALL_IDS for dim in (1, 2)]
CASE_IDS = [f"{s}-{d}d" for s, d in CASES]


# ---------------------------------------------------------------------------
# the derivative fallbacks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec_id, dim", CASES, ids=CASE_IDS)
def test_lagrangian_derivatives_match_reference(spec_id, dim):
    new, ref = contact_twins(spec_id, dim, ContactSystem), contact_twins(spec_id, dim, RefContactSystem)
    for kind in new:
        for args in probes(dim, 5):
            for name in ("L", "Lx", "Lu", "Lv", "Lvv"):
                same(getattr(new[kind], name)(*args), getattr(ref[kind], name)(*args))


@pytest.mark.parametrize("spec_id, dim", CASES, ids=CASE_IDS)
def test_hamiltonian_derivatives_match_reference(spec_id, dim):
    new, ref = hamiltonian_twins(spec_id, dim, HamiltonianSystem), hamiltonian_twins(spec_id, dim, RefHamiltonianSystem)
    for kind in new:
        for args in probes(dim, 6):
            for name in ("H", "Hx", "Hu", "Hp", "Hpp"):
                same(getattr(new[kind], name)(*args), getattr(ref[kind], name)(*args))


# ---------------------------------------------------------------------------
# the transforms and the numeric dual
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec_id, dim", CASES, ids=CASE_IDS)
def test_transforms_match_reference(spec_id, dim):
    cases = zip(contact_twins(spec_id, dim, ContactSystem).values(),
                contact_twins(spec_id, dim, RefContactSystem).values(),
                hamiltonian_twins(spec_id, dim, HamiltonianSystem).values(),
                hamiltonian_twins(spec_id, dim, RefHamiltonianSystem).values())
    for S, S_ref, H, H_ref in cases:
        for x, r, w in probes(dim, 7)[1:]:
            r = float(np.ravel(r)[0])
            same(outcome(legendre_to_hamiltonian, S, x, r, w),
                 outcome(ref_legendre_to_hamiltonian, S_ref, x, r, w))
            same(outcome(legendre_to_lagrangian, H, x, r, w),
                 outcome(ref_legendre_to_lagrangian, H_ref, x, r, w))


def test_transform_failure_matches_reference():
    # a concave "Hamiltonian" has no maximizer: both raise the same error
    H = HamiltonianSystem(dim=1, hamiltonian=lambda x, u, p: -0.5 * np.sum(p ** 2, axis=-1), K=0.0)
    H_ref = RefHamiltonianSystem(dim=1, hamiltonian=H.hamiltonian, K=0.0)
    got = outcome(legendre_to_lagrangian, H, 0.0, 0.0, 1.0)
    assert got[0] is NonConvergence
    same(got, outcome(ref_legendre_to_lagrangian, H_ref, 0.0, 0.0, 1.0))


@pytest.mark.parametrize("spec_id, dim", CASES, ids=CASE_IDS)
def test_numeric_dual_matches_reference(spec_id, dim):
    S = builtin_system(spec_id, dim)
    dual, dual_ref = hamiltonian_from_contact(S), ref_hamiltonian_from_contact(S)
    assert dual.name == dual_ref.name and dual.K == dual_ref.K
    # the dual reads a lone point's value slot as a Python float
    batch, _, scalar = probes(dim, 8)
    for args in (batch, scalar):
        for name in ("H", "Hp", "Hx", "Hu"):
            same(getattr(dual, name)(*args), getattr(dual_ref, name)(*args))
    same(dual.Hpp(*scalar), dual_ref.Hpp(*scalar))
    x, r, v = scalar
    same(legendre_to_lagrangian(dual, x, r, v), ref_legendre_to_lagrangian(dual_ref, x, r, v))
