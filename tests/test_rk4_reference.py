"""The shared RK4 stepper against the hand-rolled loops it replaced.

The reference loops below are the earlier per-purpose integrators, kept
verbatim: the cost sweep must reproduce its reference bit for bit, the
exponential-weight, characteristic and frozen-gap results to 1e-12.
"""

import numpy as np
import pytest
from conftest import rel

from contact_hj import (Curve, Overflow, contact_bound,
                        discounted_quadratic_hamiltonian,
                        discounted_quadratic_system, fundamental_exponential,
                        integrate_cost_backward, perturbed_system,
                        quadratic_system, quartic_hamiltonian,
                        trig_contact_hamiltonian, trig_contact_system)
from contact_hj.cost_ode import _rk4_sweep
from contact_hj.errors import OVERFLOW_LIMIT
from contact_hj.fundamental import _characteristics

TOL = 1e-12


# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------

def _ref_rk4_sweep(S, t_final, nodes, u0, substeps):
    B, Np1, n = nodes.shape
    N = Np1 - 1
    m = int(substeps)
    h = t_final / (N * m)
    vel = (nodes[:, 1:, :] - nodes[:, :-1, :]) * (N / t_final)
    # stage positions are u-independent; precompute them for the whole sweep
    offs = np.arange(m) * h
    starts = nodes[:, :-1, None, :] + offs[None, None, :, None] * vel[:, :, None, :]
    mids = starts + (0.5 * h) * vel[:, :, None, :]
    ends = starts + h * vel[:, :, None, :]
    u = np.array(u0, dtype=float).reshape(B).copy()
    out = np.empty((B, N * m + 1))
    out[:, 0] = u
    col = 1
    h6 = h / 6.0
    for k in range(N):
        vk = vel[:, k, :]
        for j in range(m):
            k1 = S.L(starts[:, k, j], u, vk)
            k2 = S.L(mids[:, k, j], u + 0.5 * h * k1, vk)
            k3 = S.L(mids[:, k, j], u + 0.5 * h * k2, vk)
            k4 = S.L(ends[:, k, j], u + h * k3, vk)
            u = u + h6 * (k1 + 2.0 * (k2 + k3) + k4)
            out[:, col] = u
            col += 1
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > OVERFLOW_LIMIT:
            raise Overflow(f"|u| exceeded {OVERFLOW_LIMIT:g} during cost integration")
    return out


def _exp_sweep(S, t_final, nodes, u0, substeps):
    B, Np1, _ = nodes.shape
    N = Np1 - 1
    m = int(substeps)
    h = t_final / (N * m)
    vel = (nodes[:, 1:, :] - nodes[:, :-1, :]) * (N / t_final)
    u = np.array(u0, dtype=float).reshape(B).copy()
    I = np.zeros(B)
    J = np.zeros(B)

    def rhs(pos, vk, uu, ii):
        lval = np.asarray(S.L(pos, uu, vk), dtype=float)
        lu = np.asarray(S.Lu(pos, uu, vk), dtype=float)
        return lval, lu, np.exp(-ii) * (lval - uu * lu)

    for k in range(N):
        a = nodes[:, k, :]
        vk = vel[:, k, :]
        for j in range(m):
            x0 = a + (j * h) * vk
            xm = a + ((j + 0.5) * h) * vk
            x1 = a + ((j + 1) * h) * vk
            du1, dI1, dJ1 = rhs(x0, vk, u, I)
            du2, dI2, dJ2 = rhs(xm, vk, u + 0.5 * h * du1, I + 0.5 * h * dI1)
            du3, dI3, dJ3 = rhs(xm, vk, u + 0.5 * h * du2, I + 0.5 * h * dI2)
            du4, dI4, dJ4 = rhs(x1, vk, u + h * du3, I + h * dI3)
            u = u + (h / 6.0) * (du1 + 2 * du2 + 2 * du3 + du4)
            I = I + (h / 6.0) * (dI1 + 2 * dI2 + 2 * dI3 + dI4)
            J = J + (h / 6.0) * (dJ1 + 2 * dJ2 + 2 * dJ3 + dJ4)
        if np.max(np.abs(u)) > OVERFLOW_LIMIT:
            raise Overflow("cost blow-up inside exponential-weight evaluation")
    return u, I, J


def _lie_batch(HS, t, x0, u0, p0, steps, record=False):
    B, n = p0.shape
    xi = np.broadcast_to(x0, (B, n)).astype(float).copy()
    p = np.array(p0, dtype=float)
    u = np.full(B, float(u0))
    h = t / steps
    if record:
        path_xi = np.empty((steps + 1, B, n))
        path_p = np.empty((steps + 1, B, n))
        path_u = np.empty((steps + 1, B))
        path_xi[0], path_p[0], path_u[0] = xi, p, u
    for i in range(steps):
        k1x, k1p, k1u = HS.characteristic_field(xi, p, u)
        k2x, k2p, k2u = HS.characteristic_field(xi + 0.5 * h * k1x, p + 0.5 * h * k1p, u + 0.5 * h * k1u)
        k3x, k3p, k3u = HS.characteristic_field(xi + 0.5 * h * k2x, p + 0.5 * h * k2p, u + 0.5 * h * k2u)
        k4x, k4p, k4u = HS.characteristic_field(xi + h * k3x, p + h * k3p, u + h * k3u)
        xi = xi + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        p = p + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
        u = u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > OVERFLOW_LIMIT:
            raise Overflow("characteristic integration blew up")
        if record:
            path_xi[i + 1], path_p[i + 1], path_u[i + 1] = xi, p, u
    if record:
        return path_xi, path_p, path_u
    return xi, p, u


def _frozen_gap_integral(S_lambda, L0, xi, substeps):
    N = xi.segments
    m = int(substeps)
    h = xi.t_final / (N * m)
    vel = xi.velocities
    total = 0.0
    zero = np.zeros(())
    for k in range(N):
        a = xi.nodes[k]
        vk = vel[k]

        def f(shift):
            pos = a + shift * vk
            return abs(float(S_lambda.L(pos, zero, vk)) - float(L0.L(pos, zero, vk)))

        for j in range(m):
            f0 = f(j * h)
            fm = f((j + 0.5) * h)
            f1 = f((j + 1) * h)
            total += (h / 6.0) * (f0 + 4.0 * fm + f1)
    return total


def _max_rel(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("B,N,dim", [(15, 8, 1), (127, 64, 1), (9, 6, 2)])
@pytest.mark.parametrize("make", [discounted_quadratic_system, trig_contact_system])
def test_cost_sweep_bit_identical(B, N, dim, make):
    S = make(1.0, dim) if make is discounted_quadratic_system else make(dim)
    rng = np.random.default_rng(B + N)
    nodes = np.cumsum(rng.uniform(-0.4, 0.4, (B, N + 1, dim)), axis=1)
    u0 = rng.uniform(-1.0, 1.0, B)
    got = _rk4_sweep(S.L, 1.3, nodes, u0, 4)
    assert np.array_equal(got, _ref_rk4_sweep(S, 1.3, nodes, u0, 4))


def test_backward_sweep_bit_identical():
    S = trig_contact_system()
    rng = np.random.default_rng(3)
    xi = Curve(0.8, np.cumsum(rng.uniform(-0.5, 0.5, (7, 1)), axis=0))

    class Flipped:
        @staticmethod
        def L(x, w, v_rev):
            return -np.asarray(S.L(x, w, -np.asarray(v_rev, float)), dtype=float)

    rev = xi.reversed()
    ref = _ref_rk4_sweep(Flipped, rev.t_final, rev.nodes[None], np.array([0.3]), 8)[0]
    got = integrate_cost_backward(S, xi, 0.3, 8)
    assert np.array_equal(got.samples, ref[::-1])


@pytest.mark.parametrize("S", [discounted_quadratic_system(0.7), trig_contact_system(),
                               perturbed_system(0.5), trig_contact_system(2)],
                         ids=["discounted", "trig", "perturbed", "trig-2d"])
def test_exponential_matches_reference(S):
    rng = np.random.default_rng(11)
    for _ in range(4):
        xi = Curve(1.1, np.cumsum(rng.uniform(-0.5, 0.5, (9, S.dim)), axis=0))
        u = float(rng.uniform(-1.0, 1.0))
        _, I, J = _exp_sweep(S, xi.t_final, xi.nodes[None], np.array([u]), 4)
        ref = float(np.exp(I[0]) * (u + J[0]))
        assert rel(fundamental_exponential(S, xi, u, 4), ref) <= TOL


@pytest.mark.parametrize("HS", [discounted_quadratic_hamiltonian(1.0),
                                trig_contact_hamiltonian(), quartic_hamiltonian(),
                                trig_contact_hamiltonian(2)],
                         ids=["discounted", "trig", "quartic", "trig-2d"])
def test_characteristics_match_reference(HS):
    n = HS.dim
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-1.0, 1.0, n)
    p0 = rng.uniform(-2.0, 2.0, (7, n))
    for record in (False, True):
        ref = _lie_batch(HS, 0.9, x0, 0.4, p0, 64, record)
        got = _characteristics(HS, 0.9, x0, 0.4, p0, 64, record)
        assert _max_rel(got[..., :n], ref[0]) <= TOL
        assert _max_rel(got[..., n:-1], ref[1]) <= TOL
        assert _max_rel(got[..., -1], ref[2]) <= TOL


@pytest.mark.parametrize("S_lam", [perturbed_system(0.3), perturbed_system(0.3, 2),
                                   discounted_quadratic_system(0.5)],
                         ids=["perturbed", "perturbed-2d", "discounted"])
def test_frozen_gap_matches_reference(S_lam):
    L0 = quadratic_system(S_lam.dim)
    rng = np.random.default_rng(8)
    nodes = np.cumsum(rng.uniform(-0.3, 0.3, (9, S_lam.dim)), axis=0)
    xi = Curve(1.2, nodes)
    R = float(np.linalg.norm(nodes[-1] - nodes[0])) + 1.0
    r = contact_bound(S_lam, L0, xi, 0.2, R, substeps=4)
    assert rel(r.correction_integral, _frozen_gap_integral(S_lam, L0, xi, 4)) <= TOL

