"""Contact Lagrangian/Hamiltonian systems and their convex duality.

A contact system couples a Tonelli-type Lagrangian L(x, u, v) -- or a
Hamiltonian H(x, u, p) -- with the growth metadata the downstream bounds
consume: a coercivity envelope theta0/theta0_bar with offset c0, and a
uniform bound K on the derivative in the value slot u.  The metadata is
declared by the caller, never inferred; `verify_conditions` audits it on
a sampled box.

Evaluator contract
------------------
All evaluators are vectorized over a leading batch axis: x and v have
shape (..., n), u has shape (...,), and results broadcast accordingly.
The built-ins return fresh float arrays, never views of their arguments,
of the broadcast batch shape of the arguments they read (a scalar result
of one lone point is a numpy float).  Evaluators must be pure; a system
instance may be shared read-only between workers (the conjugate cache
only performs idempotent inserts).

Each derivative method (`Lx`, `Lu`, `Lv`, `Lvv`; `Hx`, `Hu`, `Hp`, `Hpp`)
returns its declared field (`L_x`, ...) and otherwise falls back to
central finite differences with step `H_FD`, by one rule (`_partial`).
First derivatives difference the raw `lagrangian` / `hamiltonian`;
second derivatives difference the first-derivative method, so supplying
an analytic gradient already gives accurate Hessians.  Both sides of
the Legendre duality share one transform (`_legendre`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from ._util import as_point, golden_min, parse_id
from .errors import NonConvergence, PreconditionError

Evaluator = Callable[..., np.ndarray]

#: step of the central finite differences that fill undeclared derivatives
H_FD = 1e-5
#: tolerance of the Legendre stationarity solve
TOL_NEWTON = 1e-10
#: half-width of the fallback search box for dual variables
DUAL_BOX = 1e3
#: default radius of the conjugate grid for theta0*
CONJUGATE_RMAX = 1e3


# ---------------------------------------------------------------------------
# finite differences (batched, central)
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
    return (f(u + h) - f(u - h)) / (2.0 * h)


def _fd_jacobian_last_axis(g, z, h):
    """Central-difference Jacobian of a vector field g along the last axis.

    Returns shape (..., n, n) with [i, j] = d g_j / d z_i, symmetrized,
    which is the Hessian when g is a gradient.
    """
    m = _fd_grad_last_axis(g, z, h)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _partial(declared: str, of: str, slot: int, fd):
    """Derivative method: the `declared` field if set, else `fd` central
    differences (step H_FD) of the evaluator `of` in argument `slot`
    (0 = x, 1 = u, 2 = v or p)."""
    def partial(self, x, u, z):
        exact = getattr(self, declared)
        if exact is not None:
            return exact(x, u, z)
        f, args = getattr(self, of), (x, u, z)

        def along(w):
            return f(*args[:slot], w, *args[slot + 1:])
        return fd(along, np.asarray(args[slot], float), H_FD)
    return partial


# ---------------------------------------------------------------------------
# system types
# ---------------------------------------------------------------------------

@dataclass
class ContactSystem:
    """Lagrangian-side contact system with growth metadata.

    Parameters mirror the conditions a Tonelli-type contact Lagrangian
    satisfies: L strictly convex in v, sandwiched between nondecreasing
    superlinear envelopes, with |dL/du| <= K.
    """

    dim: int
    lagrangian: Evaluator
    K: float
    theta0: Callable[[np.ndarray], np.ndarray]
    theta0_bar: Callable[[np.ndarray], np.ndarray]
    c0: float
    C_const: Optional[float] = None
    L_x: Optional[Evaluator] = None
    L_u: Optional[Evaluator] = None
    L_v: Optional[Evaluator] = None
    L_vv: Optional[Evaluator] = None
    theta0_conj: Optional[Callable[[float], float]] = None
    name: str = ""
    _conj_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise PreconditionError(f"dim must be 1 or 2, got {self.dim}")
        if self.K < 0 or self.c0 < 0:
            raise PreconditionError("K and c0 must be nonnegative")
        if self.C_const is None:
            self.C_const = float(self.theta0_bar(0.0))

    # evaluators ------------------------------------------------------

    def L(self, x, u, v):
        return self.lagrangian(x, u, v)

    Lx = _partial("L_x", "lagrangian", 0, _fd_grad_last_axis)
    Lu = _partial("L_u", "lagrangian", 1, _fd_scalar)
    Lv = _partial("L_v", "lagrangian", 2, _fd_grad_last_axis)
    Lvv = _partial("L_vv", "Lv", 2, _fd_jacobian_last_axis)

    # growth ----------------------------------------------------------

    def theta0_star(self, k: float, r_max: float = CONJUGATE_RMAX) -> float:
        """Convex conjugate sup_{r in [0, r_max]} (k r - theta0(r)).

        Computed by grid maximization plus golden refinement and cached
        per argument; a user-supplied closed form, when present, takes
        precedence over the numeric conjugate.
        """
        if self.theta0_conj is not None:
            return float(self.theta0_conj(k))
        key = (float(k), float(r_max))
        cached = self._conj_cache.get(key)
        if cached is not None:
            return cached
        r = np.linspace(0.0, r_max, 4097)
        g = k * r - np.asarray(self.theta0(r), dtype=float)
        j = int(np.argmax(g))
        lo = r[max(j - 1, 0)]
        hi = r[min(j + 1, r.size - 1)]
        _, neg = golden_min(lambda rr: float(self.theta0(rr)) - k * rr, lo, hi, xtol=1e-12)
        val = max(float(g[j]), -neg)
        self._conj_cache[key] = val
        return val


@dataclass
class HamiltonianSystem:
    """Hamiltonian-side contact system; dual counterpart of ContactSystem."""

    dim: int
    hamiltonian: Evaluator
    K: float
    H_x: Optional[Evaluator] = None
    H_u: Optional[Evaluator] = None
    H_p: Optional[Evaluator] = None
    H_pp: Optional[Evaluator] = None
    name: str = ""

    def H(self, x, u, p):
        return self.hamiltonian(x, u, p)

    Hx = _partial("H_x", "hamiltonian", 0, _fd_grad_last_axis)
    Hu = _partial("H_u", "hamiltonian", 1, _fd_scalar)
    Hp = _partial("H_p", "hamiltonian", 2, _fd_grad_last_axis)
    Hpp = _partial("H_pp", "Hp", 2, _fd_jacobian_last_axis)


# ---------------------------------------------------------------------------
# Legendre transform
# ---------------------------------------------------------------------------

def _damped_newton_root(F, J, z0):
    """Damped Newton for F(z) = 0 to TOL_NEWTON; returns (z, converged)."""
    z = np.array(z0, dtype=float)
    Fz = np.atleast_1d(np.asarray(F(z), dtype=float))
    nrm = float(np.linalg.norm(Fz))
    for _ in range(100):
        if nrm <= TOL_NEWTON:
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
                return z, nrm <= TOL_NEWTON
        z, Fz, nrm = z_new, F_new, n_new
    return z, nrm <= TOL_NEWTON


def _coordinate_golden_min(f, z0, lo, hi, xtol=1e-9, sweeps=4):
    """Cyclic per-coordinate golden-section descent on [lo, hi]^n."""
    z = np.array(z0, dtype=float)
    for _ in range(sweeps):
        for i in range(z.size):
            def fi(c, i=i):
                zz = z.copy()
                zz[i] = c
                return f(zz)
            z[i] = golden_min(fi, lo, hi, xtol=xtol)[0]
    return z


def _probes(z, delta):
    """Axis and diagonal probe points around z."""
    n = z.size
    pts = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = delta
        pts.append(z + e)
        pts.append(z - e)
    if n == 2:
        for sx in (1.0, -1.0):
            for sy in (1.0, -1.0):
                pts.append(z + delta * np.array([sx, sy]))
    return pts


def _is_local_max(gain, z, scale=1.0):
    """Probe whether z locally maximizes the concave gain (rejects saddles)."""
    g0 = gain(z)
    delta = 1e-4 * (1.0 + float(np.linalg.norm(z))) * scale
    tol = 1e-10 * (1.0 + abs(g0))
    return all(gain(q) <= g0 + tol for q in _probes(z, delta))


def _legendre(system, value, grad, hess, x, r, w, what):
    """sup_z <z, w> - value(x, r, z) and its maximizer, for either side.

    Solves the stationarity system grad(x, r, z) = w by damped Newton from
    z = 0; if the Hessian is numerically singular, Newton stalls, or the
    stationary point is not a maximum, falls back to per-coordinate
    golden-section search on [-DUAL_BOX, DUAL_BOX] plus a Newton polish.
    """
    x = as_point(x, system.dim)
    w = as_point(w, system.dim)

    def gain(z):
        return float(np.dot(z, w) - np.asarray(value(x, r, z), dtype=float))

    def F(z):
        return np.asarray(grad(x, r, z), dtype=float) - w

    def J(z):
        return hess(x, r, z)

    z0 = np.zeros_like(w)
    z, ok = _damped_newton_root(F, J, z0)
    if ok and not _is_local_max(gain, z):
        ok = False
    if not ok:
        z = _coordinate_golden_min(lambda q: -gain(q), z0.copy(), -DUAL_BOX, DUAL_BOX)
        z, ok = _damped_newton_root(F, J, z)
        ok = ok and _is_local_max(gain, z)
    if not ok:
        raise NonConvergence(
            f"Legendre stationarity solve failed; the {what} may not be "
            "strictly convex/superlinear in its dual slot")
    return gain(z), z


def legendre_to_lagrangian(H: HamiltonianSystem, x, r: float, v):
    """sup_p <p, v> - H(x, r, p) and its maximizer (see `_legendre`)."""
    return _legendre(H, H.H, H.Hp, H.Hpp, x, r, v, "Hamiltonian")


def legendre_to_hamiltonian(L: ContactSystem, x, r: float, p):
    """sup_v <p, v> - L(x, r, v) and its maximizer (inverse transform)."""
    return _legendre(L, L.L, L.Lv, L.Lvv, x, r, p, "Lagrangian")


def hamiltonian_from_contact(S: ContactSystem) -> HamiltonianSystem:
    """Wrap the numeric Legendre transform of S as a HamiltonianSystem.

    The gradient H_p is the maximizing velocity of the inner transform
    (conjugate-gradient identity), so it carries no finite-difference
    noise on top of the Newton tolerance.  Point-wise, an order of
    magnitude slower than an analytic dual; intended for diagnostics on
    systems that only declare the Lagrangian side.
    """
    def pointwise(slot):
        # slot 0 of the transform's result is H, slot 1 its gradient H_p
        def evaluator(x, u, p):
            x = np.asarray(x, float)
            p = np.asarray(p, float)
            if x.ndim == 1:
                return legendre_to_hamiltonian(S, x, float(u), p)[slot]
            flat_x = x.reshape(-1, S.dim)
            flat_p = np.broadcast_to(p, x.shape).reshape(-1, S.dim)
            flat_u = np.broadcast_to(np.asarray(u, float), x.shape[:-1]).ravel()
            out = [legendre_to_hamiltonian(S, flat_x[i], float(flat_u[i]), flat_p[i])[slot]
                   for i in range(flat_x.shape[0])]
            return np.asarray(out).reshape(x.shape[:-1] + np.shape(out[0]))
        return evaluator

    return HamiltonianSystem(dim=S.dim, hamiltonian=pointwise(0), K=S.K, H_p=pointwise(1),
                             name=f"dual({S.name})" if S.name else "dual")


# ---------------------------------------------------------------------------
# condition audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleBox:
    """Axis-aligned sampling region for the condition audit."""

    x_bounds: tuple  # ((lo, hi),) * dim
    u_bounds: tuple  # (lo, hi)
    v_bounds: tuple  # ((lo, hi),) * dim

    @classmethod
    def cube(cls, dim: int, half_width: float = 5.0) -> "SampleBox":
        b = tuple((-half_width, half_width) for _ in range(dim))
        return cls(x_bounds=b, u_bounds=(-half_width, half_width), v_bounds=b)


@dataclass
class ConditionReport:
    """Worst-case margins of the standing conditions on sampled points.

    Margins are signed: nonnegative means the condition held on every
    sample.  The report never raises; callers inspect `violations`.
    """

    samples: int
    lvv_min_eig: float
    lu_bound_margin: float
    sandwich_upper_margin: float
    sandwich_lower_margin: float
    theta0_at_zero: float
    theta0_monotone_margin: float
    theta0_bar_monotone_margin: float
    theta0_superlinear_margin: float
    violations: list

    MARGIN_TOL = 1e-9

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_conditions(S: ContactSystem, box: SampleBox, samples: int = 256,
                      seed: int = 0) -> ConditionReport:
    """Audit the declared growth/convexity conditions on Latin-hypercube samples.

    Superlinearity is only checked as nondecreasing difference quotients
    theta0(r)/r on the sampled radii; a genuine limit at infinity is not
    numerically decidable.
    """
    if samples < 1:
        raise PreconditionError("samples must be >= 1")
    n = S.dim
    d = 2 * n + 1
    # Latin hypercube: one shuffled stratum per sample and axis, jittered
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(size=(samples, d))
    perms = np.tile(np.arange(1, samples + 1), (d, 1))
    for row in perms:
        rng.shuffle(row)
    lows = np.array([b[0] for b in box.x_bounds] + [box.u_bounds[0]]
                    + [b[0] for b in box.v_bounds])
    highs = np.array([b[1] for b in box.x_bounds] + [box.u_bounds[1]]
                     + [b[1] for b in box.v_bounds])
    pts = (perms.T - jitter) / samples * (highs - lows) + lows
    x = pts[:, :n]
    u = pts[:, n]
    v = pts[:, n + 1:]

    Lval = np.asarray(S.L(x, u, v), dtype=float)
    Lu = np.asarray(S.Lu(x, u, v), dtype=float)
    Lvv = np.asarray(S.Lvv(x, u, v), dtype=float)
    eigs = np.linalg.eigvalsh(Lvv.reshape(samples, n, n))
    speed = np.linalg.norm(v, axis=-1)

    upper = np.asarray(S.theta0_bar(speed), dtype=float) + S.K * np.abs(u) - Lval
    lower = Lval - np.asarray(S.theta0(speed), dtype=float) + S.c0 + S.K * np.abs(u)

    radii = np.unique(np.concatenate([speed, np.linspace(0.0, speed.max() + 1.0, 33)]))
    radii.sort()
    th0 = np.asarray(S.theta0(radii), dtype=float)
    th0b = np.asarray(S.theta0_bar(radii), dtype=float)
    mono0 = float(np.min(np.diff(th0))) if radii.size > 1 else 0.0
    mono0b = float(np.min(np.diff(th0b))) if radii.size > 1 else 0.0
    pos = radii[radii > 0]
    quot = np.asarray(S.theta0(pos), dtype=float) / pos
    superlin = float(np.min(np.diff(quot))) if pos.size > 1 else 0.0

    report = ConditionReport(
        samples=samples,
        lvv_min_eig=float(eigs.min()),
        lu_bound_margin=float(S.K - np.abs(Lu).max()),
        sandwich_upper_margin=float(upper.min()),
        sandwich_lower_margin=float(lower.min()),
        theta0_at_zero=float(S.theta0(0.0)),
        theta0_monotone_margin=mono0,
        theta0_bar_monotone_margin=mono0b,
        theta0_superlinear_margin=superlin,
        violations=[],
    )
    t = ConditionReport.MARGIN_TOL
    checks = [
        ("L_vv not positive definite", report.lvv_min_eig > -t),
        ("|L_u| exceeds declared K", report.lu_bound_margin > -t),
        ("upper growth bound violated", report.sandwich_upper_margin > -t),
        ("lower growth bound violated", report.sandwich_lower_margin > -t),
        ("theta0(0) != 0", abs(report.theta0_at_zero) <= t),
        ("theta0 not nondecreasing", report.theta0_monotone_margin > -t),
        ("theta0_bar not nondecreasing", report.theta0_bar_monotone_margin > -t),
        ("theta0 difference quotients decrease", report.theta0_superlinear_margin > -t),
    ]
    report.violations = [msg for msg, ok in checks if not ok]
    return report


# ---------------------------------------------------------------------------
# built-in systems
# ---------------------------------------------------------------------------

def _sq(v):
    return 0.5 * np.add.reduce(np.asarray(v, float) ** 2, axis=-1)


def _eye_like(v):
    v = np.asarray(v, float)
    n = v.shape[-1]
    return np.broadcast_to(np.eye(n), v.shape + (n,)).copy()


def _fill(c, u, z):
    """c over the broadcast batch shape of (u, z), read off their shapes."""
    out = np.empty(np.broadcast(u, np.asarray(z, float)[..., 0]).shape)
    out[...] = c
    return out


def quadratic_system(dim: int = 1) -> ContactSystem:
    """L = |v|^2 / 2 (classical kinetic action, no value coupling)."""
    return ContactSystem(
        dim=dim,
        lagrangian=lambda x, u, v: _sq(v),
        K=0.0,
        theta0=lambda r: 0.5 * np.asarray(r, float) ** 2,
        theta0_bar=lambda r: 0.5 * np.asarray(r, float) ** 2,
        c0=0.0,
        L_x=lambda x, u, v: np.zeros(np.shape(v)),
        L_u=lambda x, u, v: _fill(0.0, u, v),
        L_v=lambda x, u, v: np.asarray(v, float).copy(),
        L_vv=lambda x, u, v: _eye_like(v),
        theta0_conj=lambda k: 0.5 * float(k) ** 2,
        name="quadratic",
    )


def discounted_quadratic_system(lam: float, dim: int = 1) -> ContactSystem:
    """L = -lam*u + |v|^2 / 2 (discounted kinetic action)."""
    if lam < 0:
        raise PreconditionError("discount rate must be nonnegative")
    return ContactSystem(
        dim=dim,
        lagrangian=lambda x, u, v: -lam * np.asarray(u, float) + _sq(v),
        K=float(lam),
        theta0=lambda r: 0.5 * np.asarray(r, float) ** 2,
        theta0_bar=lambda r: 0.5 * np.asarray(r, float) ** 2,
        c0=0.0,
        L_x=lambda x, u, v: np.zeros(np.shape(v)),
        L_u=lambda x, u, v: _fill(-lam, u, v),
        L_v=lambda x, u, v: np.asarray(v, float).copy(),
        L_vv=lambda x, u, v: _eye_like(v),
        theta0_conj=lambda k: 0.5 * float(k) ** 2,
        name=f"discounted-quadratic({lam:g})",
    )


def quartic_system(dim: int = 1) -> ContactSystem:
    """L = |v|^4 / 4 (superlinear beyond quadratic, still value-free)."""
    def lag(x, u, v):
        v = np.asarray(v, float)
        return 0.25 * np.add.reduce(v * v, axis=-1) ** 2

    def grad(x, u, v):
        v = np.asarray(v, float)
        return np.add.reduce(v * v, axis=-1)[..., None] * v

    def hess(x, u, v):
        v = np.asarray(v, float)
        s = np.add.reduce(v * v, axis=-1)
        return s[..., None, None] * _eye_like(v) + 2.0 * v[..., :, None] * v[..., None, :]

    return ContactSystem(
        dim=dim,
        lagrangian=lag,
        K=0.0,
        theta0=lambda r: 0.25 * np.asarray(r, float) ** 4,
        theta0_bar=lambda r: 0.25 * np.asarray(r, float) ** 4,
        c0=0.0,
        L_x=lambda x, u, v: np.zeros(np.shape(v)),
        L_u=lambda x, u, v: _fill(0.0, u, v),
        L_v=grad,
        L_vv=hess,
        theta0_conj=lambda k: 0.75 * abs(float(k)) ** (4.0 / 3.0),
        name="quartic",
    )


def trig_contact_system(dim: int = 1) -> ContactSystem:
    """L = |v|^2/2 + sin(x_1) sin(u): genuine, bounded value coupling."""
    def lag(x, u, v):
        x = np.asarray(x, float)
        return _sq(v) + np.sin(x[..., 0]) * np.sin(np.asarray(u, float))

    def lx(x, u, v):
        x = np.asarray(x, float)
        dx = np.cos(x[..., 0]) * np.sin(np.asarray(u, float))
        out = np.zeros(np.shape(dx) + x.shape[-1:])
        out[..., 0] = dx
        return out

    def lu(x, u, v):
        x = np.asarray(x, float)
        return np.sin(x[..., 0]) * np.cos(np.asarray(u, float))

    return ContactSystem(
        dim=dim,
        lagrangian=lag,
        K=1.0,
        theta0=lambda r: 0.5 * np.asarray(r, float) ** 2,
        theta0_bar=lambda r: 0.5 * np.asarray(r, float) ** 2 + 1.0,
        c0=1.0,
        L_x=lx,
        L_u=lu,
        L_v=lambda x, u, v: np.asarray(v, float).copy(),
        L_vv=lambda x, u, v: _eye_like(v),
        theta0_conj=lambda k: 0.5 * float(k) ** 2,
        name="trig-contact",
    )


def quadratic_hamiltonian(dim: int = 1) -> HamiltonianSystem:
    """H = |p|^2 / 2, dual of the quadratic system."""
    return HamiltonianSystem(
        dim=dim,
        hamiltonian=lambda x, u, p: _sq(p),
        K=0.0,
        H_x=lambda x, u, p: np.zeros(np.shape(p)),
        H_u=lambda x, u, p: _fill(0.0, u, p),
        H_p=lambda x, u, p: np.asarray(p, float).copy(),
        H_pp=lambda x, u, p: _eye_like(p),
        name="quadratic",
    )


def discounted_quadratic_hamiltonian(lam: float, dim: int = 1) -> HamiltonianSystem:
    """H = lam*u + |p|^2 / 2, dual of the discounted quadratic system."""
    return HamiltonianSystem(
        dim=dim,
        hamiltonian=lambda x, u, p: lam * np.asarray(u, float) + _sq(p),
        K=float(lam),
        H_x=lambda x, u, p: np.zeros(np.shape(p)),
        H_u=lambda x, u, p: _fill(lam, u, p),
        H_p=lambda x, u, p: np.asarray(p, float).copy(),
        H_pp=lambda x, u, p: _eye_like(p),
        name=f"discounted-quadratic({lam:g})",
    )


def quartic_hamiltonian(dim: int = 1) -> HamiltonianSystem:
    """H = (3/4) |p|^(4/3), dual of the quartic system (singular at p=0)."""
    eps = 1e-300

    def ham(x, u, p):
        p = np.asarray(p, float)
        return 0.75 * np.add.reduce(p * p, axis=-1) ** (2.0 / 3.0)

    def hp(x, u, p):
        p = np.asarray(p, float)
        s = np.add.reduce(p * p, axis=-1)
        return (s + eps)[..., None] ** (-1.0 / 3.0) * p

    return HamiltonianSystem(dim=dim, hamiltonian=ham, K=0.0,
                             H_x=lambda x, u, p: np.zeros(np.shape(p)),
                             H_u=lambda x, u, p: _fill(0.0, u, p), H_p=hp, name="quartic")


def trig_contact_hamiltonian(dim: int = 1) -> HamiltonianSystem:
    """H = |p|^2/2 - sin(x_1) sin(u), dual of the trig-contact system."""
    def ham(x, u, p):
        x = np.asarray(x, float)
        return _sq(p) - np.sin(x[..., 0]) * np.sin(np.asarray(u, float))

    def hx(x, u, p):
        x = np.asarray(x, float)
        dx = -np.cos(x[..., 0]) * np.sin(np.asarray(u, float))
        out = np.zeros(np.shape(dx) + x.shape[-1:])
        out[..., 0] = dx
        return out

    def hu(x, u, p):
        x = np.asarray(x, float)
        return -np.sin(x[..., 0]) * np.cos(np.asarray(u, float))

    return HamiltonianSystem(
        dim=dim,
        hamiltonian=ham,
        K=1.0,
        H_x=hx,
        H_u=hu,
        H_p=lambda x, u, p: np.asarray(p, float).copy(),
        H_pp=lambda x, u, p: _eye_like(p),
        name="trig-contact",
    )


BUILTIN_SYSTEM_IDS = ("quadratic", "discounted-quadratic(<lambda>)", "quartic", "trig-contact")


#: id -> (Lagrangian builder, Hamiltonian builder, takes a rate argument)
_BUILTINS = {
    "quadratic": (quadratic_system, quadratic_hamiltonian, False),
    "discounted-quadratic": (discounted_quadratic_system,
                             discounted_quadratic_hamiltonian, True),
    "quartic": (quartic_system, quartic_hamiltonian, False),
    "trig-contact": (trig_contact_system, trig_contact_hamiltonian, False),
}


def _builtin(spec_id: str, dim: int, side: int):
    """Resolve a built-in id to its Lagrangian (side 0) or Hamiltonian (side 1) system."""
    base, arg = parse_id(spec_id, "system")
    if base not in _BUILTINS:
        raise PreconditionError(f"unknown system id {spec_id!r}; known: {BUILTIN_SYSTEM_IDS}")
    *builders, takes_rate = _BUILTINS[base]
    if not takes_rate:
        if arg is not None:
            raise PreconditionError(f"{base} takes no argument, got {spec_id!r}")
        return builders[side](dim)
    if arg is None:
        raise PreconditionError(f"{base} requires a rate, e.g. {base}(1.0)")
    return builders[side](arg, dim)


def builtin_system(spec_id: str, dim: int = 1) -> ContactSystem:
    """Resolve a built-in Lagrangian system id such as 'discounted-quadratic(0.5)'."""
    return _builtin(spec_id, dim, 0)


def builtin_hamiltonian(spec_id: str, dim: int = 1) -> HamiltonianSystem:
    """Resolve the Hamiltonian dual of a built-in system id."""
    return _builtin(spec_id, dim, 1)


def with_overrides(S: ContactSystem, **kwargs) -> ContactSystem:
    """Copy a system with replaced metadata (used by config-level overrides)."""
    allowed = {"K", "c0", "C_const", "theta0", "theta0_bar", "theta0_conj", "name"}
    bad = set(kwargs) - allowed
    if bad:
        raise PreconditionError(f"cannot override fields {sorted(bad)}")
    return replace(S, _conj_cache={}, **kwargs)
