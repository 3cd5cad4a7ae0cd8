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
shape (..., n), u has shape (...,), and their batch shapes broadcast.
Arguments may be non-contiguous views: the characteristic sweep hands
x and p over as (B, n) transposed views of its component-major state, so
an evaluator must not rely on their memory layout.  The built-ins return
fresh float arrays, never views of their arguments, of the broadcast
batch shape of just the arguments they read (|v|^2 / 2 of one v is one
number for any batch of u; a lone point gives a numpy float).  The RK4
stepper works in float64: a result of another dtype, such as float32,
counts as its np.asarray(r, float).  Evaluators must be pure; a system
instance may be shared read-only between workers.

Each derivative method (`Lx`, `Lu`, `Lv`, `Lvv`; `Hx`, `Hu`, `Hp`, `Hpp`)
returns its declared field (`L_x`, ...) and otherwise falls back to
central finite differences with step `H_FD`, by one rule (`_partial`).
First derivatives difference the raw `lagrangian` / `hamiltonian`;
second derivatives difference the first-derivative method, so supplying
an analytic gradient already gives accurate Hessians.  Both sides of
the Legendre duality share one transform (`_legendre`).
`HamiltonianSystem.stage_field` follows the same rule, settled once per
sweep, and assembles -H_x - H_u p one way for every system
(`_momentum_field`): only the built-in terms marked on their evaluators,
a zero H_x and a constant H_u, are applied without a call.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ._util import as_count, as_point, const, golden_min, resolve_id
from .errors import NonConvergence, PreconditionError

Evaluator = Callable[..., np.ndarray]

#: step of the central finite differences that fill undeclared derivatives
H_FD = 1e-5
#: tolerance of the Legendre stationarity solve
TOL_NEWTON = 1e-10
#: half-width of the fallback search box for dual variables
DUAL_BOX = 1e3
#: radius of the conjugate grid for theta0*
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

def _check_contract(dim, **rates) -> None:
    """What both sides of the duality require: dim 1 or 2, finite nonnegative rates."""
    if dim not in (1, 2):
        raise PreconditionError(f"dim must be 1 or 2, got {dim}")
    if not all(math.isfinite(r) for r in rates.values()):
        raise PreconditionError(f"{' and '.join(rates)} must be finite")
    if any(r < 0 for r in rates.values()):
        raise PreconditionError(f"{' and '.join(rates)} must be nonnegative")


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

    def __post_init__(self):
        _check_contract(self.dim, K=self.K, c0=self.c0)
        if self.C_const is None:
            self.C_const = float(self.theta0_bar(0.0))
        if not math.isfinite(self.C_const):
            raise PreconditionError(f"C_const must be finite, got {self.C_const!r}")

    # evaluators ------------------------------------------------------

    def L(self, x, u, v):
        return self.lagrangian(x, u, v)

    Lx = _partial("L_x", "lagrangian", 0, _fd_grad_last_axis)
    Lu = _partial("L_u", "lagrangian", 1, _fd_scalar)
    Lv = _partial("L_v", "lagrangian", 2, _fd_grad_last_axis)
    Lvv = _partial("L_vv", "Lv", 2, _fd_jacobian_last_axis)

    # growth ----------------------------------------------------------

    def theta0_star(self, k: float) -> float:
        """Convex conjugate sup_{r in [0, CONJUGATE_RMAX]} (k r - theta0(r)).

        Computed by grid maximization plus golden refinement; a
        user-supplied closed form, when present, takes precedence over the
        numeric conjugate.
        """
        if self.theta0_conj is not None:
            return float(self.theta0_conj(k))
        r = np.linspace(0.0, CONJUGATE_RMAX, 4097)
        g = k * r - np.asarray(self.theta0(r), dtype=float)
        j = int(np.argmax(g))
        lo = r[max(j - 1, 0)]
        hi = r[min(j + 1, r.size - 1)]
        _, neg = golden_min(lambda rr: float(self.theta0(rr)) - k * rr, lo, hi, xtol=1e-12)
        return max(float(g[j]), -neg)


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

    def __post_init__(self):
        _check_contract(self.dim, K=self.K)

    def H(self, x, u, p):
        return self.hamiltonian(x, u, p)

    Hx = _partial("H_x", "hamiltonian", 0, _fd_grad_last_axis)
    Hu = _partial("H_u", "hamiltonian", 1, _fd_scalar)
    Hp = _partial("H_p", "hamiltonian", 2, _fd_grad_last_axis)
    Hpp = _partial("H_pp", "Hp", 2, _fd_jacobian_last_axis)

    def characteristic_field(self, xi, p, u, out=None):
        """(xi', p', u') = (H_p, -H_x - H_u p, <p, H_p> - H) at (xi, p, u),
        written into one stage array `out` of shape (..., 2n+1) (a fresh one
        by default) and returned as its views: one call of `stage_field`'s
        function."""
        n = self.dim
        if out is None:
            out = np.empty(np.shape(xi)[:-1] + (2 * n + 1,))
        views = out[..., :n], out[..., n:-1], out[..., -1]
        self.stage_field()(xi, p, u, *views)
        return views

    def stage_field(self):
        """The characteristic field as a function (xi, p, u, dxi, dp, du) that
        writes (H_p, -H_x - H_u p, <p, H_p> - H) at (xi, p, u) into the views
        dxi, dp and du.  A sweep resolves it once and calls it every stage.

        H comes from one call of `H`, and each derivative is its declared
        field when one is set, else its method (`_partial`'s rule, settled
        here rather than per stage).  The methods are looked up on the
        instance here, so a hook put on the class before the sweep sees
        every stage's calls.
        """
        H = self.H
        momentum = _momentum_field(*(d if d is not None else m for d, m in (
            (self.H_p, self.Hp), (self.H_x, self.Hx), (self.H_u, self.Hu))))

        def stage(xi, p, u, dxi, dp, du):
            Hp = momentum(xi, u, p, dp)
            Hval = np.asarray(H(xi, u, p), dtype=float)
            dxi[...] = Hp
            np.subtract(_row_sum(p * Hp), Hval, out=du)
            du += _ZERO  # a zero <p, H_p> of -0.0 terms is +0.0, as np.add.reduce gives
        return stage


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


def _coordinate_golden_min(f, z0, lo, hi):
    """Four sweeps of cyclic per-coordinate golden-section descent on [lo, hi]^n."""
    z = np.array(z0, dtype=float)
    for _ in range(4):
        for i in range(z.size):
            def fi(c, i=i):
                zz = z.copy()
                zz[i] = c
                return f(zz)
            z[i] = golden_min(fi, lo, hi, xtol=1e-9)[0]
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


def _is_local_max(gain, z):
    """Probe whether z locally maximizes the concave gain (rejects saddles)."""
    g0 = gain(z)
    delta = 1e-4 * (1.0 + float(np.linalg.norm(z)))
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
            # one transform per broadcast point; a lone point gives a 0-d H
            x, u, p = np.broadcast_arrays(np.asarray(x, float), np.asarray(u, float)[..., None],
                                          np.asarray(p, float))
            out = [legendre_to_hamiltonian(S, xk, float(uk[0]), pk)[slot] for xk, uk, pk in
                   zip(x.reshape(-1, S.dim), u.reshape(-1, S.dim), p.reshape(-1, S.dim))]
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

    def __post_init__(self):
        bounds = np.array([*self.x_bounds, self.u_bounds, *self.v_bounds], dtype=float)
        if not np.isfinite(bounds).all():
            raise PreconditionError("sample box bounds must be finite")

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
    numerically decidable.  A `samples` below 1 or a `seed` below 0, either
    fractional or boolean, raises PreconditionError, as `SampleBox` does
    for a bound that is not finite.
    """
    samples, seed = as_count(samples, "samples"), as_count(seed, "seed", 0)
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
# built-in systems, each declared once (see `_Separable`)
# ---------------------------------------------------------------------------

def _row_sum(a):
    """np.add.reduce(a, axis=-1), by column sums up to two columns: the same
    bits, but that a sum of -0.0 terms stays -0.0 (reduce starts at +0.0)."""
    if a.shape[-1] > 2:
        return np.add.reduce(a, axis=-1)
    s = a[..., 0] if a.ndim > 1 else a[0]
    return s + a[..., 1] if a.shape[-1] == 2 else s


#: the numbers of the built-in terms, as 0-d float64 operands (`_util.const`)
_ZERO, _NEG_ZERO, _HALF = const(0.0), const(-0.0), const(0.5)


def _sq(x, u, z):
    """|z|^2 / 2."""
    return _HALF * _row_sum(np.asarray(z, float) ** 2)


def _copy(x, u, z):
    return np.array(z, dtype=float)


def _eye(x, u, z):
    z = np.asarray(z, float)
    n = z.shape[-1]
    return np.broadcast_to(np.eye(n), z.shape + (n,)).copy()


def _fill(c, u, z):
    """c (a number or an array) over the broadcast batch shape of (u, z)."""
    shape, batch = np.shape(u), np.shape(z)[:-1]
    out = np.empty(shape if shape == batch else np.broadcast_shapes(shape, batch))
    out[...] = c
    return out


def _constant(c):
    """The evaluator of the number c over the batch of (u, z), with c as its `value`."""
    def evaluator(x, u, z):
        return _fill(c, u, z)
    evaluator.value = c
    return evaluator


def _zero_x(x, u, z):
    return np.zeros(np.shape(z))


_zero_u = _constant(0.0)


def _quartic(x, u, v):
    v = np.asarray(v, float)
    return 0.25 * _row_sum(v * v) ** 2


def _quartic_v(x, u, v):
    v = np.asarray(v, float)
    return _row_sum(v * v)[..., None] * v


def _quartic_vv(x, u, v):
    v = np.asarray(v, float)
    s = _row_sum(v * v)
    return s[..., None, None] * _eye(x, u, v) + 2.0 * v[..., :, None] * v[..., None, :]


def _quartic_dual(x, u, p):
    p = np.asarray(p, float)
    return 0.75 * _row_sum(p * p) ** (2.0 / 3.0)


def _quartic_dual_p(x, u, p):
    p = np.asarray(p, float)
    s = _row_sum(p * p)
    return (s + 1e-300)[..., None] ** (-1.0 / 3.0) * p  # finite at p = 0


#: k(v) = theta0(|v|) and its dual k*(p), each with its gradient and Hessian
#: (None: finite differences), and the closed form of theta0*
_Kinetic = namedtuple("_Kinetic", "k k_v k_vv dual dual_p dual_pp theta0 theta0_conj")
_QUADRATIC = _Kinetic(_sq, _copy, _eye, _sq, _copy, _eye,
                      lambda r: 0.5 * np.asarray(r, float) ** 2,
                      lambda k: 0.5 * float(k) ** 2)
_QUARTIC = _Kinetic(_quartic, _quartic_v, _quartic_vv, _quartic_dual, _quartic_dual_p, None,
                    lambda r: 0.25 * np.asarray(r, float) ** 4,
                    lambda k: 0.75 * abs(float(k)) ** (4.0 / 3.0))

#: a coupling term f with its derivatives in x_1 (no other coordinate
#: enters) and in u; None is identically zero
_Coupling = namedtuple("_Coupling", "f x1 u", defaults=(None, None))


def _discount(w):
    """a(u) = w u."""
    rate = const(w)
    return _Coupling(lambda x, u, z: rate * np.asarray(u, float), u=_constant(w))


def _arctan(w):
    """a(u) = w arctan(u)."""
    def a_u(x, u, z):
        u = np.asarray(u, float)
        return _fill(w / (1.0 + u * u), u, z)
    rate = const(w)
    return _Coupling(lambda x, u, z: rate * np.arctan(np.asarray(u, float)), u=a_u)


_SIN_SIN = _Coupling(  # c(x, u) = sin(x_1) sin(u)
    lambda x, u, z: np.sin(np.asarray(x, float)[..., 0]) * np.sin(np.asarray(u, float)),
    lambda x, u, z: np.cos(np.asarray(x, float)[..., 0]) * np.sin(np.asarray(u, float)),
    lambda x, u, z: np.sin(np.asarray(x, float)[..., 0]) * np.cos(np.asarray(u, float)))


def _plus(f, g):
    return lambda x, u, z: f(x, u, z) + g(x, u, z)


def _minus(f, g):
    return lambda x, u, z: f(x, u, z) - g(x, u, z)


def _gradient_x(g, negate):
    """The x-gradient of a term whose x_1-derivative is g, negated if asked."""
    def d_x(x, u, z):
        d = g(x, u, z)
        out = np.zeros(d.shape + np.shape(x)[-1:])
        out[..., 0] = -d if negate else d
        return out
    return d_x


def _momentum_field(H_p, H_x, H_u):
    """The momentum part of the characteristic field: (x, u, p, dp) -> H_p,
    writing dp = -H_x - H_u p.  Two built-in terms are read off their
    evaluators and applied without a call: H_x = `_zero_x` as -H_x = -0.0,
    subtracted from (np.negative would flip the sign of a NaN), and an H_u
    made by `_constant` as its 0-d `value`.  Either gives the bits of the
    called term; any other evaluator is called."""
    c = const(H_u.value) if hasattr(H_u, "value") else None

    def momentum(x, u, p, dp):
        Hp = np.asarray(H_p(x, u, p), dtype=float)
        if c is None:
            np.multiply(np.asarray(H_u(x, u, p), dtype=float)[..., None], p, out=dp)
        else:
            np.multiply(c, p, out=dp)
        if H_x is _zero_x:
            np.subtract(_NEG_ZERO, dp, out=dp)
        else:
            np.subtract(-np.asarray(H_x(x, u, p), dtype=float), dp, out=dp)
        return Hp
    return momentum


@dataclass(frozen=True)
class _Separable:
    """A built-in declared once, as L(x, u, v) = a(u) + k(v) + c(x, u).

    The couplings leave the dual slot alone, so the Legendre dual is
    H(x, u, p) = k*(p) - a(u) - c(x, u), and `side` builds either.  Each
    term is an evaluator of (x, u, z), z the dual slot.  The coupling
    a(u) = rate * g(u) is given by its factory `a(w)` and its rate, so H
    holds the same term at the opposite rate, at the same cost; c is
    subtracted.  The envelopes are theta0 = k's profile and theta0 + bar.
    """

    name: str
    kinetic: _Kinetic
    K: float = 0.0
    c0: float = 0.0
    bar: float = 0.0
    a: Optional[Callable[[float], _Coupling]] = None
    rate: float = 0.0
    c: Optional[_Coupling] = None

    def __post_init__(self):
        if self.K < 0:
            raise PreconditionError(f"{self.name}: the rate must be nonnegative")

    def side(self, dim: int, dual: bool = False):
        """The ContactSystem, or its dual HamiltonianSystem; terms evaluate
        in the order a, k, c."""
        kin, c = self.kinetic, self.c
        f, d_x, d_u = kin.dual if dual else kin.k, _zero_x, _zero_u
        if self.a is not None:
            a = self.a(-self.rate if dual else self.rate)
            f, d_u = _plus(a.f, f), a.u
        if c is not None:
            f = _minus(f, c.f) if dual else _plus(f, c.f)
            if c.x1 is not None:
                d_x = _gradient_x(c.x1, dual)
            if c.u is not None:
                c_u = (lambda x, u, z, g=c.u: -g(x, u, z)) if dual else c.u
                d_u = c_u if self.a is None else _plus(d_u, c_u)
        if dual:
            return HamiltonianSystem(dim=dim, hamiltonian=f, K=self.K, H_x=d_x, H_u=d_u,
                                     H_p=kin.dual_p, H_pp=kin.dual_pp, name=self.name)
        theta0, bar = kin.theta0, self.bar
        return ContactSystem(dim=dim, lagrangian=f, K=self.K, theta0=theta0,
                             theta0_bar=(lambda r: theta0(r) + bar) if bar else theta0,
                             c0=self.c0, L_x=d_x, L_u=d_u, L_v=kin.k_v, L_vv=kin.k_vv,
                             theta0_conj=kin.theta0_conj, name=self.name)


def _discounted(lam: float) -> _Separable:
    return _Separable(f"discounted-quadratic({lam:g})", _QUADRATIC, K=float(lam),
                      a=_discount, rate=-lam)


_QUADRATIC_SYSTEM = _Separable("quadratic", _QUADRATIC)
_QUARTIC_SYSTEM = _Separable("quartic", _QUARTIC)
_TRIG_SYSTEM = _Separable("trig-contact", _QUADRATIC, K=1.0, c0=1.0, bar=1.0, c=_SIN_SIN)

#: built-in system id -> (declaration builder, arity)
_BUILTINS = {"quadratic": (lambda: _QUADRATIC_SYSTEM, 0), "discounted-quadratic": (_discounted, 1),
             "quartic": (lambda: _QUARTIC_SYSTEM, 0), "trig-contact": (lambda: _TRIG_SYSTEM, 0)}


def _builtin(spec_id: str) -> _Separable:
    """The declaration of a built-in system id such as 'discounted-quadratic(0.5)'."""
    return resolve_id(spec_id, "system", _BUILTINS)


def builtin_system(spec_id: str, dim: int = 1) -> ContactSystem:
    """Resolve a built-in Lagrangian system id such as 'discounted-quadratic(0.5)'."""
    return _builtin(spec_id).side(dim)


def builtin_hamiltonian(spec_id: str, dim: int = 1) -> HamiltonianSystem:
    """Resolve the Hamiltonian dual of a built-in system id."""
    return _builtin(spec_id).side(dim, dual=True)


def quadratic_system(dim: int = 1) -> ContactSystem:
    """L = |v|^2 / 2 (classical kinetic action, no value coupling)."""
    return _QUADRATIC_SYSTEM.side(dim)


def discounted_quadratic_system(lam: float, dim: int = 1) -> ContactSystem:
    """L = -lam*u + |v|^2 / 2 (discounted kinetic action)."""
    return _discounted(lam).side(dim)


def quartic_system(dim: int = 1) -> ContactSystem:
    """L = |v|^4 / 4 (superlinear beyond quadratic, still value-free)."""
    return _QUARTIC_SYSTEM.side(dim)


def trig_contact_system(dim: int = 1) -> ContactSystem:
    """L = |v|^2/2 + sin(x_1) sin(u): genuine, bounded value coupling."""
    return _TRIG_SYSTEM.side(dim)


def quadratic_hamiltonian(dim: int = 1) -> HamiltonianSystem:
    """H = |p|^2 / 2, dual of the quadratic system."""
    return _QUADRATIC_SYSTEM.side(dim, dual=True)


def discounted_quadratic_hamiltonian(lam: float, dim: int = 1) -> HamiltonianSystem:
    """H = lam*u + |p|^2 / 2, dual of the discounted quadratic system."""
    return _discounted(lam).side(dim, dual=True)


def quartic_hamiltonian(dim: int = 1) -> HamiltonianSystem:
    """H = (3/4) |p|^(4/3), dual of the quartic system (singular at p=0)."""
    return _QUARTIC_SYSTEM.side(dim, dual=True)


def trig_contact_hamiltonian(dim: int = 1) -> HamiltonianSystem:
    """H = |p|^2/2 - sin(x_1) sin(u), dual of the trig-contact system."""
    return _TRIG_SYSTEM.side(dim, dual=True)


def perturbed_system(lam: float, dim: int = 1) -> ContactSystem:
    """L^lambda = -lambda arctan(u) + |v|^2/2 + lambda sin(x_1).

    A family whose frozen-value member L_lambda(x, v) also moves with
    lambda, so the general exponential-weight machinery is genuinely
    exercised (L - u dL/du is not lambda-free here).
    """
    rate = const(lam)
    sine = _Coupling(lambda x, u, z: rate * np.sin(np.asarray(x, float)[..., 0]),
                     lambda x, u, z: lam * np.cos(np.asarray(x, float)[..., 0]))
    return _Separable(f"perturbed({lam:g})", _QUADRATIC, K=float(lam), c0=float(lam),
                      bar=lam * (1.0 + 0.5 * math.pi), a=_arctan, rate=-lam, c=sine).side(dim)


def with_overrides(S: ContactSystem, **kwargs) -> ContactSystem:
    """Copy a system with replaced metadata (used by config-level overrides).

    A new theta0 drops the closed-form theta0_conj, and a new theta0_bar
    recomputes C_const = theta0_bar(0), unless they are overridden too."""
    allowed = {"K", "c0", "C_const", "theta0", "theta0_bar", "theta0_conj", "name"}
    bad = set(kwargs) - allowed
    if bad:
        raise PreconditionError(f"cannot override fields {sorted(bad)}")
    if "theta0" in kwargs:
        kwargs.setdefault("theta0_conj", None)
    if "theta0_bar" in kwargs:
        kwargs.setdefault("C_const", None)
    return replace(S, **kwargs)
