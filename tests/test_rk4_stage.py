"""The arithmetic and the evaluator calls of one RK4 stage, bit for bit.

A stage of the cost sweep calls `ContactSystem.L` once.  A stage of the
characteristic sweep calls `H` once, and each derivative's declared field
when one is set, else its `Hp`, `Hx` or `Hu` method; a built-in's zero H_x
and constant H_u are applied without a call.  The built-ins sum |z|^2 and
<p, H_p> by columns (`systems._row_sum`) instead of `np.add.reduce`, which
starts from +0.0: a bare column sum keeps a -0.0 that reduce turns into
+0.0, so `HamiltonianSystem.characteristic_field` adds +0.0 to u'.  Whole
sweeps, of the in-place stepper and the one stage assembly on a
component-major (xi, p, u) state, are held to the allocating stepper and
the four-call field on the row-major state they replaced, and so are the
arguments every evaluator call is handed.  Bits are compared through
`.view(np.int64)`, which tells -0.0 from +0.0 and one NaN from another,
where `np.array_equal` does not.
"""

import copy
import dataclasses
import itertools

import numpy as np
import pytest

from contact_hj import builtin_hamiltonian, builtin_system
from contact_hj import cost_ode, fundamental
from contact_hj.cost_ode import _check_range, integrate_cost_many
from contact_hj.fundamental import _candidate_sweep, _characteristics
from contact_hj.systems import (_BUILTINS, _QUADRATIC, _SIN_SIN, ContactSystem,
                                HamiltonianSystem, _arctan, _discount, _row_sum,
                                _Separable)

#: signed zeros, infinities, NaNs of both signs, subnormals and plain values
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -2.5e-310,
                    1.5, -3.0])


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _columns(n):
    """Every row of n SPECIAL values: contiguous, as the strided momentum
    columns y[:, n:-1] of a row-major (B, 2n+1) state, and as the transposed
    momentum rows Y[n:-1].T of a component-major (2n+1, B) one."""
    a = np.array(list(itertools.product(SPECIAL, repeat=n)))
    y = np.zeros((len(a), 2 * n + 1))
    y[:, n:-1] = a
    Y = np.zeros((2 * n + 1, len(a)))
    Y[n:-1] = a.T
    return {"contiguous": a, "strided": y[:, n:-1], "transposed": Y[n:-1].T}


LAYOUTS = ["contiguous", "strided", "transposed"]


# ---------------------------------------------------------------------------
# column sums
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_sum_of_squares_is_reduce_bit_for_bit(n, layout):
    a = _columns(n)[layout]
    with np.errstate(all="ignore"):
        sq = a * a
        assert np.array_equal(bits(_row_sum(sq)), bits(np.add.reduce(sq, axis=-1)))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_sum_minus_h_plus_zero_is_reduce_minus_h(n, layout):
    # the u' rule of `characteristic_field`: (sum - H) + 0.0 against every H
    a = _columns(n)[layout]
    with np.errstate(all="ignore"):
        mine = (_row_sum(a)[:, None] - SPECIAL) + 0.0
        ref = np.add.reduce(a, axis=-1)[:, None] - SPECIAL
    assert np.array_equal(bits(mine), bits(ref))


def test_bare_row_sum_keeps_the_negative_zero_reduce_drops():
    # why `characteristic_field` adds +0.0: without it this row's u' would read -0.0
    for a in (np.array([[-0.0]]), np.array([[-0.0, -0.0]])):
        assert np.signbit(_row_sum(a)[0])
        assert not np.signbit(np.add.reduce(a, axis=-1)[0])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_sum_of_a_lone_point_is_a_numpy_float(n):
    for row in _columns(n)["contiguous"]:
        with np.errstate(all="ignore"):
            got, ref = _row_sum(row * row), np.add.reduce(row * row, axis=-1)
        assert type(got) is np.float64
        assert bits(got) == bits(ref)


# ---------------------------------------------------------------------------
# the characteristic field against its earlier assembly
# ---------------------------------------------------------------------------

def _ref_lie_rhs(HS, xi, p, u, out=None):
    """The characteristic field as it was, summing <p, H_p> by np.add.reduce."""
    Hp = np.asarray(HS.Hp(xi, u, p), dtype=float)
    Hx = np.asarray(HS.Hx(xi, u, p), dtype=float)
    Hu = np.asarray(HS.Hu(xi, u, p), dtype=float)
    Hval = np.asarray(HS.H(xi, u, p), dtype=float)
    n = HS.dim
    if out is None:
        out = np.empty(np.shape(xi)[:-1] + (2 * n + 1,))
    out[..., :n] = Hp
    np.subtract(-Hx, Hu[..., None] * p, out=out[..., n:-1])
    np.subtract(np.add.reduce(p * Hp, axis=-1), Hval, out=out[..., -1])
    return out[..., :n], out[..., n:-1], out[..., -1]


_DRIFT = np.array([0.7, -0.4])


def _drift_hamiltonian(x, u, p):
    """H = |p|^2 / 2 + <b, p> + u sin(x_1) / 2; H_p = p + b, so <p, H_p>
    is -0.0 at p = -0.0 where b > 0."""
    x, u, p = np.asarray(x, float), np.asarray(u, float), np.asarray(p, float)
    b = _DRIFT[:p.shape[-1]]
    return np.sum(0.5 * p * p + b * p, axis=-1) + 0.5 * u * np.sin(x[..., 0])


def _drift_p(x, u, p):
    p = np.asarray(p, float)
    return p + _DRIFT[:p.shape[-1]]


def _drift_x(x, u, p):
    x = np.asarray(x, float)
    out = np.zeros(np.broadcast_shapes(x.shape, np.shape(p)))
    out[..., 0] = 0.5 * np.asarray(u, float) * np.cos(x[..., 0])
    return out


def _drift_u(x, u, p):
    return 0.5 * np.sin(np.asarray(x, float)[..., 0])


HAMILTONIANS = {name: (lambda d, spec=name + "(0.75)" * (arity == 1):
                       builtin_hamiltonian(spec, d))
                for name, (_, arity) in _BUILTINS.items()}
HAMILTONIANS["finite-differences"] = lambda d: HamiltonianSystem(
    dim=d, hamiltonian=_drift_hamiltonian, K=0.5)


#: systems whose stage calls no derivative method: a user system that
#: declares H_p, H_x and H_u, and a built-in copied by `dataclasses.replace`,
#: which keeps its marked zero H_x and constant H_u
DECLARED = {
    "declared": lambda d: HamiltonianSystem(dim=d, hamiltonian=_drift_hamiltonian, K=0.5,
                                            H_p=_drift_p, H_x=_drift_x, H_u=_drift_u),
    "replaced-builtin": lambda d: dataclasses.replace(
        builtin_hamiltonian("discounted-quadratic(0.75)", d), name="copy"),
}


def _states(n, seed=5):
    """Stacked (xi, p, u) rows: random ones, and ones whose momenta hold
    -0.0, +0.0, infinities, NaN and subnormals."""
    rng = np.random.default_rng(seed)
    rows = [np.concatenate([rng.uniform(-2.0, 2.0, n), rng.uniform(-3.0, 3.0, n),
                            [rng.uniform(-2.0, 2.0)]]) for _ in range(6)]
    for p in itertools.product(SPECIAL[[0, 1, 2, 4, 6, 8]], repeat=n):
        for u in (0.0, -0.0, 0.4):
            rows.append(np.concatenate([rng.uniform(-2.0, 2.0, n), p, [u]]))
    return np.array(rows)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", list(HAMILTONIANS))
def test_lie_rhs_matches_reference_bit_for_bit(name, dim):
    HS = HAMILTONIANS[name](dim)
    y = _states(dim)
    n = dim
    with np.errstate(all="ignore"):
        # strided views into one row-major state
        k_ref, k = np.empty_like(y), np.empty_like(y)
        _ref_lie_rhs(HS, y[:, :n], y[:, n:-1], y[:, -1], k_ref)
        got = HS.characteristic_field(y[:, :n], y[:, n:-1], y[:, -1], k)
        assert np.array_equal(bits(k), bits(k_ref))
        for view, col in zip(got, (slice(0, n), slice(n, -1), -1)):
            assert np.shares_memory(view, k)
            assert np.array_equal(bits(view), bits(k[:, col]))
        # the stage layout of `_characteristics`: transposed views into one
        # component-major state and slope
        Y, K = np.ascontiguousarray(y.T), np.empty_like(y.T)
        HS.stage_field()(Y[:n].T, Y[n:-1].T, Y[-1], K[:n].T, K[n:-1].T, K[-1])
        assert np.array_equal(bits(K.T), bits(k_ref))
        # a lone point, as `lie_step_field` passes it: a fresh stage array
        for row in y:
            ref = _ref_lie_rhs(HS, row[:n], row[n:-1], float(row[-1]))
            mine = HS.characteristic_field(row[:n], row[n:-1], float(row[-1]))
            for a, b in zip(mine, ref):
                assert np.shape(a) == np.shape(b)
                assert np.array_equal(bits(a), bits(b))


def test_lie_rhs_cases_reach_a_negative_zero_momentum_product():
    # the drift Hamiltonian's -0.0 momenta are where a bare sum would differ
    HS = HAMILTONIANS["finite-differences"](1)
    y = _states(1)
    p = y[:, 1:-1]
    with np.errstate(all="ignore"):
        s = _row_sum(p * np.asarray(HS.Hp(y[:, :1], y[:, -1], p)))
        assert np.signbit(s - HS.H(y[:, :1], y[:, -1], p)).any()


# ---------------------------------------------------------------------------
# evaluator calls per stage
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, cls, names):
    """Spy on the class attributes `names` of cls; returns the call counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(cls, name)

        def spy(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, spy)
    return counts


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("B, N, m", [(1, 3, 1), (7, 4, 3)])
def test_cost_sweep_calls_L_once_per_stage(monkeypatch, B, N, m, dim):
    S = builtin_system("trig-contact", dim)
    counts = _count_calls(monkeypatch, ContactSystem, ["L"])
    nodes = np.random.default_rng(2).uniform(-1.0, 1.0, (B, N + 1, dim))
    integrate_cost_many(S, 0.8, nodes, 0.1, m)
    assert counts == {"L": 4 * N * m}


@pytest.mark.parametrize("name", list(HAMILTONIANS) + list(DECLARED))
@pytest.mark.parametrize("steps", [1, 9])
def test_characteristics_call_each_evaluator_once_per_stage(monkeypatch, name, steps):
    # a declared field is called in place of its method; only the
    # finite-difference system calls all four
    HS = dict(HAMILTONIANS, **DECLARED)[name](2)
    counts = _count_calls(monkeypatch, HamiltonianSystem, ["H", "Hp", "Hx", "Hu"])
    p0 = np.random.default_rng(3).uniform(-1.0, 1.0, (5, 2))
    _characteristics(HS, 0.6, np.zeros(2), 0.2, p0, steps)
    derivatives = 4 * steps if name == "finite-differences" else 0
    assert counts == {"H": 4 * steps, "Hp": derivatives, "Hx": derivatives, "Hu": derivatives}


# ---------------------------------------------------------------------------
# whole sweeps against the allocating stepper and the four-call field
# ---------------------------------------------------------------------------

def _ref_rk4(f, y0, h, steps, guard_every=1, record=False, guard=_check_range):
    """`cost_ode._rk4` as it was: a fresh array for every stage and state."""
    y = np.array(y0, dtype=float)
    path = np.empty((len(steps) + 1,) + y.shape) if record else None
    if record:
        path[0] = y
    hh = 0.5 * h
    h6 = h / 6.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (x0, xm, x1, v) in enumerate(steps, 1):
            k1 = f(x0, y, v)
            k2 = f(xm, y + hh * k1, v)
            k3 = f(xm, y + hh * k2, v)
            k4 = f(x1, y + h * k3, v)
            y = y + h6 * (k1 + 2.0 * (k2 + k3) + k4)
            if record:
                path[i] = y
            if i % guard_every == 0:
                guard(y)
    return path if record else y


def _four_call_rhs(HS, xi, p, u, out=None):
    """The characteristic field as it was: H, Hp, Hx and Hu called once each."""
    Hp = np.asarray(HS.Hp(xi, u, p), dtype=float)
    Hx = np.asarray(HS.Hx(xi, u, p), dtype=float)
    Hu = np.asarray(HS.Hu(xi, u, p), dtype=float)
    Hval = np.asarray(HS.H(xi, u, p), dtype=float)
    n = HS.dim
    if out is None:
        out = np.empty(np.shape(xi)[:-1] + (2 * n + 1,))
    dxi, dp, du = out[..., :n], out[..., n:-1], out[..., -1]
    dxi[...] = Hp
    np.subtract(-Hx, np.multiply(Hu[..., None], p, out=dp), out=dp)
    np.subtract(_row_sum(p * Hp), Hval, out=du)
    du += 0.0  # a zero <p, H_p> of -0.0 terms is +0.0, as np.add.reduce gives
    return dxi, dp, du


def _ref_characteristics(HS, t, x0, u0, p0, steps, record=False, guard=_check_range):
    """`fundamental._characteristics` as it was, on `_ref_rk4` and `_four_call_rhs`."""
    B, n = p0.shape
    y0 = np.concatenate([np.broadcast_to(x0, (B, n)), p0, np.full((B, 1), float(u0))],
                        axis=1)

    def rhs(_x, y, _v):  # autonomous: no stage positions
        k = np.empty_like(y)
        _four_call_rhs(HS, y[:, :n], y[:, n:-1], y[:, -1], k)
        return k

    return _ref_rk4(rhs, y0, t / steps, [(None,) * 4] * steps, record=record, guard=guard)


def _separable_dual(name, **terms):
    return lambda d: _Separable(name, _QUADRATIC, K=0.75, **terms).side(d, dual=True)


#: the built-ins, the finite-difference fallback, and the two coupling
#: mixes no built-in dual declares: a u-slope plus a coupling in (x_1, u)
SWEEP_HAMILTONIANS = dict(HAMILTONIANS, **{
    "arctan-sine": _separable_dual("arctan-sine", a=_arctan, rate=-0.75, c=_SIN_SIN),
    "discount-sine": _separable_dual("discount-sine", a=_discount, rate=-0.5, c=_SIN_SIN)})


def _no_guard(y):
    pass


def _recording(f):
    """A list, and f as a function that first appends to it copies of the
    last three arguments (x, u, p) of every call."""
    seen = []

    def spy(*args):
        seen.append([np.array(a) for a in args[-3:]])
        return f(*args)
    return seen, spy


def _same_arguments(seen, split, B, dim):
    """The calls before `split` saw what the calls after it saw, bit for bit,
    each a (B, n) xi and p and a (B,) u."""
    got, ref = seen[:split], seen[split:]
    assert len(got) == len(ref) > 0
    for g, r in zip(got, ref):
        assert [a.shape for a in g] == [(B, dim), (B,), (B, dim)]
        for a, b in zip(g, r):
            assert np.array_equal(bits(a), bits(b))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", list(SWEEP_HAMILTONIANS) + list(DECLARED))
def test_characteristic_sweep_matches_allocating_four_call_sweep(monkeypatch, name, dim):
    HS = dict(SWEEP_HAMILTONIANS, **DECLARED)[name](dim)
    # what H is handed at every stage, in the stepped layout and the reference's
    seen, spy = _recording(HamiltonianSystem.H)
    monkeypatch.setattr(HamiltonianSystem, "H", spy)
    rng = np.random.default_rng(17)
    x0 = rng.uniform(-1.0, 1.0, dim)
    p0 = rng.uniform(-2.0, 2.0, (7, dim))
    for record in (False, True):
        seen.clear()
        got = _characteristics(HS, 0.7, x0, 0.3, p0, 16, record=record)
        split = len(seen)
        ref = _ref_characteristics(HS, 0.7, x0, 0.3, p0, 16, record=record)
        assert np.array_equal(bits(got), bits(ref))
        _same_arguments(seen, split, len(p0), dim)
    # signed zeros, infinities, NaNs and subnormals carried through every stage
    special = _states(dim)[:, dim:-1]
    seen.clear()
    with np.errstate(all="ignore"):
        got = _characteristics(HS, 0.7, x0, -0.0, special, 4, record=True, guard=_no_guard)
        split = len(seen)
        ref = _ref_characteristics(HS, 0.7, x0, -0.0, special, 4, record=True,
                                   guard=_no_guard)
    assert np.array_equal(bits(got), bits(ref))
    _same_arguments(seen, split, len(special), dim)


def _walled_quadratic(dim):
    """H = |p|^2 / 2 while xi_1 <= 1.001, nan beyond; H_x and H_u by finite
    differences.  From x = 0 in t = 1 the candidate p0 = (1, ...) stops at
    xi_1 = 1 but its +h and +2h difference rows cross the wall."""
    def ham(x, u, p):
        val = 0.5 * np.sum(np.asarray(p, float) ** 2, axis=-1)
        return np.where(np.asarray(x, float)[..., 0] <= 1.001, val, np.nan)
    return HamiltonianSystem(dim=dim, hamiltonian=ham, K=0.0, H_p=lambda x, u, p: np.array(p))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", list(SWEEP_HAMILTONIANS) + ["walled"])
def test_candidate_sweep_matches_allocating_four_call_sweep(monkeypatch, name, dim):
    HS = _walled_quadratic(dim) if name == "walled" else SWEEP_HAMILTONIANS[name](dim)
    P = np.array([[1.0] * dim, [0.5, -0.25][:dim], [-1.5, 0.75][:dim]])
    got = _candidate_sweep(HS, 1.0, np.zeros(dim), 0.2, P, 16)
    monkeypatch.setattr(fundamental, "_characteristics", _ref_characteristics)
    ref = _candidate_sweep(HS, 1.0, np.zeros(dim), 0.2, P, 16)
    assert got[2].tolist() == ref[2].tolist()
    if name == "walled":
        assert ref[2].tolist() == [True, False, False]
    for a, b in zip(got[:2], ref[:2]):
        assert np.array_equal(bits(a), bits(b))


# ---------------------------------------------------------------------------
# evaluators that hand back their arguments, and replaced evaluators
# ---------------------------------------------------------------------------

def _growth(r):
    return 0.5 * np.asarray(r, float) ** 2


@pytest.mark.parametrize("dim", [1, 2])
def test_cost_sweep_of_a_lagrangian_returning_its_u_argument(monkeypatch, dim):
    # du/ds = u, with L handing back the very stage state it was given
    S = ContactSystem(dim=dim, lagrangian=lambda x, u, v: np.asarray(u, float), K=1.0,
                      theta0=_growth, theta0_bar=_growth, c0=0.0)
    u = np.linspace(-1.0, 1.0, 5)
    assert S.L(np.zeros((5, dim)), u, np.zeros((5, dim))) is u
    nodes = np.random.default_rng(4).uniform(-1.0, 1.0, (5, 4, dim))
    got = integrate_cost_many(S, 0.8, nodes, u, 3)
    monkeypatch.setattr(cost_ode, "_rk4", _ref_rk4)
    ref = integrate_cost_many(S, 0.8, nodes, u, 3)
    assert np.array_equal(bits(got), bits(ref))
    assert np.allclose(got[:, -1], u * np.exp(0.8), rtol=1e-6)


@pytest.mark.parametrize("dim", [1, 2])
def test_characteristics_of_an_H_p_returning_its_p_argument(dim):
    # the H_p records what it is handed, in the stepped layout and the reference's
    seen, H_p = _recording(lambda x, u, p: p)
    HS = HamiltonianSystem(dim=dim, hamiltonian=_drift_hamiltonian, K=0.5, H_p=H_p)
    p = np.ones((3, dim))
    assert HS.Hp(np.zeros((3, dim)), np.zeros(3), p) is p
    p0 = np.random.default_rng(6).uniform(-1.0, 1.0, (5, dim))
    for record in (False, True):
        seen.clear()
        got = _characteristics(HS, 0.6, np.zeros(dim), 0.1, p0, 12, record=record)
        split = len(seen)
        ref = _ref_characteristics(HS, 0.6, np.zeros(dim), 0.1, p0, 12, record=record)
        assert np.array_equal(bits(got), bits(ref))
        _same_arguments(seen, split, len(p0), dim)


@pytest.mark.parametrize("dim", [1, 2])
def test_cost_sweep_of_a_float32_lagrangian_is_stepped_in_float64(monkeypatch, dim):
    # the stepper takes a float32 slope as np.asarray(k, float) would, so the
    # sweep is the allocating one of the widened Lagrangian, bit for bit
    def lagrangian(x, u, v):
        v = np.asarray(v, float)
        return (0.5 * np.sum(v * v, axis=-1)
                + 0.3 * np.sin(np.asarray(u, float))).astype(np.float32)

    S = ContactSystem(dim=dim, lagrangian=lagrangian, K=0.3, theta0=_growth,
                      theta0_bar=_growth, c0=0.0)
    widened = dataclasses.replace(
        S, lagrangian=lambda x, u, v: np.asarray(lagrangian(x, u, v), dtype=float))
    assert S.L(np.zeros((2, dim)), np.zeros(2), np.ones((2, dim))).dtype == np.float32
    nodes = np.random.default_rng(4).uniform(-1.0, 1.0, (5, 4, dim))
    u = np.linspace(-1.0, 1.0, 5)
    got = integrate_cost_many(S, 0.8, nodes, u, 3)
    monkeypatch.setattr(cost_ode, "_rk4", _ref_rk4)
    assert np.array_equal(bits(got), bits(integrate_cost_many(widened, 0.8, nodes, u, 3)))
    # the allocating stepper multiplies float32 slopes in float32: a real corner
    assert not np.array_equal(bits(got), bits(integrate_cost_many(S, 0.8, nodes, u, 3)))


#: a changed evaluator for each slot a built-in's stage reads
REPLACED = {
    "hamiltonian": lambda HS: lambda x, u, p: HS.H(x, u, p) + 0.25 * np.asarray(u, float),
    "H_x": lambda HS: lambda x, u, p: HS.Hx(x, u, p) + 0.5,
    "H_u": lambda HS: lambda x, u, p: HS.Hu(x, u, p) - 0.5,
    "H_p": lambda HS: lambda x, u, p: 2.0 * HS.Hp(x, u, p),
}


@pytest.mark.parametrize("how", ["replace", "assign"])
@pytest.mark.parametrize("slot", list(REPLACED))
@pytest.mark.parametrize("name", [n for n in SWEEP_HAMILTONIANS if n != "finite-differences"])
def test_a_replaced_evaluator_is_stepped_by_not_the_fused_field(name, slot, how):
    HS = SWEEP_HAMILTONIANS[name](2)
    new = REPLACED[slot](HS)
    if how == "replace":
        changed = dataclasses.replace(HS, **{slot: new})
    else:  # a copy with one evaluator assigned, which carries no mark
        changed = copy.copy(HS)
        setattr(changed, slot, new)
    p0 = np.random.default_rng(8).uniform(-1.0, 1.0, (4, 2))
    got = _characteristics(changed, 0.5, np.array([0.3, -0.2]), 0.4, p0, 8, record=True)
    ref = _ref_characteristics(changed, 0.5, np.array([0.3, -0.2]), 0.4, p0, 8, record=True)
    assert np.array_equal(bits(got), bits(ref))
    old = _characteristics(HS, 0.5, np.array([0.3, -0.2]), 0.4, p0, 8, record=True)
    assert not np.array_equal(got, old)
