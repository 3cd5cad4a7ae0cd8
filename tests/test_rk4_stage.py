"""The arithmetic and the evaluator calls of one RK4 stage, bit for bit.

A stage of the cost sweep calls `ContactSystem.L` once, and a stage of the
characteristic sweep calls `H`, `Hp`, `Hx` and `Hu` once each.  The
built-ins sum |z|^2 and <p, H_p> by columns (`systems._row_sum`) instead
of `np.add.reduce`, which starts from +0.0: a bare column sum keeps a -0.0
that reduce turns into +0.0, so `_lie_rhs` adds +0.0 to u'.  Bits are
compared through `.view(np.int64)`, which tells -0.0 from +0.0 and one NaN
from another, where `np.array_equal` does not.
"""

import itertools

import numpy as np
import pytest

from contact_hj import builtin_hamiltonian, builtin_system
from contact_hj.cost_ode import integrate_cost_many
from contact_hj.fundamental import _characteristics, _lie_rhs
from contact_hj.systems import (_BUILTINS, ContactSystem, HamiltonianSystem,
                                _row_sum)

#: signed zeros, infinities, NaNs of both signs, subnormals and plain values
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -2.5e-310,
                    1.5, -3.0])


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _columns(n):
    """Every row of n SPECIAL values, contiguous and as the strided momentum
    columns y[:, n:-1] of a stacked (xi, p, u) state."""
    a = np.array(list(itertools.product(SPECIAL, repeat=n)))
    y = np.zeros((len(a), 2 * n + 1))
    y[:, n:-1] = a
    return {"contiguous": a, "strided": y[:, n:-1]}


# ---------------------------------------------------------------------------
# column sums
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("layout", ["contiguous", "strided"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_sum_of_squares_is_reduce_bit_for_bit(n, layout):
    a = _columns(n)[layout]
    with np.errstate(all="ignore"):
        sq = a * a
        assert np.array_equal(bits(_row_sum(sq)), bits(np.add.reduce(sq, axis=-1)))


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_sum_minus_h_plus_zero_is_reduce_minus_h(n, layout):
    # the u' rule of `_lie_rhs`: (sum - H) + 0.0 against every H
    a = _columns(n)[layout]
    with np.errstate(all="ignore"):
        mine = (_row_sum(a)[:, None] - SPECIAL) + 0.0
        ref = np.add.reduce(a, axis=-1)[:, None] - SPECIAL
    assert np.array_equal(bits(mine), bits(ref))


def test_bare_row_sum_keeps_the_negative_zero_reduce_drops():
    # why `_lie_rhs` adds +0.0: without it this row's u' would read -0.0
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
    """`fundamental._lie_rhs` as it was, summing <p, H_p> by np.add.reduce."""
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


HAMILTONIANS = {name: (lambda d, spec=name + "(0.75)" * (arity == 1):
                       builtin_hamiltonian(spec, d))
                for name, (_, arity) in _BUILTINS.items()}
HAMILTONIANS["finite-differences"] = lambda d: HamiltonianSystem(
    dim=d, hamiltonian=_drift_hamiltonian, K=0.5)


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
        # the stage layout of `_characteristics`: strided views into one state
        k_ref, k = np.empty_like(y), np.empty_like(y)
        _ref_lie_rhs(HS, y[:, :n], y[:, n:-1], y[:, -1], k_ref)
        got = _lie_rhs(HS, y[:, :n], y[:, n:-1], y[:, -1], k)
        assert np.array_equal(bits(k), bits(k_ref))
        for view, col in zip(got, (slice(0, n), slice(n, -1), -1)):
            assert np.shares_memory(view, k)
            assert np.array_equal(bits(view), bits(k[:, col]))
        # a lone point, as `lie_step_field` passes it: a fresh stage array
        for row in y:
            ref = _ref_lie_rhs(HS, row[:n], row[n:-1], float(row[-1]))
            mine = _lie_rhs(HS, row[:n], row[n:-1], float(row[-1]))
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


@pytest.mark.parametrize("name", ["discounted-quadratic", "finite-differences"])
@pytest.mark.parametrize("steps", [1, 9])
def test_characteristics_call_each_evaluator_once_per_stage(monkeypatch, name, steps):
    HS = HAMILTONIANS[name](2)
    counts = _count_calls(monkeypatch, HamiltonianSystem, ["H", "Hp", "Hx", "Hu"])
    p0 = np.random.default_rng(3).uniform(-1.0, 1.0, (5, 2))
    _characteristics(HS, 0.6, np.zeros(2), 0.2, p0, steps)
    assert counts == dict.fromkeys(["H", "Hp", "Hx", "Hu"], 4 * steps)
