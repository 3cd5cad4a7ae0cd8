"""The built-in evaluators against their earlier, written-out closures.

The built-ins once learned the batch shape of a constant result by
evaluating |z|^2 / 2 (`_sq`) and then broadcast and copied the constant,
and summed through `np.sum`.  Those closures are kept below verbatim as
the reference: every declared evaluator of every built-in system, both
sides, 1-D and 2-D, and of `perturbed_system`, must return the same
values in the same shape, as a fresh float array, on every batch layout
the solvers use.
"""

import numpy as np
import pytest

from contact_hj import builtin_hamiltonian, builtin_system, perturbed_system

# ---------------------------------------------------------------------------
# reference: the earlier closures
# ---------------------------------------------------------------------------


def _sq(v):
    return 0.5 * np.sum(np.asarray(v, float) ** 2, axis=-1)


def _eye_like(v):
    v = np.asarray(v, float)
    n = v.shape[-1]
    return np.broadcast_to(np.eye(n), v.shape + (n,)).copy()


def _zeros_scalar(x, u, v):
    return np.zeros(np.broadcast(np.asarray(u, float), _sq(v)).shape)


def _ref_quadratic(lam):
    return {"lagrangian": lambda x, u, v: _sq(v),
            "L_x": lambda x, u, v: np.zeros_like(np.asarray(v, float)),
            "L_u": _zeros_scalar,
            "L_v": lambda x, u, v: np.asarray(v, float).copy(),
            "L_vv": lambda x, u, v: _eye_like(v)}


def _ref_discounted(lam):
    return {"lagrangian": lambda x, u, v: -lam * np.asarray(u, float) + _sq(v),
            "L_x": lambda x, u, v: np.zeros_like(np.asarray(v, float)),
            "L_u": lambda x, u, v: np.broadcast_to(-lam, np.broadcast(np.asarray(u, float), _sq(v)).shape).copy(),
            "L_v": lambda x, u, v: np.asarray(v, float).copy(),
            "L_vv": lambda x, u, v: _eye_like(v)}


def _ref_quartic(lam):
    def lag(x, u, v):
        v = np.asarray(v, float)
        return 0.25 * np.sum(v * v, axis=-1) ** 2

    def grad(x, u, v):
        v = np.asarray(v, float)
        return np.sum(v * v, axis=-1)[..., None] * v

    def hess(x, u, v):
        v = np.asarray(v, float)
        s = np.sum(v * v, axis=-1)
        return s[..., None, None] * _eye_like(v) + 2.0 * v[..., :, None] * v[..., None, :]

    return {"lagrangian": lag,
            "L_x": lambda x, u, v: np.zeros_like(np.asarray(v, float)),
            "L_u": _zeros_scalar, "L_v": grad, "L_vv": hess}


def _ref_trig(lam):
    def lag(x, u, v):
        x = np.asarray(x, float)
        return _sq(v) + np.sin(x[..., 0]) * np.sin(np.asarray(u, float))

    def lx(x, u, v):
        x = np.asarray(x, float)
        out = np.zeros_like(x)
        out[..., 0] = np.cos(x[..., 0]) * np.sin(np.asarray(u, float))
        return out

    def lu(x, u, v):
        x = np.asarray(x, float)
        return np.sin(x[..., 0]) * np.cos(np.asarray(u, float))

    return {"lagrangian": lag, "L_x": lx, "L_u": lu,
            "L_v": lambda x, u, v: np.asarray(v, float).copy(),
            "L_vv": lambda x, u, v: _eye_like(v)}


def _ref_perturbed(lam):
    def lag(x, u, v):
        x = np.asarray(x, float)
        return (-lam * np.arctan(np.asarray(u, float)) + _sq(v)
                + lam * np.sin(x[..., 0]))

    def lx(x, u, v):
        x = np.asarray(x, float)
        out = np.zeros_like(x)
        out[..., 0] = lam * np.cos(x[..., 0])
        return out

    def lu(x, u, v):
        u = np.asarray(u, float)
        shape = np.broadcast(u, _sq(v)).shape
        return np.broadcast_to(-lam / (1.0 + u * u), shape).copy()

    return {"lagrangian": lag, "L_x": lx, "L_u": lu,
            "L_v": lambda x, u, v: np.asarray(v, float).copy(),
            "L_vv": lambda x, u, v: _eye_like(v)}


def _ref_quadratic_h(lam):
    return {"hamiltonian": lambda x, u, p: _sq(p),
            "H_x": lambda x, u, p: np.zeros_like(np.asarray(p, float)),
            "H_u": _zeros_scalar,
            "H_p": lambda x, u, p: np.asarray(p, float).copy(),
            "H_pp": lambda x, u, p: _eye_like(p)}


def _ref_discounted_h(lam):
    return {"hamiltonian": lambda x, u, p: lam * np.asarray(u, float) + _sq(p),
            "H_x": lambda x, u, p: np.zeros_like(np.asarray(p, float)),
            "H_u": lambda x, u, p: np.broadcast_to(lam, np.broadcast(np.asarray(u, float), _sq(p)).shape).copy(),
            "H_p": lambda x, u, p: np.asarray(p, float).copy(),
            "H_pp": lambda x, u, p: _eye_like(p)}


def _ref_quartic_h(lam):
    eps = 1e-300

    def ham(x, u, p):
        p = np.asarray(p, float)
        return 0.75 * np.sum(p * p, axis=-1) ** (2.0 / 3.0)

    def hp(x, u, p):
        p = np.asarray(p, float)
        s = np.sum(p * p, axis=-1)
        return (s + eps)[..., None] ** (-1.0 / 3.0) * p

    return {"hamiltonian": ham,
            "H_x": lambda x, u, p: np.zeros_like(np.asarray(p, float)),
            "H_u": _zeros_scalar, "H_p": hp}


def _ref_trig_h(lam):
    def ham(x, u, p):
        x = np.asarray(x, float)
        return _sq(p) - np.sin(x[..., 0]) * np.sin(np.asarray(u, float))

    def hx(x, u, p):
        x = np.asarray(x, float)
        out = np.zeros_like(x)
        out[..., 0] = -np.cos(x[..., 0]) * np.sin(np.asarray(u, float))
        return out

    def hu(x, u, p):
        x = np.asarray(x, float)
        return -np.sin(x[..., 0]) * np.cos(np.asarray(u, float))

    return {"hamiltonian": ham, "H_x": hx, "H_u": hu,
            "H_p": lambda x, u, p: np.asarray(p, float).copy(),
            "H_pp": lambda x, u, p: _eye_like(p)}


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

LAM = 0.75
L_FIELDS = ("lagrangian", "L_x", "L_u", "L_v", "L_vv")
H_FIELDS = ("hamiltonian", "H_x", "H_u", "H_p", "H_pp")

SYSTEMS = {
    "quadratic": (lambda d: builtin_system("quadratic", d), _ref_quadratic, L_FIELDS),
    "discounted": (lambda d: builtin_system(f"discounted-quadratic({LAM})", d),
                   _ref_discounted, L_FIELDS),
    "quartic": (lambda d: builtin_system("quartic", d), _ref_quartic, L_FIELDS),
    "trig-contact": (lambda d: builtin_system("trig-contact", d), _ref_trig, L_FIELDS),
    "perturbed": (lambda d: perturbed_system(LAM, d), _ref_perturbed, L_FIELDS),
    "quadratic-H": (lambda d: builtin_hamiltonian("quadratic", d), _ref_quadratic_h, H_FIELDS),
    "discounted-H": (lambda d: builtin_hamiltonian(f"discounted-quadratic({LAM})", d),
                     _ref_discounted_h, H_FIELDS),
    "quartic-H": (lambda d: builtin_hamiltonian("quartic", d), _ref_quartic_h, H_FIELDS),
    "trig-contact-H": (lambda d: builtin_hamiltonian("trig-contact", d), _ref_trig_h, H_FIELDS),
}


def layouts(dim, seed=11):
    """(x, u, z) batch layouts: scalar u with batched z, batched u with a
    single z, (B,) with (B, n), (B1, 1) against (B2, n), and a lone point."""
    rng = np.random.default_rng(seed)
    B, B1, B2 = 5, 3, 4

    def pts(*shape):
        return rng.uniform(-2.0, 2.0, shape)

    return {
        "scalar-u": (pts(B, dim), float(rng.uniform(-2.0, 2.0)), pts(B, dim)),
        "single-z": (pts(B, dim), pts(B), pts(dim)),
        "batch": (pts(B, dim), pts(B), pts(B, dim)),
        "outer": (pts(B2, dim), pts(B1, 1), pts(B2, dim)),
        "point": (pts(dim), float(rng.uniform(-2.0, 2.0)), pts(dim)),
    }


def broadcast(x, u, z):
    """(x, u, z) broadcast to one batch shape, each keeping its last axis."""
    batch = np.broadcast_shapes(x.shape[:-1], np.shape(u), z.shape[:-1])
    return (np.broadcast_to(x, batch + x.shape[-1:]), np.broadcast_to(u, batch),
            np.broadcast_to(z, batch + z.shape[-1:]))


def expected(ref_fn, args):
    """The reference's value; where it cannot broadcast the layout (the
    earlier trig-contact L_x and H_x with u's batch wider than x's), its
    value on the inputs broadcast to one batch shape."""
    try:
        return ref_fn(*args)
    except ValueError:
        return ref_fn(*broadcast(*args))


@pytest.mark.parametrize("dim", (1, 2))
@pytest.mark.parametrize("name", SYSTEMS)
def test_builtin_evaluators_match_reference(name, dim):
    build, ref_fields, fields = SYSTEMS[name]
    system, ref = build(dim), ref_fields(LAM)
    assert sorted(f for f in fields if getattr(system, f) is not None) == sorted(ref)
    for layout, args in layouts(dim).items():
        for f, ref_fn in ref.items():
            want, got = expected(ref_fn, args), getattr(system, f)(*args)
            label = (name, dim, layout, f)
            assert np.shape(got) == np.shape(want), label
            assert np.array_equal(got, want), label
            assert np.asarray(got).dtype == np.float64, label
            if isinstance(want, np.ndarray):
                assert isinstance(got, np.ndarray) and got.flags.writeable, label
                for a in args:
                    assert not np.shares_memory(got, a), label
            else:  # a lone value: a numpy float, like the reference's
                assert type(got) is type(want), label
