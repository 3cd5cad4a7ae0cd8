"""Shared closed-form oracles, helpers, and acceptance-verdict reporting."""

import numpy as np

#: verdict lines recorded by the acceptance gate, replayed after the run
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def disc_A(lam: float, t: float, d: float, u: float) -> float:
    """Closed-form fundamental solution of L = -lam*u + |v|^2/2.

    Stationarity of the exponentially weighted quadratic action forces
    xi'(s) = c * exp(-lam*s); matching the displacement and integrating
    gives A = exp(-lam*t) u + lam d^2 / (2 (exp(lam*t) - 1)).
    """
    return float(np.exp(-lam * t) * u + lam * d * d / (2.0 * np.expm1(lam * t)))


def disc_p0(lam: float, t: float, d: float) -> float:
    """Initial momentum of the discounted minimizer: lam*d / (1 - e^{-lam t})."""
    return float(lam * d / (-np.expm1(-lam * t)))


def stack_lanes(ends):
    """The stacked (x, y, u) of `_direct_lockstep` from a list of (x, y, u)
    lanes, each endpoint a scalar or a sequence of coordinates."""
    x, y, u = zip(*ends)
    return (np.array(x, dtype=float).reshape(len(ends), -1),
            np.array(y, dtype=float).reshape(len(ends), -1), np.array(u, dtype=float))


def straight_starts(x, y, segments: int):
    """Interior nodes (B, N-1, n) of the straight curves from the stacked
    x[k] to y[k], bitwise those of `Curve.straight`: an explicit start for a
    lane that must iterate where the cold start would be its minimizer."""
    lam = np.linspace(0.0, 1.0, segments + 1)[:, None]
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return ((1.0 - lam) * x[:, None] + lam * y[:, None])[:, 1:-1]


def rel(a: float, b: float) -> float:
    """Guarded relative error |a - b| / max(1, |b|)."""
    return abs(a - b) / max(1.0, abs(b))


def hopf_lax_bruteforce(phi, t: float, x: float, lo: float = -10.0,
                        hi: float = 10.0, step: float = 1e-4):
    """Dense-grid minimization of phi(y) + (x - y)^2 / (2 t)."""
    y = np.arange(lo, hi + step, step)
    vals = phi(y) + (x - y) ** 2 / (2.0 * t)
    j = int(np.argmin(vals))
    return float(vals[j]), float(y[j])


def discounted_value_bruteforce(lam: float, phi, t: float, x: float,
                                lo: float = -10.0, hi: float = 10.0,
                                step: float = 1e-4):
    """Dense-grid minimization of e^{-lam t} phi(y) + lam (x-y)^2/(2(e^{lam t}-1))."""
    y = np.arange(lo, hi + step, step)
    vals = np.exp(-lam * t) * phi(y) + lam * (x - y) ** 2 / (2.0 * np.expm1(lam * t))
    j = int(np.argmin(vals))
    return float(vals[j]), float(y[j])
