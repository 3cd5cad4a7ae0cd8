"""Running-cost integration along discretized curves, and the RK4 stepper.

The running cost solves du/ds = L(xi(s), u, xi'(s)) along a curve xi that
is piecewise linear on a uniform time grid.  Velocities are piecewise
constant, so the integrand is smooth inside every segment; a classical
fixed-step RK4 sweep whose substeps never straddle a segment boundary
keeps full one-step order.

`_rk4` is the package's one classical RK4 stepper: it advances a stacked
state array, guards it against overflow and optionally records it.
`_rk4_sweep` runs it along a batch of piecewise-linear curves; it carries
the cost ODE here (forward, batched and in reversed time), the
exponential-weight state (u, I, J) in `fundamental`, and the frozen-value
gap integral in `vanishing`.  The characteristic system in `fundamental`
steps the stacked (xi, p, u) state with `_rk4` directly.

The batched sweep `integrate_cost_many` carries an ensemble of curves
through the same time grid in one pass; the variational solvers use it
for finite-difference gradients and brute-force ensembles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import as_point
from .errors import OVERFLOW_LIMIT, MonotonicityViolation, Overflow, PreconditionError
from .systems import ContactSystem


@dataclass(frozen=True)
class Curve:
    """Piecewise-linear path on the uniform grid s_k = k * t_final / N."""

    t_final: float
    nodes: np.ndarray  # (N+1, dim)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[0] < 2:
            raise PreconditionError("nodes must have shape (N+1, dim) with N >= 1")
        if not np.all(np.isfinite(nodes)):
            raise PreconditionError("curve nodes must be finite")
        if not self.t_final > 0:
            raise PreconditionError("t_final must be positive")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def straight(cls, x, y, t_final: float, segments: int) -> "Curve":
        x = as_point(x)
        y = as_point(y, x.size)
        lam = np.linspace(0.0, 1.0, segments + 1)[:, None]
        return cls(t_final=float(t_final), nodes=(1.0 - lam) * x + lam * y)

    @property
    def segments(self) -> int:
        return self.nodes.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.segments + 1)

    @property
    def velocities(self) -> np.ndarray:
        """Constant velocity of each segment, shape (N, dim)."""
        return (self.nodes[1:] - self.nodes[:-1]) * (self.segments / self.t_final)

    @property
    def interior(self) -> np.ndarray:
        """Interior nodes flattened to shape ((N-1) * dim,)."""
        return self.nodes[1:-1].reshape(-1).copy()

    def with_interior(self, flat: np.ndarray) -> "Curve":
        nodes = self.nodes.copy()
        nodes[1:-1] = np.asarray(flat, dtype=float).reshape(self.segments - 1, self.dim)
        return Curve(self.t_final, nodes)

    def position(self, s):
        """Piecewise-linear evaluation at time(s) s in [0, t_final]."""
        s = np.asarray(s, dtype=float)
        tau = np.clip(s, 0.0, self.t_final) * (self.segments / self.t_final)
        k = np.minimum(tau.astype(int), self.segments - 1)
        frac = (tau - k)[..., None]
        return (1.0 - frac) * self.nodes[k] + frac * self.nodes[k + 1]

    def reversed(self) -> "Curve":
        return Curve(self.t_final, self.nodes[::-1].copy())


@dataclass(frozen=True)
class CostTrajectory:
    """Samples of the running cost at the uniform substep times."""

    times: np.ndarray
    samples: np.ndarray
    u0: float
    direction: str = "forward"

    @property
    def final(self) -> float:
        return float(self.samples[-1])

    def value_at(self, s):
        """Linear interpolation between substep samples."""
        return np.interp(s, self.times, self.samples)


def _rk4(f, y0, h: float, steps, guard_every: int = 1,
         record: bool = False) -> np.ndarray:
    """Classical RK4 for y' = f(x, y, v) over uniform steps of size h.

    y0 is a stacked state with the batch on its leading axis.  Each entry
    (x0, xm, x1, v) of `steps` gives the positions at the start, midpoint
    and end of one step, and its velocity; arguments f ignores may be None.
    Raises Overflow once |y| passes OVERFLOW_LIMIT or turns non-finite,
    checked after every `guard_every` steps.  Returns the final state, or
    all len(steps) + 1 states on a new leading axis when record is set.
    """
    y = np.array(y0, dtype=float)
    path = np.empty((len(steps) + 1,) + y.shape) if record else None
    if record:
        path[0] = y
    hh = 0.5 * h
    h6 = h / 6.0
    # a runaway state overflows between guards; the guard reports it as
    # Overflow, so numpy's own warnings about it are silenced
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (x0, xm, x1, v) in enumerate(steps, 1):
            k1 = f(x0, y, v)
            k2 = f(xm, y + hh * k1, v)
            k3 = f(xm, y + hh * k2, v)
            k4 = f(x1, y + h * k3, v)
            y = y + h6 * (k1 + 2.0 * (k2 + k3) + k4)
            if record:
                path[i] = y
            if i % guard_every == 0 and (
                    not np.all(np.isfinite(y)) or np.max(np.abs(y)) > OVERFLOW_LIMIT):
                raise Overflow(f"|state| exceeded {OVERFLOW_LIMIT:g} during RK4 integration")
    return path if record else y


def _rk4_sweep(f, t_final: float, nodes: np.ndarray, y0: np.ndarray,
               substeps: int) -> np.ndarray:
    """RK4 of y' = f(xi(s), y, xi'(s)) along a batch of piecewise-linear curves.

    nodes has shape (B, N+1, dim) and all curves share the time grid; y0
    has the batch on its leading axis.  Substeps never straddle a segment
    boundary, and the overflow guard runs once per segment.  Returns the
    samples at every substep, shape (B, N*m+1) + y0.shape[1:].
    """
    B, Np1, n = nodes.shape
    N = Np1 - 1
    m = int(substeps)
    if m < 1:
        raise PreconditionError("substeps_per_segment must be >= 1")
    h = t_final / (N * m)
    vel = (nodes[:, 1:, :] - nodes[:, :-1, :]) * (N / t_final)
    # stage positions are y-independent; precompute them for the whole sweep
    offs = np.arange(m) * h
    starts = nodes[:, :-1, None, :] + offs[None, None, :, None] * vel[:, :, None, :]
    mids = starts + (0.5 * h) * vel[:, :, None, :]
    ends = starts + h * vel[:, :, None, :]
    steps = [(starts[:, k, j], mids[:, k, j], ends[:, k, j], vel[:, k])
             for k in range(N) for j in range(m)]
    return _rk4(f, y0, h, steps, guard_every=m, record=True).swapaxes(0, 1)


def integrate_cost_many(S: ContactSystem, t_final: float, nodes: np.ndarray,
                        u0, substeps_per_segment: int = 4) -> np.ndarray:
    """Batched forward integration; returns cost samples of shape (B, N*m+1)."""
    nodes = np.asarray(nodes, dtype=float)
    u0 = np.broadcast_to(np.asarray(u0, dtype=float), (nodes.shape[0],))
    return _rk4_sweep(S.L, float(t_final), nodes, u0, substeps_per_segment)


def integrate_cost(S: ContactSystem, xi: Curve, u0: float,
                   substeps_per_segment: int = 4) -> CostTrajectory:
    """Forward integration of the running-cost ODE du/ds = L(xi, u, xi')."""
    if not np.isfinite(u0):
        raise PreconditionError("u0 must be finite")
    samples = _rk4_sweep(S.L, xi.t_final, xi.nodes[None], np.array([u0]),
                         substeps_per_segment)[0]
    samples[0] = u0  # exact by construction; pin against any float cast
    M = samples.size - 1
    times = np.linspace(0.0, xi.t_final, M + 1)
    return CostTrajectory(times=times, samples=samples, u0=float(u0))


def integrate_cost_backward(S: ContactSystem, xi: Curve, u_final: float,
                            substeps_per_segment: int = 4) -> CostTrajectory:
    """Diagnostic: integrate the same ODE in reversed time from u(t_final).

    Returned samples are reported on the forward time axis, so a perfect
    round trip satisfies backward(forward(u0).final) ~ forward(u0).
    """
    if not np.isfinite(u_final):
        raise PreconditionError("u_final must be finite")
    rev = xi.reversed()
    # reversed time: dw/dtau = -L(xi(t - tau), w, -xi_rev'(tau))
    w = _rk4_sweep(lambda x, w, v: -S.L(x, w, -v), rev.t_final, rev.nodes[None],
                   np.array([u_final]), substeps_per_segment)[0]
    samples = w[::-1].copy()
    M = samples.size - 1
    times = np.linspace(0.0, xi.t_final, M + 1)
    return CostTrajectory(times=times, samples=samples, u0=float(samples[0]),
                          direction="backward")


@dataclass(frozen=True)
class OrderingWitness:
    """Pair of trajectories from ordered initial values, plus the worst gap."""

    low: CostTrajectory
    high: CostTrajectory
    min_gap: float


def assert_ordered(low: CostTrajectory, high: CostTrajectory, tol: float = 1e-9) -> float:
    """Check u_low <= u_high at every shared sample; returns the minimum gap."""
    if low.samples.shape != high.samples.shape:
        raise PreconditionError("trajectories must share their sample grid")
    gap = high.samples - low.samples
    min_gap = float(gap.min())
    if min_gap < -tol:
        raise MonotonicityViolation(
            f"cost ordering violated by {-min_gap:.3g} (tolerance {tol:g}); "
            "suspect integration error or an unbounded value derivative")
    return min_gap


def cost_comparison(S: ContactSystem, xi: Curve, u0_low: float, u0_high: float,
                    substeps_per_segment: int = 4, tol: float = 1e-9) -> OrderingWitness:
    """Integrate from two ordered initial values and certify the ordering."""
    if u0_low > u0_high:
        raise PreconditionError("u0_low must not exceed u0_high")
    low = integrate_cost(S, xi, u0_low, substeps_per_segment)
    high = integrate_cost(S, xi, u0_high, substeps_per_segment)
    min_gap = assert_ordered(low, high, tol=tol)
    return OrderingWitness(low=low, high=high, min_gap=min_gap)
