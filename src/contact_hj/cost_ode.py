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
steps its component-major (xi, p, u) state with `_rk4` directly.

The batched sweep `integrate_cost_many` carries an ensemble of curves
through the same time grid in one pass; the variational solvers use it
for finite-difference gradients and brute-force ensembles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._util import as_count, as_point, const
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
        if not 0 < self.t_final < np.inf:
            raise PreconditionError(f"t_final must be positive and finite, got {self.t_final!r}")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def straight(cls, x, y, t_final: float, segments: int) -> "Curve":
        x = as_point(x)
        y = as_point(y, x.size)
        lam = np.linspace(0.0, 1.0, as_count(segments, "segments") + 1)[:, None]
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


#: how far below the cost from u_low the cost from u_high may dip (`assert_ordered`)
ORDER_TOL = 1e-9
#: what the RK4 guard's Overflow says
_OVERFLOW = f"|state| exceeded {OVERFLOW_LIMIT:g} during RK4 integration"
#: the 2 of the RK4 weights (1, 2, 2, 1) / 6
_TWO = const(2.0)


def _check_range(y) -> None:
    """The default guard of `_rk4`: Overflow once |y| passes OVERFLOW_LIMIT
    or turns non-finite anywhere in the batch."""
    if not np.maximum.reduce(np.abs(y), axis=None) <= OVERFLOW_LIMIT:  # nan fails it
        raise Overflow(_OVERFLOW)


def _rk4(f, y0, h: float, steps, guard_every: int = 1,
         record: bool = False, guard=_check_range) -> np.ndarray:
    """Classical RK4 for y' = f(x, y, v) over uniform steps of size h.

    y0 is a stacked state with the batch on its leading axis.  Each entry
    (x0, xm, x1, v) of `steps` gives the positions at the start, midpoint
    and end of one step, and its velocity; arguments f ignores may be None.
    For an autonomous f, `steps` may be the number of steps instead, and f
    gets None for every position and velocity.  `guard(y)` runs after
    every `guard_every` steps; the default raises Overflow once |y| passes
    OVERFLOW_LIMIT or turns non-finite.  Returns the final state, or all
    states, the initial one first, on a new leading axis when record is set.

    A step works in buffers made once per call, three stage states and one
    sum of slopes, and writes the new state straight into the recorded path
    (or over the old state).  Every buffer f reads stays as it is until its
    step ends, so f may return a view of its state argument, or write its
    slopes into buffers of its own that it reuses once their step has ended.
    The step sizes and the 2 are 0-d float64 constants (`_util.const`).
    Each float operation is that of the allocating
    y + h6 * (k1 + 2 (k2 + k3) + k4), on the same operands in the same
    order, in float64: a slope of another dtype (a float32 one, say) is
    taken as np.asarray(k, float) would take it.
    """
    if isinstance(steps, (int, np.integer)):
        count, steps = int(steps), itertools.repeat((None,) * 4, steps)
    else:
        count = len(steps)
    y = np.array(y0, dtype=float)
    path = None
    if record:
        path = np.empty((count + 1,) + y.shape)
        path[0] = y
        y = path[0]
    y2, y3, y4, acc = np.empty((4,) + y.shape)
    hh, h6, h = const(0.5 * h), const(h / 6.0), const(h)
    # a runaway state overflows between guards; the guard reports it as
    # Overflow, so numpy's own warnings about it are silenced
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (x0, xm, x1, v) in enumerate(steps, 1):
            k1 = f(x0, y, v)
            np.add(y, np.multiply(hh, k1, out=y2), out=y2)
            k2 = f(xm, y2, v)
            np.add(y, np.multiply(hh, k2, out=y3), out=y3)
            k3 = f(xm, y3, v)
            np.add(y, np.multiply(h, k3, out=y4), out=y4)
            k4 = f(x1, y4, v)
            np.multiply(_TWO, np.add(k2, k3, out=acc, dtype=float), out=acc)
            np.add(np.add(k1, acc, out=acc), k4, out=acc)
            y = np.add(y, np.multiply(h6, acc, out=acc), out=path[i] if record else y)
            if i % guard_every == 0:
                guard(y)
    return path if record else y


def _rk4_sweep(f, t_final: float, nodes: np.ndarray, y0: np.ndarray,
               substeps: int) -> np.ndarray:
    """RK4 of y' = f(xi(s), y, xi'(s)) along a batch of piecewise-linear curves.

    nodes has shape (B, N+1, dim) and all curves share the time grid; y0
    has the batch on its leading axis.  Substeps never straddle a segment
    boundary, and the overflow guard runs once per segment.  Stage
    positions and velocities are laid out segment-major, (N, m, B, dim) and
    (N, B, dim), so f reads C-contiguous (B, dim) rows at every stage.
    Returns the samples at every substep, shape (B, N*m+1) + y0.shape[1:].
    """
    N = nodes.shape[1] - 1
    m = as_count(substeps, "substeps_per_segment")
    h = t_final / (N * m)
    nodes = np.ascontiguousarray(nodes.swapaxes(0, 1))
    vel = (nodes[1:] - nodes[:-1]) * (N / t_final)
    # stage positions are y-independent; precompute them for the whole sweep
    offs = np.arange(m) * h
    starts = nodes[:-1, None] + offs[None, :, None, None] * vel[:, None]
    mids = starts + (0.5 * h) * vel[:, None]
    ends = starts + h * vel[:, None]
    steps = [(starts[k, j], mids[k, j], ends[k, j], vel[k])
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
    times = np.linspace(0.0, xi.t_final, samples.size)
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
    times = np.linspace(0.0, xi.t_final, samples.size)
    return CostTrajectory(times=times, samples=samples, u0=float(samples[0]),
                          direction="backward")


@dataclass(frozen=True)
class OrderingWitness:
    """Pair of trajectories from ordered initial values, plus the worst gap."""

    low: CostTrajectory
    high: CostTrajectory
    min_gap: float


def assert_ordered(low: CostTrajectory, high: CostTrajectory) -> float:
    """Check u_low <= u_high + ORDER_TOL at every shared sample; returns the minimum gap."""
    if low.samples.shape != high.samples.shape:
        raise PreconditionError("trajectories must share their sample grid")
    gap = high.samples - low.samples
    min_gap = float(gap.min())
    if min_gap < -ORDER_TOL:
        raise MonotonicityViolation(
            f"cost ordering violated by {-min_gap:.3g} (tolerance {ORDER_TOL:g}); "
            "suspect integration error or an unbounded value derivative")
    return min_gap


def cost_comparison(S: ContactSystem, xi: Curve, u0_low: float, u0_high: float,
                    substeps_per_segment: int = 4) -> OrderingWitness:
    """Integrate from two ordered initial values and certify the ordering."""
    if u0_low > u0_high:
        raise PreconditionError("u0_low must not exceed u0_high")
    low = integrate_cost(S, xi, u0_low, substeps_per_segment)
    high = integrate_cost(S, xi, u0_high, substeps_per_segment)
    min_gap = assert_ordered(low, high)
    return OrderingWitness(low=low, high=high, min_gap=min_gap)
