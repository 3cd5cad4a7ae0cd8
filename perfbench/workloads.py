"""Seeded `contact-hj` job configs and the per-row oracle checks.

A run repeats a fixed panel of PANEL_JOBS jobs (see `panel`), so every run
of every seed does about the same amount of work.  The inputs that set
most of a job's cost (lambda and t in `fundamental`, the horizon t
elsewhere) follow a fixed stratified schedule over the panel; the seed
moves every other input through a seeded low-discrepancy sequence (see
`_Sequence`).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

import oracles

WORKLOADS = ("fundamental", "solve", "vanishing")

#: oracle tolerances on the guarded error |a - b| / max(1, |b|)
TOL_FUNDAMENTAL = 1e-3   # acceptance criterion 1
TOL_SOLVE = 1e-3
TOL_GAP = 2e-3


@dataclass
class Job:
    command: str
    config: dict
    items: list                 # one dict of inputs per item
    oracle: list = field(default_factory=list)  # expected values, per row


@dataclass
class ItemResult:
    inputs: dict
    passed: bool
    err: float                  # guarded error; nan when no numeric oracle
    reason: str = ""


def _radical_inverse(i: int, base: int) -> float:
    r, f = 0.0, 1.0
    while i:
        f /= base
        r += f * (i % base)
        i //= base
    return r


class _Sequence:
    """Randomly shifted Halton sequence: the workload's input stream.

    Point i is frac(halton(i) + shift) with one prime base per dimension
    and a uniform shift drawn from the seed (a Cranley-Patterson
    rotation).  Every prefix of every seed's sequence is spread evenly over
    the parameter box, so the cost of a run, which covers a prefix,
    varies little between seeds while the inputs themselves differ.
    """

    BASES = (2, 3, 5, 7, 11, 13)

    def __init__(self, seed: int, workload: str, stream: int = 0):
        rng = np.random.default_rng([seed, WORKLOADS.index(workload), stream])
        self.shift = rng.uniform(size=len(self.BASES))

    def __call__(self, i: int, ranges) -> list:
        return [lo + (hi - lo) * float((_radical_inverse(i, b) + s) % 1.0)
                for (lo, hi), b, s in zip(ranges, self.BASES, self.shift)]


#: jobs per panel; at the seed commit one pass over the panel takes about
#: 5 s (solve, vanishing) or 12 s (fundamental) at nominal host speed
PANEL_JOBS = 2


def _stratum(k: int, lo: float, hi: float) -> float:
    """Midpoint of stratum k of PANEL_JOBS equal strata of [lo, hi]."""
    return lo + (hi - lo) * (k + 0.5) / PANEL_JOBS


def panel(workload: str, seed: int) -> list:
    return [make_job(workload, seed, k) for k in range(PANEL_JOBS)]


def make_job(workload: str, seed: int, k: int) -> Job:
    if workload == "fundamental":
        return _fundamental_job(seed, k)
    if workload == "solve":
        return _solve_job(seed, k)
    if workload == "vanishing":
        return _vanishing_job(seed, k)
    raise ValueError(f"unknown workload {workload!r}")


POINTS_PER_FUNDAMENTAL_JOB = 4


def _fundamental_job(seed: int, k: int) -> Job:
    # lambda and t set the L-BFGS work (5 to 8 s per job at nominal host
    # speed), so they are fixed: lambda stratified log-uniform on [0.25, 4],
    # and t on one stratum of [0.5, 2] per point of the panel, from short to
    # long within each job; the seed moves d, u and x
    lam = 0.25 * 16.0 ** _stratum(k, 0.0, 1.0)
    seq = _Sequence(seed, "fundamental")
    items = []
    for i in range(POINTS_PER_FUNDAMENTAL_JOB):
        t = 0.5 + 1.5 * (i * PANEL_JOBS + k + 0.5) / (POINTS_PER_FUNDAMENTAL_JOB * PANEL_JOBS)
        d, u, x, sign = seq(k * POINTS_PER_FUNDAMENTAL_JOB + i,
                            [(0.0, 3.0), (-2.0, 5.0), (-1.0, 1.0), (-1.0, 1.0)])
        items.append({"t": t, "x": [x], "y": [x + math.copysign(d, sign)], "u": u})
    cfg = {"system": f"discounted-quadratic({lam!r})", "points": items, "segments": 64}
    oracle = [oracles.disc_A(lam, it["t"], abs(it["y"][0] - it["x"][0]), it["u"])
              for it in items]
    return Job("fundamental", cfg, [dict(it, lam=lam) for it in items], oracle)


def _solve_job(seed: int, k: int) -> Job:
    # the horizon sets most of a job's cost, so it is fixed; the seed moves x
    t_short, t_long = _stratum(k, 0.3, 0.65), _stratum(k, 0.65, 1.0)
    x, = _Sequence(seed, "solve")(k, [(-2.0, 2.0)])
    cfg = {"system": "discounted-quadratic(1.0)", "datum": "sin",
           "times": [t_short, t_long],
           "space": {"min": x, "max": x + 1.0, "points": 1},
           "segments": 8, "grid_points": 17}
    items = [{"t": t, "x": x} for t in (t_short, t_long)]
    return Job("solve", cfg, items, [oracles.sin_value(1.0, it["t"], x) for it in items])


def _vanishing_job(seed: int, k: int) -> Job:
    # the families alternate and each walks its own sequence; the horizon
    # sets most of a job's cost, so it is fixed
    family = ("discounted", "perturbed")[k % 2]
    t = _stratum(k, 0.3, 0.7)
    lam1, lam2, x = _Sequence(seed, "vanishing", k % 2)(
        k // 2, [(0.1, 0.3), (0.02, 0.05), (-2.0, 2.0)])
    lambdas = [lam1, lam2]
    cfg = {"family": family, "datum": "sin", "lambdas": lambdas, "times": [t],
           "space": {"min": x, "max": x + 1.0, "points": 1},
           "segments": 8, "grid_points": 17, "gap_tol": 0.05}
    # one value point per system: the K = 0 limit plus each family member
    items = [{"family": family, "lambda": lam, "t": t, "x": x} for lam in [0.0] + lambdas]
    oracle = ([oracles.sin_gap(lam, [t], [x]) for lam in lambdas]
              if family == "discounted" else [])
    return Job("vanishing", cfg, items, oracle)


def check(job: Job, rc: int, text: str | None) -> list:
    """Grade every item of a finished job against its oracle."""
    if rc != 0 or text is None:
        return [ItemResult(it, False, math.nan, f"exit code {rc}") for it in job.items]
    try:
        return _grade(job, list(csv.DictReader(io.StringIO(text))))
    except (KeyError, TypeError, ValueError) as exc:
        return [ItemResult(it, False, math.nan, f"unreadable CSV ({exc!r})") for it in job.items]


def _grade(job: Job, rows: list) -> list:
    if job.command == "fundamental":
        return [_check_fundamental(it, ref, rows[i] if i < len(rows) else None)
                for i, (it, ref) in enumerate(zip(job.items, job.oracle))]
    if job.command == "solve":
        return [_check_solve(it, ref, rows[i] if i < len(rows) else None)
                for i, (it, ref) in enumerate(zip(job.items, job.oracle))]
    return _check_vanishing(job, rows)


def _same(a: str, b: float) -> bool:
    return float(a) == float(np.float64(b))


def _check_fundamental(it, ref, row) -> ItemResult:
    if row is None:
        return ItemResult(it, False, math.nan, "row missing")
    if not (_same(row["t"], it["t"]) and _same(row["x0"], it["x"][0])
            and _same(row["y0"], it["y"][0]) and _same(row["u"], it["u"])):
        return ItemResult(it, False, math.nan, "row inputs do not match the config")
    err = max(oracles.rel(float(row["A_direct"]), ref),
              oracles.rel(float(row["A_shooting"]), ref))
    ok = err <= TOL_FUNDAMENTAL
    return ItemResult(it, ok, err, "" if ok else f"error {err:.3g} > {TOL_FUNDAMENTAL:g}")


def _check_solve(it, ref, row) -> ItemResult:
    if row is None:
        return ItemResult(it, False, math.nan, "row missing")
    if not (_same(row["t"], it["t"]) and _same(row["x0"], it["x"])):
        return ItemResult(it, False, math.nan, "row inputs do not match the config")
    err = oracles.rel(float(row["u_value"]), ref)
    ok = err <= TOL_SOLVE
    return ItemResult(it, ok, err, "" if ok else f"error {err:.3g} > {TOL_SOLVE:g}")


def _check_vanishing(job: Job, rows) -> list:
    """Every row needs bound_check=1; discounted gaps must match the oracle.

    A vanishing job reports per-lambda rows, not per-point values, so any
    failing row fails every item of the job.
    """
    lambdas = job.config["lambdas"]
    reasons = []
    errs = []
    if len(rows) != len(lambdas):
        reasons.append(f"{len(rows)} rows for {len(lambdas)} lambdas")
    for i, row in enumerate(rows[:len(lambdas)]):
        if not _same(row["lambda"], lambdas[i]):
            reasons.append(f"row {i} lambda does not match the config")
            continue
        if row["bound_check"] != "1":
            reasons.append(f"bound_check={row['bound_check']} at lambda {lambdas[i]:g}")
        if job.oracle:
            err = oracles.rel(float(row["sup_gap"]), job.oracle[i])
            errs.append(err)
            if err > TOL_GAP:
                reasons.append(f"gap error {err:.3g} > {TOL_GAP:g} at lambda {lambdas[i]:g}")
    err = max(errs) if errs else math.nan
    reason = "; ".join(reasons)
    return [ItemResult(it, not reasons, err, reason) for it in job.items]


def warmup_job(workload: str) -> Job:
    """Tiny job of the workload's command, run before timing starts."""
    if workload == "fundamental":
        cfg = {"system": "discounted-quadratic(1.0)", "segments": 8,
               "points": [{"t": 1.0, "x": [0.0], "y": [1.0], "u": 0.0}]}
    elif workload == "solve":
        cfg = {"system": "discounted-quadratic(1.0)", "datum": "sin", "times": [0.5],
               "space": {"min": 0.0, "max": 1.0, "points": 1},
               "segments": 4, "grid_points": 5, "ytol": 1e-3}
    else:
        cfg = {"family": "perturbed", "datum": "sin", "lambdas": [0.02], "times": [0.5],
               "space": {"min": 0.0, "max": 1.0, "points": 1},
               "segments": 4, "grid_points": 5, "ytol": 1e-3}
    return Job(workload, cfg, [])
