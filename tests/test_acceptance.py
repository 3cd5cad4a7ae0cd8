"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
of every criterion as it completes.

Relative comparisons use the guarded form |a - b| / max(1, |b|): several
sweeps contain points whose exact value is 0 (coincident endpoints with
zero initial value), where a bare relative error is undefined, and the
N-segment curve class itself carries an O((t/N)^2) action bias that a
bare relative error would amplify arbitrarily at near-cancelling corners.
"""

import itertools
import json
import time

import conftest
import numpy as np
import pytest
from conftest import disc_A, disc_p0, hopf_lax_bruteforce, rel

from contact_hj import (Curve, OptimizerParams, SearchParams,
                        datum_quadratic_window, datum_sin,
                        discounted_quadratic_hamiltonian,
                        discounted_quadratic_system, family_discounted,
                        family_perturbed, fundamental_direct,
                        fundamental_exponential, fundamental_shooting,
                        herglotz_residual, initial_condition_check,
                        integrate_cost, mu_radius, quadratic_system,
                        quartic_system, run_vanishing, solve_value,
                        trig_contact_system)
from contact_hj.cli import main as cli_main
from contact_hj.cost_ode import integrate_cost_many

LAMBDAS = (0.25, 1.0, 4.0)
TIMES = (0.5, 1.0, 2.0)
DISTS = (0.0, 1.0, 3.0)
US = (-2.0, 0.0, 5.0)

SWEEP_OPT = OptimizerParams(substeps=1, gtol=1e-5, max_iter=2000)
SUB_OPT = OptimizerParams(substeps=1, gtol=1e-5, max_iter=1500)
SEARCH = SearchParams(segments=8, grid_points=17, ytol=1e-6,
                      opt=OptimizerParams(substeps=2, gtol=1e-5))


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    conftest.ACCEPTANCE_VERDICTS.append(line)  # replayed in the run summary
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def sweep():
    """Direct N=64 solves over the full criterion-1 parameter sweep."""
    t0 = time.monotonic()
    results = {}
    for lam, t, d, u in itertools.product(LAMBDAS, TIMES, DISTS, US):
        S = discounted_quadratic_system(lam)
        results[(lam, t, d, u)] = fundamental_direct(
            S, t, 0.0, d, u, segments=64, opt=SWEEP_OPT)
    return results, time.monotonic() - t0


@pytest.fixture(scope="module")
def hopf_lax_runs():
    """solve_value on the sin datum over 20 (t, x) points (criterion 6/7)."""
    S = quadratic_system()
    datum = datum_sin()
    search = SearchParams(segments=8, grid_points=33, ytol=1e-7,
                          opt=OptimizerParams(substeps=2))
    records = []
    for t in (0.3, 0.6, 1.0, 1.5):
        for x in (-2.0, -1.0, 0.0, 1.0, 2.0):
            val, y_star, _ = solve_value(S, datum, t, x, search)
            records.append((S, datum, t, x, val, y_star))
    return records


@pytest.fixture(scope="module")
def vanishing_runs():
    """Criterion-8 experiment: discounted sweep plus one perturbed member."""
    datum = datum_sin()
    times = [0.5, 1.0]
    points = np.arange(-2.0, 2.0 + 1e-12, 0.5)[:, None]
    t0 = time.monotonic()
    disc = run_vanishing(family_discounted(), datum,
                         [0.5, 0.2, 0.1, 0.05, 0.02], times, points, SEARCH)
    pert = run_vanishing(family_perturbed(), datum, [0.02], times, points,
                         SEARCH)
    return disc, pert, time.monotonic() - t0


def test_criterion_1_discounted_closed_form(sweep):
    results, elapsed = sweep
    worst = 0.0
    for (lam, t, d, u), res in results.items():
        worst = max(worst, rel(res.A, disc_A(lam, t, d, u)))
    ok = worst <= 1e-3 and elapsed < 60.0

    # independent confirmation: ensembles of randomly perturbed curves can
    # neither beat the found minimum nor undercut the closed form
    rng = np.random.default_rng(101)
    brute_ok = True
    for (lam, t, d, u) in [(1.0, 1.0, 1.0, 0.0), (0.25, 2.0, 3.0, -2.0),
                           (4.0, 0.5, 1.0, 5.0)]:
        S = discounted_quadratic_system(lam)
        found = results[(lam, t, d, u)]
        base = found.minimizer.nodes[None]
        chunks_min = np.inf
        for scale in (0.5, 0.05, 0.005, 0.0005):
            noise = rng.standard_normal((25000, 65, 1)) * scale
            noise[:, 0] = 0.0
            noise[:, -1] = 0.0
            finals = integrate_cost_many(S, t, base + noise, u, 1)[:, -1]
            chunks_min = min(chunks_min, float(finals.min()))
        brute_ok &= chunks_min >= found.A - 1e-9
        brute_ok &= chunks_min >= disc_A(lam, t, d, u) - 1e-6
    verdict(1, ok and brute_ok,
            f"closed-form sweep worst rel {worst:.2e}, "
            f"runtime {elapsed:.1f}s, brute-force floor held: {brute_ok}")


def test_criterion_2_shooting_direct_agreement(sweep):
    results, _ = sweep
    worst_A, worst_p = 0.0, 0.0
    for (lam, t, d, u), direct in results.items():
        HS = discounted_quadratic_hamiltonian(lam)
        shot = fundamental_shooting(HS, t, 0.0, d, u, steps=192, segments=32)
        worst_A = max(worst_A, rel(shot.A, direct.A))
        p_true = disc_p0(lam, t, d)
        worst_p = max(worst_p, abs(shot.p0[0] - p_true) / max(1.0, abs(p_true)))
    ok = worst_A <= 1e-3 and worst_p <= 1e-4
    verdict(2, ok, f"shooting vs direct worst rel {worst_A:.2e}, "
                   f"momentum worst rel {worst_p:.2e}")


def test_criterion_3_exponential_identity():
    systems = [quadratic_system(), discounted_quadratic_system(1.0),
               quartic_system(), trig_contact_system()]
    rng = np.random.default_rng(33)
    worst = 0.0
    for S in systems:
        for _ in range(100):
            nodes = np.cumsum(rng.uniform(-0.5, 0.5, (9, 1)), axis=0)
            xi = Curve(float(rng.uniform(0.5, 1.5)), nodes)
            u0 = float(rng.uniform(-1.0, 1.0))
            fwd = integrate_cost(S, xi, u0, substeps_per_segment=16).final
            expo = fundamental_exponential(S, xi, u0, substeps_per_segment=16)
            worst = max(worst, rel(expo, fwd))
    verdict(3, worst <= 1e-7,
            f"exponential representation worst rel gap {worst:.2e} over 400 curves")


def test_criterion_4_dynamic_programming(sweep):
    # the sub-solve keeps the parent's grid spacing (segments = frac * 64),
    # so the restriction of the parent minimizer lies in the sub-problem's
    # own curve class and the split identity holds without a class-bias gap
    results, _ = sweep
    worst = 0.0
    for (lam, t, d, u), res in results.items():
        S = discounted_quadratic_system(lam)
        for frac in (0.25, 0.5, 0.75):
            s = frac * t
            node = res.minimizer.position(s)
            sub = fundamental_direct(S, s, 0.0, node, u,
                                     segments=int(round(64 * frac)),
                                     opt=SUB_OPT)
            worst = max(worst, rel(sub.A, float(res.trajectory.value_at(s))))
    verdict(4, worst <= 1e-3, f"split consistency worst rel {worst:.2e}")


def test_criterion_5_fundamental_bounds(sweep):
    results, _ = sweep
    slack = 1e-6
    ok = True

    def check_bounds(S, t, d, u, A):
        nonlocal ok
        K, c0, C = S.K, S.c0, S.C_const
        if u <= 0:
            ok &= A >= np.exp(K * t) * u - c0 * t * np.exp(K * t) - slack
        if u >= 0:
            ok &= A >= np.exp(-K * t) * u - c0 * t * np.exp(K * t) - slack
        if d == 0.0:
            if u <= 0:
                ok &= A <= np.exp(-K * t) * u + C * t * np.exp(K * t) + slack
            if u >= 0:
                ok &= A <= np.exp(K * t) * u + C * t * np.exp(K * t) + slack

    for (lam, t, d, u), res in results.items():
        check_bounds(discounted_quadratic_system(lam), t, d, u, res.A)

    S = trig_contact_system()
    x0 = np.array([0.3])
    for t in np.linspace(0.4, 1.2, 5):
        for dd in np.linspace(-2.0, 2.0, 5):
            for u in np.linspace(-2.0, 2.0, 5):
                res = fundamental_direct(S, float(t), x0, x0 + dd, float(u),
                                         segments=16, opt=SUB_OPT)
                check_bounds(S, float(t), abs(float(dd)), float(u), res.A)
    verdict(5, ok, "sign-case envelopes held on the sweep and the "
                   "trig-contact 5x5x5 sample")


def test_criterion_6_hopf_lax(hopf_lax_runs):
    worst_sin = 0.0
    for (_, _, t, x, val, _) in hopf_lax_runs:
        oracle, _ = hopf_lax_bruteforce(np.sin, t, x)
        worst_sin = max(worst_sin, abs(val - oracle))

    S = quadratic_system()
    datum = datum_quadratic_window(10.0)
    search = SearchParams(segments=8, grid_points=33, ytol=1e-7,
                          opt=OptimizerParams(substeps=2))
    worst_quad = 0.0
    for (t, x) in [(0.5, -3.0), (0.5, 1.0), (1.0, 0.5), (1.0, 4.0), (1.5, -2.0)]:
        val, _, _ = solve_value(S, datum, t, x, search)
        worst_quad = max(worst_quad, abs(val - x * x / (2.0 * (1.0 + t))))
    ok = worst_sin <= 1e-4 and worst_quad <= 1e-4
    verdict(6, ok, f"dense-grid oracle gap {worst_sin:.2e} (sin, 20 points), "
                   f"closed form gap {worst_quad:.2e} (windowed quadratic)")


def test_criterion_7_argmin_localization(hopf_lax_runs, vanishing_runs):
    ok = True
    worst_slack = -np.inf
    for (S, datum, t, x, val, y_star) in hopf_lax_runs:
        radius = mu_radius(S, datum, t) * t
        ok &= abs(y_star[0] - x) <= radius + 1e-6
        rest = fundamental_direct(S, t, np.array([x]), np.array([x]),
                                  float(datum(np.array([x]))), segments=8,
                                  opt=OptimizerParams(substeps=2))
        worst_slack = max(worst_slack, val - rest.A)
        ok &= val <= rest.A + 1e-9

    disc, pert, _ = vanishing_runs
    datum = datum_sin()
    for report, family in ((disc, family_discounted()), (pert, family_perturbed())):
        for i, lam in enumerate(report.lambdas):
            S_lam = family.builder(float(lam))
            for a, t in enumerate(report.times):
                radius = mu_radius(S_lam, datum, float(t)) * float(t)
                shift = np.linalg.norm(report.argmins[i][a] - report.points,
                                       axis=-1)
                ok &= bool(np.all(shift <= radius + 1e-6))
    verdict(7, ok, f"all argmins inside mu(t)t balls; rest-point dominance "
                   f"slack {worst_slack:.2e}")


def test_criterion_8_vanishing_contact(vanishing_runs):
    disc, pert, elapsed = vanishing_runs
    t_max = float(disc.times.max())
    nonincreasing = bool(np.all(np.diff(disc.gaps) <= 1e-6))
    per_lambda_ok = True
    for i, lam in enumerate(disc.lambdas):
        M = disc.max_bound(i)
        per_lambda_ok &= disc.gaps[i] <= 1.5 * lam * (t_max * M + 1.0)
    ok = (nonincreasing and per_lambda_ok and disc.final_gap <= 0.05
          and pert.final_gap <= 0.05 and elapsed < 300.0)
    verdict(8, ok,
            f"gaps {np.array2string(disc.gaps, precision=4)} nonincreasing,"
            f" final {disc.final_gap:.4f} <= 0.05, perturbed "
            f"{pert.final_gap:.4f} <= 0.05, runtime {elapsed:.0f}s")


def test_criterion_9_running_cost_envelope(vanishing_runs):
    disc, pert, _ = vanishing_runs
    ok = bool(disc.bound_passed.all()) and bool(pert.bound_passed.all())
    verdict(9, ok, "contact_bound envelope held at every (lambda, t, x)")


def test_criterion_10_residual_convergence():
    S = discounted_quadratic_system(1.0)
    Ns = (16, 32, 64, 128)
    res = []
    for N in Ns:
        r = fundamental_direct(S, 1.0, 0.0, 1.0, 0.0, segments=N,
                               opt=OptimizerParams(substeps=2, max_iter=2000))
        res.append(herglotz_residual(S, r.minimizer, r.trajectory))
    slope, _ = np.polyfit(np.log(Ns), np.log(res), 1)
    order = -slope
    verdict(10, order >= 1.5,
            f"residuals {np.array2string(np.asarray(res), precision=2)} "
            f"empirical order {order:.2f} >= 1.5")


def test_criterion_11_initial_condition():
    ok = True
    details = []
    for S in (quadratic_system(), discounted_quadratic_system(1.0)):
        rep = initial_condition_check(S, datum_sin(), 0.3,
                                      [0.2, 0.1, 0.05, 0.025], SEARCH)
        for i in range(len(rep.ts) - 1):
            ok &= rep.gaps[i + 1] <= 0.75 * rep.gaps[i] + 1e-6
        details.append(np.array2string(rep.gaps, precision=4))
    verdict(11, ok, f"gap sequences {details[0]} and {details[1]} decay "
                    "at factor <= 0.75 per halving")


def test_criterion_12_cli_determinism(tmp_path):
    cfg = {
        "system": "discounted-quadratic(0.5)",
        "datum": "sin",
        "times": [0.5],
        "space": {"min": -1.0, "max": 1.0, "points": 5},
        "segments": 8,
        "grid_points": 13,
        "ytol": 1e-6,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    code1 = cli_main(["solve", "--config", str(cfg_path), "--out", str(out1),
                      "--quiet"])
    code2 = cli_main(["solve", "--config", str(cfg_path), "--out", str(out2),
                      "--quiet"])
    ok = code1 == 0 and code2 == 0 and out1.read_bytes() == out2.read_bytes()
    verdict(12, ok, "two cmd_solve runs produced byte-identical CSV")
