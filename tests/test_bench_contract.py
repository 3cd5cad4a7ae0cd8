"""What the benchmark harness in perfbench/ reads off the library.

perfbench/tracing.py hooks functions by name and reads some of their
arguments by position, and perfbench/run.py stamps every record with the
CLI thread count.  These tests only read perfbench/.
"""

import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from contact_hj import (SearchParams, cli, cost_ode, datum_sin,
                        quadratic_system, solve_value)
from contact_hj.fundamental import OptimizerParams

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_hook_target_resolves(tracing):
    for name, target, _kind in tracing.HOOKS:
        owner, attr, original = tracing._resolve(target)
        assert callable(original), (name, target)


def test_thread_count_stamp_is_an_int(monkeypatch):
    monkeypatch.delenv("CONTACT_HJ_THREADS", raising=False)
    assert isinstance(cli._thread_count(0), int)
    monkeypatch.setenv("CONTACT_HJ_THREADS", "1")
    assert cli._thread_count(0) == 1


def test_sweep_takes_nodes_third_and_substeps_fifth():
    params = list(inspect.signature(cost_ode._rk4_sweep).parameters)
    assert params[2] == "nodes"
    assert params[4] == "substeps"


def test_integrate_cost_many_passes_sweep_arguments_by_position(monkeypatch):
    seen = []
    sweep = cost_ode._rk4_sweep

    def spy(*args, **kwargs):
        seen.append((args, kwargs))
        return sweep(*args, **kwargs)

    monkeypatch.setattr(cost_ode, "_rk4_sweep", spy)
    nodes = np.zeros((3, 5, 1))
    cost_ode.integrate_cost_many(quadratic_system(), 1.0, nodes, 0.0, 2)
    (args, kwargs), = seen
    assert not kwargs
    assert args[2] is nodes and args[4] == 2


def test_value_point_info_reads_the_argmin(tracing):
    # value.argmin_boundary_hits is derived from what this returns
    args = (quadratic_system(), datum_sin(), 0.5, 0.3,
            SearchParams(segments=4, grid_points=5, ytol=1e-4,
                         opt=OptimizerParams(substeps=2)))
    res = solve_value(*args)
    y_star = tracing._INFO["value.point"](args, {}, res)[4]
    assert np.shape(y_star) == (1,)
    # Hopf-Lax: the value is phi(y*) + |x - y*|^2 / (2t) at the argmin
    assert abs(np.sin(y_star[0]) + (0.3 - y_star[0]) ** 2 - res[0]) <= 1e-2


TRACED_JOBS = [
    ("fundamental", {"system": "discounted-quadratic(0.5)", "segments": 4,
                     "substeps": 1, "shooting_steps": 16,
                     "points": [{"t": 0.5, "x": [0.0], "y": [0.3], "u": 0.1}]}),
    ("solve", {"system": "quadratic", "datum": "sin", "times": [0.5],
               "space": {"min": 0.0, "max": 0.5, "points": 2},
               "segments": 4, "grid_points": 5, "ytol": 1e-3, "substeps": 1}),
    ("vanishing", {"family": "discounted", "datum": "sin", "lambdas": [0.5],
                   "times": [0.5], "space": {"min": 0.0, "max": 0.5, "points": 2},
                   "segments": 4, "grid_points": 5, "ytol": 1e-3, "substeps": 1,
                   "gap_tol": 0.99}),
]


def test_traced_cli_runs_leave_no_metric_missing(tracing, tmp_path, monkeypatch):
    # a hook that stops resolving or reading its call shows up here, not as
    # a null in a benchmark record
    monkeypatch.setenv("CONTACT_HJ_THREADS", "1")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for command, payload in TRACED_JOBS:
            cfg = tmp_path / f"{command}.json"
            cfg.write_text(json.dumps(dict(payload, out=str(tmp_path / f"{command}.csv"))))
            assert cli.main([command, "--config", str(cfg), "--quiet"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == {}
    metrics = tracer.metrics(1.0)
    assert set(metrics) == set(tracing.PER_LAYER)
    assert [m for m, rec in metrics.items() if rec["value"] is None] == []
    assert metrics["cli.jobs"]["value"] == len(TRACED_JOBS)
    assert metrics["systems.L_calls"]["value"] > 0
    # one hooked H call per characteristic stage, so a stage function bound
    # before the hooks went in would read less: the fundamental job sweeps
    # its candidates twice (the starts, then one Newton step, exact on this
    # linear shooting map), and the value jobs call no H
    steps = dict(TRACED_JOBS)["fundamental"]["shooting_steps"]
    assert metrics["systems.H_calls"]["value"] == 2 * 4 * steps
    # a shooting solve that bypasses the `cli:fundamental_shooting` hook
    # would read 0 here rather than show up as missing
    points = dict(TRACED_JOBS)["fundamental"]["points"]
    assert metrics["fundamental.shooting_solves"]["value"] == len(points)
    assert metrics["fundamental.newton_iters_per_solve"]["value"] > 0
