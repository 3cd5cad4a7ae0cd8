"""Command-line front end.

Subcommands: fundamental | solve | vanishing | check.  Each reads a JSON
config, writes CSV (comma separator, '.' decimal, LF endings, 17
significant digits) and exits with a partitioned code:

    0  success
    2  configuration error (no output written)
    3  solver failure (non-convergence, overflow, no shooting root)
    4  tolerance failure (vanishing gap above gap_tol)
    5  invariant failure (check command)

Identical config and seed produce byte-identical CSV.  `solve` and
`vanishing` tabulate through `value.solve_value_grid`; only the points of
`fundamental` may be computed by a thread pool (--threads, overridden by
CONTACT_HJ_THREADS), and its rows are still written in input order.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .cost_ode import Curve, cost_comparison, integrate_cost
from .errors import (ConfigError, ContactHJError, NonConvergence, Overflow,
                     PreconditionError)
from .fundamental import (T_MIN, OptimizerParams, fundamental_direct,
                          fundamental_exponential, fundamental_shooting,
                          herglotz_residual)
from .systems import (_BUILTINS, SampleBox, _builtin, hamiltonian_from_contact,
                      legendre_to_lagrangian, verify_conditions, with_overrides)
from .value import SearchParams, builtin_datum, solve_value_grid
# unused here; perfbench/tracing.py hooks this module's binding of the name
from .value import solve_value  # noqa: F401
from .vanishing import MONOTONE_TOL, builtin_family, run_vanishing

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_TOLERANCE = 4
EXIT_INVARIANT = 5


def _fmt(v) -> str:
    return format(float(v), ".17g")


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing config key '{key}'")
    return cfg[key]


def _number(value, key: str) -> float:
    """The one parser of config numbers: anything but a finite number is a
    ConfigError, a JSON true or false or a numeric string included."""
    if isinstance(value, (bool, str)):
        raise ConfigError(f"'{key}' must be a number, got {value!r}")
    try:
        v = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'{key}' must be a number, got {value!r}") from exc
    if not np.isfinite(v):
        raise ConfigError(f"'{key}' must be finite, got {value!r}")
    return v


def _point(value, key: str) -> np.ndarray:
    """A number or a flat list of numbers, as a 1-D float array."""
    return np.array([_number(c, key) for c in (value if isinstance(value, list) else [value])])


def _positive(value, key: str) -> float:
    v = _number(value, key)
    if not v > 0:
        raise ConfigError(f"'{key}' must be positive, got {v!r}")
    return v


def _count(value, key: str, least: int = 1) -> int:
    """An integer setting of at least `least`; a fraction such as 4.9 is refused, not truncated."""
    v = _number(value, key)
    if not v.is_integer() or v < least:
        raise ConfigError(f"'{key}' must be an integer >= {least}, got {value!r}")
    return int(v)


def _tolerance(value, key: str) -> float:
    v = _positive(value, key)
    if not v < 1.0:
        raise ConfigError(f"'{key}' must lie in (0, 1), got {v!r}")
    return v


def _nonnegative(value, key: str) -> float:
    v = _number(value, key)
    if v < 0:
        raise ConfigError(f"'{key}' must be nonnegative, got {v!r}")
    return v


def _spec_id(spec, key: str, arg: str) -> str:
    """Built-in id of a spec: a string, or an object with an 'id' and maybe `arg`."""
    if isinstance(spec, str):
        return spec
    if isinstance(spec, dict):
        base = _require(spec, "id")
        return f"{base}({_number(spec[arg], f'{key}.{arg}')})" if arg in spec else base
    raise ConfigError(f"'{key}' must be a string id or an object with an 'id'")


def _resolve_system(spec, dim: int = 1):
    """Both sides of a 'system' spec; the Lagrangian takes its metadata overrides."""
    builtin = _builtin(_spec_id(spec, "system", "lambda"))
    S = builtin.side(dim)
    if isinstance(spec, dict):
        overrides = {k: _number(spec[k], k) for k in ("K", "c0", "C_const") if k in spec}
        if overrides:
            S = with_overrides(S, **overrides)
    return S, builtin.side(dim, dual=True)


def _resolve_datum(spec):
    datum = builtin_datum(_spec_id(spec, "datum", "c"))
    for k in ("lip", "sup_abs"):
        if isinstance(spec, dict) and k in spec:
            setattr(datum, k, _nonnegative(spec[k], f"datum.{k}"))
    return datum


def _search_params(cfg: dict) -> SearchParams:
    sp = SearchParams()
    if "segments" in cfg:
        sp.segments = _count(cfg["segments"], "segments")
    if "grid_points" in cfg:
        sp.grid_points = _count(cfg["grid_points"], "grid_points")
    if "ytol" in cfg:
        sp.ytol = _tolerance(cfg["ytol"], "ytol")
    if "substeps" in cfg:
        sp.opt = OptimizerParams(substeps=_count(cfg["substeps"], "substeps"))
    return sp


def _space_lattice(cfg: dict):
    """1-D/2-D uniform lattice from {'min', 'max', 'points'} (per axis)."""
    space = _require(cfg, "space")
    if not isinstance(space, dict) or any(k not in space for k in ("min", "max", "points")):
        raise ConfigError("'space' needs 'min', 'max' and 'points'")
    lo = _point(space["min"], "space.min")
    hi = _point(space["max"], "space.max")
    count = [_count(c, "space.points") for c in _point(space["points"], "space.points")]
    if not (lo.size == hi.size == len(count)) or lo.size not in (1, 2):
        raise ConfigError("'space' axes must agree and have dimension 1 or 2")
    if np.any(hi <= lo):
        raise ConfigError("'space' requires max > min per axis")
    axes = [np.linspace(lo[i], hi[i], count[i]) for i in range(lo.size)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, lo.size)
    return axes, mesh


def _times_list(cfg: dict):
    times = _require(cfg, "times")
    if not isinstance(times, (list, tuple)) or not times:
        raise ConfigError("'times' must be a non-empty list")
    vals = [_number(v, "times") for v in times]
    if any(v <= T_MIN for v in vals):
        raise ConfigError(f"every entry of 'times' must exceed {T_MIN:g}")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ConfigError("'times' must be strictly ascending")
    return vals


def _thread_count(cli_value: int) -> int:
    env = os.environ.get("CONTACT_HJ_THREADS")
    if env is not None:
        try:
            cli_value = int(env)
        except ValueError as exc:
            raise ConfigError("CONTACT_HJ_THREADS must be an integer") from exc
    if cli_value < 0:
        raise ConfigError("--threads must be >= 0")
    return cli_value if cli_value > 0 else (os.cpu_count() or 1)


def _parallel_map(fn, items, threads: int):
    """Ordered map, optionally via a thread pool (results keyed by index)."""
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fundamental(cfg: dict, out: str, threads: int, quiet: bool) -> int:
    system_spec = _require(cfg, "system")
    raw_points = _require(cfg, "points")
    if not isinstance(raw_points, list) or not raw_points:
        raise ConfigError("'points' must be a non-empty list")
    segments = _count(cfg.get("segments", 64), "segments", least=4)  # herglotz_residual's stencil
    substeps = _count(cfg.get("substeps", 4), "substeps")
    steps = _count(cfg.get("shooting_steps", 256), "shooting_steps")

    parsed = []
    dim = None
    for i, rec in enumerate(raw_points):
        if not isinstance(rec, dict):
            raise ConfigError(f"points[{i}] must be an object")
        t = _number(rec.get("t"), f"points[{i}].t")
        if t <= T_MIN:
            raise ConfigError(f"points[{i}].t must be a number above {T_MIN:g}")
        x = _point(_require(rec, "x"), f"points[{i}].x")
        y = _point(_require(rec, "y"), f"points[{i}].y")
        u = _number(_require(rec, "u"), f"points[{i}].u")
        if x.size != y.size or x.size not in (1, 2):
            raise ConfigError(f"points[{i}] endpoints must share dimension 1 or 2")
        if dim is None:
            dim = x.size
        elif dim != x.size:
            raise ConfigError("all points must share one spatial dimension")
        parsed.append((t, x, y, u))

    S, HS = _resolve_system(system_spec, dim)
    opt = OptimizerParams(substeps=substeps)

    def solve_point(rec):
        t, x, y, u = rec
        direct = fundamental_direct(S, t, x, y, u, segments=segments, opt=opt)
        shot = fundamental_shooting(HS, t, x, y, u, steps=steps, segments=segments)
        resid = herglotz_residual(S, direct.minimizer, direct.trajectory)
        return direct, shot, resid

    results = _parallel_map(solve_point, parsed, threads)

    header = (["t"] + [f"x{i}" for i in range(dim)] + [f"y{i}" for i in range(dim)]
              + ["u", "h", "A_direct", "A_shooting", "herglotz_residual", "iterations"])
    rows = []
    for (t, x, y, u), (direct, shot, resid) in zip(parsed, results):
        rows.append([_fmt(t)] + [_fmt(c) for c in x] + [_fmt(c) for c in y]
                    + [_fmt(u), _fmt(direct.h), _fmt(direct.A), _fmt(shot.A),
                       _fmt(resid), str(direct.iterations)])
    _write_csv(out, header, rows)
    if not quiet:
        print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def cmd_solve(cfg: dict, out: str, threads: int, quiet: bool) -> int:
    axes, points = _space_lattice(cfg)
    S, _ = _resolve_system(_require(cfg, "system"), dim=points.shape[1])
    datum = _resolve_datum(_require(cfg, "datum"))
    times = _times_list(cfg)
    search = _search_params(cfg)

    start = time.perf_counter()
    grid = solve_value_grid(S, datum, times, points, search)
    elapsed = time.perf_counter() - start

    dim = S.dim
    header = (["t"] + [f"x{i}" for i in range(dim)] + ["u_value"]
              + [f"y_star{i}" for i in range(dim)] + ["mu_t"])
    rows = []
    for a, t in enumerate(times):
        for b, x in enumerate(points):
            rows.append([_fmt(t)] + [_fmt(c) for c in x] + [_fmt(grid.values[a, b])]
                        + [_fmt(c) for c in grid.argmins[a, b]]
                        + [_fmt(grid.radius_used[a])])
    _write_csv(out, header, rows)
    sidecar = {
        "config": cfg,
        "rows": len(rows),
        "elapsed_seconds": elapsed,
        "version": __version__,
    }
    with open(out + ".meta.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not quiet:
        print(f"wrote {len(rows)} rows to {out} ({elapsed:.2f}s)")
    return EXIT_OK


def cmd_vanishing(cfg: dict, out: str, threads: int, quiet: bool) -> int:
    _, points = _space_lattice(cfg)
    family = builtin_family(_require(cfg, "family"), dim=points.shape[1])
    datum = _resolve_datum(_require(cfg, "datum"))
    lambdas = _require(cfg, "lambdas")
    if not isinstance(lambdas, list) or not lambdas:
        raise ConfigError("'lambdas' must be a non-empty list")
    lambdas = [_number(v, "lambdas") for v in lambdas]
    if any(v <= 0 for v in lambdas) or any(b >= a for a, b in zip(lambdas, lambdas[1:])):
        raise ConfigError("'lambdas' must be positive and strictly descending")
    times = _times_list(cfg)
    gap_tol = _number(cfg.get("gap_tol", 0.05), "gap_tol")
    if not 0.0 <= gap_tol < 1.0:
        raise ConfigError(f"'gap_tol' must lie in [0, 1), got {gap_tol!r}")
    search = _search_params(cfg)

    report = run_vanishing(family, datum, lambdas, times, points, search)

    header = ["lambda", "sup_gap", "bound_check", "monotone_flag"]
    rows = []
    for i, lam in enumerate(report.lambdas):
        ok = int(bool(report.bound_passed[i].all()))
        mono = 1 if i == 0 or report.gaps[i] <= report.gaps[i - 1] + MONOTONE_TOL else 0
        rows.append([_fmt(lam), _fmt(report.gaps[i]), str(ok), str(mono)])
    _write_csv(out, header, rows)
    if not quiet:
        print(f"final sup-gap {report.final_gap:.6g} (tolerance {gap_tol:g})")
    if report.final_gap > gap_tol:
        if not quiet:
            print("gap tolerance FAILED", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_check(cfg: dict, out: str, threads: int, quiet: bool) -> int:
    seed = _count(cfg.get("seed", 0), "seed", least=0)
    samples = _count(cfg.get("samples", 256), "samples")
    half = _positive(cfg.get("box_half_width", 3.0), "box_half_width")
    specs = cfg.get("systems", [name + "(1.0)" * (arity == 1)
                                for name, (_, arity) in _BUILTINS.items()])
    if "system" in cfg:
        specs = [cfg["system"]]
    if not isinstance(specs, list) or not specs:
        raise ConfigError("'systems' must be a non-empty list")

    lines = []
    failed = False

    def record(ok: bool, label: str, detail: str = ""):
        nonlocal failed
        failed = failed or not ok
        tagged = f"{'PASS' if ok else 'FAIL'} {label}" + (f" ({detail})" if detail else "")
        lines.append(tagged)

    rng = np.random.default_rng(seed)
    for spec in specs:
        S, _ = _resolve_system(spec)
        name = S.name or str(spec)
        box = SampleBox.cube(S.dim, half)
        rep = verify_conditions(S, box, samples=samples, seed=seed)
        record(rep.passed, f"conditions[{name}]",
               "; ".join(rep.violations) if rep.violations else "all margins ok")

        # convex duality round trip on a few sampled states
        Hs = hamiltonian_from_contact(S)
        worst = 0.0
        for _ in range(5):
            x = rng.uniform(-half, half, S.dim)
            r = float(rng.uniform(-half, half))
            v = rng.uniform(-2.0, 2.0, S.dim)
            Lval = float(S.L(x, r, v))
            Lback, _ = legendre_to_lagrangian(Hs, x, r, v)
            worst = max(worst, abs(Lback - Lval))
        record(worst <= 1e-8, f"legendre-involution[{name}]", f"max gap {worst:.3g}")

        # cost ODE order: integrate a seeded curve at m and 2m substeps
        nodes = np.linspace(0.0, 1.0, 9)[:, None] * np.ones(S.dim)
        nodes = nodes + 0.1 * rng.standard_normal(nodes.shape)
        nodes[0] = 0.0
        curve = Curve(1.0, nodes)
        ref = integrate_cost(S, curve, 0.3, 32).final
        e1 = abs(integrate_cost(S, curve, 0.3, 2).final - ref)
        e2 = abs(integrate_cost(S, curve, 0.3, 4).final - ref)
        ok = e1 < 1e-12 or (e2 < e1 and (e1 / max(e2, 1e-300) > 6.0 or e1 < 1e-10))
        record(ok, f"integrator-order[{name}]", f"errors {e1:.3g} -> {e2:.3g}")

        # exponential-weight identity along seeded curves
        worst = 0.0
        for _ in range(5):
            pert = nodes + 0.2 * rng.standard_normal(nodes.shape)
            c = Curve(1.0, pert)
            direct = integrate_cost(S, c, 0.7, 16).final
            expo = fundamental_exponential(S, c, 0.7, 16)
            worst = max(worst, abs(expo - direct) / max(1.0, abs(direct)))
        record(worst <= 1e-7, f"exponential-identity[{name}]", f"max rel gap {worst:.3g}")

        # ordering in the initial value
        try:
            cost_comparison(S, curve, -0.5, 0.5)
            record(True, f"cost-ordering[{name}]")
        except ContactHJError as exc:
            record(False, f"cost-ordering[{name}]", str(exc))

    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    if not quiet:
        sys.stdout.write(text)
    elif failed:
        sys.stdout.write("".join(line + "\n" for line in lines if line.startswith("FAIL")))
    return EXIT_INVARIANT if failed else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contact-hj",
        description="Fundamental and viscosity solutions of contact "
                    "Hamilton-Jacobi equations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in [
        ("fundamental", "tabulate fundamental solutions for (t, x, y, u) points"),
        ("solve", "tabulate the value function on a (times x space) grid"),
        ("vanishing", "run a vanishing contact-structure experiment"),
        ("check", "run the built-in verification suite"),
    ]:
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output path (overrides config)")
        p.add_argument("--threads", type=int, default=0,
                       help="worker threads for 'fundamental' points; 0 = auto "
                            "(CONTACT_HJ_THREADS overrides)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


_COMMANDS = {
    "fundamental": cmd_fundamental,
    "solve": cmd_solve,
    "vanishing": cmd_vanishing,
    "check": cmd_check,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        out = cfg.get("out") if args.out is None else args.out
        if (out is not None or args.command != "check") and not (isinstance(out, str) and out):
            raise ConfigError(f"'out' (or --out) must be a non-empty path, got {out!r}")
        threads = _thread_count(args.threads)
        return _COMMANDS[args.command](cfg, out, threads, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonConvergence, Overflow) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except PreconditionError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
