"""CLI: configs, CSV outputs, exit codes, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import disc_A

from contact_hj import cli
from contact_hj.cli import main

pytestmark = pytest.mark.usefixtures("clean_thread_env")


@pytest.fixture
def clean_thread_env(monkeypatch):
    monkeypatch.delenv("CONTACT_HJ_THREADS", raising=False)


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    lines = path.read_text().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:] if ln]
    return header, rows


# ---------------------------------------------------------------------------
# fundamental
# ---------------------------------------------------------------------------

# a fresh interpreter: import the CLI, run the given jobs, report their
# exit codes and the scipy modules they loaded
FRESH_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import contact_hj.cli as cli
jobs = json.loads(sys.argv[2])
rcs = [cli.main([cmd, "--config", cfg, "--out", out, "--quiet"]) for cmd, cfg, out in jobs]
print(json.dumps([rcs, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_fundamental_leaves_scipy_stats_unloaded(tmp_path):
    # scipy is not a dependency: no command loads any scipy module, the
    # `check` command's Latin-hypercube condition audit included
    src = Path(__file__).resolve().parent.parent / "src"
    tiny = {
        "fundamental": {"system": "discounted-quadratic(1.0)", "segments": 8,
                        "points": [{"t": 1.0, "x": [0.0], "y": [1.0], "u": 0.0}]},
        "solve": dict(SOLVE_PAYLOAD, times=[0.3], space={"min": 0.0, "max": 1.0, "points": 1},
                      grid_points=5, ytol=1e-3),
        "vanishing": dict(VANISH_PAYLOAD, times=[0.3],
                          space={"min": 0.0, "max": 1.0, "points": 1}, grid_points=5),
        "check": {"samples": 8, "systems": ["quadratic"]},
    }
    jobs = [(cmd, write_config(tmp_path / f"{cmd}.json", cfg), str(tmp_path / f"{cmd}.csv"))
            for cmd, cfg in tiny.items()]
    done = subprocess.run([sys.executable, "-c", FRESH_RUN, str(src), json.dumps(jobs)],
                          capture_output=True, text=True, timeout=120, check=True)
    rcs, scipy_modules = json.loads(done.stdout.splitlines()[-1])
    assert rcs == [0, 0, 0, 0]
    assert scipy_modules == []  # no scipy module loaded


def test_fundamental_discounted_rows(tmp_path):
    out = tmp_path / "fund.csv"
    cfg = write_config(tmp_path / "cfg.json", {
        "system": "discounted-quadratic(1.0)",
        "points": [
            {"t": 1.0, "x": [0.0], "y": [1.0], "u": 0.0},
            {"t": 1.0, "x": [0.5], "y": [0.5], "u": 0.0},
        ],
        "segments": 32,
        "shooting_steps": 128,
        "out": str(out),
    })
    assert main(["fundamental", "--config", cfg, "--quiet"]) == 0
    header, rows = read_rows(out)
    assert header == ["t", "x0", "y0", "u", "h", "A_direct", "A_shooting",
                      "herglotz_residual", "iterations"]
    a_direct = float(rows[0]["A_direct"])
    a_shoot = float(rows[0]["A_shooting"])
    target = disc_A(1.0, 1.0, 1.0, 0.0)
    assert abs(a_direct - target) <= 1e-3
    assert abs(a_shoot - target) <= 1e-4
    assert abs(float(rows[1]["A_direct"])) <= 1e-9  # rest point
    assert abs(float(rows[1]["A_shooting"])) <= 1e-9


def test_fundamental_rejects_negative_time(tmp_path):
    out = tmp_path / "fund.csv"
    cfg = write_config(tmp_path / "cfg.json", {
        "system": "quadratic",
        "points": [{"t": -1.0, "x": [0.0], "y": [1.0], "u": 0.0}],
        "out": str(out),
    })
    assert main(["fundamental", "--config", cfg, "--quiet"]) == 2
    assert not out.exists()


def test_fundamental_rejects_missing_keys(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"system": "quadratic"})
    assert main(["fundamental", "--config", cfg, "--quiet"]) == 2


def test_unknown_system_id_is_config_error(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "system": "pendulum",
        "points": [{"t": 1.0, "x": [0.0], "y": [1.0], "u": 0.0}],
        "out": str(tmp_path / "o.csv"),
    })
    assert main(["fundamental", "--config", cfg, "--quiet"]) == 2


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "absent.json")]) == 2


def test_one_parser_serves_every_call(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    cfg = write_config(tmp_path / "cfg.json", {"system": "quadratic"})
    usage = []
    for _ in range(2):
        assert main(["fundamental", "--config", cfg, "--quiet"]) == 2
        with pytest.raises(SystemExit) as exc:
            main(["solve"])
        assert exc.value.code == 2
        usage.append(capsys.readouterr().err)
    assert usage[0] == usage[1] and "--config" in usage[0]


def test_solver_blowup_exits_with_code_3(tmp_path):
    # quartic action over a huge displacement overflows the cost guard
    out = tmp_path / "fund.csv"
    cfg = write_config(tmp_path / "cfg.json", {
        "system": "quartic",
        "points": [{"t": 1.0, "x": [0.0], "y": [1e4], "u": 0.0}],
        "segments": 16,
        "out": str(out),
    })
    assert main(["fundamental", "--config", cfg, "--quiet"]) == 3


def test_solve_2d_lattice(tmp_path):
    out = tmp_path / "solve2d.csv"
    cfg = write_config(tmp_path / "cfg.json", {
        "system": "quadratic",
        "datum": "cos-bump",
        "times": [0.5],
        "space": {"min": [-0.5, -0.5], "max": [0.5, 0.5], "points": [3, 3]},
        "segments": 4,
        "grid_points": 7,
        "out": str(out),
    })
    assert main(["solve", "--config", cfg, "--quiet"]) == 0
    header, rows = read_rows(out)
    assert header == ["t", "x0", "x1", "u_value", "y_star0", "y_star1", "mu_t"]
    assert len(rows) == 9


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

SOLVE_PAYLOAD = {
    "system": "quadratic",
    "datum": "sin",
    "times": [0.5],
    "space": {"min": -1.0, "max": 1.0, "points": 5},
    "segments": 8,
    "grid_points": 13,
    "ytol": 1e-6,
}


def test_solve_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "solve.csv"
    cfg = write_config(tmp_path / "cfg.json", dict(SOLVE_PAYLOAD, out=str(out)))
    assert main(["solve", "--config", cfg, "--quiet"]) == 0
    header, rows = read_rows(out)
    assert header == ["t", "x0", "u_value", "y_star0", "mu_t"]
    assert len(rows) == 5
    meta = json.loads((tmp_path / "solve.csv.meta.json").read_text())
    assert meta["config"]["system"] == "quadratic"
    assert meta["rows"] == 5
    # mu_t column: K=0 quadratic with lip 1 gives radius 2t = 1.0
    assert float(rows[0]["mu_t"]) == 1.0


def test_solve_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg = write_config(tmp_path / "cfg.json", dict(SOLVE_PAYLOAD))
    assert main(["solve", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


THREADED_FUNDAMENTAL_PAYLOAD = {
    "system": "discounted-quadratic(0.5)",
    "points": [{"t": t, "x": [0.0], "y": [y], "u": 0.2}
               for t, y in [(0.5, 0.3), (1.0, -0.8), (1.5, 1.2)]],
    "segments": 16,
    "shooting_steps": 64,
}


# `fundamental` is the thread pool's user; `solve` tabulates serially
@pytest.mark.parametrize("command, payload", [
    ("solve", SOLVE_PAYLOAD),
    ("fundamental", THREADED_FUNDAMENTAL_PAYLOAD),
], ids=["solve", "fundamental"])
def test_solve_threads_do_not_change_output(tmp_path, command, payload):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg = write_config(tmp_path / "cfg.json", dict(payload))
    assert main([command, "--config", cfg, "--out", str(out1),
                 "--threads", "1", "--quiet"]) == 0
    assert main([command, "--config", cfg, "--out", str(out2),
                 "--threads", "3", "--quiet"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_solve_env_thread_override(tmp_path, monkeypatch):
    out = tmp_path / "a.csv"
    cfg = write_config(tmp_path / "cfg.json", dict(SOLVE_PAYLOAD))
    monkeypatch.setenv("CONTACT_HJ_THREADS", "2")
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    monkeypatch.setenv("CONTACT_HJ_THREADS", "zebra")
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 2


def test_solve_rejects_bad_space(tmp_path):
    payload = dict(SOLVE_PAYLOAD, space={"min": 1.0, "max": -1.0, "points": 5},
                   out=str(tmp_path / "o.csv"))
    cfg = write_config(tmp_path / "cfg.json", payload)
    assert main(["solve", "--config", cfg, "--quiet"]) == 2


def test_solve_rejects_bad_tolerance(tmp_path):
    payload = dict(SOLVE_PAYLOAD, ytol=2.0, out=str(tmp_path / "o.csv"))
    cfg = write_config(tmp_path / "cfg.json", payload)
    assert main(["solve", "--config", cfg, "--quiet"]) == 2


@pytest.mark.parametrize("command, overrides", [
    ("solve", {"segments": 4.9}),
    ("solve", {"grid_points": 0.5}),
    ("solve", {"substeps": 2.5}),
    ("solve", {"space": {"min": -1.0, "max": 1.0, "points": 2.5}}),
    ("fundamental", {"segments": 16.5}),
    ("fundamental", {"shooting_steps": 64.2}),
], ids=["segments", "grid_points", "substeps", "space.points",
        "fundamental-segments", "shooting_steps"])
def test_fractional_integer_keys_are_config_errors(tmp_path, command, overrides):
    out = tmp_path / "o.csv"
    base = dict(SOLVE_PAYLOAD) if command == "solve" else {
        "system": "quadratic", "points": [{"t": 1.0, "x": [0.0], "y": [1.0], "u": 0.0}]}
    cfg = write_config(tmp_path / "cfg.json", dict(base, out=str(out), **overrides))
    assert main([command, "--config", cfg, "--quiet"]) == 2
    assert not out.exists()
    # an integral float is still accepted as its integer
    if command == "solve" and "segments" in overrides:
        cfg = write_config(tmp_path / "cfg.json", dict(base, out=str(out), segments=8.0))
        assert main([command, "--config", cfg, "--quiet"]) == 0


FUND_PAYLOAD = {"system": "quadratic", "segments": 8, "shooting_steps": 64,
                "points": [{"t": 1.0, "x": [0.0], "y": [1.0], "u": 0.0}]}


def _point(**fields):
    return {"points": [dict(FUND_PAYLOAD["points"][0], **fields)]}


@pytest.mark.parametrize("command, overrides", [
    # an argument on an id that takes none
    ("fundamental", {"system": {"id": "quadratic", "lambda": 2.0}}),
    ("fundamental", {"system": "trig-contact(7)"}),
    ("solve", {"system": {"id": "quadratic", "lambda": 2.0}}),
    ("solve", {"datum": "sin(2)"}),
    ("solve", {"datum": {"id": "sin", "c": 2.0}}),
    # values that are not numbers
    ("fundamental", {"system": {"id": "discounted-quadratic", "lambda": "fast"}}),
    ("fundamental", {"system": {"id": "quadratic", "K": "big"}}),
    ("fundamental", _point(t="soon")),
    ("fundamental", _point(x=["left"])),
    ("fundamental", _point(y=[[1.0]])),
    ("fundamental", _point(u="zero")),
    ("solve", {"times": ["soon"]}),
    ("solve", {"datum": {"id": "constant", "c": "half"}}),
    ("solve", {"space": {"min": "a", "max": 1.0, "points": 5}}),
    ("solve", {"space": [-1.0, 1.0, 5]}),
    ("solve", {"system": {"id": 5}}),
    ("vanishing", {"lambdas": [0.5, "small"]}),
    ("vanishing", {"gap_tol": "loose"}),
    ("vanishing", {"times": [float("inf")]}),
    ("vanishing", {"family": 5}),
    ("vanishing", {"family": "discounted(3)"}),
    ("check", {"seed": "lucky"}),
    ("check", {"seed": -1}),
    # JSON booleans are not numbers
    ("solve", {"substeps": True}),
    ("solve", {"times": [True]}),
    ("fundamental", {"system": {"id": "discounted-quadratic", "lambda": True}}),
    ("fundamental", _point(u=False)),
    ("check", {"seed": True}),
    # nor are JSON strings, numeric or not
    ("solve", {"times": ["0.5"]}),
    ("solve", {"segments": "8"}),
    ("solve", {"space": {"min": "0.2", "max": 1.0, "points": 5}}),
], ids=["fundamental-lambda-on-quadratic", "fundamental-trig-contact(7)",
        "solve-lambda-on-quadratic", "solve-sin(2)", "solve-c-on-sin",
        "lambda", "K", "t", "x", "nested-y", "u", "times", "datum.c", "space.min",
        "space-list", "system-id-number", "lambdas", "gap_tol", "infinite-time",
        "family-id-number", "family-discounted(3)", "seed", "negative-seed",
        "bool-substeps", "bool-times", "bool-lambda", "bool-u", "bool-seed",
        "string-times", "string-segments", "string-space.min"])
def test_bad_config_values_are_config_errors(tmp_path, capsys, command, overrides):
    out = tmp_path / "o.csv"
    base = {"fundamental": FUND_PAYLOAD, "solve": SOLVE_PAYLOAD,
            "vanishing": VANISH_PAYLOAD, "check": {"samples": 8}}[command]
    cfg = write_config(tmp_path / "cfg.json", dict(base, out=str(out), **overrides))
    assert main([command, "--config", cfg, "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("command, overrides", [
    ("fundamental", {"system": "discounted-quadratic(nan)"}),
    ("fundamental", {"system": "discounted-quadratic(inf)"}),
    ("fundamental", {"system": "discounted-quadratic(-inf)"}),
    ("solve", {"datum": "cos-bump(0)"}),
    ("solve", {"datum": "cos-bump(-2)"}),
    ("solve", {"datum": "cos-bump(inf)"}),
    ("solve", {"datum": "constant(nan)"}),
    ("solve", {"datum": {"id": "cos-bump", "c": 0.0}}),
], ids=["lambda-nan", "lambda-inf", "lambda-minus-inf", "cos-bump-zero", "cos-bump-negative",
        "cos-bump-inf", "constant-nan", "cos-bump-c-zero"])
def test_non_finite_or_empty_id_arguments_are_config_errors(tmp_path, capsys, command,
                                                           overrides):
    out = tmp_path / "o.csv"
    base = {"fundamental": FUND_PAYLOAD, "solve": SOLVE_PAYLOAD}[command]
    cfg = write_config(tmp_path / "cfg.json", dict(base, out=str(out), **overrides))
    assert main([command, "--config", cfg, "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("command, out", [
    ("solve", 1), ("solve", ""), ("solve", ["o.csv"]), ("fundamental", ""),
    ("vanishing", 0), ("check", 1), ("check", ""),
], ids=["solve-fd-1", "solve-empty", "solve-list", "fundamental-empty", "vanishing-zero",
        "check-number", "check-empty"])
def test_out_must_be_a_non_empty_path(tmp_path, capfd, monkeypatch, command, out):
    # refused before any solve: nothing lands in the working directory or on fd 1
    monkeypatch.chdir(tmp_path)
    base = {"fundamental": FUND_PAYLOAD, "solve": SOLVE_PAYLOAD,
            "vanishing": VANISH_PAYLOAD, "check": {"samples": 8}}[command]
    cfg = write_config(tmp_path / "cfg.json", dict(base, out=out))
    assert main([command, "--config", cfg, "--quiet"]) == 2
    captured = capfd.readouterr()
    assert captured.err.startswith("config error: ") and captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_an_empty_out_flag_is_refused_over_the_config_path(tmp_path, capsys):
    out = tmp_path / "o.csv"
    cfg = write_config(tmp_path / "cfg.json", dict(SOLVE_PAYLOAD, out=str(out)))
    assert main(["solve", "--config", cfg, "--out", "", "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def test_fundamental_refuses_too_few_segments_before_solving(tmp_path, capsys, monkeypatch):
    # herglotz_residual needs 4 segments; the config is refused before any solve
    def refuse(*args, **kwargs):
        raise AssertionError("a solve ran on a refused config")

    monkeypatch.setattr(cli, "fundamental_direct", refuse)
    monkeypatch.setattr(cli, "fundamental_shooting", refuse)
    out = tmp_path / "o.csv"
    cfg = write_config(tmp_path / "cfg.json", dict(FUND_PAYLOAD, segments=3, out=str(out)))
    assert main(["fundamental", "--config", cfg, "--quiet"]) == 2
    assert "'segments' must be an integer >= 4" in capsys.readouterr().err
    assert not out.exists()


def test_family_id_with_an_argument_is_refused_as_taking_none(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json",
                       dict(VANISH_PAYLOAD, family="discounted(3)",
                            out=str(tmp_path / "o.csv")))
    assert main(["vanishing", "--config", cfg, "--quiet"]) == 2
    assert "discounted takes no argument" in capsys.readouterr().err


def test_solve_accepts_datum_record_with_overrides(tmp_path):
    out = tmp_path / "o.csv"
    payload = dict(SOLVE_PAYLOAD,
                   datum={"id": "constant", "c": 0.5, "lip": 0, "sup_abs": 0.5},
                   out=str(out))
    cfg = write_config(tmp_path / "cfg.json", payload)
    assert main(["solve", "--config", cfg, "--quiet"]) == 0
    _, rows = read_rows(out)
    assert all(abs(float(r["u_value"]) - 0.5) <= 1e-9 for r in rows)


# ---------------------------------------------------------------------------
# vanishing
# ---------------------------------------------------------------------------

VANISH_PAYLOAD = {
    "family": "discounted",
    "datum": "sin",
    "lambdas": [0.5, 0.25],
    "times": [0.5],
    "space": {"min": -1.0, "max": 1.0, "points": 3},
    "segments": 8,
    "grid_points": 13,
    "gap_tol": 0.5,
}


def test_vanishing_pass(tmp_path):
    out = tmp_path / "van.csv"
    cfg = write_config(tmp_path / "cfg.json", dict(VANISH_PAYLOAD, out=str(out)))
    assert main(["vanishing", "--config", cfg, "--quiet"]) == 0
    header, rows = read_rows(out)
    assert header == ["lambda", "sup_gap", "bound_check", "monotone_flag"]
    assert len(rows) == 2
    assert rows[0]["bound_check"] == "1"
    assert rows[1]["monotone_flag"] == "1"
    assert float(rows[1]["sup_gap"]) <= float(rows[0]["sup_gap"]) + 1e-6


def test_vanishing_on_a_2d_lattice(tmp_path):
    # the family is built at the lattice's dimension
    out = tmp_path / "van.csv"
    space = {"min": [0, 0], "max": [0.5, 0.5], "points": [2, 2]}
    cfg = write_config(tmp_path / "cfg.json", dict(VANISH_PAYLOAD, space=space, out=str(out)))
    assert main(["vanishing", "--config", cfg, "--quiet"]) == 0
    header, rows = read_rows(out)
    assert [float(r["lambda"]) for r in rows] == VANISH_PAYLOAD["lambdas"]
    assert all(r["bound_check"] == "1" for r in rows)


def test_vanishing_zero_tolerance_fails_with_code_4(tmp_path):
    out = tmp_path / "van.csv"
    cfg = write_config(tmp_path / "cfg.json",
                       dict(VANISH_PAYLOAD, gap_tol=0, out=str(out)))
    assert main(["vanishing", "--config", cfg, "--quiet"]) == 4
    assert out.exists()  # tolerance failures still report their table


def test_vanishing_rejects_ascending_lambdas(tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       dict(VANISH_PAYLOAD, lambdas=[0.25, 0.5],
                            out=str(tmp_path / "o.csv")))
    assert main(["vanishing", "--config", cfg, "--quiet"]) == 2


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_builtins_pass(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {"seed": 0, "samples": 64})
    assert main(["check", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "PASS conditions[quadratic]" in text
    assert "FAIL" not in text


def test_bare_check_audits_every_registered_system(tmp_path, capsys, monkeypatch):
    # the default list is read off the registry; an arity-1 id gets "(1.0)"
    from dataclasses import replace

    from contact_hj import systems
    monkeypatch.setitem(systems._BUILTINS, "rated", (
        lambda lam: replace(systems._discounted(lam), name=f"rated({lam:g})"), 1))
    cfg = write_config(tmp_path / "cfg.json", {"seed": 0, "samples": 8})
    assert main(["check", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "PASS conditions[rated(1)]" in text
    assert "PASS conditions[discounted-quadratic(1)]" in text


def test_check_flags_misdeclared_K(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {
        "seed": 0, "samples": 64,
        "system": {"id": "discounted-quadratic", "lambda": 2.0, "K": 1.0},
    })
    assert main(["check", "--config", cfg]) == 5
    assert "FAIL conditions" in capsys.readouterr().out


def test_check_deterministic_report(tmp_path):
    out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    cfg = write_config(tmp_path / "cfg.json",
                       {"seed": 7, "samples": 64, "systems": ["trig-contact"]})
    assert main(["check", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["check", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_float_format_is_17_significant_digits(tmp_path):
    out = tmp_path / "fund.csv"
    cfg = write_config(tmp_path / "cfg.json", {
        "system": "quadratic",
        "points": [{"t": 1.0, "x": [0.0], "y": [1.0], "u": 0.3}],
        "segments": 8,
        "shooting_steps": 64,
        "out": str(out),
    })
    assert main(["fundamental", "--config", cfg, "--quiet"]) == 0
    _, rows = read_rows(out)
    # 0.3 round-trips through %.17g with all digits
    assert rows[0]["u"] == "0.29999999999999999"
    assert out.read_bytes().endswith(b"\n")
    assert b"\r" not in out.read_bytes()
