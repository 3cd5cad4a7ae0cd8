"""CLI: configs, CSV outputs, exit codes, determinism."""

import json

import pytest
from conftest import disc_A

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
