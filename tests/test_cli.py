"""End-to-end drives of every subcommand through cli.main."""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import uqd.cli
from uqd.cli import main
from uqd.symmetric import WALK_N_MAX
from uqd.fullspace import CheckResult, run_verification
from uqd.povm import PovmParams
from uqd.spectral import closed_form_extreme_eigenvalues
from uqd.strategy import validity_range


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    capsys.readouterr()
    return excinfo.value.code


def test_optimize_interior(capsys):
    code, out, _ = _run(capsys, ["optimize", "--n", "2", "--eta1", "0.5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "povm"
    assert abs(payload["avg_success"] - 0.2) < 1e-15
    assert abs(payload["c1"] - 0.6) < 1e-15


def test_optimize_projective(capsys):
    code, out, _ = _run(capsys, ["optimize", "--n", "2", "--eta1", "0.9"])
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "vn1"
    assert abs(payload["avg_success"] - 0.3) < 1e-15


def test_optimize_deterministic(capsys):
    _, first, _ = _run(capsys, ["optimize", "--n", "3", "--eta1", "0.47"])
    _, second, _ = _run(capsys, ["optimize", "--n", "3", "--eta1", "0.47"])
    assert first == second


def test_optimize_flag_validation(capsys):
    assert _run_usage_error(capsys, ["optimize", "--n", "2", "--eta1", "1.5"]) == 2
    assert _run_usage_error(capsys, ["optimize", "--n", "0", "--eta1", "0.5"]) == 2
    assert _run_usage_error(capsys, ["optimize", "--n", "2"]) == 2
    assert _run_usage_error(capsys, []) == 2


def _read_sweep(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    return header, rows


def test_sweep_reproduces_strategy_table(tmp_path, capsys):
    out_path = tmp_path / "sweep2.csv"
    code, out, _ = _run(
        capsys, ["sweep", "--n", "2", "--points", "101", "--out", str(out_path)]
    )
    assert code == 0
    assert json.loads(out) == {"n": 2, "points": 101, "out": str(out_path)}

    header, rows = _read_sweep(out_path)
    assert header == "eta1,p_vn1,p_vn2,p_povm,p_opt,regime"
    assert len(rows) == 101

    low, high = validity_range(2)
    scale = 2 / 6
    for row in rows:
        eta1 = float(row[0])
        assert abs(float(row[1]) - eta1 * scale) < 1e-15
        assert abs(float(row[2]) - (1 - eta1) * scale) < 1e-15
        assert (row[3] == "") == (eta1 < low or eta1 > high)

    mid = rows[50]
    assert float(mid[0]) == 0.5
    assert abs(float(mid[4]) - 0.2) < 1e-15
    assert mid[5] == "povm"
    # the optimum dips to its minimum at the balanced prior
    assert min(float(r[4]) for r in rows) == float(mid[4])


def test_sweep_regime_switches_at_window(tmp_path, capsys):
    out_path = tmp_path / "sweep6.csv"
    code, _, _ = _run(
        capsys, ["sweep", "--n", "6", "--points", "101", "--out", str(out_path)]
    )
    assert code == 0
    _, rows = _read_sweep(out_path)
    low, high = validity_range(6)
    for row in rows:
        eta1 = float(row[0])
        expected = "vn2" if eta1 < low else "vn1" if eta1 > high else "povm"
        assert row[5] == expected


def test_sweep_rows_vary_continuously(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    _run(capsys, ["sweep", "--n", "2", "--points", "201", "--out", str(out_path)])
    _, rows = _read_sweep(out_path)
    step = 1 / 200
    bound = step * (2 / 6) * 1.01
    p_opt = [float(r[4]) for r in rows]
    assert max(abs(b - a) for a, b in zip(p_opt, p_opt[1:])) <= bound


def test_sweep_deterministic(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    _run(capsys, ["sweep", "--n", "3", "--points", "51", "--out", str(first)])
    _run(capsys, ["sweep", "--n", "3", "--points", "51", "--out", str(second)])
    assert first.read_bytes() == second.read_bytes()


def test_sweep_flag_and_path_errors(tmp_path, capsys):
    assert (
        _run_usage_error(
            capsys, ["sweep", "--n", "2", "--points", "1", "--out", "x.csv"]
        )
        == 2
    )
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    code, _, err = _run(capsys, ["sweep", "--n", "2", "--out", str(missing_dir)])
    assert code == 1
    assert "cannot write" in err


def test_spectrum_saturated_point(capsys):
    code, out, _ = _run(
        capsys, ["spectrum", "--n", "2", "--c1", "0.6", "--c2", "0.6"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert abs(payload["min_eigenvalue"]) < 1e-9
    assert sorted(b["size"] for b in payload["blocks"]) == [1, 1, 3, 3, 5, 5]
    assert json.loads(json.dumps(payload)) == payload


def test_spectrum_infeasible_point(capsys):
    code, out, _ = _run(
        capsys, ["spectrum", "--n", "2", "--c1", "0.9", "--c2", "0.9"]
    )
    assert code == 0
    assert json.loads(out)["feasible"] is False


def test_spectrum_idle_point(capsys):
    code, out, _ = _run(capsys, ["spectrum", "--n", "1", "--c1", "0", "--c2", "0"])
    assert code == 0
    payload = json.loads(out)
    eigenvalues = [e for b in payload["blocks"] for e in b["eigenvalues"]]
    assert all(abs(e - 1.0) < 1e-12 for e in eigenvalues)


def test_spectrum_large_n(capsys):
    n = 60
    code, out, _ = _run(
        capsys, ["spectrum", "--n", str(n), "--c1", "0.5", "--c2", "0.7"]
    )
    assert code == 0
    payload = json.loads(out)
    sizes = sorted(b["size"] for b in payload["blocks"])
    assert sizes == sorted([2 * l + 1 for l in range(n + 1)] * 2)
    assert sum(len(b["eigenvalues"]) for b in payload["blocks"]) == 2 * (n + 1) ** 2
    low, _ = closed_form_extreme_eigenvalues(n, PovmParams(0.5, 0.7))
    assert abs(payload["min_eigenvalue"] - low) < 1e-9
    assert payload["feasible"] is (low >= -1e-9)


def test_spectrum_flag_validation(capsys):
    code = _run_usage_error(capsys, ["spectrum", "--n", "2", "--c1", "1.5", "--c2", "0"])
    assert code == 2


def test_spectrum_beyond_cap_exits_1(capsys):
    code, out, err = _run(capsys, ["spectrum", "--n", "100000", "--c1", "0.5", "--c2", "0.5"])
    assert code == 1
    assert out == ""
    assert err.startswith("uqd: ") and "capped" in err


def test_memory_error_exits_1(capsys, monkeypatch):
    def exhausted(n, params):
        raise MemoryError("Unable to allocate 48.6 GiB")

    monkeypatch.setattr(uqd.cli, "spectrum_report", exhausted)
    code, out, err = _run(capsys, ["spectrum", "--n", "200", "--c1", "0.5", "--c2", "0.5"])
    assert code == 1
    assert out == ""
    assert err.startswith("uqd: ") and "48.6 GiB" in err
    assert "Traceback" not in err


def test_montecarlo_subcommand(capsys):
    argv = [
        "montecarlo",
        "--n",
        "2",
        "--eta1",
        "0.5",
        "--samples",
        "2000",
        "--seed",
        "7",
    ]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "povm"
    assert payload["error_events"] == 0
    assert payload["samples"] == 2000
    assert abs(payload["mean_success"] - payload["analytic"]) < 4 * payload["std_error"]

    code, again, _ = _run(capsys, argv)
    assert code == 0 and again == out


def test_montecarlo_flag_validation(capsys):
    base = ["montecarlo", "--n", "2", "--eta1", "0.5"]
    assert _run_usage_error(capsys, base + ["--samples", "500"]) == 2
    assert _run_usage_error(capsys, base + ["--seed", "-1"]) == 2


def test_verify_passes(capsys):
    code, out, _ = _run(capsys, ["verify", "--n-max", "2"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "all 22 checks passed"
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_verify_full_range(capsys):
    code, out, _ = _run(capsys, ["verify", "--n-max", "5"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 56
    assert sum(line.startswith("PASS ") for line in lines) == 55
    assert lines[-1] == "all 55 checks passed"


def test_verify_json_round_trips(capsys):
    code, out, err = _run(capsys, ["verify", "--n-max", "2", "--json"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    expected = run_verification(2)
    assert payload["checks"] == len(expected) == 22
    assert payload["all_passed"] is True
    assert payload["results"] == [
        {"name": r.name, "deviation": r.deviation, "tol": r.tol, "passed": True}
        for r in expected
    ]


def test_verify_json_failure_writes_null_and_exits_1(capsys, monkeypatch):
    results = [CheckResult("finite", 1e-16, 1e-12), CheckResult("blown", math.inf, 1e-12)]
    monkeypatch.setattr(uqd.cli, "run_verification", lambda n_max: results)
    code, out, err = _run(capsys, ["verify", "--n-max", "1", "--json"])
    assert code == 1
    assert json.loads(out) == {
        "checks": 2,
        "all_passed": False,
        "results": [
            {"name": "finite", "deviation": 1e-16, "tol": 1e-12, "passed": True},
            {"name": "blown", "deviation": None, "tol": 1e-12, "passed": False},
        ],
    }
    assert err == "uqd: first failing check: blown\n"


def test_verify_cap(capsys):
    assert _run_usage_error(capsys, ["verify", "--n-max", "9"]) == 2
    assert _run_usage_error(capsys, ["verify", "--n-max", "0"]) == 2


def test_optimize_at_huge_n_keeps_its_limit(capsys):
    # the expanded closed forms cancelled to c1 = c2 = 0.555 and 0.0 here
    code, out, _ = _run(capsys, ["optimize", "--n", str(10**16), "--eta1", "0.5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "povm"
    assert abs(payload["c1"] - 0.5) < 1e-15 and abs(payload["c2"] - 0.5) < 1e-15
    assert abs(payload["avg_success"] - 0.25) < 1e-15


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--n", "1" + "0" * 400, "--eta1", "0.5"],
        ["sweep", "--n", "1" + "0" * 400, "--points", "3", "--out", os.devnull],
        ["montecarlo", "--n", "1" + "0" * 30, "--eta1", "0.5", "--samples", "1000"],
        ["montecarlo", "--n", str(WALK_N_MAX + 1), "--eta1", "0.5", "--samples", "1000"],
    ],
)
def test_huge_n_exits_1_with_one_line(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("uqd: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _subcommands(tmp_path):
    return [
        ["optimize", "--n", "3", "--eta1", "0.47"],
        ["sweep", "--n", "3", "--points", "11", "--out", str(tmp_path / "sweep.csv")],
        ["spectrum", "--n", "3", "--c1", "0.5", "--c2", "0.6"],
        ["montecarlo", "--n", "3", "--eta1", "0.5", "--samples", "1000", "--seed", "4"],
        ["verify", "--n-max", "1"],
        ["verify", "--n-max", "1", "--json"],
    ]


def test_repeated_calls_in_one_process_print_the_same_bytes(tmp_path, capsys):
    first = [_run(capsys, argv) for argv in _subcommands(tmp_path)]
    sweep_csv = (tmp_path / "sweep.csv").read_bytes()
    # a usage error and a runtime failure leave nothing behind in the parser
    assert _run_usage_error(capsys, ["optimize", "--n", "0", "--eta1", "0.5"]) == 2
    assert _run_usage_error(capsys, ["spectrum", "--n", "2"]) == 2
    code, _, err = _run(capsys, ["spectrum", "--n", "100000", "--c1", "0.5", "--c2", "0.5"])
    assert code == 1 and err.startswith("uqd: ")
    second = [_run(capsys, argv) for argv in _subcommands(tmp_path)]
    assert [code for code, _, _ in first] == [0] * len(first)
    assert second == first
    assert (tmp_path / "sweep.csv").read_bytes() == sweep_csv


def _subprocess_env():
    src = str(pathlib.Path(uqd.cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def test_spectrum_in_process_matches_a_fresh_interpreter(capsys):
    argv = ["spectrum", "--n", "4", "--c1", "0.55", "--c2", "0.5"]
    code, out, _ = _run(capsys, argv)
    fresh = subprocess.run(
        [sys.executable, "-m", "uqd.cli", *argv],
        capture_output=True,
        env=_subprocess_env(),
        check=True,
    )
    assert code == 0
    assert fresh.stdout == out.encode()


def test_parser_is_built_once_and_not_at_import(capsys):
    probe = "import uqd.cli; print(uqd.cli._build_parser.cache_info().misses)"
    fresh = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
        check=True,
    )
    assert fresh.stdout == "0\n"

    uqd.cli._build_parser.cache_clear()
    _run(capsys, ["optimize", "--n", "2", "--eta1", "0.5"])
    _run(capsys, ["spectrum", "--n", "1", "--c1", "0.5", "--c2", "0.5"])
    info = uqd.cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
