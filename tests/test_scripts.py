"""The two scripts, run through their `main` as their command lines would."""

import csv
import json
import importlib.util
import pathlib
import re

import numpy as np
import pytest

import uqd.spectral
from uqd.povm import PovmParams
from uqd.spectral import constraint_c2, least_eigenvalues, spectrum_report
from uqd.strategy import avg_success_povm, avg_success_projective, validity_range

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


feasibility_scan = _load("feasibility_scan")
make_figure_data = _load("make_figure_data")


@pytest.mark.parametrize("n, grid", [(2, 9), (5, 7)])
def test_feasibility_scan_rows(n, grid, tmp_path, capsys):
    path = tmp_path / "scan" / "feasibility.csv"
    assert feasibility_scan.main(["--n", str(n), "--grid", str(grid), "--out", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"wrote {path} ({grid}x{grid} grid, n={n})"

    with path.open(newline="", encoding="utf-8") as handle:
        header, *rows = list(csv.reader(handle))
    assert header == ["c1", "c2", "min_eigenvalue", "feasible"]
    assert len(rows) == grid * grid
    values = np.linspace(0.0, 1.0, grid)
    for i, (c1_text, c2_text, least_text, flag) in enumerate(rows):
        c1, c2, least = float(c1_text), float(c2_text), float(least_text)
        assert (c1, c2) == (values[i // grid], values[i % grid])
        for value, text in ((c1, c1_text), (c2, c2_text), (least, least_text)):
            assert text == f"{value:.17g}"
        report = spectrum_report(n, PovmParams(c1, c2))
        assert abs(least - report.min_eigenvalue) <= 1e-12
        assert flag == str(int(report.feasible))

    assert len(out) == 2
    match = re.fullmatch(
        r"largest \|min eigenvalue\| along the constraint curve: (\d\.\d{3}e[+-]\d{2})", out[1]
    )
    assert match and float(match[1]) <= 1e-9
    curve = [constraint_c2(c1, n) for c1 in values.tolist()]
    on_curve = np.abs(least_eigenvalues(n, values, curve)[0])
    assert match[1] == f"{on_curve.max():.3e}"
    for c1, c2, least in zip(values.tolist(), curve, on_curve):
        assert abs(least - abs(spectrum_report(n, PovmParams(c1, c2)).min_eigenvalue)) <= 1e-12


def test_feasibility_scan_usage_errors(tmp_path):
    for argv in (["--n", "0"], ["--grid", "1"]):
        with pytest.raises(SystemExit) as exc:
            feasibility_scan.main([*argv, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2


def _expect_clean_failure(argv, capsys, message):
    assert feasibility_scan.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"feasibility_scan: {message}")


def test_feasibility_scan_exits_1_beyond_the_cap(tmp_path, capsys):
    path = tmp_path / "big.csv"
    argv = ["--n", str(uqd.spectral.SECTOR_N_MAX + 1), "--grid", "3", "--out", str(path)]
    _expect_clean_failure(argv, capsys, "sector blocks are capped")
    assert not path.exists()


def test_feasibility_scan_exits_1_on_failed_certificate(tmp_path, capsys, monkeypatch):
    original = uqd.spectral._end_block_minimum
    monkeypatch.setattr(
        uqd.spectral, "_end_block_minimum", lambda *args: original(*args) + 1e-6
    )
    path = tmp_path / "scan.csv"
    argv = ["--n", "3", "--grid", "5", "--out", str(path)]
    _expect_clean_failure(argv, capsys, "least-eigenvalue certificate failed at n=3")
    assert not path.exists()


def test_feasibility_scan_exits_1_out_of_memory(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError("cannot allocate")

    monkeypatch.setattr(feasibility_scan, "least_eigenvalues", exhausted)
    argv = ["--n", "3", "--grid", "5", "--out", str(tmp_path / "scan.csv")]
    _expect_clean_failure(argv, capsys, "out of memory: cannot allocate")


def test_make_figure_data(tmp_path, capsys):
    out_dir = tmp_path / "figures"
    assert make_figure_data.main(["--sizes", "2", "--points", "11", "--out-dir", str(out_dir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    low, high = validity_range(2)
    summary = f"n=2: window ({low:.6f}, {high:.6f}), flat-prior optimum {avg_success_povm(2, 0.5):.6f}"
    assert len(lines) == 2 and lines[1] == summary
    assert json.loads(lines[0]) == {"n": 2, "points": 11, "out": str(out_dir / "sweep_n2.csv")}
    assert [path.name for path in out_dir.iterdir()] == ["sweep_n2.csv"]
    with (out_dir / "sweep_n2.csv").open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert list(rows[0]) == ["eta1", "p_vn1", "p_vn2", "p_povm", "p_opt", "regime"]
    assert [float(row["eta1"]) for row in rows] == [i / 10 for i in range(11)]
    for row in rows:
        eta1 = float(row["eta1"])
        candidates = [float(row["p_vn1"]), float(row["p_vn2"])]
        assert candidates == pytest.approx(
            [avg_success_projective(2, eta1, 1), avg_success_projective(2, eta1, 2)], abs=1e-12
        )
        assert (row["p_povm"] != "") == (low <= eta1 <= high)
        if row["p_povm"]:
            candidates.append(float(row["p_povm"]))
            assert candidates[-1] == pytest.approx(avg_success_povm(2, eta1), abs=1e-12)
        assert float(row["p_opt"]) == max(candidates)


def test_make_figure_data_usage_errors(tmp_path, capsys):
    # refused by the script's own parser before any sweep is written
    for argv in (["--sizes", "2", "0", "--points", "11"], ["--points", "1"], ["--sizes", "-1"]):
        out_dir = tmp_path / "figures"
        with pytest.raises(SystemExit) as exc:
            make_figure_data.main([*argv, "--out-dir", str(out_dir)])
        assert exc.value.code == 2
        assert not out_dir.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "need points >= 2 and every size >= 1" in captured.err
        assert "sweep" not in captured.err


def test_make_figure_data_stops_on_failed_sweep(tmp_path, capsys):
    (tmp_path / "sweep_n2.csv").mkdir()  # the sweep cannot write its CSV
    argv = ["--sizes", "2", "6", "--points", "11", "--out-dir", str(tmp_path)]
    assert make_figure_data.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot write" in captured.err
    assert not (tmp_path / "sweep_n6.csv").exists()
