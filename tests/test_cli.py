import numpy as np
import pytest

from bkm import bench
from bkm.cli import BUILTIN_FUNCTIONS, main, parse_problem_file


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bench_table1_csv(capsys):
    code, out, err = run_cli(capsys, "bench", "table1", "--knots", "7", "--c", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,exact,computed,abs_err,rel_err"
    assert len(lines) == 7
    report = bench.run_case(bench.table1_case(), 7, 3.0)
    row = lines[1].split(",")
    assert float(row[3]) == pytest.approx(report.computed[0], abs=1e-9)


def test_bench_defaults_to_case_settings(capsys):
    code, out, _ = run_cli(capsys, "bench", "table1")
    assert code == 0
    reference = bench.run_case(bench.table1_case(), 7, 3.0)
    row = out.strip().splitlines()[1].split(",")
    assert float(row[3]) == pytest.approx(reference.computed[0], abs=1e-9)


def test_bench_table_format(capsys):
    code, out, _ = run_cli(capsys, "bench", "table2", "--format", "table")
    assert code == 0
    assert "bkm(9)" in out.splitlines()[0]
    assert out.strip().splitlines()[-1].startswith("max_abs=")


def test_bench_rejects_zero_knots(capsys):
    code, out, err = run_cli(capsys, "bench", "table1", "--knots", "0")
    assert code == 2
    assert out == ""
    assert "usage" in err.lower()


def test_bench_rejects_bad_shape(capsys):
    code, _, err = run_cli(capsys, "bench", "table1", "--c", "-1")
    assert code == 2


def test_unknown_flag_exits_two(capsys):
    code, out, err = run_cli(capsys, "bench", "table1", "--nonsense")
    assert code == 2
    assert "usage" in err.lower()


def test_unknown_case_exits_two(capsys):
    code, *_ = run_cli(capsys, "bench", "table9")
    assert code == 2


def test_solver_failure_exits_one(capsys):
    # far past the conditioning threshold at c = 18
    code, out, err = run_cli(capsys, "bench", "table2", "--knots", "25")
    assert code == 1
    assert out == ""
    assert "condition" in err


def test_bench_frm_flag(capsys):
    code, out, _ = run_cli(capsys, "bench", "table1", "--frm", "7")
    assert code == 0
    assert len(out.strip().splitlines()) == 7


def test_sweep_two_blocks_with_nonincreasing_rms(capsys):
    code, out, _ = run_cli(capsys, "sweep", "table1", "--knots", "5,7",
                           "--c", "3")
    assert code == 0
    headers = [l for l in out.splitlines() if l.startswith("# knots=")]
    assert len(headers) == 2
    rms = [float(h.split("rms=")[1]) for h in headers]
    assert rms[1] <= rms[0]
    assert out.count("x,y,exact,computed,abs_err,rel_err") == 2


def test_sweep_validation(capsys):
    assert run_cli(capsys, "sweep", "table1", "--knots", "7,5")[0] == 2
    assert run_cli(capsys, "sweep", "table1", "--knots", "abc")[0] == 2
    assert run_cli(capsys, "sweep", "table1", "--knots", "0,5")[0] == 2


def test_out_file_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["bench", "table1", "--out", str(out1)]) == 0
    assert main(["bench", "table1", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes().startswith(b"x,y,exact,computed")


PROBLEM_FILE = """
# linear Helmholtz solve on the unit-ish ellipse
dimension = 2
ellipse = 0 0 2 1
forcing = x
dirichlet = sin_x_plus_x
knots = 7
c = 3
eval = 1.5 0
eval = 0.3 0
"""


def test_solve_problem_file(tmp_path, capsys):
    path = tmp_path / "problem.txt"
    path.write_text(PROBLEM_FILE)
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,computed"
    assert len(lines) == 3
    u = float(lines[1].split(",")[2])
    assert u == pytest.approx(np.sin(1.5) + 1.5, abs=0.05)


def test_solve_rejects_dimension_other_than_two(tmp_path, capsys):
    # the domain is an ellipse, so the problem is 2-d whatever the file says
    path = tmp_path / "problem.txt"
    path.write_text(PROBLEM_FILE.replace("dimension = 2", "dimension = 3"))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert "dimension must be 2" in err


def test_solve_missing_file_exits_two(capsys):
    code, *_ = run_cli(capsys, "solve", "/nonexistent/problem.txt")
    assert code == 2


def test_solve_bad_problem_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("forcing = not_a_builtin\n")
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert "not_a_builtin" in err


def test_parse_problem_file_grammar(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text(PROBLEM_FILE)
    spec = parse_problem_file(str(path))
    assert spec["knots"] == 7
    assert spec["c"] == 3.0
    assert spec["eval"] == [[1.5, 0.0], [0.3, 0.0]]
    assert spec["ellipse"].semi_major == 2.0
    with pytest.raises(ValueError):
        bad = tmp_path / "q.txt"
        bad.write_text("knots 7\n")
        parse_problem_file(str(bad))


def test_builtin_functions_cover_benchmark_data():
    pts = np.array([[1.0, -0.5], [0.0, 0.0]])
    np.testing.assert_allclose(BUILTIN_FUNCTIONS["x"](pts), [1.0, 0.0])
    np.testing.assert_allclose(BUILTIN_FUNCTIONS["zero"](pts), [0.0, 0.0])
    np.testing.assert_allclose(BUILTIN_FUNCTIONS["sin_x_plus_x"](pts),
                               np.sin(pts[:, 0]) + pts[:, 0])
    np.testing.assert_allclose(BUILTIN_FUNCTIONS["y_exp_x"](pts),
                               pts[:, 1] * np.exp(pts[:, 0]))


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_bkm_log_info_reports_diagnostics(capsys, monkeypatch):
    monkeypatch.setenv("BKM_LOG", "info")
    code, out, err = run_cli(capsys, "bench", "table1")
    assert code == 0
    assert "condition estimate" in err
    monkeypatch.setenv("BKM_LOG", "quiet")
    code, out, err = run_cli(capsys, "bench", "table1")
    assert code == 0
    assert "condition estimate" not in err
