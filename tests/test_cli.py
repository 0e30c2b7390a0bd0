import re
import warnings

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
    # a shape parameter must be finite as well as positive
    for value in ("nan", "inf"):
        code, out, err = run_cli(capsys, "bench", "table1", "--c", value)
        assert code == 2
        assert out == ""
        assert "usage" in err.lower()


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


@pytest.mark.parametrize("args", ["table1 --knots 2000 --frm 8",
                                  "table2 --knots 50 --frm 30 --c 3",
                                  "table2 --knots 200 --frm 32",
                                  "table2 --knots 200 --frm 64"])
def test_a_numerically_singular_truncated_stage_is_refused_by_name(capsys, args):
    # a backward-stable solve of these truncated fits passes the eta gate;
    # their condition estimates (4.0e16, 1.1e18, 1.6e15, 3.3e19) do not pass
    # the kappa gate, and the refusal is the dense path's
    code, out, err = run_cli(capsys, "bench", *args.split())
    assert code == 1
    assert out == ""
    n = args.split()[2]
    assert re.fullmatch(rf"solver error: particular-fit of size {n} is numerically "
                        rf"rank-deficient \(condition estimate \d\.\d{{3}}e\+\d\d\)\n", err)
    assert float(err.rsplit(" ", 1)[1][:-2]) > 1e14


def test_sweep_keeps_the_blocks_that_solve(capsys):
    # table2's fit at 16 knots and c = 18 is rank-deficient
    code, out, err = run_cli(capsys, "sweep", "table2", "--knots", "9,16")
    assert code == 0
    headers = [l for l in out.splitlines() if l.startswith("# knots=")]
    assert len(headers) == 1 and headers[0].startswith("# knots=9 ")
    assert out.count("x,y,exact,computed,abs_err,rel_err") == 1
    assert err.startswith("solver error at 16 knots: ")


def test_sweep_with_every_block_failing_exits_one(capsys):
    code, out, err = run_cli(capsys, "sweep", "table2", "--knots", "16")
    assert code == 1
    assert out == ""
    assert err.startswith("solver error at 16 knots: ")


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
    # without eval lines: the header alone
    path.write_text(re.sub(r"(?m)^eval = .*$", "", PROBLEM_FILE))
    assert run_cli(capsys, "solve", str(path))[:2] == (0, "x,y,computed\n")


def test_solve_rejects_dimension_other_than_two(tmp_path, capsys):
    # the domain is an ellipse, so the problem is 2-d whatever the file says
    path = tmp_path / "problem.txt"
    path.write_text(PROBLEM_FILE.replace("dimension = 2", "dimension = 3"))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert "dimension must be 2" in err


def test_solve_refuses_data_that_overflows_naming_the_callable(tmp_path, capsys):
    # y e^x overflows at x = 800: the Dirichlet read refuses it, by name
    path = tmp_path / "problem.txt"
    path.write_text(re.sub(r"(?m)^eval = .*$", "eval = 800 0", PROBLEM_FILE)
                    .replace("ellipse = 0 0 2 1", "ellipse = 800 0 2 1")
                    .replace("sin_x_plus_x", "y_exp_x"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # a numpy warning would fail here
        code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: dirichlet must return finite values, got nan\n"


def test_solve_missing_file_exits_two(capsys):
    code, *_ = run_cli(capsys, "solve", "/nonexistent/problem.txt")
    assert code == 2


def test_solve_bad_problem_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("forcing = not_a_builtin\n")
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert "not_a_builtin" in err
    path.write_text("knots = seven\n")
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert f"{path}:1: " in err and "seven" in err


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
    # a field that does not parse as a number, or a number out of range,
    # names its file and line, as every other problem-file error does
    for line, number in (("knots = 7", "seven"), ("c = 3", "abc"),
                         ("ellipse = 0 0 2 1", "0 0 two 1"), ("eval = 1.5 0", "1.5 y"),
                         ("knots = 7", "0"), ("c = 3", "nan"), ("c = 3", "-1"),
                         ("eval = 1.5 0", "nan 0"), ("ellipse = 0 0 2 1", "0 0 inf 1"),
                         ("eval = 1.5 0", "9 9")):
        key = line.split(" = ")[0]
        lineno = PROBLEM_FILE.splitlines().index(line) + 1
        bad.write_text(PROBLEM_FILE.replace(line, f"{key} = {number}"))
        with pytest.raises(ValueError, match=re.escape(f"{bad}:{lineno}: ")):
            parse_problem_file(str(bad))
    # containment is checked once the file is read, so eval lines may precede
    # the ellipse; (2, 0) is on the boundary, so in the closed domain
    bad.write_text("eval = 2 0\neval = 9 9\n" + PROBLEM_FILE)
    with pytest.raises(ValueError, match=re.escape(f"{bad}:2: eval point (9, 9)")):
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
    code, out, err = run_cli(capsys, "sweep", "table1", "--knots", "5,7")
    assert code == 0
    assert err.count("condition estimate") == 4    # two solves per knot count
    monkeypatch.setenv("BKM_LOG", "quiet")
    code, out, err = run_cli(capsys, "bench", "table1")
    assert code == 0
    assert "condition estimate" not in err


@pytest.mark.parametrize("frm", [[], ["--frm", "9"]], ids=["dense", "truncated"])
def test_bkm_log_info_reports_each_stages_backward_error(capsys, monkeypatch, frm):
    monkeypatch.setenv("BKM_LOG", "info")
    code, out, err = run_cli(capsys, "bench", "table2", *frm)
    assert code == 0
    stages = [line for line in err.splitlines() if ", eta " in line]
    assert [line.split(": ")[1] for line in stages] == ["particular-fit", "collocation"]
    for line in stages:
        assert float(line.rsplit(" ", 1)[1]) <= 1e-9
        # dense stages log dgecon's estimate, truncated ones the sparse LU's
        condition = re.search(r", condition estimate (\S+), eta ", line)
        assert condition and 1.0 <= float(condition[1]) <= 1e14
