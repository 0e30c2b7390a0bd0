import dataclasses

import numpy as np
import pytest

from bkm.bench import (BenchmarkCase, convergence_sweep, named_case,
                       report_csv_lines, report_table_lines, run_case,
                       table1_case, table2_case)
from bkm.solver import RhoBoundaryNonlinear, RhoZero


def test_table1_exact_values():
    case = table1_case()
    exact = dict(zip(map(tuple, case.test_points), case.exact_values))
    assert exact[(1.5, 0.0)] == pytest.approx(2.50, abs=0.005)
    assert exact[(0.0, 0.0)] == 0.0
    assert exact[(0.9, 0.0)] == pytest.approx(1.68, abs=0.005)
    assert case.default_shape == 3.0
    assert case.default_knot_counts == (5, 7)
    assert isinstance(case.problem.rho, RhoZero)


def test_table1_exact_satisfies_equation():
    case = table1_case()
    resid = case.governing_residual(case.test_points)
    assert np.max(np.abs(resid)) <= 1e-10


def test_table2_exact_values():
    case = table2_case()
    exact = dict(zip(map(tuple, case.test_points), case.exact_values))
    assert exact[(3.0, 0.5)] == pytest.approx(10.04, abs=0.005)
    assert exact[(4.5, 0.0)] == 0.0
    assert exact[(4.2, -0.35)] == pytest.approx(-23.34, abs=0.005)
    assert case.default_shape == 18.0
    assert isinstance(case.problem.rho, RhoBoundaryNonlinear)


def test_table2_exact_satisfies_equation():
    case = table2_case()
    resid = case.governing_residual(case.test_points)
    assert np.max(np.abs(resid)) <= 1e-10


def test_table2_geometry_contains_its_boundary_points():
    case = table2_case()
    e = case.problem.geometry
    rel = np.array([4.5, 0.0]) - e.center
    assert (rel[0] / e.semi_major) ** 2 + (rel[1] / e.semi_minor) ** 2 == \
        pytest.approx(1.0)


def test_reference_points_in_their_domain():
    # table2's (4.2, -0.35) and (1.8, -0.35) have implicit value 1.13 on the
    # inferred 1.5 x 0.5 ellipse: 2 of its 8 reported errors are off the domain
    for case, outside in ((table1_case(), []),
                          (table2_case(), [[4.2, -0.35], [1.8, -0.35]])):
        pts = case.test_points
        assert pts[~case.problem.geometry.contains(pts)].tolist() == outside


def test_case_construction_rejects_wrong_exact():
    case = table1_case()
    with pytest.raises(ValueError):
        dataclasses.replace(case, exact_values=case.exact_values + 1.0,
                            governing_residual=lambda p: np.ones(len(p)))


def test_named_case_lookup():
    assert named_case("table1").label == "table1"
    assert named_case("table2").label == "table2"
    with pytest.raises(ValueError):
        named_case("table3")


def test_run_case_table1():
    report = run_case(table1_case(), 7, 3.0)
    assert report.error is None
    assert report.max_abs <= 0.1
    assert report.rms > 0.0
    assert len(report.diagnostics) == 2
    assert report.n_knots == 7 and report.shape == 3.0


def test_run_case_table2():
    report = run_case(table2_case(), 9, 18.0)
    assert report.error is None
    assert report.max_rel <= 0.08
    # odd symmetry pins the solution to zero on the major axis
    assert abs(report.computed[0]) <= 0.05
    assert np.isnan(report.rel_err[0])


def test_run_case_records_solver_failure():
    report = run_case(table2_case(), 25, 18.0)    # far past the cond threshold
    assert report.error is not None
    assert "condition" in report.error
    assert report.computed.size == 0


def test_run_case_empty_test_points():
    case = table1_case()
    empty = dataclasses.replace(case, test_points=np.empty((0, 2)),
                                exact_values=np.empty(0))
    report = run_case(empty, 7, 3.0)
    assert report.error is None
    assert report.points.shape == (0, 2)
    assert report.max_abs == 0.0 and report.rms == 0.0


def test_run_case_deterministic():
    a = run_case(table1_case(), 7, 3.0)
    b = run_case(table1_case(), 7, 3.0)
    np.testing.assert_array_equal(a.computed, b.computed)
    np.testing.assert_array_equal(a.abs_err, b.abs_err)


def test_run_case_validates_knot_count():
    with pytest.raises(ValueError):
        run_case(table1_case(), 0, 3.0)


@pytest.mark.parametrize("n_knots,frm_k,name", [(7.9, None, "knot count"),
                                                (7, 2.5, "neighbour count")])
def test_run_case_refuses_fractional_counts(n_knots, frm_k, name):
    with pytest.raises(ValueError, match=f"{name} must be a whole number"):
        run_case(table1_case(), n_knots, 3.0, frm_k=frm_k)


@pytest.mark.parametrize("whole", [7.0, np.int64(7)])
def test_run_case_reports_the_knot_count_it_placed(whole):
    report = run_case(table1_case(), whole, 3.0)
    assert type(report.n_knots) is int and report.n_knots == 7
    assert report.computed.tobytes() == run_case(table1_case(), 7, 3.0).computed.tobytes()


def test_run_case_with_frm_truncation():
    full = run_case(table1_case(), 7, 3.0)
    truncated = run_case(table1_case(), 7, 3.0, frm_k=7)
    assert truncated.error is None
    np.testing.assert_allclose(truncated.computed, full.computed, atol=1e-9)
    partial = run_case(table1_case(), 7, 3.0, frm_k=5)
    assert partial.error is None
    assert partial.computed.shape == full.computed.shape


def test_convergence_sweep_table1():
    reports = convergence_sweep(table1_case(), [5, 7], 3.0)
    assert len(reports) == 2
    assert reports[1].rms <= reports[0].rms


def test_convergence_sweep_table2():
    reports = convergence_sweep(table2_case(), [7, 9], 18.0)
    for report in reports:
        assert report.error is None
        assert report.max_rel <= 0.08


def test_convergence_sweep_single_and_validation():
    reports = convergence_sweep(table1_case(), [7], 3.0)
    assert len(reports) == 1
    with pytest.raises(ValueError):
        convergence_sweep(table1_case(), [7, 5], 3.0)
    with pytest.raises(ValueError, match="knot count must be a whole number"):
        convergence_sweep(table1_case(), [5, 7.5], 3.0)


def test_csv_lines_format():
    report = run_case(table1_case(), 7, 3.0)
    lines = report_csv_lines(report)
    assert lines[0] == "x,y,exact,computed,abs_err,rel_err"
    assert len(lines) == 1 + 6
    first = lines[1].split(",")
    assert len(first) == 6
    assert float(first[0]) == 1.5
    assert float(first[2]) == pytest.approx(2.4974949866, abs=1e-9)
    # 10 significant digits survive the round trip
    assert abs(float(first[3]) - report.computed[0]) <= 1e-9


def test_csv_relative_error_nan_at_zero_exact():
    report = run_case(table1_case(), 7, 3.0)
    centre_row = report_csv_lines(report)[4]     # the (0, 0) point
    assert centre_row.split(",")[5] == "nan"


def test_table_lines_format():
    report = run_case(table1_case(), 7, 3.0)
    lines = report_table_lines(report)
    assert "bkm(7)" in lines[0]
    assert len(lines) == 2 + 6 + 1
    assert lines[-1].startswith("max_abs=")
