"""Every stage's float64 answer against a 40-digit solve of the same system.

Accuracy tests against the exact PDE solution mix the discretisation error
(1e-4 to 1e-1) with the solver's own error, so they cannot judge a change to
the linear algebra. Here each stage's matrix and right-hand side, as the
solver built them, are solved again by ``mpmath.lu_solve`` at 40 digits
(:func:`oracles.mp_solve`), and the float64 answer must lie within
C kappa eps of it, relative to its largest entry, with kappa the stage's own
condition estimate. A backward-stable solve meets this with C of order 1;
the largest ratio measured over these cases is 0.29, table2's particular fit
(error 1.3e-6 at kappa 2.0e10).
"""
import numpy as np
import pytest

from bkm._linalg import RESIDUAL_TOL, FactoredMatrix
from bkm.bench import run_case, table1_case, table2_case
from bkm.geometry import Ellipse, ellipse_knots, pairwise_distances
from bkm.kernels import mq_pair
from bkm.solver import ProblemSpec, RhoLinear, solve_linear
from oracles import mp_solve

#: Forward error allowed per stage, in units of kappa eps.
C = 1.0

ELL = Ellipse(np.zeros(2), 2.0, 1.0)


def sin_x_plus_x(p):
    return np.sin(p[:, 0]) + p[:, 0]


def sin_x_plus_x_normal(p):
    x, y = (p - ELL.center).T
    _, n = ELL.boundary(np.arctan2(y / ELL.semi_minor, x / ELL.semi_major))
    return (np.cos(p[:, 0]) + 1.0) * n[:, 0]


def x_derivative_images(knots, kernel):
    """rho{u} = u_x / 2 on the phi_hat basis: (3 / 2) s (x_i - x_j)."""
    pts = knots.all_positions
    x = pts[:, 0]
    s = np.sqrt(pairwise_distances(pts, pts) ** 2 + kernel.shape ** 2)
    return 1.5 * s * (x[:, None] - x[None, :])


def table1():
    return run_case(table1_case(), 7, 3.0).error


def table2():
    return run_case(table2_case(), 9, 18.0).error


def mixed_with_interior_knots():
    # 8 Dirichlet and 8 Neumann knots plus 16 interior ones: N + L = 32
    ks = ellipse_knots(ELL, 16).with_dirichlet_count(8).with_interior(
        ELL.interior_samples(16, seed=3, shrink=0.8))
    problem = ProblemSpec(forcing=lambda p: p[:, 0], dirichlet=sin_x_plus_x,
                          neumann=sin_x_plus_x_normal)
    solve_linear(problem, ks, mq_pair(3.0))


def linear_rest_without_interior_knots():
    problem = ProblemSpec(forcing=lambda p: p[:, 0], dirichlet=sin_x_plus_x,
                          rho=RhoLinear(x_derivative_images))
    solve_linear(problem, ellipse_knots(ELL, 12), mq_pair(3.0))


@pytest.mark.parametrize("run,labels", [
    (table1, ["particular-fit", "collocation"]),
    (table2, ["particular-fit", "collocation"]),
    (mixed_with_interior_knots, ["particular-fit", "collocation"]),
    (linear_rest_without_interior_knots,
     ["u-interpolation", "particular-fit", "collocation"])],
    ids=["table1-7knots", "table2-9knots-c18", "mixed-interior", "rho-linear"])
def test_each_stage_is_within_c_kappa_eps_of_a_40_digit_solve(run, labels,
                                                              monkeypatch):
    stages = []
    checked_solve = FactoredMatrix.solve

    def spy(self, rhs):
        x = checked_solve(self, rhs)
        stages.append((self.label, self.matrix, np.asarray(rhs), x, self.condition))
        return x

    monkeypatch.setattr(FactoredMatrix, "solve", spy)
    assert run() is None
    assert [label for label, *_ in stages] == labels
    eps = np.finfo(float).eps
    for label, a, b, x, condition in stages:
        exact = mp_solve(a, b)
        error = np.max(np.abs(x - exact)) / np.max(np.abs(exact))
        assert error <= C * condition * eps, (label, error, condition)
        resid = np.abs(b - a @ x).max(axis=0)
        scale = np.abs(a).sum(axis=1).max() * np.abs(x).max(axis=0) + np.abs(b).max(axis=0)
        assert np.max(resid / scale) <= RESIDUAL_TOL, label
