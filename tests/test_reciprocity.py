import numpy as np
import pytest

from dielscat import foldylax, linalg, lse
from dielscat.effective import effective_mu_ball, p0_ball
from dielscat.foldylax import IncidentWave, assemble_and_solve, \
    cluster_far_field
from dielscat.geometry import derive_scales, generate_cluster, unit_ball, \
    unit_box
from dielscat.lse import VolumeGrid, effective_far_field, solve_effective_lse

# incidence (theta, p) and observation (xhat, q), generic so that no cube
# symmetry of the grids maps one onto the other
THETA = np.array([0.6, 0.0, 0.8])
P = np.array([0.0, 1.0, 0.0])
XHAT = np.array([1.0, 2.0, 2.0]) / 3.0
Q = np.array([2.0, -1.0, 0.0]) / np.sqrt(5.0)

# the relative residual a dense LU solve of these systems stays below
DENSE_TOL = 1e-12


def foldylax_problem(a, c_r, path):
    """Foldy-Lax on the unit-box cluster of particle size a and contrast
    c_r: returns solve(theta, p) -> (q . E_inf(xhat), solution vector,
    residual) and the tolerance of the solver's path, the far-field factor
    |c| and the particle count.  Each solve must take the given path."""
    scales = derive_scales(a, 0.9, 1.0, 1.0, "+", c_r, 0.4)
    cluster = generate_cluster(unit_box(), scales.d)

    def solve(theta, p, xhat, q):
        sol = assemble_and_solve(cluster, scales, p0_ball(),
                                 IncidentWave(scales.k, theta, p))
        assert sol.path == path
        far = cluster_far_field(sol, cluster, scales, xhat).values[0]
        return q @ far, sol.vectors, sol.residual

    tol = DENSE_TOL if path == "dense" else foldylax.GMRES_TOL
    return solve, tol, scales.k ** 3 * scales.eta / (4 * np.pi), \
        cluster.count


def lse_problem(monkeypatch, method):
    """The LSE on the ball n=10 (C = 552 cells) at xi = 2, k = 1.2, solved
    by method "dense" (within the dense limit) or "gmres" (the limit set to
    0)."""
    grid = VolumeGrid(unit_ball(), 10)
    mu, k = effective_mu_ball(2.0, "-"), 1.2
    if method == "gmres":
        monkeypatch.setattr(linalg, "DENSE_LIMIT", 0)

    def solve(theta, p, xhat, q):
        H, res, _, _ = solve_effective_lse(grid, mu,
                                           IncidentWave(k, theta, p))
        far = effective_far_field(H, grid, mu, k, xhat).values[0]
        return q @ far, H, res

    tol = DENSE_TOL if method == "dense" else lse.LSE_GMRES_TOL
    return solve, tol, abs(k * grid.weight * (mu[0, 0] - 1)) / (4 * np.pi), \
        grid.count


@pytest.mark.parametrize("problem", [
    lambda mp: foldylax_problem(0.05, 1.0, "dense"),     # N = 512
    lambda mp: foldylax_problem(0.02, 2.0, "gmres"),     # N = 343
    lambda mp: foldylax_problem(0.012, 2.0, "gmres"),    # N = 1331
    lambda mp: lse_problem(mp, "dense"),
    lambda mp: lse_problem(mp, "gmres"),
], ids=["foldylax-dense", "foldylax-gmres-343", "foldylax-gmres",
        "lse-dense", "lse-gmres"])
def test_far_field_reciprocity(problem, monkeypatch):
    """q . E_inf(xhat; theta, p) = p . E_inf(-theta; -xhat, q).

    P0 and mu are scalar and the kernel is symmetric, so each system matrix
    A is complex-symmetric, and with q . E_inf = c g^T X for the solution
    X of A X = b(theta, p), the two sides are c g^T A^-1 f and
    c f^T A^-1 g.  Solves with relative residual at most tol change their
    difference by at most tol |c| sqrt(n) (|X| + |X'|), n the number of
    particles or cells and X' the reversed problem's solution.
    """
    solve, tol, c, n = problem(monkeypatch)
    forward, X, res = solve(THETA, P, XHAT, Q)
    reverse, Xr, res_r = solve(-XHAT, Q, -THETA, P)
    assert max(res, res_r) <= tol
    bound = tol * c * np.sqrt(n) * (np.linalg.norm(X) + np.linalg.norm(Xr))
    assert abs(forward - reverse) <= bound
    assert bound <= 1e-6 * abs(forward)
