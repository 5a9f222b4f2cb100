import functools

import numpy as np
import pytest

from dielscat import foldylax, linalg, lse
from dielscat.effective import effective_mu_ball, p0_ball
from dielscat.foldylax import IncidentWave, assemble_and_solve
from dielscat.geometry import derive_scales, generate_cluster, unit_ball, \
    unit_box
from dielscat.lse import (DyadicVolumeOperator, VolumeGrid,
                          magnetization_eigensystem, solve_effective_lse)

# a fixed propagation direction, an orthonormal polarization pair
# perpendicular to it, and a generic mixing angle
THETA = np.array([0.6, 0.0, 0.8])
P1 = np.array([0.0, 1.0, 0.0])
P2 = np.cross(THETA, P1)
PSI = 0.7

# the relative residual a dense LU solve of these systems stays below
DENSE_TOL = 1e-12


def foldylax_problem(monkeypatch, a, c_r, path):
    """Foldy-Lax on the unit-box cluster: solve(p) -> (Q, residual), the
    path's stopping tolerance and a bound on the condition number of
    I - B.  The invertibility margin m bounds |B|_2
    (test_margin_bounds_the_coupling_norm), so cond <= (1 + m) / (1 - m)."""
    scales = derive_scales(a, 0.9, 1.0, 1.0, "+", c_r, 0.4)
    cluster = generate_cluster(unit_box(), scales.d)
    if path == "dense":
        # the Krylov solve fails within two iterations, and the LU follows
        monkeypatch.setattr(foldylax, "KRYLOV_BUDGET", 3)
    margin = foldylax.invertibility_margin(scales, p0_ball())
    assert margin < 1.0

    def solve(p):
        sol = assemble_and_solve(cluster, scales, p0_ball(),
                                 IncidentWave(scales.k, THETA, p))
        assert sol.path == path
        return sol.vectors, sol.residual

    tol = DENSE_TOL if path == "dense" else foldylax.KRYLOV_TOL
    return solve, tol, (1.0 + margin) / (1.0 - margin)


# the LSE on the ball n=10 (C = 552 cells) at xi = 2, k = 1.2, sign "-"
LSE_XI, LSE_K = 2.0, 1.2


@functools.cache
def lse_condition(grid):
    """Condition number of the dense LSE matrix, from its singular values."""
    n = grid.count
    G = DyadicVolumeOperator(grid, LSE_K).dense()
    diag = np.arange(3 * n)
    contrast = effective_mu_ball(LSE_XI, "-") - np.eye(3)
    # A = I - (G + sigma I)(mu - I)
    A = -(G.reshape(3 * n, n, 3) @ contrast).reshape(3 * n, 3 * n)
    A[diag, diag] += 1.0
    sv = np.linalg.svd(A, compute_uv=False)
    return sv[0] / sv[-1]


@functools.cache
def ball10():
    return VolumeGrid(unit_ball(), 10)


def lse_problem(monkeypatch, method):
    """The LSE solved by method "dense" (a budget of two iterations and a
    true residual, which fails, and the LU of its 552 cells), "cocg" (the
    dense limit set to 0) or "preconditioned" (COCG with the k=0
    eigensystem inverse): solve(p) -> (H, residual), the stopping
    tolerance and the condition number."""
    grid = ball10()
    mu, k = effective_mu_ball(LSE_XI, "-"), LSE_K
    kwargs = {}
    if method == "dense":
        monkeypatch.setattr(lse, "LSE_KRYLOV_BUDGET", 3)
    elif method == "cocg":
        monkeypatch.setattr(linalg, "DENSE_LIMIT", 0)
    elif method == "preconditioned":
        kwargs = {"eigensystem": magnetization_eigensystem(grid)}

    def solve(p):
        return solve_effective_lse(grid, mu, IncidentWave(k, THETA, p),
                                   **kwargs)[:2]

    tol = DENSE_TOL if method == "dense" else lse.LSE_KRYLOV_TOL
    return solve, tol, lse_condition(grid)


@pytest.mark.parametrize("problem", [
    lambda mp: foldylax_problem(mp, 0.05, 1.0, "dense"),  # N = 512, m 0.90
    lambda mp: foldylax_problem(mp, 0.02, 2.0, "cocg"),  # N = 343, m 0.12
    lambda mp: lse_problem(mp, "dense"),
    lambda mp: lse_problem(mp, "cocg"),
    lambda mp: lse_problem(mp, "preconditioned"),
], ids=["foldylax-dense", "foldylax-cocg", "lse-dense", "lse-cocg",
        "lse-preconditioned"])
def test_solution_is_linear_in_the_polarization(problem, monkeypatch):
    """X(cos psi p1 + sin psi p2) = cos psi X(p1) + sin psi X(p2).

    The right-hand side is linear in p and, as |theta x p| = 1, has the
    same norm |b| for every unit p perpendicular to theta.  Each solve X~
    with relative residual at most tol is X + A^-1 r with |r| <= tol |b|,
    so the defect of the combination is at most
    |A^-1| tol (1 + |cos psi| + |sin psi|) |b|, and |b| <= |A| |X~| /
    (1 - tol): relative to |X~(p_psi)| at most
    cond(A) tol (1 + |cos psi| + |sin psi|) / (1 - tol).
    """
    solve, tol, cond = problem(monkeypatch)
    c, s = np.cos(PSI), np.sin(PSI)
    X1, res1 = solve(P1)
    X2, res2 = solve(P2)
    X, res = solve(c * P1 + s * P2)
    assert max(res, res1, res2) <= tol
    defect = np.linalg.norm(X - (c * X1 + s * X2)) / np.linalg.norm(X)
    assert defect <= cond * tol * (1.0 + abs(c) + abs(s)) / (1.0 - tol)
