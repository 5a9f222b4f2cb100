import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dielscat import foldylax, linalg
from dielscat.effective import p0_ball
from dielscat.foldylax import (IncidentWave, assemble_and_solve,
                               cluster_far_field, coupling_constant,
                               incident_magnetic_many, invertibility_margin)
from dielscat.geometry import Cluster, DomainShape, derive_scales, \
    generate_cluster, unit_box
from dielscat.tensors import LatticeOperator, direction_grid
from oracles import (DirectSumOperator, incident_magnetic,
                     neumann_series_solution, q_form_rhs, system_residual,
                     to_u_form, u_form_residual)


def small_setup(a=0.05, c_r=1.0, sign="+"):
    scales = derive_scales(a, 0.9, 1.0, 1.0, sign, c_r, 0.4)
    cluster = generate_cluster(unit_box(), scales.d)
    wave = IncidentWave(scales.k, (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
    return scales, cluster, wave


def test_incident_wave_validation():
    with pytest.raises(ValueError):
        IncidentWave(1.0, (0, 0, 2), (1, 0, 0))
    with pytest.raises(ValueError):
        IncidentWave(1.0, (0, 0, 1), (0.6, 0.8, 0.0001))
    w = IncidentWave(1.0, (0, 0, 1), (1, 0, 0))
    h = incident_magnetic(w, (0.0, 0.0, 0.0))
    assert np.allclose(h, np.cross(w.theta, w.p))


def test_incident_magnetic_many_matches_single():
    w = IncidentWave(1.7, (0, 1, 0), (0, 0, 1))
    pts = np.random.default_rng(0).uniform(size=(5, 3))
    many = incident_magnetic_many(w, pts)
    for i in range(5):
        assert np.allclose(many[i], incident_magnetic(w, pts[i]))


def test_single_particle_analytic_solution():
    """One particle has no coupling: Q = rhs exactly."""
    scales, _, wave = small_setup()
    cluster = Cluster([[0, 0, 0]], scales.d, (0.5 - scales.d / 2,) * 3,
                      unit_box())
    p0 = p0_ball()
    sol = assemble_and_solve(cluster, scales, p0, wave)
    expect = q_form_rhs(cluster, scales, p0, wave)
    assert np.max(np.abs(sol.vectors - expect)) \
        <= 1e-12 * np.max(np.abs(expect))
    assert sol.residual <= 1e-12


def test_two_particle_symmetry():
    """Two particles placed symmetrically about the wavefront see the same
    incident phase, so their solution vectors coincide."""
    scales, _, wave = small_setup()
    cluster = Cluster([[0, 0, 0], [5, 0, 0]], scales.d, (0.3, 0.5, 0.5),
                      unit_box())
    sol = assemble_and_solve(cluster, scales, p0_ball(), wave)
    assert np.allclose(sol.vectors[0], sol.vectors[1], rtol=1e-12)


def test_neumann_series_oracle():
    scales, cluster, wave = small_setup(a=0.03, c_r=3.0)
    assert cluster.count <= 64
    p0 = p0_ball()
    margin = invertibility_margin(scales, p0)
    assert margin < 0.5
    sol = assemble_and_solve(cluster, scales, p0, wave)
    series = neumann_series_solution(cluster, scales, p0, wave, terms=30)
    rel = np.linalg.norm(sol.vectors - series) / np.linalg.norm(sol.vectors)
    assert rel <= margin ** 30 + 1e-8


def test_direct_solver_residual():
    scales, cluster, wave = small_setup(a=0.05)
    sol = assemble_and_solve(cluster, scales, p0_ball(), wave)
    assert cluster.count <= 1000
    assert sol.residual <= 1e-10


def test_residual_function_detects_wrong_solution():
    scales, cluster, wave = small_setup(a=0.08)
    p0 = p0_ball()
    sol = assemble_and_solve(cluster, scales, p0, wave)
    bad = sol.vectors * 1.01
    assert system_residual(cluster, scales, p0, wave, bad) > 1e-4


def test_u_form_consistency():
    """The rescaled variables solve the rescaled system, with P0 after the
    kernel and an unscaled right-hand side."""
    scales, cluster, wave = small_setup(a=0.05)
    p0 = p0_ball()
    sol = assemble_and_solve(cluster, scales, p0, wave)
    U = to_u_form(sol.vectors, scales, p0)
    assert u_form_residual(cluster, scales, p0, wave, U) <= 1e-9


def test_anisotropic_p0_solves_the_q_form_system():
    """The solver works on the rescaled system U - c Y.(P0 U) = ik H_inc
    and returns Q = (a^{5-h} / sign c0) P0.U, which solves the Q-form
    system Q - c P0.Y.Q = rhs for any P0, not only for the ball's multiple
    of I.  Checked against the Q-form matrix assembled here, for a generic
    symmetric positive definite P0 of the ball's norm, on the dense path
    (N = 512) and on the GMRES path (N = 343)."""
    rng = np.random.default_rng(12)
    R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    p0 = (R * np.array([1.0, 0.8, 0.6])) @ R.T * (12.0 / np.pi ** 3)
    for a, c_r, path in [(0.05, 1.0, "dense"), (0.02, 2.0, "gmres")]:
        scales, cluster, wave = small_setup(a=a, c_r=c_r)
        sol = assemble_and_solve(cluster, scales, p0, wave)
        assert sol.path == path
        n = cluster.count
        A = np.eye(3 * n) - offdiag_matrix(cluster, scales, p0)
        rhs = q_form_rhs(cluster, scales, p0, wave).reshape(-1)
        defect = A @ sol.vectors.reshape(-1) - rhs
        assert np.linalg.norm(defect) <= 1e-10 * np.linalg.norm(rhs)


def test_far_field_transversality():
    scales, cluster, wave = small_setup(a=0.05)
    sol = assemble_and_solve(cluster, scales, p0_ball(), wave)
    far = cluster_far_field(sol, cluster, scales, direction_grid())
    assert far.max_transversality_defect() <= 1e-12


def test_margin_and_coupling_formulas():
    scales, _, _ = small_setup()
    p0 = p0_ball()
    s = scales
    want = (s.k ** 2 * abs(s.eta) * s.a ** 5 * (12 / np.pi ** 3)
            / (s.d ** 3 * abs(1 - s.k ** 2 * s.eta * s.a ** 2 * s.lambda_b)))
    assert invertibility_margin(scales, p0) == pytest.approx(want, rel=1e-12)
    assert coupling_constant(scales) == pytest.approx(
        s.eta * s.k ** 2 / (s.sign * s.c0) * s.a ** (5 - s.h), rel=1e-12)


def test_wave_scales_mismatch_rejected():
    scales, cluster, _ = small_setup()
    wave = IncidentWave(scales.k * 1.5, (0, 0, 1), (1, 0, 0))
    with pytest.raises(ValueError):
        assemble_and_solve(cluster, scales, p0_ball(), wave)


def offdiag_matrix(cluster, scales, p0):
    """Dense B = coupling * P0.Y_k of the system (I - B) Q = rhs, from the
    dense form of the solver's kernel."""
    n = cluster.count
    Y = LatticeOperator(cluster.ijk, cluster.d, "dyadic", scales.k).dense()
    B = (p0 @ Y.reshape(n, 3, 3 * n)).reshape(3 * n, 3 * n)
    return coupling_constant(scales) * B


MARGIN_CONFIGS = [(0.02, 2.0), (0.03, 3.0), (0.05, 1.0), (0.05, 0.8),
                  (0.1, 0.6)]


@pytest.mark.parametrize("a, c_r", MARGIN_CONFIGS)
def test_margin_bounds_the_coupling_norm(a, c_r):
    """|B|_2 <= invertibility margin, the bound the solver's path rule rests
    on, for margins from 0.03 to 3.9 and counts from 27 to 1000.

    |B|_2 <= m exactly when m^2 I - B^H B is positive semi-definite, so a
    Cholesky factorization of it certifies the bound at a fraction of the
    cost of the singular values."""
    scales, cluster, _ = small_setup(a=a, c_r=c_r)
    p0 = p0_ball()
    margin = invertibility_margin(scales, p0)
    B = offdiag_matrix(cluster, scales, p0)
    G = -(B.conj().T @ B)
    G[np.diag_indices_from(G)] += margin ** 2
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        pytest.fail("|B|_2 = %.4g above the margin %.4g" % (
            np.linalg.norm(B, 2), margin))


class DensePath(Exception):
    """Raised in place of a dense matrix, to see the path without its LU."""


@pytest.mark.parametrize("a, c_r", MARGIN_CONFIGS)
def test_the_kernel_norm_bound_picks_the_path_of_the_paper_margin(
        a, c_r, monkeypatch):
    """On every cluster above, the two of the CLI's path tests among them
    (a = 0.05, c_r = 1 and a = 0.02, c_r = 2), solve_coupled's rule, read
    off the kernel's norm bound, takes GMRES exactly where the paper's
    invertibility margin guarantees it: margin ** (GMRES_RESTART *
    GMRES_MAXITER) <= GMRES_TOL.  Bound / margin: 0.97, 0.80, 1.01, 1.01
    and 0.99."""
    def dense(self, cells=None):
        raise DensePath

    monkeypatch.setattr(LatticeOperator, "dense", dense)
    scales, cluster, wave = small_setup(a=a, c_r=c_r)
    margin = invertibility_margin(scales, p0_ball())
    budget = foldylax.GMRES_RESTART * foldylax.GMRES_MAXITER
    try:
        path = assemble_and_solve(cluster, scales, p0_ball(), wave).path
    except DensePath:
        path = "dense"
    assert path == ("gmres" if margin ** budget <= foldylax.GMRES_TOL
                    else "dense")


def test_weakly_coupled_cluster_takes_gmres_within_the_neumann_bound():
    """The converge-box cluster at a = 0.02 (N = 343, margin 0.117): GMRES
    has |r_m| <= margin^m |b|, so it stops within ln(tol) / ln(margin)
    iterations (11); its matvec count, one more than its iterations, stays
    within that too.  It matches the dense LU solve."""
    scales, cluster, wave = small_setup(a=0.02, c_r=2.0)
    p0 = p0_ball()
    sol = assemble_and_solve(cluster, scales, p0, wave)
    bound = math.ceil(math.log(foldylax.GMRES_TOL) / math.log(sol.margin))
    assert cluster.count == 343 and bound == 11
    assert sol.path == "gmres"
    assert 0 < sol.matvecs <= bound
    assert sol.residual <= foldylax.GMRES_TOL
    A = np.eye(3 * cluster.count) - offdiag_matrix(cluster, scales, p0)
    rhs = q_form_rhs(cluster, scales, p0, wave)
    Q = np.linalg.solve(A, rhs.reshape(-1)).reshape(-1, 3)
    assert np.linalg.norm(sol.vectors - Q) <= 1e-9 * np.linalg.norm(Q)


def test_strongly_coupled_cluster_takes_the_dense_lu(monkeypatch):
    """a = 0.1, c_r = 0.6 (N = 512, margin 3.9): no GMRES guarantee, and
    GMRES indeed fails within its budget, so the dense LU solves it."""
    scales, cluster, wave = small_setup(a=0.1, c_r=0.6)
    assert cluster.count <= linalg.DENSE_LIMIT
    sol = assemble_and_solve(cluster, scales, p0_ball(), wave)
    assert sol.margin > 1.0
    assert sol.path == "dense" and sol.matvecs == 0
    assert sol.residual <= 1e-12
    monkeypatch.setattr(linalg, "DENSE_LIMIT", 0)
    with pytest.raises(RuntimeError, match="GMRES failed after 101 matvecs"):
        assemble_and_solve(cluster, scales, p0_ball(), wave)


def test_margin_below_one_without_the_gmres_guarantee_takes_dense():
    """a = 0.05, c_r = 1 (N = 512): margin 0.90 is below 1 but above
    GMRES_TOL ** (1 / (GMRES_RESTART * GMRES_MAXITER)) ~ 0.794, and so is
    the bound solve_coupled reads off the kernel (0.91)."""
    scales, cluster, wave = small_setup(a=0.05, c_r=1.0)
    sol = assemble_and_solve(cluster, scales, p0_ball(), wave)
    budget = foldylax.GMRES_RESTART * foldylax.GMRES_MAXITER
    assert foldylax.GMRES_TOL ** (1.0 / budget) < sol.margin < 1.0
    assert cluster.count <= linalg.DENSE_LIMIT
    assert sol.path == "dense" and sol.matvecs == 0
    assert sol.residual <= 1e-12


@settings(max_examples=20)
@given(kind=st.sampled_from(["box", "ball"]),
       sizes=st.tuples(*[st.floats(2.0, 6.0)] * 3),
       center=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
       a=st.floats(0.005, 0.1), c_r=st.floats(2.0, 4.0),
       sign=st.sampled_from(["+", "-"]), seed=st.integers(0, 2 ** 16))
def test_lattice_cluster_matches_the_direct_sum_oracles(kind, sizes, center,
                                                       a, c_r, sign, seed):
    """On a box or ball cluster of any centre and size (2 to 6 pitches an
    axis, or a radius of 1.75 to 5.75 pitches), at the pitch of the drawn
    scales: Foldy-Lax's lattice kernel applies as the direct sum does, to
    1e-12, and at a margin that guarantees GMRES the solve matches the
    Neumann series summed by the direct sum, to the series' remainder."""
    scales = derive_scales(a, 0.9, 1.0, 1.0, sign, c_r, 0.4)
    d = scales.d
    if kind == "box":
        domain = DomainShape("box", [d * s for s in sizes], center)
    else:
        domain = DomainShape("ball", d * (sizes[0] - 0.25), center)
    cluster = generate_cluster(domain, d)
    rng = np.random.default_rng(seed)
    F = rng.normal(size=(cluster.count, 3)) + 1j * rng.normal(
        size=(cluster.count, 3))
    want = DirectSumOperator(cluster.centers, scales.k).apply(F)
    got = LatticeOperator(cluster.ijk, cluster.d, "dyadic", scales.k).apply(F)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    p0 = p0_ball()
    wave = IncidentWave(scales.k, (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
    margin = invertibility_margin(scales, p0)
    budget = foldylax.GMRES_RESTART * foldylax.GMRES_MAXITER
    assert margin <= foldylax.GMRES_TOL ** (1.0 / budget)
    sol = assemble_and_solve(cluster, scales, p0, wave)
    series = neumann_series_solution(cluster, scales, p0, wave, terms=30)
    rel = np.linalg.norm(sol.vectors - series) / np.linalg.norm(sol.vectors)
    assert rel <= margin ** 30 + 1e-8
