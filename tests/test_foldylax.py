import numpy as np
import pytest

from dielscat.effective import p0_ball
from dielscat.foldylax import (IncidentWave, assemble_and_solve,
                               cluster_far_field, coupling_constant,
                               incident_magnetic, incident_magnetic_many,
                               invertibility_margin, neumann_series_solution,
                               rhs_constant, system_residual, to_u_form,
                               u_form_residual)
from dielscat.geometry import Cluster, derive_scales, generate_cluster, \
    unit_box
from dielscat.tensors import direction_grid


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
    cluster = Cluster(np.array([[0.5, 0.5, 0.5]]), scales.d, unit_box())
    p0 = p0_ball()
    sol = assemble_and_solve(cluster, scales, p0, wave)
    expect = rhs_constant(scales) * incident_magnetic_many(
        wave, cluster.centers) @ p0.T
    assert np.max(np.abs(sol.vectors - expect)) \
        <= 1e-12 * np.max(np.abs(expect))
    assert sol.residual <= 1e-12


def test_two_particle_symmetry():
    """Two particles placed symmetrically about the wavefront see the same
    incident phase, so their solution vectors coincide."""
    scales, _, wave = small_setup()
    centers = np.array([[0.3, 0.5, 0.5], [0.7, 0.5, 0.5]])
    cluster = Cluster(centers, scales.d, unit_box())
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
    """The rescaled variables solve the rescaled system with swapped kernel
    ordering and unscaled right-hand side."""
    scales, cluster, wave = small_setup(a=0.05)
    p0 = p0_ball()
    sol = assemble_and_solve(cluster, scales, p0, wave)
    U = to_u_form(sol, scales, p0)
    assert U.variant == "U-form"
    assert u_form_residual(cluster, scales, p0, wave, U.vectors) <= 1e-9


def test_ordering_variants_agree_for_isotropic_p0():
    """For the ball, P0 is a multiple of I, so both kernel orderings give
    the same system."""
    scales, cluster, wave = small_setup(a=0.06)
    p0 = p0_ball()
    a1 = assemble_and_solve(cluster, scales, p0, wave, ordering="p0-first")
    a2 = assemble_and_solve(cluster, scales, p0, wave, ordering="p0-last")
    assert np.allclose(a1.vectors, a2.vectors, rtol=1e-10)


@pytest.mark.parametrize("ordering", ["bogus", "P0-FIRST", None])
def test_assemble_and_solve_rejects_unknown_ordering(ordering):
    scales, cluster, wave = small_setup(a=0.06)
    with pytest.raises(ValueError, match="ordering"):
        assemble_and_solve(cluster, scales, p0_ball(), wave,
                           ordering=ordering)


def test_far_field_transversality():
    scales, cluster, wave = small_setup(a=0.05)
    sol = assemble_and_solve(cluster, scales, p0_ball(), wave)
    far = cluster_far_field(sol, cluster, scales, direction_grid())
    assert far.max_transversality_defect() <= 1e-12


def test_far_field_rejects_u_form():
    scales, cluster, wave = small_setup(a=0.05)
    sol = assemble_and_solve(cluster, scales, p0_ball(), wave)
    U = to_u_form(sol, scales, p0_ball())
    with pytest.raises(ValueError):
        cluster_far_field(U, cluster, scales, direction_grid())


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
