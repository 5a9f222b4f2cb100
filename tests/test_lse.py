import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from scipy.linalg import eigh
from scipy.sparse.linalg import LinearOperator, eigsh

import dielscat
from dielscat import geometry, linalg, lse, tensors
from dielscat.cli import main
from dielscat.experiments import _fit_slope
from dielscat.effective import (coupling_xi, detuned_xi, effective_mu,
                                effective_mu_ball, p0_ball,
                                plasmonic_frequency)
from dielscat.foldylax import IncidentWave
from dielscat.geometry import (DomainShape, derive_scales, generate_cluster,
                               unit_ball, unit_box)
from dielscat.symmetry import SymmetryBasis
from dielscat.lse import (DEGENERACY_TOL, RESONANT_MIN_ABOVE,
                          DyadicVolumeOperator, VolumeGrid,
                          effective_far_field,
                          harmonic_gradient_basis,
                          harmonic_polynomial_coefficients,
                          lse_self_scalar, magnetization_eigensystem,
                          magnetization_operator, magnetization_spectrum,
                          newtonian_operator, newtonian_operator_norm,
                          resonance_amplification_scan,
                          select_resonant_eigenvalue, solve_effective_lse,
                          weighted_norm)
from dielscat.tensors import direction_grid
from oracles import (DirectSumOperator, discrete_curl, discrete_divergence,
                     dyadic_green, helmholtz_kernel, interior_mask,
                     neighbor_index)


@pytest.fixture(scope="module")
def eigensystems():
    """get(domain, n) -> (grid, its k=0 Magnetization eigensystem), each
    grid decomposed once for the module."""
    made = {}

    def get(domain, n):
        if (domain.kind, n) not in made:
            grid = VolumeGrid(domain, n)
            made[domain.kind, n] = grid, magnetization_eigensystem(grid)
        return made[domain.kind, n]

    return get


@pytest.fixture(scope="module")
def ball10(eigensystems):
    """The ball n=10 grid, its eigensystem and resonant eigenvalue."""
    grid, system = eigensystems(unit_ball(), 10)
    return grid, system, select_resonant_eigenvalue(system)[0]


def test_volume_grid_box():
    grid = VolumeGrid(unit_box(), 4)
    assert grid.count == 64
    assert grid.count * grid.weight == pytest.approx(1.0)
    assert grid.d == pytest.approx(0.25)


def test_volume_grid_ball_weight_converges():
    vol = 4.0 * np.pi / 3.0
    grids = [VolumeGrid(unit_ball(), n) for n in (8, 16, 32)]
    errs = [abs(g.count * g.weight - vol) / vol for g in grids]
    assert errs[2] < errs[0]
    assert errs[2] < 0.02


CUBES = [unit_box(), DomainShape("box", (0.7,) * 3, (0.3, -0.2, 0.1)),
         DomainShape("box", (3.0,) * 3, (1.0, 2.0, -5.0))]


@pytest.mark.parametrize("box", CUBES)
def test_box_grid_is_the_cluster_of_its_cells(box):
    """A cubic box's voxel grid is the particle cluster of pitch L/n, bit
    for bit: the same indices, centres, pitch and count."""
    for n in range(2, 41):
        grid = VolumeGrid(box, n)
        cluster = generate_cluster(box, box.extents[0] / n)
        assert np.array_equal(grid.ijk, cluster.ijk)
        assert np.array_equal(grid.centers, cluster.centers)
        assert (grid.d, grid.count) == (cluster.d, cluster.count)


@pytest.mark.parametrize("ball", [unit_ball(),
                                  DomainShape("ball", 0.37, (0.3, -2, 7))])
def test_ball_grid_centres_follow_the_per_axis_formula(ball):
    """A ball grid's cells are those of the n^3 lattice on its bounding box
    whose centres, corner + side (i + 1/2) per axis, lie inside, in
    lattice order, with those centres bit for bit."""
    for n in (2, 3, 10, 11, 20):
        grid = VolumeGrid(ball, n)
        side = 2.0 * ball.radius / n
        corner = ball.center - ball.radius
        axes = [corner[i] + side * (np.arange(n) + 0.5) for i in range(3)]
        every = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)
        inside = np.sum((every - ball.center) ** 2, axis=1) < ball.radius ** 2
        assert grid.d == side
        assert np.array_equal(grid.centers, every[inside])


def test_volume_grid_neighbors():
    grid = VolumeGrid(unit_box(), 3)
    center = np.argmin(np.linalg.norm(grid.centers - 0.5, axis=1))
    for axis in range(3):
        plus = neighbor_index(grid, axis, +1)[center]
        assert plus >= 0
        delta = grid.centers[plus] - grid.centers[center]
        assert delta[axis] == pytest.approx(grid.d)
    interior = interior_mask(grid)
    assert interior.sum() == 1 and interior[center]


def test_newtonian_constant_ball_center():
    """N(1) at the ball center is |x|<1 integral of 1/(4 pi r) = 1/2."""
    grid = VolumeGrid(unit_ball(), 16)
    F = np.ones((grid.count, 3), dtype=complex)
    out = newtonian_operator(grid).apply(F)
    center = np.argmin(np.linalg.norm(grid.centers, axis=1))
    assert np.real(out[center, 0]) == pytest.approx(0.5, rel=0.01)


def test_magnetization_constant_is_depolarization():
    """grad M applied to a constant field gives exactly the constant/3 at the
    center of a symmetric grid (the off-diagonal lattice sum cancels)."""
    # odd n so the grid has a cell exactly at the ball center
    grid = VolumeGrid(unit_ball(), 13)
    F = np.zeros((grid.count, 3), dtype=complex)
    F[:, 2] = 1.0
    out = magnetization_operator(grid).apply(F)
    center = np.argmin(np.linalg.norm(grid.centers, axis=1))
    assert np.real(out[center, 2]) == pytest.approx(1.0 / 3.0, rel=0.01)
    assert abs(out[center, 0]) < 1e-12


def test_helmholtz_identity_interior():
    """grad M + Curl Curl N = I on smooth interior fields."""
    grid = VolumeGrid(unit_ball(), 16)
    x = grid.centers
    bump = np.exp(-3.0 * np.einsum("ij,ij->i", x, x))
    F = np.zeros((grid.count, 3), dtype=complex)
    F[:, 0] = bump
    NF = newtonian_operator(grid).apply(F)
    curl1, v1 = discrete_curl(NF, grid)
    curl2, v2 = discrete_curl(curl1, grid)
    total = magnetization_operator(grid).apply(F) + curl2
    mask = interior_mask(grid, depth=2) & v1 & v2
    scale = np.max(np.abs(F))
    err = np.max(np.abs(total[mask] - F[mask])) / scale
    assert err < 0.06


def test_gradient_fields_in_magnetization_range():
    """For F = grad(harmonic), Curl N F is curl-free-ish, so grad M F ~ F on
    the interior (the Magnetization operator acts as identity on gradients
    of harmonic functions only in the spectral-average sense; here we just
    check the operator is symmetric and bounded by 1)."""
    grid = VolumeGrid(unit_ball(), 10)
    M = magnetization_operator(grid).dense()
    assert np.allclose(M, M.T, atol=1e-12)
    vals = np.linalg.eigvalsh(M)
    assert vals[0] > -0.2 and vals[-1] < 1.2


def test_magnetization_matrix_matches_apply():
    grid = VolumeGrid(unit_ball(), 8)
    M = magnetization_operator(grid).dense()
    rng = np.random.default_rng(2)
    F = rng.normal(size=(grid.count, 3))
    want = magnetization_operator(grid).apply(F.astype(complex))
    got = (M @ F.reshape(-1)).reshape(-1, 3)
    assert np.allclose(got, np.real(want), atol=1e-12)


def test_newtonian_norm_ball():
    """Largest Newtonian eigenvalue on the unit ball is 4/pi^2 (lowest
    Dirichlet Laplacian mode)."""
    grid = VolumeGrid(unit_ball(), 12)
    norm = newtonian_operator_norm(grid)
    assert norm == pytest.approx(4.0 / np.pi ** 2, rel=0.10)


@pytest.mark.parametrize("domain, n", [(unit_ball(), 12), (unit_box(), 16)])
def test_newtonian_norm_matches_lanczos(domain, n):
    """The power iteration's top eigenvalue against scipy's Lanczos eigsh
    on the same FFT apply, with the same volume rescaling on the ball."""
    grid = VolumeGrid(domain, n)
    op = LinearOperator((grid.count, grid.count), dtype=float,
                        matvec=newtonian_operator(grid).apply)
    want = float(eigsh(op, k=1, which="LA", return_eigenvectors=False)[0])
    if domain.kind == "ball":
        want *= (4.0 * np.pi / 3.0 / (grid.count * grid.weight)) \
            ** (2.0 / 3.0)
    assert newtonian_operator_norm(grid) == pytest.approx(want, rel=1e-10)


def test_newtonian_norm_names_a_spent_budget(monkeypatch):
    monkeypatch.setattr(lse, "NEWTONIAN_NORM_MAX_APPLIES", 1)
    with pytest.raises(RuntimeError, match="in 1 applies"):
        newtonian_operator_norm(VolumeGrid(unit_ball(), 12))


def test_dyadic_volume_operator_against_chunked_sum():
    grid = VolumeGrid(unit_ball(), 6)
    k = 1.3
    op = DyadicVolumeOperator(grid, k)
    rng = np.random.default_rng(4)
    F = rng.normal(size=(grid.count, 3)) + 1j * rng.normal(size=(grid.count, 3))
    got = op.apply(F)
    want = (DirectSumOperator(grid.centers, k).apply(F) * grid.weight
            + lse_self_scalar(grid, k) * F)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12)
    dense = op.dense()
    got2 = (dense @ F.reshape(-1)).reshape(-1, 3)
    assert np.allclose(got2, want, rtol=1e-10, atol=1e-12)


def test_lse_self_scalar_formula():
    grid = VolumeGrid(unit_box(), 4)
    k = 2.0
    got = lse_self_scalar(grid, k)
    want = (-1.0 / 3.0 + k * k * grid.r_eq ** 2 / 2.0
            + 1j * k ** 3 * grid.weight / (4 * np.pi))
    assert got == pytest.approx(want)


def test_lse_born_consistency():
    """For small xi the first Born iterate solves the LSE up to O(xi^2)."""
    grid = VolumeGrid(unit_box(), 8)
    k = 1.0
    wave = IncidentWave(k, (0, 0, 1), (1, 0, 0))
    from dielscat.foldylax import incident_magnetic_many
    rhs = 1j * k * incident_magnetic_many(wave, grid.centers)
    op = DyadicVolumeOperator(grid, k)
    defects = []
    for xi in (1e-3, 1e-4):
        contrast = effective_mu_ball(xi, "-") - np.eye(3)

        def lhs(H):
            # H - (G_k + sigma_k I)((mu - I) H)
            return H - op.apply(H @ contrast.T)

        born = rhs + (rhs - lhs(rhs))
        defect = lhs(born) - rhs
        defects.append(np.linalg.norm(defect) / np.linalg.norm(rhs))
    assert defects[1] == pytest.approx(defects[0] / 100.0, rel=0.05)


@pytest.mark.parametrize("domain", [unit_box(), unit_ball()])
def test_volume_grid_checks_its_memory_before_allocating(monkeypatch,
                                                         domain):
    """The bytes checked before the n^3 candidate cells are laid down cover
    the traced peak of building the grid (n = 20), and a host one byte
    short of them refuses the grid, naming n and the byte count."""
    checked = []
    monkeypatch.setattr(geometry, "require_memory",
                        lambda nbytes, what: checked.append(nbytes))
    tracemalloc.start()
    try:
        VolumeGrid(domain, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need, = checked
    assert peak <= need
    monkeypatch.undo()
    monkeypatch.setattr(tensors, "physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match="grid of n=20 .* needs %d bytes"
                       % need):
        VolumeGrid(domain, 20)
    monkeypatch.setattr(tensors, "physical_memory", lambda: need)
    VolumeGrid(domain, 20)


@pytest.mark.parametrize("mu, bound", [(1.4, 1e-3), (3.0, 1e-2)])
def test_quasistatic_ball_field_tends_to_clausius_mossotti(mu, bound):
    """At k -> 0 a constant field is an eigenfield of the continuum
    Magnetization operator on the ball, with eigenvalue 1/3, so the LSE
    field of a ball of permeability mu is 3 / (mu + 2) times the incident
    one.  The mean of H / (ik) along theta x p on ball grids n = 8 ... 20
    approaches it (measured: 8.6e-4 ... 4.8e-4 at mu = 1.4, 9.9e-3 ...
    5.4e-3 at mu = 3), and its error falls with n.  At mu < 0 the voxel
    LSE does not converge to it, so no such case is tested."""
    k = 1e-3
    wave = IncidentWave(k, (0, 0, 1), (1, 0, 0))
    want = 3.0 / (mu + 2.0)
    errors = []
    for n in (8, 12, 16, 20):
        grid = VolumeGrid(unit_ball(), n)
        H, res, _, _ = solve_effective_lse(grid, mu * np.eye(3), wave)
        assert res <= lse.LSE_KRYLOV_TOL
        errors.append(abs(np.mean(H[:, 1]) / (1j * k) - want) / want)
    assert max(errors) <= bound
    assert all(b < a for a, b in zip(errors, errors[1:]))


@pytest.mark.xfail(strict=True, reason="known limit: the voxel LSE does "
                   "not converge at mu < 0 (a kernel fix is still open)")
def test_negative_permeability_ball_field_tends_to_clausius_mossotti():
    """At mu = -1.5 the k=0 LSE field of a constant incident field on the
    ball should also tend to 3 / (mu + 2) = 6 times it.  The exact k=0
    inverse I + (mu - 1) M, from the block eigensystem, gives a mean field
    whose relative error reads 0.049, 0.12, 1.24 and 0.088 at n = 8, 12,
    16 and 20: it does not fall below 1e-2, nor monotonically."""
    mu = -1.5
    want = 3.0 / (mu + 2.0)
    errors = []
    for n in (8, 12, 16, 20):
        grid = VolumeGrid(unit_ball(), n)
        field = np.zeros((grid.count, 3), dtype=complex)
        field[:, 0] = 1.0
        H = magnetization_eigensystem(grid).inverse(mu - 1.0)(field)
        errors.append(abs(np.mean(H.reshape(-1, 3)[:, 0]) - want) / want)
    assert errors[-1] < 1e-2
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_solve_effective_lse_refuses_an_unresolved_grid():
    """Cells of side d resolve k only while k d < pi (two cells per
    wavelength): at k d = pi the solve raises, naming k and the side,
    before any operator is built; just below it, it solves."""
    grid = VolumeGrid(unit_box(), 4)
    mu = effective_mu_ball(2.0, "-")
    k = np.pi / grid.d
    with pytest.raises(ValueError, match=r"^k = 12\.5664 is not resolved by "
                       r"cells of side 0\.25 \(k side = 3\.14 >= pi\)$"):
        solve_effective_lse(grid, mu, IncidentWave(k, (0, 0, 1), (1, 0, 0)))
    _, res, _, _ = solve_effective_lse(
        grid, mu, IncidentWave(0.99 * k, (0, 0, 1), (1, 0, 0)))
    assert res <= lse.LSE_KRYLOV_TOL


def test_solve_effective_lse_dense_vs_cocg(monkeypatch):
    """216 cells at xi = 2, "-": COCG stops after 14 matvecs.  The
    FOLDYLAX_DOC scales (a = 0.05, c_r = 1, "+") couple more strongly, and
    COCG still converges on the same grid in 14; with a budget of 3
    matvecs, two iterations and a true residual, it fails, the dense LU
    solves that system, and the two match.  Each solve reports its path
    and matvec count."""
    grid = VolumeGrid(unit_box(), 6)
    wave = IncidentWave(1.2, (0, 0, 1), (1, 0, 0))
    _, rg, path, matvecs = solve_effective_lse(
        grid, effective_mu_ball(2.0, "-"), wave)
    assert (path, matvecs) == ("cocg", 14)
    assert rg <= 1e-7
    sc = derive_scales(0.05, 0.9, 1.0, 1.0, "+", 1.0, 0.4)
    xi = coupling_xi(sc.eta0, sc.k, sc.c0, sc.c_r)
    mu = effective_mu(xi, p0_ball(), sc.sign)
    wave = IncidentWave(sc.k, (0, 0, 1), (1, 0, 0))
    Hg, rg, path, matvecs = solve_effective_lse(grid, mu, wave)
    assert (path, matvecs) == ("cocg", 14)
    monkeypatch.setattr(lse, "LSE_KRYLOV_BUDGET", 3)
    Hd, rd, path, matvecs = solve_effective_lse(grid, mu, wave)
    assert (path, matvecs) == ("dense", 3)
    assert rd <= 1e-10
    assert rg <= 1e-7
    assert np.linalg.norm(Hd - Hg) / np.linalg.norm(Hd) <= 1e-6


def test_effective_far_field_transversality():
    grid = VolumeGrid(unit_box(), 6)
    k, mu = 1.2, effective_mu_ball(2.0, "-")
    wave = IncidentWave(k, (0, 0, 1), (1, 0, 0))
    H, _, _, _ = solve_effective_lse(grid, mu, wave)
    far = effective_far_field(H, grid, mu, k, direction_grid())
    assert far.max_transversality_defect() <= 1e-12
    assert far.sup_norm() > 0


def test_discrete_divergence_of_gradient_field():
    grid = VolumeGrid(unit_box(), 10)
    x = grid.centers - 0.5
    # F = grad(x y z) = (yz, xz, xy) is divergence free
    F = np.stack([x[:, 1] * x[:, 2], x[:, 0] * x[:, 2],
                  x[:, 0] * x[:, 1]], axis=1).astype(complex)
    div, valid = discrete_divergence(F, grid)
    assert np.max(np.abs(div[valid])) < 1e-12
    curl, vc = discrete_curl(F, grid)
    assert np.max(np.abs(curl[vc])) < 1e-12


def test_harmonic_polynomial_dimensions():
    for degree in range(1, 9):
        exps, coeffs = harmonic_polynomial_coefficients(degree)
        assert coeffs.shape[1] == 2 * degree + 1
        # verify harmonicity at random points by finite differences
        rng = np.random.default_rng(degree)
        pts = rng.uniform(-0.5, 0.5, size=(5, 3))
        h = 1e-3
        for v in coeffs.T[:2]:
            def poly(p):
                return sum(c * p[0] ** a * p[1] ** b * p[2] ** cc
                           for c, (a, b, cc) in zip(v, exps))
            for p in pts:
                lap = 0.0
                for i in range(3):
                    e = np.zeros(3)
                    e[i] = h
                    lap += (poly(p + e) - 2 * poly(p) + poly(p - e)) / h ** 2
                assert abs(lap) < 1e-4


@pytest.mark.parametrize("lmax", [1, 2, 3, 7])
@pytest.mark.parametrize("domain, n", [(unit_ball(), 8), (unit_box(), 6)])
def test_harmonic_gradient_basis_is_nested_and_harmonic(domain, n, lmax):
    """The basis has lmax (lmax + 2) unit columns of full rank, degree l in
    columns l^2 - 1 ... l^2 + 2l - 1, so it opens with the basis of
    lmax - 1 bit for bit.  Degree 1 is the three constant fields and degree
    2 the fields S x of a symmetric traceless S; each field of degree 3 or
    less is at most quadratic, so centred differences differentiate it
    exactly, and has zero divergence and curl to round-off: the gradient of
    a harmonic polynomial."""
    grid = VolumeGrid(domain, n)
    V = harmonic_gradient_basis(grid, lmax)
    b = lmax * (lmax + 2)
    assert V.shape == (3 * grid.count, b) and V.dtype == np.float64
    np.testing.assert_allclose(np.linalg.norm(V, axis=0), 1.0, rtol=1e-14)
    assert np.linalg.matrix_rank(V) == b
    np.testing.assert_array_equal(V[:, :(lmax - 1) * (lmax + 1)],
                                  harmonic_gradient_basis(grid, lmax - 1))
    fields = V.T.reshape(b, grid.count, 3)
    for F in fields[:3]:
        assert np.max(np.abs(F - F[0])) <= 1e-15
    x = grid.centers - np.mean(grid.centers, axis=0)
    for F in fields[3:8]:
        S = np.linalg.lstsq(x, F, rcond=None)[0]
        scale = np.max(np.abs(S))
        assert np.max(np.abs(x @ S - F)) <= 1e-13 * np.max(np.abs(F))
        assert np.max(np.abs(S - S.T)) <= 1e-12 * scale
        assert abs(np.trace(S)) <= 1e-12 * scale
    for F in fields[:15]:
        div, valid = discrete_divergence(F, grid)
        curl, _ = discrete_curl(F, grid)
        assert np.any(valid)
        bound = 1e-12 * np.max(np.abs(F)) / grid.d
        assert np.max(np.abs(div[valid])) <= bound
        assert np.max(np.abs(curl[valid])) <= bound


def test_magnetization_spectrum_gradient_mode():
    grid = VolumeGrid(unit_ball(), 12)
    vals, raw_count = magnetization_spectrum(grid, mode="gradient", lmax=6)
    assert raw_count >= vals.size
    assert np.all(vals > 0.25) and np.all(vals < 0.75)
    assert np.min(np.abs(vals - 1.0 / 3.0)) < 0.03
    # analytic ball band is l/(2l+1), increasing towards 1/2
    assert vals[-1] < 0.6


def test_magnetization_spectrum_requires_resolution():
    with pytest.raises(ValueError):
        magnetization_spectrum(VolumeGrid(unit_ball(), 8))


def test_select_resonant_eigenvalue(ball10):
    grid, system, _ = ball10
    lam, weight, degeneracy = select_resonant_eigenvalue(system)
    assert lam > 1.0 / 3.0
    assert weight > 0.0
    assert degeneracy >= 1


def test_weighted_norm():
    grid = VolumeGrid(unit_ball(), 10)
    F = np.ones((grid.count, 3), dtype=complex)
    assert weighted_norm(F, grid) == pytest.approx(
        np.sqrt(3.0 * grid.count * grid.weight))


def test_dense_memory_check_refuses_before_allocating():
    """A (3C)^2 matrix past physical memory is refused at once, by name."""
    grid = VolumeGrid(unit_ball(), 64)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="C=%d cells" % grid.count):
        magnetization_operator(grid).dense()
    assert time.perf_counter() - t0 < 1.0


def test_cli_reports_oversized_dense_spectrum(tmp_path, capsys):
    """The full spectrum at ball n=64 is refused by the block
    eigendecomposition's memory check, at once and by name."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"grid_n": 64, "mode": "full"}))
    t0 = time.perf_counter()
    assert main(["spectrum", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1
    assert time.perf_counter() - t0 < 2.0
    assert "block eigendecomposition on C=137376" in capsys.readouterr().err


class BasisReached(Exception):
    """Raised in place of the gradient basis or an operator apply."""


@pytest.mark.parametrize("domain, n, lmax", [
    (unit_ball(), 12, 1), (unit_ball(), 12, 8), (unit_box(), 12, 3),
    (unit_ball(), 16, 12)])
def test_gradient_spectrum_checks_its_memory_before_the_basis(
        monkeypatch, domain, n, lmax):
    """The bytes checked before the gradient basis is built cover the
    traced peak of the gradient spectrum (the Magnetization operator's
    arrays, which the operator checks as it is built, made before the
    trace).  A host one byte short of them refuses the spectrum, naming
    lmax and the byte count, before the basis is built or the operator
    applied; a host with exactly that many goes on to build the basis."""
    grid = VolumeGrid(domain, n)
    op = magnetization_operator(grid)
    op.apply(np.zeros((grid.count, 3)))
    monkeypatch.setattr(lse, "magnetization_operator", lambda grid: op)
    checked = []
    monkeypatch.setattr(lse, "require_memory",
                        lambda nbytes, what: checked.append(nbytes))
    tracemalloc.start()
    try:
        magnetization_spectrum(grid, mode="gradient", lmax=lmax)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need, = checked
    assert peak <= need
    monkeypatch.undo()

    def reach(*args):
        raise BasisReached

    monkeypatch.setattr(lse, "harmonic_gradient_basis", reach)
    monkeypatch.setattr(tensors.LatticeOperator, "apply", reach)
    monkeypatch.setattr(tensors, "physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match="lmax=%d on C=%d cells needs %d "
                       "bytes" % (lmax, grid.count, need)):
        magnetization_spectrum(grid, mode="gradient", lmax=lmax)
    monkeypatch.setattr(tensors, "physical_memory", lambda: need)
    with pytest.raises(BasisReached):
        magnetization_spectrum(grid, mode="gradient", lmax=lmax)


def test_cli_refuses_an_lmax_larger_than_memory(tmp_path, capsys,
                                                monkeypatch):
    """spectrum with an lmax whose gradient basis does not fit exits 1 at
    once, naming lmax and the byte count, with no operator applied."""
    grid = VolumeGrid(unit_ball(), 12)
    checked = []
    monkeypatch.setattr(lse, "require_memory",
                        lambda nbytes, what: checked.append(nbytes))
    magnetization_spectrum(grid, mode="gradient", lmax=8)
    need, = checked
    monkeypatch.undo()

    def refuse(*args):
        raise AssertionError("operator applied")

    monkeypatch.setattr(tensors.LatticeOperator, "apply", refuse)
    monkeypatch.setattr(tensors, "physical_memory", lambda: need - 1)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"grid_n": 12, "lmax": 8}))
    assert main(["spectrum", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1
    assert "gradient basis of lmax=8 on C=%d cells needs %d bytes" % (
        grid.count, need) in capsys.readouterr().err


@pytest.mark.parametrize("domain", [unit_ball(), unit_box()])
def test_full_spectrum_matches_dense_eigvalsh(domain):
    """mode="full" reads the block eigensystem; the dense oracle is every
    eigenvalue of the (3C)^2 Magnetization matrix, under the same filter."""
    grid = VolumeGrid(domain, 12)
    want = np.linalg.eigvalsh(magnetization_operator(grid).dense())
    tol = lse.SPECTRUM_EDGE_TOL
    want = want[(want > tol) & (want < 1.0 - tol)]
    vals, raw_count = magnetization_spectrum(grid, mode="full")
    assert raw_count == 3 * grid.count
    assert vals.size == want.size
    assert np.max(np.abs(vals - want)) <= 1e-12


def test_cli_full_spectrum_at_the_default_grid(tmp_path):
    """spectrum in full mode at the default grid_n=20 (ball, C = 4,224):
    every one of the 3C eigenvalues, in seconds."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"mode": "full"}))
    out = tmp_path / "out"
    t0 = time.perf_counter()
    assert main(["spectrum", "--config", str(cfg), "--out", str(out),
                 "--format", "json"]) == 0
    assert time.perf_counter() - t0 < 10.0
    doc = json.loads((out / "spectrum_results.json").read_text())
    assert doc["meta"]["raw_count"] == 12672
    assert doc["meta"]["mode"] == "full"


def test_spectra_and_newtonian_norm_run_without_importing_scipy(tmp_path):
    """A fresh interpreter computes the Newtonian norm and the full
    spectrum without loading scipy."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"mode": "full", "grid_n": 12}))
    script = ("import sys\n"
              "from dielscat import cli, lse\n"
              "from dielscat.geometry import unit_ball\n"
              "lse.newtonian_operator_norm(lse.VolumeGrid(unit_ball(), 12))\n"
              "assert cli.main(['spectrum', '--config', sys.argv[1],\n"
              "                 '--out', sys.argv[2]]) == 0\n"
              "assert 'scipy' not in sys.modules, sorted(\n"
              "    m for m in sys.modules if m.startswith('scipy'))[:5]\n")
    src = os.path.dirname(os.path.dirname(dielscat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(cfg),
                           str(tmp_path / "out")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _pointwise_volume_matrix(grid, block, self_term, m=3):
    n = grid.count
    A = np.zeros((n, m, n, m), dtype=complex)
    for i in range(n):
        A[i, :, i, :] = self_term * np.eye(m)
        for j in range(n):
            if i != j:
                A[i, :, j, :] = grid.weight * block(grid.centers[i],
                                                    grid.centers[j])
    return A.reshape(m * n, m * n)


@pytest.mark.parametrize("k", [0.0, 1.3])
def test_volume_operators_match_pointwise_sums(k):
    """Each volume operator's FFT apply against a double loop of the
    pointwise kernels, with its weight and self-cell term: the LSE kernel
    at k, and the static Newtonian and Magnetization operators at k = 0."""
    grid = VolumeGrid(unit_ball(), 5)
    cases = [(DyadicVolumeOperator(grid, k).apply,
              lambda x, z: dyadic_green(x, z, k), lse_self_scalar(grid, k))]
    if k == 0.0:
        cases += [
            (newtonian_operator(grid).apply,
             lambda x, z: helmholtz_kernel(x, z, 0.0) * np.eye(3),
             grid.r_eq ** 2 / 2.0),
            (magnetization_operator(grid).apply,
             lambda x, z: -dyadic_green(x, z, 0.0), 1.0 / 3.0)]
    rng = np.random.default_rng(21)
    F = rng.normal(size=(grid.count, 3)) + 1j * rng.normal(
        size=(grid.count, 3))
    for apply, block, self_term in cases:
        want = (_pointwise_volume_matrix(grid, block, self_term)
                @ F.reshape(-1)).reshape(-1, 3)
        got = apply(F)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    dense = DyadicVolumeOperator(grid, k).dense()
    want = _pointwise_volume_matrix(grid, lambda x, z: dyadic_green(x, z, k),
                                    lse_self_scalar(grid, k))
    assert np.max(np.abs(dense - want)) <= 1e-12 * np.max(np.abs(want))


def volume_operator(grid, name, k):
    """A study's volume operator on the grid, its kernel at a pair of
    points as an m x m block, and its self-cell term."""
    if name == "newtonian":
        return (newtonian_operator(grid),
                lambda x, z: np.reshape(helmholtz_kernel(x, z, 0.0), (1, 1)),
                grid.r_eq ** 2 / 2.0)
    if name == "magnetization":
        return (magnetization_operator(grid),
                lambda x, z: -dyadic_green(x, z, 0.0), 1.0 / 3.0)
    return (DyadicVolumeOperator(grid, k), lambda x, z: dyadic_green(x, z, k),
            lse_self_scalar(grid, k))


@pytest.mark.parametrize("domain, n", [(unit_box(), 4), (unit_ball(), 5),
                                       (unit_ball(), 6)])
@pytest.mark.parametrize("name, k", [("newtonian", 0.0),
                                     ("magnetization", 0.0), ("lse", 0.0),
                                     ("lse", 1.3)])
def test_volume_operator_dense_is_the_pointwise_matrix(name, k, domain, n):
    """dense() of the static Newtonian and Magnetization operators and of
    the LSE kernel at k = 0 and 1.3 equals the double loop of the pointwise
    kernel, with the operator's weight and self-cell term, to 1e-12 of its
    largest entry, on box n = 4 and ball n = 5 and 6 grids.  The static
    operators are float64 (the LSE's self term is complex at every k), and
    apply to a real field equals dense() @ F in dense()'s dtype."""
    grid = VolumeGrid(domain, n)
    op, block, self_term = volume_operator(grid, name, k)
    want = _pointwise_volume_matrix(grid, block, self_term, op.m)
    dense = op.dense()
    assert dense.dtype == (np.complex128 if name == "lse" else np.float64)
    assert np.max(np.abs(dense - want)) <= 1e-12 * np.max(np.abs(want))
    F = np.random.default_rng(n).normal(size=(grid.count, 3))
    got = op.apply(F)
    ref = (dense @ F.reshape(-1)).reshape(-1, 3) if op.m == 3 else dense @ F
    assert got.dtype == dense.dtype
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def mrrr_resonant_eigenvalue(grid, min_above=5e-3, degeneracy_tol=1e-9):
    """The resonant-eigenvalue selection on scipy's default MRRR eigh."""
    vals, vecs = eigh(magnetization_operator(grid).dense(), driver="evr")
    C = grid.count
    weight = sum((vecs[d::3].sum(axis=0) / np.sqrt(C)) ** 2 for d in range(3))
    best = None
    for lam in np.unique(np.round(vals[vals > 1.0 / 3.0 + min_above]
                                  / degeneracy_tol)):
        members = np.abs(vals - lam * degeneracy_tol) < degeneracy_tol
        w = float(weight[members].sum())
        if best is None or w > best[1]:
            best = (float(vals[members][0]), w, int(members.sum()))
    return best


def looped_resonant_eigenvalue(system):
    """The resonant-eigenvalue selection as one pass over every eigenvalue
    per distinct rounded value above the threshold."""
    basis = system.basis
    const_x = np.zeros((3 * basis.count, 1))
    const_x[0::3] = 1.0 / np.sqrt(basis.count)
    overlap = system.vectors["T1u"].T @ basis.block(
        basis.forward(const_x), "T1u")[:, 0, 0]
    vals = np.concatenate([np.tile(lam, basis.dims[name])
                           for name, lam in system.values.items()])
    weight = np.concatenate([
        np.tile(overlap ** 2 if name == "T1u" else 0.0 * lam,
                basis.dims[name]) for name, lam in system.values.items()])
    order = np.argsort(vals, kind="stable")
    vals, weight = vals[order], weight[order]
    best = None
    for lam in np.unique(np.round(vals[vals > 1.0 / 3.0 + RESONANT_MIN_ABOVE]
                                  / DEGENERACY_TOL)):
        members = np.abs(vals - lam * DEGENERACY_TOL) < DEGENERACY_TOL
        w = float(weight[members].sum())
        if best is None or w > best[1]:
            best = (float(vals[members][0]), w, int(members.sum()))
    return best


@pytest.mark.parametrize("n", [10, 11, 12, 13, 14])
def test_multiplets_grouped_in_one_pass_match_the_loop(eigensystems, n):
    _, system = eigensystems(unit_ball(), n)
    lam, weight, degeneracy = select_resonant_eigenvalue(system)
    want = looped_resonant_eigenvalue(system)
    assert (lam, degeneracy) == (want[0], want[2])
    assert abs(weight - want[1]) <= 1e-15


@pytest.mark.parametrize("domain, n", [(unit_ball(), 10), (unit_box(), 8)])
def test_select_resonant_eigenvalue_matches_mrrr_oracle(eigensystems, domain,
                                                       n):
    grid, system = eigensystems(domain, n)
    lam, weight, degeneracy = select_resonant_eigenvalue(system)
    want = mrrr_resonant_eigenvalue(grid)
    assert lam == pytest.approx(want[0], rel=1e-12)
    assert weight == pytest.approx(want[1], rel=1e-12)
    assert degeneracy == want[2]


# the scan's wave and scales: normal incidence and the quasi-static k
SCAN_CONFIG = {"theta": (0, 0, 1), "p": (1, 0, 0), "eta0": 1e9,
               "lambda_b": 0.4}


def _resonance_problem(lam, beta, eta0):
    """(mu, wave) of one detuning of the resonance scan."""
    xi = detuned_xi(lam, beta)
    k = float(np.sqrt(plasmonic_frequency(eta0, 0.4, lam, beta)[0]))
    wave = IncidentWave(k, (0, 0, 1), (1, 0, 0))
    return effective_mu_ball(xi, "-"), wave


def test_resonance_scan_matches_dense_solve(ball10, monkeypatch):
    """Every detuning's preconditioned COCG solve against the dense LU.

    At the quasi-static k the exact k=0 inverse leaves COCG one iteration
    to do, so a budget of 7 matvecs is allowed: each solve takes the COCG
    path in three matvecs (the start's residual, one iteration and the
    true residual), and not the LU that a failed COCG falls back to."""
    grid, system, lam = ball10
    monkeypatch.setattr(lse, "LSE_KRYLOV_BUDGET", 7)
    solve = lse.solve_effective_lse
    solves = []

    def recording_solve(*args, **kwargs):
        H, res, path, matvecs = solve(*args, **kwargs)
        solves.append((args, H, res, path, matvecs))
        return H, res, path, matvecs

    monkeypatch.setattr(lse, "solve_effective_lse", recording_solve)
    betas = [1e-3, -1e-3, 1e-2, -1e-2]
    rows = resonance_amplification_scan(grid, system, lam, betas,
                                        SCAN_CONFIG)
    assert [r["status"] for r in rows] == ["ok"] * len(betas)
    assert len(solves) == len(betas)
    for args, H, res, path, matvecs in solves:
        assert (path, matvecs) == ("cocg", 3)
        Hd, _, _, _ = solve(*args)
        assert res <= 1e-9
        assert np.linalg.norm(H - Hd) <= 1e-8 * np.linalg.norm(Hd)
    slope = _fit_slope([abs(r["beta"]) for r in rows],
                       [r["field_norm"] for r in rows])
    assert slope == pytest.approx(-1.0, abs=0.05)


def test_preconditioned_lse_converges_off_the_quasistatic_limit(ball10,
                                                                monkeypatch):
    """eta0 = 1 gives k ~ 1.6, where A(k) is far from A(0): COCG needs 86
    matvecs (GMRES needed over a hundred), and it converges within a
    budget of 303, on the COCG path and not the LU that a failed COCG
    falls back to.  It stops at relative residual 1e-8, which near the
    resonance A's conditioning amplifies in the field by well under
    100.  The count is 87 under one BLAS thread: the k=0 preconditioner
    comes from eigh, whose rounding differs with the thread count."""
    grid, system, lam = ball10
    monkeypatch.setattr(lse, "LSE_KRYLOV_BUDGET", 303)
    mu, wave = _resonance_problem(lam, 1e-3, eta0=1.0)
    assert wave.k > 1.5
    H, res, path, matvecs = solve_effective_lse(grid, mu, wave,
                                                eigensystem=system)
    assert path == "cocg" and matvecs in (86, 87)
    Hd, _, _, _ = solve_effective_lse(grid, mu, wave)
    assert res <= 1e-8
    assert np.linalg.norm(H - Hd) <= 1e-6 * np.linalg.norm(Hd)


def test_resonance_scan_marks_the_exact_root_failed(ball10, monkeypatch):
    """At beta = 0 the k=0 operator is singular: the row fails, no NaN.
    With the dense limit at 0 no LU stands behind COCG, so the ok row at
    beta = 1e-3 is one that the preconditioned COCG solved."""
    grid, system, lam = ball10
    monkeypatch.setattr(lse, "LSE_KRYLOV_BUDGET", 7)
    monkeypatch.setattr(linalg, "DENSE_LIMIT", 0)
    rows = resonance_amplification_scan(grid, system, lam, [0.0, 1e-3],
                                        SCAN_CONFIG)
    assert rows[0]["status"].startswith("failed: ")
    assert "singular" in rows[0]["status"] and "field_norm" not in rows[0]
    assert rows[1]["status"] == "ok"


def test_preconditioned_lse_raises_on_cocg_failure(ball10, monkeypatch):
    """A preconditioned COCG that fails falls back to the dense LU on the
    552 cells, as an unpreconditioned one does; with the dense limit at 0
    the failure raises, and so does a COCG that returns a NaN x."""
    grid, eigensystem, lam = ball10
    mu, wave = _resonance_problem(lam, 1e-3, eta0=1.0)
    monkeypatch.setattr(lse, "LSE_KRYLOV_BUDGET", 4)
    _, res, path, matvecs = solve_effective_lse(grid, mu, wave,
                                                eigensystem=eigensystem)
    # the start's residual, two iterations and the true residual
    assert (path, matvecs) == ("dense", 4) and res <= 1e-12
    monkeypatch.setattr(linalg, "DENSE_LIMIT", 0)
    with pytest.raises(RuntimeError, match="COCG failed"):
        solve_effective_lse(grid, mu, wave, eigensystem=eigensystem)
    monkeypatch.setattr(linalg, "cocg",
                        lambda op, b, **kw: (np.full_like(b, np.nan), 0,
                                             np.nan))
    with pytest.raises(RuntimeError, match="COCG failed"):
        solve_effective_lse(grid, mu, wave, eigensystem=eigensystem)


@pytest.mark.parametrize("preconditioned", [True, False])
def test_preconditioned_lse_needs_scalar_mu(ball10, preconditioned,
                                            monkeypatch):
    """Only a scalar mu = m I makes the LSE system complex symmetric, as
    COCG needs it, and the k=0 preconditioner inverts A(0) for a scalar m:
    a mu that is not one raises ValueError naming mu - I, with or without
    the eigensystem, before any kernel is built or applied."""
    grid, system, lam = ball10
    eigensystem = system if preconditioned else None
    mu, wave = _resonance_problem(lam, 1e-3, eta0=1e9)
    mu = mu.copy()
    mu[0, 0] *= 1.5

    def refuse(*args, **kwargs):
        raise AssertionError("kernel built")

    monkeypatch.setattr(lse, "DyadicVolumeOperator", refuse)
    with pytest.raises(ValueError,
                       match=r"^mu - I must be a scalar multiple of I$"):
        solve_effective_lse(grid, mu, wave, eigensystem=eigensystem)


def test_eigensystem_memory_check_counts_blocks_rows_and_basis(monkeypatch):
    """The block eigen-solve keeps its eigenvectors and needs eigh's
    workspace, one chunk of representative rows and the orbit bases too:
    a limit that the block eigenvectors alone fit is refused at once,
    before any row of a grid of 137,376 cells is gathered."""
    grid = VolumeGrid(unit_ball(), 64)
    basis = SymmetryBasis(grid.ijk)
    vectors = sum(m * m for m in basis.orders.values()) * 8
    monkeypatch.setattr(tensors, "physical_memory", lambda: vectors + 1)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="C=%d cells" % grid.count):
        magnetization_eigensystem(grid)
    assert time.perf_counter() - t0 < 1.0


class GatherReached(Exception):
    """Raised in place of the first gather of operator rows."""


def test_eigensystem_memory_check_fits_ball_40_in_3_5_gb(monkeypatch):
    """Ball n=40 (C = 33,552, blocks up to order 6,402): the blocks, the
    largest eigh's workspace and one chunk of rows fit in 3.5 GB, so the
    solve passes its memory check and goes on to gather rows; with 1.5 GB
    it is refused at once, by name."""
    grid = VolumeGrid(unit_ball(), 40)

    def stop(self, cells=None):
        raise GatherReached

    monkeypatch.setattr(tensors.LatticeOperator, "dense", stop)
    monkeypatch.setattr(tensors, "physical_memory", lambda: 3.5e9)
    with pytest.raises(GatherReached):
        magnetization_eigensystem(grid)
    monkeypatch.setattr(tensors, "physical_memory", lambda: 1.5e9)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="C=33552 cells"):
        magnetization_eigensystem(grid)
    assert time.perf_counter() - t0 < 2.0


def dense_eigensystem(grid):
    """The full divide-and-conquer eigh (LAPACK dsyevd) of the k=0
    Magnetization matrix: the oracle of the block eigensystem."""
    return eigh(magnetization_operator(grid).dense(), driver="evd")


def block_spectrum(system):
    """Every block eigenvalue, repeated by its irrep's dimension, sorted."""
    return np.sort(np.concatenate([np.tile(v, system.basis.dims[name])
                                   for name, v in system.values.items()]))


@pytest.mark.parametrize("domain, n", [(unit_ball(), 10), (unit_ball(), 11),
                                       (unit_box(), 8)])
def test_block_eigensystem_matches_dense_eigh(eigensystems, domain, n):
    """The block spectrum counted with multiplicity is the full spectrum,
    and the block (I + c M)^-1 is V diag(1 / (1 + c lambda)) V^T."""
    grid, system = eigensystems(domain, n)
    vals, vecs = dense_eigensystem(grid)
    assert np.max(np.abs(block_spectrum(system) - vals)) <= 1e-12
    rng = np.random.default_rng(n)
    y = rng.normal(size=(3 * grid.count, 2)) @ np.array([1.0, 1j])
    for c in (-2.3, -1.0 / 0.37, 0.7 - 0.2j):
        want = vecs @ ((vecs.T @ y) / (1.0 + c * vals))
        got = system.inverse(c)(y)
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


def test_block_inverse_refuses_a_singular_coupling(ball10):
    _, system, _ = ball10
    lam = system.values["T1u"][-5]
    with pytest.raises(RuntimeError, match="singular"):
        system.inverse(-1.0 / lam)


def test_block_inverse_is_complex_symmetric(ball10):
    """COCG's preconditioner must be complex symmetric: u^T M^-1 v =
    v^T M^-1 u for the k=0 inverse at a complex contrast, on random
    complex u and v, since M^-1 = V diag(1 / (1 + c lambda)) V^T with a
    real V."""
    grid, system, _ = ball10
    rng = np.random.default_rng(5)
    u, v = (rng.normal(size=3 * grid.count)
            + 1j * rng.normal(size=3 * grid.count) for _ in range(2))
    inverse = system.inverse(0.7 - 0.2j)
    uv, vu = u @ inverse(v), v @ inverse(u)
    assert abs(uv - vu) <= 1e-12 * abs(uv)


class WrongContrastEigensystem:
    """The k=0 preconditioner built for ten times its contrast."""

    def __init__(self, system):
        self.system = system

    def inverse(self, c):
        return self.system.inverse(10.0 * c)


def test_wrong_preconditioner_fails_within_the_matvec_budget(eigensystems,
                                                            monkeypatch):
    """A k=0 preconditioner for ten times the contrast stalls COCG: with
    the dense limit at 0, so that no LU follows, the solve raises after
    its budget of 1,111 matvecs, naming them and its residual, in seconds
    instead of running ~10^6 matvecs (ball n=8: about 0.4 ms a matvec on 2
    cores).  A wrong-sign preconditioner, which stalled GMRES, only slows
    COCG, to 385 matvecs."""
    grid, system = eigensystems(unit_ball(), 8)
    monkeypatch.setattr(linalg, "DENSE_LIMIT", 0)
    lam = select_resonant_eigenvalue(system)[0]
    mu, wave = _resonance_problem(lam, 1e-3, eta0=1e9)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"COCG failed after 1111 matvecs "
                       r"\(budget 1111\), relative residual"):
        solve_effective_lse(grid, mu, wave,
                            eigensystem=WrongContrastEigensystem(system))
    assert time.perf_counter() - t0 < 5.0


def test_k0_preconditioned_cocg_solves_where_gmres_failed(eigensystems,
                                                          monkeypatch):
    """The exact k=0 inverse does not help at every k and mu: at ball n=8,
    k = 2.5 and mu = 100, where the preconditioned GMRES(100) exhausted
    its budget and the dense LU followed, the preconditioned COCG
    converges in 734 matvecs, about twice the 409 that COCG takes without
    the preconditioner.  Both match the dense LU, which a budget of 2
    matvecs forces, to the stopping tolerance 1e-8."""
    grid, system = eigensystems(unit_ball(), 8)
    wave = IncidentWave(2.5, (0, 0, 1), (1, 0, 0))
    mu = 100.0 * np.eye(3)
    H, res, path, matvecs = solve_effective_lse(grid, mu, wave,
                                                eigensystem=system)
    assert (path, matvecs) == ("cocg", 734) and res <= lse.LSE_KRYLOV_TOL
    Hu, res, path, matvecs = solve_effective_lse(grid, mu, wave)
    assert (path, matvecs) == ("cocg", 409) and res <= lse.LSE_KRYLOV_TOL
    monkeypatch.setattr(lse, "LSE_KRYLOV_BUDGET", 2)
    Hd, res, path, _ = solve_effective_lse(grid, mu, wave)
    assert path == "dense" and res <= 1e-12
    for got in (H, Hu):
        assert np.linalg.norm(got - Hd) <= 1e-8 * np.linalg.norm(Hd)


def test_strongly_coupled_box_lse_converges_without_the_lu(monkeypatch):
    """The lse study at c_r = 0.7 on box grid_n = 8 (512 cells, mu = 22.4,
    k = 1.53): GMRES(100) spent its 1,111 matvecs there and the dense LU
    followed; COCG converges in 477, and matches the LU, which a budget of
    2 matvecs forces, within the stopping tolerance 1e-8 (7.9e-9)."""
    sc = derive_scales(0.05, 0.9, 1.0, 1.0, "+", 0.7, 0.4)
    xi = coupling_xi(sc.eta0, sc.k, sc.c0, sc.c_r)
    mu = effective_mu(xi, p0_ball(), sc.sign)
    grid = VolumeGrid(unit_box(), 8)
    wave = IncidentWave(sc.k, (0, 0, 1), (1, 0, 0))
    H, res, path, matvecs = solve_effective_lse(grid, mu, wave)
    assert (path, matvecs) == ("cocg", 477) and res <= lse.LSE_KRYLOV_TOL
    monkeypatch.setattr(lse, "LSE_KRYLOV_BUDGET", 2)
    Hd, res, path, _ = solve_effective_lse(grid, mu, wave)
    assert path == "dense" and res <= 1e-12
    assert np.linalg.norm(H - Hd) <= 1e-8 * np.linalg.norm(Hd)


SYMMETRY_OPS = [np.array(R) for R in (
    [[0, 1, 0], [0, 0, 1], [1, 0, 0]],        # rotation by 120 deg
    [[1, 0, 0], [0, 1, 0], [0, 0, -1]],       # mirror z -> -z
    [[0, -1, 0], [1, 0, 0], [0, 0, -1]],      # rotoreflection S4
    [[0, 0, -1], [0, -1, 0], [-1, 0, 0]])]    # mirror with axis swap


def test_resonance_scan_is_invariant_under_the_cube_group(ball10):
    """The ball grid is O_h-invariant, so incidence (R theta, R p) gives
    the field R H(R^-1 x) (times det R, H being a pseudovector) and the
    same norms and far-field sup over the O_h-invariant direction set."""
    grid, system, lam = ball10
    theta = np.array([0.6, 0.0, 0.8])
    p = np.array([0.0, 1.0, 0.0])
    betas = [1e-3, -1e-2]
    keys = ("field_norm", "far_sup", "incident_ratio")
    base = resonance_amplification_scan(
        grid, system, lam, betas, dict(SCAN_CONFIG, theta=theta, p=p))
    for R in SYMMETRY_OPS:
        rows = resonance_amplification_scan(
            grid, system, lam, betas,
            dict(SCAN_CONFIG, theta=R @ theta, p=R @ p))
        for want, got in zip(base, rows):
            assert got["status"] == "ok"
            for key in keys:
                assert got[key] == pytest.approx(want[key], rel=1e-9)
