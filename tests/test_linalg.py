import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import gmres as scipy_gmres

import dielscat
from dielscat import linalg, tensors
from dielscat.effective import (detuned_xi, effective_mu_ball, p0_ball,
                                plasmonic_frequency)
from dielscat.foldylax import IncidentWave, assemble_and_solve
from dielscat.geometry import derive_scales, generate_cluster, unit_ball, \
    unit_box
from dielscat.lse import (DyadicVolumeOperator, VolumeGrid,
                          magnetization_eigensystem, magnetization_operator,
                          select_resonant_eigenvalue, solve_effective_lse)


# the numpy GMRES itself, kept for ScipyOracle while linalg.gmres is patched
NUMPY_GMRES = linalg.gmres


def counted(fn, counts, i):
    def matvec(v):
        counts[i] += 1
        return fn(v)
    return matvec


class ScipyOracle:
    """A stand-in for linalg.gmres that runs scipy's gmres on the same
    system too and records both results and matvec counts."""

    def __init__(self):
        self.runs = []

    def __call__(self, matvec, b, x0=None, psolve=None, **kw):
        counts = [0, 0]
        x, info, rnorm = NUMPY_GMRES(counted(matvec, counts, 0), b, x0=x0,
                                     psolve=psolve, **kw)
        n = b.size
        A = LinearOperator((n, n), matvec=counted(matvec, counts, 1),
                           dtype=complex)
        M = None if psolve is None else \
            LinearOperator((n, n), matvec=psolve, dtype=complex)
        want, want_info = scipy_gmres(A, b, x0=x0, M=M, atol=0.0, **kw)
        self.runs.append((x, info, want, want_info, counts))
        return x, info, rnorm

    def check(self, rtol=1e-9):
        assert self.runs
        for x, info, want, want_info, counts in self.runs:
            assert info == want_info == 0
            assert counts[0] == counts[1]
            assert np.linalg.norm(x - want) <= rtol * np.linalg.norm(want)
        return [counts[0] for *_, counts in self.runs]


@pytest.fixture(scope="module")
def ball10():
    """The ball n=10 grid, its k=0 eigensystem and resonant eigenvalue."""
    grid = VolumeGrid(unit_ball(), 10)
    system = magnetization_eigensystem(grid)
    return grid, system, select_resonant_eigenvalue(system)[0]


@pytest.mark.parametrize("eta0", [1e9, 1.0])
def test_gmres_matches_scipy_on_the_preconditioned_lse(ball10, eta0,
                                                       monkeypatch):
    """The resonance study's solve at k ~ 1e-4 (one iteration) and at
    k ~ 1.6, where it takes over a hundred matvecs and one restart."""
    grid, system, lam = ball10
    xi = detuned_xi(lam, 1e-3)
    k = float(np.sqrt(plasmonic_frequency(eta0, 0.4, lam, 1e-3)[0]))
    wave = IncidentWave(k, (0, 0, 1), (1, 0, 0))
    oracle = ScipyOracle()
    monkeypatch.setattr(linalg, "gmres", oracle)
    solve_effective_lse(grid, effective_mu_ball(xi, "-"), wave,
                        eigensystem=system)
    matvecs, = oracle.check()
    assert matvecs > 100 if eta0 == 1.0 else matvecs <= 3


def test_gmres_matches_scipy_on_foldylax(monkeypatch):
    """The converge-box Foldy-Lax solve on its GMRES path (N = 1331)."""
    scales = derive_scales(0.012, 0.9, 1.0, 1.0, "+", 2.0, 0.4)
    cluster = generate_cluster(unit_box(), scales.d)
    assert cluster.count == 1331
    wave = IncidentWave(scales.k, (0, 0, 1), (1, 0, 0))
    oracle = ScipyOracle()
    monkeypatch.setattr(linalg, "gmres", oracle)
    assemble_and_solve(cluster, scales, p0_ball(), wave)
    oracle.check()


def random_system(n, seed):
    rng = np.random.default_rng(seed)
    A = np.eye(n) + 0.3 * (rng.normal(size=(n, n))
                           + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    return A, b


def test_gmres_zero_rhs_returns_zero():
    A, b = random_system(8, 0)
    x, info, rnorm = linalg.gmres(lambda v: A @ v, 0 * b, x0=b, rtol=1e-10,
                                  restart=4, maxiter=1)
    assert info == 0 and not x.any() and rnorm == 0.0


def test_gmres_returns_a_converged_start_after_one_matvec():
    A, b = random_system(8, 1)
    x0 = np.linalg.solve(A, b)
    counts = [0]
    x, info, rnorm = linalg.gmres(counted(lambda v: A @ v, counts, 0), b,
                                  x0=x0, rtol=1e-10, restart=4, maxiter=1)
    assert info == 0 and counts == [1]
    assert rnorm == np.linalg.norm(b - A @ x0)
    assert np.array_equal(x, x0) and x is not x0


def test_gmres_reports_a_spent_budget_like_scipy():
    """Two cycles of three iterations cannot solve a 40 x 40 system:
    info is maxiter, and the iterate is scipy's, after the same matvecs."""
    A, b = random_system(40, 2)
    counts = [0, 0]
    x, info, rnorm = linalg.gmres(counted(lambda v: A @ v, counts, 0), b,
                                  rtol=1e-12, restart=3, maxiter=2)
    op = LinearOperator(A.shape, matvec=counted(lambda v: A @ v, counts, 1),
                        dtype=complex)
    want, want_info = scipy_gmres(op, b, rtol=1e-12, atol=0.0, restart=3,
                                  maxiter=2)
    assert info == want_info == 2
    assert counts[0] == counts[1] == 2 * 4
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
    assert rnorm == np.linalg.norm(b - A @ x) > 1e-12 * np.linalg.norm(b)


def test_studies_run_without_importing_scipy(tmp_path):
    """scipy is a test dependency only, and no study calls np.unique, which
    loads numpy.ma: a fresh interpreter runs the counting, converge,
    resonance, lse and spectrum studies through the CLI on small grids
    (grid_n 6 to 12) with neither module loaded."""
    config = tmp_path / "resonance.json"
    config.write_text(json.dumps({"eta0": 1e9, "lambda_b": 0.4,
                                  "betas": [1e-3, 1e-2]}))
    lse_config = tmp_path / "lse.json"
    lse_config.write_text(json.dumps(
        {"a": 0.05, "h": 0.9, "eta0": 1.0, "c0": 1.0, "sign": "+",
         "c_r": 1.0, "lambda_b": 0.4, "theta": [0, 0, 1], "p": [1, 0, 0]}))
    converge_config = tmp_path / "converge.json"
    converge_config.write_text(json.dumps(
        {"a_list": [0.05, 0.03], "h": 0.9, "eta0": 1.0, "c0": 1.0,
         "sign": "+", "c_r": 2.0, "lambda_b": 0.4}))
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    runs = [["counting", "--config", str(empty), "--out", str(tmp_path)],
            ["converge", "--config", str(converge_config), "--out",
             str(tmp_path), "--set", "grid_n=6"],
            ["resonance", "--config", str(config), "--out", str(tmp_path),
             "--set", "grid_n=8"],
            ["lse", "--config", str(lse_config), "--out", str(tmp_path),
             "--set", "grid_n=8"],
            ["spectrum", "--config", str(empty), "--out", str(tmp_path),
             "--set", "grid_n=12", "--set", "lmax=4"],
            ["spectrum", "--config", str(empty), "--out", str(tmp_path),
             "--set", "grid_n=12", "--set", "mode=full"]]
    script = ("import json, sys\n"
              "from dielscat import cli\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert cli.main(argv) == 0, argv\n"
              "    loaded = sorted(m for m in sys.modules\n"
              "                    if m.split('.')[0] == 'scipy'\n"
              "                    or m.split('.')[:2] == ['numpy', 'ma'])\n"
              "    assert not loaded, (argv[0], loaded[:5])\n")
    src = os.path.dirname(os.path.dirname(dielscat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


class CountedKernel:
    """A LatticeOperator that counts its applies."""

    def __init__(self, op):
        self.op = op
        self.dense = op.dense
        self.applies = 0

    def apply(self, F):
        self.applies += 1
        return self.op.apply(F)


def coupled_system():
    """A CountedKernel on the n = 4 box grid (C = 64), a P and a random b
    for the system x - c K(x P^T) = b."""
    grid = VolumeGrid(unit_box(), 4)
    kernel = CountedKernel(tensors.LatticeOperator(
        grid.ijk, grid.d, "dyadic", 1.1, grid.weight, 0.2))
    P = 0.3 * np.eye(3) + 0.05j
    rng = np.random.default_rng(4)
    b = rng.normal(size=(grid.count, 3)) + 1j * rng.normal(
        size=(grid.count, 3))
    return kernel, P, b


def dense_solution(kernel, c, P, b):
    """x of x - c K(x P^T) = b by an LU of the matrix built here."""
    n = b.shape[0]
    K = kernel.op.dense()
    A = np.eye(3 * n) - c * K @ np.kron(np.eye(n), P)
    return np.linalg.solve(A, b.reshape(-1)).reshape(n, 3)


def test_solve_coupled_reports_the_gmres_exit_residual_without_an_apply():
    """A weakly coupled system takes GMRES, which converges within its
    budget, so no dense matrix is built.  The residual is the one GMRES
    tested at exit: no apply beyond its matvecs, and the value an apply
    would give.  A zero right-hand side reports residual 0.0."""
    kernel, P, b = coupled_system()

    def dense():
        raise AssertionError("dense matrix built")

    kernel.dense = dense
    x, res, path, matvecs = linalg.solve_coupled(
        kernel, 0.8, P, b, rtol=1e-10, restart=20, maxiter=2)
    assert path == "gmres" and kernel.applies == matvecs > 0
    direct = x - 0.8 * kernel.op.apply(x @ P.T) - b
    assert res == np.linalg.norm(direct) / np.linalg.norm(b) <= 1e-10
    assert np.allclose(x, dense_solution(kernel, 0.8, P, b), rtol=0,
                       atol=1e-8 * np.abs(x).max())
    x, res, path, matvecs = linalg.solve_coupled(
        kernel, 0.8, P, 0 * b, rtol=1e-10, restart=20, maxiter=2)
    assert res == 0.0 and not x.any() and matvecs == 0


def test_solve_coupled_falls_back_to_the_dense_lu_when_gmres_fails(
        monkeypatch):
    """At c = 8 GMRES is not converged after its whole budget, restart
    iterations and one true-residual matvec per cycle, so the LU solves
    the system, and the matvecs GMRES spent are reported; the LU's x is
    checked by one more apply, not counted, whose residual is reported.
    With DENSE_LIMIT = 0 the same failure raises."""
    kernel, P, b = coupled_system()
    x, res, path, matvecs = linalg.solve_coupled(
        kernel, 8.0, P, b, rtol=1e-10, restart=20, maxiter=2)
    assert path == "dense" and matvecs == 20 * 2 + 2 == kernel.applies - 1
    direct = x - 8.0 * kernel.op.apply(x @ P.T) - b
    assert res == np.linalg.norm(direct) / np.linalg.norm(b) <= 1e-12
    assert np.allclose(x, dense_solution(kernel, 8.0, P, b), rtol=0,
                       atol=1e-10 * np.abs(x).max())
    monkeypatch.setattr(linalg, "DENSE_LIMIT", 0)
    with pytest.raises(RuntimeError, match="GMRES failed after 42 matvecs"):
        linalg.solve_coupled(kernel, 8.0, P, b, rtol=1e-10, restart=20,
                             maxiter=2)


@pytest.mark.parametrize("domain, n", [(unit_box(), 6), (unit_ball(), 8)])
@pytest.mark.parametrize("operator", [DyadicVolumeOperator,
                                      magnetization_operator])
@pytest.mark.parametrize("k", [0.0, 1.3])
def test_solve_coupled_dense_fallback_matches_gmres_on_volume_grids(
        domain, n, operator, k):
    """The LSE (dyadic) and Magnetization (hessian) operators of box n = 6
    and ball n = 8 grids, P = diag(0.5, 0.4, 0.3): GMRES converges (12-16
    matvecs), a budget of one iteration sends the same system to the LU of
    dense(), after that iteration and its true-residual matvec, and the two
    solutions agree.  The LU's x also solves the system through the FFT
    apply, so dense() is the matrix that apply multiplies by."""
    op = operator(VolumeGrid(domain, n), k)
    P = np.diag([0.5, 0.4, 0.3])
    b = np.random.default_rng(7).normal(size=(op.count, 3)) + 0j
    x, res, path, _ = linalg.solve_coupled(op, 1.0, P, b, rtol=1e-10,
                                           restart=30, maxiter=5)
    assert path == "gmres" and res <= 1e-10
    xd, res, path, matvecs = linalg.solve_coupled(op, 1.0, P, b, rtol=1e-10,
                                                  restart=1, maxiter=1)
    assert path == "dense" and matvecs == 2 and res <= 1e-12
    direct = xd - op.apply(xd @ P.T) - b
    assert np.linalg.norm(direct) <= 1e-12 * np.linalg.norm(b)
    assert np.linalg.norm(x - xd) <= 1e-9 * np.linalg.norm(xd)


def test_solve_coupled_falls_back_to_the_dense_lu_on_a_non_finite_gmres():
    """A kernel whose apply returns NaN leaves GMRES without a finite x,
    and the LU of the kernel's dense matrix solves the system.  The
    residual is measured through that apply, so it reads NaN and shows the
    fault.  NaN's invalid-value warnings are expected here."""
    kernel, P, b = coupled_system()

    def apply(F):
        kernel.applies += 1
        return np.full_like(F, np.nan)

    kernel.apply = apply
    with np.errstate(invalid="ignore"):
        x, res, path, matvecs = linalg.solve_coupled(
            kernel, 0.8, P, b, rtol=1e-10, restart=20, maxiter=2)
    assert path == "dense" and matvecs == kernel.applies - 1 > 0
    assert np.isnan(res)
    assert np.allclose(x, dense_solution(kernel, 0.8, P, b), rtol=0,
                       atol=1e-10 * np.abs(x).max())
