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
from dielscat.lse import (VolumeGrid, magnetization_eigensystem,
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
    grid = VolumeGrid(unit_ball(), 10)
    return grid, select_resonant_eigenvalue(grid)[0]


@pytest.mark.parametrize("eta0", [1e9, 1.0])
def test_gmres_matches_scipy_on_the_preconditioned_lse(ball10, eta0,
                                                       monkeypatch):
    """The resonance study's solve at k ~ 1e-4 (one iteration) and at
    k ~ 1.6, where it takes over a hundred matvecs and one restart."""
    grid, lam = ball10
    xi = detuned_xi(lam, 1e-3)
    k = float(np.sqrt(plasmonic_frequency(eta0, 0.4, lam, 1e-3)[0]))
    wave = IncidentWave(k, (0, 0, 1), (1, 0, 0))
    oracle = ScipyOracle()
    monkeypatch.setattr(linalg, "gmres", oracle)
    solve_effective_lse(grid, effective_mu_ball(xi, "-"), wave,
                        eigensystem=magnetization_eigensystem(grid))
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
        self.norm_bound = op.norm_bound
        self.applies = 0

    def apply(self, F):
        self.applies += 1
        return self.op.apply(F)


def test_solve_coupled_reports_the_gmres_exit_residual_without_an_apply():
    """The residual of a GMRES solve is the one GMRES tested at exit: no
    apply beyond its matvecs, and the value an apply would give.  A zero
    right-hand side reports residual 0.0."""
    grid = VolumeGrid(unit_box(), 4)
    kernel = CountedKernel(tensors.LatticeOperator(
        grid.ijk, grid.side, "dyadic", 1.1, grid.weight, 0.2))
    P = 0.3 * np.eye(3) + 0.05j
    rng = np.random.default_rng(4)
    b = rng.normal(size=(grid.count, 3)) + 1j * rng.normal(
        size=(grid.count, 3))
    x, res, path, matvecs = linalg.solve_coupled(
        kernel, 0.8, P, b, rtol=1e-10, restart=20, maxiter=2)
    assert path == "gmres" and kernel.applies == matvecs > 0
    direct = x - 0.8 * kernel.op.apply(x @ P.T) - b
    assert res == np.linalg.norm(direct) / np.linalg.norm(b) <= 1e-10
    x, res, path, matvecs = linalg.solve_coupled(
        kernel, 0.8, P, 0 * b, rtol=1e-10, restart=20, maxiter=2)
    assert res == 0.0 and not x.any() and matvecs == 0
