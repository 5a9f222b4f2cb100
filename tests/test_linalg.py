import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import gmres as scipy_gmres

import dielscat
from dielscat import foldylax, linalg, lse, tensors
from dielscat.effective import (detuned_xi, effective_mu_ball, p0_ball,
                                plasmonic_frequency)
from dielscat.foldylax import IncidentWave, assemble_and_solve
from dielscat.geometry import derive_scales, generate_cluster, unit_ball, \
    unit_box
from dielscat.lse import (DyadicVolumeOperator, VolumeGrid,
                          magnetization_eigensystem, magnetization_operator,
                          select_resonant_eigenvalue, solve_effective_lse)


# the numpy solver itself, kept while linalg's name is patched
NUMPY_COCG = linalg.cocg


def counted(fn, counts, i):
    def matvec(v):
        counts[i] += 1
        return fn(v)
    return matvec


class CapturedCocg:
    """A stand-in for linalg.cocg that runs it and records each system it
    solves, (matvec, b, x0, psolve), with the solution and matvec count."""

    def __init__(self):
        self.runs = []

    def __call__(self, matvec, b, x0=None, psolve=None, **kw):
        counts = [0]
        x, info, rnorm = NUMPY_COCG(counted(matvec, counts, 0), b, x0=x0,
                                    psolve=psolve, **kw)
        assert info == 0
        self.runs.append(((matvec, b, x0, psolve), x, counts[0]))
        return x, info, rnorm


def scipy_gmres_on(captured, rtol, budget):
    """The one system COCG solved, solved again by scipy's GMRES(100) with
    the cycles the budget holds: (COCG's x and matvecs, GMRES's x and
    matvecs)."""
    (system, x, matvecs), = captured.runs
    matvec, b, x0, psolve = system
    n = b.size
    counts = [0]
    A = LinearOperator((n, n), matvec=counted(matvec, counts, 0),
                       dtype=complex)
    M = None if psolve is None else \
        LinearOperator((n, n), matvec=psolve, dtype=complex)
    want, info = scipy_gmres(A, b, x0=x0, M=M, rtol=rtol, atol=0.0,
                             restart=100, maxiter=budget // 101)
    assert info == 0
    return x, matvecs, want, counts[0]


@pytest.fixture(scope="module")
def ball10():
    """The ball n=10 grid, its k=0 eigensystem and resonant eigenvalue."""
    grid = VolumeGrid(unit_ball(), 10)
    system = magnetization_eigensystem(grid)
    return grid, system, select_resonant_eigenvalue(system)[0]


# COCG's matvecs at eta0 = 1 are 86 or 87: the k=0 preconditioner comes
# from eigh, whose rounding differs with the BLAS thread count (87 under
# one thread, 86 under two)
@pytest.mark.parametrize("eta0, cocg_matvecs", [(1e9, {3}), (1.0, {86, 87})],
                         ids=["eta0=1e9", "eta0=1"])
def test_cocg_matches_scipy_gmres_on_the_preconditioned_lse(ball10, eta0,
                                                           cocg_matvecs,
                                                           monkeypatch):
    """The resonance study's system at k ~ 1e-4 and at k ~ 1.6, as COCG
    solves it (3 and 86 matvecs), solved again by scipy's GMRES (one
    iteration, and over a hundred matvecs and one restart): COCG's
    solution matches GMRES's within what the stopping tolerance 1e-8
    allows near the resonance (test_preconditioned_lse_converges_off_the_
    quasistatic_limit)."""
    grid, system, lam = ball10
    xi = detuned_xi(lam, 1e-3)
    k = float(np.sqrt(plasmonic_frequency(eta0, 0.4, lam, 1e-3)[0]))
    wave = IncidentWave(k, (0, 0, 1), (1, 0, 0))
    captured = CapturedCocg()
    monkeypatch.setattr(linalg, "cocg", captured)
    solve_effective_lse(grid, effective_mu_ball(xi, "-"), wave,
                        eigensystem=system)
    x, matvecs, want, gmres_matvecs = scipy_gmres_on(
        captured, lse.LSE_KRYLOV_TOL, lse.LSE_KRYLOV_BUDGET)
    assert matvecs in cocg_matvecs
    assert gmres_matvecs > 100 if eta0 == 1.0 else gmres_matvecs <= 3
    assert np.linalg.norm(x - want) <= 1e-6 * np.linalg.norm(want)


def test_cocg_matches_scipy_gmres_on_foldylax(monkeypatch):
    """The converge-box Foldy-Lax system (N = 1331, margin 0.03) as COCG
    solves it, solved again by scipy's GMRES: at this weak coupling COCG
    and GMRES take the same 8 matvecs and agree to 1e-9."""
    scales = derive_scales(0.012, 0.9, 1.0, 1.0, "+", 2.0, 0.4)
    cluster = generate_cluster(unit_box(), scales.d)
    assert cluster.count == 1331
    wave = IncidentWave(scales.k, (0, 0, 1), (1, 0, 0))
    captured = CapturedCocg()
    monkeypatch.setattr(linalg, "cocg", captured)
    assemble_and_solve(cluster, scales, p0_ball(), wave)
    x, matvecs, want, gmres_matvecs = scipy_gmres_on(
        captured, foldylax.KRYLOV_TOL, foldylax.KRYLOV_BUDGET)
    assert matvecs == gmres_matvecs == 8
    assert np.linalg.norm(x - want) <= 1e-9 * np.linalg.norm(want)


def random_system(n, seed):
    rng = np.random.default_rng(seed)
    A = np.eye(n) + 0.3 * (rng.normal(size=(n, n))
                           + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    return A, b


def jacobi(A, preconditioned):
    """The Jacobi preconditioner diag(A)^-1 as a psolve, or None."""
    return (lambda v: v / np.diag(A)) if preconditioned else None


@pytest.mark.parametrize("preconditioned", [False, True])
def test_cocg_zero_rhs_returns_zero(preconditioned):
    A, b = random_system(8, 0)
    x, info, rnorm = linalg.cocg(lambda v: A @ v, 0 * b, x0=b,
                                 psolve=jacobi(A, preconditioned),
                                 rtol=1e-10, budget=10)
    assert info == 0 and not x.any() and rnorm == 0.0


@pytest.mark.parametrize("preconditioned", [False, True])
def test_cocg_returns_a_converged_start_after_one_matvec(preconditioned):
    A, b = random_system(8, 1)
    x0 = np.linalg.solve(A, b)
    counts = [0]
    x, info, rnorm = linalg.cocg(counted(lambda v: A @ v, counts, 0), b,
                                 x0=x0, psolve=jacobi(A, preconditioned),
                                 rtol=1e-10, budget=10)
    assert info == 0 and counts == [1]
    assert rnorm == np.linalg.norm(b - A @ x0)
    assert np.array_equal(x, x0) and x is not x0


def random_symmetric_system(n, seed, scale=0.3):
    """A complex-symmetric (not Hermitian) A = I + scale (S + S^T) / 2
    and a random b."""
    rng = np.random.default_rng(seed)
    S = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
    A = np.eye(n) + scale * (S + S.T) / 2
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    return A, b


@pytest.mark.parametrize("preconditioned, matvecs", [(False, 24),
                                                     (True, 23)])
def test_cocg_matches_the_dense_lu(preconditioned, matvecs):
    """A 60 x 60 complex-symmetric system, with no preconditioner and with
    the complex-symmetric Jacobi one, diag(A)^-1: COCG converges in a
    pinned number of matvecs, its iterations and one true residual, which
    it reports, and matches the LU to 1e-9."""
    A, b = random_symmetric_system(60, 2)
    assert np.array_equal(A, A.T) and not np.allclose(A, A.conj().T)
    counts = [0]
    x, info, rnorm = linalg.cocg(counted(lambda v: A @ v, counts, 0), b,
                                 psolve=jacobi(A, preconditioned),
                                 rtol=1e-12, budget=200)
    assert info == 0 and counts == [matvecs]
    assert rnorm == np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)
    want = np.linalg.solve(A, b)
    assert np.linalg.norm(x - want) <= 1e-9 * np.linalg.norm(want)


def test_cocg_reports_a_spent_budget():
    """A budget of 6 matvecs cannot solve a strongly coupled 40 x 40
    system: COCG runs five iterations and the true residual of the sixth
    matvec, which it reports, and returns info 1."""
    A, b = random_symmetric_system(40, 3, scale=1.5)
    counts = [0]
    x, info, rnorm = linalg.cocg(counted(lambda v: A @ v, counts, 0), b,
                                 rtol=1e-12, budget=6)
    assert info == 1 and counts == [6]
    assert rnorm == np.linalg.norm(b - A @ x) > 1e-12 * np.linalg.norm(b)


def test_cocg_stops_at_once_on_a_breakdown():
    """b = (1, i) has b^T b = 0, so rho is 0 before the first iteration:
    COCG returns the zero start, info 1 and |b|, after no matvec; an
    operator that returns NaN stops it after one, with the last finite x
    and residual."""
    b = np.array([1.0, 1j])
    counts = [0]
    x, info, rnorm = linalg.cocg(counted(lambda v: v, counts, 0), b,
                                 rtol=1e-10, budget=10)
    assert (info, counts) == (1, [0]) and not x.any()
    assert rnorm == np.linalg.norm(b)
    A, b = random_symmetric_system(8, 4)
    with np.errstate(invalid="ignore"):
        x, info, rnorm = linalg.cocg(
            counted(lambda v: np.full_like(v, np.nan), counts, 0), b,
            rtol=1e-10, budget=10)
    assert (info, counts) == (1, [1]) and not x.any()
    assert rnorm == np.linalg.norm(b)


@pytest.mark.parametrize("preconditioned", [False, True])
def test_cocg_peak_memory_is_the_checked_vector_count(preconditioned):
    """With and without a preconditioner and from a nonzero start, on
    n = 30,000 unknowns with a matvec that allocates only its result,
    COCG's traced peak stays within the COCG_VECTORS n-vectors that
    solve_coupled checks."""
    n = 30_000
    rng = np.random.default_rng(6)
    d = 1.0 + 0.5 * rng.random(n) + 0.1j
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    x0 = 0.5 * b
    psolve = (lambda v: v / d.real) if preconditioned else None
    tracemalloc.start()
    try:
        info = linalg.cocg(lambda v: d * v, b, x0=x0, psolve=psolve,
                           rtol=1e-14, budget=30)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info == 0
    assert peak <= linalg.COCG_VECTORS * 16 * n


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


# a P that is symmetric but not a multiple of I, whose coupled matrix is
# not symmetric, and a scalar one, P = p I, whose coupled matrix is
GENERIC_P = 0.3 * np.eye(3) + 0.05j
SCALAR = 0.3 + 0.05j
SCALAR_P = SCALAR * np.eye(3)
# a real p, as the ball's P0 is, and a complex one, as mu - I of a lossy
# medium is
SCALARS = [0.3, SCALAR]


def coupled_system():
    """A CountedKernel on the n = 4 box grid (C = 64) and a random b for
    the system x - c K(p x) = b."""
    grid = VolumeGrid(unit_box(), 4)
    kernel = CountedKernel(tensors.LatticeOperator(
        grid.ijk, grid.d, "dyadic", 1.1, grid.weight, 0.2))
    rng = np.random.default_rng(4)
    b = rng.normal(size=(grid.count, 3)) + 1j * rng.normal(
        size=(grid.count, 3))
    return kernel, b


def coupled_matrix(kernel, c, P, n):
    """The matrix of x - c K(x P^T) = b, built here."""
    return np.eye(3 * n) - c * kernel.op.dense() @ np.kron(np.eye(n), P)


def dense_solution(kernel, c, p, b):
    """x of x - c K(p x) = b by an LU of the matrix built here."""
    n = b.shape[0]
    A = coupled_matrix(kernel, c, p * np.eye(3), n)
    return np.linalg.solve(A, b.reshape(-1)).reshape(n, 3)


def test_only_a_scalar_p_makes_the_coupled_matrix_symmetric():
    """K is symmetric, so I - c K (I x P) is for a scalar P; for a
    symmetric P that is not a multiple of I it is not, since its transpose
    is I - c (I x P) K.  So COCG, which needs a complex-symmetric matrix,
    is the one method of solve_coupled, and linalg.scalar refuses any
    other P before a solve (test_scalar_refuses_any_other_tensor_by_name)."""
    kernel, b = coupled_system()
    K = kernel.op.dense()
    assert np.array_equal(K, K.T)
    A = coupled_matrix(kernel, 0.8, SCALAR_P, b.shape[0])
    assert np.allclose(A, A.T, rtol=0, atol=1e-14)
    assert np.array_equal(GENERIC_P, GENERIC_P.T)
    A = coupled_matrix(kernel, 0.8, GENERIC_P, b.shape[0])
    assert np.abs(A - A.T).max() > 1e-3 * np.abs(A).max()
    assert linalg.solve_coupled(kernel, 0.8, SCALAR, b, rtol=1e-10,
                                budget=42)[2] == "cocg"


@pytest.mark.parametrize("p", SCALARS)
def test_scalar_returns_p_of_p_times_i(p):
    got = linalg.scalar(p * np.eye(3), "P")
    assert got == p and np.ndim(got) == 0


@pytest.mark.parametrize("P", [GENERIC_P, np.diag([0.5, 0.4, 0.3]),
                               SCALAR * np.eye(2)],
                         ids=["symmetric", "diagonal", "2x2"])
def test_scalar_refuses_any_other_tensor_by_name(P):
    """A symmetric P with off-diagonal terms, a diagonal P of unequal
    entries and a multiple of the 2 x 2 identity raise ValueError naming
    the tensor."""
    with pytest.raises(ValueError,
                       match=r"^P must be a scalar multiple of I$"):
        linalg.scalar(P, "P")


@pytest.mark.parametrize("p", SCALARS)
def test_solve_coupled_reports_the_cocg_exit_residual_without_an_apply(p):
    """A weakly coupled system, for a real and a complex p, takes COCG,
    which converges within its budget, so no dense matrix is built.  The residual is the one COCG
    tested at exit: no apply beyond its matvecs, and the value an apply
    would give.  A zero right-hand side reports residual 0.0."""
    kernel, b = coupled_system()

    def dense():
        raise AssertionError("dense matrix built")

    kernel.dense = dense
    x, res, got, count = linalg.solve_coupled(kernel, 0.8, p, b, rtol=1e-10,
                                              budget=42)
    assert (got, count) == ("cocg", 11) and kernel.applies == 11
    direct = x - 0.8 * kernel.op.apply(p * x) - b
    assert res == np.linalg.norm(direct) / np.linalg.norm(b) <= 1e-10
    assert np.allclose(x, dense_solution(kernel, 0.8, p, b), rtol=0,
                       atol=1e-8 * np.abs(x).max())
    x, res, got, count = linalg.solve_coupled(kernel, 0.8, p, 0 * b,
                                              rtol=1e-10, budget=42)
    assert res == 0.0 and not x.any() and count == 0


@pytest.mark.parametrize("p", SCALARS)
def test_solve_coupled_falls_back_to_the_dense_lu_when_cocg_fails(
        p, monkeypatch):
    """At c = 8, for a real and a complex p, COCG does not converge within a budget of 42 matvecs, its
    41 iterations and one true residual.  So the LU solves the system, and
    the matvecs spent are reported; the LU's x is checked by one more
    apply, not counted, whose residual is reported.  With DENSE_LIMIT = 0
    the same failure raises, naming COCG."""
    kernel, b = coupled_system()
    x, res, path, matvecs = linalg.solve_coupled(kernel, 8.0, p, b,
                                                 rtol=1e-10, budget=42)
    assert path == "dense" and matvecs == 42 == kernel.applies - 1
    direct = x - 8.0 * kernel.op.apply(p * x) - b
    assert res == np.linalg.norm(direct) / np.linalg.norm(b) <= 1e-12
    assert np.allclose(x, dense_solution(kernel, 8.0, p, b), rtol=0,
                       atol=1e-10 * np.abs(x).max())
    monkeypatch.setattr(linalg, "DENSE_LIMIT", 0)
    with pytest.raises(RuntimeError, match=r"COCG failed after 42 matvecs "
                       r"\(budget 42\)"):
        linalg.solve_coupled(kernel, 8.0, p, b, rtol=1e-10, budget=42)


@pytest.mark.parametrize("domain, n", [(unit_box(), 6), (unit_ball(), 8)])
@pytest.mark.parametrize("operator", [DyadicVolumeOperator,
                                      magnetization_operator])
@pytest.mark.parametrize("k", [0.0, 1.3])
@pytest.mark.parametrize("p", [0.4, 0.4 + 0.1j])
def test_solve_coupled_dense_fallback_matches_cocg_on_volume_grids(
        domain, n, operator, k, p):
    """The LSE (dyadic) and Magnetization (hessian) operators of box n = 6
    and ball n = 8 grids, p = 0.4 or 0.4 + 0.1i: COCG converges (11-15
    matvecs), a budget of 2 sends the same system to the LU of dense(),
    after one iteration and its true-residual matvec, and the two
    solutions agree to 1e-9.  The LU's x also solves the system through
    the FFT apply, so dense() is the matrix that apply multiplies by."""
    op = operator(VolumeGrid(domain, n), k)
    b = np.random.default_rng(7).normal(size=(op.count, 3)) + 0j
    x, res, got, _ = linalg.solve_coupled(op, 1.0, p, b, rtol=1e-10,
                                          budget=155)
    assert got == "cocg" and res <= 1e-10
    xd, res, got, matvecs = linalg.solve_coupled(op, 1.0, p, b, rtol=1e-10,
                                                 budget=2)
    assert got == "dense" and matvecs == 2 and res <= 1e-12
    direct = xd - op.apply(p * xd) - b
    assert np.linalg.norm(direct) <= 1e-12 * np.linalg.norm(b)
    assert np.linalg.norm(x - xd) <= 1e-9 * np.linalg.norm(xd)


@pytest.mark.parametrize("p", SCALARS)
def test_solve_coupled_falls_back_to_the_dense_lu_on_a_non_finite_cocg(p):
    """For a real and a complex p, a kernel whose apply returns NaN stops
    COCG at its first non-finite p^T A p, after 1 matvec, without a
    solution, and the LU of the kernel's dense matrix solves the system.
    The residual is measured through that apply, so it reads NaN and shows
    the fault.  NaN's invalid-value warnings are expected here."""
    kernel, b = coupled_system()

    def apply(F):
        kernel.applies += 1
        return np.full_like(F, np.nan)

    kernel.apply = apply
    with np.errstate(invalid="ignore"):
        x, res, path, count = linalg.solve_coupled(kernel, 0.8, p, b,
                                                   rtol=1e-10, budget=42)
    assert (path, count) == ("dense", 1) == ("dense", kernel.applies - 1)
    assert np.isnan(res)
    assert np.allclose(x, dense_solution(kernel, 0.8, p, b), rtol=0,
                       atol=1e-10 * np.abs(x).max())


def test_solve_coupled_checks_the_cocg_workspace_before_a_matvec(
        monkeypatch):
    """COCG's COCG_VECTORS vectors, of 3 n complex values each, are checked
    against physical memory before the first matvec: a host one byte short
    of them refuses the solve by name, with no apply run, and a host that
    holds them solves it."""
    kernel, b = coupled_system()
    vectors = linalg.COCG_VECTORS
    need = vectors * 3 * b.shape[0] * 16
    monkeypatch.setattr(tensors, "physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match=r"^COCG workspace of %d vectors on "
                       r"64 sites needs %d bytes" % (vectors, need)):
        linalg.solve_coupled(kernel, 0.8, SCALAR, b, rtol=1e-10,
                             budget=42)
    assert kernel.applies == 0
    monkeypatch.setattr(tensors, "physical_memory", lambda: need)
    assert linalg.solve_coupled(kernel, 0.8, SCALAR, b, rtol=1e-10,
                                budget=42)[2] == "cocg"
