# Point-interaction (coupled point dipole) solver: assembles the algebraic
# system for the per-particle vectors Q_m, solves it directly or by
# matrix-free GMRES, and evaluates the cluster far field.

import functools

import numpy as np

from .linalg import gmres
from .tensors import (LatticeOperator, assemble_dense, cis,
                      dyadic_kernel_scalars, dyadic_sum_chunked,
                      kernel_components, spectral_norm)

# dense direct solve only while 3*count <= 3000 and the invertibility margin
# does not guarantee GMRES: on A = I - B with |B| <= margin, GMRES meets
# GMRES_TOL within its budget of GMRES_RESTART * GMRES_MAXITER iterations
# once margin ** (GMRES_RESTART * GMRES_MAXITER) <= GMRES_TOL, that is for
# margin <= 10^-0.1 ~ 0.794 (see assemble_and_solve)
DENSE_LIMIT = 1000
GMRES_TOL = 1e-10
GMRES_RESTART = 100
# the matvec budget, in restart cycles: 100 iterations, at least 10x the 8
# matvecs of the slowest solve in the tests and benchmark workloads
# (converge-box, N=343 and N=1331)
GMRES_MAXITER = 1

# where P0 stands in the kernel products: P0.Y_k or Y_k.P0
ORDERINGS = ("p0-first", "p0-last")


def check_ordering(ordering):
    """Raise ValueError unless ordering is one of ORDERINGS."""
    if ordering not in ORDERINGS:
        raise ValueError("ordering must be one of %s, not %r"
                         % (", ".join(ORDERINGS), ordering))


class IncidentWave:
    """Plane wave: propagation theta, polarization p, wavenumber k.

    The electric part is p e^{ik theta.x}; the magnetic part is
    (theta x p) e^{ik theta.x}.  Requires |theta| = |p| = 1 and theta.p = 0.
    """

    def __init__(self, k, theta, p):
        theta = np.asarray(theta, dtype=float)
        p = np.asarray(p, dtype=float)
        if abs(np.linalg.norm(theta) - 1.0) > 1e-12:
            raise ValueError("theta must be a unit vector")
        if abs(np.linalg.norm(p) - 1.0) > 1e-12:
            raise ValueError("p must be a unit vector")
        if abs(np.dot(theta, p)) > 1e-12:
            raise ValueError("polarization must satisfy theta . p = 0")
        self.k = float(k)
        self.theta = theta
        self.p = p


def incident_magnetic(wave, x):
    """Magnetic incident field (theta x p) e^{ik theta.x} at one point."""
    phase = np.exp(1j * wave.k * np.dot(wave.theta, np.asarray(x, dtype=float)))
    return np.cross(wave.theta, wave.p).astype(complex) * phase


def incident_magnetic_many(wave, points):
    """Magnetic incident field at an (n,3) array of points."""
    pts = np.asarray(points, dtype=float)
    phase = cis(wave.k * (pts @ wave.theta))
    return np.outer(phase, np.cross(wave.theta, wave.p).astype(complex))


class FoldyLaxSolution:
    """Per-particle solution vectors plus the achieved relative residual,
    and how they were found: path "dense" (LU) or "gmres", with the GMRES
    matvec count (0 on the dense path)."""

    def __init__(self, vectors, residual, variant, margin=None,
                 margin_warning=False, path=None, matvecs=0):
        self.vectors = np.asarray(vectors, dtype=complex)
        self.residual = float(residual)
        self.variant = variant
        self.margin = margin
        self.margin_warning = margin_warning
        self.path = path
        self.matvecs = matvecs


class FarFieldSamples:
    """Sampled far-field directions and values."""

    def __init__(self, directions, values):
        self.directions = np.asarray(directions, dtype=float)
        self.values = np.asarray(values, dtype=complex)

    def sup_norm(self):
        return float(np.max(np.linalg.norm(self.values, axis=1)))

    def max_transversality_defect(self):
        dots = np.abs(np.einsum("ij,ij->i", self.directions,
                                self.values.astype(complex)))
        mags = np.linalg.norm(self.values, axis=1)
        scale = max(np.max(mags), 1e-300)
        return float(np.max(dots) / scale)


def invertibility_margin(scales, p0):
    """k^2 |eta| a^5 |P0| / (d^3 |1 - k^2 eta a^2 lambda_b|).

    Values below 1 guarantee solvability of the point-interaction system
    (Neumann-series contraction).
    """
    s = scales
    denom = abs(1.0 - s.k ** 2 * s.eta * s.a ** 2 * s.lambda_b)
    if denom == 0.0:
        raise ZeroDivisionError("resonant-degenerate scales: zero offset")
    return (s.k ** 2 * abs(s.eta) * s.a ** 5 * spectral_norm(p0)
            / (s.d ** 3 * denom))


def coupling_constant(scales):
    """Off-diagonal coupling (eta k^2 / (sign c0)) a^{5-h}."""
    s = scales
    return s.eta * s.k ** 2 / (s.sign * s.c0) * s.a ** (5.0 - s.h)


def rhs_constant(scales):
    """Right-hand-side factor (i k / (sign c0)) a^{5-h}."""
    s = scales
    return 1j * s.k / (s.sign * s.c0) * s.a ** (5.0 - s.h)


# GMRES applies one cluster's kernel once per matvec: keeping the last
# operator builds its offset table and FFT once per solve, not per matvec
@functools.lru_cache(maxsize=1)
def _lattice_kernel(cluster, k):
    """Y_k between distinct particles as a LatticeOperator, or None when the
    centers are not on the pitch-d lattice."""
    ijk = cluster.lattice_index()
    if ijk is None:
        return None
    return LatticeOperator(ijk, cluster.d, "dyadic", k)


def _kernel_sum(cluster, k, F):
    """sum_{j != m} Y_k(z_m,z_j).F_j: by FFT on a lattice, else directly."""
    op = _lattice_kernel(cluster, k)
    if op is None:
        return dyadic_sum_chunked(cluster.centers, cluster.centers, k, F)
    return op.apply(F)


def _kernel_matrix(cluster, k):
    """Dense (3N)x(3N) matrix of Y_k between distinct particles."""
    op = _lattice_kernel(cluster, k)
    if op is not None:
        return op.dense()
    c = cluster.centers
    comps = kernel_components(*dyadic_kernel_scalars(c, c, k),
                              c[:, None, :] - c[None, :, :])
    return assemble_dense(comps.__getitem__, cluster.count, 3, complex)


def _apply_offdiag(cluster, scales, p0, Q, ordering="p0-first"):
    """coupling * sum_{j != m} P0.Y_k(z_m,z_j).Q_j (or Y_k.P0 ordering)."""
    c = coupling_constant(scales)
    if ordering == "p0-first":
        return c * _kernel_sum(cluster, scales.k, Q) @ p0.T
    return c * _kernel_sum(cluster, scales.k, Q @ p0.T)


def system_residual(cluster, scales, p0, wave, Q, rhs=None,
                    ordering="p0-first"):
    """Relative residual of Q in the point-interaction system."""
    if rhs is None:
        rhs = rhs_constant(scales) * incident_magnetic_many(
            wave, cluster.centers) @ p0.T
    lhs = Q - _apply_offdiag(cluster, scales, p0, Q, ordering)
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))


def assemble_and_solve(cluster, scales, p0, wave, ordering="p0-first"):
    """Solve the point-interaction system (I - B) Q = rhs for the Q_m.

    B = coupling * P0.Y_k (or Y_k.P0) between distinct particles.  The
    invertibility margin bounds |B|_2 (checked against the dense 2-norm for
    margins 0.03 to 3.9 and counts 27 to 1000, where |B|_2 / margin stays
    below 0.75), and GMRES on I - B has |r_m| <= |B|^m |b| after m iterations (take the
    residual polynomial (1 - z)^m), so it meets GMRES_TOL within its budget
    of GMRES_RESTART * GMRES_MAXITER iterations whenever
    margin ** (GMRES_RESTART * GMRES_MAXITER) <= GMRES_TOL.  The dense
    (3N)^2 LU is therefore taken only for strongly coupled clusters that
    fail this test and have count <= DENSE_LIMIT; every other cluster is
    solved by matrix-free restarted GMRES, applying the kernel by FFT on
    the particle lattice (or by the direct sum off a lattice), so memory
    stays O(count).  The solution records its path and matvec count.
    """
    if abs(wave.k - scales.k) > 1e-10 * scales.k:
        raise ValueError("wave.k inconsistent with the derived scales")
    check_ordering(ordering)
    margin = invertibility_margin(scales, p0)
    rhs = rhs_constant(scales) * incident_magnetic_many(
        wave, cluster.centers) @ p0.T
    n = cluster.count
    matvecs = 0
    if n <= DENSE_LIMIT and margin > GMRES_TOL ** (
            1.0 / (GMRES_RESTART * GMRES_MAXITER)):
        path = "dense"
        Y = _kernel_matrix(cluster, scales.k)
        if ordering == "p0-first":
            A = (p0 @ Y.reshape(n, 3, 3 * n)).reshape(3 * n, 3 * n)
        else:
            A = (Y.reshape(3 * n, n, 3) @ p0).reshape(3 * n, 3 * n)
        A *= -coupling_constant(scales)
        A[np.arange(3 * n), np.arange(3 * n)] += 1.0
        Q = np.linalg.solve(A, rhs.reshape(-1)).reshape(n, 3)
    else:
        path = "gmres"

        def matvec(q):
            nonlocal matvecs
            matvecs += 1
            Q = q.reshape(n, 3)
            return (Q - _apply_offdiag(cluster, scales, p0, Q,
                                       ordering)).reshape(-1)

        q, info = gmres(matvec, rhs.reshape(-1), rtol=GMRES_TOL,
                        restart=GMRES_RESTART, maxiter=GMRES_MAXITER)
        Q = q.reshape(n, 3)
        if info != 0 or not np.all(np.isfinite(q)):
            raise RuntimeError(
                "point-interaction GMRES failed after %d matvecs (budget %d "
                "restarts of %d), relative residual %.3g, invertibility "
                "margin=%.3g" % (matvecs, GMRES_MAXITER, GMRES_RESTART,
                                 system_residual(cluster, scales, p0, wave,
                                                 Q, rhs, ordering), margin))
    res = system_residual(cluster, scales, p0, wave, Q, rhs=rhs,
                          ordering=ordering)
    return FoldyLaxSolution(Q, res, "Q-form", margin=margin,
                            margin_warning=margin >= 1.0, path=path,
                            matvecs=matvecs)


def neumann_series_solution(cluster, scales, p0, wave, terms=30,
                            ordering="p0-first"):
    """Neumann-series oracle: sum of iterated off-diagonal applications."""
    rhs = rhs_constant(scales) * incident_magnetic_many(
        wave, cluster.centers) @ p0.T
    acc = rhs.copy()
    term = rhs.copy()
    for _ in range(terms):
        term = _apply_offdiag(cluster, scales, p0, term, ordering)
        acc += term
    return acc


def to_u_form(solution, scales, p0):
    """Rescaled variables U_m = sign c0 a^{h-5} P0^{-1} Q_m."""
    s = scales
    factor = s.sign * s.c0 * s.a ** (s.h - 5.0)
    U = factor * np.linalg.solve(p0.astype(complex), solution.vectors.T).T
    return FoldyLaxSolution(U, solution.residual, "U-form",
                            margin=solution.margin,
                            margin_warning=solution.margin_warning,
                            path=solution.path, matvecs=solution.matvecs)


def u_form_residual(cluster, scales, p0, wave, U):
    """Relative residual of U in the rescaled system.

    The rescaled system reads
        U_m - (eta k^2/(sign c0)) a^{5-h} sum_{j!=m} Y_k(z_m,z_j).P0.U_j
            = i k H^Inc(z_m).
    """
    rhs = 1j * scales.k * incident_magnetic_many(wave, cluster.centers)
    lhs = U - _apply_offdiag(cluster, scales, p0, U, ordering="p0-last")
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))


def cluster_far_field(solution, cluster, scales, directions):
    """E_inf(xhat) = -(i k^3 eta / 4 pi) sum_m e^{-ik xhat.z_m} xhat x Q_m."""
    if solution.variant != "Q-form":
        raise ValueError("far field expects the Q-form solution")
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    k = scales.k
    pref = -1j * k ** 3 * scales.eta / (4.0 * np.pi)
    phases = cis(-k * (dirs @ cluster.centers.T))
    moments = phases @ solution.vectors
    values = pref * np.cross(dirs, moments)
    return FarFieldSamples(dirs, values)
