# The Krylov solver of the coupled-lattice systems that Foldy-Lax and the
# LSE share, in numpy, so that the package needs numpy alone (SciPy's import
# would be most of a CLI process's set-up time and memory): COCG, a short
# recurrence for their complex-symmetric systems, which a scalar coupling
# tensor p I makes them.

import numpy as np

from .tensors import require_memory

# the largest site count solved by a dense (3n)^2 LU, and then only when
# COCG has failed
DENSE_LIMIT = 1500
# n-vectors that COCG holds at its peak, one matvec's result among them:
# x, r, M^-1 r, p, A p and the next M^-1 r with the preconditioner's
# temporaries (traced at 6.28; 5.00 without a preconditioner)
COCG_VECTORS = 7


def scalar(P, name):
    """p of the 3x3 tensor P = p I; any other P raises ValueError naming
    the tensor."""
    P = np.asarray(P)
    if P.shape != (3, 3) or not np.array_equal(P, P[0, 0] * np.eye(3)):
        raise ValueError("%s must be a scalar multiple of I" % name)
    return P[0, 0]


def cocg(matvec, b, x0=None, psolve=None, *, rtol, budget):
    """Solve the complex-symmetric A x = b (A = A^T, not Hermitian) by the
    conjugate orthogonal conjugate gradient method (van der Vorst &
    Melissen, IEEE Trans. Magn. 26 (1990) 706); matvec(v) returns A v.

    CG with the bilinear form u^T v in place of the inner product: a short
    recurrence that never restarts and holds COCG_VECTORS n-vectors.
    psolve(v) applies M^-1 of a complex-symmetric preconditioner M.  The
    recursive residual r drifts from b - A x, so when |r| <= rtol |b|, or
    when one matvec of the budget is left, the true residual is computed
    with one more matvec, and the exit test |b - A x| <= rtol |b| is on it;
    a true residual above the tolerance restarts the recurrence from
    itself.  A breakdown, rho = r^T M^-1 r or p^T A p zero or not finite
    (an operator that returns NaN among them), stops the solve at once.
    At most budget matvecs are run, the start's residual of a nonzero x0
    and the true residuals included.

    Returns (x, info, residual norm): info is 0 when converged, else 1,
    and the residual norm is the true one of the last exit test, or at a
    breakdown the last finite recursive one, with the x it belongs to.  A
    zero b returns the zero vector and 0.0, and an x0 that already meets
    the tolerance is returned after one matvec.
    """
    b = np.asarray(b).reshape(-1)
    dtype = np.result_type(b, float) if x0 is None else \
        np.result_type(b, x0, float)
    b = b.astype(dtype, copy=False)
    x = np.zeros(b.size, dtype) if x0 is None else \
        np.array(x0, dtype=dtype).reshape(-1)
    if psolve is None:
        def psolve(v):
            return v
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return np.zeros_like(x), 0, 0.0
    atol = rtol * bnrm2
    matvecs = 0
    if x.any():
        r = b - matvec(x)
        matvecs += 1
    else:
        r = b.copy()
    rnorm = np.linalg.norm(r)
    # each pass (re)starts the recurrence from a true residual, and needs
    # room for one iteration and the next true residual
    while rnorm > atol and matvecs <= budget - 2:
        z = psolve(r)
        rho = np.dot(r, z)
        p = z.copy()
        while True:
            if rho == 0 or not np.isfinite(rho):
                return x, 1, rnorm
            q = matvec(p)
            matvecs += 1
            pq = np.dot(p, q)
            if pq == 0 or not np.isfinite(pq):
                return x, 1, rnorm
            alpha = rho / pq
            x += alpha * p
            r -= alpha * q
            rnorm = np.linalg.norm(r)
            if rnorm <= atol or matvecs >= budget - 1:
                break
            z = psolve(r)
            rho, rho_old = np.dot(r, z), rho
            p *= rho / rho_old
            p += z
        # the recurrence restarts from the true residual, so its vectors
        # are dropped before that residual's are made
        del z, p, q
        r = b - matvec(x)
        matvecs += 1
        rnorm = np.linalg.norm(r)
    return x, 0 if rnorm <= atol else 1, rnorm


def solve_coupled(kernel, c, p, b, *, rtol, budget, psolve=None, x0=None):
    """Solve x - c K(p x) = b for an (n, 3) field x and a scalar p.

    K is a 3x3 kernel operator on n sites that carries its own self term,
    with apply(F) and dense() (tensors.LatticeOperator).  This is the
    coupled-dipole system of the discrete-dipole approximation (Purcell &
    Pennypacker, ApJ 186 (1973) 705; Draine & Flatau, JOSA A 11 (1994)
    1491): the point-interaction system with K = Y_k between distinct
    particles and P0 = p I, and the effective-medium LSE with K its voxel
    kernel plus self scalar, c = 1 and mu - I = p I, mu the effective
    relative permeability.  The coupling is scalar (scalar() refuses any
    other tensor before a solve) because K is symmetric, K^T = K: the
    matrix I - c p K is then complex symmetric, and COCG solves it, while
    for any other P, even a symmetric one, K (I x P) has the transpose
    (I x P) K.

    COCG runs matrix-free, from x0 and preconditioned by psolve if given
    (psolve must be complex symmetric, as the k=0 eigensystem inverse is),
    to the relative tolerance rtol on the true residual, within budget
    matvecs; the memory of its COCG_VECTORS vectors is checked against the
    host's before the first matvec (tensors.require_memory, ValueError).
    Only if COCG is not converged within its budget, or its x is not
    finite, and n <= DENSE_LIMIT, is the system solved by np.linalg.solve
    on the dense matrix; above DENSE_LIMIT the failure raises RuntimeError
    naming COCG, the matvec count and the relative residual.

    Returns (x, relative residual |x - c K(p x) - b| / |b| (0.0 for a zero
    b), path "cocg" or "dense", COCG matvec count, on the dense path the
    matvecs of the failed COCG solve).  COCG reports the residual it tested
    at exit; the dense path checks its x with one more apply, not counted
    in the matvecs, so its residual is that of the operator the rest of
    the code applies, not of the matrix it factorised.
    """
    n = b.shape[0]
    bnorm = np.linalg.norm(b)
    matvecs = 0

    def apply(x):
        # p scales before the kernel: the order every pinned count holds in
        return x - c * kernel.apply(p * x)

    def matvec(v):
        nonlocal matvecs
        matvecs += 1
        return apply(v.reshape(n, 3)).reshape(-1)

    def relative(rnorm):
        return float(rnorm / bnorm) if bnorm else 0.0

    require_memory(16 * 3 * n * COCG_VECTORS, "COCG workspace of %d vectors "
                   "on %d sites" % (COCG_VECTORS, n))
    x, info, rnorm = cocg(matvec, b.reshape(-1), x0=x0, psolve=psolve,
                          rtol=rtol, budget=budget)
    if info == 0 and np.all(np.isfinite(x)):
        return x.reshape(n, 3), relative(rnorm), "cocg", matvecs
    if n > DENSE_LIMIT:
        raise RuntimeError("COCG failed after %d matvecs (budget %d), "
                           "relative residual %.3g"
                           % (matvecs, budget, relative(rnorm)))
    A = -c * (kernel.dense() * p)
    A[np.arange(3 * n), np.arange(3 * n)] += 1.0
    x = np.linalg.solve(A, b.reshape(-1)).reshape(n, 3)
    return x, relative(np.linalg.norm(apply(x) - b)), "dense", matvecs
