# Restarted GMRES in numpy, so that the package needs numpy alone (SciPy's
# import would be most of a CLI process's set-up time and memory), and the
# one solver of the coupled-lattice systems that Foldy-Lax and the LSE share.

import numpy as np

from .tensors import spectral_norm

# the largest site count solved by a dense (3n)^2 LU, and then only when
# GMRES has no convergence guarantee
DENSE_LIMIT = 1500


def _givens(f, g):
    """c, s, r with [[c, s], [-conj(s), c]] @ [f, g] = [r, 0], c real.

    LAPACK ?lartg's choice: r has the phase of f, and g = 0 gives c = 1.
    """
    if g == 0:
        return 1.0, 0.0, f
    if f == 0:
        return 0.0, np.conj(g) / abs(g), abs(g)
    d = np.hypot(abs(f), abs(g))
    c = abs(f) / d
    return c, np.conj(g) * (f / (abs(f) * d)), f / c


def gmres(matvec, b, x0=None, psolve=None, *, rtol, restart, maxiter):
    """Solve A x = b by restarted GMRES (Saad & Schultz, SIAM J. Sci. Stat.
    Comput. 7 (1986) 856); matvec(v) returns A v.

    A port of SciPy's sparse.linalg.gmres (as in SciPy 1.17, with atol = 0,
    without callbacks), so it takes the same iterates and the same number
    of matvecs.  psolve(v) applies the inverse of a left preconditioner
    M; the Arnoldi process (modified Gram-Schmidt, Givens rotations)
    minimizes the preconditioned residual |M^-1 (b - A x)|, with the inner
    tolerance adapted after each restart as in SciPy's gh-8400, while the
    exit test is on the true residual |b - A x| <= rtol |b|, computed with
    one more matvec per restart cycle.  At most maxiter cycles of restart
    iterations are run.

    Returns (x, info, |b - A x|): info is 0 when converged, else maxiter,
    and the residual norm is the one of the exit test.  A zero b returns
    the zero vector and 0.0, and an x0 that already meets the tolerance is
    returned after one matvec.
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
    n = b.size
    bnrm2 = np.linalg.norm(b)
    atol = rtol * bnrm2
    if bnrm2 == 0:
        return np.zeros(n, dtype), 0, 0.0
    eps = np.finfo(dtype).eps
    dot = np.vdot if np.iscomplexobj(x) else np.dot
    restart = min(restart, n)

    # gh-8400: the inner tolerance applies to the preconditioned residual
    ptol_max_factor = 1.0
    ptol = np.linalg.norm(psolve(b)) * min(ptol_max_factor, atol / bnrm2)
    presid = 0.0
    v = np.empty((restart + 1, n), dtype)
    h = np.zeros((restart, restart + 1), dtype)
    givens = np.zeros((restart, 2), dtype)
    for iteration in range(maxiter):
        if iteration == 0:
            r = b - matvec(x) if x.any() else b.copy()
            rnorm = np.linalg.norm(r)
            if rnorm < atol:
                return x, 0, rnorm
        v[0] = psolve(r)
        tmp = np.linalg.norm(v[0])
        v[0] *= 1 / tmp
        S = np.zeros(restart + 1, dtype)
        S[0] = tmp
        breakdown = False
        for col in range(restart):
            w = psolve(matvec(v[col]))
            h0 = np.linalg.norm(w)
            for k in range(col + 1):
                tmp = dot(v[k], w)
                h[col, k] = tmp
                w -= tmp * v[k]
            h1 = np.linalg.norm(w)
            h[col, col + 1] = h1
            v[col + 1] = w
            # an invariant Krylov space: the exact solution is in reach
            if h1 <= eps * h0:
                h[col, col + 1] = 0
                breakdown = True
            else:
                v[col + 1] *= 1 / h1
            for k in range(col):
                c, s = givens[k]
                n0, n1 = h[col, k], h[col, k + 1]
                h[col, k], h[col, k + 1] = (c * n0 + s * n1,
                                            -np.conj(s) * n0 + c * n1)
            c, s, mag = _givens(h[col, col], h[col, col + 1])
            givens[col] = c, s
            h[col, col], h[col, col + 1] = mag, 0
            tmp = -np.conj(s) * S[col]
            S[col], S[col + 1] = c * S[col], tmp
            presid = abs(tmp)
            if presid <= ptol or breakdown:
                break
        # back substitution on the triangular Hessenberg factor, a singular
        # last pivot treated as a zero component
        if h[col, col] == 0:
            S[col] = 0
        y = S[:col + 1].copy()
        for k in range(col, 0, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        if y[0] != 0:
            y[0] /= h[0, 0]
        x += y @ v[:col + 1]
        r = b - matvec(x)
        rnorm = np.linalg.norm(r)
        if rnorm <= atol or breakdown:
            break
        if presid <= ptol:
            # the inner test passed but the true residual did not
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)
    return x, 0 if rnorm <= atol else maxiter, rnorm


def solve_coupled(kernel, c, P, b, *, rtol, restart, maxiter, psolve=None,
                  x0=None):
    """Solve x - c K(x P^T) = b for an (n, 3) field x.

    K is a 3x3 kernel operator on n sites that carries its own self term,
    with apply(F), dense() and norm_bound (tensors.LatticeOperator); P is a
    3x3 tensor acting on each site.  This is the coupled-dipole system of
    the discrete-dipole approximation (Purcell & Pennypacker, ApJ 186
    (1973) 705; Draine & Flatau, JOSA A 11 (1994) 1491): the
    point-interaction system with K = Y_k between distinct particles and
    P = P0, and the effective-medium LSE with K its voxel kernel plus self
    scalar, c = 1 and P = mu - I, mu the effective relative permeability.

    The path is chosen here alone: restarted GMRES on the matrix-free
    apply (relative tolerance rtol, at most maxiter cycles of restart
    iterations, from x0 and left-preconditioned by psolve if given) when a
    psolve is given, when n > DENSE_LIMIT, or when its budget is sure to
    suffice, else np.linalg.solve on the dense matrix.  B = c K (I x P)
    has |B|_2 <= beta = |c| |P|_2 K.norm_bound, and GMRES on I - B has
    |r_m| <= |B|^m |r_0| after m iterations of a cycle (take the residual
    polynomial (1 - z)^m), so from a zero start it meets rtol within its
    budget whenever beta ** (restart * maxiter) <= rtol.  A GMRES solve
    that is not converged within its budget, or not finite, raises
    RuntimeError naming its matvec count and relative residual.

    Returns (x, relative residual |x - c K(x P^T) - b| / |b| (0.0 for a
    zero b), path "dense" or "gmres", GMRES matvec count, 0 on the dense
    path).  GMRES reports the residual it tested at exit, so no further
    apply is spent on it.
    """
    n = b.shape[0]
    bnorm = np.linalg.norm(b)

    def apply(x):
        return x - c * kernel.apply(x @ P.T)

    def relative(rnorm):
        return float(rnorm / bnorm) if bnorm else 0.0

    if psolve is None and n <= DENSE_LIMIT and (
            abs(c) * spectral_norm(P) * kernel.norm_bound
            > rtol ** (1.0 / (restart * maxiter))):
        # per-site P: (K Pbig)[:, 3j+b] = sum_a K[:, 3j+a] P_ab
        A = (kernel.dense().reshape(3 * n, n, 3) @ P).reshape(3 * n, 3 * n)
        A *= -c
        A[np.arange(3 * n), np.arange(3 * n)] += 1.0
        x = np.linalg.solve(A, b.reshape(-1)).reshape(n, 3)
        return x, relative(np.linalg.norm(apply(x) - b)), "dense", 0
    matvecs = 0

    def matvec(v):
        nonlocal matvecs
        matvecs += 1
        return apply(v.reshape(n, 3)).reshape(-1)

    x, info, rnorm = gmres(matvec, b.reshape(-1), x0=x0, psolve=psolve,
                           rtol=rtol, restart=restart, maxiter=maxiter)
    x = x.reshape(n, 3)
    residual = relative(rnorm)
    if info != 0 or not np.all(np.isfinite(x)):
        raise RuntimeError("GMRES failed after %d matvecs (budget %d restarts "
                           "of %d), relative residual %.3g"
                           % (matvecs, maxiter, restart, residual))
    return x, residual, "gmres", matvecs
