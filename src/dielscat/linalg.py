# The Krylov solvers of the coupled-lattice systems that Foldy-Lax and the
# LSE share, in numpy, so that the package needs numpy alone (SciPy's import
# would be most of a CLI process's set-up time and memory): COCG, a short
# recurrence for the complex-symmetric systems of every study, and
# restarted GMRES for the others.

import numpy as np

from .tensors import require_memory

# the largest site count solved by a dense (3n)^2 LU, and then only when
# the Krylov solve has failed
DENSE_LIMIT = 1500
# the GMRES restart length; its cycles are as many as the matvec budget holds
GMRES_RESTART = 100
# n-vectors that COCG holds at its peak, one matvec's result among them:
# x, r, M^-1 r, p, A p and the next M^-1 r with the preconditioner's
# temporaries (traced at 6.28; 5.00 without a preconditioner)
COCG_VECTORS = 7
# n-vectors that GMRES holds at its peak beside its restart + 1 basis
# vectors: x, r, the Arnoldi vector and temporaries (traced at 5.28)
GMRES_VECTORS = 6


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


def _start(b, x0, psolve):
    """b flattened and the start x, both in their common dtype (float at
    least), and psolve, the identity if None."""
    b = np.asarray(b).reshape(-1)
    dtype = np.result_type(b, float) if x0 is None else \
        np.result_type(b, x0, float)
    x = np.zeros(b.size, dtype) if x0 is None else \
        np.array(x0, dtype=dtype).reshape(-1)
    if psolve is None:
        def psolve(v):
            return v
    return b.astype(dtype, copy=False), x, psolve


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
    iterations are run.  Unlike SciPy, a non-finite Arnoldi norm (an
    operator that returns NaN or inf) ends the cycle and the solve.

    Returns (x, info, |b - A x|): info is 0 when converged, else maxiter,
    and the residual norm is the one of the exit test.  A zero b returns
    the zero vector and 0.0, and an x0 that already meets the tolerance is
    returned after one matvec.
    """
    b, x, psolve = _start(b, x0, psolve)
    n = b.size
    bnrm2 = np.linalg.norm(b)
    atol = rtol * bnrm2
    if bnrm2 == 0:
        return np.zeros_like(x), 0, 0.0
    dtype = x.dtype
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
            # an invariant Krylov space: the exact solution is in reach; or
            # a non-finite operator, which no further cycle can mend
            if h1 <= eps * h0 or not np.isfinite(h1):
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
    b, x, psolve = _start(b, x0, psolve)
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


def solve_coupled(kernel, c, P, b, *, rtol, budget, psolve=None, x0=None):
    """Solve x - c K(x P^T) = b for an (n, 3) field x.

    K is a 3x3 kernel operator on n sites that carries its own self term,
    with apply(F) and dense() (tensors.LatticeOperator); P is a 3x3 tensor
    acting on each site.  This is the coupled-dipole system of the
    discrete-dipole approximation (Purcell & Pennypacker, ApJ 186 (1973)
    705; Draine & Flatau, JOSA A 11 (1994) 1491): the point-interaction
    system with K = Y_k between distinct particles and P = P0, and the
    effective-medium LSE with K its voxel kernel plus self scalar, c = 1
    and P = mu - I, mu the effective relative permeability.

    The path is chosen here alone, by what the solve observes.  K is
    symmetric, K^T = K, so for a scalar P = p I the matrix I - c p K is
    complex symmetric, and COCG solves it (cocg; every study's P0 and mu
    are scalar).  Any other P, even a symmetric one, gives K (I x P), whose
    transpose is (I x P) K, and restarted GMRES solves it (gmres, with
    GMRES_RESTART iterations per cycle).  Either runs matrix-free, from x0
    and preconditioned by psolve if given (for COCG psolve must be complex
    symmetric, as the k=0 eigensystem inverse is), to the relative
    tolerance rtol on the true residual, within budget matvecs; the memory
    of its vectors is checked against the host's before the first matvec
    (tensors.require_memory, ValueError).  Only if the Krylov solve is not
    converged within its budget, or its x is not finite, and
    n <= DENSE_LIMIT, is the system solved by np.linalg.solve on the dense
    matrix; above DENSE_LIMIT the failure raises RuntimeError naming the
    method, the matvec count and the relative residual.

    Returns (x, relative residual |x - c K(x P^T) - b| / |b| (0.0 for a
    zero b), path "cocg", "gmres" or "dense", Krylov matvec count, on the
    dense path the matvecs of the failed Krylov solve).  The Krylov
    methods report the residual they tested at exit; the dense path checks
    its x with one more apply, not counted in the matvecs, so its residual
    is that of the operator the rest of the code applies, not of the
    matrix it factorised.
    """
    n = b.shape[0]
    bnorm = np.linalg.norm(b)
    matvecs = 0

    def apply(x):
        return x - c * kernel.apply(x @ P.T)

    def matvec(v):
        nonlocal matvecs
        matvecs += 1
        return apply(v.reshape(n, 3)).reshape(-1)

    def relative(rnorm):
        return float(rnorm / bnorm) if bnorm else 0.0

    if np.array_equal(P, P[0, 0] * np.eye(3)):
        method, vectors = "cocg", COCG_VECTORS
    else:
        # the cycles the budget holds after the start's residual, if any
        start = int(x0 is not None and np.any(x0))
        restart = max(1, min(GMRES_RESTART, budget - start - 1))
        maxiter = max(1, (budget - start) // (restart + 1))
        method, vectors = "gmres", restart + 1 + GMRES_VECTORS
    require_memory(16 * 3 * n * vectors, "%s workspace of %d vectors on %d "
                   "sites" % (method.upper(), vectors, n))
    if method == "cocg":
        x, info, rnorm = cocg(matvec, b.reshape(-1), x0=x0, psolve=psolve,
                              rtol=rtol, budget=budget)
    else:
        x, info, rnorm = gmres(matvec, b.reshape(-1), x0=x0, psolve=psolve,
                               rtol=rtol, restart=restart, maxiter=maxiter)
    if info == 0 and np.all(np.isfinite(x)):
        return x.reshape(n, 3), relative(rnorm), method, matvecs
    if n > DENSE_LIMIT:
        raise RuntimeError("%s failed after %d matvecs (budget %d), "
                           "relative residual %.3g"
                           % (method.upper(), matvecs, budget,
                              relative(rnorm)))
    # per-site P: (K Pbig)[:, 3j+b] = sum_a K[:, 3j+a] P_ab
    A = (kernel.dense().reshape(3 * n, n, 3) @ P).reshape(3 * n, 3 * n)
    A *= -c
    A[np.arange(3 * n), np.arange(3 * n)] += 1.0
    x = np.linalg.solve(A, b.reshape(-1)).reshape(n, 3)
    return x, relative(np.linalg.norm(apply(x) - b)), "dense", matvecs
