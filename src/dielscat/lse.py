# Voxel discretization of the effective-medium Lippmann-Schwinger volume
# integral equation, the Newtonian / Magnetization / N' volume operators
# with analytic self-cell corrections, spectral diagnostics of the
# Magnetization operator, and the resonance amplification scan.

import numpy as np
from numpy.linalg import eigh

from .effective import detuned_xi, effective_mu_ball, plasmonic_frequency
from .foldylax import (IncidentWave, incident_magnetic_many,
                       source_far_field)
from .geometry import lattice_cluster
from .linalg import scalar, solve_coupled
from .symmetry import REDUCE_CHUNK_BYTES, SymmetryBasis
from .tensors import (FOUR_PI, LatticeOperator, direction_grid,
                      require_memory)

LSE_KRYLOV_TOL = 1e-8
# the COCG matvec budget: 1,111, 13x the 86 matvecs of the slowest
# preconditioned solve in the tests and benchmark workloads (ball n=10 at
# eta0 = 1, k ~ 1.6; the resonance-ball workload needs 3 per detuning and 1
# for its off-resonance row) and 2.3x the 477 of the strongly coupled box
# of lse c_r=0.7, grid_n=8; a solve not converged within it takes the dense
# LU up to linalg.DENSE_LIMIT cells
LSE_KRYLOV_BUDGET = 1111

# perfbench/probes.py still wraps these names, and perfbench's tests need
# every probe target to resolve.  The solve runs COCG and the dense LU
# inside linalg.solve_coupled, and the dense k=0 Magnetization matrix is
# magnetization_operator(grid).dense(), so they hold None until the probes
# are refreshed.
gmres = lu_factor = lu_solve = magnetization_matrix = None

# discrete eigenvalues this close to 0 or 1 are treated as the images of the
# divergence-free / curl-free subspaces and dropped by the spectrum filter
SPECTRUM_EDGE_TOL = 0.05
# the resonant eigenvalue lies at least this far above 1/3
RESONANT_MIN_ABOVE = 5e-3
# eigenvalues this close together form one multiplet
DEGENERACY_TOL = 1e-9
# the stop (relative change of the Rayleigh quotient) and the apply budget
# of the Newtonian norm's power iteration
NEWTONIAN_NORM_TOL = 1e-12
NEWTONIAN_NORM_MAX_APPLIES = 100


def VolumeGrid(domain, n):
    """Uniform voxel grid over a box or ball domain: the Cluster of the
    cubic cells of side (extent/n) of the n^3 lattice anchored at the
    domain's bounding-box corner, with indices 0 ... n - 1.

    A box keeps every cell, so its grid is generate_cluster(box, L/n); a
    ball keeps the cells whose centres lie inside with full cube weight
    (staircase approximation).  A grid whose n^3 candidate cells need more
    than physical memory raises ValueError before any is allocated.
    """
    if n < 2:
        raise ValueError("grid resolution must be at least 2")
    n = int(n)
    half = domain.extents / 2.0 if domain.kind == "box" else domain.radius
    return lattice_cluster(domain, domain.cell_side(n), domain.center - half,
                           (n,) * 3, 0.0,
                           "a %s grid of n=%d" % (domain.kind, n))


def _resolution(grid):
    """n of a voxel grid: the fewest cells its indices span on an axis."""
    return int(np.min(np.ptp(grid.ijk, axis=0))) + 1


def newtonian_operator(grid, k=0.0):
    """Vector Newtonian potential (N^k F)_i = sum_j w Phi_k(x_i,x_j) F_j.

    The singular self cell is integrated analytically over the
    volume-equivalent sphere (term r_eq^2/2) and the smooth k-remainder of
    Phi_k - Phi_0 contributes ik w / (4 pi).
    """
    self_term = grid.r_eq ** 2 / 2.0
    if k:
        self_term += 1j * k * grid.weight / FOUR_PI
    return LatticeOperator(grid.ijk, grid.d, "scalar", k, grid.weight,
                           self_term)


def magnetization_operator(grid, k=0.0):
    """Magnetization operator (grad M^k F) on the grid.

    Off-diagonal cells contribute -w grad grad Phi_k(x_i,x_j) . F_j (the
    source-gradient form flips the sign of the target Hessian); the self
    cell contributes the cubic-cell depolarization term F/3.
    """
    return LatticeOperator(grid.ijk, grid.d, "hessian", k, -grid.weight,
                           1.0 / 3.0)


def nprime_operator(grid):
    """Projected Newtonian operator (N' F)_i with kernel Phi_0 rhat rhat.

    Self cell: the equivalent-sphere average of rhat rhat is I/3, giving
    r_eq^2/6.
    """
    return LatticeOperator(grid.ijk, grid.d, "projected", 0.0, grid.weight,
                           grid.r_eq ** 2 / 6.0)


def newtonian_operator_norm(grid):
    """Largest eigenvalue of the discrete scalar Newtonian operator.

    The operator is symmetric (uniform weights) and entrywise positive, so
    by Perron-Frobenius its norm is a simple top eigenvalue with a positive
    eigenvector: power iteration on the FFT apply from the constant vector
    stops when the Rayleigh quotient settles to NEWTONIAN_NORM_TOL (8
    applies on ball n = 12 ... 40), or raises RuntimeError at the budget.
    On a ball the staircase cell selection makes the covered volume
    fluctuate with the resolution; since the Newtonian norm of a dilated
    domain scales with the volume ratio to the 2/3 power, the norm is
    rescaled to the exact domain volume, which removes the leading
    fluctuation.
    """
    apply = newtonian_operator(grid).apply
    x = np.full(grid.count, 1.0 / np.sqrt(grid.count))
    last = 0.0
    for applies in range(1, NEWTONIAN_NORM_MAX_APPLIES + 1):
        y = apply(x)
        norm = float(x @ y)
        if abs(norm - last) <= NEWTONIAN_NORM_TOL * norm:
            break
        x, last = y / np.linalg.norm(y), norm
    else:
        raise RuntimeError("Newtonian norm not converged in %d applies"
                           % applies)
    if grid.domain.kind == "ball":
        exact_vol = 4.0 * np.pi / 3.0 * grid.domain.radius ** 3
        norm *= (exact_vol / (grid.count * grid.weight)) ** (2.0 / 3.0)
    return norm


class DyadicVolumeOperator(LatticeOperator):
    """The LSE kernel (G_k + sigma_k I) F: sum_{j != i} w Y_k(x_i,x_j) . F_j
    on the grid lattice plus the self scalar sigma_k = lse_self_scalar."""

    def __init__(self, grid, k):
        super().__init__(grid.ijk, grid.d, "dyadic", k, grid.weight,
                         lse_self_scalar(grid, k))

    # bound on this class, so perfbench's probes see the LSE's kernel calls
    # apart from those of the other lattice operators
    apply = LatticeOperator.apply
    # a probe target only, like the module's gmres, lu_factor and lu_solve
    dense_blocks = None


def lse_self_scalar(grid, k):
    """Self-cell scalar of the combined operator -grad M^k + k^2 N^k."""
    return (-1.0 / 3.0 + k * k * grid.r_eq ** 2 / 2.0
            + 1j * k ** 3 * grid.weight / FOUR_PI)


def require_resolved(grid, k):
    """Raise ValueError, naming k and the cell side, if the grid does not
    resolve k: k d >= pi, fewer than two cells per wavelength."""
    if k * grid.d >= np.pi:
        raise ValueError("k = %.6g is not resolved by cells of side %.6g "
                         "(k side = %.3g >= pi)" % (k, grid.d, k * grid.d))


def solve_effective_lse(grid, mu, wave, eigensystem=None):
    """Solve the discretized Lippmann-Schwinger system A(k) H = ik H_inc.

    The effective medium alters the permeability alone: mu is its relative
    permeability, a 3x3 tensor that must be a scalar m I (linalg.scalar:
    any other mu raises ValueError before anything is built, since only a
    scalar one makes the system complex symmetric), and the wave its
    incident field, of wavenumber k = wave.k.  The system
    A(k) H = H - (G_k + sigma_k I)((m - 1) H), with G_k + sigma_k I the
    LSE kernel DyadicVolumeOperator, is solved by linalg.solve_coupled
    (c = 1, p = m - 1): by COCG within LSE_KRYLOV_BUDGET matvecs of the
    FFT kernel operator, and by the dense LU only when COCG fails within
    its budget at C <= linalg.DENSE_LIMIT cells.

    With eigensystem = magnetization_eigensystem(grid), COCG is
    preconditioned by the exact inverse of A(0) and started from
    A(0)^-1 b.  A(0) is exact to invert: Y_0 is the Magnetization kernel
    grad grad Phi_0 with weight -w and sigma_0 = -1/3 is minus its self
    term, so G_0 + sigma_0 I = -M and A(0) = I + (m - 1) M, which the
    eigensystem inverts block by block under the cube symmetry
    (MagnetizationEigensystem.inverse: per orbit gather,
    V_G diag(1 / (1 + (m - 1) lambda)) V_G^T per irrep block G, scatter
    back; no 3C x 3C product).  That inverse is complex symmetric,
    as COCG's preconditioner must be.  A(k) - A(0) = O(k^2), so at the
    quasi-static k of the resonance study COCG stops after one iteration,
    and it still converges, in more, at k ~ 1.  COCG tests convergence on
    the true residual b - A x.  A k=0 operator that is singular at this mu
    raises RuntimeError.  A COCG solve, with or without the
    preconditioner, that is not converged within LSE_KRYLOV_BUDGET matvecs
    or is not finite falls back to the dense LU, and above DENSE_LIMIT
    raises RuntimeError naming COCG, its matvec count and relative
    residual.

    A grid that does not resolve k (require_resolved) raises ValueError
    naming k and the cell side before anything is solved.

    Returns (H, relative residual, path "cocg" or "dense", COCG matvec
    count), as solve_coupled does.
    """
    require_resolved(grid, wave.k)
    contrast = scalar(np.asarray(mu, dtype=complex) - np.eye(3), "mu - I")
    rhs = 1j * wave.k * incident_magnetic_many(wave, grid.centers)
    precond = x0 = None
    if eigensystem is not None:
        precond = eigensystem.inverse(contrast)
        x0 = precond(rhs.reshape(-1))
        # a NaN start fails COCG at once and sends it to the dense LU,
        # which would hide this fault
        if not np.all(np.isfinite(x0)):
            raise RuntimeError("the k=0 preconditioned start is not finite")
    try:
        return solve_coupled(
            DyadicVolumeOperator(grid, wave.k), 1.0, contrast, rhs,
            rtol=LSE_KRYLOV_TOL, budget=LSE_KRYLOV_BUDGET, psolve=precond,
            x0=x0)
    except RuntimeError as exc:
        raise RuntimeError("effective-medium %s" % exc) from exc


def effective_far_field(H, grid, mu, k, directions):
    """E_inf(xhat) = -(ik/4pi) w sum_z e^{-ik xhat.z} xhat x ((mu - I) H(z))
    over the cell centres z, for the relative permeability mu.

    With mu - I = sign xi T this is -sign (ik/4pi) xi w sum_z ... xhat x
    (T H), and its branch factor -sign is the one consistent with the
    cluster far field: rescaling the point-interaction far field through
    U_m and matching T H(z_m) with P0 U_m per cube fixes it, and the two
    far fields indeed converge to each other with this choice.
    """
    contrast = np.asarray(mu, dtype=complex) - np.eye(3)
    return source_far_field(directions, k, grid.centers,
                            np.asarray(H, dtype=complex) @ contrast.T,
                            -1j * k / FOUR_PI, grid.weight)


def _monomial_exponents(degree):
    return [(a, b, degree - a - b)
            for a in range(degree, -1, -1) for b in range(degree - a, -1, -1)]


def harmonic_polynomial_coefficients(degree):
    """Coefficient vectors of a basis of degree-l harmonic polynomials.

    Works in the monomial basis: the Laplacian is a linear map from degree-l
    to degree-(l-2) coefficients and its null space (dimension 2l+1) is
    extracted by singular value decomposition.
    """
    exps = _monomial_exponents(degree)
    if degree < 2:
        return exps, np.eye(len(exps))
    lower = _monomial_exponents(degree - 2)
    pos = {e: i for i, e in enumerate(lower)}
    L = np.zeros((len(lower), len(exps)))
    for j, (a, b, c) in enumerate(exps):
        if a >= 2:
            L[pos[(a - 2, b, c)], j] += a * (a - 1)
        if b >= 2:
            L[pos[(a, b - 2, c)], j] += b * (b - 1)
        if c >= 2:
            L[pos[(a, b, c - 2)], j] += c * (c - 1)
    _, s, vt = np.linalg.svd(L)
    null_dim = len(exps) - np.sum(s > 1e-9 * s[0])
    assert null_dim == 2 * degree + 1
    return exps, vt[-null_dim:].T


def harmonic_gradient_basis(grid, lmax):
    """Gradients of harmonic polynomials of degree 1..lmax, sampled on the grid.

    These span the gradient-of-harmonic component of the Helmholtz
    decomposition (densely, for star-shaped domains); returned as a
    column-normalized (3C, nbasis) matrix.
    """
    pts = grid.centers - np.mean(grid.centers, axis=0)
    scale = np.max(np.linalg.norm(pts, axis=1))
    pts = pts / scale
    C = grid.count
    pows = [np.vander(pts[:, i], lmax + 1, increasing=True) for i in range(3)]
    cols = []
    for degree in range(1, lmax + 1):
        exps, coeffs = harmonic_polynomial_coefficients(degree)
        # gradient of each monomial, evaluated once per degree
        grads = np.zeros((len(exps), C, 3))
        for j, (a, b, c) in enumerate(exps):
            if a > 0:
                grads[j, :, 0] = a * (pows[0][:, a - 1] * pows[1][:, b]
                                      * pows[2][:, c])
            if b > 0:
                grads[j, :, 1] = b * (pows[0][:, a] * pows[1][:, b - 1]
                                      * pows[2][:, c])
            if c > 0:
                grads[j, :, 2] = c * (pows[0][:, a] * pows[1][:, b]
                                      * pows[2][:, c - 1])
        for v in coeffs.T:
            field = np.einsum("j,jcd->cd", v, grads).reshape(-1)
            cols.append(field / np.linalg.norm(field))
    return np.array(cols).T


def magnetization_spectrum(grid, count=None, mode="gradient", lmax=10):
    """Spectrum diagnostics of the discrete k=0 Magnetization operator.

    mode="gradient" (default): Ritz values of the symmetric operator, applied
    by FFT, projected on the discrete gradient-of-harmonic subspace spanned
    by harmonic-polynomial gradients up to degree lmax.  This isolates the
    physically meaningful band; the raw collocation matrix suffers heavy
    spectral pollution from the divergence-free and curl-free subspaces,
    whose images smear over (0,1) instead of collapsing onto {0} and {1}.

    mode="full": every eigenvalue of the Magnetization matrix, those
    within SPECTRUM_EDGE_TOL of 0 or 1 dropped: the block eigenvalues of
    magnetization_eigensystem(grid), each repeated by its irrep's
    dimension, with no (3C)^2 matrix (ball n=20: about 1 s and 100 MB).
    Every VolumeGrid is invariant under the cube group, as that needs.

    Returns (eigenvalues, raw_count): the first `count` kept eigenvalues
    in ascending order, and how many were computed before the edge filter
    and the count.
    """
    if _resolution(grid) < 12:
        raise ValueError("spectrum diagnostics need resolution n >= 12")
    if mode == "full":
        system = magnetization_eigensystem(grid)
        vals = np.sort(np.concatenate([np.tile(v, system.basis.dims[g])
                                       for g, v in system.values.items()]))
        raw = vals.size
        vals = vals[(vals > SPECTRUM_EDGE_TOL)
                    & (vals < 1.0 - SPECTRUM_EDGE_TOL)]
    elif mode == "gradient":
        V = harmonic_gradient_basis(grid, lmax)
        op = magnetization_operator(grid)
        MV = np.stack([op.apply(v.reshape(-1, 3)).reshape(-1) for v in V.T],
                      axis=1)
        G = V.T @ V
        A = V.T @ MV
        # orthonormalize the trial space, discarding near-dependent columns
        s, U = eigh(G)
        keep = s > 1e-10 * s[-1]
        W = U[:, keep] / np.sqrt(s[keep])
        vals = np.linalg.eigvalsh(W.T @ A @ W)
        raw = vals.size
    else:
        raise ValueError("unknown spectrum mode %r" % mode)
    if count is not None:
        vals = vals[:count]
    return np.sort(vals), raw


class MagnetizationEigensystem:
    """Every eigenpair of the k=0 Magnetization matrix, one block per irrep.

    basis is the grid's SymmetryBasis; values[name] (ascending) and
    vectors[name] (orthonormal columns, in basis coordinates) are the
    eigenpairs of irrep `name`'s block, each eigenvalue an eigenvalue of M
    of multiplicity basis.dims[name] (times its multiplicity in the block).
    """

    def __init__(self, basis, values, vectors):
        self.basis = basis
        self.values = values
        self.vectors = vectors

    def inverse(self, c):
        """(I + c M)^-1 as a function of complex (3C,) vectors.

        Gathers the coefficients of each orbit, applies V diag(1 / (1 + c
        lambda)) V^T to each block, the real and imaginary parts as the
        two columns of one real product, and scatters back.  Exact: no
        eigenpair is dropped.  A denominator 1 + c lambda within rounding
        of zero (3C eps max(1, |c|), the eigenvalues' own error) makes
        I + c M singular and raises RuntimeError.
        """
        basis = self.basis
        n = 3 * basis.count
        denom = {name: 1.0 + c * v for name, v in self.values.items()}
        if min(np.min(np.abs(x), initial=np.inf) for x in denom.values()) \
                <= n * np.finfo(float).eps * max(1.0, abs(c)):
            raise RuntimeError("the k=0 LSE operator is singular at this "
                               "coupling (1 + (mu - 1) lambda = 0)")

        def solve(y):
            y = np.ascontiguousarray(y, dtype=complex).reshape(-1)
            Z = basis.forward(y.view(float).reshape(-1, 2))
            for name, V in self.vectors.items():
                z = basis.block(Z, name)
                z = z.reshape(len(V), z.shape[1] * 2)
                w = V.T @ z
                w.view(complex)[...] /= denom[name][:, None]
                z[...] = V @ w
            return basis.backward(Z).view(complex)[:, 0]

        return solve


def magnetization_eigensystem(grid):
    """Every eigenpair of the k=0 Magnetization matrix M, by cube symmetry.

    The grid's cells and every lattice kernel are invariant under the 48
    signed axis permutations about the grid centre, so M commutes with
    them and is block diagonal in the symmetry-adapted basis of
    symmetry.SymmetryBasis: one real symmetric block per irrep of O_h, of
    order m about d 3C/48 for an irrep of dimension d (ball n=10: 27 ...
    111 against 3C = 1656).  Each block is assembled from the 3 rows of M
    at every orbit representative, gathered from the Magnetization
    LatticeOperator's kernel octant (SymmetryBasis.reduce), and solved by
    one divide-and-conquer eigh (numpy.linalg.eigh, LAPACK dsyevd; Gu &
    Eisenstat, SIAM J. Matrix Anal. Appl. 16 (1995) 172).  The
    decomposition is exact: the union of the block spectra, each eigenvalue
    repeated d times, is the spectrum of M; no 3C x 3C matrix, projector or
    basis is formed: the basis is built orbit type by orbit type from
    projector matrices of order 3s on one orbit of s cells (at most
    3 (3s)^2 doubles at a time, freed before the rows are gathered).

    A grid whose cells are not mapped onto themselves by all 48 raises
    ValueError naming the grid.

    Memory: the peak is while the largest block, of order m_max, is
    solved.  Then the other blocks or their eigenvectors (sum m^2 doubles
    with that block), and eigh's copy of the block, its eigenvector output
    and the 2 m_max^2 dsyevd workspace (4 m_max^2) are held, with the orbit
    bases and the Magnetization kernel's octant (6 (n+1)^3 doubles).  The
    representative rows are never held at once: reduce gathers them one
    chunk of orbits at a time (symmetry.REDUCE_CHUNK_BYTES, about 4 times
    that with their coefficients), before the first eigh, and each block is
    freed once its eigenvectors exist.  Ball n=40 (C = 33,552, m_max =
    6,402) needs about 3.1 GB.  When that exceeds physical memory,
    ValueError is raised before anything is gathered.
    """
    basis = SymmetryBasis(grid.ijk, "the %s grid (n=%d, C=%d cells)"
                          % (grid.domain.kind, _resolution(grid),
                             grid.count))
    orders = np.array(list(basis.orders.values()))
    op = magnetization_operator(grid)
    doubles = (int(np.sum(orders ** 2)) + 4 * int(orders.max()) ** 2
               + sum((3 * t.size) ** 2 for t in basis.types)
               + 6 * int(np.prod(op.extent + 1)))
    require_memory(8 * doubles + 4 * REDUCE_CHUNK_BYTES,
                   "block eigendecomposition on C=%d cells" % grid.count)
    blocks = basis.reduce(op.dense)
    values, vectors = {}, {}
    for name in list(blocks):
        vals, vecs = eigh(blocks.pop(name))
        vals.flags.writeable = False
        vecs.flags.writeable = False
        values[name], vectors[name] = vals, vecs
    return MagnetizationEigensystem(basis, values, vectors)


def select_resonant_eigenvalue(system):
    """Exact discrete eigenvalue > 1/3 most strongly coupled to constants.

    Reads every eigenpair from system = magnetization_eigensystem(grid),
    which the caller builds once and may go on to use as the resonance
    scan's preconditioner.  The coupling weight of an eigenvalue multiplet
    is the squared overlap of its eigenspace with the three constant vector
    fields (the leading content of a long-wavelength incident field).
    Those span the vector irrep T1u with e_x in its first partner row, so
    only T1u eigenvectors have weight, 3 times the squared overlap of
    their first-row function with e_x.  Multiplets (within DEGENERACY_TOL)
    above 1/3 + RESONANT_MIN_ABOVE are grouped over the whole spectrum
    counted with multiplicity.  Returns (eigenvalue, multiplet weight,
    degeneracy).
    """
    basis = system.basis
    C = basis.count
    const_x = np.zeros((3 * C, 1))
    const_x[0::3] = 1.0 / np.sqrt(C)
    overlap = system.vectors["T1u"].T @ basis.block(
        basis.forward(const_x), "T1u")[:, 0, 0]
    vals, weight = [], []
    for name, lam in system.values.items():
        d = basis.dims[name]
        vals.append(np.tile(lam, d))
        weight.append(np.tile(overlap ** 2, d) if name == "T1u"
                      else np.zeros(d * lam.size))
    order = np.argsort(np.concatenate(vals), kind="stable")
    vals = np.concatenate(vals)[order]
    weight = np.concatenate(weight)[order]
    keys = np.round(vals[vals > 1.0 / 3.0 + RESONANT_MIN_ABOVE]
                    / DEGENERACY_TOL)
    if keys.size == 0:
        raise RuntimeError("no discrete eigenvalue above 1/3 found")
    # one multiplet per distinct key k: the eigenvalues within
    # DEGENERACY_TOL of k DEGENERACY_TOL, a run [lo, hi) of the sorted
    # values; the keys are sorted too, so each distinct one starts a run
    centre = keys[np.insert(keys[1:] != keys[:-1], 0, True)] * DEGENERACY_TOL
    lo = np.searchsorted(vals, centre - DEGENERACY_TOL, "right")
    hi = np.searchsorted(vals, centre + DEGENERACY_TOL, "left")
    # the sum over each run, with a zero past the end for hi = vals.size
    w = np.add.reduceat(np.append(weight, 0.0),
                        np.stack([lo, hi], axis=1).reshape(-1))[::2]
    best = int(np.argmax(w))
    return float(vals[lo[best]]), float(w[best]), int(hi[best] - lo[best])


def weighted_norm(field, grid):
    """L2(Omega) norm of a grid field under the quadrature weights."""
    F = np.asarray(field, dtype=complex)
    return float(np.sqrt(grid.weight * np.sum(np.abs(F) ** 2)))


def nnprime_inner_product(grid):
    """<(N + N')(e1); e1> for the unit-norm constant ball eigenfunction."""
    c = 1.0 / np.sqrt(grid.count * grid.weight)
    F = np.zeros((grid.count, 3), dtype=complex)
    F[:, 0] = c
    G = newtonian_operator(grid).apply(F) + nprime_operator(grid).apply(F)
    return float(np.real(grid.weight * np.sum(np.conj(F) * G)))


def resonance_amplification_scan(grid, system, lam_target, betas, config):
    """The LSE field of the ball near the dispersion root of lam_target.

    For each detuning beta, the coupling follows the detuned dispersion
    relation and the incident frequency the plasmonic-frequency rule, with
    config's eta0 and lambda_b; the incident wave has config's theta and p.
    The lower sign branch is used throughout, so the medium is the ball
    permeability mu = effective_mu_ball(xi, "-").  Each LSE is solved by
    COCG on the FFT operator, preconditioned with the exact inverse of its
    k=0 operator I + (mu - 1) M from system = magnetization_eigensystem(grid)
    (see solve_effective_lse).  A detuning whose COCG misses its budget
    is solved by the dense LU of linalg.solve_coupled instead, if the grid
    has at most linalg.DENSE_LIMIT cells, and its row is ok.  A detuning
    whose solve fails keeps its row with status "failed: ..." and the
    error: one at a singular k=0 operator, at a k that the grid does not
    resolve, or whose COCG fails on a grid above linalg.DENSE_LIMIT.
    Returns one row per beta, in order: beta, xi, k and the status, and
    for an ok row the field norm, the far-field sup, the back-scattered
    far field, the ratio to the incident field's norm and the residual.
    """
    theta = np.asarray(config["theta"], dtype=float)
    p = np.asarray(config["p"], dtype=float)
    rows = []
    for beta in betas:
        xi = detuned_xi(lam_target, beta)
        ksq, _ = plasmonic_frequency(config["eta0"], config["lambda_b"],
                                     lam_target, beta)
        k = float(np.sqrt(ksq))
        wave = IncidentWave(k, theta, p)
        mu = effective_mu_ball(xi, "-")
        try:
            H, res, _, _ = solve_effective_lse(grid, mu, wave,
                                               eigensystem=system)
        except (RuntimeError, ValueError) as exc:
            rows.append({"beta": beta, "xi": xi, "k": k,
                         "status": "failed: %s" % exc})
            continue
        far = effective_far_field(H, grid, mu, k, _scan_directions(theta))
        inc_norm = weighted_norm(1j * k * incident_magnetic_many(
            wave, grid.centers), grid)
        rows.append({"beta": beta, "xi": xi, "k": k,
                     "field_norm": weighted_norm(H, grid),
                     "far_sup": far.sup_norm(),
                     "back_scatter": far.values[-1],
                     "incident_ratio": weighted_norm(H, grid) / inc_norm,
                     "residual": res, "status": "ok"})
    return rows


def _scan_directions(theta):
    """Direction set for the scan: the standard grid plus back-scatter."""
    return np.vstack([direction_grid(), -np.asarray(theta, dtype=float)])
