# Voxel discretization of the effective-medium Lippmann-Schwinger volume
# integral equation, the Newtonian / Magnetization / N' volume operators
# with analytic self-cell corrections, spectral diagnostics of the
# Magnetization operator, and the resonance amplification scan.

import numpy as np
from scipy.linalg import eigh, lu_factor, lu_solve
from scipy.sparse.linalg import LinearOperator, eigsh, gmres

from .effective import detuned_xi, plasmonic_frequency, tensor_T_ball
from .foldylax import FarFieldSamples, IncidentWave, incident_magnetic_many
from .geometry import parse_sign
from .tensors import FOUR_PI, LatticeOperator, direction_grid

LSE_GMRES_TOL = 1e-8
LSE_GMRES_RESTART = 100
LSE_GMRES_MAXITER = 10000
DENSE_LSE_LIMIT = 1500          # dense LU while cell count is below this

# discrete eigenvalues this close to 0 or 1 are treated as the images of the
# divergence-free / curl-free subspaces and dropped by the spectrum filter
SPECTRUM_EDGE_TOL = 0.05


class VolumeGrid:
    """Uniform voxel grid over a box or ball domain.

    Cells are cubes of side (extent/n); for the ball, cells whose centers lie
    inside are kept with full cube weight (staircase approximation).
    """

    def __init__(self, domain, n):
        if n < 2:
            raise ValueError("grid resolution must be at least 2")
        self.domain = domain
        self.n = int(n)
        if domain.kind == "box":
            sides = domain.extents / n
            if np.ptp(sides) > 1e-12 * np.max(sides):
                raise ValueError("box grid needs cubic cells")
            side = float(sides[0])
            corner = domain.center - domain.extents / 2.0
        else:
            side = 2.0 * domain.radius / n
            corner = domain.center - domain.radius
        axes = [corner[i] + side * (np.arange(n) + 0.5) for i in range(3)]
        idx_shape = (n, n, n)
        grid = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grid], axis=1)
        if domain.kind == "ball":
            rel = pts - domain.center
            keep = np.einsum("ij,ij->i", rel, rel) < domain.radius ** 2
        else:
            keep = np.ones(pts.shape[0], dtype=bool)
        self.centers = pts[keep]
        self.side = side
        self.weight = side ** 3
        self.count = self.centers.shape[0]
        self.r_eq = (3.0 * self.weight / FOUR_PI) ** (1.0 / 3.0)
        # lattice index of each kept cell, for finite-difference stencils
        self.index = -np.ones(idx_shape, dtype=np.int64)
        flat = np.flatnonzero(keep)
        self.index.reshape(-1)[flat] = np.arange(self.count)
        self.ijk = np.stack(np.unravel_index(flat, idx_shape), axis=1)

    def total_weight(self):
        return self.count * self.weight

    def interior_mask(self, depth=1):
        """Cells whose full depth-neighborhood stencil exists on the grid."""
        return np.all([self.neighbor_index(axis, step) >= 0
                       for axis in range(3)
                       for step in range(-depth, depth + 1) if step], axis=0)

    def neighbor_index(self, axis, step):
        """Index of the cell step cells along axis (signed), -1 if absent."""
        shifted = self.ijk.copy()
        shifted[:, axis] += step
        ok = (shifted[:, axis] >= 0) & (shifted[:, axis] < self.n)
        nbr = np.full(self.count, -1, dtype=np.int64)
        nbr[ok] = self.index[tuple(shifted[ok].T)]
        return nbr


def newtonian_operator(grid, k=0.0):
    """Vector Newtonian potential (N^k F)_i = sum_j w Phi_k(x_i,x_j) F_j.

    The singular self cell is integrated analytically over the
    volume-equivalent sphere (term r_eq^2/2) and the smooth k-remainder of
    Phi_k - Phi_0 contributes ik w / (4 pi).
    """
    self_term = grid.r_eq ** 2 / 2.0
    if k:
        self_term += 1j * k * grid.weight / FOUR_PI
    return LatticeOperator(grid.ijk, grid.side, "scalar", k, grid.weight,
                           self_term)


def magnetization_operator(grid, k=0.0):
    """Magnetization operator (grad M^k F) on the grid.

    Off-diagonal cells contribute -w grad grad Phi_k(x_i,x_j) . F_j (the
    source-gradient form flips the sign of the target Hessian); the self
    cell contributes the cubic-cell depolarization term F/3.
    """
    return LatticeOperator(grid.ijk, grid.side, "hessian", k, -grid.weight,
                           1.0 / 3.0)


def newtonian_apply(field, grid, k=0.0):
    """N^k F for a (C, 3) field; see newtonian_operator."""
    return newtonian_operator(grid, k).apply(np.asarray(field, dtype=complex))


def magnetization_apply(field, grid, k=0.0):
    """grad M^k F for a (C, 3) field; see magnetization_operator."""
    return magnetization_operator(grid, k).apply(
        np.asarray(field, dtype=complex))


def nprime_apply(field, grid):
    """Projected Newtonian operator (N' F)_i with kernel Phi_0 rhat rhat.

    Self cell: the equivalent-sphere average of rhat rhat is I/3, giving
    r_eq^2/6.
    """
    op = LatticeOperator(grid.ijk, grid.side, "projected", 0.0, grid.weight,
                         grid.r_eq ** 2 / 6.0)
    return op.apply(np.asarray(field, dtype=complex))


def discrete_curl(field, grid):
    """Centered-difference curl; second return is the valid-cell mask."""
    F = np.asarray(field, dtype=complex)
    out = np.zeros_like(F)
    valid = np.ones(grid.count, dtype=bool)
    h = grid.side
    dF = []
    for axis in range(3):
        plus = grid.neighbor_index(axis, +1)
        minus = grid.neighbor_index(axis, -1)
        ok = (plus >= 0) & (minus >= 0)
        valid &= ok
        der = np.zeros_like(F)
        der[ok] = (F[plus[ok]] - F[minus[ok]]) / (2.0 * h)
        dF.append(der)
    out[:, 0] = dF[1][:, 2] - dF[2][:, 1]
    out[:, 1] = dF[2][:, 0] - dF[0][:, 2]
    out[:, 2] = dF[0][:, 1] - dF[1][:, 0]
    return out, valid


def discrete_divergence(field, grid):
    """Centered-difference divergence; second return is the valid mask."""
    F = np.asarray(field, dtype=complex)
    out = np.zeros(grid.count, dtype=complex)
    valid = np.ones(grid.count, dtype=bool)
    h = grid.side
    for axis in range(3):
        plus = grid.neighbor_index(axis, +1)
        minus = grid.neighbor_index(axis, -1)
        ok = (plus >= 0) & (minus >= 0)
        valid &= ok
        out[ok] += (F[plus[ok], axis] - F[minus[ok], axis]) / (2.0 * h)
    return out, valid


def newtonian_operator_norm(grid, tol=1e-8):
    """Largest eigenvalue of the discrete scalar Newtonian operator.

    The operator is symmetric (uniform weights), so the norm is the top
    eigenvalue, obtained by Lanczos iteration on the FFT apply.  On a ball
    the staircase cell selection makes the covered volume fluctuate with the
    resolution; since the Newtonian norm of a dilated domain scales with the
    volume ratio to the 2/3 power, the norm is rescaled to the exact domain
    volume, which removes the leading fluctuation.
    """
    n = grid.count
    op = LinearOperator((n, n), matvec=newtonian_operator(grid).apply,
                        dtype=float)
    vals = eigsh(op, k=1, which="LA", tol=tol, v0=np.ones(n) / np.sqrt(n),
                 return_eigenvectors=False)
    norm = float(vals[0])
    if grid.domain.kind == "ball":
        exact_vol = 4.0 * np.pi / 3.0 * grid.domain.radius ** 3
        norm *= (exact_vol / grid.total_weight()) ** (2.0 / 3.0)
    return norm


class DyadicVolumeOperator(LatticeOperator):
    """The LSE kernel sum_{j != i} w Y_k(x_i,x_j) . F_j on the grid lattice.

    No self term: lse_self_scalar adds it.
    """

    def __init__(self, grid, k):
        super().__init__(grid.ijk, grid.side, "dyadic", k, grid.weight)

    # bound on this class, so perfbench's probes see the LSE's kernel calls
    # apart from those of the other lattice operators
    apply = LatticeOperator.apply
    dense_blocks = LatticeOperator.dense


def lse_self_scalar(grid, k):
    """Self-cell scalar of the combined operator -grad M^k + k^2 N^k."""
    return (-1.0 / 3.0 + k * k * grid.r_eq ** 2 / 2.0
            + 1j * k ** 3 * grid.weight / FOUR_PI)


def lse_operator_apply(H, grid, xi, T, k, sign, kernel_op=None):
    """Left-hand side H - sign*xi*(-grad M^k + k^2 N^k)(T.H)."""
    s = parse_sign(sign)
    TH = np.asarray(H, dtype=complex) @ np.asarray(T, dtype=complex).T
    if kernel_op is None:
        kernel_op = DyadicVolumeOperator(grid, k)
    Y = kernel_op.apply(TH)
    Y += lse_self_scalar(grid, k) * TH
    return H - s * xi * Y


def solve_effective_lse(grid, xi, T, k, wave, sign, method="auto"):
    """Solve the discretized Lippmann-Schwinger system for H.

    Dense LU for small grids, otherwise GMRES on the FFT kernel operator.
    Returns (H, relative residual).
    """
    s = parse_sign(sign)
    T = np.asarray(T, dtype=complex)
    rhs = 1j * k * incident_magnetic_many(wave, grid.centers)
    n = grid.count
    if method == "auto":
        method = "dense" if n <= DENSE_LSE_LIMIT else "gmres"
    kernel_op = DyadicVolumeOperator(grid, k)
    if method == "dense":
        G = kernel_op.dense_blocks()
        G += lse_self_scalar(grid, k) * np.eye(3 * n)
        # per-cell block-diagonal T: (G Tbig)[:, 3j+c] = sum_b G[:, 3j+b] T_bc
        A = (G.reshape(3 * n, n, 3) @ T).reshape(3 * n, 3 * n)
        A *= -s * xi
        A[np.arange(3 * n), np.arange(3 * n)] += 1.0
        H = lu_solve(lu_factor(A, overwrite_a=True),
                     rhs.reshape(-1)).reshape(n, 3)
    else:
        def matvec(h):
            return lse_operator_apply(h.reshape(n, 3), grid, xi, T, k, sign,
                                      kernel_op=kernel_op).reshape(-1)

        op = LinearOperator((3 * n, 3 * n), matvec=matvec, dtype=complex)
        h, info = gmres(op, rhs.reshape(-1), rtol=LSE_GMRES_TOL, atol=0.0,
                        restart=LSE_GMRES_RESTART, maxiter=LSE_GMRES_MAXITER)
        if info != 0:
            raise RuntimeError("effective-medium GMRES failed (info=%d)"
                               % info)
        H = h.reshape(n, 3)
    defect = lse_operator_apply(H, grid, xi, T, k, sign,
                                kernel_op=kernel_op) - rhs
    residual = float(np.linalg.norm(defect) / np.linalg.norm(rhs))
    return H, residual


def effective_far_field(H, grid, xi, T, k, sign, directions):
    """E_inf(xhat) = -sign (ik/4pi) xi int e^{-ik xhat.z} xhat x (T.H) dz.

    The -sign prefactor is the one consistent with the cluster far field:
    rescaling the point-interaction far field through U_m and matching
    T.H(z_m) with P0.U_m per cube fixes the branch factor to -sign, and the
    two far fields indeed converge to each other with this choice.
    """
    s = parse_sign(sign)
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    TH = np.asarray(H, dtype=complex) @ np.asarray(T, dtype=complex).T
    phases = np.exp(-1j * k * dirs @ grid.centers.T)
    moments = grid.weight * phases @ TH
    pref = -s * 1j * k * xi / FOUR_PI
    values = pref * np.cross(dirs, moments)
    return FarFieldSamples(dirs, values)


def magnetization_matrix(grid):
    """Dense real-symmetric matrix of the k=0 Magnetization operator."""
    return magnetization_operator(grid).dense()


class SpectrumReport:
    """Filtered, sorted discrete Magnetization spectrum."""

    def __init__(self, eigenvalues, resolution, mode, raw_count, tags=None):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.resolution = resolution
        self.mode = mode
        self.raw_count = raw_count
        self.tags = tags

    def nearest(self, target):
        return float(self.eigenvalues[
            np.argmin(np.abs(self.eigenvalues - target))])

    def to_dict(self):
        return {"resolution": self.resolution, "mode": self.mode,
                "raw_count": self.raw_count,
                "eigenvalues": self.eigenvalues.tolist(),
                "tags": self.tags}


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


def magnetization_spectrum(grid, count=None, mode="gradient", lmax=10,
                           edge_tol=SPECTRUM_EDGE_TOL):
    """Spectrum diagnostics of the discrete k=0 Magnetization operator.

    mode="gradient" (default): Ritz values of the symmetric operator, applied
    by FFT, projected on the discrete gradient-of-harmonic subspace spanned
    by harmonic-polynomial gradients up to degree lmax.  This isolates the
    physically meaningful band; the raw collocation matrix suffers heavy
    spectral pollution from the divergence-free and curl-free subspaces,
    whose images smear over (0,1) instead of collapsing onto {0} and {1}.

    mode="full": all eigenvalues of the dense matrix, with values within
    edge_tol of 0 or 1 dropped.  Affordable only on small grids.
    """
    if grid.n < 12:
        raise ValueError("spectrum diagnostics need resolution n >= 12")
    if mode == "full":
        vals = eigh(magnetization_matrix(grid), eigvals_only=True,
                    overwrite_a=True, check_finite=False)
        raw = vals.size
        vals = vals[(vals > edge_tol) & (vals < 1.0 - edge_tol)]
        tags = None
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
        vals = eigh(W.T @ A @ W, eigvals_only=True)
        raw = vals.size
        tags = ["gradient"] * raw
    else:
        raise ValueError("unknown spectrum mode %r" % mode)
    if count is not None:
        vals = vals[:count]
    return SpectrumReport(np.sort(vals), grid.n, mode, raw, tags)


def select_resonant_eigenvalue(grid, min_above=5e-3, degeneracy_tol=1e-9):
    """Exact discrete eigenvalue > 1/3 most strongly coupled to constants.

    Full eigendecomposition with eigenvectors; the coupling weight of each
    eigenvalue multiplet is the squared overlap of its eigenspace with the
    three constant vector fields (the leading content of a long-wavelength
    incident field).  Returns (eigenvalue, multiplet weight, degeneracy).
    """
    M = magnetization_matrix(grid)
    vals, vecs = eigh(M, overwrite_a=True, check_finite=False)
    C = grid.count
    weight = np.zeros(vals.size)
    for d in range(3):
        const = np.zeros((C, 3))
        const[:, d] = 1.0 / np.sqrt(C)
        weight += (vecs.T @ const.reshape(-1)) ** 2
    mask = vals > 1.0 / 3.0 + min_above
    best = None
    for lam in np.unique(np.round(vals[mask] / degeneracy_tol)):
        lam_val = lam * degeneracy_tol
        members = np.abs(vals - lam_val) < degeneracy_tol
        w = float(weight[members].sum())
        if best is None or w > best[1]:
            best = (float(vals[members][0]), w, int(members.sum()))
    if best is None:
        raise RuntimeError("no discrete eigenvalue above 1/3 found")
    return best


def weighted_norm(field, grid):
    """L2(Omega) norm of a grid field under the quadrature weights."""
    F = np.asarray(field, dtype=complex)
    return float(np.sqrt(grid.weight * np.sum(np.abs(F) ** 2)))


def nnprime_inner_product(grid):
    """<(N + N')(e1); e1> for the unit-norm constant ball eigenfunction."""
    c = 1.0 / np.sqrt(grid.total_weight())
    F = np.zeros((grid.count, 3), dtype=complex)
    F[:, 0] = c
    G = newtonian_apply(F, grid, k=0.0) + nprime_apply(F, grid)
    return float(np.real(grid.weight * np.sum(np.conj(F) * G)))


def resonance_amplification_scan(grid, lam_target, betas, wave_template,
                                 scales_template):
    """Amplification study near the dispersion root of lam_target.

    For each detuning beta, the coupling follows the detuned dispersion
    relation and the incident frequency follows the plasmonic-frequency
    rule; the lower sign branch is used throughout.  Returns (rows, slope)
    where rows hold (beta, xi, k, field norm, far-field sup, incident-ratio,
    residual) and slope fits log field-norm against log |beta|.
    """
    eta0 = scales_template["eta0"]
    lambda_b = scales_template["lambda_b"]
    theta = np.asarray(wave_template["theta"], dtype=float)
    p = np.asarray(wave_template["p"], dtype=float)
    rows = []
    for beta in betas:
        xi = detuned_xi(lam_target, beta)
        ksq, _ = plasmonic_frequency(eta0, lambda_b, lam_target, beta)
        k = float(np.sqrt(ksq))
        wave = IncidentWave(k, theta, p)
        T = tensor_T_ball(xi, "-")
        try:
            H, res = solve_effective_lse(grid, xi, T, k, wave, "-")
        except RuntimeError as exc:
            rows.append({"beta": beta, "xi": xi, "k": k, "status": str(exc)})
            continue
        far = effective_far_field(H, grid, xi, T, k, "-",
                                  _scan_directions(theta))
        inc_norm = weighted_norm(1j * k * incident_magnetic_many(
            wave, grid.centers), grid)
        rows.append({"beta": beta, "xi": xi, "k": k,
                     "field_norm": weighted_norm(H, grid),
                     "far_sup": far.sup_norm(),
                     "back_scatter": far.values[-1],
                     "incident_ratio": weighted_norm(H, grid) / inc_norm,
                     "residual": res, "status": "ok"})
    good = [r for r in rows if r["status"] == "ok" and abs(r["beta"]) > 0]
    logs = np.array([[np.log(abs(r["beta"])), np.log(r["field_norm"])]
                     for r in good])
    slope = float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0]) if len(good) > 1 \
        else np.nan
    return rows, slope


def _scan_directions(theta):
    """Direction set for the scan: the standard grid plus back-scatter."""
    return np.vstack([direction_grid(), -np.asarray(theta, dtype=float)])
