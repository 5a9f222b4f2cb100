# Test oracles: independent forms of what the package computes, each built on
# the closed-form kernels, the direct pairwise sum or numpy.fft, so that none
# of them runs the lattice operator or the coupled-lattice solver it checks.

import numpy as np

FOUR_PI = 4.0 * np.pi


def helmholtz_kernel(x, z, k):
    """Scalar outgoing Helmholtz kernel e^{ikr}/(4 pi r) with r = |x-z|."""
    r = np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(z, dtype=float))
    if r < 1e-12:
        raise ValueError("helmholtz_kernel: coincident evaluation points")
    return np.exp(1j * k * r) / (FOUR_PI * r)


def dyadic_factors(targets, sources, k):
    """(radial, iso, rhat) with Y_k(x_i, z_j) = grad grad Phi_k + k^2 Phi_k I
    = radial rhat rhat^T + iso I for every target/source pair, all zero
    where the points coincide.

    Closed form in r = |x-z| and rhat = (x-z)/r:
        Y_k = (Phi'' - Phi'/r) rhat rhat + (Phi'/r + k^2 Phi) I
    with Phi' = Phi (ik - 1/r) and Phi'' = Phi ((ik - 1/r)^2 + 1/r^2).
    """
    dx = np.asarray(targets, dtype=float)[:, None, :] \
        - np.asarray(sources, dtype=float)[None, :, :]
    r = np.linalg.norm(dx, axis=-1)
    near = r < 1e-12
    r = np.where(near, 1.0, r)
    phi = np.exp(1j * k * r) / (FOUR_PI * r)
    s = 1j * k - 1.0 / r
    dphi = phi * s
    ddphi = phi * (s * s + 1.0 / r ** 2)
    radial = np.where(near, 0.0, ddphi - dphi / r)
    iso = np.where(near, 0.0, dphi / r + k * k * phi)
    return radial, iso, dx / r[..., None]


def dyadic_pairs(targets, sources, k):
    """Y_k(x_i, z_j) for every target/source pair, a (T, S, 3, 3) array."""
    radial, iso, rhat = dyadic_factors(targets, sources, k)
    return (radial[..., None, None] * rhat[..., :, None] * rhat[..., None, :]
            + iso[..., None, None] * np.eye(3))


def dyadic_green(x, z, k):
    """Y_k(x, z) at one pair of distinct points, a 3x3 tensor."""
    if np.linalg.norm(np.asarray(x, dtype=float)
                      - np.asarray(z, dtype=float)) < 1e-12:
        raise ValueError("dyadic_green: coincident evaluation points")
    return dyadic_pairs([x], [z], k)[0, 0]


def dyadic_green_fd(x, z, k, step=1e-4):
    """Finite-difference oracle for grad grad Phi_k + k^2 Phi_k I:
    second-order central differences of the scalar kernel."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((3, 3), dtype=complex)
    phi0 = helmholtz_kernel(x, z, k)
    for a in range(3):
        for b in range(3):
            ea = np.zeros(3)
            eb = np.zeros(3)
            ea[a] = step
            eb[b] = step
            if a == b:
                pp = helmholtz_kernel(x + ea, z, k)
                mm = helmholtz_kernel(x - ea, z, k)
                out[a, b] = (pp - 2.0 * phi0 + mm) / step ** 2
            else:
                pp = helmholtz_kernel(x + ea + eb, z, k)
                pm = helmholtz_kernel(x + ea - eb, z, k)
                mp = helmholtz_kernel(x - ea + eb, z, k)
                mm = helmholtz_kernel(x - ea - eb, z, k)
                out[a, b] = (pp - pm - mp + mm) / (4.0 * step ** 2)
    return out + k * k * phi0 * np.eye(3)


class DirectSumOperator:
    """Y_k between distinct points of any set: (A F)_i = sum_{j != i}
    Y_k(x_i, x_j) . F_j, no self term, with LatticeOperator's apply and
    dense, both by the closed form pair by pair (chunks of 256 targets)."""

    def __init__(self, points, k):
        self.points = np.asarray(points, dtype=float)
        self.k = k

    def _chunks(self):
        for lo in range(0, len(self.points), 256):
            yield self.points[lo:lo + 256]

    def apply(self, F):
        F = np.asarray(F, dtype=complex)
        out = []
        for targets in self._chunks():
            radial, iso, rhat = dyadic_factors(targets, self.points, self.k)
            along = radial * np.einsum("ijb,jb->ij", rhat, F)
            out.append(iso @ F + np.einsum("ij,ija->ia", along, rhat))
        return np.concatenate(out)

    def dense(self):
        n = len(self.points)
        return np.concatenate([
            dyadic_pairs(targets, self.points, self.k).transpose(
                0, 2, 1, 3).reshape(-1, 3 * n)
            for targets in self._chunks()])


# (a, b) entries of the six independent components of a symmetric 3x3 kernel
COMPONENTS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def offset_table(extent, pitch, kind, k, weight):
    """weight K(pitch o) at every lattice offset o of an extent-sized box,
    o stored at o mod 2n along each axis (o = -n at index n), zero at
    o = 0, by the closed form: (6, 2nx, 2ny, 2nz) components xx, yy, zz,
    xy, xz, yz of a 3x3 kind, (1, ...) for "scalar".  The kinds are
    "dyadic" Y_k, "hessian" Y_k - k^2 Phi_k I, "projected" Phi_k rhat rhat
    and "scalar" Phi_k.  A convolution over the box reads no offset o = -n,
    so that entry is free; it is zero on both axes of an off-diagonal
    component, which is odd in them, so the table of a real kernel has a
    real DFT."""
    axes = [pitch * np.concatenate([np.arange(n), np.arange(-n, 0)])
            for n in extent]
    d = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    radial, iso, rhat = (f[:, 0] for f in dyadic_factors(d, np.zeros((1, 3)),
                                                         k))
    r = np.linalg.norm(d, axis=-1)
    phi = np.where(r > 0, np.exp(1j * k * r) / (FOUR_PI * np.where(
        r > 0, r, 1.0)), 0.0)
    if kind == "scalar":
        values = phi[None]
    else:
        if kind == "hessian":
            iso = iso - k * k * phi
        elif kind == "projected":
            radial, iso = phi, np.zeros_like(phi)
        values = np.stack([radial * rhat[:, a] * rhat[:, b] + iso * (a == b)
                           for a, b in COMPONENTS])
    table = weight * values.reshape((-1,) + tuple(2 * n for n in extent))
    for part, (a, b) in zip(table, COMPONENTS):
        if a != b:
            for axis in (a, b):
                np.moveaxis(part, axis, 0)[extent[axis]] = 0.0
    return table


def offset_spectrum(extent, pitch, kind, k, weight):
    """np.fft.fftn of offset_table over its three offset axes."""
    return np.fft.fftn(offset_table(extent, pitch, kind, k, weight),
                       axes=(1, 2, 3))


def fft_lattice_apply(ijk, pitch, kind, k, weight, self_term, F):
    """A F of a lattice kernel by the zero-padded numpy.fft convolution with
    offset_spectrum: (A F)_i = self_term F_i + sum_{j != i} weight
    K(pitch (ijk_i - ijk_j)) F_j, on (C, 3) fields for a 3x3 kind and on
    each column of F for "scalar"."""
    ijk = np.asarray(ijk) - np.min(ijk, axis=0)
    extent = ijk.max(axis=0) + 1
    spectrum = offset_spectrum(extent, pitch, kind, k, weight)
    cols = np.asarray(F, dtype=complex).reshape(len(ijk), -1)
    grid = np.zeros((cols.shape[1],) + tuple(2 * extent), dtype=complex)
    grid[(slice(None),) + tuple(ijk.T)] = cols.T
    spec = np.fft.fftn(grid, axes=(1, 2, 3))
    if kind == "scalar":
        spec *= spectrum[0]
    else:
        entry = {pair: c for c, pair in enumerate(COMPONENTS)}
        spec = np.stack([sum(spectrum[entry[min(a, b), max(a, b)]] * spec[b]
                             for b in range(3)) for a in range(3)])
    out = np.fft.ifftn(spec, axes=(1, 2, 3))[(slice(None),) + tuple(ijk.T)]
    return out.T.reshape(np.shape(F)) + self_term * np.asarray(F)


def incident_magnetic(wave, x):
    """Magnetic incident field (theta x p) e^{ik theta.x} at one point."""
    phase = np.exp(1j * wave.k * np.dot(wave.theta, np.asarray(x, dtype=float)))
    return np.cross(wave.theta, wave.p).astype(complex) * phase


def coupling_constant(scales):
    """Off-diagonal coupling (eta k^2 / (sign c0)) a^{5-h}."""
    s = scales
    return s.eta * s.k ** 2 / (s.sign * s.c0) * s.a ** (5.0 - s.h)


def rhs_constant(scales):
    """Right-hand-side factor (i k / (sign c0)) a^{5-h}."""
    s = scales
    return 1j * s.k / (s.sign * s.c0) * s.a ** (5.0 - s.h)


def incident_rows(wave, points):
    """The magnetic incident field at each of the (n, 3) points."""
    return np.array([incident_magnetic(wave, x) for x in points])


def offdiag_apply(cluster, scales, F):
    """coupling * sum_{j != m} Y_k(z_m, z_j) . F_j by the direct sum."""
    return coupling_constant(scales) * DirectSumOperator(
        cluster.centers, scales.k).apply(F)


def q_form_rhs(cluster, scales, p0, wave):
    """Right-hand side of the Q-form system (I - B) Q = rhs."""
    return rhs_constant(scales) * incident_rows(wave, cluster.centers) @ p0.T


def system_residual(cluster, scales, p0, wave, Q):
    """Relative residual of Q in the point-interaction system."""
    rhs = q_form_rhs(cluster, scales, p0, wave)
    lhs = Q - offdiag_apply(cluster, scales, Q) @ p0.T
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))


def neumann_series_solution(cluster, scales, p0, wave, terms=30):
    """Neumann-series solution of (I - B) Q = rhs: the sum of rhs and its
    first `terms` images under B."""
    acc = q_form_rhs(cluster, scales, p0, wave)
    term = acc.copy()
    for _ in range(terms):
        term = offdiag_apply(cluster, scales, term) @ p0.T
        acc += term
    return acc


def to_u_form(Q, scales, p0):
    """Rescaled variables U_m = sign c0 a^{h-5} P0^{-1} Q_m."""
    s = scales
    factor = s.sign * s.c0 * s.a ** (s.h - 5.0)
    return factor * np.linalg.solve(p0.astype(complex), Q.T).T


def u_form_residual(cluster, scales, p0, wave, U):
    """Relative residual of U in the rescaled system
        U_m - (eta k^2/(sign c0)) a^{5-h} sum_{j!=m} Y_k(z_m,z_j).P0.U_j
            = i k H^Inc(z_m).
    """
    rhs = 1j * scales.k * incident_rows(wave, cluster.centers)
    lhs = U - offdiag_apply(cluster, scales, U @ p0.T)
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))


def counting_sum(cluster, exponent, m):
    """sum_{j != m} |z_j - z_m|^{-exponent}."""
    r = np.linalg.norm(cluster.centers - cluster.centers[m], axis=1)
    return float(np.sum(r[r > 0] ** (-float(exponent))))


def check_scales(scales, rtol=1e-12):
    """Assert the scaling identities that define a ScaleSet."""
    s = scales
    assert abs(s.eta - s.eta0 * s.a ** -2) <= rtol * s.eta
    assert abs(s.d ** 3 - s.c_r ** 3 * s.a ** (3 - s.h)) <= rtol * s.d ** 3
    ksq = (1.0 - s.sign * s.c0 * s.a ** s.h) / (s.eta0 * s.lambda_b)
    assert abs(s.k ** 2 - ksq) <= rtol * abs(ksq)


def parent_cluster_centers(domain, d):
    """The centres generate_cluster computed from floats before clusters were
    built from lattice indices, kept verbatim with its checks: the lattice
    cubes whose closure lies inside the domain, anchored at the box's
    minimum corner or at the ball's centre."""
    if d > (np.min(domain.extents) if domain.kind == "box"
            else 2.0 * domain.radius):
        raise ValueError("pitch d exceeds the domain extent")
    if domain.kind == "box":
        counts = np.floor(domain.extents / d + 1e-12).astype(int)
        corner = domain.center - domain.extents / 2.0
        axes = [corner[i] + d * (np.arange(counts[i]) + 0.5) for i in range(3)]
        grid = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grid], axis=1)
    half = int(np.ceil(domain.radius / d)) + 1
    idx = np.arange(-half, half + 1)
    grid = np.meshgrid(idx, idx, idx, indexing="ij")
    centers = domain.center + d * (np.stack(
        [g.ravel() for g in grid], axis=1) + 0.5)
    rel = centers - domain.center
    vertex_r = np.linalg.norm(np.abs(rel) + d / 2.0, axis=1)
    centers = centers[vertex_r <= domain.radius + 1e-12]
    if centers.shape[0] == 0:
        raise ValueError("no particle cube fits inside the domain")
    return centers


def grid_index(grid):
    """Array over the extent of the grid's indices of each cell's row, -1
    where no cell is kept."""
    index = -np.ones(tuple(grid.ijk.max(axis=0) + 1), dtype=np.int64)
    index[tuple(grid.ijk.T)] = np.arange(grid.count)
    return index


def neighbor_index(grid, axis, step):
    """Row of the cell step cells along axis (signed), -1 if absent."""
    index = grid_index(grid)
    shifted = grid.ijk.copy()
    shifted[:, axis] += step
    ok = (shifted[:, axis] >= 0) & (shifted[:, axis] < index.shape[axis])
    nbr = np.full(grid.count, -1, dtype=np.int64)
    nbr[ok] = index[tuple(shifted[ok].T)]
    return nbr


def interior_mask(grid, depth=1):
    """Cells whose full depth-neighbourhood stencil exists on the grid."""
    return np.all([neighbor_index(grid, axis, step) >= 0
                   for axis in range(3)
                   for step in range(-depth, depth + 1) if step], axis=0)


def _centered_differences(field, grid):
    """d F / d x_axis by centred differences, per axis, and the mask of
    cells where all three exist."""
    F = np.asarray(field, dtype=complex)
    valid = np.ones(grid.count, dtype=bool)
    dF = []
    for axis in range(3):
        plus = neighbor_index(grid, axis, +1)
        minus = neighbor_index(grid, axis, -1)
        ok = (plus >= 0) & (minus >= 0)
        valid &= ok
        der = np.zeros_like(F)
        der[ok] = (F[plus[ok]] - F[minus[ok]]) / (2.0 * grid.d)
        dF.append(der)
    return dF, valid


def discrete_curl(field, grid):
    """Centred-difference curl; second return is the valid-cell mask."""
    dF, valid = _centered_differences(field, grid)
    out = np.stack([dF[1][:, 2] - dF[2][:, 1], dF[2][:, 0] - dF[0][:, 2],
                    dF[0][:, 1] - dF[1][:, 0]], axis=1)
    return out, valid


def discrete_divergence(field, grid):
    """Centred-difference divergence; second return is the valid mask."""
    dF, valid = _centered_differences(field, grid)
    return sum(dF[axis][:, axis] for axis in range(3)), valid
