# The Helmholtz kernel family: the scalar kernel Phi_k(x,z) =
# e^{ik|x-z|}/(4pi|x-z|) and the dyadic kernel Y_k(x,z) = grad grad Phi_k +
# k^2 Phi_k I, with the direct pairwise sum and the FFT lattice operator
# that every solver applies them through.

import functools
import os

import numpy as np

FOUR_PI = 4.0 * np.pi

# distances below this are treated as coincident points
COINCIDENT_TOL = 1e-12


def spectral_norm(dyadic):
    """Largest singular value of a 3x3 tensor."""
    return float(np.linalg.norm(dyadic, 2))


def cis(x):
    """e^{ix} for real x, as one complex array built from np.cos and np.sin.

    The same values as np.exp(1j * x), without the scalar complex exp that
    numpy calls for a complex argument.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def helmholtz_kernel(x, z, k):
    """Scalar outgoing Helmholtz kernel e^{ikr}/(4 pi r) with r = |x-z|."""
    r = np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(z, dtype=float))
    if r < COINCIDENT_TOL:
        raise ValueError("helmholtz_kernel: coincident evaluation points")
    return np.exp(1j * k * r) / (FOUR_PI * r)


def dyadic_green(x, z, k):
    """Dyadic kernel Y_k(x,z) = grad grad Phi_k + k^2 Phi_k I.

    Closed form in r = |x-z| and rhat = (x-z)/r:
        Y_k = (Phi'' - Phi'/r) rhat rhat + (Phi'/r + k^2 Phi) I
    with Phi' = Phi (ik - 1/r) and Phi'' = Phi ((ik - 1/r)^2 + 1/r^2).
    """
    dx = np.asarray(x, dtype=float) - np.asarray(z, dtype=float)
    r = np.linalg.norm(dx)
    if r < COINCIDENT_TOL:
        raise ValueError("dyadic_green: coincident evaluation points")
    phi = np.exp(1j * k * r) / (FOUR_PI * r)
    s = 1j * k - 1.0 / r
    dphi = phi * s
    ddphi = phi * (s * s + 1.0 / r ** 2)
    rhat = dx / r
    radial = ddphi - dphi / r
    iso = dphi / r + k * k * phi
    return radial * np.outer(rhat, rhat) + iso * np.eye(3)


def dyadic_green_fd(x, z, k, step=1e-4):
    """Finite-difference oracle for grad grad Phi_k + k^2 Phi_k I.

    Second-order central differences of the scalar kernel; kept as a
    permanent test fixture for the closed form above.
    """
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


def kernel_scalars(d, k, kind="dyadic"):
    """Scalar factors (iso, rad2) of a Helmholtz kernel at displacements d.

    d has shape (..., 3).  The 3x3 kinds are K(d) = iso I + rad2 d d^T:
        "dyadic"     Y_k = grad grad Phi_k + k^2 Phi_k I
        "hessian"    grad grad Phi_k
        "projected"  Phi_k rhat rhat
    and the "scalar" kind returns (Phi_k, None).  With r = |d|, Phi' =
    Phi (ik - 1/r) and Phi'' = Phi ((ik - 1/r)^2 + 1/r^2), the Hessian is
    (Phi'/r) I + ((Phi'' - Phi'/r)/r^2) d d^T.  Displacements shorter than
    the coincidence tolerance get zeros; callers handle self terms
    separately.  The factors are float64 when k == 0.
    """
    r2 = np.einsum("...i,...i->...", d, d)
    near = r2 < COINCIDENT_TOL ** 2
    r2 = np.where(near, 1.0, r2)
    r = np.sqrt(r2)
    if k:
        phi = cis(k * r) / (FOUR_PI * r)
        s = 1j * k - 1.0 / r
    else:
        phi = 1.0 / (FOUR_PI * r)
        s = -1.0 / r
    if kind == "scalar":
        iso, rad2 = phi, None
    elif kind == "projected":
        iso, rad2 = np.zeros_like(phi), phi / r2
    else:
        iso = phi * s / r
        rad2 = (phi * (s * s + 1.0 / r2) - iso) / r2
        if kind == "dyadic":
            iso += k * k * phi
    iso[near] = 0.0
    if rad2 is not None:
        rad2[near] = 0.0
    return iso, rad2


def dyadic_kernel_scalars(targets, sources, k):
    """Scalar factors of Y_k for all target/source pairs.

    Returns (iso, rad2) with Y_k(x_i, z_j) = iso[i,j] I + rad2[i,j] d d^T
    where d = x_i - z_j (unnormalized).  Pairs closer than the coincidence
    tolerance get zero entries; callers handle self terms separately.
    """
    tx = np.asarray(targets, dtype=float)
    sx = np.asarray(sources, dtype=float)
    return kernel_scalars(tx[:, None, :] - sx[None, :, :], k)


def dyadic_sum_chunked(targets, sources, k, fields, chunk=512):
    """Y = sum_j Y_k(x_i, z_j) . F_j with on-the-fly kernel evaluation.

    The direct sum, for point sets that are not on a lattice and as the
    oracle of LatticeOperator.  Memory stays O(chunk * n_sources);
    coincident pairs (self terms) are skipped.  fields has shape
    (n_sources, 3).
    """
    tx = np.asarray(targets, dtype=float)
    sx = np.asarray(sources, dtype=float)
    F = np.asarray(fields, dtype=complex)
    out = np.empty((tx.shape[0], 3), dtype=complex)
    for lo in range(0, tx.shape[0], chunk):
        hi = min(lo + chunk, tx.shape[0])
        d = tx[lo:hi, None, :] - sx[None, :, :]
        iso, rad2 = kernel_scalars(d, k)
        dF = np.einsum("ijk,jk->ij", d, F)
        out[lo:hi] = iso @ F + np.einsum("ij,ijk->ik", rad2 * dF, d)
    return out


def kernel_components(iso, rad2, d):
    """Independent entries of iso I + rad2 d d^T, stacked on a new first axis.

    Order (xx, yy, zz, xy, xz, yz), indexed through SYM; a scalar kernel
    (rad2 None) has the single component iso.
    """
    if rad2 is None:
        return iso[None]
    return np.stack([iso + rad2 * d[..., a] * d[..., b] if a == b
                     else rad2 * d[..., a] * d[..., b]
                     for a, b in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2),
                                  (1, 2))])


# component of kernel_components holding tensor entry (a, b)
SYM = ((0, 3, 4), (3, 1, 5), (4, 5, 2))


def physical_memory():
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(nbytes, what):
    """Raise ValueError naming `what` when nbytes exceed physical memory.

    Called before a large allocation, so a solve that cannot fit fails at
    once instead of being killed for lack of memory.
    """
    limit = physical_memory()
    if nbytes > limit:
        raise ValueError("%s needs %d bytes, more than the %d bytes of "
                         "physical memory" % (what, nbytes, limit))


def assemble_dense(component, count, m, dtype, self_term=0.0, targets=None):
    """(m T)x(m C) matrix of a pairwise kernel, self_term where i == j.

    component(c) returns the (T, C) pair values of kernel component c
    (see kernel_components) from each target cell (the indices `targets`,
    default all C cells) to each of the C source cells; m is 3 for a 3x3
    kernel acting on (C, 3) fields, 1 for a scalar kernel.  The matrix
    must fit in physical memory: a larger one raises ValueError before
    anything is allocated.
    """
    targets = np.arange(count) if targets is None else np.asarray(targets)
    rows = targets.size
    require_memory(m * rows * m * count * np.dtype(dtype).itemsize,
                   "dense operator on C=%d cells" % count)
    A = np.empty((rows, m, count, m), dtype=dtype)
    for a in range(m):
        for b in range(m):
            A[:, a, :, b] = component(SYM[a][b])
    A[np.arange(rows), :, targets, :] += self_term * np.eye(m)
    return A.reshape(m * rows, m * count)


def lattice_offsets(extent, pitch):
    """Displacements pitch * o of every lattice offset o of an extent box.

    The offsets of an n_x x n_y x n_z box of lattice sites run over
    [-n, n) on each axis; offset o is stored at o mod 2n (FFT order), so
    the result has shape (2 n_x, 2 n_y, 2 n_z, 3) and a zero-padded FFT
    convolution with a kernel evaluated on it sums over all site pairs.
    """
    axes = [pitch * np.fft.fftfreq(2 * n, 1.0 / (2 * n)) for n in extent]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


class LatticeOperator:
    """Translation-invariant kernel on a masked cubic lattice plus a self term.

        (A F)_i = self_term F_i + weight sum_{j != i} K(x_i - x_j) F_j

    with x = pitch * ijk for integer lattice indices ijk (C, 3) and K one of
    the kernel_scalars kinds at wavenumber k.  A 3x3 kernel acts on (C, 3)
    fields; the scalar kind acts on each column of a (C,) or (C, m) field.

    The kernel is evaluated once on the (2n)^3 table of lattice offsets of
    an n^3 bounding box, offset o stored at o mod 2n.  apply is a
    zero-padded FFT convolution with the stored FFT of that table (the
    discrete-dipole method of Goodman, Draine & Flatau, Opt. Lett. 16
    (1991) 1198); dense() gathers the matrix from the same table.  Both are
    built on first use.

    The convolution is pruned (Markel, IEEE Trans. Audio Electroacoust. 19
    (1971) 305): only n^3 of the (2n)^3 padded inputs are non-zero and only
    n^3 of the outputs are read.  The forward transform pads each axis just
    before transforming it, so it skips the all-zero lines; the inverse
    keeps the first n entries of each axis just after transforming it, so
    it skips the unread lines.  That is 14 n^3 instead of 24 n^3 of line
    work each way, and the padded input grid is never allocated.
    """

    def __init__(self, ijk, pitch, kind, k=0.0, weight=1.0, self_term=0.0):
        ijk = np.asarray(ijk, dtype=np.int64)
        self.ijk = ijk - ijk.min(axis=0)
        self.count = ijk.shape[0]
        self.extent = self.ijk.max(axis=0) + 1
        self.pitch = float(pitch)
        self.kind = kind
        self.k = k
        self.weight = weight
        self.self_term = self_term
        self.m = 1 if kind == "scalar" else 3
        self.dtype = np.result_type(complex if k else float, self_term)

    @functools.cached_property
    def table(self):
        """Kernel components at every offset, in FFT order along each axis."""
        d = lattice_offsets(self.extent, self.pitch)
        iso, rad2 = kernel_scalars(d, self.k, self.kind)
        return self.weight * kernel_components(iso, rad2, d)

    @functools.cached_property
    def spectrum(self):
        return np.fft.fftn(self.table, axes=(1, 2, 3))

    def apply(self, F):
        """A F by FFT convolution; real if the kernel, self term and F are."""
        F = np.asarray(F)
        cols = F.reshape(self.count, -1)
        cells = tuple(self.ijk.T)
        grid = np.zeros((cols.shape[1],) + tuple(self.extent), dtype=complex)
        grid[(slice(None),) + cells] = cols.T
        # fftn pads each axis only as it transforms it (the last axis first)
        spec = np.fft.fftn(grid, s=tuple(2 * self.extent), axes=(1, 2, 3))
        K = self.spectrum
        if self.m == 1:
            spec *= K[0]
        else:
            spec = np.stack([sum(K[SYM[a][b]] * spec[b] for b in range(3))
                             for a in range(3)])
        for axis, n in enumerate(self.extent, start=1):
            spec = np.fft.ifft(spec, axis=axis)[(slice(None),) * axis
                                                + (slice(n),)]
        out = spec[(slice(None),) + cells].T
        if np.result_type(self.dtype, F.dtype) == float:
            out = out.real
        return (out + self.self_term * cols).reshape(F.shape)

    def dense(self, cells=None):
        """The (m C)x(m C) matrix of the operator, or only its rows at the
        cell indices `cells`; float64 if A is real."""
        targets = self.ijk if cells is None else self.ijk[cells]

        # built only once assemble_dense has checked the matrix fits
        @functools.cache
        def pairs():
            """Flat table index of the offset x_i - x_j, for every pair."""
            diff = targets.T[:, :, None] - self.ijk.T[:, None, :]
            return np.ravel_multi_index(tuple(diff), tuple(2 * self.extent),
                                        mode="wrap")

        return assemble_dense(lambda c: self.table[c].reshape(-1)[pairs()],
                              self.count, self.m, self.dtype, self.self_term,
                              cells)


def direction_grid():
    """26 unit directions: 6 axes, 8 cube diagonals, 12 edge midpoints."""
    dirs = []
    for a in range(3):
        for s in (1.0, -1.0):
            v = np.zeros(3)
            v[a] = s
            dirs.append(v)
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            for sz in (1.0, -1.0):
                dirs.append(np.array([sx, sy, sz]) / np.sqrt(3.0))
    for a in range(3):
        b = (a + 1) % 3
        for sa in (1.0, -1.0):
            for sb in (1.0, -1.0):
                v = np.zeros(3)
                v[a] = sa
                v[b] = sb
                dirs.append(v / np.sqrt(2.0))
    return np.array(dirs)


def refine_direction_grid(directions):
    """Double a direction set by adding normalized pairwise midpoints."""
    dirs = [np.asarray(v, dtype=float) for v in directions]
    extra = []
    n = len(dirs)
    for i in range(n):
        v = dirs[i] + dirs[(i + 1) % n]
        nv = np.linalg.norm(v)
        if nv > 1e-9:
            extra.append(v / nv)
    return np.array(dirs + extra)
