# The Helmholtz kernel family: the scalar kernel Phi_k(x,z) =
# e^{ik|x-z|}/(4pi|x-z|) and the dyadic kernel Y_k(x,z) = grad grad Phi_k +
# k^2 Phi_k I, with the lattice operator that every solver applies them
# through: a zero-padded discrete Fourier convolution whose pruned
# transforms are products with small DFT matrices.

import functools
import math
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


# the bytes of x-transformed (y, z) frequency columns that
# LatticeOperator.apply holds at a time
APPLY_SLAB_BYTES = 1 << 18


# axes in which each component of kernel_components is odd; the others, and
# the scalar kind's one component, are even in every axis
ODD = ((), (), (), (0, 1), (0, 2), (1, 2))


def _phases(n):
    """e^{-i pi j q / n} for rows q < 2n and columns j <= n, the phase
    reduced mod 2n in integers before it is scaled."""
    jq = np.arange(2 * n)[:, None] * np.arange(n + 1) % (2 * n)
    return cis(-np.pi / n * jq)


@functools.lru_cache(maxsize=8)
def pruned_dft(n):
    """The pruned transforms of one axis of extent n, as matrices.

    forward (2n, n): the length-2n DFT of n values padded with n zeros;
    inverse (n, 2n): the first n values of the inverse length-2n DFT.
    """
    forward = np.ascontiguousarray(_phases(n)[:, :n])
    inverse = np.ascontiguousarray(forward.T.conj()) / (2 * n)
    forward.flags.writeable = inverse.flags.writeable = False
    return forward, inverse


@functools.lru_cache(maxsize=8)
def octant_dft(n):
    """(even, odd) real (2n, n+1) matrices: the length-2n DFT along an axis
    of offsets o = -n ... n-1, stored at o mod 2n, from the values at |o| =
    0 ... n of a function even in that axis, and that DFT over i for a
    function odd in it.

    Offsets +-j (0 < j < n) pair into 2 cos (even) or -2i sin (odd); the
    offset -n alone gives (-1)^q when even and is 0 when odd.  The
    convolution reads only offsets |o| <= n-1, so the value at -n is free:
    0 keeps an odd function's table odd, and the DFT of a real kernel even
    or odd in each axis real.
    """
    e = _phases(n)
    even = 2.0 * e.real
    odd = 2.0 * e.imag
    even[:, 0] = 1.0
    even[:, n] = e[:, n].real
    odd[:, n] = 0.0
    even.flags.writeable = odd.flags.writeable = False
    return even, odd


class LatticeOperator:
    """Translation-invariant kernel on a masked cubic lattice plus a self term.

        (A F)_i = self_term F_i + weight sum_{j != i} K(x_i - x_j) F_j

    with x = pitch * ijk for integer lattice indices ijk (C, 3) and K one of
    the kernel_scalars kinds at wavenumber k.  A 3x3 kernel acts on (C, 3)
    fields; the scalar kind acts on each column of a (C,) or (C, m) field.

    The kernel is evaluated once, on the (n+1)^3 octant of offsets |o| of
    an n^3 bounding box (octant): each component is even in every axis, or
    odd in the two axes it pairs.  apply is a zero-padded convolution with
    the kernel at all (2n)^3 offsets, by the DFT of that table (the
    discrete-dipole method of Goodman, Draine & Flatau, Opt. Lett. 16
    (1991) 1198).  The spectrum is taken from the octant by per-axis
    2 cos / -2i sin matrices, one component at a time, and kept alone;
    dense() gathers the matrix from the octant.  The spectrum and the
    octant are built on first use.

    The transforms are products with small DFT matrices (Van Loan,
    Computational Frameworks for the Fast Fourier Transform, SIAM 1992),
    pruned as the zero-padded FFT of Markel (IEEE Trans. Audio
    Electroacoust. 19 (1971) 305): a (2n, n) forward matrix per axis reads
    only the n^3 non-zero inputs, an (n, 2n) inverse writes only the n^3
    outputs that are read, and both act on the field in its (m, X, Y, Z)
    layout, so no axis is transposed.  At these axis lengths the BLAS
    products beat numpy.fft's transforms of the same pruned lines
    (BENCH_19.json).

    apply allocates nothing but its result.  Its work arrays are made once
    per operator, on the first apply and after the spectrum, for the
    kind's m field components (the scalar kind takes a (C, m) field one
    column at a time): a y-stage array of m nx 2ny 2nz values, which also
    holds the scattered input and the result that is gathered, and one
    array shared by the z stage (m nx ny 2nz values) and the x stage.
    Scatter and gather go through one flat index of the cells.  The x
    stage (the forward x transform, the 3x3 spectral product and the
    inverse x transform) runs over slabs of the flattened (y, z)
    frequency columns, APPLY_SLAB_BYTES of x-transformed columns at a
    time, one output component at a time, and writes each slab's result
    back into the y-stage array; so the x-transformed field, m (2n)^3
    values, is never held whole.  Beyond the spectrum an operator keeps
    m/2 complex values per (2n)^3 entry, and m/4 or the slab budget,
    whichever is more; an apply adds only its result: 0.76 MB in all at
    box n = 12 (3x3 kernel), 2.8 MB at n = 20 and 21.6 MB at n = 40,
    against the 1.6, 7.6 and 60.4 MB that every apply allocated when it
    made its work arrays afresh.  Median ms per apply of the LSE kernel
    (k = 1.3) to a (C, 3) field on box grids, fresh processes, ten
    alternating pairs, 2-vCPU Xeon, OpenBLAS with 1 and 2 threads
    (BENCH_27.json):

        n                                 12      20      40
        per-call arrays, 1 thread       1.50    6.87    79.1
        kept arrays, slabs, 1 thread    1.22    4.61    61.0
        per-call arrays, 2 threads      1.57    7.27    70.7
        kept arrays, slabs, 2 threads   0.99    4.93    60.1

    The spectrum and the work arrays of an apply to a (C, 3) field must fit
    in physical memory: ValueError, naming the extent and the byte count,
    is raised on construction, before any of them is allocated.  So is a
    ValueError for two cells at one lattice site.
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
        # complex values per (2n)^3 spectrum entry held, beyond the slab
        # budget, while the spectrum is built and an apply to a (C, 3)
        # field runs, the spectrum's 6 or 1 and the work arrays included:
        # traced at up to 8.7 (3x3 kinds) and 2.2 (scalar) on box and ball
        # grids of n = 4 to 24
        per_entry = 3 if self.m == 1 else 10
        entries = math.prod(2 * int(n) for n in self.extent)
        require_memory(16 * entries * per_entry + APPLY_SLAB_BYTES,
                       "lattice operator on a %d x %d x %d extent"
                       % tuple(self.extent))
        # flat index of each cell in the n^3 bounding box, through which
        # apply scatters the field and gathers the result
        self.sites = np.ravel_multi_index(tuple(self.ijk.T),
                                          tuple(self.extent))
        occupied = np.zeros(entries // 8, dtype=bool)
        occupied[self.sites] = True
        if np.count_nonzero(occupied) < self.count:
            raise ValueError("two cells of the lattice operator share a site")

    def _octant(self):
        """Kernel components at the offsets pitch * (0 ... n) of each axis,
        (components, nx+1, ny+1, nz+1)."""
        d = np.stack(np.meshgrid(*(self.pitch * np.arange(n + 1)
                                   for n in self.extent), indexing="ij"),
                     axis=-1)
        iso, rad2 = kernel_scalars(d, self.k, self.kind)
        return self.weight * kernel_components(iso, rad2, d)

    @functools.cached_property
    def octant(self):
        """Kernel components on the octant of offsets; kept for dense
        only."""
        return self._octant()

    @functools.cached_property
    def spectrum(self):
        """DFT of the kernel at every offset, o stored at o mod 2n, over
        the three offset axes: (components, 2nx, 2ny, 2nz), of the octant's
        dtype, float64 for a real kernel (k = 0 and a real weight).

        Each component is transformed from the octant, the z axis first,
        by the even or odd octant_dft matrix of each axis, the last product
        written into the one preallocated array; a component odd in two
        axes is then negated for the factor i^2 that the odd matrices
        leave out.
        """
        octant = self._octant()
        nx, ny, nz = (int(n) for n in self.extent)
        spec = np.empty((len(octant), 2 * nx, 2 * ny, 2 * nz),
                        dtype=octant.dtype)
        # in the octant's dtype, so that no product casts a matrix again
        tables = [[m.astype(octant.dtype, copy=False) for m in octant_dft(n)]
                  for n in (nx, ny, nz)]
        for c, values in enumerate(octant):
            mx, my, mz = (table[axis in ODD[c]]
                          for axis, table in enumerate(tables))
            part = (values.reshape(-1, nz + 1) @ mz.T).reshape(
                nx + 1, ny + 1, 2 * nz)
            part = my @ part
            out = spec[c].reshape(2 * nx, -1)
            np.matmul(mx, part.reshape(nx + 1, -1), out=out)
            if ODD[c]:
                np.negative(out, out=out)
        return spec

    @functools.cached_property
    def _work(self):
        """The apply's work arrays, made on the first apply and after the
        spectrum, for m = 1 or 3 field components: the y-stage array of
        m nx 2ny 2nz complex values, a shared array that holds the z
        stage (m nx ny 2nz values) and then the x stage's slabs, the
        number of (2nx, width) planes in a slab, and the slab width in
        (y, z) frequency columns."""
        # the spectrum first, so that its build's temporaries are freed
        # before these arrays are made
        self.spectrum
        m = self.m
        nx, ny, nz = (int(n) for n in self.extent)
        # the m x-transformed components and, for a 3x3 kernel, one
        # product and one term
        planes = m + 2 if m == 3 else 1
        width = min(4 * ny * nz,
                    max(1, APPLY_SLAB_BYTES // (16 * planes * 2 * nx)))
        ystage = np.empty(m * nx * 4 * ny * nz, dtype=complex)
        shared = np.empty(max(m * nx * ny * 2 * nz, planes * 2 * nx * width),
                          dtype=complex)
        return ystage, shared, planes, width

    def apply(self, F):
        """A F by pruned DFT convolution; real if the kernel, self term and
        F are.  The field goes through the transforms m columns at a time,
        so the scalar kind takes a (C, m) field one column at a time."""
        F = np.asarray(F)
        cols = F.reshape(self.count, -1)
        out = np.multiply(cols, self.self_term,
                          dtype=np.result_type(self.dtype, F.dtype))
        for j in range(0, cols.shape[1], self.m):
            self._convolve(cols[:, j:j + self.m], out[:, j:j + self.m])
        return out.reshape(F.shape)

    def _convolve(self, cols, out):
        """Add the convolution of the (C, m) field cols to out, in the
        work arrays and with every product written in place."""
        ystage, shared, planes, width = self._work
        m = self.m
        nx, ny, nz = (int(n) for n in self.extent)
        (fx, gx), (fy, gy), (fz, gz) = (pruned_dft(n) for n in (nx, ny, nz))
        zstage = shared[:m * nx * ny * 2 * nz]
        grid = ystage[:m * nx * ny * nz].reshape(m, -1)
        grid.fill(0.0)
        grid[:, self.sites] = cols.T
        # forward z, y: each doubles one axis
        np.matmul(grid.reshape(-1, nz), fz.T,
                  out=zstage.reshape(-1, 2 * nz))
        np.matmul(fy, zstage.reshape(m * nx, ny, 2 * nz),
                  out=ystage.reshape(m * nx, 2 * ny, 2 * nz))
        # forward x, the spectral product and inverse x, a slab of (y, z)
        # frequency columns at a time, the result written back in place
        field = ystage.reshape(m, nx, -1)
        K = self.spectrum.reshape(len(self.spectrum), 2 * nx, -1)
        columns = field.shape[2]
        for s in range(0, columns, width):
            w = min(width, columns - s)
            slab = shared[:planes * 2 * nx * w].reshape(planes, 2 * nx, w)
            for b in range(m):
                np.matmul(fx, field[b, :, s:s + w], out=slab[b])
            if m == 1:
                np.multiply(slab[0], K[0, :, s:s + w], out=slab[0])
                np.matmul(gx, slab[0], out=field[0, :, s:s + w])
                continue
            prod, term = slab[3], slab[4]
            for a in range(3):
                np.multiply(K[SYM[a][0], :, s:s + w], slab[0], out=prod)
                for b in (1, 2):
                    prod += np.multiply(K[SYM[a][b], :, s:s + w], slab[b],
                                        out=term)
                np.matmul(gx, prod, out=field[a, :, s:s + w])
        # inverse y, z: each keeps the first half of one axis
        np.matmul(gy, ystage.reshape(m * nx, 2 * ny, 2 * nz),
                  out=zstage.reshape(m * nx, ny, 2 * nz))
        result = ystage[:m * nx * ny * nz]
        np.matmul(zstage.reshape(-1, 2 * nz), gz.T,
                  out=result.reshape(-1, nz))
        values = shared[:m * self.count].reshape(m, -1)
        np.take(result.reshape(m, -1), self.sites, axis=1, out=values,
                mode="clip")
        out += values.real.T if out.dtype.kind == "f" else values.T

    def dense(self, cells=None):
        """The (m C)x(m C) matrix of the operator, or only its rows at the
        cell indices `cells`; float64 if A is real.  A matrix that does not
        fit in physical memory raises ValueError before it is allocated."""
        m, count = self.m, self.count
        rows = np.arange(count) if cells is None else np.asarray(cells)
        require_memory(m * rows.size * m * count
                       * np.dtype(self.dtype).itemsize,
                       "dense operator on C=%d cells" % count)
        # flat octant index of |x_i - x_j| and the signs of x_i - x_j, for
        # every pair
        diff = self.ijk[rows].T[:, :, None] - self.ijk.T[:, None, :]
        negative = diff < 0
        index = np.ravel_multi_index(tuple(np.abs(diff, out=diff)),
                                     tuple(self.extent + 1))
        A = np.empty((rows.size, m, count, m), dtype=self.dtype)
        for a in range(m):
            for b in range(m):
                c = SYM[a][b]
                values = self.octant[c].reshape(-1)[index]
                if ODD[c]:
                    i, j = ODD[c]
                    np.negative(values, out=values,
                                where=negative[i] ^ negative[j])
                A[:, a, :, b] = values
        A[np.arange(rows.size), :, rows, :] += self.self_term * np.eye(m)
        return A.reshape(m * rows.size, m * count)


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

