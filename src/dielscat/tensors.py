# The Helmholtz kernel family: the scalar kernel Phi_k(x,z) =
# e^{ik|x-z|}/(4pi|x-z|) and the dyadic kernel Y_k(x,z) = grad grad Phi_k +
# k^2 Phi_k I, with the FFT lattice operator that every solver applies them
# through.

import functools
import itertools
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

    The direct sum between any two point sets.  Memory stays O(chunk *
    n_sources); coincident pairs (self terms) are skipped.  fields has
    shape (n_sources, 3).
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


class LatticeOperator:
    """Translation-invariant kernel on a masked cubic lattice plus a self term.

        (A F)_i = self_term F_i + weight sum_{j != i} K(x_i - x_j) F_j

    with x = pitch * ijk for integer lattice indices ijk (C, 3) and K one of
    the kernel_scalars kinds at wavenumber k.  A 3x3 kernel acts on (C, 3)
    fields; the scalar kind acts on each column of a (C,) or (C, m) field.

    The kernel is evaluated on the (n+1)^3 octant of lattice offsets of an
    n^3 bounding box and mirrored onto the (2n)^3 table of all offsets,
    offset o stored at o mod 2n.  apply is a zero-padded FFT convolution
    with the FFT of that table (the discrete-dipole method of Goodman,
    Draine & Flatau, Opt. Lett. 16 (1991) 1198), transformed in place and
    kept alone; dense() gathers the matrix from the table, which only it
    keeps.  Both are built on first use.

    The convolution is pruned (Markel, IEEE Trans. Audio Electroacoust. 19
    (1971) 305): only n^3 of the (2n)^3 padded inputs are non-zero and only
    n^3 of the outputs are read.  The forward transform pads each axis just
    before transforming it, so it skips the all-zero lines; the inverse
    keeps the first n entries of each axis just after transforming it, so
    it skips the unread lines.  That is 14 n^3 instead of 24 n^3 of line
    work each way, and the padded input grid is never allocated.

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
        # complex values per (2n)^3 table entry held while an apply to a
        # (C, 3) field runs, the spectrum's 6 or 1 included: traced at up to
        # 15.5 (3x3 kinds) and 7.9 (scalar) on box and ball grids of n = 6
        # to 20
        per_entry = 9 if self.m == 1 else 17
        entries = math.prod(2 * int(n) for n in self.extent)
        require_memory(16 * entries * per_entry,
                       "lattice operator on a %d x %d x %d extent"
                       % tuple(self.extent))
        occupied = np.zeros(tuple(self.extent), dtype=bool)
        occupied[tuple(self.ijk.T)] = True
        if np.count_nonzero(occupied) < self.count:
            raise ValueError("two cells of the lattice operator share a site")

    def _kernel_table(self, dtype=None):
        """Kernel components at every offset, in FFT order along each axis,
        as dtype (default: that of the kernel values).

        Evaluated on the (n+1)^3 octant of offsets |o| and mirrored: each
        component is even in every axis, or odd in the two axes it pairs
        (xy, xz, yz), and the kernel scalars depend on the squared offsets
        only, so the mirror reproduces the full evaluation bit for bit.
        """
        axes = [np.fft.fftfreq(2 * n, 1.0 / (2 * n)) for n in self.extent]
        octant = [self.pitch * np.abs(a[:n + 1])
                  for a, n in zip(axes, self.extent)]
        d = np.stack(np.meshgrid(*octant, indexing="ij"), axis=-1)
        iso, rad2 = kernel_scalars(d, self.k, self.kind)
        values = self.weight * kernel_components(iso, rad2, d)
        out = np.empty((len(values),) + tuple(2 * self.extent),
                       dtype=dtype or values.dtype)
        # offsets 0 .. n-1 sit at their own index, -n .. -1 at 2n + o and
        # read |o| = n .. 1 reversed; the negative half of an odd axis
        # changes sign
        halves = [((slice(n), slice(n)), (slice(n, None), slice(n, 0, -1)))
                  for n in self.extent]
        odd = ((), (), (), (0, 1), (0, 2), (1, 2))
        for c, value in enumerate(values):
            for part in itertools.product((0, 1), repeat=3):
                dst, src = zip(*(h[p] for h, p in zip(halves, part)))
                if sum(part[axis] for axis in odd[c]) % 2:
                    np.negative(value[src], out=out[c][dst])
                else:
                    out[c][dst] = value[src]
        return out

    @functools.cached_property
    def table(self):
        """Kernel components at every offset, in FFT order; kept for dense
        only."""
        return self._kernel_table()

    @functools.cached_property
    def spectrum(self):
        """FFT of the kernel table over the three offset axes.

        The axes are transformed in place on a fresh complex table, the
        last first as fftn does, so neither a second array of its size nor
        the table is kept.
        """
        spec = self._kernel_table(complex)
        for axis in (3, 2, 1):
            np.fft.fft(spec, axis=axis, out=spec)
        return spec

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
            prod = np.empty_like(spec)
            term = np.empty_like(spec[0])
            for a in range(3):
                np.multiply(K[SYM[a][0]], spec[0], out=prod[a])
                for b in (1, 2):
                    prod[a] += np.multiply(K[SYM[a][b]], spec[b], out=term)
            spec = prod
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

