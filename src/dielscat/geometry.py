# Periodic cluster construction inside a box or ball domain, the scaling
# relations tying particle size, contrast, dilution and wavenumber together,
# and the counting-sum diagnostics used by the regression studies.

import json

import numpy as np

from .tensors import require_memory

H_LOW = 9.0 / 11.0
H_HIGH = 1.0


class DomainShape:
    """Axis-aligned box or ball; extents are side lengths or the radius."""

    def __init__(self, kind, extents, center=(0.0, 0.0, 0.0)):
        if kind not in ("box", "ball"):
            raise ValueError("domain kind must be 'box' or 'ball'")
        self.kind = kind
        self.center = np.asarray(center, dtype=float)
        if kind == "box":
            self.extents = np.asarray(extents, dtype=float)
            if self.extents.shape != (3,) or np.any(self.extents <= 0):
                raise ValueError("box needs three positive side lengths")
            self.radius = None
        else:
            self.radius = float(extents)
            if self.radius <= 0:
                raise ValueError("ball radius must be positive")
            self.extents = None

    def min_extent(self):
        if self.kind == "box":
            return float(np.min(self.extents))
        return 2.0 * self.radius

    def contains(self, pts):
        """Boolean mask of points inside the domain."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float)) - self.center
        if self.kind == "box":
            half = self.extents / 2.0
            return np.all(np.abs(pts) <= half + 1e-12, axis=1)
        return np.einsum("ij,ij->i", pts, pts) <= self.radius ** 2 + 1e-12

    def to_dict(self):
        if self.kind == "box":
            return {"kind": "box", "extents": list(self.extents),
                    "center": list(self.center)}
        return {"kind": "ball", "radius": self.radius,
                "center": list(self.center)}

    @staticmethod
    def from_dict(doc):
        if doc["kind"] == "box":
            return DomainShape("box", doc["extents"], doc.get("center", (0, 0, 0)))
        return DomainShape("ball", doc["radius"], doc.get("center", (0, 0, 0)))


def unit_box():
    """Unit-volume box [0,1]^3."""
    return DomainShape("box", (1.0, 1.0, 1.0), center=(0.5, 0.5, 0.5))


def unit_ball():
    """Ball of radius 1 at the origin."""
    return DomainShape("ball", 1.0)


class ScaleSet:
    """Consistent bundle of asymptotic parameters.

    Holds a (particle scale), h (regime exponent), eta0 (contrast prefactor),
    c0 (frequency offset constant), sign (+1 or -1 branch of the resonance
    condition), c_r (dilution), lambda_b (reference Newtonian eigenvalue of
    the particle shape) and the derived eta, d, k.
    """

    def __init__(self, a, h, eta0, c0, sign, c_r, lambda_b, eta, d, k):
        self.a = a
        self.h = h
        self.eta0 = eta0
        self.c0 = c0
        self.sign = sign
        self.c_r = c_r
        self.lambda_b = lambda_b
        self.eta = eta
        self.d = d
        self.k = k

    def check(self, rtol=1e-12):
        """Verify the defining scaling identities."""
        assert abs(self.eta - self.eta0 * self.a ** -2) <= rtol * self.eta
        assert abs(self.d ** 3 - self.c_r ** 3 * self.a ** (3 - self.h)) \
            <= rtol * self.d ** 3
        ksq = (1.0 - self.sign * self.c0 * self.a ** self.h) \
            / (self.eta0 * self.lambda_b)
        assert abs(self.k ** 2 - ksq) <= rtol * abs(ksq)

    def to_dict(self):
        return {"a": self.a, "h": self.h, "eta0": self.eta0, "c0": self.c0,
                "sign": "+" if self.sign > 0 else "-", "c_r": self.c_r,
                "lambda_b": self.lambda_b, "eta": self.eta, "d": self.d,
                "k": self.k}


def parse_sign(sign):
    """Map '+'/'-' (or +-1) to the +1/-1 branch value."""
    if sign in ("+", 1, 1.0):
        return 1.0
    if sign in ("-", -1, -1.0):
        return -1.0
    raise ValueError("sign must be '+' or '-'")


def derive_scales(a, h, eta0, c0, sign, c_r, lambda_b):
    """Build the unique consistent ScaleSet from the free parameters.

    eta = eta0 a^-2, d^3 = c_r^3 a^{3-h}, and the resonance-offset condition
    1 - k^2 eta a^2 lambda_b = (sign) c0 a^h fixes k.
    """
    if not (0.0 < a < 1.0):
        raise ValueError("a must lie in (0, 1)")
    if not (H_LOW < h < H_HIGH):
        raise ValueError("h must lie in (9/11, 1)")
    for name, val in (("eta0", eta0), ("c0", c0), ("c_r", c_r),
                      ("lambda_b", lambda_b)):
        if val <= 0:
            raise ValueError("%s must be positive" % name)
    s = parse_sign(sign)
    ksq = (1.0 - s * c0 * a ** h) / (eta0 * lambda_b)
    if ksq <= 0:
        raise ValueError("infeasible regime: frequency offset c0 a^h >= 1")
    return ScaleSet(a=a, h=h, eta0=eta0, c0=c0, sign=s, c_r=c_r,
                    lambda_b=lambda_b, eta=eta0 * a ** -2,
                    d=c_r * a ** ((3.0 - h) / 3.0), k=np.sqrt(ksq))


class Cluster:
    """Periodic cluster: cube centers z_m, pitch d, and the domain."""

    def __init__(self, centers, d, domain):
        self.centers = np.asarray(centers, dtype=float)
        self.d = float(d)
        self.domain = domain
        self.count = self.centers.shape[0]

    def lattice_index(self):
        """Integer indices of the centers on the pitch-d cubic lattice.

        The lattice runs through the centers' minimum corner.  Returns None
        when a center is off it, two centers share a site, or the lattice's
        (2n)^3 offset table holds more entries than 8 N^2 (a sparse set,
        for which the direct pairwise sum is cheaper than an FFT).
        """
        rel = (self.centers - self.centers.min(axis=0)) / self.d
        ijk = np.rint(rel).astype(np.int64)
        if np.max(np.abs(rel - ijk)) > 1e-9:
            return None
        extent = ijk.max(axis=0) + 1
        if np.prod(2.0 * extent) > 8.0 * self.count ** 2:
            return None
        # two centres share a site iff fewer sites than centres are occupied;
        # the grid has at most 1/8 of the offset table's entries
        occupied = np.zeros(tuple(extent), dtype=bool)
        occupied[tuple(ijk.T)] = True
        if np.count_nonzero(occupied) < self.count:
            return None
        return ijk

    def to_json(self):
        return json.dumps({"domain": self.domain.to_dict(), "d": self.d,
                           "centers": self.centers.tolist()})

    @staticmethod
    def from_json(text):
        doc = json.loads(text)
        return Cluster(doc["centers"], doc["d"],
                       DomainShape.from_dict(doc["domain"]))


def generate_cluster(domain, d):
    """Centers of all side-d lattice cubes whose closure lies inside the domain.

    The lattice is anchored at the box's minimum corner, or at the ball's
    center; partial cubes at the boundary are discarded.
    """
    if d <= 0:
        raise ValueError("pitch d must be positive")
    if d > domain.min_extent():
        raise ValueError("pitch d exceeds the domain extent")
    if domain.kind == "box":
        counts = np.floor(domain.extents / d + 1e-12).astype(int)
        corner = domain.center - domain.extents / 2.0
        axes = [corner[i] + d * (np.arange(counts[i]) + 0.5) for i in range(3)]
        grid = np.meshgrid(*axes, indexing="ij")
        centers = np.stack([g.ravel() for g in grid], axis=1)
    else:
        half = int(np.ceil(domain.radius / d)) + 1
        idx = np.arange(-half, half + 1)
        grid = np.meshgrid(idx, idx, idx, indexing="ij")
        centers = domain.center + d * (np.stack(
            [g.ravel() for g in grid], axis=1) + 0.5)
        # keep a cube iff its farthest vertex is still inside the ball
        rel = centers - domain.center
        vertex_r = np.linalg.norm(np.abs(rel) + d / 2.0, axis=1)
        centers = centers[vertex_r <= domain.radius + 1e-12]
    if centers.shape[0] == 0:
        raise ValueError("no particle cube fits inside the domain")
    return Cluster(centers, d, domain)


def counting_sum(cluster, exponent, m):
    """sum_{j != m} |z_j - z_m|^{-exponent}."""
    diffs = cluster.centers - cluster.centers[m]
    r = np.linalg.norm(diffs, axis=1)
    r = r[r > 0]
    return float(np.sum(r ** (-float(exponent))))


def counting_lattice(cluster):
    """The part of max_counting_sum that does not depend on the exponent.

    Returns the lattice indices ijk (Cluster.lattice_index), the squared
    offsets r^2 on the (2n)^3 table of lattice offsets (1 at the origin)
    and the zero-padded rfftn of the site occupancy to that table's shape;
    None off the lattice.
    """
    ijk = cluster.lattice_index()
    if ijk is None:
        return None
    extent = ijk.max(axis=0) + 1
    sq = [(cluster.d * np.fft.fftfreq(2 * k, 1.0 / (2 * k))) ** 2
          for k in extent]
    r2 = sq[0][:, None, None] + sq[1][None, :, None] + sq[2][None, None, :]
    r2[0, 0, 0] = 1.0
    occupancy = np.zeros(tuple(extent))
    occupancy[tuple(ijk.T)] = 1.0
    return ijk, r2, np.fft.rfftn(occupancy, s=r2.shape, axes=(0, 1, 2))


def max_counting_sum(cluster, exponent, lattice=None):
    """Worst-case counting sum max_m sum_{j != m} |z_j - z_m|^{-exponent}.

    On a lattice (Cluster.lattice_index) every site's sum is read from one
    zero-padded rfftn correlation of the site occupancy with |o|^{-exponent}
    on the (2n)^3 table of lattice offsets: O(n^3 log n) for an n^3 bounding
    box.  Off the lattice it is the maximum of counting_sum over the sites.
    lattice, counting_lattice(cluster), shares the occupancy transform
    between the exponents of one cluster; by default it is computed here.
    """
    if lattice is None:
        lattice = counting_lattice(cluster)
    if lattice is None:
        return max(counting_sum(cluster, exponent, m)
                   for m in range(cluster.count))
    ijk, r2, occupancy = lattice
    table = r2 ** (-0.5 * float(exponent))
    table[0, 0, 0] = 0.0
    # the table is even, so the correlation is a convolution
    sums = np.fft.irfftn(occupancy * np.fft.rfftn(table), s=table.shape,
                         axes=(0, 1, 2))
    return float(np.max(sums[tuple(ijk.T)]))


def boundary_grid_counts(domain, d, refine):
    """Whole cubes, in-domain and covered quadrature points along each axis.

    The boundary statistic's quadrature grid has spacing d/refine and, like
    the pitch-d lattice, starts at the box's minimum corner; a grid point
    counts as in the domain if it lies in the closed box and as covered if
    it lies in a whole lattice cube.  Along each axis both sets are
    prefixes of the grid, so (lattice, n, c) describe them fully; the
    complement holds no grid point when n == c on every axis.

    Per axis of extent L, grid point j sits at (j + 1/2) step from the
    corner: of the ceil(L/step) points laid down, the first
    floor((L + 1e-12)/step - 1/2) + 1 are within the box (to 1e-12), and
    the first refine * lattice are covered, since (j + 1/2)/refine <
    lattice exactly when j < refine * lattice.  O(1) in refine.
    """
    if isinstance(refine, bool) or int(refine) != refine or refine < 1:
        raise ValueError("refine must be a positive integer")
    step = d / refine
    L = domain.extents
    lattice = np.floor(L / d + 1e-12).astype(int)
    n = np.minimum(np.ceil(L / step - 1e-12),
                   np.floor((L + 1e-12) / step - 0.5) + 1).astype(int)
    return lattice, n, np.minimum(n, int(refine) * lattice)


def _folded(start, stop, odd):
    """Octant ranges [lo, hi) of the offsets p + delta, p in [start, stop).

    delta is 0 for odd refine and 1/2 for even; |p + delta| = m + delta with
    m = p for p >= 0 and m = -p - 1 + odd for p < 0, so the offsets fold onto
    one range of m from the non-negative p and one from the negative p.
    """
    return ((np.maximum(start, 0), np.maximum(stop, 0)),
            (np.maximum(-stop, 0) + odd, np.maximum(-start, 0) + odd))


def boundary_counting_statistic(cluster, refine=4):
    """sum_m ( int_{Omega \\ union of cubes} |z_m - z|^-3 dz )^2.

    The complement of the cube union inside the box domain is integrated by
    midpoint quadrature on a (d/refine)-spaced grid restricted to points not
    covered by any particle cube.  The lattice is anchored at the box's
    minimum corner, so on an edge of length L the complement is a layer of
    thickness (L/d - floor(L/d)) d on each of the three maximum faces.  Each
    particle sees that layer as a slab whose integral does not depend on d,
    so the statistic scales as d^-2, with a d ln(1/d) relative correction
    from the faces being finite.

    The centres must sit on that pitch-d lattice, inside the covered cubes
    (ValueError otherwise).  With n in-domain and c covered fine points per
    axis, the complement is the disjoint union of three boxes of fine
    points, [c_x, n_x) x [0, n_y) x [0, n_z), [0, c_x) x [c_y, n_y) x
    [0, n_z) and [0, c_x) x [0, c_y) x [c_z, n_z), each thin along its own
    axis.  Every centre sits at the same fractional offset of the fine
    lattice, so an offset from a centre to a fine point is m + delta fine
    steps along each axis, with m an integer and delta = 1/2 for even
    refine, 0 for odd.  The r^-3 kernel is even on every axis, so it is
    tabulated once per call on the octant of absolute offsets, m in [0, n)
    per axis, as one summed-volume table shared by the three boxes (the
    summed-area table of Crow, SIGGRAPH 1984, in three dimensions).  Its
    singular entry at zero offset (odd refine) is never inside a range: a
    thin-axis offset is at least (refine + 1)/2.  Per box, the thin-axis
    offsets are all positive and each in-plane range folds at zero into two
    octant ranges, so a particle's sum is four sub-boxes of eight-corner
    differences of the table.  The integral depends only on the particle's
    lattice site, so the differences are taken one axis at a time over the
    whole lattice and read off at the centres.  The midpoint sum is kept to
    round-off, at O(n_f^3 + 96 N) cost for n_f fine points per axis and N
    sites: one table, and at most 3 boxes x 4 sub-boxes x 8 corners of
    lookups per site.  The table, and the differences along its first axis,
    must fit in physical memory (ValueError otherwise, before either is
    allocated).
    """
    if cluster.count == 0:
        raise ValueError("empty cluster")
    domain = cluster.domain
    if domain.kind != "box":
        raise ValueError("boundary statistic is defined for box domains")
    d = cluster.d
    lattice, n, c = boundary_grid_counts(domain, d, refine)
    corner = domain.center - domain.extents / 2.0
    rel = (cluster.centers - corner) / d - 0.5
    ijk = np.rint(rel).astype(np.int64)
    if np.max(np.abs(rel - ijk)) > 1e-9:
        raise ValueError("boundary statistic needs the centres on the pitch-d "
                         "lattice anchored at the box's minimum corner")
    if np.any(ijk < 0) or np.any(ijk >= lattice):
        raise ValueError("boundary statistic needs every centre inside the "
                         "lattice of whole cubes in the box")
    if np.array_equal(n, c):
        return 0.0
    refine = int(refine)
    half, odd = divmod(refine, 2)
    shape = n + 1
    entries = np.prod(shape, dtype=float)
    # the first axis's differences hold up to three (lattice, plane) arrays
    planes = np.max(lattice * entries / shape)
    require_memory(8 * int(entries + 3 * planes),
                   "the boundary statistic's summed-volume table of "
                   "%d x %d x %d fine points (refine=%d)"
                   % (tuple(shape) + (refine,)))
    # sat[i, j, k] sums the kernel over m < (i, j, k); the weight step^3
    # cancels the step^-3 of the kernel
    sat = np.zeros(tuple(shape))
    q = sat[1:, 1:, 1:]
    sq = [(np.arange(k) + 0.5 * (1 - odd)) ** 2 for k in n]
    q[...] = sq[0][:, None, None] + sq[1][None, :, None]
    q += sq[2]
    if odd:
        # the singular zero offset, weighted inf^-1.5 = 0
        q[0, 0, 0] = np.inf
    np.power(q, -1.5, out=q)
    for axis in range(3):
        np.cumsum(sat, axis=axis, out=sat)
    # a centre sits at fine coordinate refine * i + (refine - 1)/2, so the
    # offset to fine point g is p + delta with p = g - refine * i - half
    start = [-refine * np.arange(k) - half for k in lattice]
    integral = np.zeros(tuple(lattice))
    for a in range(3):
        if c[a] == n[a]:
            continue
        # the thin axis first: its single range shrinks the table the most
        ranges = {a: [(start[a] + c[a], start[a] + n[a])]}
        for b in range(3):
            if b != a:
                width = c[b] if b < a else n[b]
                ranges[b] = _folded(start[b], start[b] + width, odd)
        box = sat
        for b, pairs in ranges.items():
            box = sum(box.take(hi, axis=b) - box.take(lo, axis=b)
                      for lo, hi in pairs)
        integral += box
    return float(np.sum(integral[tuple(ijk.T)] ** 2))
