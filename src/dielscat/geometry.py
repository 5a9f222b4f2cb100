# Periodic cluster construction inside a box or ball domain, the scaling
# relations tying particle size, contrast, dilution and wavenumber together,
# and the counting-sum diagnostics used by the regression studies.

import math

import numpy as np

from .tensors import require_memory

H_LOW = 9.0 / 11.0
H_HIGH = 1.0

# bytes per candidate lattice site held at once while generate_cluster
# builds a cluster: traced at up to 80.5 (box, every site a candidate) and
# 112.2 (ball, the (2 half + 1)^3 sites of its bounding cube) on 8,000 to
# 6,000,000 sites
CLUSTER_SITE_BYTES = {"box": 81, "ball": 113}


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

    def cell_side(self, n):
        """Side of the cells of an n^3 voxel grid over the domain's bounding
        box, which must be cubic (ValueError for a box whose sides differ)."""
        if self.kind == "ball":
            return 2.0 * self.radius / n
        sides = self.extents / n
        if np.ptp(sides) > 1e-12 * np.max(sides):
            raise ValueError("box grid needs cubic cells, not extents %s"
                             % self.extents.tolist())
        return float(sides[0])

    def contains(self, pts):
        """Boolean mask of points inside the domain."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float)) - self.center
        if self.kind == "box":
            half = self.extents / 2.0
            return np.all(np.abs(pts) <= half + 1e-12, axis=1)
        return np.einsum("ij,ij->i", pts, pts) <= self.radius ** 2 + 1e-12

    def to_dict(self):
        if self.kind == "box":
            return {"kind": "box", "extents": self.extents.tolist(),
                    "center": self.center.tolist()}
        return {"kind": "ball", "radius": self.radius,
                "center": self.center.tolist()}

    @staticmethod
    def from_dict(doc):
        size = doc["extents"] if doc["kind"] == "box" else doc["radius"]
        return DomainShape(doc["kind"], size, doc.get("center", (0, 0, 0)))


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
    """Periodic cluster: the cubes of pitch d at the distinct integer lattice
    indices ijk (N, 3), which may be negative, of the lattice anchored at
    origin, inside the domain.  Cube ijk has its centre at origin +
    d (ijk + 1/2)."""

    def __init__(self, ijk, d, origin, domain):
        ijk = np.asarray(ijk)
        if ijk.ndim != 2 or ijk.shape[1] != 3 or not ijk.size \
                or not np.issubdtype(ijk.dtype, np.integer):
            raise ValueError("cluster indices must be a nonempty (N, 3) "
                             "integer array")
        self.ijk = ijk.astype(np.int64, copy=False)
        self.d = float(d)
        self.origin = np.asarray(origin, dtype=float)
        self.domain = domain
        self.count = ijk.shape[0]
        self.centers = self.origin + self.d * (self.ijk + 0.5)


def check_pitch(domain, d):
    """Raise ValueError unless a whole side-d lattice cube fits in the
    domain: d > 0 and at most the box's shortest side, or for the ball,
    whose cubes nearest its centre reach sqrt(3) d from it, at most
    radius / sqrt(3)."""
    if d <= 0:
        raise ValueError("pitch d must be positive")
    if domain.kind == "box":
        if d > np.min(domain.extents):
            raise ValueError("pitch d = %.6g exceeds the box's shortest side "
                             "%.6g" % (d, np.min(domain.extents)))
    elif np.sqrt(3.0) * d > domain.radius + 1e-12:
        raise ValueError("no particle cube of pitch d = %.6g fits inside the "
                         "ball of radius %.6g" % (d, domain.radius))


def generate_cluster(domain, d):
    """All side-d lattice cubes whose closure lies inside the domain.

    The lattice is anchored at the box's minimum corner, or at the ball's
    center; partial cubes at the boundary are discarded.  A lattice whose
    candidate sites (the box's, or those of the ball's bounding cube) need
    more than physical memory raises ValueError before any is allocated.
    """
    check_pitch(domain, d)
    if domain.kind == "box":
        shape = tuple(int(n) for n in np.floor(domain.extents / d + 1e-12))
    else:
        half = int(np.ceil(domain.radius / d)) + 1
        shape = (2 * half + 1,) * 3
    sites = math.prod(shape)
    require_memory(CLUSTER_SITE_BYTES[domain.kind] * sites,
                   "a %s cluster of pitch d = %.6g on %d lattice sites"
                   % (domain.kind, d, sites))
    ijk = np.stack(np.unravel_index(np.arange(sites), shape), axis=1)
    if domain.kind == "box":
        return Cluster(ijk, d, domain.center - domain.extents / 2.0, domain)
    ijk -= half
    # keep a cube iff its farthest vertex is still inside the ball, measured
    # from the centre as the cluster computes it, rounding included
    rel = domain.center + d * (ijk + 0.5) - domain.center
    vertex_r = np.linalg.norm(np.abs(rel) + d / 2.0, axis=1)
    return Cluster(ijk[vertex_r <= domain.radius + 1e-12], d, domain.center,
                   domain)


def counting_lattice(cluster):
    """The part of max_counting_sum that does not depend on the exponent.

    Returns the cluster's lattice indices shifted to start at 0, the
    squared offsets r^2 on the (2n)^3 table of lattice offsets (1 at the
    origin) and the zero-padded rfftn of the site occupancy to that
    table's shape.
    """
    ijk = cluster.ijk - cluster.ijk.min(axis=0)
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

    Every site's sum is read from one zero-padded rfftn correlation of the
    site occupancy with |o|^{-exponent} on the (2n)^3 table of lattice
    offsets: O(n^3 log n) for an n^3 bounding box.  lattice,
    counting_lattice(cluster), shares the occupancy transform between the
    exponents of one cluster; by default it is computed here.
    """
    if lattice is None:
        lattice = counting_lattice(cluster)
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


def boundary_table(n, refine):
    """The boundary statistic's summed-volume table for up to n fine points
    per axis: (n_x + 1, n_y + 1, n_z + 1) floats.

    Entry [i, j, k] sums the r^-3 kernel over the octant of absolute fine
    offsets m < (i, j, k), each m + delta fine steps along its axis, with
    delta = 1/2 for even refine and 0 for odd: in fine-grid units the
    weight step^3 cancels the kernel's step^-3, so the table depends on
    nothing but n and the parity of refine.  Each entry is a running sum
    over smaller offsets, so the table for a smaller n is a prefix of this
    one, bit for bit, and one table serves every pitch whose n it covers.
    The table, and the differences along its first axis that the statistic
    takes, must fit in physical memory (ValueError otherwise, before either
    is allocated); the differences hold one plane per whole cube, at most
    n // refine along an axis.
    """
    n = np.asarray(n, dtype=int)
    refine = int(refine)
    odd = refine % 2
    shape = n + 1
    entries = np.prod(shape, dtype=float)
    # the first axis's differences hold up to three (lattice, plane) arrays
    planes = np.max(n // refine * entries / shape)
    require_memory(8 * int(entries + 3 * planes),
                   "the boundary statistic's summed-volume table of "
                   "%d x %d x %d fine points (refine=%d)"
                   % (tuple(shape) + (refine,)))
    # sat[i, j, k] sums the kernel over m < (i, j, k)
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
    return sat


def _differences(box, axis, pairs):
    """sum over (lo, hi) in pairs of box[hi] - box[lo] along axis, each
    range's difference taken in place so that no more than three arrays of
    the result's size are alive at once."""
    at = (slice(None),) * axis
    total = None
    for lo, hi in pairs:
        part = box[at + (hi,)]
        part -= box[at + (lo,)]
        if total is None:
            total = part
        else:
            total += part
    return total


def boundary_counting_statistic(cluster, refine=4, table=None):
    """sum_m ( int_{Omega \\ union of cubes} |z_m - z|^-3 dz )^2.

    The complement of the cube union inside the box domain is integrated by
    midpoint quadrature on a (d/refine)-spaced grid restricted to points not
    covered by any particle cube.  The lattice is anchored at the box's
    minimum corner, so on an edge of length L the complement is a layer of
    thickness (L/d - floor(L/d)) d on each of the three maximum faces.  Each
    particle sees that layer as a slab whose integral does not depend on d,
    so the statistic scales as d^-2, with a d ln(1/d) relative correction
    from the faces being finite.

    The cluster's lattice origin must be the box's minimum corner and its
    indices must lie inside the covered cubes (ValueError otherwise).  With
    n in-domain and c covered fine points per axis, the complement is the
    disjoint union of three boxes of fine points, [c_x, n_x) x [0, n_y) x
    [0, n_z), [0, c_x) x [c_y, n_y) x [0, n_z) and [0, c_x) x [0, c_y) x
    [c_z, n_z), each thin along its own axis.  Every centre sits at the same
    fractional offset of the fine lattice, so an offset from a centre to a
    fine point is m + delta fine steps along each axis, with m an integer
    and delta = 1/2 for even refine, 0 for odd.  The r^-3 kernel is even on
    every axis, so it is tabulated on the octant of absolute offsets, m in
    [0, n) per axis, as one summed-volume table shared by the three boxes
    (boundary_table; the summed-area table of Crow, SIGGRAPH 1984, in three
    dimensions).  Its singular entry at zero offset (odd refine) is never
    inside a range: a thin-axis offset is at least (refine + 1)/2.  Per box,
    the thin-axis offsets are all positive and each in-plane range folds at
    zero into two octant ranges, so a particle's sum is four sub-boxes of
    eight-corner differences of the table.  The integral depends only on the
    particle's lattice site, so the differences are taken one axis at a time
    over the whole lattice and read off at the centres.  The midpoint sum is
    kept to round-off.

    table, boundary_table(N, refine) with N >= n on every axis, lets one
    table serve every pitch of a study: its [:n_x+1, :n_y+1, :n_z+1] prefix
    is this call's table bit for bit, so the statistic is the same.  A table
    that does not cover n, or was built for the other parity of refine,
    raises ValueError; by default boundary_table(n, refine) is built here,
    with its memory check.  The cost is
    one table per study, O(N^3) for N fine points per axis, plus at most
    3 boxes x 4 sub-boxes x 8 corners = 96 lookups per site per pitch,
    O(96 N_sites).
    """
    domain = cluster.domain
    if domain.kind != "box":
        raise ValueError("boundary statistic is defined for box domains")
    d = cluster.d
    lattice, n, c = boundary_grid_counts(domain, d, refine)
    corner = domain.center - domain.extents / 2.0
    if np.max(np.abs(cluster.origin - corner)) > 1e-9 * d:
        raise ValueError("boundary statistic needs the centres on the pitch-d "
                         "lattice anchored at the box's minimum corner")
    ijk = cluster.ijk
    if np.any(ijk < 0) or np.any(ijk >= lattice):
        raise ValueError("boundary statistic needs every centre inside the "
                         "lattice of whole cubes in the box")
    if np.array_equal(n, c):
        return 0.0
    refine = int(refine)
    half, odd = divmod(refine, 2)
    if table is None:
        table = boundary_table(n, refine)
    elif np.any(np.asarray(table.shape) < n + 1):
        raise ValueError("boundary statistic needs a summed-volume table of "
                         "at least %d x %d x %d fine points, not %d x %d x %d"
                         % (tuple(n + 1) + table.shape))
    elif (table[1, 1, 1] == 0.0) != odd:
        # the zero offset's entry: 0 for odd refine, positive for even
        raise ValueError("boundary statistic with refine=%d needs a table "
                         "built for %s refine" % (refine,
                                                  ("even", "odd")[odd]))
    sat = table[:n[0] + 1, :n[1] + 1, :n[2] + 1]
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
            box = _differences(box, b, pairs)
        integral += box
    return float(np.sum(integral[tuple(ijk.T)] ** 2))
