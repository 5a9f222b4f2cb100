# The cube group O_h as the 48 signed axis permutations, its ten real
# orthogonal irreducible representations, and the symmetry-adapted basis in
# which an O_h-invariant operator on vector fields is block diagonal.

import functools
import itertools

import numpy as np

# the bytes of operator rows that SymmetryBasis.reduce gathers at a time
REDUCE_CHUNK_BYTES = 1 << 23


@functools.lru_cache(maxsize=1)
def cube_group():
    """The 48 signed permutation matrices R, shape (48, 3, 3), identity first.

    R[i, pi(i)] = s_i for an axis permutation pi and signs s_i = +-1.
    """
    mats = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            R = np.zeros((3, 3), dtype=np.int64)
            R[np.arange(3), perm] = signs
            mats.append(R)
    group = np.array(mats)
    group.flags.writeable = False
    return group


@functools.lru_cache(maxsize=1)
def irreps():
    """Mulliken name -> (48, d, d) real orthogonal matrices of each irrep.

    All ten are read off R with axis permutation pi: A1g = 1, A1u = det R,
    A2g = sgn pi, A2u = sgn pi det R, Eg = the 2-d representation of pi on
    the traceless diagonals, Eu = det R Eg, T1u = R (the vector
    representation, which the constant fields span), T1g = det R R,
    T2u = sgn pi R, T2g = sgn pi det R R.
    """
    G = cube_group().astype(float)
    perm = np.abs(G)
    det = np.linalg.det(G).round()[:, None, None]
    sgn = np.linalg.det(perm).round()[:, None, None]
    # orthonormal basis of the plane orthogonal to (1, 1, 1)
    B = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]).T
    B /= np.linalg.norm(B, axis=0)
    E = B.T @ perm @ B
    one = np.ones((48, 1, 1))
    return {"A1g": one, "A1u": det * one, "A2g": sgn * one,
            "A2u": sgn * det * one, "Eg": E, "Eu": det * E,
            "T1g": det * G, "T1u": G, "T2g": sgn * det * G, "T2u": sgn * G}


def _codes(points):
    """One integer per row of an integer point array (|coordinates| < 2^20)."""
    p = np.asarray(points, dtype=np.int64) + (1 << 20)
    return (p[..., 0] << 42) | (p[..., 1] << 21) | p[..., 2]


def _first_indices(codes):
    """Index of the first occurrence of each distinct code, by ascending
    code: the indices np.unique(codes, return_index=True) returns, from one
    stable argsort (np.unique would load numpy.ma)."""
    order = np.argsort(codes, kind="stable")
    ranked = codes[order]
    first = np.ones(ranked.size, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    return order[first]


def _lookup(keys, queries):
    """Index into keys of each query; -1 where a query is not a key."""
    order = np.argsort(keys)
    pos = np.minimum(np.searchsorted(keys, queries, sorter=order),
                     keys.size - 1)
    idx = order[pos]
    return np.where(keys[idx] == queries, idx, -1)


def _doubled_coordinates(ijk):
    """2 ijk minus the doubled centre of the bounding box: integers on
    which the 48 signed permutations act about the lattice centre."""
    ijk = np.asarray(ijk, dtype=np.int64)
    return 2 * ijk - (ijk.min(axis=0) + ijk.max(axis=0))


def cell_images(ijk, points=None):
    """Cell index of R x for every group element R and lattice point x.

    points (default: every cell) are doubled coordinates; the result has
    shape (len(points), 48) with -1 where R x is not a cell.
    """
    u = _doubled_coordinates(ijk)
    points = u if points is None else points
    images = np.einsum("gij,pj->pgi", cube_group(), points)
    return _lookup(_codes(u), _codes(images))


class _OrbitType:
    """The orbits whose representatives share one stabiliser subgroup.

    Positions p of an orbit list its points R_g x in order of first
    occurrence over g; cells[o, p] is the cell at position p of orbit o.
    U (3s x 3s, s = orbit size) holds, column by column, an orthonormal
    basis of the fields on one orbit, grouped by irrep, then partner row r,
    then copy j; counts[name] is the number of copies of that irrep and
    start[name] the column where its group begins.

    The basis comes from the projectors P_1j = (d/48) sum_g D(g)_1j P_g,
    each built as one (3s, 3s) matrix: P_g is a signed permutation of the
    3s field components, so the sum is a bincount of the 48 s 3 signed
    weights on the entries they land on, and at most d (3s)^2 doubles are
    held per irrep (orbits of 48 cells: 0.5 MB).
    """

    def __init__(self, x, orbits, images):
        G = cube_group()
        pts = G @ x
        first = np.sort(_first_indices(_codes(pts)))
        size = first.size
        listed = _codes(pts[first])
        self.orbits = orbits
        self.cells = images[orbits][:, first]
        self.size = size
        # (P_g f)(y) = R_g f(R_g^-1 y): P_g takes component perm[g, a] at
        # position src[g, q] to component a at position q, signed by
        # sign[g, a], where R_g[a, perm[g, a]] = sign[g, a]; flat[g, q, a]
        # is the index of that entry in a (3s, 3s) matrix
        src = _lookup(listed, _codes(np.einsum("gji,pj->gpi", G, pts[first])))
        perm = np.argmax(np.abs(G), axis=2)
        sign = G.sum(axis=2)
        n = 3 * size
        flat = (np.arange(n).reshape(size, 3) * n + 3 * src[:, :, None]
                + perm[:, None, :])
        # the same entries in each of three stacked matrices; the first d
        # thirds index d of them
        stacked = (np.arange(3)[:, None, None, None] * n * n
                   + flat).reshape(-1)
        signs = np.broadcast_to(sign[:, None, :], flat.shape)
        columns = []
        self.counts, self.start = {}, {}
        for name, D in irreps().items():
            self.start[name] = sum(c.shape[1] for c in columns)
            d = D.shape[1]
            # P[j] = P_1j, one bincount over the d (3s)^2 entries
            weights = (D[:, 0, :].T * (d / 48.0))[:, :, None, None] * signs
            P = np.bincount(stacked[:weights.size], weights.reshape(-1),
                            minlength=d * n * n).reshape(d, n, n)
            # the row-1 copies are spanned by P_1j applied to the three
            # unit fields at the representative (position 0): the first
            # three columns of each P_1j
            u, s, _ = np.linalg.svd(P[:, :, :3].transpose(1, 0, 2).reshape(
                n, 3 * d), full_matrices=False)
            row1 = u[:, s > 1e-8]
            self.counts[name] = row1.shape[1]
            # partner rows by the transfer operators P_r1 = P_1r^T,
            # isometries on the row-1 subspace
            columns += list(P.transpose(0, 2, 1) @ row1)
        self.U = np.hstack(columns)
        assert self.U.shape == (3 * size, 3 * size) and np.allclose(
            self.U.T @ self.U, np.eye(3 * size), atol=1e-12)


class SymmetryBasis:
    """Symmetry-adapted orthonormal basis of vector fields on a cell set.

    The cell set (integer lattice indices ijk, shape (C, 3)) must be mapped
    onto itself by the 48 signed axis permutations about the centre of its
    bounding box; any other raises ValueError.  Then every orbit of cells
    carries an orthonormal basis adapted to the ten irreps (Bossavit,
    Comput. Methods Appl. Mech. Eng. 56 (1986) 167; Allgower, Boehmer,
    Georg & Miranda, SIAM J. Numer. Anal. 29 (1992) 534), and an operator
    that commutes with the group is block diagonal in it: one symmetric
    block of order orders[name] per irrep, shared by its d partner rows.

    forward maps (3C, S) fields (row 3 i + a holds component a at cell i)
    to coefficients, backward maps them back; in the coefficient array the
    block of each irrep occupies rows span[name] as an (m, d, S) array,
    basis function by partner row.
    """

    def __init__(self, ijk, what="cell set"):
        u = _doubled_coordinates(ijk)
        self.count = u.shape[0]
        # one representative per orbit: |coordinates| in descending order
        reps = -np.sort(-np.abs(u), axis=1)
        reps = reps[_first_indices(_codes(reps))]
        images = cell_images(ijk, reps)
        if np.any(images < 0):
            raise ValueError("%s is not invariant under the 48 signed axis "
                             "permutations of the cube" % what)
        self.representatives = images[:, 0]
        # the stabiliser of a representative is fixed by which of
        # x0 = x1, x1 = x2, x2 = 0 hold
        kind = ((reps[:, 0] == reps[:, 1]) * 4 + (reps[:, 1] == reps[:, 2])
                * 2 + (reps[:, 2] == 0))
        self.types = [_OrbitType(reps[orbits[0]], orbits, images)
                      for orbits in (np.flatnonzero(kind == key)
                                     for key in np.flatnonzero(
                                         np.bincount(kind)))]
        dims = {name: D.shape[1] for name, D in irreps().items()}
        self.orders = {name: sum(t.counts[name] * t.orbits.size
                                 for t in self.types) for name in dims}
        self.dims = dims
        self._layout()

    def _layout(self):
        """Where each orbit type's coefficients sit in the irrep blocks.

        forward computes the coefficients of orbit type t as one product
        U^T X_t of (3s, orbits) arrays, whose row c o_t + o (U column c on
        orbit o) is row _slots[t][c o_t + o] of the coefficient array,
        sorted by irrep, basis function and partner row.
        """
        names = list(self.dims)
        d = np.array([self.dims[name] for name in names])
        sizes = d * np.array([self.orders[name] for name in names])
        begin = np.cumsum(sizes) - sizes
        self.span = {name: slice(int(b), int(b + s))
                     for name, b, s in zip(names, begin, sizes)}
        self._slots = []
        for t in self.types:
            n = np.array([t.counts[name] for name in names])
            first = np.array([t.start[name] for name in names])
            # coefficient (orbit o, copy j, row r) of irrep g is U column
            # first[g] + r n[g] + j applied to orbit o; the irrep's rows
            # of earlier orbit types come before it
            i = np.arange(3 * t.size * t.orbits.size)
            col, o = np.divmod(i, t.orbits.size)
            g = np.repeat(np.arange(len(names)), n * d)[col]
            r, j = np.divmod(col - first[g], n[g])
            self._slots.append(begin[g] + o * (n * d)[g] + j * d[g] + r)
            begin = begin + n * d * t.orbits.size
        self._rows = [(t.cells.T[:, None, :] * 3 + np.arange(3)[:, None])
                      .reshape(3 * t.size, t.orbits.size)
                      for t in self.types]

    def forward(self, X):
        """Coefficients (3C, S) of the fields X (3C, S)."""
        Z = np.empty(X.shape, dtype=np.result_type(X.dtype, float))
        for t, rows, slots in zip(self.types, self._rows, self._slots):
            Z[slots] = (t.U.T @ X[rows].reshape(rows.shape[0], -1)) \
                .reshape(slots.size, -1)
        return Z

    def backward(self, Z):
        """Fields (3C, S) of the coefficients Z (3C, S)."""
        X = np.empty_like(Z)
        for t, rows, slots in zip(self.types, self._rows, self._slots):
            X[rows] = (t.U @ Z[slots].reshape(rows.shape[0], -1)) \
                .reshape(rows.shape + Z.shape[1:])
        return X

    def block(self, Z, name):
        """View of irrep `name`'s coefficients in Z as (m, d, S)."""
        return Z[self.span[name]].reshape(self.orders[name], self.dims[name],
                                          Z.shape[1])

    def reduce(self, rows):
        """The blocks {name: (m, m)} of a symmetric O_h-invariant operator.

        rows(cells) returns the operator's (3 r, 3C) rows at r cell
        indices; it is called for the orbit representatives, as many at a
        time as REDUCE_CHUNK_BYTES of rows hold.  With q^(r) the partner
        rows of the basis functions a and b, block[a, b] = q_a^(1) . A
        q_b^(1) equals (|o_a|/d) sum_r q_a^(r)(x_a) . (A q_b^(r))(x_a),
        since the sum over r of the product is constant on the orbit o_a of
        a's representative x_a; so the rows at one chunk of representatives
        give the block rows of the basis functions on their orbits, and no
        full row or basis matrix is formed.  The values q^(r)(x_a) are read
        off the first three rows of each orbit type's U, the basis that
        _OrbitType builds from projector matrices.
        """
        step = max(1, REDUCE_CHUNK_BYTES // (9 * 8 * self.count))
        values = {name: self._representative_values(name)
                  for name in self.dims}
        blocks = {name: np.zeros((m, m)) for name, m in self.orders.items()}
        for lo in range(0, len(self.representatives), step):
            reps = self.representatives[lo:lo + step]
            AQ = self.forward(rows(reps).T)
            for name, d in self.dims.items():
                at_rep, orbit, size = values[name]
                sel = np.flatnonzero((orbit >= lo) & (orbit < lo + step))
                AQ_rep = self.block(AQ, name).reshape(-1, d, reps.size, 3)
                at, o = at_rep[sel], orbit[sel] - lo
                part = np.zeros((sel.size, self.orders[name]))
                for r in range(d):
                    for c in range(3):
                        part += at[:, r, c, None] * AQ_rep[:, r, o, c].T
                blocks[name][sel] = part * (size[sel] / d)[:, None]
        for B in blocks.values():
            B += B.T
            B *= 0.5
        return blocks

    def _representative_values(self, name):
        """q^(r)(x_a) (m, d, 3), orbit index and orbit size of every basis
        function a of irrep `name`."""
        d = self.dims[name]
        values, orbit, size = [], [], []
        for t in self.types:
            n = t.counts[name]
            at = t.U[:3, t.start[name]:t.start[name] + d * n].reshape(3, d, n)
            values.append(np.tile(at.transpose(2, 1, 0), (t.orbits.size, 1,
                                                          1)))
            orbit.append(np.repeat(t.orbits, n))
            size.append(np.full(t.orbits.size * n, t.size))
        return (np.concatenate(values), np.concatenate(orbit),
                np.concatenate(size).astype(float))
