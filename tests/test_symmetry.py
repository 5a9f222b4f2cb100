import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dielscat import symmetry
from dielscat.geometry import DomainShape, unit_ball, unit_box
from dielscat.lse import (VolumeGrid, magnetization_eigensystem,
                          magnetization_operator)
from dielscat.symmetry import (SymmetryBasis, cell_images, cube_group,
                               irreps)
from dielscat.tensors import LatticeOperator

KINDS = ("dyadic", "hessian", "projected", "scalar")


def group_index(R):
    """Index of the signed permutation R in cube_group()."""
    return int(np.flatnonzero((cube_group() == R).all(axis=(1, 2)))[0])


def test_irreps_are_orthogonal_irreducible_representations():
    """Each D is real orthogonal and multiplicative, and the characters
    are orthonormal: ten inequivalent irreps with sum d^2 = 48."""
    G = cube_group()
    assert len({R.tobytes() for R in G}) == 48
    assert np.array_equal(G[0], np.eye(3))
    table = np.array([[group_index(Rg @ Rh) for Rh in G] for Rg in G])
    chars = []
    for D in irreps().values():
        d = D.shape[1]
        assert np.allclose(D @ D.transpose(0, 2, 1), np.eye(d), atol=1e-14)
        assert np.allclose(D[:, None] @ D[None, :], D[table], atol=1e-14)
        chars.append(np.trace(D, axis1=1, axis2=2))
    chars = np.array(chars)
    assert np.allclose(chars @ chars.T / 48.0, np.eye(10), atol=1e-14)
    assert sum(D.shape[1] ** 2 for D in irreps().values()) == 48


EQUIVARIANCE_GRIDS = {"ball": VolumeGrid(unit_ball(), 7),
                      "box": VolumeGrid(unit_box(), 6)}


@pytest.mark.parametrize("geometry", sorted(EQUIVARIANCE_GRIDS))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [0.0, 1.3])
def test_lattice_operators_commute_with_the_cube_group(geometry, kind, k):
    """P_g A P_g^T = A for all 48 signed permutations g about the grid
    centre, (P_g F)(R x) = R F(x): R K(R^-1 x) R^T = K(x) for every kernel
    kind, and g maps the grid's cells onto themselves."""
    grid = EQUIVARIANCE_GRIDS[geometry]
    op = LatticeOperator(grid.ijk, grid.d, kind, k, grid.weight, 0.25)
    A = op.dense()
    C = grid.count
    images = cell_images(grid.ijk)
    assert np.all(images >= 0)
    scale = np.max(np.abs(A))
    A4 = A.reshape(C, op.m, C, op.m)
    for g, R in enumerate(cube_group()):
        perm = images[:, g]
        assert np.array_equal(np.sort(perm), np.arange(C))
        # (P_g A P_g^T)[R x_i, R x_j] = R A[x_i, x_j] R^T, where
        # (R B R^T)_ad = s_a s_d B[pi(a), pi(d)] for R[a, pi(a)] = s_a
        moved = A4[perm][:, :, perm]
        if op.m == 3:
            pi, s = np.nonzero(R)[1], R.sum(axis=1)
            rotated = A4[:, pi][:, :, :, pi] * (s[:, None, None]
                                                * s[None, None, :])
        else:
            rotated = A4
        assert np.max(np.abs(moved - rotated)) <= 1e-13 * scale


def box_112_grid():
    """A (1, 1, 2) box of cubic cells of side 1/4: a cell set that the
    axis permutations do not map onto itself (VolumeGrid divides every
    axis into n cells, so it builds only cubic boxes)."""
    grid = VolumeGrid(unit_box(), 4)
    grid.domain = DomainShape("box", (1.0, 1.0, 2.0), center=(0.5, 0.5, 1.0))
    grid.ijk = np.stack(np.unravel_index(np.arange(128), (4, 4, 8)), axis=1)
    grid.count = 128
    grid.centers = (grid.ijk + 0.5) * grid.d
    return grid


def test_block_eigensystem_rejects_a_non_invariant_grid():
    grid = box_112_grid()
    with pytest.raises(ValueError, match="not invariant"):
        SymmetryBasis(grid.ijk)
    with pytest.raises(ValueError, match=r"box grid \(n=4, C=128 cells\)"):
        magnetization_eigensystem(grid)


@settings(max_examples=60)
@given(kind=st.sampled_from(["ball", "box"]),
       size=st.floats(1e-3, 1e3),
       center=st.tuples(*[st.floats(-1e3, 1e3)] * 3),
       n=st.integers(12, 40))
def test_every_volume_grid_is_cube_invariant(kind, size, center, n):
    """Every VolumeGrid is mapped onto itself by the 48 signed axis
    permutations, so the block eigensystem never needs a dense fallback.

    A box grid is a full n^3 cube.  A ball grid keeps the cell of index i
    iff its centre, at (2 i + 1 - n) r / n from the ball's, lies inside,
    i.e. iff the integer sum (2 i + 1 - n)^2 over the three axes is below
    n^2.  For even n each term is odd, so 1 mod 8, and the sum is 3 mod 8,
    while n^2 is 0 or 4 mod 8; for odd n each term is even and so is the
    sum, while n^2 is odd.  The sum never equals n^2: every cell is at
    least 1/n^2 of r^2 away from the sphere, far beyond rounding, and the
    rule, which the 48 maps keep, decides for any radius and centre.
    """
    extents = size if kind == "ball" else [size] * 3
    grid = VolumeGrid(DomainShape(kind, extents, center), n)
    ijk = np.stack(np.unravel_index(np.arange(n ** 3), (n, n, n)), axis=1)
    if kind == "ball":
        ijk = ijk[np.sum((2 * ijk + 1 - n) ** 2, axis=1) < n * n]
    assert np.array_equal(grid.ijk, ijk)
    SymmetryBasis(grid.ijk)


@pytest.mark.parametrize("domain, n", [(unit_ball(), 10), (unit_ball(), 11),
                                       (unit_box(), 2), (unit_box(), 5)])
def test_symmetry_basis_is_orthonormal_and_complete(domain, n):
    """forward and backward are inverse orthogonal maps, and the block
    orders times the irrep dimensions add up to 3C."""
    grid = VolumeGrid(domain, n)
    basis = SymmetryBasis(grid.ijk)
    assert sum(m * basis.dims[name] for name, m in basis.orders.items()) \
        == 3 * grid.count
    X = np.random.default_rng(n).normal(size=(3 * grid.count, 4))
    Z = basis.forward(X)
    assert np.allclose(np.linalg.norm(Z, axis=0), np.linalg.norm(X, axis=0),
                       rtol=1e-13)
    assert np.allclose(basis.backward(Z), X, rtol=0.0, atol=1e-13)
    # a constant field lies in its T1u partner row
    const = np.zeros((3 * grid.count, 1))
    const[1::3] = 1.0
    Z = basis.forward(const)
    t1u = basis.block(Z, "T1u")
    assert np.linalg.norm(t1u[:, 1]) == pytest.approx(
        np.sqrt(grid.count), rel=1e-13)
    assert np.linalg.norm(Z) == pytest.approx(np.linalg.norm(t1u[:, 1]),
                                              rel=1e-13)


@settings(max_examples=100)
@given(codes=st.lists(st.integers(-6, 6) | st.integers(-(1 << 62), 1 << 62),
                      max_size=40))
def test_first_indices_match_np_unique(codes):
    """The first occurrence of each distinct code, by ascending code: the
    indices of np.unique(return_index=True), ties and negatives included."""
    codes = np.array(codes, dtype=np.int64)
    want = np.unique(codes, return_index=True)[1]
    assert np.array_equal(symmetry._first_indices(codes), want)


def gathered_orbit_basis(t, u):
    """U, counts and start of orbit type t from gathers, the reference for
    the projector matrices: each sum_g w_g P_g X by 48 gathers of the
    fields X on one orbit (u: the cells' doubled coordinates)."""
    G = cube_group()
    pts = u[t.cells[0]]
    size = len(pts)
    src = symmetry._lookup(symmetry._codes(pts), symmetry._codes(
        np.einsum("gji,pj->gpi", G, pts)))
    perm, sign = np.argmax(np.abs(G), axis=2), G.sum(axis=2)

    def project(weights, X):
        X = X.reshape(size, 3, -1)
        moved = X[src[:, :, None], perm[:, None, :]] \
            * sign[:, None, :, None]
        return np.tensordot(weights, moved, axes=1).reshape(
            len(weights), 3 * size, -1)

    units = np.zeros((3 * size, 3))
    units[:3] = np.eye(3)
    columns, counts, start = [], {}, {}
    for name, D in irreps().items():
        start[name] = sum(c.shape[1] for c in columns)
        d = D.shape[1]
        gen = project(D[:, 0, :].T * (d / 48.0), units)
        q, s, _ = np.linalg.svd(gen.transpose(1, 0, 2).reshape(
            3 * size, 3 * d), full_matrices=False)
        row1 = q[:, s > 1e-8]
        counts[name] = row1.shape[1]
        columns += list(project(D[:, :, 0].T * (d / 48.0), row1))
    return np.hstack(columns), counts, start


@pytest.mark.parametrize("domain, n", [(unit_ball(), 10), (unit_ball(), 11),
                                       (unit_box(), 5), (unit_box(), 7)])
def test_projector_matrices_give_the_gathered_orbit_bases(domain, n):
    grid = VolumeGrid(domain, n)
    basis = SymmetryBasis(grid.ijk)
    u = symmetry._doubled_coordinates(grid.ijk)
    for t in basis.types:
        U, counts, start = gathered_orbit_basis(t, u)
        assert t.counts == counts and t.start == start
        assert np.max(np.abs(t.U - U)) <= 1e-14


def test_symmetry_basis_builds_in_bounded_memory():
    """Each orbit basis is built from projector matrices, at most d (3s)^2
    doubles per irrep: ball n=10 (C = 552, orbits of up to 48 cells) peaks
    at 3 MB of traced allocations, where a dense (48, 3s, 3s) orbit action
    alone is 8 MB."""
    grid = VolumeGrid(unit_ball(), 10)
    tracemalloc.start()
    try:
        SymmetryBasis(grid.ijk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


def test_reduce_in_chunks_matches_one_chunk(monkeypatch):
    """Gathering the representative rows a few orbits at a time gives the
    blocks of one gather of them all."""
    grid = VolumeGrid(unit_ball(), 10)
    basis = SymmetryBasis(grid.ijk)
    op = magnetization_operator(grid)
    chunks = []

    def rows(cells):
        chunks.append(cells.size)
        return op.dense(cells)

    whole = basis.reduce(rows)
    assert chunks == [20]
    monkeypatch.setattr(symmetry, "REDUCE_CHUNK_BYTES",
                        3 * 9 * 8 * grid.count)
    chunks.clear()
    chunked = basis.reduce(rows)
    assert chunks == [3] * 6 + [2]
    for name, B in whole.items():
        assert np.array_equal(B, B.T)
        assert np.max(np.abs(chunked[name] - B)) <= 1e-14 * np.max(np.abs(B))


def meshgrid_layout(basis):
    """The slot arrays and spans as built by one meshgrid per (irrep,
    orbit type), the reference for SymmetryBasis._layout."""
    slots = [np.empty(3 * t.size * t.orbits.size, dtype=np.int64)
             for t in basis.types]
    span, stop = {}, 0
    for name, d in basis.dims.items():
        begin = stop
        for t, s in zip(basis.types, slots):
            n = t.counts[name]
            o, j, r = np.meshgrid(np.arange(t.orbits.size), np.arange(n),
                                  np.arange(d), indexing="ij")
            col = t.start[name] + r * n + j
            s[(col * t.orbits.size + o).reshape(-1)] = \
                stop + np.arange(col.size)
            stop += col.size
        span[name] = slice(begin, stop)
    return slots, span


@pytest.mark.parametrize("shape, n", [("ball", 10), ("ball", 11),
                                      ("box", 7)])
def test_layout_matches_the_meshgrid_layout(shape, n):
    domain = unit_ball() if shape == "ball" else unit_box()
    basis = SymmetryBasis(VolumeGrid(domain, n).ijk)
    slots, span = meshgrid_layout(basis)
    assert basis.span == span
    assert all(type(s.start) is int and type(s.stop) is int
               for s in basis.span.values())
    assert len(basis._slots) == len(slots)
    for new, old in zip(basis._slots, slots):
        assert new.dtype == old.dtype and np.array_equal(new, old)
