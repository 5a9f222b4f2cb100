import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dielscat import foldylax
from dielscat.geometry import (Cluster, DomainShape, generate_cluster,
                               unit_ball, unit_box)
from dielscat.lse import VolumeGrid
from dielscat.tensors import (LatticeOperator, cis, direction_grid,
                              dyadic_green, dyadic_green_fd,
                              dyadic_kernel_scalars, dyadic_sum_chunked,
                              helmholtz_kernel, kernel_scalars,
                              refine_direction_grid)


def random_points(rng, n):
    return rng.uniform(-1.0, 1.0, size=(n, 3))


def test_cis_matches_complex_exp():
    x = np.concatenate([np.linspace(-200.0, 200.0, 100001),
                        np.random.default_rng(4).uniform(-200, 200, 10000)])
    got = cis(x)
    assert got.dtype == np.complex128 and got.shape == x.shape
    assert np.max(np.abs(got - np.exp(1j * x))) <= 4e-16
    assert cis(np.pi / 3).shape == ()
    np.testing.assert_array_equal(cis(np.zeros((2, 3))), np.ones((2, 3)))


def test_helmholtz_kernel_static_limit():
    x = np.array([0.3, -0.2, 0.4])
    y = np.zeros(3)
    r = np.linalg.norm(x - y)
    assert helmholtz_kernel(x, y, 0.0) == pytest.approx(1.0 / (4 * np.pi * r))


def test_helmholtz_kernel_phase():
    x = np.array([1.0, 0.0, 0.0])
    y = np.zeros(3)
    k = 2.0
    val = helmholtz_kernel(x, y, k)
    assert val == pytest.approx(np.exp(2j) / (4 * np.pi))


def test_dyadic_green_against_fd_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        k = rng.uniform(0.0, 4.0)
        x = rng.uniform(-1, 1, 3)
        y = rng.uniform(-1, 1, 3)
        if np.linalg.norm(x - y) < 0.3:
            y = x + (y - x) * 0.5 / np.linalg.norm(x - y)
        exact = dyadic_green(x, y, k)
        fd = dyadic_green_fd(x, y, k)
        worst = max(worst, np.max(np.abs(exact - fd))
                    / max(np.max(np.abs(exact)), 1e-30))
    assert worst <= 1e-6


def test_dyadic_green_static_closed_form():
    # grad grad (1/4pi r) at x - y = e1 is diag(2, -1, -1) / 4pi
    x = np.array([1.0, 0.0, 0.0])
    y = np.zeros(3)
    got = dyadic_green(x, y, 0.0)
    want = np.diag([2.0, -1.0, -1.0]) / (4 * np.pi)
    assert np.allclose(got, want, atol=1e-14)


def test_dyadic_green_symmetry():
    rng = np.random.default_rng(3)
    x, y = rng.uniform(-1, 1, 3), rng.uniform(1.5, 2.5, 3)
    G = dyadic_green(x, y, 1.7)
    assert np.allclose(G, G.T)
    assert np.allclose(G, dyadic_green(y, x, 1.7))


def test_kernel_scalars_reconstruct_dyadic():
    rng = np.random.default_rng(5)
    src = random_points(rng, 4)
    tgt = random_points(rng, 3) + 3.0
    k = 0.9
    iso, rad2 = dyadic_kernel_scalars(tgt, src, k)
    for i in range(3):
        for j in range(4):
            d = tgt[i] - src[j]
            G = iso[i, j] * np.eye(3) + rad2[i, j] * np.outer(d, d)
            assert np.allclose(G, dyadic_green(tgt[i], src[j], k),
                               rtol=1e-12, atol=1e-14)


def test_kernel_scalars_zero_on_coincident_points():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    iso, rad2 = dyadic_kernel_scalars(pts, pts, 1.0)
    assert iso[0, 0] == 0.0 and rad2[0, 0] == 0.0
    assert iso[0, 1] != 0.0


def test_dyadic_sum_chunked_matches_direct():
    rng = np.random.default_rng(13)
    pts = random_points(rng, 30)
    F = rng.normal(size=(30, 3)) + 1j * rng.normal(size=(30, 3))
    k = 1.1
    got = dyadic_sum_chunked(pts, pts, k, F, chunk=7)
    want = np.zeros((30, 3), dtype=complex)
    for m in range(30):
        for j in range(30):
            if m == j:
                continue
            want[m] += dyadic_green(pts[m], pts[j], k) @ F[j]
    assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_direction_grid_structure():
    dirs = direction_grid()
    assert dirs.shape == (26, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
    # all distinct
    assert len({tuple(np.round(d, 12)) for d in dirs}) == 26


def test_refine_direction_grid_adds_midpoints():
    dirs = direction_grid()
    fine = refine_direction_grid(dirs)
    assert dirs.shape[0] < fine.shape[0] <= 2 * dirs.shape[0]
    assert np.allclose(np.linalg.norm(fine, axis=1), 1.0)
    assert np.allclose(fine[:dirs.shape[0]], dirs)


KINDS = ("dyadic", "hessian", "projected", "scalar")


def pointwise_block(x, z, k, kind):
    """K(x - z) from the pointwise oracles, as a 3x3 tensor or a scalar."""
    if kind == "scalar":
        return helmholtz_kernel(x, z, k)
    if kind == "dyadic":
        return dyadic_green(x, z, k)
    if kind == "hessian":
        return dyadic_green(x, z, k) - k * k * helmholtz_kernel(x, z, k) \
            * np.eye(3)
    rhat = (x - z) / np.linalg.norm(x - z)
    return helmholtz_kernel(x, z, k) * np.outer(rhat, rhat)


def pointwise_matrix(points, k, kind, weight, self_term):
    """Double loop over pairs: the (mC)x(mC) matrix the lattice gathers."""
    m = 1 if kind == "scalar" else 3
    n = len(points)
    A = np.zeros((n, m, n, m), dtype=complex)
    for i in range(n):
        A[i, :, i, :] = self_term * np.eye(m)
        for j in range(n):
            if i != j:
                A[i, :, j, :] = weight * np.reshape(
                    pointwise_block(points[i], points[j], k, kind), (m, m))
    return A.reshape(m * n, m * n)


def lattice_geometries():
    box = VolumeGrid(unit_box(), 4)
    ball = VolumeGrid(unit_ball(), 5)
    slab = generate_cluster(DomainShape("box", (1.0, 1.0, 0.5),
                                        center=(0.5, 0.5, 0.25)), 0.25)
    return {"box": (box.ijk, box.side, box.centers, box.weight),
            "ball": (ball.ijk, ball.side, ball.centers, ball.weight),
            "slab": (slab.lattice_index(), slab.d, slab.centers, 1.0)}


GEOMETRIES = lattice_geometries()


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [0.0, 1.3])
def test_lattice_operator_matches_pointwise_kernel(geometry, kind, k):
    ijk, pitch, points, weight = GEOMETRIES[geometry]
    op = LatticeOperator(ijk, pitch, kind, k, weight, 0.25)
    want = pointwise_matrix(points, k, kind, weight, 0.25)
    dense = op.dense()
    assert dense.dtype == (np.float64 if k == 0.0 else np.complex128)
    assert np.max(np.abs(dense - want)) <= 1e-12 * np.max(np.abs(want))
    rng = np.random.default_rng(17)
    F = rng.normal(size=(len(points), 3)) + 1j * rng.normal(
        size=(len(points), 3))
    got = op.apply(F)
    ref = (dense @ F.reshape(-1)).reshape(-1, 3) if op.m == 3 else dense @ F
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_lattice_operator_real_in_real_out():
    grid = VolumeGrid(unit_ball(), 6)
    op = LatticeOperator(grid.ijk, grid.side, "scalar", 0.0, grid.weight, 0.5)
    v = np.random.default_rng(3).normal(size=grid.count)
    out = op.apply(v)
    assert out.dtype == np.float64 and out.shape == v.shape
    assert np.allclose(out, op.dense() @ v, rtol=1e-12, atol=0.0)


# extents that differ on every axis, one of them 1: the pruned transform
# pads and crops each axis to its own length
UNEVEN_EXTENTS = [(7, 3, 1), (2, 5, 4), (1, 6, 2)]


def uneven_lattice(extent, seed):
    """A random two-thirds of the cells of a box, keeping both corners so
    the bounding box is the full extent."""
    ijk = np.stack(np.unravel_index(np.arange(np.prod(extent)), extent),
                   axis=1)
    keep = np.random.default_rng(seed).random(len(ijk)) < 2.0 / 3.0
    keep[[0, -1]] = True
    return ijk[keep]


@pytest.mark.parametrize("extent", UNEVEN_EXTENTS)
def test_lattice_operator_uneven_extents(extent):
    """apply equals the direct pair sum and dense() on a lattice whose
    extents all differ: the dyadic kernel at k != 0 on (C, 3) fields, the
    scalar kernel at k = 0 on (C, 2) fields."""
    ijk = uneven_lattice(extent, sum(extent))
    pitch = 0.3
    points = pitch * ijk
    rng = np.random.default_rng(5)
    F = rng.normal(size=(len(ijk), 3)) + 1j * rng.normal(size=(len(ijk), 3))

    dyadic = LatticeOperator(ijk, pitch, "dyadic", 1.7)
    np.testing.assert_array_equal(dyadic.extent, extent)
    got = dyadic.apply(F)
    want = dyadic_sum_chunked(points, points, 1.7, F)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    ref = (dyadic.dense() @ F.reshape(-1)).reshape(-1, 3)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    scalar = LatticeOperator(ijk, pitch, "scalar", 0.0, 0.8, 0.1)
    G = F[:, :2]
    got = scalar.apply(G)
    phi, _ = kernel_scalars(points[:, None, :] - points[None, :, :], 0.0,
                            "scalar")
    want = 0.8 * phi @ G + 0.1 * G
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    ref = scalar.dense() @ G
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    real = scalar.apply(G.real)
    assert real.dtype == np.float64 and real.shape == G.shape
    assert np.linalg.norm(real - ref.real) <= 1e-12 * np.linalg.norm(ref.real)


def test_cluster_lattice_fft_matches_direct_sum():
    """Foldy-Lax's kernel on a ball cluster: the LatticeOperator's FFT apply
    and dense gather agree with the DirectSumOperator that serves the same
    centres off the lattice."""
    cluster = generate_cluster(unit_ball(), 0.3)
    assert cluster.lattice_index() is not None
    # the same centres with a pitch they are not on: the direct paths
    direct = Cluster(cluster.centers, 0.3 * (1 - 1e-3), cluster.domain)
    assert direct.lattice_index() is None
    k = 2.1
    rng = np.random.default_rng(8)
    F = rng.normal(size=(cluster.count, 3)) + 1j * rng.normal(
        size=(cluster.count, 3))
    lattice = foldylax._kernel(cluster, k)
    assert isinstance(lattice, LatticeOperator)
    off = foldylax._kernel(direct, k)
    want = dyadic_sum_chunked(cluster.centers, cluster.centers, k, F)
    assert np.array_equal(off.apply(F), want)
    got = lattice.apply(F)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    dense = lattice.dense()
    ref = off.dense()
    assert np.max(np.abs(dense - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_lattice_index_rejects_off_lattice_sets():
    pair = Cluster(np.array([[0.3, 0.5, 0.5], [0.7, 0.5, 0.5]]), 0.12,
                   unit_box())
    assert pair.lattice_index() is None
    far = Cluster(np.array([[0.0, 0.0, 0.0], [10.0, 10.0, 10.0]]), 0.1,
                  unit_box())
    assert far.lattice_index() is None
    twice = Cluster(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), 0.1,
                    unit_box())
    assert twice.lattice_index() is None


@settings(max_examples=40, deadline=None)
@given(shape=st.tuples(*[st.integers(1, 6)] * 3),
       mask=st.lists(st.booleans(), min_size=216, max_size=216),
       kind=st.sampled_from(KINDS), k=st.sampled_from([0.0, 0.7]),
       seed=st.integers(0, 2 ** 16))
def test_lattice_operator_properties(shape, mask, kind, k, seed):
    """On a random mask of an n <= 6 lattice: dense() is complex-symmetric,
    apply is linear and equals dense() @ F."""
    flat = [i for i in range(int(np.prod(shape))) if mask[i]] or [0]
    ijk = np.stack(np.unravel_index(flat, shape), axis=1)
    op = LatticeOperator(ijk, 0.3, kind, k, 0.8, 0.1)
    A = op.dense()
    np.testing.assert_array_equal(A, A.T)
    rng = np.random.default_rng(seed)
    F, G = (rng.normal(size=(len(flat), 3)) + 1j * rng.normal(
        size=(len(flat), 3)) for _ in range(2))
    a, b = 0.7 - 0.2j, -1.3
    lhs = op.apply(a * F + b * G)
    rhs = a * op.apply(F) + b * op.apply(G)
    scale = np.linalg.norm(lhs)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale
    want = (A @ F.reshape(-1)).reshape(-1, 3) if op.m == 3 else A @ F
    assert np.linalg.norm(op.apply(F) - want) <= 1e-12 * np.linalg.norm(want)
