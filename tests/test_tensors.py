import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dielscat import tensors
from dielscat.geometry import Cluster, DomainShape, generate_cluster, \
    unit_ball, unit_box
from dielscat.lse import VolumeGrid
from dielscat.tensors import (SYM, LatticeOperator, cis, direction_grid,
                              kernel_components, kernel_scalars)
from oracles import (FOUR_PI, DirectSumOperator, dyadic_green,
                     dyadic_green_fd, fft_lattice_apply, helmholtz_kernel,
                     offset_spectrum)


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


@pytest.mark.parametrize("k", [0.0, 0.9, 2.1])
def test_kernel_scalars_reconstruct_dyadic(k):
    """iso I + rad2 d d^T is Y_k at k = 0.9 and 2.1, and at k = 0, where
    the factors are float64, the Hessian of Phi_0."""
    rng = np.random.default_rng(5)
    src = random_points(rng, 4)
    tgt = random_points(rng, 3) + 3.0
    iso, rad2 = kernel_scalars(tgt[:, None, :] - src[None, :, :], k)
    assert iso.dtype == rad2.dtype == (np.float64 if k == 0.0
                                       else np.complex128)
    for i in range(3):
        for j in range(4):
            d = tgt[i] - src[j]
            G = iso[i, j] * np.eye(3) + rad2[i, j] * np.outer(d, d)
            assert np.allclose(G, dyadic_green(tgt[i], src[j], k),
                               rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("k", [0.0, 0.9, 2.1])
def test_kernel_scalars_scalar_kind_is_phi(k):
    """The "scalar" kind returns (Phi_k, None), float64 at k = 0."""
    rng = np.random.default_rng(6)
    src = random_points(rng, 4)
    tgt = random_points(rng, 3) + 3.0
    phi, none = kernel_scalars(tgt[:, None, :] - src[None, :, :], k,
                               "scalar")
    assert none is None
    assert phi.dtype == (np.float64 if k == 0.0 else np.complex128)
    want = [[helmholtz_kernel(x, z, k) for z in src] for x in tgt]
    np.testing.assert_allclose(phi, want, rtol=1e-14, atol=0.0)


def test_kernel_scalars_zero_on_coincident_points():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    iso, rad2 = kernel_scalars(pts[:, None, :] - pts[None, :, :], 1.0)
    assert iso[0, 0] == 0.0 and rad2[0, 0] == 0.0
    assert iso[0, 1] != 0.0


@pytest.mark.parametrize("kind", ["hessian", "projected", "hesian",
                                  "Dyadic"])
def test_an_unknown_kernel_kind_is_refused_before_any_table(kind):
    """The kernels are "dyadic" and "scalar" alone.  Any other kind, the
    Hessian (the dyadic kind at k = 0) and the projected kernel among
    them, raises ValueError naming it: from kernel_scalars, and from a
    lattice operator's first dense() or apply, before its octant or
    spectrum is built."""
    message = "unknown kernel kind '%s'" % kind
    with pytest.raises(ValueError, match=message):
        kernel_scalars(np.ones((2, 3)), 1.3, kind)
    ijk = uneven_lattice((3, 2, 2), 4)
    for use in (LatticeOperator.dense,
                lambda op: op.apply(np.ones((len(ijk), 3)))):
        op = LatticeOperator(ijk, 0.3, kind, 1.3)
        with pytest.raises(ValueError, match=message):
            use(op)
        assert "octant" not in vars(op) and "spectrum" not in vars(op)


def test_direct_sum_oracle_matches_the_pairwise_green_tensor():
    rng = np.random.default_rng(13)
    pts = random_points(rng, 30)
    F = rng.normal(size=(30, 3)) + 1j * rng.normal(size=(30, 3))
    k = 1.1
    got = DirectSumOperator(pts, k).apply(F)
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


KINDS = ("dyadic", "scalar")


def pointwise_block(x, z, k, kind):
    """K(x - z) from the pointwise oracles, as a 3x3 tensor or a scalar."""
    if kind == "scalar":
        return helmholtz_kernel(x, z, k)
    return dyadic_green(x, z, k)


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
    return {"box": (box.ijk, box.d, box.centers, box.weight),
            "ball": (ball.ijk, ball.d, ball.centers, ball.weight),
            "slab": (slab.ijk, slab.d, slab.centers, 1.0)}


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
    op = LatticeOperator(grid.ijk, grid.d, "scalar", 0.0, grid.weight, 0.5)
    v = np.random.default_rng(3).normal(size=grid.count)
    out = op.apply(v)
    assert out.dtype == np.float64 and out.shape == v.shape
    assert np.allclose(out, op.dense() @ v, rtol=1e-12, atol=0.0)


# extents that differ on every axis, one of them 1: the pruned transform
# pads and crops each axis to its own length
UNEVEN_EXTENTS = [(7, 3, 1), (2, 5, 4), (1, 6, 2)]


def uneven_lattice(extent, seed, share=2.0 / 3.0):
    """A random share (two-thirds) of the cells of a box, keeping both
    corners so the bounding box is the full extent."""
    ijk = np.stack(np.unravel_index(np.arange(np.prod(extent)), extent),
                   axis=1)
    keep = np.random.default_rng(seed).random(len(ijk)) < share
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
    want = DirectSumOperator(points, 1.7).apply(F)
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


@pytest.mark.parametrize("extent", [(4, 4, 4)] + UNEVEN_EXTENTS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [0.0, 1.3])
def test_spectrum_from_the_octant_matches_fftn_of_the_offset_table(extent,
                                                                   kind, k):
    """The spectrum taken from the octant by the even and odd per-axis
    matrices equals np.fft.fftn of the kernel at every offset, the old
    construction, to 1e-13 of its largest entry."""
    op = LatticeOperator(uneven_lattice(extent, 1), 0.3, kind, k, -0.7)
    want = offset_spectrum(extent, 0.3, kind, k, -0.7)
    assert op.spectrum.shape == want.shape
    assert op.spectrum.dtype == (np.complex128 if k else np.float64)
    assert np.max(np.abs(op.spectrum - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", KINDS)
def test_a_static_spectrum_is_real(kind):
    """At k = 0 each kind's kernel is real and even or odd in every axis, so
    with the offset -n of an odd axis at 0 its spectrum is real: on the ball
    n = 12 grid it is held as float64 and equals np.fft.fftn of the offset
    table, whose imaginary parts are round-off, to 1e-13 of its largest
    entry."""
    grid = VolumeGrid(unit_ball(), 12)
    op = LatticeOperator(grid.ijk, grid.d, kind, 0.0, -grid.weight)
    want = offset_spectrum(tuple(op.extent), grid.d, kind, 0.0,
                           -grid.weight)
    scale = np.max(np.abs(want))
    assert op.spectrum.dtype == np.float64
    assert np.max(np.abs(want.imag)) <= 1e-13 * scale
    assert np.max(np.abs(op.spectrum - want)) <= 1e-13 * scale


@pytest.mark.parametrize("extent", [(4, 4, 4)] + UNEVEN_EXTENTS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [0.0, 1.3])
def test_dense_from_the_octant_is_the_kernel_at_every_offset(extent, kind, k):
    """dense() gathers the octant at |x_i - x_j| with the sign of each odd
    component's axes, and so equals the kernel evaluated at every pair's
    offset bit for bit."""
    ijk = uneven_lattice(extent, 1)
    op = LatticeOperator(ijk, 0.3, kind, k, -0.7)
    d = 0.3 * (ijk[:, None, :] - ijk[None, :, :])
    iso, rad2 = kernel_scalars(d, k, kind)
    values = -0.7 * kernel_components(iso, rad2, d)
    m = 1 if kind == "scalar" else 3
    want = np.stack([np.stack([values[SYM[a][b]] for b in range(m)], axis=-1)
                     for a in range(m)], axis=1).reshape(m * len(ijk), -1)
    dense = op.dense()
    assert dense.dtype == want.dtype
    np.testing.assert_array_equal(dense, want)
    assert "octant" in vars(op) and "spectrum" not in vars(op)


def pair_offsets(ijk, pitch):
    """r = |x_i - x_j| and rhat for every pair of a lattice, rhat zero where
    i = j."""
    d = pitch * (ijk[:, None, :] - ijk[None, :, :])
    r = np.linalg.norm(d, axis=-1)
    return r, d / np.where(r > 0, r, 1.0)[..., None]


@pytest.mark.parametrize("extent", [(4, 4, 4)] + UNEVEN_EXTENTS)
@pytest.mark.parametrize("k", [0.0, 1.3, 2.1])
def test_the_dyadic_trace_is_twice_k_squared_the_scalar_kernel(extent, k):
    """tr Y_k = Laplacian Phi_k + 3 k^2 Phi_k = 2 k^2 Phi_k off the
    diagonal, so the trace of every 3x3 block of the dyadic dense() is
    2 k^2 times the scalar dense(), to 1e-12 of its largest entry: at
    k = 0 the Magnetization kernel, the Hessian of Phi_0, is traceless."""
    ijk = uneven_lattice(extent, 1)
    C = len(ijk)
    dyadic = LatticeOperator(ijk, 0.3, "dyadic", k).dense()
    scalar = LatticeOperator(ijk, 0.3, "scalar", k).dense()
    trace = np.einsum("iaja->ij", dyadic.reshape(C, 3, C, 3))
    scale = np.max(np.abs(dyadic))
    assert np.max(np.abs(trace - 2 * k * k * scalar)) <= 1e-12 * scale


@pytest.mark.parametrize("extent", [(4, 4, 4)] + UNEVEN_EXTENTS)
@pytest.mark.parametrize("kind", KINDS)
def test_the_kernels_tend_to_their_static_kernels_as_k_vanishes(extent,
                                                                 kind):
    """At k = 1e-3 the complex branch of kernel_scalars differs from its
    float64 k = 0 branch by the series of e^{ikr} / (4 pi r):
        Phi_k - Phi_0 = (ik - k^2 r / 2 - i k^3 r^2 / 6) / (4 pi) + O(k^4)
        Y_k - Y_0 = k^2 (I + rhat rhat) / (8 pi r) + i k^3 I / (6 pi)
                    + O(k^4),
    the dyadic one by grad grad r = (I - rhat rhat) / r and grad grad r^2
    = 2 I.  The terms left out are (k r)^3 (scalar) and (k r)^2 (dyadic)
    of the largest term kept at the widest offset r of the lattice, which
    bounds the difference of the two dense() matrices."""
    ijk = uneven_lattice(extent, 1)
    C, k = len(ijk), 1e-3
    r, rhat = pair_offsets(ijk, 0.3)
    off = r > 0
    rr = np.where(off, r, 1.0)
    if kind == "scalar":
        want = (1j * k - k * k * rr / 2 - 1j * k ** 3 * rr ** 2 / 6) \
            / FOUR_PI * off
        order = 3
    else:
        eye = np.eye(3)
        blocks = (k * k / (8 * np.pi * rr))[..., None, None] * (
            eye + rhat[..., :, None] * rhat[..., None, :]) \
            + 1j * k ** 3 / (6 * np.pi) * eye
        want = (blocks * off[..., None, None]).transpose(0, 2, 1, 3) \
            .reshape(3 * C, 3 * C)
        order = 2
    static = LatticeOperator(ijk, 0.3, kind, 0.0).dense()
    assert static.dtype == np.float64
    moved = LatticeOperator(ijk, 0.3, kind, k).dense() - static
    bound = (k * np.max(r)) ** order * np.max(np.abs(want))
    assert np.max(np.abs(moved - want)) <= bound


@pytest.mark.parametrize("domain, n", [(unit_box(), 7), (unit_box(), 11),
                                       (unit_box(), 12), (unit_ball(), 10),
                                       (None, (9, 5, 3))])
def test_apply_matches_the_direct_sum_on_the_workload_grids(domain, n):
    """The dyadic kernel at k = 2.1 on the benchmark workloads' lattices
    (box n = 7, 11 and 12, ball n = 10) and on an uneven one: the pruned
    DFT apply equals the direct pair sum to 1e-12."""
    ijk = uneven_lattice(n, 2) if domain is None \
        else VolumeGrid(domain, n).ijk
    rng = np.random.default_rng(3)
    F = rng.normal(size=(len(ijk), 3)) + 1j * rng.normal(size=(len(ijk), 3))
    got = LatticeOperator(ijk, 0.1, "dyadic", 2.1).apply(F)
    want = DirectSumOperator(0.1 * ijk, 2.1).apply(F)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("domain", [unit_box(), unit_ball()])
@pytest.mark.parametrize("n", [7, 13, 24])
@pytest.mark.parametrize("kind", KINDS)
def test_apply_matches_the_numpy_fft_convolution(domain, n, kind):
    """The pruned DFT apply against the zero-padded numpy.fft convolution
    with fftn of the kernel at every offset, to 1e-12, on box and ball
    grids."""
    grid = VolumeGrid(domain, n)
    rng = np.random.default_rng(n)
    F = rng.normal(size=(grid.count, 3)) + 1j * rng.normal(
        size=(grid.count, 3))
    op = LatticeOperator(grid.ijk, grid.d, kind, 1.3, grid.weight, 0.2)
    want = fft_lattice_apply(grid.ijk, grid.d, kind, 1.3, grid.weight,
                             0.2, F)
    assert np.linalg.norm(op.apply(F) - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("k", [0.0, 1.3])
def test_spectrum_is_built_in_place_and_kept_alone(k):
    """Building the spectrum of the box n=12 LSE kernel peaks at no more
    than 1.5 times its bytes of traced allocations, and the operator
    keeps no octant."""
    grid = VolumeGrid(unit_box(), 12)
    op = LatticeOperator(grid.ijk, grid.d, "dyadic", k, grid.weight)
    tracemalloc.start()
    try:
        spectrum = op.spectrum
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * spectrum.nbytes
    assert "octant" not in vars(op)


def test_cluster_lattice_fft_matches_direct_sum():
    """Foldy-Lax's kernel on a ball cluster, whose indices run negative:
    the LatticeOperator's FFT apply and dense gather agree with the direct
    sum over the same centres."""
    cluster = generate_cluster(unit_ball(), 0.3)
    assert cluster.ijk.min() < 0
    k = 2.1
    rng = np.random.default_rng(8)
    F = rng.normal(size=(cluster.count, 3)) + 1j * rng.normal(
        size=(cluster.count, 3))
    lattice = LatticeOperator(cluster.ijk, cluster.d, "dyadic", k)
    direct = DirectSumOperator(cluster.centers, k)
    want = direct.apply(F)
    got = lattice.apply(F)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    dense = lattice.dense()
    ref = direct.dense()
    assert np.max(np.abs(dense - ref)) <= 1e-12 * np.max(np.abs(ref))


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


# (kind, k, field columns or None for a (C,) field, real field)
REUSE_CASES = [("dyadic", 1.3, 3, False), ("scalar", 1.3, None, False),
               ("scalar", 1.3, 3, False), ("dyadic", 0.0, 3, True)]


@pytest.mark.parametrize("lattice", ["ball", "uneven box"])
@pytest.mark.parametrize("kind, k, columns, real", REUSE_CASES)
def test_apply_reuses_its_work_arrays(lattice, kind, k, columns, real):
    """Two different fields in a row through one operator, whose work
    arrays the first apply makes and the second reuses: each result equals
    dense() @ F to 1e-12.  The ball leaves sites of its bounding box
    unoccupied, which the zero-padded input must keep at 0; the 13 x 17 x
    11 box ends its x stage on a partial slab for every kind.  At k = 0 a
    real field gives a float64 result."""
    if lattice == "ball":
        grid = VolumeGrid(unit_ball(), 8)
        ijk, pitch = grid.ijk, grid.d
    else:
        ijk, pitch = uneven_lattice((13, 17, 11), 6, 0.1), 0.1
    op = LatticeOperator(ijk, pitch, kind, k, 0.8, 0.1)
    if lattice != "ball":
        width = op._work[-1]
        assert (4 * 17 * 11) % width and 4 * 17 * 11 > width
    A = op.dense()
    rng = np.random.default_rng(9)
    shape = (len(ijk),) if columns is None else (len(ijk), columns)
    for _ in range(2):
        F = rng.normal(size=shape)
        if not real:
            F = F + 1j * rng.normal(size=shape)
        got = op.apply(F)
        want = (A @ F.reshape(-1)).reshape(shape) if op.m == 3 else A @ F
        assert got.shape == shape
        assert got.dtype == (np.float64 if real else np.complex128)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("domain", [unit_box(), unit_ball()])
def test_a_second_apply_allocates_no_work_arrays(kind, domain):
    """The work arrays are made once per operator: applying it again to a
    (C, 3) field peaks at less than one (2n)^3 complex array beyond its
    output, on the n = 12 grids."""
    grid = VolumeGrid(domain, 12)
    op = LatticeOperator(grid.ijk, grid.d, kind, 1.3, grid.weight, 0.2)
    F = np.random.default_rng(2).normal(size=(grid.count, 3)) + 0j
    op.apply(F)
    tracemalloc.start()
    try:
        out = op.apply(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * np.prod(2 * op.extent) + out.nbytes


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("domain, n", [(unit_box(), 8), (unit_ball(), 9)])
def test_lattice_operator_checks_its_memory_before_allocating(
        monkeypatch, kind, domain, n):
    """The bytes checked on construction cover the traced peak of building
    the spectrum and applying the operator to a (C, 3) field twice, and a
    host one byte short of them refuses the operator, naming the extent and
    the byte count."""
    grid = VolumeGrid(domain, n)
    checked = []
    monkeypatch.setattr(tensors, "require_memory",
                        lambda nbytes, what: checked.append(nbytes))
    op = LatticeOperator(grid.ijk, grid.d, kind, 1.3, grid.weight, 0.2)
    F = np.ones((grid.count, 3), dtype=complex)
    tracemalloc.start()
    try:
        op.apply(F)
        op.apply(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need, = checked
    assert peak <= need
    monkeypatch.undo()
    monkeypatch.setattr(tensors, "physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match="on a %d x %d x %d extent needs %d "
                       "bytes" % (tuple(op.extent) + (need,))):
        LatticeOperator(grid.ijk, grid.d, kind, 1.3, grid.weight, 0.2)
    monkeypatch.setattr(tensors, "physical_memory", lambda: need)
    LatticeOperator(grid.ijk, grid.d, kind, 1.3, grid.weight, 0.2)


def test_a_sparse_cluster_is_refused_before_its_offset_table():
    """Two particles 10^5 pitches apart on every axis: the Foldy-Lax
    kernel's (2 x 10^5)^3 offset table fits no host, so building it fails
    at once instead of allocating."""
    far = Cluster([[0, 0, 0], [10 ** 5] * 3], 0.1, (0.0, 0.0, 0.0),
                  unit_box())
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="100001 x 100001 x 100001 extent"):
        LatticeOperator(far.ijk, far.d, "dyadic", 1.0)
    assert time.perf_counter() - t0 < 1.0


def test_lattice_operator_refuses_a_shared_site():
    """Two cells at one site would overwrite each other in the apply's
    grid: the operator, and so Foldy-Lax's kernel of such a cluster, is
    refused."""
    shared = Cluster([[0, 1, 0], [2, 0, 0], [0, 1, 0]], 0.1, (0, 0, 0),
                     unit_box())
    with pytest.raises(ValueError, match="share a site"):
        LatticeOperator(shared.ijk, shared.d, "dyadic", 1.0)
