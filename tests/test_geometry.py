import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dielscat import geometry, tensors
from dielscat.geometry import (Cluster, DomainShape, boundary_counting_statistic,
                               boundary_grid_counts, boundary_table,
                               derive_scales,
                               generate_cluster, max_counting_sum, parse_sign,
                               unit_ball, unit_box)
from oracles import check_scales, counting_sum, parent_cluster_centers


def test_derive_scales_identities_roundtrip():
    s = derive_scales(0.01, 0.9, 2.0, 1.0, "+", 1.5, 0.4)
    check_scales(s, rtol=1e-12)
    assert s.eta == pytest.approx(2.0e4)


def test_derive_scales_eta_example():
    s = derive_scales(0.01, 0.9, 2.0, 1.0, "-", 1.0, 0.4)
    assert s.eta == pytest.approx(2.0 * 0.01 ** -2)


def test_derive_scales_pitch_formula():
    # d = c_r a^{(3-h)/3}; near h = 1 this approaches c_r a^{2/3}
    h = 0.999
    s = derive_scales(0.01, h, 1.0, 1.0, "+", 2.0, 0.4)
    assert s.d == pytest.approx(2.0 * 0.01 ** ((3 - h) / 3.0))
    assert s.d == pytest.approx(0.092832, rel=1e-2)


def test_derive_scales_small_a_limit():
    s = derive_scales(1e-6, 0.9, 2.0, 1.0, "+", 1.0, 0.5)
    assert s.k ** 2 == pytest.approx(1.0 / (2.0 * 0.5), rel=1e-4)


def test_derive_scales_h_bounds():
    with pytest.raises(ValueError, match=r"9/11"):
        derive_scales(0.01, 0.5, 1.0, 1.0, "+", 1.0, 0.4)
    with pytest.raises(ValueError, match=r"9/11"):
        derive_scales(0.01, 1.0, 1.0, 1.0, "+", 1.0, 0.4)


def test_derive_scales_infeasible_offset():
    with pytest.raises(ValueError, match="infeasible"):
        derive_scales(0.5, 0.9, 1.0, 3.0, "+", 1.0, 0.4)


def test_parse_sign():
    assert parse_sign("+") == 1.0
    assert parse_sign("-") == -1.0
    with pytest.raises(ValueError):
        parse_sign("x")


def test_generate_cluster_unit_box_half_pitch():
    cl = generate_cluster(unit_box(), 0.5)
    assert cl.count == 8
    offsets = cl.centers - 0.5
    assert np.allclose(np.sort(np.abs(offsets), axis=0), 0.25)


def test_generate_cluster_single_cube():
    cl = generate_cluster(unit_box(), 1.0)
    assert cl.count == 1
    assert np.allclose(cl.centers[0], [0.5, 0.5, 0.5])


def test_generate_cluster_ball_brute_force_oracle():
    d = 0.4
    cl = generate_cluster(unit_ball(), d)
    # independent scan over the candidate lattice testing all 8 vertices
    count = 0
    for i in range(-4, 4):
        for j in range(-4, 4):
            for l in range(-4, 4):
                c = d * (np.array([i, j, l]) + 0.5)
                ok = True
                for sx in (-0.5, 0.5):
                    for sy in (-0.5, 0.5):
                        for sz in (-0.5, 0.5):
                            v = c + d * np.array([sx, sy, sz])
                            if np.linalg.norm(v) > 1.0 + 1e-12:
                                ok = False
                if ok:
                    count += 1
    assert cl.count == count


@pytest.mark.parametrize("domain, d", [
    (unit_box(), 0.05), (unit_ball(), 0.1),
    (DomainShape("box", (2.0, 1.0, 3.0), (0.1, 0.2, 0.3)), 0.05)])
def test_generate_cluster_checks_its_memory_before_allocating(
        monkeypatch, domain, d):
    """The bytes checked before the lattice is laid down cover the traced
    peak of building the cluster (8,000 to 48,000 candidate sites), and a
    host one byte short of them refuses the cluster, naming the pitch and
    the byte count."""
    checked = []
    monkeypatch.setattr(geometry, "require_memory",
                        lambda nbytes, what: checked.append(nbytes))
    tracemalloc.start()
    try:
        generate_cluster(domain, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need, = checked
    assert peak <= need
    monkeypatch.undo()
    monkeypatch.setattr(tensors, "physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match="cluster of pitch d = %g on .* "
                       "needs %d bytes" % (d, need)):
        generate_cluster(domain, d)
    monkeypatch.setattr(tensors, "physical_memory", lambda: need)
    generate_cluster(domain, d)


def test_cluster_fill_fraction_improves():
    box = unit_box()
    gaps = []
    for d in (0.3, 0.11, 0.04):
        cl = generate_cluster(box, d)
        gaps.append(1.0 - cl.count * d ** 3)
        assert cl.count * d ** 3 <= 1.0 + 1e-12
        assert gaps[-1] <= 3 * d * 6 + 1e-12
    assert gaps[2] < gaps[0]


def test_cluster_min_distance_is_pitch():
    cl = generate_cluster(unit_box(), 0.25)
    diffs = cl.centers[:, None, :] - cl.centers[None, :, :]
    r = np.linalg.norm(diffs, axis=2)
    r[r == 0] = np.inf
    assert np.min(r) == pytest.approx(0.25, rel=1e-12)


def test_cluster_refuses_non_integer_or_no_indices():
    with pytest.raises(ValueError, match="integer"):
        Cluster([[0.5, 0.0, 0.0]], 0.1, (0, 0, 0), unit_box())
    with pytest.raises(ValueError, match="nonempty"):
        Cluster(np.zeros((0, 3), dtype=int), 0.1, (0, 0, 0), unit_box())


@st.composite
def domains_and_pitches(draw):
    """A box of any centre and extents, or a ball of any centre and radius,
    with a pitch from 1/12 of the extent to beyond it (up to 1728 cubes)."""
    d = draw(st.floats(0.01, 2.0))
    center = draw(st.tuples(*[st.floats(-3.0, 3.0)] * 3))
    if draw(st.booleans()):
        extents = draw(st.tuples(*[st.floats(0.5, 12.0)] * 3))
        return DomainShape("box", [d * e for e in extents], center), d
    return DomainShape("ball", d * draw(st.floats(1.0, 7.0)), center), d


@settings(max_examples=300)
@given(domain_and_pitch=domains_and_pitches())
def test_lattice_cluster_centres_equal_the_float_formula_bit_for_bit(
        domain_and_pitch):
    """origin + d (ijk + 1/2) from the integer indices gives the very
    centres the float construction gave, in the same order, and a domain
    that formula left empty is refused."""
    domain, d = domain_and_pitch
    try:
        want = parent_cluster_centers(domain, d)
    except ValueError:
        with pytest.raises(ValueError):
            generate_cluster(domain, d)
        return
    cluster = generate_cluster(domain, d)
    assert cluster.centers.tobytes() == want.tobytes()
    assert cluster.count == len(want)


def test_counting_sum_two_centers():
    cl = Cluster([[0, 0, 0], [1, 0, 0]], 0.5, (-0.25, -0.25, -0.25),
                 unit_box())
    assert counting_sum(cl, 3, 0) == pytest.approx(8.0)


def test_counting_sum_direct_oracle():
    cl = generate_cluster(unit_box(), 0.5)
    want = sum(1.0 / np.linalg.norm(cl.centers[j] - cl.centers[0])
               for j in range(1, 8))
    assert counting_sum(cl, 1, 0) == pytest.approx(want, rel=1e-14)


def test_counting_sum_slopes():
    pitches = [1.0 / j for j in range(4, 13)]
    for kappa, expect, tol in ((1, -3.0, 0.3), (4, -4.0, 0.3)):
        vals = [max_counting_sum(generate_cluster(unit_box(), d), kappa)
                for d in pitches]
        slope = np.polyfit(np.log(pitches), np.log(vals), 1)[0]
        assert abs(slope - expect) <= tol


@settings(max_examples=40)
@given(shape=st.tuples(st.integers(2, 8), st.integers(1, 8), st.integers(1, 8)),
       density=st.floats(0.05, 1.0), seed=st.integers(0, 2 ** 32 - 1),
       d=st.floats(0.05, 0.5), kappa=st.sampled_from([1, 3, 4]))
def test_max_counting_sum_matches_per_site_sums(shape, density, seed, d,
                                                kappa):
    mask = np.random.default_rng(seed).random(shape) < density
    mask.flat[0] = mask.flat[-1] = True
    cl = Cluster(np.argwhere(mask), d, (0.0, 0.0, 0.0), unit_box())
    want = max(counting_sum(cl, kappa, m) for m in range(cl.count))
    assert max_counting_sum(cl, kappa) == pytest.approx(want, rel=1e-12)


def midpoint_boundary_oracle(cluster, refine):
    """The boundary statistic's midpoint sum, particle by quadrature point."""
    domain = cluster.domain
    d = cluster.d
    step = d / refine
    corner = domain.center - domain.extents / 2.0
    counts = np.ceil(domain.extents / step - 1e-12).astype(int)
    axes = [corner[i] + step * (np.arange(counts[i]) + 0.5) for i in range(3)]
    grid = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grid], axis=1)
    pts = pts[domain.contains(pts)]
    # a point is covered iff it falls inside some cube of the lattice
    lat_counts = np.floor(domain.extents / d + 1e-12).astype(int)
    rel = (pts - corner) / d
    inside_lattice = np.all((rel >= 0) & (rel < lat_counts), axis=1)
    comp = pts[~inside_lattice]
    total = 0.0
    for m in range(cluster.count):
        diff = comp - cluster.centers[m]
        r3 = np.einsum("ij,ij->i", diff, diff) ** 1.5
        total += (step ** 3 * np.sum(1.0 / r3)) ** 2
    return float(total)


@pytest.mark.parametrize("extents", [(1.0, 1.0, 1.0), (1.0, 0.8, 1.3),
                                     (None, 1.0, 1.3)])
@pytest.mark.parametrize("u", [0.4, 0.5, 0.6])
@pytest.mark.parametrize("refine", [1, 2, 3, 4, 5, 12])
def test_boundary_statistic_matches_midpoint_oracle(refine, u, extents):
    # odd refine puts the centres on quadrature points, all of them covered;
    # refine 1 also gives in-plane offset 0 to the complement's points.  A
    # side given as None is three whole cubes long, so the complement box
    # thin along it is empty.  At refine 1 a layer thinner than d/2 holds
    # no quadrature point, and the statistic is 0
    for j in (2, 5):
        d = 1.0 / (j + u)
        sides = [3 * d if e is None else e for e in extents]
        domain = DomainShape("box", sides, center=(0.3, -0.2, 0.1))
        cl = generate_cluster(domain, d)
        want = midpoint_boundary_oracle(cl, refine)
        _, n, c = boundary_grid_counts(domain, d, refine)
        assert (want > 0) == (not np.array_equal(n, c))
        got = boundary_counting_statistic(cl, refine=refine)
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("extents", [(1.0, 1.0, 1.0), (1.0, 0.8, 1.3)])
@pytest.mark.parametrize("u", [0.4, 0.5, 0.6])
@pytest.mark.parametrize("refine", [1, 2, 3, 4, 5, 12])
def test_a_shared_table_gives_the_statistic_bit_for_bit(refine, u, extents):
    """One table built for the finest pitch's fine-point counts, the
    per-axis maximum on the uneven box, serves every pitch: the statistic
    read from its prefix equals the one from the call's own table exactly,
    on boxes off the origin."""
    domain = DomainShape("box", extents, center=(0.3, -0.2, 0.1))
    pitches = [1.0 / (j + u) for j in (2, 5, 9)]
    n = np.max([boundary_grid_counts(domain, d, refine)[1] for d in pitches],
               axis=0)
    table = boundary_table(n, refine)
    for d in pitches:
        cl = generate_cluster(domain, d)
        assert boundary_counting_statistic(cl, refine=refine, table=table) \
            == boundary_counting_statistic(cl, refine=refine)


def test_a_table_too_short_or_of_the_other_parity_is_refused():
    """A table one fine point short on any axis, or built for a refine of
    the other parity, raises ValueError instead of reading wrong entries."""
    domain = DomainShape("box", (1.0, 0.8, 1.3))
    cl = generate_cluster(domain, 1.0 / 4.5)
    _, n, _ = boundary_grid_counts(domain, cl.d, 4)
    want = boundary_counting_statistic(cl, refine=4)
    assert boundary_counting_statistic(
        cl, refine=4, table=boundary_table(n, 4)) == want
    for axis in range(3):
        short = n.copy()
        short[axis] -= 1
        with pytest.raises(ValueError, match="at least"):
            boundary_counting_statistic(cl, refine=4,
                                        table=boundary_table(short, 4))
    with pytest.raises(ValueError, match="even refine"):
        boundary_counting_statistic(cl, refine=4,
                                    table=boundary_table(n, 3))
    _, n3, _ = boundary_grid_counts(domain, cl.d, 3)
    with pytest.raises(ValueError, match="odd refine"):
        boundary_counting_statistic(cl, refine=3,
                                    table=boundary_table(n3, 4))


def boundary_grid_counts_oracle(domain, d, refine):
    """boundary_grid_counts from the quadrature points themselves: lay them
    down along each axis and count those in the box and in whole cubes."""
    step = d / refine
    corner = domain.center - domain.extents / 2.0
    lattice = np.floor(domain.extents / d + 1e-12).astype(int)
    n = np.zeros(3, dtype=int)
    c = np.zeros(3, dtype=int)
    for i in range(3):
        x = corner[i] + step * (np.arange(
            int(np.ceil(domain.extents[i] / step - 1e-12))) + 0.5)
        x = x[np.abs(x - domain.center[i]) <= domain.extents[i] / 2.0 + 1e-12]
        n[i] = x.size
        c[i] = int(np.sum((x - corner[i]) / d < lattice[i]))
    return lattice, n, c


@settings(max_examples=300, deadline=None)
@given(extents=st.tuples(*[st.one_of(
           st.floats(0.05, 3.0),
           st.integers(1, 30).map(lambda m: m / 10.0))] * 3),
       center=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
       d=st.one_of(
           st.tuples(st.integers(6, 14), st.floats(0.0, 1.0)).map(
               lambda ju: 1.0 / (ju[0] + ju[1])),
           st.integers(1, 20).map(lambda j: 1.0 / j),
           st.floats(0.01, 1.0)),
       refine=st.integers(1, 16))
def test_boundary_grid_counts_match_the_quadrature_points(extents, center,
                                                          d, refine):
    domain = DomainShape("box", extents, center)
    want = boundary_grid_counts_oracle(domain, d, refine)
    got = boundary_grid_counts(domain, d, refine)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_boundary_statistic_of_a_subcluster():
    cl = generate_cluster(unit_box(), 1.0 / 4.5)
    part = Cluster(cl.ijk[::3], cl.d, cl.origin, cl.domain)
    assert boundary_counting_statistic(part, refine=4) == pytest.approx(
        midpoint_boundary_oracle(part, 4), rel=1e-12)


def test_boundary_statistic_rejects_centres_off_the_corner_lattice():
    cl = generate_cluster(unit_box(), 1.0 / 4.5)
    shifted = Cluster(cl.ijk, cl.d, cl.origin + cl.d / 3.0, cl.domain)
    with pytest.raises(ValueError, match="pitch-d lattice anchored"):
        boundary_counting_statistic(shifted)
    # on the lattice, but in the uncovered layer past the whole cubes
    outside = Cluster(cl.ijk + 1, cl.d, cl.origin, cl.domain)
    with pytest.raises(ValueError, match="inside the lattice of whole cubes"):
        boundary_counting_statistic(outside)
    with pytest.raises(ValueError, match="refine"):
        boundary_counting_statistic(cl, refine=2.5)


def test_boundary_statistic_refuses_a_table_larger_than_memory(monkeypatch):
    """The summed-volume table is checked against physical memory before it
    is allocated: a limit one byte short of the table alone is refused,
    naming the table, and so, at once, is a refine whose table no host
    holds."""
    cl = generate_cluster(unit_box(), 1.0 / 4.5)
    want = boundary_counting_statistic(cl, refine=4)
    _, n, _ = boundary_grid_counts(cl.domain, cl.d, 4)
    monkeypatch.setattr(tensors, "physical_memory",
                        lambda: 8 * int(np.prod(n + 1)) - 1)
    with pytest.raises(ValueError,
                       match="summed-volume table of 19 x 19 x 19"):
        boundary_counting_statistic(cl, refine=4)
    monkeypatch.setattr(tensors, "physical_memory", lambda: 2 ** 40)
    assert boundary_counting_statistic(cl, refine=4) == want
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=r"refine=100000\)"):
        boundary_counting_statistic(cl, refine=100000)
    assert time.perf_counter() - t0 < 1.0


def test_boundary_statistic_zero_for_exact_tiling():
    cl = generate_cluster(unit_box(), 0.5)
    assert boundary_counting_statistic(cl) == 0.0


def test_boundary_statistic_quadrature_refinement():
    cl = generate_cluster(unit_box(), 1.0 / 3.5)
    coarse = boundary_counting_statistic(cl, refine=4)
    fine = boundary_counting_statistic(cl, refine=12)
    assert coarse > 0
    assert abs(coarse - fine) <= 0.05 * fine


def test_domain_shape_validation():
    with pytest.raises(ValueError):
        DomainShape("cylinder", 1.0)
    with pytest.raises(ValueError):
        DomainShape("ball", -1.0)
    with pytest.raises(ValueError):
        generate_cluster(unit_box(), 2.0)
    with pytest.raises(ValueError):
        generate_cluster(unit_box(), -0.1)
