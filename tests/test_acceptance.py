"""End-to-end acceptance checks.

Each test evaluates one numbered criterion, prints a single PASS/FAIL line
(run pytest with -s to see them), and then asserts.  Where a criterion
rests on a closed form or an asymptotic law (03: the large-coupling limit of
the ball permeability; 10: the d^-2 law of the boundary statistic), the
test's docstring derives what it asserts.
"""

import time

import numpy as np
import pytest

from dielscat.effective import (ball_moment_vectors, classify_regime,
                                effective_mu, effective_mu_ball, p0_ball,
                                p0_from_moments)
from dielscat.experiments import run_convergence, run_counting, run_resonance
from dielscat.foldylax import (IncidentWave, assemble_and_solve,
                               cluster_far_field, invertibility_margin)
from dielscat.geometry import (Cluster, derive_scales, generate_cluster,
                               unit_ball, unit_box)
from dielscat.lse import (VolumeGrid, effective_far_field,
                          magnetization_apply, magnetization_spectrum,
                          newtonian_apply, newtonian_operator_norm,
                          solve_effective_lse)
from dielscat.tensors import direction_grid
from oracles import (discrete_curl, dyadic_green, dyadic_green_fd,
                     interior_mask, neumann_series_solution, q_form_rhs)

PI3 = np.pi ** 3


def report(number, name, ok, detail=""):
    line = "criterion %02d %-28s %s" % (number, name,
                                        "PASS" if ok else "FAIL")
    if detail:
        line += "   (%s)" % detail
    print(line, flush=True)
    assert ok, line


def test_criterion_01_kernel_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        k = rng.uniform(0.0, 4.0)
        x = rng.uniform(-1, 1, 3)
        y = rng.uniform(-1, 1, 3)
        r = np.linalg.norm(x - y)
        if r < 0.2:
            y = x + (y - x) * 0.2 / r
        exact = dyadic_green(x, y, k)
        fd = dyadic_green_fd(x, y, k)
        worst = max(worst, np.max(np.abs(exact - fd))
                    / np.max(np.abs(exact)))
    elapsed = time.perf_counter() - t0
    report(1, "kernel-oracle", worst <= 1e-6 and elapsed < 1.0,
           "worst rel err %.2e, %.2fs" % (worst, elapsed))


def test_criterion_02_ball_polarization_tensor():
    p0 = p0_from_moments(ball_moment_vectors())
    dev = np.max(np.abs(p0 - (12.0 / PI3) * np.eye(3)))
    report(2, "ball-polarization-tensor", dev <= 1e-12, "dev %.2e" % dev)


def test_criterion_03_regime_map():
    """Sign boundaries and large-coupling limit of the ball permeability.

    On the ball mu(xi) = (pi^3 + s 8 xi) / (pi^3 - s 4 xi) I with s = +-1,
    so mu + 2I = 3 pi^3 / (pi^3 - s 4 xi) I.  The deviation |mu + 2I| is
    therefore 3 pi^3 / (4 xi + pi^3) on the "-" branch and
    3 pi^3 / (4 xi - pi^3) on the "+" branch.  At xi = 1e6 both equal
    2.33e-5, which is asserted to rel 1e-10; the 1e-5 bound holds only for
    xi >= 2.33e6 and is checked at xi = 1e7 (deviation 2.33e-6).
    """
    # the upper-branch sign change is a pole crossing; step far enough off
    # the boundary to clear the singular-factor guard
    eps = 1e-2
    ok = True
    # lower-sign sign change exactly at pi^3/8
    ok &= np.real(effective_mu(PI3 / 8 - eps, p0_ball(), "-")[0, 0]) > 0
    ok &= np.real(effective_mu(PI3 / 8 + eps, p0_ball(), "-")[0, 0]) < 0
    ok &= classify_regime(PI3 / 8, "-") == "degenerate"
    # upper-sign sign change exactly at pi^3/4
    ok &= np.real(effective_mu(PI3 / 4 - eps, p0_ball(), "+")[0, 0]) > 0
    ok &= np.real(effective_mu(PI3 / 4 + eps, p0_ball(), "+")[0, 0]) < 0
    ok &= classify_regime(PI3 / 4, "+") == "degenerate"

    def deviation(xi, sign):
        return np.max(np.abs(effective_mu(xi, p0_ball(), sign)
                             + 2.0 * np.eye(3)))

    # large-coupling limit: "-" gives 3 pi^3 / (4 xi + pi^3),
    # "+" gives 3 pi^3 / (4 xi - pi^3)
    xi = 1e6
    exact = {"-": 3 * PI3 / (4 * xi + PI3), "+": 3 * PI3 / (4 * xi - PI3)}
    dev = {sign: deviation(xi, sign) for sign in exact}
    closed_ok = all(abs(dev[sign] - exact[sign]) <= 1e-10 * exact[sign]
                    for sign in exact)
    dev_far = max(deviation(1e7, sign) for sign in exact)
    limit_ok = dev_far <= 1e-5
    report(3, "regime-map", ok and closed_ok and limit_ok,
           "boundaries ok=%s, |mu(1e6)+2I| -/+ %.4e/%.4e (closed form ok=%s),"
           " |mu(1e7)+2I|=%.3e"
           % (bool(ok), dev["-"], dev["+"], closed_ok, dev_far))


def test_criterion_04_foldylax_correctness():
    t0 = time.perf_counter()
    p0 = p0_ball()
    # single particle: analytic solution
    s1 = derive_scales(0.05, 0.9, 1.0, 1.0, "+", 1.0, 0.4)
    wave1 = IncidentWave(s1.k, (0, 0, 1), (1, 0, 0))
    single = Cluster([[0, 0, 0]], s1.d, (0.5 - s1.d / 2,) * 3, unit_box())
    sol1 = assemble_and_solve(single, s1, p0, wave1)
    expect = q_form_rhs(single, s1, p0, wave1)
    exact_dev = np.max(np.abs(sol1.vectors - expect)) / np.max(np.abs(expect))
    # Neumann-series equivalence at small margin
    s2 = derive_scales(0.03, 0.9, 1.0, 1.0, "+", 3.0, 0.4)
    cl2 = generate_cluster(unit_box(), s2.d)
    wave2 = IncidentWave(s2.k, (0, 0, 1), (1, 0, 0))
    margin = invertibility_margin(s2, p0)
    sol2 = assemble_and_solve(cl2, s2, p0, wave2)
    series = neumann_series_solution(cl2, s2, p0, wave2, terms=30)
    neumann_dev = (np.linalg.norm(sol2.vectors - series)
                   / np.linalg.norm(sol2.vectors))
    # direct residual at several hundred particles
    s3 = derive_scales(0.05, 0.9, 1.0, 1.0, "+", 1.0, 0.4)
    cl3 = generate_cluster(unit_box(), s3.d)
    wave3 = IncidentWave(s3.k, (0, 0, 1), (1, 0, 0))
    sol3 = assemble_and_solve(cl3, s3, p0, wave3)
    elapsed = time.perf_counter() - t0
    ok = (exact_dev <= 1e-12 and cl2.count <= 64 and margin < 0.5
          and neumann_dev <= margin ** 30 + 1e-8
          and cl3.count <= 1000 and sol3.residual <= 1e-10
          and elapsed < 30.0)
    report(4, "foldylax-correctness", ok,
           "exact %.1e, margin %.2f, neumann %.1e, residual %.1e, %.1fs"
           % (exact_dev, margin, neumann_dev, sol3.residual, elapsed))


def test_criterion_05_far_field_transversality():
    p0 = p0_ball()
    scales = derive_scales(0.05, 0.9, 1.0, 1.0, "+", 1.0, 0.4)
    cluster = generate_cluster(unit_box(), scales.d)
    wave = IncidentWave(scales.k, (0, 0, 1), (1, 0, 0))
    sol = assemble_and_solve(cluster, scales, p0, wave)
    far = cluster_far_field(sol, cluster, scales, direction_grid())
    d1 = far.max_transversality_defect()
    grid = VolumeGrid(unit_box(), 8)
    mu, k = effective_mu_ball(2.0, "-"), scales.k
    wave2 = IncidentWave(k, (0, 0, 1), (1, 0, 0))
    H, _, _, _ = solve_effective_lse(grid, mu, wave2)
    eff = effective_far_field(H, grid, mu, k, direction_grid())
    d2 = eff.max_transversality_defect()
    report(5, "far-field-transversality", d1 <= 1e-12 and d2 <= 1e-12,
           "cluster %.1e, effective %.1e" % (d1, d2))


def test_criterion_06_volume_operators():
    t0 = time.perf_counter()
    grid = VolumeGrid(unit_ball(), 24)
    const = np.zeros((grid.count, 3), dtype=complex)
    const[:, 0] = 1.0
    center = np.argmin(np.linalg.norm(grid.centers, axis=1))
    n_center = np.real(newtonian_apply(const, grid)[center, 0])
    m_center = np.real(magnetization_apply(const, grid)[center, 0])
    # Helmholtz identity on a smooth interior field
    bump = np.exp(-3.0 * np.einsum("ij,ij->i", grid.centers, grid.centers))
    F = np.zeros((grid.count, 3), dtype=complex)
    F[:, 0] = bump
    NF = newtonian_apply(F, grid)
    c1, v1 = discrete_curl(NF, grid)
    c2, v2 = discrete_curl(c1, grid)
    total = magnetization_apply(F, grid) + c2
    mask = interior_mask(grid, depth=2) & v1 & v2
    ident_err = np.max(np.abs(total[mask] - F[mask])) / np.max(np.abs(F))
    # Newtonian operator norm, improving with resolution
    norm24 = newtonian_operator_norm(grid)
    norm32 = newtonian_operator_norm(VolumeGrid(unit_ball(), 32))
    target = 4.0 / np.pi ** 2
    elapsed = time.perf_counter() - t0
    ok = (abs(n_center - 0.5) <= 0.005
          and abs(m_center - 1.0 / 3.0) <= 1.0 / 300.0
          and ident_err <= 0.02
          and abs(norm24 - target) <= 0.1 * target
          and abs(norm32 - target) < abs(norm24 - target))
    report(6, "volume-operators", ok,
           "N %.4f, gradM %.4f, identity %.3f, norm24 %.4f, norm32 %.4f, "
           "%.0fs" % (n_center, m_center, ident_err, norm24, norm32, elapsed))


def test_criterion_07_magnetization_spectrum():
    t0 = time.perf_counter()
    grid = VolumeGrid(unit_ball(), 20)
    rep = magnetization_spectrum(grid, mode="gradient", lmax=10)
    vals = rep.eigenvalues
    near_third = abs(rep.nearest(1.0 / 3.0) - 1.0 / 3.0)
    contained = bool(np.all(vals > 0.25 - 0.05) and np.all(vals < 0.75 + 0.05))
    cluster_half = int(np.sum(np.abs(vals - 0.5) < 0.05))
    elapsed = time.perf_counter() - t0
    ok = (near_third <= 0.03 and contained and cluster_half >= 10
          and elapsed < 600.0)
    report(7, "magnetization-spectrum", ok,
           "nearest-1/3 dev %.4f, range [%.3f, %.3f], near-0.5 count %d, "
           "%.0fs" % (near_third, vals[0], vals[-1], cluster_half, elapsed))


def test_criterion_08_homogenization_convergence():
    t0 = time.perf_counter()
    config = {"a_list": [0.04, 0.03, 0.02, 0.015, 0.01], "h": 0.9,
              "eta0": 1.0, "c0": 1.0, "sign": "+", "c_r": 2.0,
              "lambda_b": 0.4, "grid_n": 20}
    rows, slope, _ = run_convergence(config)
    elapsed = time.perf_counter() - t0
    ok = all(r["status"] == "ok" for r in rows)
    errors = [r["sup_error"] for r in rows if r["status"] == "ok"]
    decreasing = all(e1 > e2 for e1, e2 in zip(errors, errors[1:]))
    counts_ok = all(r["count"] <= 3000 for r in rows)
    residuals_ok = all(r["fl_residual"] <= 1e-8 and r["lse_residual"] <= 1e-6
                       for r in rows if r["status"] == "ok")
    ok = (ok and decreasing and slope > 0 and counts_ok and residuals_ok
          and elapsed < 900.0)
    report(8, "homogenization-convergence", ok,
           "errors %s, slope %.3f, %.0fs"
           % (["%.2e" % e for e in errors], slope, elapsed))


def test_criterion_09_plasmonic_amplification():
    t0 = time.perf_counter()
    betas = []
    for b in np.geomspace(1e-4, 1e-2, 4):
        betas.extend([b, -b])
    config = {"grid_n": 14, "eta0": 1e9, "lambda_b": 0.4, "betas": betas,
              "theta": (0.0, 0.0, 1.0), "p": (1.0, 0.0, 0.0), "xi_off": 2.0}
    rows, rep = run_resonance(config)
    elapsed = time.perf_counter() - t0
    on_rows = [r for r in rows if r["status"] == "ok"
               and not r.get("off_resonance")]
    off_rows = [r for r in rows if r.get("off_resonance")]
    off_ok = all(r["incident_ratio"] < 50.0 for r in off_rows
                 if r["status"] == "ok")
    ok = (rep["lambda_target"] > 1.0 / 3.0
          and abs(rep["slope"] + 1.0) <= 0.25
          and rep["peak_back_angle_deg"] <= 10.0
          and len(on_rows) == len(betas)
          and off_ok and elapsed < 900.0)
    report(9, "plasmonic-amplification", ok,
           "lam %.4f, slope %.3f, back-angle %.2f deg, %.0fs"
           % (rep["lambda_target"], rep["slope"],
              rep["peak_back_angle_deg"], elapsed))


def boundary_slab_constant(u, terms=10 ** 6):
    """A(u) = 3 sum_{n>=1} [2 pi ln(1 + u / (n - 1/2))]^2.

    Truncating at `terms` drops about 3 (2 pi u)^2 / terms, 3e-5 for u = 1/2
    at the default.
    """
    n = np.arange(1, terms + 1)
    return 3.0 * float(np.sum((2.0 * np.pi * np.log1p(u / (n - 0.5))) ** 2))


def test_criterion_10_counting_regressions():
    """Counting sums scale as d^-kappa; the boundary statistic as d^-2.

    The boundary statistic is S(d) = sum_m (int_{Omega \\ cubes} |z_m - z|^-3
    dz)^2 on the unit box.  The lattice is anchored at the min corner, so
    with 1/d = j + u (0 < u < 1) the complement of the cubes is a layer of
    thickness t = u d on the three max faces.  A particle n layers from a
    face, at distance s = (n - 1/2) d, sees that layer as a slab, and
    int_slab |z_m - z|^-3 dz = int_s^{s+t} 2 pi / x dx
                             = 2 pi ln(1 + u / (n - 1/2)),
    independent of d.  Each face holds about d^-2 particles per layer, so

        S(d) = d^-2 (A(u) - B d ln(1/d) + ...),
        A(u) = 3 sum_{n>=1} [2 pi ln(1 + u / (n - 1/2))]^2,

    where the d ln(1/d) term comes from the faces being finite.  The default
    pitches d = 1/(j + 1/2) have u = 1/2 and A = 79.69.  The correction
    pulls a plain log-log fit on these pitches to about -2.4, so the test
    fits d^2 S on [1, d ln(1/d)] and compares the intercept with A(u); a
    wrong complement, a wrong quadrature weight or a d^-1 law misses it by
    far more than the 3 % allowed.
    """
    t0 = time.perf_counter()
    rows, slopes = run_counting({})
    elapsed = time.perf_counter() - t0
    ok_k1 = abs(slopes["kappa_1"] + 3.0) <= 0.3
    ok_k4 = abs(slopes["kappa_4"] + 4.0) <= 0.3
    d, stat = np.array([(r["d"], r["value"]) for r in rows
                        if r["quantity"] == "boundary_statistic"]).T
    offsets = 1.0 / d - np.floor(1.0 / d + 1e-12)
    u = float(offsets[0])
    series = boundary_slab_constant(u)
    design = np.column_stack([np.ones_like(d), d * np.log(1.0 / d)])
    (intercept, _), *_ = np.linalg.lstsq(design, d ** 2 * stat, rcond=None)
    ok_boundary = (np.allclose(offsets, u)
                   and abs(intercept - series) <= 0.03 * series)
    report(10, "counting-regressions",
           ok_k1 and ok_k4 and ok_boundary and elapsed < 60.0,
           "kappa1 %.2f, kappa4 %.2f, boundary slope %.2f, d^2 S intercept "
           "%.2f vs A(%.2f) %.2f, %.0fs"
           % (slopes["kappa_1"], slopes["kappa_4"], slopes["boundary"],
              intercept, u, series, elapsed))


def test_criterion_11_determinism(tmp_path, monkeypatch):
    import json
    from dielscat import linalg
    from dielscat.cli import main
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(
        {"a": 0.05, "h": 0.9, "eta0": 1.0, "c0": 1.0, "sign": "+",
         "c_r": 1.0, "lambda_b": 0.4, "theta": [0, 0, 1], "p": [1, 0, 0]}))
    o1, o2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["foldylax", "--config", str(cfg), "--out", str(o1)]) == 0
    assert main(["foldylax", "--config", str(cfg), "--out", str(o2)]) == 0
    direct_same = ((o1 / "foldylax_results.csv").read_bytes()
                   == (o2 / "foldylax_results.csv").read_bytes())
    # iterative solver: repeated runs agree within 1e-8
    grid = VolumeGrid(unit_box(), 6)
    mu = effective_mu_ball(2.0, "-")
    wave = IncidentWave(1.2, (0, 0, 1), (1, 0, 0))
    # with the dense limit at 0 the 216 cells go to GMRES
    monkeypatch.setattr(linalg, "DENSE_LIMIT", 0)
    Ha, _, _, _ = solve_effective_lse(grid, mu, wave)
    Hb, _, _, _ = solve_effective_lse(grid, mu, wave)
    iter_dev = np.linalg.norm(Ha - Hb) / np.linalg.norm(Ha)
    report(11, "determinism", direct_same and iter_dev <= 1e-8,
           "direct byte-identical %s, iterative dev %.1e"
           % (direct_same, iter_dev))
