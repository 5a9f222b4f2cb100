# Orchestrated studies: homogenization convergence of the two far fields,
# permeability regime maps, plasmonic resonance amplification, and the
# counting-law regressions.

import time

import numpy as np

from .config import scales, with_defaults
from .effective import (classify_regime, coercivity_window, coupling_xi,
                        effective_mu, p0_ball)
from .foldylax import (IncidentWave, assemble_and_solve, cluster_far_field,
                       invertibility_margin)
from .geometry import (boundary_counting_statistic, boundary_grid_counts,
                       boundary_table, counting_lattice, generate_cluster,
                       max_counting_sum, unit_ball, unit_box)
from .lse import (VolumeGrid, effective_far_field, select_resonant_eigenvalue,
                  solve_effective_lse)
from .tensors import direction_grid


# couplings below this are reported as degenerate instead of compared
DEGENERATE_XI = 1e-8
DEGENERATE_ROW = {"status": "degenerate-zero-field", "sup_error": 0.0,
                  "rel_error": 0.0}


def _fit_slope(xs, ys, tail=None):
    """Least-squares slope of log(ys) against log(xs)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    if tail is not None:
        lx, ly = lx[-tail:], ly[-tail:]
    return float(np.polyfit(lx, ly, 1)[0])


def polarization_angle_deg(v, p):
    """Angle in degrees between the complex vector v and the real unit
    vector p's line: atan2(|v - (p.v) p|, |p.v|), which is exact near 0,
    where arccos of the cosine loses half the digits."""
    along = p @ v
    return float(np.degrees(np.arctan2(np.linalg.norm(v - along * p),
                                       abs(along))))


def _compare(cluster, sc, p0, wave, grid, xi, dirs, log):
    """Row fields comparing the cluster's far field with the effective
    medium's at one particle scale; the two solves' paths and matvec counts
    go to the timing row `log`."""
    sol = assemble_and_solve(cluster, sc, p0, wave)
    far = cluster_far_field(sol, cluster, sc, dirs)
    mu = effective_mu(xi, p0, sc.sign)
    H, lse_res, lse_path, lse_matvecs = solve_effective_lse(grid, mu, wave)
    log.update(fl_path=sol.path, fl_matvecs=sol.matvecs, lse_path=lse_path,
               lse_matvecs=lse_matvecs)
    eff = effective_far_field(H, grid, mu, sc.k, dirs)
    residuals = {"fl_residual": sol.residual, "lse_residual": lse_res}
    scale = max(eff.sup_norm(), far.sup_norm())
    if scale < 1e-14:
        return dict(DEGENERATE_ROW, **residuals)
    diff = np.linalg.norm(far.values - eff.values, axis=1)
    return dict(status="ok", sup_error=float(np.max(diff)),
                l2_error=np.sqrt(np.mean(diff ** 2)),
                rel_error=float(np.max(diff)) / scale, **residuals)


def run_convergence(config):
    """Far-field agreement of the cluster and effective-medium solvers.

    For each particle scale a: derive the consistent scales, build the
    cluster, solve the point-interaction system, solve the volume integral
    equation at the matched coupling, and record the sup-direction far-field
    difference.  Returns (rows, fitted slope of log-error vs log-a, timing
    log).  Wall times, and each compared row's solve paths and matvec
    counts (fl_path, fl_matvecs, lse_path, lse_matvecs), are reported in
    the timing log, so the result table itself is reproducible byte for
    byte.
    """
    config = with_defaults("converge", config)
    a_list = list(config["a_list"])
    if any(a1 <= a2 for a1, a2 in zip(a_list, a_list[1:])):
        raise ValueError("a_list must be strictly decreasing")
    p0 = p0_ball()
    dirs = direction_grid()
    grid = VolumeGrid(unit_box(), config["grid_n"])
    rows = []
    timings = []
    for a in a_list:
        t0 = time.perf_counter()
        row, timing = {"a": a}, {"a": a}
        try:
            sc = scales(config, a)
            cluster = generate_cluster(unit_box(), sc.d)
            wave = IncidentWave(sc.k, config["theta"], config["p"])
            xi = coupling_xi(sc.eta0, sc.k, sc.c0, sc.c_r)
            margin = invertibility_margin(sc, p0)
            row.update({"d": sc.d, "count": cluster.count, "k": sc.k,
                        "xi": xi, "margin": margin})
            # vanishing coupling: both far fields tend to zero and the
            # relative comparison is meaningless
            if xi >= DEGENERATE_XI:
                row.update(_compare(cluster, sc, p0, wave, grid, xi, dirs,
                                    timing))
            else:
                row.update(DEGENERATE_ROW)
        except (RuntimeError, ValueError) as exc:
            row.update({"status": "failed: %s" % exc})
        rows.append(row)
        timings.append(dict(timing, wall_time=time.perf_counter() - t0))
    good = [r for r in rows if r.get("status") == "ok"]
    tail = (len(good) + 1) // 2 + 1
    slope = _fit_slope([r["a"] for r in good], [r["sup_error"] for r in good],
                       tail=tail) if len(good) > 1 else float("nan")
    return rows, slope, timings


def run_regime_map(config):
    """Permeability sign map over a grid of couplings and both branches."""
    config = with_defaults("effective", config)
    lo, hi, _ = coercivity_window(config["k"], config["diam_omega"],
                                  config["vol_omega"], config["delta"])
    p0 = p0_ball()
    rows = []
    for sign in config["signs"]:
        for xi in config["xi_values"]:
            label = classify_regime(xi, sign)
            if label == "degenerate":
                mu_diag = float("nan")
            else:
                mu_diag = float(np.real(effective_mu(xi, p0, sign)[0, 0]))
            rows.append({"xi": xi, "sign": sign, "mu_diag": mu_diag,
                         "regime": label,
                         "in_coercivity_window": bool(lo < xi < hi)})
    return rows


def run_resonance(config):
    """Plasmonic amplification against detuning on the unit ball.

    Selects the discrete Magnetization eigenvalue above 1/3 with the
    strongest coupling to long-wavelength excitation, scans the detuning
    over both signs, fits the amplification slope, and evaluates the
    back-scattered polarization alignment near the peak.  A detuning whose
    solve fails keeps its row with status "failed: ..."; when none is ok,
    the peak fields of the report are None.
    """
    # looked up at call time, so that perfbench's lse.scan probe, which
    # wraps the name in lse, sees the call
    from .lse import resonance_amplification_scan
    config = with_defaults("resonance", config)
    grid = VolumeGrid(unit_ball(), config["grid_n"])
    lam, coupling_weight, degeneracy = select_resonant_eigenvalue(grid)
    betas = list(config["betas"])
    wave = {key: np.asarray(config[key], dtype=float)
            for key in ("theta", "p")}
    scales_template = {"eta0": config["eta0"],
                       "lambda_b": config["lambda_b"]}
    rows, slope = resonance_amplification_scan(grid, lam, betas, wave,
                                               scales_template)
    for r in rows:
        if r["status"] == "ok":
            r["back_angle_deg"] = polarization_angle_deg(
                r.pop("back_scatter"), wave["p"])
    # back-scatter polarization angle at the strongest amplification; none
    # when every detuning failed
    peak = max((r for r in rows if r["status"] == "ok"),
               key=lambda r: r["field_norm"], default=None)
    # off-resonance reference row at a small, globally non-resonant coupling
    beta_off = 4.0 * config["xi_off"] / np.pi ** 3 - 1.0 / (3.0 * lam - 1.0)
    off_rows, _ = resonance_amplification_scan(grid, lam, [beta_off], wave,
                                               scales_template)
    for r in off_rows:
        r.pop("back_scatter", None)
        r["off_resonance"] = True
        rows.append(r)
    report = {"lambda_target": lam, "coupling_weight": coupling_weight,
              "degeneracy": degeneracy, "slope": slope,
              "peak_beta": None if peak is None else peak["beta"],
              "peak_back_angle_deg":
                  None if peak is None else peak["back_angle_deg"]}
    return rows, report


def run_counting(config):
    """Counting-law regressions for the interior sums and boundary statistic.

    Interior sums use exactly tiling pitches; the boundary statistic needs a
    nonempty complement region, so its pitches are deliberately chosen
    incommensurate with the unit box.  The lattice is anchored at the box's
    minimum corner, so the complement is a layer of thickness
    (1/d - floor(1/d)) d on the three maximum faces (d/2 at the default
    pitches 1/(j + 1/2)).

    The fitted log-log slopes estimate these laws: kappa=1 d^-3, kappa=3
    d^-3 ln(1/d), kappa=4 d^-4, and the boundary statistic d^-2 with a
    d ln(1/d) relative correction, which pulls its fitted slope below -2 at
    the default pitches.

    The three kappa share each cluster's occupancy transform, and every
    boundary pitch reads its prefix of one summed-volume table, built
    before the boundary loop for the per-axis largest fine-point count of
    the pitches (geometry.boundary_table).
    """
    config = with_defaults("counting", config)
    kappa_pitches = config["pitches"]
    rows = []
    slopes = {}
    kappas = (1, 3, 4)
    sums = {kappa: [] for kappa in kappas}
    # one cluster and its occupancy transform at a time, for every kappa
    for d in kappa_pitches:
        cluster = generate_cluster(unit_box(), d)
        lattice = counting_lattice(cluster)
        for kappa in kappas:
            sums[kappa].append(max_counting_sum(cluster, kappa, lattice))
    for kappa in kappas:
        slopes["kappa_%d" % kappa] = _fit_slope(kappa_pitches, sums[kappa])
        rows.extend({"quantity": "counting_sum", "kappa": kappa, "d": d,
                     "value": v} for d, v in zip(kappa_pitches, sums[kappa]))
    boundary_pitches = config["boundary_pitches"]
    refine = config["refine"]
    # one summed-volume table, as long on each axis as the longest pitch's
    n = np.max([boundary_grid_counts(unit_box(), d, refine)[1]
                for d in boundary_pitches], axis=0)
    table = boundary_table(n, refine)
    stats = []
    for d in boundary_pitches:
        cluster = generate_cluster(unit_box(), d)
        stats.append(boundary_counting_statistic(
            cluster, refine=refine, table=table))
    slopes["boundary"] = _fit_slope(boundary_pitches, stats)
    rows.extend({"quantity": "boundary_statistic", "kappa": 3, "d": d,
                 "value": v} for d, v in zip(boundary_pitches, stats))
    return rows, slopes
