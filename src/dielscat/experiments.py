# Orchestrated studies: homogenization convergence of the two far fields,
# permeability regime maps, plasmonic resonance amplification, and the
# counting-law regressions.

import time

import numpy as np

from .effective import (classify_regime, coercivity_window, coupling_xi,
                        effective_mu, p0_ball, tensor_T)
from .foldylax import (IncidentWave, assemble_and_solve, cluster_far_field,
                       invertibility_margin)
from .geometry import (boundary_counting_statistic, derive_scales,
                       generate_cluster, max_counting_sum, unit_ball,
                       unit_box)
from .lse import (VolumeGrid, effective_far_field, select_resonant_eigenvalue,
                  solve_effective_lse)
from .tensors import direction_grid, refine_direction_grid


# couplings below this are reported as degenerate instead of compared
DEGENERATE_XI = 1e-8

# default pitches of run_counting: exactly tiling ones for the interior
# sums, ones leaving a half-pitch layer for the boundary statistic
COUNTING_PITCHES = [1.0 / j for j in range(4, 13)]
BOUNDARY_PITCHES = [1.0 / (j + 0.5) for j in range(6, 15)]
COUNTING_REFINE = 4


def _fit_slope(xs, ys, tail=None):
    """Least-squares slope of log(ys) against log(xs)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    if tail is not None:
        lx, ly = lx[-tail:], ly[-tail:]
    return float(np.polyfit(lx, ly, 1)[0])


def run_convergence(config):
    """Far-field agreement of the cluster and effective-medium solvers.

    For each particle scale a: derive the consistent scales, build the
    cluster, solve the point-interaction system, solve the volume integral
    equation at the matched coupling, and record the sup-direction far-field
    difference.  Returns (rows, fitted slope of log-error vs log-a, timing
    log).  Wall times are reported separately so the result table itself is
    reproducible byte for byte.
    """
    a_list = list(config["a_list"])
    if any(a1 <= a2 for a1, a2 in zip(a_list, a_list[1:])):
        raise ValueError("a_list must be strictly decreasing")
    p0 = p0_ball()
    dirs = direction_grid()
    if config.get("double_directions"):
        dirs = refine_direction_grid(dirs)
    grid = VolumeGrid(unit_box(), config.get("grid_n", 20))
    theta = config.get("theta", (0.0, 0.0, 1.0))
    p = config.get("p", (1.0, 0.0, 0.0))
    rows = []
    timings = []
    for a in a_list:
        t0 = time.perf_counter()
        row = {"a": a}
        try:
            scales = derive_scales(a, config["h"], config["eta0"],
                                   config["c0"], config["sign"],
                                   config["c_r"], config["lambda_b"])
            cluster = generate_cluster(unit_box(), scales.d)
            wave = IncidentWave(scales.k, theta, p)
            xi = coupling_xi(scales.eta0, scales.k, scales.c0, scales.c_r)
            margin = invertibility_margin(scales, p0)
            row.update({"d": scales.d, "count": cluster.count, "k": scales.k,
                        "xi": xi, "margin": margin})
            if xi < DEGENERATE_XI:
                # vanishing coupling: both far fields tend to zero and the
                # relative comparison is meaningless
                row.update({"status": "degenerate-zero-field",
                            "sup_error": 0.0, "rel_error": 0.0})
                rows.append(row)
                timings.append({"a": a,
                                "wall_time": time.perf_counter() - t0})
                continue
            sol = assemble_and_solve(cluster, scales, p0, wave)
            far = cluster_far_field(sol, cluster, scales, dirs)
            T = tensor_T(xi, p0, scales.sign)
            H, lse_res = solve_effective_lse(grid, xi, T, scales.k, wave,
                                             scales.sign)
            eff = effective_far_field(H, grid, xi, T, scales.k, scales.sign,
                                      dirs)
            scale = max(eff.sup_norm(), far.sup_norm())
            if scale < 1e-14:
                row.update({"status": "degenerate-zero-field",
                            "sup_error": 0.0, "rel_error": 0.0,
                            "fl_residual": sol.residual,
                            "lse_residual": lse_res})
            else:
                diff = np.linalg.norm(far.values - eff.values, axis=1)
                l2 = np.sqrt(np.mean(diff ** 2))
                row.update({"status": "ok",
                            "sup_error": float(np.max(diff)),
                            "l2_error": l2,
                            "rel_error": float(np.max(diff)) / scale,
                            "fl_residual": sol.residual,
                            "lse_residual": lse_res})
        except (RuntimeError, ValueError) as exc:
            row.update({"status": "failed: %s" % exc})
        rows.append(row)
        timings.append({"a": a, "wall_time": time.perf_counter() - t0})
    good = [r for r in rows if r.get("status") == "ok"]
    tail = (len(good) + 1) // 2 + 1
    slope = _fit_slope([r["a"] for r in good], [r["sup_error"] for r in good],
                       tail=tail) if len(good) > 1 else float("nan")
    return rows, slope, timings


def run_regime_map(config):
    """Permeability sign map over a grid of couplings and both branches."""
    xi_values = config["xi_values"]
    k = config.get("k", 0.0)
    delta = config.get("delta", 1)
    diam = config.get("diam_omega", 2.0)
    vol = config.get("vol_omega", 4.0 * np.pi / 3.0)
    lo, hi, _ = coercivity_window(k, diam, vol, delta)
    p0 = p0_ball()
    rows = []
    for sign in config.get("signs", ("+", "-")):
        for xi in xi_values:
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
    from .lse import resonance_amplification_scan
    grid = VolumeGrid(unit_ball(), config.get("grid_n", 14))
    lam, coupling_weight, degeneracy = select_resonant_eigenvalue(grid)
    betas = list(config["betas"])
    theta = np.asarray(config.get("theta", (0.0, 0.0, 1.0)), dtype=float)
    p = np.asarray(config.get("p", (1.0, 0.0, 0.0)), dtype=float)
    scales_template = {"eta0": config["eta0"],
                       "lambda_b": config["lambda_b"]}
    rows, slope = resonance_amplification_scan(
        grid, lam, betas, {"theta": theta, "p": p}, scales_template)
    # back-scatter polarization angle at the strongest amplification; none
    # when every detuning failed
    peak = max((r for r in rows if r["status"] == "ok"),
               key=lambda r: r["field_norm"], default=None)
    angles = {}
    for r in rows:
        if r["status"] != "ok":
            continue
        bs = r.pop("back_scatter")
        mag = np.linalg.norm(bs)
        cosang = abs(np.vdot(bs, p.astype(complex))) / mag if mag > 0 else 0.0
        r["back_angle_deg"] = float(np.degrees(np.arccos(min(1.0, cosang))))
        angles[r["beta"]] = r["back_angle_deg"]
    # off-resonance reference row at a small, globally non-resonant coupling
    xi_off = config.get("xi_off", 2.0)
    beta_off = 4.0 * xi_off / np.pi ** 3 - 1.0 / (3.0 * lam - 1.0)
    off_rows, _ = resonance_amplification_scan(
        grid, lam, [beta_off], {"theta": theta, "p": p}, scales_template)
    for r in off_rows:
        r.pop("back_scatter", None)
        r["off_resonance"] = True
        rows.append(r)
    report = {"lambda_target": lam, "coupling_weight": coupling_weight,
              "degeneracy": degeneracy, "slope": slope,
              "peak_beta": None if peak is None else peak["beta"],
              "peak_back_angle_deg":
                  None if peak is None else angles[peak["beta"]]}
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
    """
    kappa_pitches = config.get("pitches", COUNTING_PITCHES)
    rows = []
    slopes = {}
    clusters = [generate_cluster(unit_box(), d) for d in kappa_pitches]
    for kappa in (1, 3, 4):
        sums = [max_counting_sum(cluster, kappa) for cluster in clusters]
        slopes["kappa_%d" % kappa] = _fit_slope(kappa_pitches, sums)
        rows.extend({"quantity": "counting_sum", "kappa": kappa, "d": d,
                     "value": v} for d, v in zip(kappa_pitches, sums))
    boundary_pitches = config.get("boundary_pitches", BOUNDARY_PITCHES)
    stats = []
    for d in boundary_pitches:
        cluster = generate_cluster(unit_box(), d)
        stats.append(boundary_counting_statistic(
            cluster, refine=config.get("refine", COUNTING_REFINE)))
    slopes["boundary"] = _fit_slope(boundary_pitches, stats)
    rows.extend({"quantity": "boundary_statistic", "kappa": 3, "d": d,
                 "value": v} for d, v in zip(boundary_pitches, stats))
    return rows, slopes
