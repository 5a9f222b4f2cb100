# Command-line entry point: JSON config parsing, validated against the
# studies' config table, subcommand dispatch, and deterministic report
# emission.

import argparse
import json
import os
import sys

import numpy as np

from .config import SCHEMA, ConfigError, scales, validate_config
from .effective import coupling_xi, effective_mu, p0_ball
from .experiments import (run_convergence, run_counting, run_regime_map,
                          run_resonance)
from .foldylax import IncidentWave, assemble_and_solve, cluster_far_field
from .geometry import DomainShape, generate_cluster
from .lse import (VolumeGrid, effective_far_field, magnetization_spectrum,
                  solve_effective_lse, weighted_norm)
from .reporting import emit, emit_plot_data, far_field_rows
from .tensors import direction_grid


def parse_config(path, subcommand, overrides=()):
    """Load and validate the JSON config for one subcommand.

    Returns it with its defaults filled in.  Unknown keys are rejected and
    every key is checked, with the ScaleSet and wave invariants, so bad
    parameters fail before any solve starts.
    """
    with open(path) as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("%s: invalid JSON: %s" % (path, exc)) from exc
    if not isinstance(config, dict):
        raise ConfigError("%s: config must be a JSON object" % path)
    for item in overrides:
        key, _, raw = item.partition("=")
        if not _:
            raise ConfigError("override %r is not of the form key=value"
                              % item)
        try:
            config[key] = json.loads(raw)
        except json.JSONDecodeError:
            config[key] = raw
    return validate_config(config, subcommand)


def _report(out, fmt, subcommand, rows, meta, *series):
    """Write <subcommand>_results.<fmt> and the (label, x, y) series to
    <subcommand>_plotdata.json."""
    emit(rows, fmt, os.path.join(out, "%s_results.%s" % (subcommand, fmt)),
         meta)
    emit_plot_data(series, os.path.join(out, subcommand + "_plotdata.json"))


def _run_foldylax(config, out, fmt):
    sc = scales(config)
    cluster = generate_cluster(DomainShape.from_dict(config["domain"]), sc.d)
    wave = IncidentWave(sc.k, config["theta"], config["p"])
    sol = assemble_and_solve(cluster, sc, p0_ball(), wave)
    far = cluster_far_field(sol, cluster, sc, direction_grid())
    meta = {"scales": sc.to_dict(), "count": cluster.count,
            "residual": sol.residual, "margin": sol.margin,
            "margin_warning": sol.margin_warning,
            "path": sol.path, "matvecs": sol.matvecs,
            "transversality_defect": far.max_transversality_defect()}
    norms = np.linalg.norm(far.values, axis=1)
    _report(out, fmt, "foldylax", far_field_rows(far), meta,
            ("|E_inf| by direction index", range(len(norms)), norms))
    return 0 if sol.residual <= 1e-8 else 1


def _run_lse(config, out, fmt):
    sc = scales(config)
    grid = VolumeGrid(DomainShape.from_dict(config["domain"]),
                      config["grid_n"])
    wave = IncidentWave(sc.k, config["theta"], config["p"])
    xi = coupling_xi(sc.eta0, sc.k, sc.c0, sc.c_r)
    mu = effective_mu(xi, p0_ball(), sc.sign)
    H, res, path, matvecs = solve_effective_lse(grid, mu, wave)
    far = effective_far_field(H, grid, mu, sc.k, direction_grid())
    meta = {"scales": sc.to_dict(), "xi": xi, "grid_n": grid.n,
            "cells": grid.count, "residual": res, "path": path,
            "matvecs": matvecs,
            "field_norm": weighted_norm(H, grid),
            "transversality_defect": far.max_transversality_defect()}
    norms = np.linalg.norm(far.values, axis=1)
    _report(out, fmt, "lse", far_field_rows(far), meta,
            ("|E_inf_eff| by direction index", range(len(norms)), norms))
    return 0 if res <= 1e-6 else 1


def _run_effective(config, out, fmt):
    rows = run_regime_map(config)
    finite = [r for r in rows if np.isfinite(r["mu_diag"])]
    _report(out, fmt, "effective", rows,
            {"xi_count": len(config["xi_values"])},
            *(("mu_eff diagonal, sign %s" % sign,
               [r["xi"] for r in finite if r["sign"] == sign],
               [r["mu_diag"] for r in finite if r["sign"] == sign])
              for sign in config["signs"]))
    return 0


def _run_converge(config, out, fmt):
    rows, slope, timings = run_convergence(config)
    meta = {"fitted_slope": slope,
            "scales_smallest_a": scales(config,
                                        config["a_list"][-1]).to_dict()}
    good = [r for r in rows if r["status"] == "ok"]
    _report(out, fmt, "converge", rows, meta,
            ("sup far-field error vs a", [r["a"] for r in good],
             [r["sup_error"] for r in good]))
    emit(timings, fmt, os.path.join(out, "converge_timings." + fmt))
    return 0 if all(r["status"] in ("ok", "degenerate-zero-field")
                    for r in rows) else 1


def _run_resonance(config, out, fmt):
    rows, report = run_resonance(config)
    good = [r for r in rows if r["status"] == "ok"
            and "off_resonance" not in r]
    _report(out, fmt, "resonance", rows, report,
            ("field norm vs |beta|", [abs(r["beta"]) for r in good],
             [r["field_norm"] for r in good]))
    return 0 if all(r["status"] == "ok" for r in rows) else 1


def _run_counting(config, out, fmt):
    rows, slopes = run_counting(config)
    labels = {("counting_sum", kappa): "counting sum, kappa=%d" % kappa
              for kappa in (1, 3, 4)}
    labels["boundary_statistic", 3] = "boundary statistic"
    sel = {key: [r for r in rows if (r["quantity"], r["kappa"]) == key]
           for key in labels}
    _report(out, fmt, "counting", rows, slopes,
            *((label, [r["d"] for r in sel[key]],
               [r["value"] for r in sel[key]])
              for key, label in labels.items()))
    return 0


def _run_spectrum(config, out, fmt):
    grid = VolumeGrid(DomainShape.from_dict(config["domain"]),
                      config["grid_n"])
    report = magnetization_spectrum(grid, count=config["count"],
                                    mode=config["mode"], lmax=config["lmax"])
    meta = {"resolution": report.resolution, "mode": report.mode,
            "raw_count": report.raw_count,
            "nearest_to_third": report.nearest(1.0 / 3.0)}
    _report(out, fmt, "spectrum",
            [{"index": i, "eigenvalue": float(v)}
             for i, v in enumerate(report.eigenvalues)], meta,
            ("magnetization spectrum", range(len(report.eigenvalues)),
             report.eigenvalues))
    return 0


RUNNERS = {"foldylax": _run_foldylax, "lse": _run_lse,
           "effective": _run_effective, "converge": _run_converge,
           "resonance": _run_resonance, "counting": _run_counting,
           "spectrum": _run_spectrum}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dielscat",
        description="Scattering studies for dense periodic clusters of "
                    "high-index dielectric particles.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SCHEMA:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True,
                        help="path to the JSON study configuration")
        sp.add_argument("--out", required=True,
                        help="output directory for reports")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", dest="overrides",
                        help="override one config key (repeatable)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config, args.subcommand, args.overrides)
    except (ConfigError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    try:
        return RUNNERS[args.subcommand](config, args.out, args.format)
    except (ValueError, RuntimeError, ZeroDivisionError) as exc:
        print("run failed: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
