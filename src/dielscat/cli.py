# Command-line entry point: JSON config parsing with named-key validation,
# subcommand dispatch, and deterministic report emission.

import argparse
import json
import os
import sys

import numpy as np

from .effective import coupling_xi, p0_ball, tensor_T
from .experiments import (run_convergence, run_counting, run_regime_map,
                          run_resonance)
from .foldylax import IncidentWave, assemble_and_solve, cluster_far_field
from .geometry import DomainShape, derive_scales, generate_cluster, unit_ball, \
    unit_box
from .lse import (VolumeGrid, effective_far_field, magnetization_spectrum,
                  solve_effective_lse, weighted_norm)
from .reporting import emit, emit_plot_data, far_field_rows
from .tensors import direction_grid

SUBCOMMANDS = ("foldylax", "lse", "effective", "converge", "resonance",
               "counting", "spectrum")

SCALE_KEYS = ("a", "h", "eta0", "c0", "sign", "c_r", "lambda_b")

# every key a config may carry, per subcommand; unknown keys are rejected
ALLOWED_KEYS = {
    "foldylax": set(SCALE_KEYS) | {"theta", "p", "domain", "ordering"},
    "lse": set(SCALE_KEYS) | {"theta", "p", "domain", "grid_n"},
    "effective": {"xi_values", "signs", "k", "delta", "diam_omega",
                  "vol_omega"},
    "converge": {"a_list", "h", "eta0", "c0", "sign", "c_r", "lambda_b",
                 "theta", "p", "grid_n", "double_directions"},
    "resonance": {"eta0", "lambda_b", "betas", "theta", "p", "grid_n",
                  "xi_off"},
    "counting": {"pitches", "boundary_pitches", "refine"},
    "spectrum": {"grid_n", "mode", "lmax", "count", "domain"},
}

REQUIRED_KEYS = {
    "foldylax": set(SCALE_KEYS) | {"theta", "p"},
    "lse": set(SCALE_KEYS) | {"theta", "p"},
    "effective": {"xi_values"},
    "converge": {"a_list", "h", "eta0", "c0", "sign", "c_r", "lambda_b"},
    "resonance": {"eta0", "lambda_b", "betas"},
    "counting": set(),
    "spectrum": set(),
}


class ConfigError(ValueError):
    """Configuration schema violation, naming the offending key."""


def parse_config(path, subcommand, overrides=()):
    """Load and validate the JSON config for one subcommand.

    Unknown keys are rejected; ScaleSet invariants and wave invariants are
    checked eagerly so bad parameters fail before any solve starts.
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
    validate_config(config, subcommand)
    return config


def validate_config(config, subcommand):
    allowed = ALLOWED_KEYS[subcommand]
    for key in config:
        if key not in allowed:
            raise ConfigError("unknown key %r for subcommand %r"
                              % (key, subcommand))
    for key in REQUIRED_KEYS[subcommand]:
        if key not in config:
            raise ConfigError("missing required key %r" % key)
    try:
        if subcommand in ("foldylax", "lse"):
            scales = derive_scales(*(config[k] for k in SCALE_KEYS))
            IncidentWave(scales.k, config["theta"], config["p"])
        elif subcommand == "converge":
            a_list = config["a_list"]
            if not a_list:
                raise ValueError("a_list must be nonempty")
            if any(x <= y for x, y in zip(a_list, a_list[1:])):
                raise ValueError("a_list must be strictly decreasing")
            for a in a_list:
                derive_scales(a, config["h"], config["eta0"], config["c0"],
                              config["sign"], config["c_r"],
                              config["lambda_b"])
        elif subcommand == "resonance":
            if not config["betas"]:
                raise ValueError("betas must be nonempty")
        elif subcommand == "effective":
            if not config["xi_values"]:
                raise ValueError("xi_values must be nonempty")
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc)) from exc
    return config


def _domain_from_config(config, default):
    if "domain" in config:
        return DomainShape.from_dict(config["domain"])
    return default


def _run_foldylax(config, out, fmt):
    scales = derive_scales(*(config[k] for k in SCALE_KEYS))
    domain = _domain_from_config(config, unit_box())
    cluster = generate_cluster(domain, scales.d)
    wave = IncidentWave(scales.k, config["theta"], config["p"])
    p0 = p0_ball()
    sol = assemble_and_solve(cluster, scales, p0, wave,
                             ordering=config.get("ordering", "p0-first"))
    far = cluster_far_field(sol, cluster, scales, direction_grid())
    meta = {"scales": scales.to_dict(), "count": cluster.count,
            "residual": sol.residual, "margin": sol.margin,
            "margin_warning": sol.margin_warning,
            "transversality_defect": far.max_transversality_defect()}
    rows = far_field_rows(far)
    emit(rows, fmt, os.path.join(out, "foldylax_results." + fmt), meta)
    emit_plot_data([{"label": "|E_inf| by direction index",
                     "x": list(range(len(rows))),
                     "y": np.linalg.norm(far.values, axis=1)}],
                   os.path.join(out, "foldylax_plotdata.json"))
    return 0 if sol.residual <= 1e-8 else 1


def _run_lse(config, out, fmt):
    scales = derive_scales(*(config[k] for k in SCALE_KEYS))
    domain = _domain_from_config(config, unit_box())
    grid = VolumeGrid(domain, config.get("grid_n", 20))
    wave = IncidentWave(scales.k, config["theta"], config["p"])
    xi = coupling_xi(scales.eta0, scales.k, scales.c0, scales.c_r)
    T = tensor_T(xi, p0_ball(), scales.sign)
    H, res = solve_effective_lse(grid, xi, T, scales.k, wave, scales.sign)
    far = effective_far_field(H, grid, xi, T, scales.k, scales.sign,
                              direction_grid())
    meta = {"scales": scales.to_dict(), "xi": xi, "grid_n": grid.n,
            "cells": grid.count, "residual": res,
            "field_norm": weighted_norm(H, grid),
            "transversality_defect": far.max_transversality_defect()}
    rows = far_field_rows(far)
    emit(rows, fmt, os.path.join(out, "lse_results." + fmt), meta)
    emit_plot_data([{"label": "|E_inf_eff| by direction index",
                     "x": list(range(len(rows))),
                     "y": np.linalg.norm(far.values, axis=1)}],
                   os.path.join(out, "lse_plotdata.json"))
    return 0 if res <= 1e-6 else 1


def _run_effective(config, out, fmt):
    rows = run_regime_map(config)
    emit(rows, fmt, os.path.join(out, "effective_results." + fmt),
         {"xi_count": len(config["xi_values"])})
    series = []
    for sign in config.get("signs", ("+", "-")):
        sel = [r for r in rows if r["sign"] == sign
               and np.isfinite(r["mu_diag"])]
        series.append({"label": "mu_eff diagonal, sign %s" % sign,
                       "x": [r["xi"] for r in sel],
                       "y": [r["mu_diag"] for r in sel]})
    emit_plot_data(series, os.path.join(out, "effective_plotdata.json"))
    return 0


def _run_converge(config, out, fmt):
    rows, slope, timings = run_convergence(config)
    meta = {"fitted_slope": slope,
            "scales_smallest_a": derive_scales(
                config["a_list"][-1], config["h"], config["eta0"],
                config["c0"], config["sign"], config["c_r"],
                config["lambda_b"]).to_dict()}
    emit(rows, fmt, os.path.join(out, "converge_results." + fmt), meta)
    emit(timings, fmt, os.path.join(out, "converge_timings." + fmt))
    good = [r for r in rows if r.get("status") == "ok"]
    emit_plot_data([{"label": "sup far-field error vs a",
                     "x": [r["a"] for r in good],
                     "y": [r["sup_error"] for r in good]}],
                   os.path.join(out, "converge_plotdata.json"))
    return 0 if all(r.get("status") in ("ok", "degenerate-zero-field")
                    for r in rows) else 1


def _run_resonance(config, out, fmt):
    rows, report = run_resonance(config)
    emit(rows, fmt, os.path.join(out, "resonance_results." + fmt), report)
    good = [r for r in rows if r["status"] == "ok"
            and not r.get("off_resonance")]
    emit_plot_data([{"label": "field norm vs |beta|",
                     "x": [abs(r["beta"]) for r in good],
                     "y": [r["field_norm"] for r in good]}],
                   os.path.join(out, "resonance_plotdata.json"))
    return 0 if all(r["status"] == "ok" for r in rows) else 1


def _run_counting(config, out, fmt):
    rows, slopes = run_counting(config)
    emit(rows, fmt, os.path.join(out, "counting_results." + fmt), slopes)
    series = []
    for kappa in (1, 3, 4):
        sel = [r for r in rows if r["quantity"] == "counting_sum"
               and r["kappa"] == kappa]
        series.append({"label": "counting sum, kappa=%d" % kappa,
                       "x": [r["d"] for r in sel],
                       "y": [r["value"] for r in sel]})
    sel = [r for r in rows if r["quantity"] == "boundary_statistic"]
    series.append({"label": "boundary statistic",
                   "x": [r["d"] for r in sel],
                   "y": [r["value"] for r in sel]})
    emit_plot_data(series, os.path.join(out, "counting_plotdata.json"))
    return 0


def _run_spectrum(config, out, fmt):
    domain = _domain_from_config(config, unit_ball())
    grid = VolumeGrid(domain, config.get("grid_n", 20))
    report = magnetization_spectrum(grid, count=config.get("count"),
                                    mode=config.get("mode", "gradient"),
                                    lmax=config.get("lmax", 10))
    rows = [{"index": i, "eigenvalue": float(v)}
            for i, v in enumerate(report.eigenvalues)]
    meta = {"resolution": report.resolution, "mode": report.mode,
            "raw_count": report.raw_count,
            "nearest_to_third": report.nearest(1.0 / 3.0)}
    emit(rows, fmt, os.path.join(out, "spectrum_results." + fmt), meta)
    emit_plot_data([{"label": "magnetization spectrum",
                     "x": [r["index"] for r in rows],
                     "y": [r["eigenvalue"] for r in rows]}],
                   os.path.join(out, "spectrum_plotdata.json"))
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
    for name in SUBCOMMANDS:
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
