# Command-line entry point: JSON config parsing with named-key validation,
# subcommand dispatch, and deterministic report emission.

import argparse
import json
import os
import sys

import numpy as np

from .effective import coupling_xi, p0_ball, tensor_T
from .experiments import (BOUNDARY_PITCHES, COUNTING_PITCHES,
                          COUNTING_REFINE, run_convergence, run_counting,
                          run_regime_map, run_resonance)
from .foldylax import IncidentWave, assemble_and_solve, cluster_far_field
from .geometry import DomainShape, boundary_grid_counts, derive_scales, \
    generate_cluster, unit_ball, unit_box
from .lse import (VolumeGrid, effective_far_field, magnetization_spectrum,
                  solve_effective_lse, weighted_norm)
from .reporting import emit, emit_plot_data, far_field_rows
from .tensors import direction_grid

SUBCOMMANDS = ("foldylax", "lse", "effective", "converge", "resonance",
               "counting", "spectrum")

SCALE_KEYS = ("a", "h", "eta0", "c0", "sign", "c_r", "lambda_b")

# every key a config may carry, per subcommand; unknown keys are rejected
ALLOWED_KEYS = {
    "foldylax": set(SCALE_KEYS) | {"theta", "p", "domain"},
    "lse": set(SCALE_KEYS) | {"theta", "p", "domain", "grid_n"},
    "effective": {"xi_values", "signs", "k", "delta", "diam_omega",
                  "vol_omega"},
    "converge": {"a_list", "h", "eta0", "c0", "sign", "c_r", "lambda_b",
                 "theta", "p", "grid_n"},
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
        _validate_domain(config)
        if subcommand in ("lse", "converge", "resonance"):
            _require_int("grid_n", config.get("grid_n", 2), 2)
        if subcommand in ("foldylax", "lse", "converge", "resonance"):
            _validate_wave(config)
        if subcommand in ("foldylax", "lse"):
            derive_scales(*(config[k] for k in SCALE_KEYS))
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
            _validate_betas(config["betas"])
        elif subcommand == "effective":
            if not config["xi_values"]:
                raise ValueError("xi_values must be nonempty")
        elif subcommand == "counting":
            _validate_counting(config)
        elif subcommand == "spectrum":
            _validate_spectrum(config)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc)) from exc
    return config


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _require_int(key, value, least):
    """A JSON integer >= least; a float such as 2.0 is refused, and so are
    true and false, which Python reads as the integers 1 and 0."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError("%s must be an integer >= %d, not %r"
                         % (key, least, value))


def _require_three_numbers(key, value, positive=False):
    """A list of three finite JSON numbers, each > 0 if positive."""
    if not (isinstance(value, list) and len(value) == 3 and
            all(_is_number(x) and np.isfinite(x) and (x > 0 or not positive)
                for x in value)):
        raise ValueError("%s must be a list of three finite %snumbers, not %r"
                         % (key, "positive " if positive else "", value))


def _validate_wave(config):
    """theta and p by IncidentWave's rules, against the studies' defaults."""
    for key in ("theta", "p"):
        if key in config:
            _require_three_numbers(key, config[key])
    IncidentWave(1.0, config.get("theta", (0.0, 0.0, 1.0)),
                 config.get("p", (1.0, 0.0, 0.0)))


def _validate_domain(config):
    """DomainShape.from_dict's input: {"kind": "box", "extents": three
    positive numbers} or {"kind": "ball", "radius": a positive number},
    each with an optional "center" of three numbers."""
    if "domain" not in config:
        return
    doc = config["domain"]
    if not isinstance(doc, dict):
        raise ValueError("domain must be an object, not %r" % (doc,))
    kind = doc.get("kind")
    size = {"box": "extents", "ball": "radius"}.get(kind) \
        if isinstance(kind, str) else None
    if size is None:
        raise ValueError("domain.kind must be \"box\" or \"ball\", not %r"
                         % (kind,))
    for key in doc:
        if key not in ("kind", size, "center"):
            raise ValueError("unknown key %r in a %s domain" % (key, kind))
    if size not in doc:
        raise ValueError("a %s domain needs domain.%s" % (kind, size))
    if size == "extents":
        _require_three_numbers("domain.extents", doc[size], positive=True)
    elif not (_is_number(doc[size]) and 0 < doc[size] < np.inf):
        raise ValueError("domain.radius must be a finite positive number, "
                         "not %r" % (doc[size],))
    if "center" in doc:
        _require_three_numbers("domain.center", doc["center"])


def _require_two_distinct(key, abscissae):
    """A log-log slope fit through one abscissa is meaningless."""
    if len(set(abscissae)) < 2:
        raise ValueError("%s: the slope fit needs at least two distinct "
                         "values, got %r" % (key, sorted(set(abscissae))))


def _pitch_list(config, key, default):
    pitches = config.get(key, default)
    if not isinstance(pitches, list) or not pitches:
        raise ValueError("%s must be a nonempty list of pitches" % key)
    for d in pitches:
        if not _is_number(d) or not 0.0 < d <= 1.0:
            raise ValueError("%s: pitch %r is not in (0, 1]" % (key, d))
    _require_two_distinct(key, pitches)
    return pitches


def _validate_betas(betas):
    """Nonzero finite detunings with at least two distinct |beta|.

    beta = 0 is the exact dispersion root: there the k=0 LSE operator that
    preconditions the scan is singular.
    """
    if not isinstance(betas, list) or not betas:
        raise ValueError("betas must be a nonempty list of detunings")
    for b in betas:
        if not _is_number(b) or not -np.inf < b < np.inf:
            raise ValueError("betas: detuning %r is not a finite number"
                             % (b,))
        if b == 0:
            raise ValueError("betas: beta = 0 is the exact dispersion root, "
                             "where the resonance solve is singular")
    _require_two_distinct("betas", [abs(b) for b in betas])


def _validate_counting(config):
    """Every pitch must give a positive value, whose log the fit takes."""
    refine = config.get("refine", COUNTING_REFINE)
    _require_int("refine", refine, 1)
    for d in _pitch_list(config, "pitches", COUNTING_PITCHES):
        if np.floor(1.0 / d + 1e-12) < 2:
            raise ValueError("pitches: pitch %r fits one particle in the "
                             "unit box, whose counting sum is zero" % d)
    for d in _pitch_list(config, "boundary_pitches", BOUNDARY_PITCHES):
        _, n, c = boundary_grid_counts(unit_box(), d, refine)
        if np.array_equal(n, c):
            raise ValueError(
                "boundary_pitches: pitch %r leaves no quadrature point of "
                "refine=%d outside the particle cubes of the unit box (1/d "
                "is an integer or too close to one)" % (d, refine))


def _validate_spectrum(config):
    """magnetization_spectrum's arguments: the diagnostics need n >= 12, and
    a count below 1 would slice eigenvalues off the end of the list."""
    _require_int("grid_n", config.get("grid_n", 12), 12)
    _require_int("lmax", config.get("lmax", 1), 1)
    if "count" in config:
        _require_int("count", config["count"], 1)
    if config.get("mode", "gradient") not in ("gradient", "full"):
        raise ValueError("mode must be \"gradient\" or \"full\", not %r"
                         % (config["mode"],))


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
    sol = assemble_and_solve(cluster, scales, p0, wave)
    far = cluster_far_field(sol, cluster, scales, direction_grid())
    meta = {"scales": scales.to_dict(), "count": cluster.count,
            "residual": sol.residual, "margin": sol.margin,
            "margin_warning": sol.margin_warning,
            "path": sol.path, "matvecs": sol.matvecs,
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
