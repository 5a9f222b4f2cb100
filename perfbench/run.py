#!/usr/bin/env python3
"""dielscat benchmark: each workload is one CLI study in a fresh process.

    python3 perfbench/run.py --workload converge-box --seed 1 --seconds 30 \
        --trace 0

--trace 0 runs the study untraced and prints the end-to-end metrics;
--trace 1 alternates untraced and traced studies and prints the per-layer
metrics.  --workload all runs every workload in turn.  The last line of
standard output is the JSON result.  Run it from the repository root; see
perfbench/README.md for the workloads, the checks and the metric map.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

# the seed is folded onto this many input sets, each with a recorded
# reference result table (perfbench/record.py writes them)
INPUT_SETS = 16
REFERENCE_DIR = os.path.join(HERE, "reference")
WORK_DIR = os.path.join(ROOT, ".perfbench")

# the CLI's own acceptance thresholds, and the far-field check of criterion 05
RESIDUAL_LIMITS = {"fl_residual": 1e-8, "lse_residual": 1e-6,
                   "residual": 1e-6}
TRANSVERSALITY_MAX = 1e-12
# result values against the reference: relative to the value or to the
# largest magnitude of the same key in the table; residuals are checked
# against their limits instead, and angles near 0 degrees, where arccos
# loses half the digits, absolutely
RTOL = 1e-6
ANGLE_ATOL_DEG = 1e-3
# set-up-only processes started before each study process
SETUP_CHILDREN = 1
# every process must end within the benchmark's 180 s limit
RUN_DEADLINE_S = 170.0
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))


def _direction(rng):
    """Uniform incident direction theta and polarization p _|_ theta."""
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    s = math.sqrt(1.0 - z * z)
    theta = [s * math.cos(phi), s * math.sin(phi), z]
    axis = [0.0, 0.0, 0.0]
    axis[min(range(3), key=lambda i: abs(theta[i]))] = 1.0
    e1 = _unit(_cross(theta, axis))
    e2 = _cross(theta, e1)
    psi = rng.uniform(0.0, 2.0 * math.pi)
    p = _unit([math.cos(psi) * a + math.sin(psi) * b for a, b in zip(e1, e2)])
    return theta, p


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]


def _unit(v):
    n = math.sqrt(sum(x * x for x in v))
    return [x / n for x in v]


def _converge_box(rng):
    theta, p = _direction(rng)
    return {"a_list": [0.02, 0.012], "h": 0.9, "eta0": 1.0, "c0": 1.0,
            "sign": "+", "c_r": 2.0, "lambda_b": 0.4, "grid_n": 12,
            "theta": theta, "p": p}


def _resonance_ball(rng):
    theta, p = _direction(rng)
    return {"eta0": 1e9, "lambda_b": 0.4,
            "betas": [1e-3, -1e-3, 1e-2, -1e-2], "grid_n": 10,
            "theta": theta, "p": p}


def _counting_box(rng):
    # with refine=4 the complement is round(4u) quadrature points thick, so
    # u in [0.4, 0.6] keeps the statistic's work the same for every seed
    u = rng.uniform(0.4, 0.6)
    return {"boundary_pitches": [1.0 / (j + u) for j in range(6, 15)]}


# workload -> (CLI subcommand, input generator)
WORKLOADS = {
    "converge-box": ("converge", _converge_box),
    "resonance-ball": ("resonance", _resonance_ball),
    "counting-box": ("counting", _counting_box),
}


def make_inputs(workload, seed):
    """(input set index, CLI config) for a seed; equal seeds, equal inputs."""
    index = seed % INPUT_SETS
    rng = random.Random("%s/%d" % (workload, index))
    return index, WORKLOADS[workload][1](rng)


def path_checks(workload, counts, config):
    """Whether the study still takes the path it was chosen for.

    A failed check is reported, not counted as a failed operation: a later
    change may move a workload off its path on purpose.
    """
    if workload == "converge-box":
        return [("Foldy-Lax dense solves >= 1",
                 counts["foldylax.dense_solves"] >= 1),
                ("Foldy-Lax GMRES solves >= 1",
                 counts["foldylax.gmres_solves"] >= 1),
                ("LSE kernel builds == 2", counts["lse.kernel_builds"] == 2)]
    if workload == "resonance-ball":
        detunings = len(config["betas"]) + 1    # plus the off-resonance row
        return [("eigh calls == 1", counts["lse.eigh_calls"] == 1),
                ("LU factorizations == %d" % detunings,
                 counts["lse.lu_factors"] == detunings)]
    solver = sum(v for k, v in counts.items()
                 if k.split(".")[0] in ("foldylax", "lse", "tensors"))
    return [("no solver spans", solver == 0)]


def run_child(mode, subcommand, config_path, out_dir, report_path, deadline):
    """Run one study process; returns its report, or (None, error text)."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--mode", mode,
           "--report", report_path, "--", subcommand, "--config", config_path,
           "--out", out_dir, "--format", "json"]
    env["PERFBENCH_SPAWN_T"] = repr(time.monotonic())
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if proc.returncode != 0 or not os.path.exists(report_path):
        return None, "exit %d: %s" % (proc.returncode,
                                      proc.stderr.strip()[-400:])
    with open(report_path) as fh:
        report = json.load(fh)
    if report["rc"] != 0:
        return report, "CLI exit code %d: %s" % (report["rc"],
                                                 proc.stderr.strip()[-400:])
    return report, None


def read_tables(out_dir):
    """Output files whose bytes must repeat: all but the wall-time table."""
    tables = {}
    for name in sorted(os.listdir(out_dir)):
        if not name.endswith("_timings.json"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                tables[name] = fh.read()
    return tables


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def key_scales(node, key="", acc=None):
    """Largest magnitude of each key's numbers anywhere in a document."""
    acc = {} if acc is None else acc
    if isinstance(node, dict):
        for k, v in node.items():
            key_scales(v, k, acc)
    elif isinstance(node, list):
        for v in node:
            key_scales(v, key, acc)
    elif _is_number(node):
        acc[key] = max(acc.get(key, 0.0), abs(node))
    return acc


def compare(doc, ref, scale, where="", key=""):
    """Differences of a result document from its reference, as messages."""
    if isinstance(ref, dict):
        if not isinstance(doc, dict) or set(doc) != set(ref):
            return ["%s: keys differ" % where]
        return [m for k in ref if k not in RESIDUAL_LIMITS
                for m in compare(doc[k], ref[k], scale, where + "/" + k, k)]
    if isinstance(ref, list):
        if not isinstance(doc, list) or len(doc) != len(ref):
            return ["%s: lengths differ" % where]
        return [m for i, (d, r) in enumerate(zip(doc, ref))
                for m in compare(d, r, scale, "%s[%d]" % (where, i), key)]
    if _is_number(ref) and _is_number(doc) and float in (type(ref), type(doc)):
        if key.endswith("_deg"):
            ok = abs(doc - ref) <= ANGLE_ATOL_DEG
        else:
            ok = abs(doc - ref) <= RTOL * max(abs(ref), scale[key])
    else:
        ok = doc == ref
    return [] if ok else ["%s: %r, reference %r" % (where, doc, ref)]


def check_rows(rows):
    """Failed rows: status not ok, a residual over its limit, a non-finite."""
    failed = []
    for i, row in enumerate(rows):
        bad = [k for k, v in row.items() if isinstance(v, float)
               and not math.isfinite(v)]
        bad += [k for k, lim in RESIDUAL_LIMITS.items()
                if k in row and not row[k] <= lim]
        if row.get("status", "ok") != "ok":
            bad.append("status=%s" % row["status"])
        if bad:
            failed.append("row %d: %s" % (i, ", ".join(bad)))
    return failed


def check_study(report, tables, first, reference, subcommand):
    """Output check of one study process: (failed rows, check messages)."""
    doc = json.loads(tables["%s_results.json" % subcommand])
    rows_failed = check_rows(doc["rows"])
    problems = []
    if os.path.dirname(os.path.dirname(report["dielscat"])) != \
            os.path.join(ROOT, "src"):
        problems.append("dielscat imported from %s" % report["dielscat"])
    if reference is None:
        problems.append("no reference table for this input set")
    else:
        problems += compare(doc, reference, key_scales(reference))[:5]
    for s in report["spans"]:
        if s[0].endswith(".far_field") and not s[4] <= TRANSVERSALITY_MAX:
            problems.append("%s transversality %.3g" % (s[0], s[4]))
    if first is not None:
        if tables != first["tables"]:
            problems.append("result tables differ from the run's first study")
        if stats.exact_counts(report["spans"]) != first["counts"]:
            problems.append("exact counts differ from the run's first study")
    return rows_failed, problems


def fingerprint():
    """Host and library versions; the BLAS fields come from a child."""
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": len(os.sched_getaffinity(0)),
            "mem_mb": mem // 2 ** 20, "blas_threads_env": BLAS_THREADS}


def run_workload(workload, seed, seconds, trace):
    """Run one workload for `seconds`; returns (result dict, printed lines)."""
    subcommand = WORKLOADS[workload][0]
    index, config = make_inputs(workload, seed)
    ref_path = os.path.join(REFERENCE_DIR, workload + ".json")
    reference = None
    if os.path.exists(ref_path):
        with open(ref_path) as fh:
            reference = json.load(fh).get(str(index))
    wdir = os.path.join(WORK_DIR, workload)
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    config_path = os.path.join(wdir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)

    lines = ["workload %s: seed %d -> input set %d of %d, %s"
             % (workload, seed, index, INPUT_SETS, json.dumps(config))]
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    setup_s, studies, attempted, failed = [], [], 0, 0
    first = None
    k = rounds = 0
    last = 0.0
    # end with the number of rounds whose total time is nearest `seconds`
    while rounds < (2 if trace else 1) \
            or time.monotonic() - start + last / 2 < seconds:
        mode = "trace" if trace and rounds % 2 else "count"
        rounds += 1
        round_start = time.monotonic()
        for m in ["setup"] * SETUP_CHILDREN + [mode]:
            k += 1
            out_dir = os.path.join(wdir, "out%d" % k)
            report, err = run_child(m, subcommand, config_path, out_dir,
                                    os.path.join(wdir, "report%d.json" % k),
                                    deadline)
            attempted += 1
            if err:
                failed += 1
                lines.append("FAIL %s process %d: %s" % (m, k, err))
                continue
            if m == "setup":
                setup_s.append(report["setup_s"])
                continue
            tables = read_tables(out_dir)
            rows_failed, problems = check_study(report, tables, first,
                                                reference, subcommand)
            attempted += len(json.loads(
                tables["%s_results.json" % subcommand])["rows"])
            failed += len(rows_failed) + bool(problems)
            for msg in rows_failed + problems:
                lines.append("FAIL %s process %d: %s" % (m, k, msg))
            if first is None:
                first = {"tables": tables,
                         "counts": stats.exact_counts(report["spans"])}
                lines += ["missing probe target %s" % t
                          for t in report["missing"]]
                host = dict(fingerprint(), **report["host"])
                lines.append("host " + json.dumps(host, sort_keys=True))
            if not rows_failed and not problems:
                setup_s.append(report["setup_s"])
                studies.append((m, report))
        last = time.monotonic() - round_start
        if time.monotonic() + last > deadline:
            break
    result = {"attempted": attempted, "failed": failed,
              "correct": failed == 0 and bool(studies)}
    if first is not None:
        counts = first["counts"]
        lines.append("exact counts " + json.dumps(counts, sort_keys=True))
        for what, ok in path_checks(workload, counts, config):
            lines.append("path %s: %s" % ("ok" if ok else "CHANGED", what))
    lines.append("failed_frac  %.4f fraction, %d of %d operations failed"
                 % (failed / attempted, failed, attempted))
    untraced = [r for m, r in studies if m == "count"]
    traced = [r for m, r in studies if m == "trace"]
    if not trace:
        samples = {
            "wall_s": ("s", [r["wall_s"] for r in untraced]),
            "peak_rss_mb": ("MB", [r["maxrss_kb"] / 1024.0
                                   for r in untraced]),
            "setup_s": ("s", setup_s),
        }
        metrics = {}
        for name, (unit, values) in samples.items():
            if not values:
                continue
            s = stats.summary(values)
            tail = ("p%.1f %.6g" % s["tail"] if s["tail"]
                    else "no tail percentile (needs > 10)")
            lines.append("%-12s median %.6g %s, %s, samples %d"
                         % (name, s["median"], unit, tail, s["n"]))
            metrics[name] = {"value": s["median"], "unit": unit}
    else:
        metrics = {}
        if traced and untraced:
            per = [stats.layer_metrics(r["spans"], r["wall_s"])
                   for r in traced]
            for name in per[0]:
                metrics[name] = {"value": statistics.median(
                    p[name] for p in per), "unit": stats.unit_of(name)}
            traced_wall = statistics.median(r["wall_s"] for r in traced)
            metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
            metrics["trace.overhead_s"] = {
                "value": traced_wall - statistics.median(
                    r["wall_s"] for r in untraced), "unit": "s"}
            for name, m in metrics.items():
                lines.append("%-28s %.6g %s" % (name, m["value"], m["unit"]))
            lines.append("traced studies %d, untraced studies %d"
                         % (len(traced), len(untraced)))
        else:
            result["correct"] = False
    result["metrics"] = metrics
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "dielscat", "cli.py")):
        print("perfbench: no dielscat sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace))
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s.%s" % (n, k): v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps({k: final[k] for k in ("correct", "attempted", "failed",
                                            "metrics")}))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
