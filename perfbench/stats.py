# Arithmetic on samples and spans: medians, the tail percentile, self times
# and the per-layer metrics of one traced study.
#
# A span is [name, parent index or -1, start, end, extra] as recorded by
# probes.Probe; names are "<layer>.<call>".

import statistics

LAYERS = ("cli", "experiments", "foldylax", "lse", "tensors", "geometry",
          "reporting")

# layers below the study orchestration: their self time is the traced share
# of wall time
WORK_LAYERS = ("foldylax", "lse", "tensors", "geometry", "reporting")


def tail_percentile(values, beyond=10):
    """Highest percentile that has at least `beyond` samples above it.

    Returns (percentile, value) for the order statistic with exactly
    `beyond` samples above it, or None when there are too few samples.
    """
    n = len(values)
    if n <= beyond:
        return None
    rank = n - beyond          # 1-based rank of the reported sample
    return 100.0 * rank / n, sorted(values)[rank - 1]


def summary(values):
    """Median, tail percentile and sample count of one metric."""
    return {"median": statistics.median(values),
            "tail": tail_percentile(values), "n": len(values)}


def durations(spans):
    return [s[3] - s[2] for s in spans]


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    Calls run on one thread, so children never overlap and their total is
    the part of the parent's interval they cover.
    """
    own = durations(spans)
    for s, d in zip(spans, durations(spans)):
        if s[1] >= 0:
            own[s[1]] -= d
    return own


def _children_named(spans, name):
    """Indices of spans that have a direct child called name."""
    return {s[1] for s in spans if s[0] == name}


def exact_counts(spans):
    """Counts that repeat exactly for one input, timed or not.

    tensors.kernel_pairs, lse.kernel_bytes and geometry.boundary_pairs are
    computed from the call arguments, not measured.
    """
    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def extras(name):
        return [s[4] for s in spans if s[0] == name]

    fl_gmres = _children_named(spans, "foldylax.gmres")
    lse_lu = _children_named(spans, "lse.lu_factor")
    lse_gmres = _children_named(spans, "lse.gmres")
    solves = [i for i, s in enumerate(spans) if s[0] == "foldylax.solve"]
    lse_solves = [i for i, s in enumerate(spans) if s[0] == "lse.solve"]
    gmres_ids = {i for i, s in enumerate(spans) if s[0] == "foldylax.gmres"}
    return {
        "foldylax.matvecs": sum(1 for s in spans if s[0] == "foldylax.offdiag"
                                and s[1] in gmres_ids),
        "foldylax.dense_solves": sum(1 for i in solves if i not in fl_gmres),
        "foldylax.gmres_solves": sum(1 for i in solves if i in fl_gmres),
        "tensors.dyadic_sum_calls": calls("tensors.dyadic_sum"),
        "tensors.kernel_pairs": sum(extras("tensors.dyadic_sum")
                                    + extras("tensors.kernel_scalars")),
        "lse.kernel_builds": calls("lse.kernel_build"),
        "lse.kernel_bytes": max(extras("lse.kernel_build"), default=0),
        "lse.kernel_applies": calls("lse.kernel_apply"),
        "lse.lu_factors": calls("lse.lu_factor"),
        "lse.dense_solves": sum(1 for i in lse_solves if i in lse_lu),
        "lse.gmres_solves": sum(1 for i in lse_solves if i in lse_gmres),
        "lse.eigh_calls": calls("lse.eigh"),
        "lse.eigh_order": max(extras("lse.eigh"), default=0),
        "geometry.boundary_pairs": sum(extras("geometry.boundary")),
    }


# per-layer time metric -> the span names whose durations it sums
TIMES = {
    "foldylax.solve_s": ("foldylax.solve",),
    "foldylax.gmres_s": ("foldylax.gmres",),
    "foldylax.far_field_s": ("foldylax.far_field",),
    "tensors.dyadic_sum_s": ("tensors.dyadic_sum",),
    "tensors.kernel_scalars_s": ("tensors.kernel_scalars",),
    "lse.solve_s": ("lse.solve",),
    "lse.kernel_build_s": ("lse.kernel_build",),
    "lse.kernel_apply_s": ("lse.kernel_apply",),
    "lse.dense_blocks_s": ("lse.dense_blocks",),
    "lse.lu_s": ("lse.lu_factor", "lse.lu_solve"),
    "lse.gmres_s": ("lse.gmres",),
    "lse.magnetization_matrix_s": ("lse.magnetization_matrix",),
    "lse.eigh_s": ("lse.eigh",),
    "lse.select_eig_s": ("lse.select_eig",),
    "lse.far_field_s": ("lse.far_field",),
    "geometry.boundary_s": ("geometry.boundary",),
    "geometry.counting_sum_s": ("geometry.counting_sum",),
    "geometry.cluster_s": ("geometry.cluster",),
    "reporting.emit_s": ("reporting.emit", "reporting.plot"),
    "cli.parse_config_s": ("cli.parse_config",),
}


def unit_of(metric):
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes") or metric.endswith("bytes_written"):
        return "bytes"
    if metric.endswith("_share"):
        return "fraction"
    return "count"


def layer_metrics(spans, wall_s):
    """Per-layer times, self times and exact counts of one traced study."""
    dur = durations(spans)
    own = self_times(spans)
    out = {}
    for metric, names in TIMES.items():
        out[metric] = sum((d for s, d in zip(spans, dur) if s[0] in names),
                          0.0)
    fl_gmres = _children_named(spans, "foldylax.gmres")
    out["foldylax.dense_s"] = sum(
        (d for i, (s, d) in enumerate(zip(spans, dur))
         if s[0] == "foldylax.solve" and i not in fl_gmres), 0.0)
    for layer in LAYERS:
        out[layer + ".self_s"] = sum(
            (t for s, t in zip(spans, own) if s[0].split(".")[0] == layer),
            0.0)
    counts = exact_counts(spans)
    out.update(counts)
    # not an exact count: the wall-time table's length varies
    out["reporting.bytes_written"] = sum(
        s[4] for s in spans if s[0] in ("reporting.emit", "reporting.plot"))
    kernel_s = out["tensors.dyadic_sum_s"] + out["tensors.kernel_scalars_s"]
    out["tensors.kernel_pairs_per_s"] = (
        counts["tensors.kernel_pairs"] / kernel_s if kernel_s > 0 else 0.0)
    out["trace.layer_share"] = sum(
        out[layer + ".self_s"] for layer in WORK_LAYERS) / wall_s
    return out
