# Deterministic file emission: CSV/JSON result tables with complex values
# split into real and imaginary parts, plus plot-data series files.  The
# JSON is strict: a non-finite float is written as null, never as the
# NaN or Infinity tokens that JSON does not have.

import json
import math

import numpy as np


def format_float(x):
    """Shortest decimal that round-trips to the same double."""
    return repr(float(x))


def _is_complexlike(v):
    return isinstance(v, complex) or (isinstance(v, np.generic)
                                      and np.iscomplexobj(v))


def _flatten_cell(key, value):
    """Expand one row entry into (column, text) pairs for CSV."""
    if _is_complexlike(value):
        return [(key + "_re", format_float(value.real)),
                (key + "_im", format_float(value.imag))]
    if isinstance(value, (np.ndarray, list, tuple)):
        out = []
        for i, v in enumerate(np.asarray(value).ravel()):
            out.extend(_flatten_cell("%s_%d" % (key, i), v))
        return out
    if isinstance(value, (bool, np.bool_)):
        return [(key, "true" if value else "false")]
    if isinstance(value, (int, np.integer)):
        return [(key, str(int(value)))]
    if isinstance(value, (float, np.floating)):
        return [(key, format_float(value))]
    if value is None:
        return [(key, "")]
    return [(key, str(value))]


def _json_float(x):
    """A float for JSON: None (null) when it is not finite."""
    x = float(x)
    return x if math.isfinite(x) else None


def _jsonify(value):
    """Convert a value into plain JSON types, splitting complex numbers."""
    if _is_complexlike(value):
        return {"re": _json_float(value.real), "im": _json_float(value.imag)}
    if isinstance(value, (np.ndarray, list, tuple)):
        return [_jsonify(v) for v in np.asarray(value).ravel()]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _json_float(value)
    return value


def emit(rows, fmt, path, meta=None):
    """Write a result table with an optional metadata header.

    CSV: '#'-prefixed key=value header lines, then a header row over the
    union of flattened row keys (first-appearance order), then data rows.
    JSON: {"meta": ..., "rows": [...]}, a non-finite float as null (as in
    the CSV header's JSON values).  Output is deterministic: the same
    rows and meta always produce byte-identical files.
    """
    try:
        if fmt == "csv":
            _emit_csv(rows, path, meta)
        elif fmt == "json":
            _emit_json(rows, path, meta)
        else:
            raise ValueError("format must be 'csv' or 'json'")
    except OSError as exc:
        raise OSError("cannot write report %s: %s" % (path, exc)) from exc


def _emit_csv(rows, path, meta):
    flat_rows = [dict(pair for key, val in row.items()
                      for pair in _flatten_cell(key, val)) for row in rows]
    columns = []
    for row in flat_rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    lines = []
    if meta:
        for key, val in meta.items():
            lines.append("# %s=%s" % (key, json.dumps(
                _jsonify(val), sort_keys=True, allow_nan=False)))
    lines.append(",".join(columns))
    for row in flat_rows:
        lines.append(",".join(row.get(c, "") for c in columns))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit_json(rows, path, meta):
    doc = {"meta": _jsonify(meta or {}),
           "rows": [_jsonify(row) for row in rows]}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")


def emit_plot_data(series, path):
    """Write labeled (x, y) series as JSON for external plotting tools."""
    doc = [{"label": s["label"],
            "x": [_json_float(v) for v in s["x"]],
            "y": [_json_float(v) for v in s["y"]]} for s in series]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")


def far_field_rows(samples):
    """Rows of (direction, complex far-field value) from FarFieldSamples."""
    rows = []
    for d, v in zip(samples.directions, samples.values):
        rows.append({"dir_x": float(d[0]), "dir_y": float(d[1]),
                     "dir_z": float(d[2]),
                     "E_x": complex(v[0]), "E_y": complex(v[1]),
                     "E_z": complex(v[2])})
    return rows
