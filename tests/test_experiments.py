import tracemalloc

import numpy as np
import pytest

from dielscat import experiments, geometry, lse
from dielscat.experiments import (_fit_slope, polarization_angle_deg,
                                  run_convergence, run_counting,
                                  run_regime_map, run_resonance)

PI3 = np.pi ** 3


def test_fit_slope():
    xs = [1.0, 2.0, 4.0]
    ys = [3.0, 12.0, 48.0]
    assert _fit_slope(xs, ys) == pytest.approx(2.0)
    assert _fit_slope([1, 2, 4, 8], [1, 1, 4, 16], tail=3) \
        == pytest.approx(2.0)


def small_converge_config(**over):
    config = {"a_list": [0.04, 0.03], "h": 0.9, "eta0": 1.0, "c0": 1.0,
              "sign": "+", "c_r": 2.0, "lambda_b": 0.4, "grid_n": 8}
    config.update(over)
    return config


def test_run_convergence_rows_and_logs():
    rows, slope, timings = run_convergence(small_converge_config())
    assert len(rows) == 2 and len(timings) == 2
    for row in rows:
        assert row["status"] == "ok"
        assert row["sup_error"] >= 0
        assert row["fl_residual"] <= 1e-10
        assert row["lse_residual"] <= 1e-6
        assert "wall_time" not in row and "fl_path" not in row
    assert np.isfinite(slope)
    # N = 64 and 125 particles, C = 512 cells: COCG converges for both
    # solves
    for timing in timings:
        assert timing["wall_time"] > 0
        assert timing["fl_path"] == timing["lse_path"] == "cocg"
        assert timing["fl_matvecs"] > 0 and timing["lse_matvecs"] > 0


def test_run_convergence_rejects_nonmonotone_a():
    with pytest.raises(ValueError):
        run_convergence(small_converge_config(a_list=[0.03, 0.04]))


def test_run_convergence_degenerate_coupling():
    """A frequency offset tuned against the contrast makes the coupling
    vanish; the row is flagged instead of compared."""
    a = 0.04
    c0 = (1.0 - 1e-6) / a ** 0.9
    rows, _, _ = run_convergence(small_converge_config(
        a_list=[a], c0=c0, c_r=3.0))
    assert rows[0]["status"] == "degenerate-zero-field"
    assert rows[0]["xi"] < 1e-8


def test_run_convergence_records_row_failures():
    """An infeasible pitch fails that row but the study continues."""
    rows, _, _ = run_convergence(small_converge_config(
        a_list=[0.04, 0.03], c_r=400.0))
    assert all(r["status"].startswith("failed:") for r in rows)
    assert len(rows) == 2


def test_run_convergence_refuses_an_unresolved_grid_before_the_cluster(
        monkeypatch):
    """At eta0 = 1e-3 (k about 48) cells of side 1/6 do not resolve k:
    each row fails with the LSE's refusal, keeping its scales, and no
    cluster is solved for it (the N = 1331 row used to take 3.6 s)."""
    calls = []

    def counted(*args):
        calls.append(args)
        raise AssertionError("a cluster was solved")

    monkeypatch.setattr(experiments, "assemble_and_solve", counted)
    rows, _, timings = run_convergence(small_converge_config(
        a_list=[0.03, 0.02, 0.012], eta0=1e-3, grid_n=6))
    assert not calls
    assert [r["count"] for r in rows] == [125, 343, 1331]
    for row in rows:
        assert set(row) == {"a", "d", "count", "k", "xi", "margin",
                            "status"}
        assert row["status"] == (
            "failed: k = %.6g is not resolved by cells of side 0.166667 "
            "(k side = %.3g >= pi)" % (row["k"], row["k"] / 6.0))
    assert all("fl_path" not in t for t in timings)


def test_run_regime_map():
    xis = [1.0, PI3 / 8, 5.0, PI3 / 4, 10.0]
    rows = run_regime_map({"xi_values": xis})
    lower = {r["xi"]: r for r in rows if r["sign"] == "-"}
    upper = {r["xi"]: r for r in rows if r["sign"] == "+"}
    assert lower[1.0]["regime"] == "dielectric-positive"
    assert lower[PI3 / 8]["regime"] == "degenerate"
    assert lower[5.0]["regime"] == "plasmonic-negative"
    assert upper[5.0]["regime"] == "dielectric-positive"
    assert upper[PI3 / 4]["regime"] == "degenerate"
    assert upper[10.0]["regime"] == "plasmonic-negative"
    # determinism: identical rerun (repr comparison is NaN-safe)
    rows2 = run_regime_map({"xi_values": xis})
    assert repr(rows) == repr(rows2)


def test_run_counting_slopes():
    config = {"pitches": [1.0 / j for j in range(4, 10)],
              "boundary_pitches": [1.0 / (j + 0.5) for j in range(5, 10)],
              "refine": 4}
    rows, slopes = run_counting(config)
    assert abs(slopes["kappa_1"] + 3.0) <= 0.3
    assert abs(slopes["kappa_4"] + 4.0) <= 0.4
    assert slopes["kappa_3"] < -3.0  # log-corrected d^-3
    assert slopes["boundary"] < 0.0
    assert all(r["value"] > 0 for r in rows)


def test_run_counting_builds_one_boundary_table(monkeypatch):
    """Every boundary pitch reads the one summed-volume table built for the
    study, and the rows are those of a table per pitch."""
    config = {"pitches": [0.5, 1.0 / 3.0],
              "boundary_pitches": [1.0 / (j + 0.5) for j in range(2, 6)],
              "refine": 3}
    per_pitch = [geometry.boundary_counting_statistic(
        geometry.generate_cluster(geometry.unit_box(), d), refine=3)
        for d in config["boundary_pitches"]]
    calls = []
    build = geometry.boundary_table

    def counted(n, refine):
        calls.append((tuple(n), refine))
        return build(n, refine)

    monkeypatch.setattr(experiments, "boundary_table", counted)
    monkeypatch.setattr(geometry, "boundary_table", counted)
    rows, _ = run_counting(config)
    assert calls == [((17, 17, 17), 3)]
    assert [r["value"] for r in rows
            if r["quantity"] == "boundary_statistic"] == per_pitch


def test_boundary_loop_heap_peak_is_the_finest_table_and_its_differences():
    """The traced heap peak of the counting study at the default boundary
    pitches (two coarse interior pitches) stays within the finest pitch's
    summed-volume table plus three arrays of its first-axis differences,
    the bytes the table's memory check counts: the table is shared, and
    each pitch's differences are taken in place."""
    d = 1.0 / 14.5
    lattice, n, _ = geometry.boundary_grid_counts(geometry.unit_box(), d, 4)
    entries = np.prod(n + 1)
    planes = np.max(lattice * entries / (n + 1))
    tracemalloc.start()
    try:
        run_counting({"pitches": [0.5, 1.0 / 3.0]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (entries + 3 * planes)


def test_polarization_angle_of_a_parallel_field_is_zero():
    """A field along p whose cosine to p, |v* . p| / |v|, rounds to one ulp
    below 1, where the arccos form gives 8.5e-7 degrees."""
    p = np.array([1.0, 0.0, 0.0])
    v = (1.816475940881144 - 0.049800969059643194j) * p
    cos = abs(np.vdot(v, p.astype(complex))) / np.linalg.norm(v)
    assert cos == np.nextafter(1.0, 0.0)
    assert np.degrees(np.arccos(cos)) > 8e-7
    assert polarization_angle_deg(v, p) == 0.0


def test_polarization_angle_matches_arccos_away_from_zero():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(200):
        p = rng.normal(size=3)
        p /= np.linalg.norm(p)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        cos = abs(np.vdot(v, p.astype(complex))) / np.linalg.norm(v)
        reference = np.degrees(np.arccos(cos))
        if reference > 1.0:
            checked += 1
            assert abs(polarization_angle_deg(v, p) - reference) <= 1e-12
    assert checked > 150


def test_resonance_rows_end_with_the_off_resonance_reference(monkeypatch):
    """One eigensystem and one scan serve the detunings and the
    off-resonance row: that row is last, carries no back-scatter angle,
    and takes part in neither the slope nor the peak."""
    calls = {"eigensystem": 0, "scan": 0}
    eigensystem = experiments.magnetization_eigensystem
    scan = lse.resonance_amplification_scan

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(experiments, "magnetization_eigensystem",
                        counted("eigensystem", eigensystem))
    monkeypatch.setattr(lse, "resonance_amplification_scan",
                        counted("scan", scan))
    betas = [1e-3, -1e-3, 1e-2, -1e-2]
    rows, report = run_resonance({"eta0": 1e9, "lambda_b": 0.4,
                                  "betas": betas, "grid_n": 8})
    assert calls == {"eigensystem": 1, "scan": 1}
    assert [r["beta"] for r in rows[:-1]] == betas
    off = rows[-1]
    assert off["off_resonance"] is True and off["status"] == "ok"
    assert "back_angle_deg" not in off and "back_scatter" not in off
    scan_rows = rows[:-1]
    assert all(r["status"] == "ok" and "back_angle_deg" in r
               and "back_scatter" not in r and "off_resonance" not in r
               for r in scan_rows)
    assert report["slope"] == _fit_slope([abs(r["beta"]) for r in scan_rows],
                                         [r["field_norm"] for r in scan_rows])
    peak = max(scan_rows, key=lambda r: r["field_norm"])
    assert report["peak_beta"] == peak["beta"] != off["beta"]
    assert report["peak_back_angle_deg"] == peak["back_angle_deg"]
