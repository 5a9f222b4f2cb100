import numpy as np
import pytest

from dielscat.experiments import (_fit_slope, polarization_angle_deg,
                                  run_convergence, run_counting,
                                  run_regime_map)

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
        assert "wall_time" not in row
    assert np.isfinite(slope)


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
