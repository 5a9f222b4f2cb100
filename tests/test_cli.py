import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import dielscat
from dielscat import tensors
from dielscat.cli import ConfigError, main, parse_config, validate_config
from dielscat.config import SCHEMA
from dielscat.reporting import emit, far_field_rows, format_float


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


FOLDYLAX_DOC = {"a": 0.05, "h": 0.9, "eta0": 1.0, "c0": 1.0, "sign": "+",
                "c_r": 1.0, "lambda_b": 0.4,
                "theta": [0, 0, 1], "p": [1, 0, 0]}


def test_parse_config_roundtrip(tmp_path):
    path = write_config(tmp_path, FOLDYLAX_DOC)
    config = parse_config(path, "foldylax")
    path2 = write_config(tmp_path, config, "again.json")
    assert parse_config(path2, "foldylax") == config


def test_parse_config_rejects_bad_h(tmp_path):
    doc = dict(FOLDYLAX_DOC, h=0.5)
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match=r"9/11"):
        parse_config(path, "foldylax")


def test_parse_config_rejects_oblique_polarization(tmp_path):
    doc = dict(FOLDYLAX_DOC, p=[float(np.sqrt(0.99)), 0.0, 0.1])
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match="polarization"):
        parse_config(path, "foldylax")


def test_parse_config_rejects_unknown_key(tmp_path):
    doc = dict(FOLDYLAX_DOC, bogus=1)
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(path, "foldylax")


def test_parse_config_missing_key(tmp_path):
    doc = {k: v for k, v in FOLDYLAX_DOC.items() if k != "eta0"}
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match="eta0"):
        parse_config(path, "foldylax")


def test_overrides(tmp_path):
    path = write_config(tmp_path, FOLDYLAX_DOC)
    config = parse_config(path, "foldylax", overrides=["a=0.04"])
    assert config["a"] == 0.04
    with pytest.raises(ConfigError):
        parse_config(path, "foldylax", overrides=["no-equals-sign"])


def test_validate_converge_decreasing():
    base = {"a_list": [0.03, 0.04], "h": 0.9, "eta0": 1.0, "c0": 1.0,
            "sign": "+", "c_r": 2.0, "lambda_b": 0.4}
    with pytest.raises(ConfigError, match="decreasing"):
        validate_config(base, "converge")


def test_format_float_shortest_roundtrip():
    for x in (0.1, 1.0 / 3.0, 2.5e-17, -1.0):
        assert float(format_float(x)) == x
    assert format_float(0.1) == "0.1"


def test_emit_csv_complex_split(tmp_path):
    rows = [{"x": 1.0, "v": 2.0 + 3.0j}, {"x": 2.0, "v": -1.0j}]
    path = str(tmp_path / "out.csv")
    emit(rows, "csv", path, meta={"tag": "demo"})
    lines = open(path).read().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "x,v_re,v_im"
    assert lines[2] == "1.0,2.0,3.0"
    assert lines[3] == "2.0,-0.0,-1.0"


def test_emit_json_roundtrip(tmp_path):
    rows = [{"v": 1.5 - 0.5j, "n": 3}]
    path = str(tmp_path / "out.json")
    emit(rows, "json", path)
    doc = json.load(open(path))
    assert doc["rows"][0]["v"] == {"re": 1.5, "im": -0.5}
    assert doc["rows"][0]["n"] == 3


def test_emit_deterministic(tmp_path):
    rows = [{"a": 0.1, "v": 1.0 + 2.0j}]
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    emit(rows, "csv", p1, meta={"k": 1})
    emit(rows, "csv", p2, meta={"k": 1})
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_far_field_rows_shape():
    class Samples:
        directions = np.eye(3)
        values = np.eye(3) * (1 + 1j)
    rows = far_field_rows(Samples())
    assert len(rows) == 3
    assert rows[0]["E_x"] == 1 + 1j


def test_cli_effective_end_to_end(tmp_path):
    cfg = write_config(tmp_path, {"xi_values": [1.0, 10.0]})
    out = str(tmp_path / "out")
    code = main(["effective", "--config", cfg, "--out", out])
    assert code == 0
    table = open(os.path.join(out, "effective_results.csv")).read()
    assert "dielectric-positive" in table
    assert "plasmonic-negative" in table
    assert os.path.exists(os.path.join(out, "effective_plotdata.json"))


def test_cli_foldylax_end_to_end_and_determinism(tmp_path):
    cfg = write_config(tmp_path, FOLDYLAX_DOC)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["foldylax", "--config", cfg, "--out", out1]) == 0
    assert main(["foldylax", "--config", cfg, "--out", out2]) == 0
    b1 = open(os.path.join(out1, "foldylax_results.csv"), "rb").read()
    b2 = open(os.path.join(out2, "foldylax_results.csv"), "rb").read()
    assert b1 == b2
    header = b1.decode().splitlines()
    assert sum(1 for ln in header if not ln.startswith("#")) == 27  # 26 + head


@pytest.mark.parametrize("overrides, path", [
    ([], "dense"),                          # N = 512, margin 0.90
    (["--set", "a=0.02", "--set", "c_r=2"], "gmres"),   # N = 343
])
def test_cli_foldylax_reports_path_and_matvecs(tmp_path, overrides, path):
    cfg = write_config(tmp_path, FOLDYLAX_DOC)
    out = str(tmp_path / "out")
    assert main(["foldylax", "--config", cfg, "--out", out,
                 "--format", "json"] + overrides) == 0
    meta = json.load(open(os.path.join(out, "foldylax_results.json")))["meta"]
    assert meta["path"] == path
    assert (meta["matvecs"] == 0) == (path == "dense")


def test_cli_lse_json_output(tmp_path):
    cfg = write_config(tmp_path, FOLDYLAX_DOC)
    out = str(tmp_path / "out")
    code = main(["lse", "--config", cfg, "--out", out, "--format", "json",
                 "--set", "grid_n=6"])
    assert code == 0
    doc = json.load(open(os.path.join(out, "lse_results.json")))
    assert doc["meta"]["residual"] <= 1e-6
    assert len(doc["rows"]) == 26


@pytest.mark.parametrize("grid_n, path", [(6, "dense"), (12, "gmres")])
def test_cli_lse_reports_path_and_matvecs(tmp_path, grid_n, path):
    """216 cells take the dense LU, 1728 (above the dense limit) GMRES: the
    lse meta says which, with the matvec count, as foldylax's does."""
    cfg = write_config(tmp_path, FOLDYLAX_DOC)
    out = str(tmp_path / "out")
    assert main(["lse", "--config", cfg, "--out", out, "--format", "json",
                 "--set", "grid_n=%d" % grid_n]) == 0
    meta = json.load(open(os.path.join(out, "lse_results.json")))["meta"]
    assert meta["path"] == path
    assert (meta["matvecs"] == 0) == (path == "dense")


def test_cli_counting(tmp_path):
    cfg = write_config(tmp_path, {
        "pitches": [1.0 / j for j in range(4, 9)],
        "boundary_pitches": [1.0 / (j + 0.5) for j in range(5, 9)]})
    out = str(tmp_path / "out")
    assert main(["counting", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "counting_results.csv"))


def test_cli_counting_refuses_a_boundary_table_larger_than_memory(
        tmp_path, capsys):
    """A refine whose summed-volume table no host holds passes the config
    check, then fails before the table is allocated: exit 1, naming it."""
    cfg = write_config(tmp_path, {"pitches": [0.25, 0.2],
                                  "boundary_pitches": [1 / 4.5, 1 / 5.5],
                                  "refine": 100000})
    out = str(tmp_path / "out")
    assert main(["counting", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "summed-volume table" in err and "refine=100000" in err


@pytest.mark.parametrize("override, key", [
    ("pitches=[]", "pitches"),
    ("refine=0", "refine"),
    ("refine=2.5", "refine"),
    ("refine=true", "refine"),
    ("boundary_pitches=[0.5,0.25]", "boundary_pitches"),
    ("boundary_pitches=[]", "boundary_pitches"),
    ("boundary_pitches=[0.3,1.5]", "boundary_pitches"),
    ("pitches=[0.25,0]", "pitches"),
    ("pitches=0.25", "pitches"),
    ("pitches=[0.6,0.25]", "pitches"),
    ("pitches=[0.25]", "pitches"),
    ("pitches=[0.25,0.25]", "pitches"),
    ("boundary_pitches=[0.3]", "boundary_pitches"),
])
def test_cli_rejects_bad_counting_config(tmp_path, capsys, override, key):
    cfg = write_config(tmp_path, {})
    with pytest.raises(ConfigError, match=key):
        parse_config(cfg, "counting", [override])
    out = str(tmp_path / "out")
    assert main(["counting", "--config", cfg, "--out", out,
                 "--set", override]) == 2
    assert key in capsys.readouterr().err


RESONANCE_DOC = {"eta0": 1e9, "lambda_b": 0.4, "betas": [1e-3, 1e-2]}


@pytest.mark.parametrize("override", [
    "betas=[]",
    "betas=[0,1e-3,1e-2]",
    "betas=[1e-3,-1e-3]",
    "betas=[1e-3]",
    "betas=[true,1e-2]",
    "betas=[NaN,1e-2]",
])
def test_cli_rejects_bad_resonance_betas(tmp_path, capsys, override):
    cfg = write_config(tmp_path, RESONANCE_DOC)
    with pytest.raises(ConfigError, match="betas"):
        parse_config(cfg, "resonance", [override])
    out = str(tmp_path / "out")
    assert main(["resonance", "--config", cfg, "--out", out,
                 "--set", override]) == 2
    assert "betas" in capsys.readouterr().err


def test_counting_config_rejects_complement_without_quadrature_points():
    # a 0.1 d layer holds no point of the d/4 grid, but one of the d/8 grid
    # (1/4.5 has points on both; the slope fit needs two pitches)
    base = {"boundary_pitches": [1.0 / 4.1, 1.0 / 4.5]}
    with pytest.raises(ConfigError, match="boundary_pitches"):
        validate_config(dict(base), "counting")
    assert validate_config(dict(base, refine=8), "counting")["refine"] == 8


def test_counting_config_with_a_huge_refine_is_checked_at_once():
    """The per-axis counts of the boundary grid are closed forms, so
    validation costs the same at any refine; the summed-volume table's
    memory check refuses the run itself."""
    t0 = time.perf_counter()
    validate_config({"refine": 10 ** 9}, "counting")
    assert time.perf_counter() - t0 < 0.1


def test_cli_resonance_keeps_the_rows_when_every_detuning_fails(tmp_path):
    """At eta0 = 1e-3 the scan's k is about 50, which cells of side 0.25
    do not resolve (k side = 12.5 >= pi): every detuning fails at once,
    naming k and the side, instead of spending the GMRES budget; the rows
    are written with their failure, the peak fields of the report are
    null, and the exit code is 1."""
    cfg = write_config(tmp_path, {"eta0": 1e-3, "lambda_b": 0.4,
                                  "betas": [1e-3, -1e-3, 1e-2], "grid_n": 8})
    out = tmp_path / "out"
    t0 = time.perf_counter()
    assert main(["resonance", "--config", cfg, "--out", str(out),
                 "--format", "json"]) == 1
    assert time.perf_counter() - t0 < 1.0
    doc = json.loads((out / "resonance_results.json").read_text())
    assert doc["meta"]["peak_beta"] is None
    assert doc["meta"]["peak_back_angle_deg"] is None
    scan = [r for r in doc["rows"] if not r.get("off_resonance")]
    assert [r["beta"] for r in scan] == [1e-3, -1e-3, 1e-2]
    for r in scan:
        assert r["status"] == (
            "failed: k = %.6g is not resolved by cells of side 0.25 "
            "(k side = 12.5 >= pi)" % r["k"])
        assert "field_norm" not in r


def strict_json(path):
    """The JSON document at path, refusing the non-standard NaN and
    Infinity tokens."""
    def refuse(token):
        raise ValueError("%s is not JSON" % token)
    return json.loads(path.read_text(), parse_constant=refuse)


def test_cli_writes_a_nan_slope_as_null(tmp_path):
    """One ok converge row leaves the fitted slope NaN: the JSON tables and
    the CSV header write it as null, and every file parses as strict
    JSON."""
    cfg = write_config(tmp_path, dict(CONVERGE_DOC, a_list=[0.03]))
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out),
                 "--format", "json", "--set", "grid_n=6"]) == 0
    doc = strict_json(out / "converge_results.json")
    assert [r["status"] for r in doc["rows"]] == ["ok"]
    assert doc["meta"]["fitted_slope"] is None
    for name in ("converge_timings.json", "converge_plotdata.json"):
        strict_json(out / name)
    assert main(["converge", "--config", cfg, "--out", str(out),
                 "--set", "grid_n=6"]) == 0
    lines = (out / "converge_results.csv").read_text().splitlines()
    assert "# fitted_slope=null" in lines


def test_cli_spectrum(tmp_path):
    cfg = write_config(tmp_path, {"grid_n": 12, "lmax": 4})
    out = str(tmp_path / "out")
    assert main(["spectrum", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "spectrum_results.csv")).read().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    assert any("nearest_to_third" in ln for ln in meta)


def test_cli_bad_config_exit_code(tmp_path):
    cfg = write_config(tmp_path, dict(FOLDYLAX_DOC, h=0.5))
    out = str(tmp_path / "out")
    assert main(["foldylax", "--config", cfg, "--out", out]) == 2


def test_cli_missing_config_file(tmp_path):
    assert main(["foldylax", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


CONVERGE_DOC = {"a_list": [0.03, 0.02], "h": 0.9, "eta0": 1.0, "c0": 1.0,
                "sign": "+", "c_r": 2.0, "lambda_b": 0.4}
STUDY_DOCS = {"foldylax": FOLDYLAX_DOC, "lse": FOLDYLAX_DOC,
              "effective": {"xi_values": [1.0, 10.0]},
              "converge": CONVERGE_DOC,
              "resonance": RESONANCE_DOC, "counting": {}, "spectrum": {}}


@pytest.mark.parametrize("subcommand, override, match", [
    ("resonance", "grid_n=2.5", "grid_n"),
    ("resonance", "grid_n=true", "grid_n"),
    ("resonance", "grid_n=1", "grid_n"),
    ("resonance", "grid_n=10.0", "grid_n"),
    ("resonance", "grid_n=ten", "grid_n"),
    ("lse", "grid_n=2.5", "grid_n"),
    ("converge", "grid_n=false", "grid_n"),
    ("spectrum", "grid_n=0", "grid_n"),
    ("spectrum", "grid_n=11", "grid_n"),
    ("spectrum", "count=-2", "count"),
    ("spectrum", "count=0", "count"),
    ("spectrum", "count=2.5", "count"),
    ("spectrum", "lmax=0", "lmax"),
    ("spectrum", "lmax=4.0", "lmax"),
    ("spectrum", "mode=bogus", "mode"),
    ("resonance", "theta=[0,0,2]", "theta must be a unit vector"),
    ("resonance", "p=[0,0,1]", r"theta \. p"),
    ("resonance", "p=[1,0]", "p must be a list"),
    ("resonance", "theta=[0,0,true]", "theta must be a list"),
    ("converge", "theta=[0,0,2]", "theta must be a unit vector"),
    ("converge", "p=[0,0,1]", r"theta \. p"),
    ("converge", "p=[0,0.5,0]", "p must be a unit vector"),
    ("spectrum", "domain=5", "domain must be an object"),
    ("spectrum", "domain=[1,1,1]", "domain must be an object"),
    ("spectrum", 'domain={"kind":"ball"}', "domain.radius"),
    ("spectrum", 'domain={"radius":1}', "domain.kind"),
    ("spectrum", 'domain={"kind":"cube","radius":1}', "domain.kind"),
    ("spectrum", 'domain={"kind":["ball"],"radius":1}', "domain.kind"),
    ("spectrum", 'domain={"kind":"ball","radius":0}', "domain.radius"),
    ("spectrum", 'domain={"kind":"ball","radius":"1"}', "domain.radius"),
    ("spectrum", 'domain={"kind":"ball","radius":true}', "domain.radius"),
    ("spectrum", 'domain={"kind":"ball","radius":1,"center":[0,0]}',
     "domain.center"),
    ("spectrum", 'domain={"kind":"ball","radius":1,"center":[0,0,null]}',
     "domain.center"),
    ("spectrum", 'domain={"kind":"ball","radius":1,"extents":[1,1,1]}',
     "extents.* ball domain"),
    ("lse", 'domain={"kind":"box"}', "domain.extents"),
    ("lse", 'domain={"kind":"box","extents":[1,1,-1]}', "domain.extents"),
    ("lse", 'domain={"kind":"box","extents":1}', "domain.extents"),
    ("lse", 'domain={"kind":"box","extents":[1,1,Infinity]}',
     "domain.extents"),
    ("foldylax", "domain=null", "domain must be an object"),
    ("foldylax", 'domain={"kind":"box","extents":[1,1,1],"center":"0"}',
     "domain.center"),
    ("foldylax", "ordering=bogus", "unknown key 'ordering'"),
    ("foldylax", "ordering=null", "unknown key 'ordering'"),
    ("foldylax", "ordering=p0-last", "unknown key 'ordering'"),
    ("converge", "double_directions=true",
     "unknown key 'double_directions'"),
])
def test_cli_rejects_bad_grid_and_wave(tmp_path, capsys, subcommand,
                                       override, match):
    """Refused before any solve: exit 2 with a ConfigError naming the key.
    The grid, wave and domain keys, and the removed ordering and
    double_directions keys."""
    cfg = write_config(tmp_path, STUDY_DOCS[subcommand])
    with pytest.raises(ConfigError, match=match):
        parse_config(cfg, subcommand, [override])
    out = str(tmp_path / "out")
    assert main([subcommand, "--config", cfg, "--out", out,
                 "--set", override]) == 2
    assert override.split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, override", [
    ("spectrum", 'domain={"kind":"ball","radius":0.9}'),
    ("spectrum", 'domain={"kind":"ball","radius":1,"center":[0,0.5,0]}'),
    ("lse", 'domain={"kind":"box","extents":[0.5,0.5,0.5]}'),
    ("foldylax", 'domain={"kind":"box","extents":[1,1,1],'
                 '"center":[0.5,0.5,0.5]}'),
])
def test_validate_config_accepts_good_domain_and_ordering(tmp_path,
                                                          subcommand,
                                                          override):
    cfg = write_config(tmp_path, STUDY_DOCS[subcommand])
    parse_config(cfg, subcommand, [override])


@pytest.mark.parametrize("subcommand, overrides", [
    ("lse", ['domain={"kind":"box","extents":[1,1,2]}']),
    ("lse", ['domain={"kind":"box","extents":[1,0.5,1]}']),
    ("spectrum", ['domain={"kind":"box","extents":[1,1,2]}']),
    ("foldylax", ["a=0.5", "c_r=3"]),
    ("foldylax", ["c_r=3", 'domain={"kind":"ball","radius":0.5}']),
])
def test_cli_refuses_a_domain_the_study_cannot_fill(tmp_path, capsys,
                                                     subcommand, overrides):
    """A box grid whose cells are not cubic, and a pitch that leaves no
    whole particle cube in the domain, are config errors: exit 2, with a
    message that starts with the domain key, before anything is built."""
    cfg = write_config(tmp_path, STUDY_DOCS[subcommand])
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert main([subcommand, "--config", cfg, "--out",
                 str(tmp_path / "out")] + sets) == 2
    assert capsys.readouterr().err.startswith("config error: domain: ")


def test_cli_converge_refuses_a_pitch_beyond_the_unit_box(tmp_path, capsys):
    """a_list = [0.5, 0.3] at c_r = 3 gives a = 0.5 a pitch d = 1.85 above
    the unit box's side, where the study builds its clusters: a config
    error naming a_list and that a (exit 2), not a run whose every row
    fails."""
    cfg = write_config(tmp_path, dict(CONVERGE_DOC, a_list=[0.5, 0.3],
                                      c_r=3))
    assert main(["converge", "--config", cfg, "--out",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: a_list: a = 0.5: pitch d = 1.84672 "
                          "exceeds the box's shortest side 1")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subcommand, doc, override, what", [
    ("foldylax", FOLDYLAX_DOC, "a=1e-6", "a box cluster of pitch"),
    ("lse", FOLDYLAX_DOC, "grid_n=200000", "a box grid of n=200000"),
    ("counting", {}, "pitches=[1e-5, 2e-5]",
     "a box cluster of pitch d = 1e-05")])
def test_cli_refuses_a_cell_set_larger_than_memory(tmp_path, capsys,
                                                   subcommand, doc,
                                                   override, what):
    """A cluster or voxel grid that no host holds (29 TiB of lattice sites
    at a = 1e-6, a 56.8 PiB grid at n = 200000, 7.1 PiB of sites at d =
    1e-5) is refused before it is allocated: exit 1 within a second,
    naming it, with no traceback."""
    cfg = write_config(tmp_path, doc)
    t0 = time.perf_counter()
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "out"),
                 "--set", override]) == 1
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("run failed: " + what)
    assert "needs" in err and "Traceback" not in err


def test_cli_lse_refuses_a_lattice_operator_larger_than_memory(
        tmp_path, capsys, monkeypatch):
    """The LSE kernel's spectrum and apply arrays are checked against
    physical memory as the operator is built: with the host one byte short
    of what the 8^3 grid's (2 x 8)^3 spectrum needs, the run fails at once
    (exit 1), naming the extent and the byte count."""
    need = 16 * 16 ** 3 * 15
    monkeypatch.setattr(tensors, "physical_memory", lambda: need - 1)
    cfg = write_config(tmp_path, STUDY_DOCS["lse"])
    assert main(["lse", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--set", "grid_n=8"]) == 1
    assert "lattice operator on a 8 x 8 x 8 extent needs %d bytes" % need \
        in capsys.readouterr().err


def test_import_cli_does_not_load_scipy():
    """Set-up time depends on the CLI import leaving scipy unloaded: no
    module of the package imports it, only the tests do.  Nor does it load
    any other package outside the standard library but numpy, or numpy.ma
    (about 15 ms of set-up)."""
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import dielscat.cli\n"
              "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
              "extra = new - set(sys.stdlib_module_names)\n"
              "assert extra == {'dielscat', 'numpy'}, sorted(extra)\n"
              "assert 'numpy.ma' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(dielscat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# values of a wrong JSON type for the key, for each key; a string is the
# wrong type only where the key does not take one
STRING_KEYS = ("sign", "mode")


@pytest.mark.parametrize("subcommand, key", [
    (sub, key) for sub in SCHEMA for key in SCHEMA[sub]])
@pytest.mark.parametrize("value", ['"x"', '[0.5,"x"]', '{"x":1}'])
def test_cli_rejects_a_wrongly_typed_value_of_every_key(
        tmp_path, capsys, subcommand, key, value):
    """Every key of every subcommand is checked before the run: a value of
    the wrong type is a ConfigError naming the key, and exit code 2."""
    if key in STRING_KEYS and value == '"x"':
        value = "5"
    override = "%s=%s" % (key, value)
    cfg = write_config(tmp_path, STUDY_DOCS[subcommand])
    with pytest.raises(ConfigError, match=r"^(an entry of )?%s\b" % key):
        parse_config(cfg, subcommand, [override])
    out = str(tmp_path / "out")
    assert main([subcommand, "--config", cfg, "--out", out,
                 "--set", override]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", sorted(SCHEMA))
def test_validate_config_fills_every_default(subcommand):
    """The validated config holds every key of the subcommand, the absent
    ones at their defaults, as plain JSON values."""
    config = validate_config(dict(STUDY_DOCS[subcommand]), subcommand)
    assert set(config) == set(SCHEMA[subcommand])
    for key, (default, _) in SCHEMA[subcommand].items():
        if key not in STUDY_DOCS[subcommand]:
            assert config[key] == default
    assert json.loads(json.dumps(config)) == config
