import json
import math
import os

import numpy as np
import pytest

import probes
import run
import stats
from dielscat import cli, lse
from dielscat.geometry import generate_cluster, unit_box


def _bound():
    """Every patched attribute, as currently bound."""
    out = {}
    for places in probes.TARGETS.values():
        for path, attr in places:
            out[(path, attr)] = probes._resolve(path).__dict__[attr]
    return out


def test_wrappers_record_and_restore_originals(tmp_path):
    before = _bound()
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"pitches": [0.25, 0.2],
                                  "boundary_pitches": [0.4, 0.3]}))
    with probes.Probe(timed=True) as probe:
        assert all(_bound()[k] is not v for k, v in before.items())
        rc = cli.main(["counting", "--config", str(config),
                       "--out", str(tmp_path / "out"), "--format", "json"])
    assert rc == 0
    assert all(_bound()[k] is v for k, v in before.items())
    assert probe.missing == []
    names = [s[0] for s in probe.spans]
    assert names[0] == "cli.parse_config"
    assert names.count("geometry.boundary") == 2
    assert all(s[3] >= s[2] > 0.0 for s in probe.spans)
    written = sum(os.path.getsize(p) for p in (tmp_path / "out").iterdir())
    assert stats.layer_metrics(probe.spans, 1.0)["reporting.bytes_written"] \
        == written


def test_untimed_probe_reads_no_clock_and_restores_on_error():
    probe = probes.Probe(timed=False)
    wrapped = probe.wrap("lse.eigh", lse.eigh)
    vals, _ = wrapped(np.eye(4))
    assert probe.spans == [["lse.eigh", -1, 0.0, 0.0, 4]]
    failing = probe.wrap("geometry.cluster", generate_cluster)
    with pytest.raises(ValueError):
        failing(unit_box(), -1.0)
    assert probe._stack == []


def test_missing_targets_are_reported_not_fatal():
    probe = probes.Probe(timed=False)
    with probe.install({"x.y": [("lse", "no_such_function")]}):
        pass
    assert probe.missing == ["lse.no_such_function"]


@pytest.mark.parametrize("d", [1 / 6.3, 1 / 9.55, 0.25])
@pytest.mark.parametrize("refine", [2, 3, 4])
def test_boundary_pairs_match_the_statistic_quadrature(d, refine):
    c = generate_cluster(unit_box(), d)
    dom = c.domain
    step = d / refine
    corner = dom.center - dom.extents / 2.0
    counts = np.ceil(dom.extents / step - 1e-12).astype(int)
    axes = [corner[i] + step * (np.arange(counts[i]) + 0.5) for i in range(3)]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], 1)
    pts = pts[dom.contains(pts)]
    rel = (pts - corner) / d
    lattice = np.floor(dom.extents / d + 1e-12).astype(int)
    comp = np.sum(~np.all((rel >= 0) & (rel < lattice), axis=1))
    assert probes._boundary_pairs((c, refine), {}, None) == c.count * comp


def test_inputs_repeat_per_seed_and_are_valid_waves():
    for seed in (0, 5, 21):
        index, config = run.make_inputs("converge-box", seed)
        assert run.make_inputs("converge-box", seed) == (index, config)
        theta, p = np.array(config["theta"]), np.array(config["p"])
        assert abs(np.linalg.norm(theta) - 1) < 1e-14
        assert abs(np.linalg.norm(p) - 1) < 1e-14
        assert abs(theta @ p) < 1e-14
    assert run.make_inputs("counting-box", 1) != run.make_inputs(
        "counting-box", 2)


def test_compare_tolerances():
    ref = {"rows": [{"v": 1.0, "w": 1e-9, "back_angle_deg": 0.0,
                     "residual": 1e-10, "status": "ok"}]}
    scale = run.key_scales(ref)
    close = {"rows": [{"v": 1.0 + 1e-7, "w": 1e-9 + 1e-16,
                       "back_angle_deg": 5e-4, "residual": 5e-7,
                       "status": "ok"}]}
    assert run.compare(close, ref, scale) == []
    far = {"rows": [{"v": 1.01, "w": 1e-9, "back_angle_deg": 0.0,
                     "residual": 1e-10, "status": "failed"}]}
    assert len(run.compare(far, ref, scale)) == 2


def test_benchmark_json_names_every_printed_metric():
    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path) as fh:
        bench = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    printed = stats.layer_metrics(TRACE_SPANS, 1.0)
    printed = {k: stats.unit_of(k) for k in printed}
    printed.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    assert per_layer == printed
    assert {m["name"] for m in bench["workloads"]} == set(run.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "wall_s", "peak_rss_mb", "setup_s"}
    assert all(math.isfinite(m["bound"]) for m in bench["end_to_end"])


TRACE_SPANS = [["cli.study", -1, 0.0, 1.0, None]]
