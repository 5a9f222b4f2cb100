import math

import pytest

import stats


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(list(range(10))) is None
    pct, value = stats.tail_percentile([5.0, 1.0, 3.0] + [9.0] * 8)
    assert pct == pytest.approx(100.0 / 11.0)
    assert value == 1.0
    assert stats.tail_percentile(list(range(1, 101))) == (90.0, 90)


def test_summary_median_and_count():
    s = stats.summary([3.0, 1.0, 2.0, 10.0])
    assert s == {"median": 2.5, "tail": None, "n": 4}


# cli.study [0, 10] > experiments.study [1, 9] > foldylax.solve [2, 6]
#   > foldylax.gmres [3, 5] > foldylax.offdiag x2, then a residual offdiag
#   and a dense solve [7, 8]
SPANS = [
    ["cli.study", -1, 0.0, 10.0, None],
    ["experiments.study", 0, 1.0, 9.0, None],
    ["foldylax.solve", 1, 2.0, 6.0, None],
    ["foldylax.gmres", 2, 3.0, 5.0, None],
    ["foldylax.offdiag", 3, 3.0, 3.5, None],
    ["tensors.dyadic_sum", 4, 3.1, 3.4, 12],
    ["foldylax.offdiag", 3, 4.0, 4.5, None],
    ["tensors.dyadic_sum", 6, 4.1, 4.4, 12],
    ["foldylax.offdiag", 2, 5.5, 5.75, None],
    ["foldylax.solve", 1, 7.0, 8.0, None],
    ["tensors.kernel_scalars", 9, 7.0, 7.5, 6],
]


def test_self_time_subtracts_direct_children_only():
    own = stats.self_times(SPANS)
    assert own[0] == pytest.approx(2.0)       # 10 - 8
    assert own[1] == pytest.approx(3.0)       # 8 - 4 - 1
    assert own[2] == pytest.approx(1.75)      # 4 - 2 - 0.25
    assert own[3] == pytest.approx(1.0)       # 2 - 0.5 - 0.5
    assert own[4] == pytest.approx(0.2)
    assert sum(own) == pytest.approx(10.0)    # self times tile the root


def test_exact_counts_attribute_matvecs_and_paths():
    c = stats.exact_counts(SPANS)
    assert c["foldylax.matvecs"] == 2         # the residual apply is not one
    assert c["foldylax.gmres_solves"] == 1
    assert c["foldylax.dense_solves"] == 1
    assert c["tensors.dyadic_sum_calls"] == 2
    assert c["tensors.kernel_pairs"] == 30
    assert c["lse.kernel_builds"] == 0 and c["lse.eigh_order"] == 0


def test_layer_metrics_times_and_share():
    m = stats.layer_metrics(SPANS, wall_s=10.0)
    assert m["foldylax.solve_s"] == pytest.approx(5.0)
    assert m["foldylax.gmres_s"] == pytest.approx(2.0)
    assert m["foldylax.dense_s"] == pytest.approx(1.0)
    assert m["tensors.dyadic_sum_s"] == pytest.approx(0.6)
    assert m["tensors.kernel_pairs_per_s"] == pytest.approx(30 / 1.1)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["experiments.self_s"] == pytest.approx(3.0)
    assert m["trace.layer_share"] == pytest.approx(0.5)
    assert all(math.isfinite(v) for v in m.values())


def test_units_follow_metric_names():
    assert stats.unit_of("lse.eigh_s") == "s"
    assert stats.unit_of("tensors.kernel_pairs_per_s") == "1/s"
    assert stats.unit_of("lse.kernel_bytes") == "bytes"
    assert stats.unit_of("reporting.bytes_written") == "bytes"
    assert stats.unit_of("trace.layer_share") == "fraction"
    assert stats.unit_of("foldylax.matvecs") == "count"
