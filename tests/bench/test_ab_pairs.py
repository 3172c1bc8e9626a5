"""The verdict arithmetic of ``benchmarks/ab_pairs.py`` (choosing-metrics
§8); the pair loop itself is exercised by running the script."""

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

_OPS = {"name": "ops_s", "better": "higher", "bound": 0.25}
_P50 = {"name": "update_p50_ms", "better": "lower", "bound": 0.25}

_PARENT = [1200.0, 1190, 1210, 1185, 1220, 1205, 1195, 1215, 1200, 1190]


def test_gain_needs_nine_tenths_of_pairs_and_more_than_the_parents_iqr():
    change = [p * 1.3 for p in _PARENT]
    row = ab_pairs.judge(_OPS, _PARENT, change, 10)
    assert row["wins"] == 10 and row["gain"] and row["worse"] == "no"
    # Eight wins of ten is not nine tenths, however large the median gap.
    mixed = change[:8] + [p - 1 for p in _PARENT[8:]]
    assert not ab_pairs.judge(_OPS, _PARENT, mixed, 10)["gain"]
    # Ten wins by less than the parent's own quartile spread is noise.
    nudged = [p + 1 for p in _PARENT]
    row = ab_pairs.judge(_OPS, _PARENT, nudged, 10)
    assert row["wins"] == 10 and not row["gain"]


def test_a_dropped_pair_counts_as_a_non_win():
    """Nine tenths of the pairs *run*: with 10 run and 2 dropped, 8/8
    wide wins are 8/10, not a gain; 9 wins of 10 run are."""
    kept = _PARENT[:8]
    row = ab_pairs.judge(_OPS, kept, [p * 1.3 for p in kept], 10)
    assert row["wins"] == 8 and not row["gain"]
    nine = [p * 1.3 for p in _PARENT[:9]] + [_PARENT[9] - 1]
    row = ab_pairs.judge(_OPS, _PARENT, nine, 10)
    assert row["wins"] == 9 and row["gain"]


def test_direction_follows_the_metric():
    parent = [6.0, 6.1, 5.9, 6.2, 6.0]
    faster = [4.5, 4.4, 4.6, 4.5, 4.3]
    assert ab_pairs.judge(_P50, parent, faster, 5)["gain"]
    row = ab_pairs.judge(_P50, faster, parent, 5)
    assert row["wins"] == 0 and not row["gain"] and row["worse"] == "YES"


def test_ties_count_for_neither_side():
    row = ab_pairs.judge(_OPS, [400.0] * 10, [400.0] * 10, 10)
    assert row["wins"] == 0 and not row["gain"] and row["worse"] == "no"


def test_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    noisy = [100.0, 180, 60, 150, 90, 170, 70, 160, 80, 140]
    row = ab_pairs.judge(_OPS, noisy, [v * 0.9 for v in noisy], 10)
    assert row["worse"] == "unresolved"
    # ... unless every run of the change beats every run of the parent.
    row = ab_pairs.judge(_OPS, noisy, [v + 200 for v in noisy], 10)
    assert row["worse"] == "no"


# ----------------------------------------------------------------------
# --workload lists and --layers (ISSUE-24); the runs themselves are faked
# ----------------------------------------------------------------------
_DECLARED = ["sock_small_update", "sock_small_read90", "direct_small_update"]


def test_workload_spec_takes_one_name_a_comma_list_or_all():
    parse = ab_pairs.parse_workloads
    assert parse("sock_small_read90", _DECLARED) == ["sock_small_read90"]
    assert parse("direct_small_update,sock_small_update", _DECLARED) == [
        "direct_small_update", "sock_small_update",
    ]
    assert parse("all", _DECLARED) == _DECLARED
    with pytest.raises(ValueError, match="sock_smal_update"):
        parse("sock_small_update,sock_smal_update", _DECLARED)
    with pytest.raises(ValueError):
        parse("", _DECLARED)


def _result(**values):
    return {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {k: {"value": v, "unit": "x"} for k, v in values.items()}}


def test_layer_rows_keep_only_the_asked_prefixes_present_on_both_sides():
    parent = _result(**{"net.cpu_us_per_op": 186.0, "wire.frames_per_op": 5.05,
                        "core.self_us_per_op": 80.0, "net.only_parent": 1.0})
    change = _result(**{"net.cpu_us_per_op": 124.0, "wire.frames_per_op": 4.04,
                        "core.self_us_per_op": 81.0})
    assert ab_pairs.layer_rows(parent, change, ["net.", "wire."]) == [
        ("net.cpu_us_per_op", 186.0, 124.0),
        ("wire.frames_per_op", 5.05, 4.04),
    ]


def test_one_table_per_workload_and_one_traced_pass_per_side(
    tmp_path, monkeypatch, capsys
):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": name} for name in _DECLARED],
        "end_to_end": [_OPS, _P50],
    }))
    calls = []

    def fake_run(checkout, workload, seed, trace=0):
        calls.append((checkout.name, workload, trace))
        faster = checkout.name == "change" and workload.startswith("sock")
        if trace:
            return _result(**{"net.cpu_us_per_op": 120.0 if faster else 180.0,
                              "core.self_us_per_op": 80.0})
        return _result(ops_s=5000.0 if faster else 4000.0,
                       update_p50_ms=1.3 if faster else 1.6)

    monkeypatch.setattr(ab_pairs, "run_once", fake_run)
    status = ab_pairs.main([
        str(parent), str(change), "--pairs", "2", "--layers", "net.",
        "--workload", "sock_small_update,direct_small_update",
    ])
    out = capsys.readouterr().out
    assert status == 0
    assert out.count("pairs kept") == 2
    assert "sock_small_update seed 0: 2 pairs kept" in out
    assert "direct_small_update seed 0: 2 pairs kept" in out
    # Alternating order, then exactly one traced pass per side per workload.
    assert calls[:4] == [
        ("parent", "sock_small_update", 0), ("change", "sock_small_update", 0),
        ("change", "sock_small_update", 0), ("parent", "sock_small_update", 0),
    ]
    assert sorted(c for c in calls if c[2]) == sorted(
        (side, w, 1) for side in ("parent", "change")
        for w in ("sock_small_update", "direct_small_update")
    )
    assert "net.cpu_us_per_op" in out and "180 -> 120" in out
    assert "core.self_us_per_op" not in out

    with pytest.raises(SystemExit):
        ab_pairs.main([str(parent), str(change), "--workload", "nope"])
