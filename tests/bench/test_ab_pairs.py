"""The verdict arithmetic of ``benchmarks/ab_pairs.py`` (choosing-metrics
§8); the pair loop itself is exercised by running the script."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

_OPS = {"name": "ops_s", "better": "higher", "bound": 0.25}
_P50 = {"name": "update_p50_ms", "better": "lower", "bound": 0.25}

_PARENT = [1200.0, 1190, 1210, 1185, 1220, 1205, 1195, 1215, 1200, 1190]


def test_gain_needs_nine_tenths_of_pairs_and_more_than_the_parents_iqr():
    change = [p * 1.3 for p in _PARENT]
    row = ab_pairs.judge(_OPS, _PARENT, change)
    assert row["wins"] == 10 and row["gain"] and row["worse"] == "no"
    # Eight wins of ten is not nine tenths, however large the median gap.
    mixed = change[:8] + [p - 1 for p in _PARENT[8:]]
    assert not ab_pairs.judge(_OPS, _PARENT, mixed)["gain"]
    # Ten wins by less than the parent's own quartile spread is noise.
    nudged = [p + 1 for p in _PARENT]
    row = ab_pairs.judge(_OPS, _PARENT, nudged)
    assert row["wins"] == 10 and not row["gain"]


def test_direction_follows_the_metric():
    parent = [6.0, 6.1, 5.9, 6.2, 6.0]
    faster = [4.5, 4.4, 4.6, 4.5, 4.3]
    assert ab_pairs.judge(_P50, parent, faster)["gain"]
    row = ab_pairs.judge(_P50, faster, parent)
    assert row["wins"] == 0 and not row["gain"] and row["worse"] == "YES"


def test_ties_count_for_neither_side():
    row = ab_pairs.judge(_OPS, [400.0] * 10, [400.0] * 10)
    assert row["wins"] == 0 and not row["gain"] and row["worse"] == "no"


def test_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    noisy = [100.0, 180, 60, 150, 90, 170, 70, 160, 80, 140]
    row = ab_pairs.judge(_OPS, noisy, [v * 0.9 for v in noisy])
    assert row["worse"] == "unresolved"
    # ... unless every run of the change beats every run of the parent.
    row = ab_pairs.judge(_OPS, noisy, [v + 200 for v in noisy])
    assert row["worse"] == "no"
