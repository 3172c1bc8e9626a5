"""Smoke test of the benchmark itself (tier-1, a few seconds).

Checks that what ``BENCHMARK.json`` declares is what ``perf/`` emits, that
equal seeds replay the same op stream, that replicas are told neither the
seed nor the workload's name, and that the rigs clean up after themselves.
It asserts no timing: numbers are the benchmark's business, not the suite's.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import pickle
import re

import pytest

from perf import loadgen, metrics, rig, workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declared["paths"] == ["perf"]
    assert declared["workloads"] == [
        {"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()
    ]
    assert len(declared["workloads"]) == 6
    lists = metrics.benchmark_lists()
    assert declared["end_to_end"] == lists["end_to_end"]
    assert declared["per_layer"] == lists["per_layer"]
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in declared["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in declared["end_to_end"]
    )
    for w in declared["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"], w["name"]
    # Every per-layer metric carries its prediction: which end-to-end
    # metric it should move, on which workload.
    end_names = {m.name for m in metrics.END_TO_END}
    for metric in metrics.PER_LAYER:
        moved, _, where = metric.moves.partition(" on ")
        assert moved in end_names and where in workloads.WORKLOADS, metric


def test_equal_seeds_replay_the_same_ops():
    for workload in workloads.WORKLOADS.values():
        first = workloads.OpStream(workload, 7)
        again = workloads.OpStream(workload, 7)
        other = workloads.OpStream(workload, 8)
        assert first.crc == again.crc != other.crc
        assert [next(first) for _ in range(5000)] == [next(again) for _ in range(5000)]


def test_replicas_see_neither_seed_nor_workload_name():
    assert not {"seed", "workload", "name"} & set(rig.ReplicaSpec.__dataclass_fields__)
    for workload in workloads.WORKLOADS.values():
        spec = rig.ReplicaSpec(
            "r0", {"r0": 1, "r1": 2, "r2": 3}, workload.make_config(),
            workload.payload, None, False, False, None,
        )
        assert workload.name.encode() not in pickle.dumps(spec)


def _child_pids() -> list[int]:
    """Every live child of this process, the ones multiprocessing does not
    list (its resource tracker) included."""
    children = []
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(") ", 1)[1].split()
        except OSError:
            continue  # ended while we looked
        if int(fields[1]) == os.getpid() and fields[0] != "Z":
            children.append(int(stat.parent.name))
    return children


def _assert_clean() -> None:
    assert multiprocessing.active_children() == []
    assert not rig.WORK_ROOT.exists() or not any(rig.WORK_ROOT.iterdir())


def test_direct_workload_emits_every_declared_metric(declared):
    workload = workloads.WORKLOADS["direct_small_update"]
    untraced = loadgen.run_pass(workload, 3, 0.5, setup_repeats=1)
    assert untraced.wrong == 0 and untraced.failed == 0 and untraced.verify_failed == 0
    values = metrics.end_to_end(untraced)
    assert list(values) == [m["name"] for m in declared["end_to_end"]]
    assert all(value > 0 for value in values.values())
    traced = loadgen.run_pass(workload, 3, 0.5, traced=True, setup_repeats=1)
    layers = metrics.per_layer(traced, metrics.ops_per_s(untraced))
    assert list(layers) == [m["name"] for m in declared["per_layer"]]
    assert layers["core.self_us_per_op"] > 0
    # No codec, no sockets, no disk under the in-process pump.
    for name, value in layers.items():
        if name.startswith(("wire.", "net.", "storage.")):
            assert value == 0, name
    _assert_clean()


@pytest.mark.skipif(not rig.sockets_available(), reason="no loopback sockets")
def test_socket_workload_emits_every_declared_metric(declared):
    workload = workloads.WORKLOADS["sock_small_update"]
    children_before = set(_child_pids())  # earlier tests' leftovers, if any
    result = loadgen.run_pass(workload, 3, 1.0, setup_repeats=1)
    assert result.wrong == 0 and result.verify_failed == 0, result.verify_notes
    values = metrics.end_to_end(result)
    assert list(values) == [m["name"] for m in declared["end_to_end"]]
    assert all(value > 0 for value in values.values())
    assert result.opstream_crc == workloads.OpStream(workload, 3).crc
    _assert_clean()
    assert set(_child_pids()) <= children_before
