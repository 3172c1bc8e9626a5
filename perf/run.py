"""The benchmark's one command.

``python3 perf/run.py --seed 0`` runs the ledger: every workload untraced
for the end-to-end metrics, then a shorter traced pass for the per-layer
metrics, prints every metric by name with its unit, verifies outputs and
writes ``perf/results/latest.json``.  ``--workload NAME`` narrows it to one.

``--workload NAME --trace 0|1`` is the form a driver calls: one workload,
one pass, and as the last line of standard output one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every end-to-end
metric (``--trace 0``) or every per-layer metric (``--trace 1``).

``--check-agreement`` runs two untraced sets back to back and fails if any
metric differs between them by more than its declared bound.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def _import_benchmark():
    """The benchmark's modules, importable however the script was started.
    The replica processes are spawned with this ``sys.path``."""
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    try:
        from perf import loadgen, metrics, rig, workloads
    except ImportError as exc:
        sys.exit(f"perf: the program under test is not importable from {ROOT}: {exc}")
    return loadgen, metrics, rig, workloads


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _trace_path(name: str) -> str:
    RESULTS.mkdir(parents=True, exist_ok=True)
    return str(RESULTS / f"trace-{name}.jsonl")


def _merge_trace_parts(path: str) -> None:
    """One file per workload: the processes each wrote their own part."""
    parts = sorted(pathlib.Path(path).parent.glob(pathlib.Path(path).name + ".*"))
    with open(path, "wb") as out:
        for part in parts:
            out.write(part.read_bytes())
            part.unlink()


def measure(name: str, seed: int, seconds: float, trace: bool,
            reference=None) -> dict:
    """Run one workload once and return its metrics with bookkeeping.

    Untraced: a ``seconds`` window, the end-to-end metrics.  Traced: a
    ``seconds / 2`` window with the tracer installed, the per-layer metrics;
    the untraced throughput the overhead ratio needs comes from
    ``reference`` (an untraced pass of the same workload) or, without one,
    from a ``seconds / 2`` untraced window run first.
    """
    loadgen, metrics, _, workloads = _import_benchmark()
    workload = workloads.WORKLOADS[name]
    passes = []
    if not trace:
        result = loadgen.run_pass(workload, seed, seconds)
        passes.append(result)
        values = metrics.end_to_end(result)
    else:
        if reference is None:
            reference = loadgen.run_pass(workload, seed, seconds / 2, setup_repeats=1)
            passes.append(reference)
        path = _trace_path(name)
        result = loadgen.run_pass(
            workload, seed, seconds / 2, traced=True, trace_path=path,
            setup_repeats=1,
        )
        _merge_trace_parts(path)
        passes.append(result)
        values = metrics.per_layer(result, metrics.ops_per_s(reference))
    notes = [note for p in passes for note in p.verify_notes]
    if not trace and result.generator_cpu_s / result.window_s >= 0.8 \
            and workload.rig == "socket":
        notes.append("generator-bound: the load generator used >= 0.8 of a core")
    return {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "correct": all(p.wrong == 0 and p.verify_failed == 0 for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed + p.wrong + p.verify_failed for p in passes),
        "opstream_crc": result.opstream_crc,
        "notes": notes,
        "metrics": {
            key: {"value": value, "unit": metrics.unit_of(key)}
            for key, value in values.items()
        },
        "pass": result,
    }


def _public(run: dict) -> dict:
    return {key: value for key, value in run.items() if key != "pass"}


def _print_metrics(run: dict) -> None:
    kind = "per-layer (traced)" if run["traced"] else "end-to-end"
    print(f"== {run['workload']} · {kind} · seed {run['seed']} · "
          f"attempted {run['attempted']} failed {run['failed']} "
          f"correct {run['correct']} · opstream_crc {run['opstream_crc']:08x}")
    for note in run["notes"]:
        print(f"   ! {note}")
    for key, entry in run["metrics"].items():
        print(f"   {key:32s} {entry['value']:14.4f} {entry['unit']}")
    sys.stdout.flush()


# ----------------------------------------------------------------------
def run_contract(args) -> int:
    if args.workload is None:
        sys.exit("perf: --trace needs --workload")
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for note in run["notes"]:
        print(f"perf: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": run["metrics"],
    }))
    return 0


#: Rows of the socket-tax table: layer, time metric (CPU us/op), and what
#: each layer moved per op.
_TABLE = [
    ("api", ["api.compile_us_per_op", "api.parse_us_per_op"], None),
    ("wire", ["wire.encode_us_per_op", "wire.decode_us_per_op"], "wire.frames_per_op"),
    ("net (residual)", ["net.cpu_us_per_op"], "net.msgs_per_op"),
    ("core", ["core.self_us_per_op"], "core.calls_per_op"),
    ("crdt", ["crdt.join_us_per_op", "crdt.apply_us_per_op",
              "crdt.delta_us_per_op"], "crdt.joins_per_op"),
    ("storage", [], "storage.puts_per_op"),
]


def _print_socket_tax(ledger: dict) -> None:
    """Per-layer us/op and bytes/op, socket stack beside the protocol floor."""
    sock, floor = ledger.get("sock_small_update"), ledger.get("direct_small_update")
    if not sock or not floor:
        return

    def value(side: dict, kind: str, key: str) -> float:
        return side[kind]["metrics"][key]["value"]

    print("== the socket tax: sock_small_update beside direct_small_update")
    print(f"   {'layer':16s} {'sock us/op':>12s} {'direct us/op':>13s} "
          f"{'sock calls/op':>14s} {'direct calls/op':>16s}")
    for layer, times, count in _TABLE:
        row = [sum(value(side, "per_layer", key) for key in times)
               for side in (sock, floor)]
        row += [value(side, "per_layer", count) if count else 0.0
                for side in (sock, floor)]
        print(f"   {layer:16s} {row[0]:12.1f} {row[1]:13.1f} {row[2]:14.2f} {row[3]:16.2f}")
    for label, kind, key in (
        ("replica+generator CPU us/op", "end_to_end", "cpu_us_per_op"),
        ("wire bytes/op", "end_to_end", "wire_bytes_per_op"),
        ("trace coverage share", "per_layer", "trace.coverage_share"),
        ("trace overhead ratio", "per_layer", "trace.overhead_ratio"),
    ):
        print(f"   {label:29s} sock {value(sock, kind, key):10.2f}   "
              f"direct {value(floor, kind, key):10.2f}")
    ratio = value(sock, "end_to_end", "cpu_us_per_op") / value(
        floor, "end_to_end", "cpu_us_per_op")
    print(f"   socket/direct cpu_us_per_op ratio: {ratio:.2f}x")


def run_ledger(args, names: list[str]) -> int:
    ledger: dict[str, dict] = {}
    ok = True
    for name in names:
        untraced = measure(name, args.seed, args.seconds, trace=False)
        _print_metrics(untraced)
        traced = measure(name, args.seed, args.seconds, trace=True,
                         reference=untraced["pass"])
        _print_metrics(traced)
        ok = ok and untraced["correct"] and traced["correct"]
        ledger[name] = {"end_to_end": _public(untraced), "per_layer": _public(traced)}
    _print_socket_tax(ledger)
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / "latest.json"
    out.write_text(json.dumps(
        {"seed": args.seed, "seconds": args.seconds, "workloads": ledger}, indent=1
    ) + "\n")
    print(f"wrote {out.relative_to(ROOT)}; correct={ok}")
    return 0 if ok else 1


def run_agreement(args, names: list[str]) -> int:
    """Two untraced sets of the same code, compared against the bounds."""
    bounds = {m["name"]: m["bound"] for m in declared()["end_to_end"]}
    sets = []
    for _ in range(2):
        sets.append({
            name: _public(measure(name, args.seed, args.seconds, trace=False))
            for name in names
        })
    rows, breaches = [], 0
    print(f"{'workload':22s} {'metric':18s} {'first':>12s} {'second':>12s} "
          f"{'rel diff':>9s} {'bound':>6s}")
    for name in names:
        for key, bound in bounds.items():
            first, second = (s[name]["metrics"][key]["value"] for s in sets)
            diff = abs(second - first) / abs(first)
            breach = diff > bound
            breaches += breach
            rows.append({"workload": name, "metric": key, "first": first,
                         "second": second, "rel_diff": diff, "bound": bound,
                         "breach": breach})
            print(f"{name:22s} {key:18s} {first:12.4f} {second:12.4f} "
                  f"{diff:9.4f} {bound:6.2f}{'  BREACH' if breach else ''}")
    correct = all(run["correct"] for s in sets for run in s.values())
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / "agreement.json"
    out.write_text(json.dumps(
        {"seed": args.seed, "seconds": args.seconds, "breaches": breaches,
         "correct": correct, "rows": rows}, indent=1
    ) + "\n")
    print(f"wrote {out.relative_to(ROOT)}; breaches={breaches} correct={correct}")
    return 0 if breaches == 0 and correct else 1


def main(argv: list[str] | None = None) -> int:
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--check-agreement", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _, _, rig, workloads = _import_benchmark()
    if set(names) != set(workloads.WORKLOADS):
        sys.exit("perf: BENCHMARK.json and perf/workloads.py name different workloads")
    if not rig.sockets_available():
        sys.exit("perf: loopback sockets are unavailable here")
    selected = [args.workload] if args.workload else names
    started = time.perf_counter()
    if args.check_agreement:
        code = run_agreement(args, selected)
    elif args.trace is not None:
        return run_contract(args)
    else:
        code = run_ledger(args, selected)
    print(f"total {time.perf_counter() - started:.1f} s")
    return code


if __name__ == "__main__":
    sys.exit(main())
