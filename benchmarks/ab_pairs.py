"""Alternating parent/change pairs of the ``perf/`` workloads.

The ROADMAP's rule of engagement for a performance claim, as a script::

    python3 benchmarks/ab_pairs.py <parent-checkout> <change-checkout> \\
        --workload sock_small_update,direct_small_update [--pairs 10] \\
        [--seed 0] [--layers net.,wire.]

``--workload`` takes one name, a comma list, or ``all`` (every workload the
change checkout's ``BENCHMARK.json`` declares), and prints one table per
workload — so the claimed row and the must-not-move rows are one command.

Each pair runs ``python3 perf/run.py --workload W --seed S --trace 0`` once
in each checkout (its own ``perf/`` and ``src/``), alternating which side
goes first so drift in the box's speed lands on both.  Per end-to-end metric
of the change checkout's ``BENCHMARK.json`` it prints both medians, both
quartile spreads, wins/pairs (ties count for neither side) and two verdicts:

* ``gain`` — the choosing-metrics §8 rule: the change wins at least nine
  tenths of the pairs *run* (a pair dropped for a failed or incorrect run
  is a non-win) *and* the medians differ, in the metric's better
  direction, by more than the distance between the parent's quartiles;
* ``worse`` — the change's median is worse than the parent's by more than
  the metric's declared bound (``unresolved`` when the parent's own quartile
  spread is wider than that bound and the runs overlap).

``--layers PREFIX[,PREFIX]`` adds, after a workload's pairs, one
``--trace 1`` pass per side and prints parent → change for every per-layer
metric whose name starts with one of the prefixes: where the saving sits,
not whether there is one (a single traced run each — attribution, no verdict).

Exit status is 1 if any run failed or graded ``correct: false``, else 0; the
verdicts are for the reader, not the exit code.  Run nothing else alongside.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def run_once(
    checkout: pathlib.Path, workload: str, seed: int, trace: int = 0
) -> dict | None:
    """One pass in ``checkout``; None when it failed outright."""
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def parse_workloads(spec: str, declared: list[str]) -> list[str]:
    """``all``, one name or a comma list -> names, in the order given."""
    names = declared if spec == "all" else [n for n in spec.split(",") if n]
    unknown = [name for name in names if name not in declared]
    if unknown or not names:
        raise ValueError(
            f"unknown workload(s) {unknown or spec!r}; BENCHMARK.json declares "
            + ", ".join(declared)
        )
    return names


def layer_rows(
    parent: dict, change: dict, prefixes: list[str]
) -> list[tuple[str, float, float]]:
    """(name, parent value, change value) for every per-layer metric both
    traced results report whose name starts with one of ``prefixes``."""
    return [
        (name, cell["value"], change["metrics"][name]["value"])
        for name, cell in parent["metrics"].items()
        if name.startswith(tuple(prefixes)) and name in change["metrics"]
    ]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(
    metric: dict, parent: list[float], change: list[float], runs: int
) -> dict:
    """Medians, spreads, wins and the two verdicts for one metric.

    ``parent``/``change`` hold the kept pairs; ``runs`` is how many pairs
    were run, kept or not."""
    higher = metric["better"] == "higher"
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    improvement = (c_med - p_med) if higher else (p_med - c_med)
    spread = p_q3 - p_q1
    gain = wins >= 0.9 * runs and improvement > spread
    all_better = (min(change) > max(parent)) if higher else (max(change) < min(parent))
    worse = "no"
    if p_med and spread / abs(p_med) > metric["bound"] and not all_better:
        worse = "unresolved"
    elif p_med and -improvement / abs(p_med) > metric["bound"]:
        worse = "YES"
    return {
        "parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
        "wins": wins, "gain": gain, "worse": worse,
    }


def compare(
    sides: dict[str, pathlib.Path], workload: str, metrics: list[dict],
    pairs: int, seed: int, layers: list[str],
) -> int:
    """Run and print one workload's table; returns how many runs failed."""
    samples: dict[str, dict[str, list[float]]] = {
        side: {m["name"]: [] for m in metrics} for side in sides
    }
    failed = 0
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        results = {side: run_once(sides[side], workload, seed) for side in order}
        bad = [side for side, result in results.items()
               if result is None or not result["correct"]]
        if bad:
            failed += 1
            print(f"pair {pair + 1}: {'/'.join(bad)} failed or graded incorrect "
                  "— pair dropped", flush=True)
            continue
        for side, result in results.items():
            for m in metrics:
                samples[side][m["name"]].append(result["metrics"][m["name"]]["value"])
        shown = metrics[0]["name"]
        print(f"pair {pair + 1}/{pairs} ({order[0]} first): {shown} "
              f"{results['parent']['metrics'][shown]['value']:.4g} -> "
              f"{results['change']['metrics'][shown]['value']:.4g}", flush=True)

    kept = len(samples["parent"][metrics[0]["name"]])
    if kept == 0:
        print(f"\n{workload}: no pair completed")
        return failed
    print(f"\n{workload} seed {seed}: {kept} pairs kept, {failed} dropped")
    print(f"{'metric':18s} {'parent med (q1..q3)':>34s} {'change med (q1..q3)':>34s} "
          f"{'wins':>6s} {'gain':>5s} {'worse':>10s}")
    for m in metrics:
        row = judge(m, samples["parent"][m["name"]], samples["change"][m["name"]],
                    pairs)
        cells = ["{:.5g} ({:.5g}..{:.5g})".format(*row[side])
                 for side in ("parent", "change")]
        print(f"{m['name']:18s} {cells[0]:>34s} {cells[1]:>34s} "
              f"{row['wins']:>3d}/{pairs:<2d} {'yes' if row['gain'] else 'no':>5s} "
              f"{row['worse']:>10s}")
    if layers:
        traced = {side: run_once(sides[side], workload, seed, trace=1)
                  for side in sides}
        if None in traced.values():
            print(f"{workload}: a traced run failed — no per-layer rows")
            return failed + 1
        print(f"\n{workload} seed {seed}, one traced run per side:")
        for name, before, after in layer_rows(
            traced["parent"], traced["change"], layers
        ):
            print(f"{name:30s} {before:>12.5g} -> {after:<12.5g}")
    return failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", required=True,
                        help="one name, a comma list, or 'all'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--layers", default="",
                        help="per-layer metric prefixes for one traced run "
                             "per side, e.g. net.,wire.")
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with open(sides["change"] / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    try:
        workloads = parse_workloads(
            args.workload, [w["name"] for w in declared["workloads"]]
        )
    except ValueError as exc:
        parser.error(str(exc))
    layers = [prefix for prefix in args.layers.split(",") if prefix]
    failed = 0
    for workload in workloads:
        failed += compare(sides, workload, declared["end_to_end"],
                          args.pairs, args.seed, layers)
        print(flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
