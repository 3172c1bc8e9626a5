"""Alternating parent/change pairs of one ``perf/`` workload.

The ROADMAP's rule of engagement for a performance claim, as a script::

    python3 benchmarks/ab_pairs.py <parent-checkout> <change-checkout> \\
        --workload sock_durable_zipf [--pairs 10] [--seed 0]

Each pair runs ``python3 perf/run.py --workload W --seed S --trace 0`` once
in each checkout (its own ``perf/`` and ``src/``), alternating which side
goes first so drift in the box's speed lands on both.  Per end-to-end metric
of the change checkout's ``BENCHMARK.json`` it prints both medians, both
quartile spreads, wins/pairs (ties count for neither side) and two verdicts:

* ``gain`` — the choosing-metrics §8 rule: the change wins at least nine
  tenths of the pairs *and* the medians differ, in the metric's better
  direction, by more than the distance between the parent's quartiles;
* ``worse`` — the change's median is worse than the parent's by more than
  the metric's declared bound (``unresolved`` when the parent's own quartile
  spread is wider than that bound and the runs overlap).

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


def run_once(checkout: pathlib.Path, workload: str, seed: int) -> dict | None:
    """One untraced pass in ``checkout``; None when it failed outright."""
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Medians, spreads, wins and the two verdicts for one metric."""
    higher = metric["better"] == "higher"
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    improvement = (c_med - p_med) if higher else (p_med - c_med)
    spread = p_q3 - p_q1
    gain = wins >= 0.9 * len(parent) and improvement > spread
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with open(sides["change"] / "BENCHMARK.json", encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    samples: dict[str, dict[str, list[float]]] = {
        side: {m["name"]: [] for m in metrics} for side in sides
    }
    failed = 0
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        results = {side: run_once(sides[side], args.workload, args.seed)
                   for side in order}
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
        print(f"pair {pair + 1}/{args.pairs} ({order[0]} first): {shown} "
              f"{results['parent']['metrics'][shown]['value']:.4g} -> "
              f"{results['change']['metrics'][shown]['value']:.4g}", flush=True)

    kept = len(samples["parent"][metrics[0]["name"]])
    if kept == 0:
        print("no pair completed")
        return 1
    print(f"\n{args.workload} seed {args.seed}: {kept} pairs kept, {failed} dropped")
    print(f"{'metric':18s} {'parent med (q1..q3)':>34s} {'change med (q1..q3)':>34s} "
          f"{'wins':>6s} {'gain':>5s} {'worse':>10s}")
    for m in metrics:
        row = judge(m, samples["parent"][m["name"]], samples["change"][m["name"]])
        cells = ["{:.5g} ({:.5g}..{:.5g})".format(*row[side])
                 for side in ("parent", "change")]
        print(f"{m['name']:18s} {cells[0]:>34s} {cells[1]:>34s} "
              f"{row['wins']:>3d}/{kept:<2d} {'yes' if row['gain'] else 'no':>5s} "
              f"{row['worse']:>10s}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
