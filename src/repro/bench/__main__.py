"""Command-line benchmark harness: ``python -m repro.bench <figure>``.

Regenerates any figure of the paper's evaluation (or the extra
experiments) and prints the result table, e.g.::

    python -m repro.bench fig3                 # quick scale
    python -m repro.bench fig1 --scale full    # the paper's grid
    python -m repro.bench overhead ablations   # several at once
    python -m repro.bench all --seed 7

These are simulator runs of the paper's figures.  Performance on real
sockets, processes and disks is measured by ``perf/`` (``python3
perf/run.py --workload <name>``, workloads declared in ``BENCHMARK.json``)
and compared across commits with ``benchmarks/ab_pairs.py``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable

from repro.bench import ablations as _ablations
from repro.bench import fig1 as _fig1
from repro.bench import fig2 as _fig2
from repro.bench import fig3 as _fig3
from repro.bench import fig4 as _fig4
from repro.bench import overhead as _overhead

Runner = Callable[[str | None, int], str]


def _run_fig1(scale: str | None, seed: int) -> str:
    return _fig1.render_fig1(_fig1.run_fig1(scale=scale, seed=seed))


def _run_fig2(scale: str | None, seed: int) -> str:
    return _fig2.render_fig2(_fig2.run_fig2(scale=scale, seed=seed))


def _run_fig3(scale: str | None, seed: int) -> str:
    return _fig3.render_fig3(_fig3.run_fig3(scale=scale, seed=seed))


def _run_fig4(scale: str | None, seed: int) -> str:
    return _fig4.render_fig4(_fig4.run_fig4(scale=scale, seed=seed))


def _run_overhead(scale: str | None, seed: int) -> str:
    segments = 10 if scale == "full" else 6
    return _overhead.render_overhead(
        _overhead.run_overhead(segments=segments, seed=seed)
    )


def _run_ablations(scale: str | None, seed: int) -> str:
    duration = 4.0 if scale == "full" else 1.5
    return _ablations.render_ablations(
        _ablations.run_ablations(duration=duration, seed=seed)
    )


EXPERIMENTS: dict[str, Runner] = {
    "fig1": _run_fig1,
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "overhead": _run_overhead,
    "ablations": _run_ablations,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which experiment(s) to run",
    )
    parser.add_argument(
        "--scale",
        choices=["quick", "full"],
        default=None,
        help="grid size (default: REPRO_BENCH_SCALE or 'quick')",
    )
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    args = parser.parse_args(argv)

    names = sorted(EXPERIMENTS) if "all" in args.experiments else args.experiments
    for name in names:
        started = time.time()
        table = EXPERIMENTS[name](args.scale, args.seed)
        elapsed = time.time() - started
        print(table)
        print(f"[{name}: {elapsed:.1f}s wall]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
