"""Time exhaustive ``dsrip`` per design in two source trees, interleaved.

    python3 tools/dsrip_timing.py parent=../parent change=.

Each SIDE=ROOT names a repository root holding the ``src`` tree to time.
The designs are those of ``identity_check``: its ``DSRIP_GRIDS`` x
``DESIGNS``, then its ``CHUNKED_GRIDS`` (enumerations whose column sets
span several chunks of the prefix pass) on Gaussian designs with n = 100,
with 4 seeds per grid and kind. In each of 12 rounds, each side runs
this script once more as a worker, in a fresh subprocess with
``PYTHONPATH=ROOT/src`` and BLAS on 1 thread, and the side that goes first
alternates from round to round. A worker makes one warm-up call per
design and then times 5 more, and prints their median. A design's time
on a side is its best round.

Per grid and design kind, the script prints each side's median time over
the designs and the median and the largest ratio of the second side's
time to the first's. Run on an otherwise idle host. A shared host can
slow every process at once, in bursts that start and end mid-process, so
only paired runs that alternate between the two trees, as here, can
compare them, and a ratio is to be trusted only when it repeats across
runs: on a 2-vCPU host, a run with the same tree on both sides kept 92 of
96 median ratios within 0.95-1.05 (all within 0.94-1.08).
"""

from __future__ import annotations

import json
import statistics
import sys

from identity_check import (CHUNKED_GRIDS, DESIGNS, DSRIP_GRIDS, design, gaussian,
                            parse_sides, run_side)

SEEDS = range(4)
ROUNDS = 12
CALLS = 5
CHUNKED = "gaussian_n100"  # the kind of the CHUNKED_GRIDS rows
ROWS = ([(grid, kind) for grid in DSRIP_GRIDS for kind in DESIGNS]
        + [(grid, CHUNKED) for grid in CHUNKED_GRIDS])


def worker():
    from time import perf_counter

    from doublesparse import diagnostics

    times = {}
    for grid, kind in ROWS:
        for seed in SEEDS:
            if kind == CHUNKED:
                X = gaussian(grid[0] * grid[1], seed)
            else:
                X = design(kind, *grid, seed)
            diagnostics.dsrip(X, *grid)  # warm-up
            calls = []
            for _ in range(CALLS):
                t0 = perf_counter()
                diagnostics.dsrip(X, *grid)
                calls.append(perf_counter() - t0)
            times[f"{grid}/{kind}/{seed}"] = statistics.median(calls)
    json.dump(times, sys.stdout)


def main(argv=None) -> int:
    is_worker, roots = parse_sides(argv, __doc__.splitlines()[0])
    if is_worker:
        worker()
        return 0
    sides = list(roots.items())
    best = {side: {} for side in roots}
    for round_ in range(ROUNDS):
        for side, root in sides if round_ % 2 == 0 else sides[::-1]:
            for name, t in run_side(root, __file__).items():
                best[side][name] = min(t, best[side].get(name, t))
        print(f"round {round_ + 1} of {ROUNDS} done", file=sys.stderr)
    a, b = roots
    print(f"| grid (m,d,s,s0) | kind | {a} ms | {b} ms | median {b}/{a} | largest {b}/{a} |")
    print("|---|---|---:|---:|---:|---:|")
    for grid, kind in ROWS:
        names = [f"{grid}/{kind}/{seed}" for seed in SEEDS]
        first = [best[a][name] for name in names]
        second = [best[b][name] for name in names]
        ratios = [y / x for x, y in zip(first, second)]
        print(f"| {grid} | {kind} | {1e3 * statistics.median(first):.2f} "
              f"| {1e3 * statistics.median(second):.2f} "
              f"| {statistics.median(ratios):.3f} | {max(ratios):.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
