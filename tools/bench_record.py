"""Record paired benchmark runs of two or more source trees in one JSON file.

    python3 tools/bench_record.py --out BENCH_11.json --seconds 20 \\
        --workload analysis=1101-1110 --workload solve-wide=1121,1122,1123 \\
        parent=../parent change=.

Each SIDE=ROOT names a repository root holding ``perfbench/run.py`` and the
``src`` tree it measures. For every workload and seed, each side runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` (the
end-to-end metrics) in its own root, one after another; the side that runs
first alternates from seed to seed. The file is rewritten after every run.
It holds the environment stamp of each side, the seeds, every run's
metrics, and each side's median and quartiles per metric. With two sides it
also counts, per metric, the seeds on which the second side reads better
than the first, by the direction that ``BENCHMARK.json`` gives the metric.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SCHEMA = 1


def parse_seeds(text: str) -> list[int]:
    """``1101-1110`` or ``5,9,12`` (or a mix) as a list of ints."""
    seeds = []
    for item in text.split(","):
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _git(root: Path, *args) -> str | None:
    proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def side_stamp(root: Path) -> dict:
    """The commit a side was measured at; ``dirty`` marks uncommitted edits.
    Both are null for a tree that is not a git checkout."""
    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no") if commit else None
    return {"commit": commit, "dirty": bool(status) if commit else None}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[len("# env "):]) for line in lines if line.startswith("# env "))
    env.pop("seed")
    result = json.loads(lines[-1])
    return {
        "env": env,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summarise(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(record: dict, sides: list[str], better: dict) -> dict:
    runs = record["runs"]
    out = {}
    for side in sides:
        mine = [r for r in runs if r["side"] == side]
        names = mine[0]["metrics"] if mine else {}
        out[side] = {name: summarise([r["metrics"][name] for r in mine]) for name in names}
    if len(sides) == 2 and all(out.values()):
        first, second = sides
        by_seed = {(r["side"], r["seed"]): r["metrics"] for r in runs}
        seeds = [s for s in record["seeds"] if (first, s) in by_seed and (second, s) in by_seed]
        wins = {}
        for name, direction in better.items():
            sign = 1 if direction == "higher" else -1
            diffs = [sign * (by_seed[second, s][name] - by_seed[first, s][name]) for s in seeds]
            wins[name] = {"better": sum(d > 0 for d in diffs),
                          "worse": sum(d < 0 for d in diffs), "pairs": len(diffs)}
        out["wins"] = {"side": second, "against": first, "metrics": wins}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sides", nargs="+", metavar="SIDE=ROOT")
    parser.add_argument("--workload", action="append", required=True, metavar="NAME=SEEDS")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    roots = {}
    for item in args.sides:
        side, sep, root = item.partition("=")
        if not sep or not side or side in roots:
            parser.error(f"expected distinct SIDE=ROOT, got {item!r}")
        roots[side] = Path(root).resolve()
    plan = []
    for item in args.workload:
        name, sep, seeds = item.partition("=")
        if not sep:
            parser.error(f"expected NAME=SEEDS, got {item!r}")
        plan.append((name, parse_seeds(seeds)))

    spec = json.loads((next(iter(roots.values())) / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = list(roots)
    doc = {
        "schema": SCHEMA,
        "command": "perfbench/run.py",
        "seconds": args.seconds,
        "platform": platform.platform(),
        "sides": {side: {**side_stamp(root), "env": None} for side, root in roots.items()},
        "workloads": {},
    }
    for name, seeds in plan:
        record = doc["workloads"][name] = {"seeds": seeds, "runs": [], "summary": {}}
        for k, seed in enumerate(seeds):
            for first, side in enumerate(sides if k % 2 == 0 else sides[::-1]):
                run = run_once(roots[side], name, seed, args.seconds)
                doc["sides"][side]["env"] = run.pop("env")
                record["runs"].append({"side": side, "seed": seed, "first": first == 0, **run})
                record["summary"] = summary(record, sides, better)
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
                print(f"{name} seed {seed} {side}: " + json.dumps(run["metrics"]), flush=True)


if __name__ == "__main__":
    main()
