"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload at tiny sizes, untraced and traced, and checks that each
prints exactly the metrics BENCHMARK.json names, with their units; that the
traced layers' self times sum to the traced wall time; that every operation
fails when the package is deliberately broken (a perturbed estimate, a solver
that ignores its schedule, an over-reported packing distance, over-estimated
restricted eigenvalues); and that the benchmark exits non-zero, printing no
result, when the package source is missing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import run  # sets the BLAS thread environment and the import path first
import workloads
from doublesparse import bounds, diagnostics, estimators

TINY = {
    "solve-wide": workloads.Solve("solve-wide", 1, m=20, d=20, s=2, s0=3, n=200),
    "solve-deep": workloads.Solve("solve-deep", 2, m=5, d=80, s=2, s0=3, n=200),
    "sweep-mc": workloads.Sweep("sweep-mc", 3, run.WORKDIR, ns=(200, 400), replicates=3),
    "analysis": workloads.Analysis("analysis", 4, grid=(4, 4, 2, 2), n=30, mc_trials=50,
                                   packings=((8, 8, 2, 2),)),
}


# every span's self time lands in exactly one of these
SELF_TIMES = {metric for *_, metric, _ in run.TRACED} | {"bench.self_s"}


class SmokeFailure(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise SmokeFailure(message)


def run_tiny(name, trace, seed=5):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        run.main(["--workload", name, "--seed", str(seed), "--seconds", "0.05",
                  "--trace", str(trace)])
    return json.loads(buffer.getvalue().strip().splitlines()[-1])


def check_metrics(spec):
    for name in TINY:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run_tiny(name, trace)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0, f"{name}: failed on correct code")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in listed}
            expect(printed == wanted, f"{name} trace={trace}: printed {printed}, listed {wanted}")
            if trace:
                metrics = result["metrics"]
                wall = metrics["trace.wall_s"]["value"]
                summed = sum(metrics[m]["value"] for m in SELF_TIMES)
                expect(abs(wall - summed) <= 1e-9 * wall, f"{name}: self times {summed} != {wall}")
            print(f"ok  {name} trace={trace}: {len(printed)} metrics")


def perturbed_estimate(original):
    def perturbed(*args, **kwargs):
        beta_hat, trace = original(*args, **kwargs)
        return beta_hat + 1.0, trace
    return perturbed


def halved_lambda_inf(original):
    def perturbed(X, Y, budget, schedule, **kwargs):
        schedule = dataclasses.replace(schedule, lambda_inf=schedule.lambda_inf / 2)
        return original(X, Y, budget, schedule, **kwargs)
    return perturbed


def distance_plus_one(original):
    return lambda *args: original(*args) + 1


def smaller_bottom_eig(original):
    def perturbed(*args):
        u_s, l_s, degenerate = original(*args)
        return u_s, 0.99 * l_s, degenerate
    return perturbed


# (workload, [(module, attribute)], breakage): every operation must fail
CORRUPTIONS = [
    ("solve-wide", [(estimators, "dsiht")], perturbed_estimate),
    ("sweep-mc", [(estimators, "dsiht"), (estimators, "dsiht_heterogeneous")],
     perturbed_estimate),
    ("sweep-mc", [(estimators, "dsiht"), (estimators, "dsiht_heterogeneous")],
     halved_lambda_inf),
    ("analysis", [(bounds, "_min_distance_exact")], distance_plus_one),
    ("analysis", [(diagnostics, "_extreme_eigs")], smaller_bottom_eig),
]


def check_corruption():
    sweep = TINY["sweep-mc"]
    sweep.jobs = 1  # the broken functions live in this process only
    for name, targets, breakage in CORRUPTIONS:
        originals = [(module, attr, getattr(module, attr)) for module, attr in targets]
        for module, attr, original in originals:
            setattr(module, attr, breakage(original))
        try:
            result = run_tiny(name, 0)
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)
        ok_ratio = result["metrics"]["ok_ratio"]["value"]
        expect(result["failed"] == result["attempted"] and not result["correct"]
               and ok_ratio == 0.0,
               f"{name} with {breakage.__name__} passed the checks: {result}")
        print(f"ok  {name} with {breakage.__name__}: failed {result['failed']} "
              f"of {result['attempted']}")
    sweep.jobs = workloads.SWEEP_JOBS


def check_missing_source():
    bare = run.WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "analysis", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"without the package: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok  without the package source: exit {proc.returncode}")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workloads.build = lambda workdir: TINY
    run.WORKDIR.mkdir(exist_ok=True)
    try:
        check_metrics(spec)
        check_corruption()
        check_missing_source()
    except SmokeFailure as exc:
        sys.exit(f"smoke test failed: {exc}")
    print("smoke test passed")


if __name__ == "__main__":
    main()
