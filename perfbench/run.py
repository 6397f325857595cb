"""Benchmark of the doublesparse package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or ``all``) from the repository's ``src`` tree, checks
every output and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it start
with ``#`` and carry the environment stamp, each metric by name with its
unit, and the computed kernel figures.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
the run records spans around every call into the package's public functions
(the sweep then runs at jobs=1) and the metrics are per-layer self times and
counts, plus the tracing overhead: the first operation of the last round
timed traced minus the same operation timed again untraced. Load comes from
this one process; BLAS runs
on one thread and the sweep's two worker processes are the only parallelism.

A run makes ``ROUNDS`` rounds. Each round sets up a fresh instance from the
seed (timed as set-up) and then runs the workload's operation back to back
for ``seconds / ROUNDS`` seconds, and at least once on each distinct input.
"""

from __future__ import annotations

import os

# must precede the first numpy import, here and in the sweep's workers
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "doublesparse" / "__init__.py").is_file():
    sys.exit(f"perfbench: no package source at {ROOT / 'src' / 'doublesparse'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import doublesparse  # noqa: E402
from doublesparse import bounds, diagnostics, estimators, harness, simulate, threshold  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

ROUNDS = 3
WORKDIR = ROOT / ".perfbench_work"

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def _count_solve(counts, args, kwargs, result):
    trace = result[1]
    counts["solves"] += 1
    counts["iterations"] += trace.iterations
    if trace.errors:
        err = trace.errors[-2] if len(trace.errors) >= 2 else trace.errors[-1]
        counts["sq_error"] += err * err
        counts["bound_checked"] += len(trace.bound_held)
        counts["bound_held"] += sum(trace.bound_held)


def _count_threshold(counts, args, kwargs, result):
    counts["threshold_calls"] += 1
    counts["active"] += len(result.active_set)
    counts["entries"] += args[0].p


def _count_dsrip(counts, args, kwargs, result):
    counts["dsrip_supports"] += result.trials or workloads.support_count(*args[1:5])


def _count_elements(counts, args, kwargs, result):
    counts["elements"] += len(result.elements)


def _count_replicate(counts, args, kwargs, result):
    counts["replicates"] += 1


# (module, attribute, span name, self-time metric, counter); core's support
# helpers are traced where estimators calls them
TRACED = [
    (simulate, "gen_design", "simulate.gen_design", "simulate.gen_design_s", None),
    (simulate, "gen_signal", "simulate.gen_signal", "simulate.gen_signal_s", None),
    (simulate, "gen_regression", "simulate.gen_regression", "simulate.gen_regression_s", None),
    (estimators, "dsiht", "estimators.dsiht", "estimators.self_s", _count_solve),
    (estimators, "dsiht_heterogeneous", "estimators.dsiht_heterogeneous",
     "estimators.self_s", _count_solve),
    (estimators, "default_lambda0", "estimators.default_lambda0", "estimators.self_s", None),
    (estimators, "default_lambda_inf", "estimators.default_lambda_inf",
     "estimators.self_s", None),
    (estimators, "support_of", "core.support_of", "core.support_s", None),
    (estimators, "excess_support", "core.excess_support", "core.support_s", None),
    (threshold, "apply", "threshold.apply", "threshold.apply_s", _count_threshold),
    (threshold, "apply_heterogeneous", "threshold.apply_heterogeneous",
     "threshold.apply_heterogeneous_s", _count_threshold),
    (threshold, "step1_entrywise", "threshold.step1_entrywise", "threshold.step1_s", None),
    (threshold, "step2_matrix", "threshold.step2_matrix", "threshold.step2_s", None),
    (harness, "run_sweep", "harness.run_sweep", "harness.run_sweep_s", None),
    (harness, "run_one", "harness.run_one", "harness.run_one_s", _count_replicate),
    (harness, "summarize", "harness.summarize", "harness.summarize_s", None),
    (harness, "emit", "harness.emit", "harness.emit_s", None),
    (diagnostics, "dsrip", "diagnostics.dsrip", "diagnostics.dsrip_s", _count_dsrip),
    (bounds, "build_khatri_rao_packing", "bounds.build_khatri_rao_packing",
     "bounds.build_s", _count_elements),
    (bounds, "gv_sphere_packing", "bounds.gv_sphere_packing",
     "bounds.gv_sphere_packing_s", None),
    (bounds, "gv_qary_code", "bounds.gv_qary_code", "bounds.gv_qary_code_s", None),
    (bounds, "_min_distance_exact", "bounds._min_distance_exact", "bounds.verify_s", None),
    (bounds, "rate_hard", "bounds.rate_hard", "bounds.rates_s", None),
    (bounds, "sphere_packing_bound", "bounds.sphere_packing_bound", "bounds.rates_s", None),
    (bounds, "qary_code_bound", "bounds.qary_code_bound", "bounds.rates_s", None),
]
ROOT_SPAN = "bench"

# unit of every per-layer metric, in print order
PER_LAYER = {
    **{metric: "s" for *_, metric, _ in TRACED},
    "bench.self_s": "s",
    "estimators.iterations": "count",
    "estimators.matvec_ms": "ms",
    "estimators.validate_ms": "ms",
    "estimators.sq_error_mean": "sq",
    "estimators.bound_held_share": "ratio",
    "threshold.calls": "count",
    "threshold.kept_ratio": "ratio",
    "harness.replicates": "count",
    "harness.parallel_efficiency": "ratio",
    "diagnostics.supports": "count",
    "diagnostics.us_per_support": "us",
    "bounds.elements": "count",
    "bounds.packing_build_s": "s",
    "trace.wall_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "computed.flops_per_iter": "flop",
    "computed.bytes_per_iter": "B",
    "computed.ops_per_byte": "flop/B",
    "computed.tiecount_bytes": "B",
    "computed.trace_iterate_bytes": "B",
}


class Measurement:
    def __init__(self):
        self.setup_s = []
        self.ops = []  # (round, k, seconds)
        self.items = 0
        self.item_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.exact = collections.Counter()  # counters over each distinct input's first op
        self.instance = None


def measure(wl, seed, seconds, tracer=None) -> Measurement:
    res = Measurement()
    inst = None
    for rnd in range(ROUNDS):
        inst = res.instance = None  # release the previous round's inputs first
        t0 = perf_counter()
        inst = wl.setup(seed, rnd)
        res.setup_s.append(perf_counter() - t0)
        res.instance = inst
        distinct = wl.distinct_inputs(inst)
        start = perf_counter()
        k = 0
        while k < distinct or perf_counter() - start < seconds / ROUNDS:
            before = collections.Counter(tracer.counts) if tracer and k < distinct else None
            res.attempted += 1
            try:
                t0 = perf_counter()
                out, items, item_s = wl.op(inst, k)
                elapsed = perf_counter() - t0
                problems = wl.check(inst, k, out)
            except Exception:  # a failing operation is counted, not fatal
                traceback.print_exc()
                problems, elapsed = ["raised"], None
            if problems:
                res.failed += 1
                print(f"# FAILED {wl.name} round {rnd} op {k}: {'; '.join(problems)}",
                      file=sys.stderr)
            if elapsed is not None:
                res.ops.append((rnd, k, elapsed))
                res.items += items
                res.item_seconds += item_s
            if before is not None:
                res.exact.update(tracer.counts - before)
            k += 1
    return res


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(res: Measurement) -> dict:
    times = [t for *_, t in res.ops]
    return {
        "setup_s": statistics.median(res.setup_s),
        "op_s_p50": statistics.median(times) if times else 0.0,
        "items_per_s": _ratio(res.items, res.item_seconds),
        "peak_rss_mb": peak_rss_mb(),
        "ok_ratio": (res.attempted - res.failed) / res.attempted,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(wl, res: Measurement, tracer: Tracer, overhead_s, efficiency) -> dict:
    self_times = tracer.self_times()
    inclusive = tracer.inclusive_times()
    out = {metric: 0.0 for *_, metric, _ in TRACED}
    for _, _, span, metric, _ in TRACED:
        out[metric] += self_times.get(span, 0.0)
    out["bench.self_s"] = self_times[ROOT_SPAN]
    unmapped = set(self_times) - {span for _, _, span, *_ in TRACED} - {ROOT_SPAN}
    if unmapped:
        raise RuntimeError(f"spans without a layer: {sorted(unmapped)}")

    exact, total = res.exact, tracer.counts
    ops = len(res.ops)
    out.update({
        "estimators.iterations": exact["iterations"],
        "estimators.sq_error_mean": _ratio(exact["sq_error"], exact["solves"]),
        "estimators.bound_held_share": _ratio(exact["bound_held"], exact["bound_checked"]),
        "threshold.calls": exact["threshold_calls"],
        "threshold.kept_ratio": _ratio(exact["active"], exact["entries"]),
        "harness.replicates": exact["replicates"],
        "harness.parallel_efficiency": efficiency,
        "diagnostics.supports": exact["dsrip_supports"],
        "diagnostics.us_per_support": 1e6 * _ratio(
            self_times.get("diagnostics.dsrip", 0.0), total["dsrip_supports"]
        ),
        "bounds.elements": exact["elements"],
        "bounds.packing_build_s": _ratio(
            inclusive.get("bounds.build_khatri_rao_packing", 0.0), ops
        ),
        "trace.wall_s": inclusive[ROOT_SPAN],
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": overhead_s,
        "estimators.matvec_ms": 0.0,
        "estimators.validate_ms": 0.0,
    })
    out.update(wl.standalone(res.instance))
    out.update(computed_kernel(wl, exact))
    return {name: out[name] for name in PER_LAYER}


def computed_kernel(wl, exact) -> dict:
    """Figures computed from array sizes, not measured: one iteration's two
    dense products X @ beta and X.T @ r (2np flops and 8np bytes each), the
    threshold's d x d x m boolean tie-count temporary, and the p (T+1) float
    iterates a solve's trace keeps."""
    sizes = wl.kernel_sizes()
    if sizes is None:
        return {name: 0.0 for name in PER_LAYER if name.startswith("computed.")}
    n, p, d, m = sizes
    mean_iterations = _ratio(exact["iterations"], exact["solves"])
    return {
        "computed.flops_per_iter": 4.0 * n * p,
        "computed.bytes_per_iter": 16.0 * n * p,
        "computed.ops_per_byte": 0.25,
        "computed.tiecount_bytes": float(d * d * m),
        "computed.trace_iterate_bytes": 8.0 * p * (mean_iterations + 1),
    }


def run_traced(wl, seed, seconds):
    tracer = Tracer()
    for module, attr, span, _, count in TRACED:
        tracer.wrap(module, attr, span, count)
    try:
        with tracer.span(ROOT_SPAN):
            res = measure(wl, seed, seconds, tracer)
    finally:
        tracer.unwrap_all()

    # tracing overhead: the first op of the last round again, untraced
    traced = next((t for rnd, k, t in res.ops if rnd == ROUNDS - 1 and k == 0), None)
    overhead_s = 0.0
    if traced is not None:
        t0 = perf_counter()
        wl.op(res.instance, 0)
        overhead_s = traced - (perf_counter() - t0)

    efficiency = 0.0
    if isinstance(wl, workloads.Sweep):
        # sum of replicate times over jobs x wall, from one untraced parallel op
        wl.jobs = workloads.SWEEP_JOBS
        t0 = perf_counter()
        out, _, _ = wl.op(res.instance, 0)
        wall = perf_counter() - t0
        busy = sum(rec.wall_time_s for _, records in out.values() for rec in records)
        efficiency = busy / (wl.jobs * wall)
    return res, per_layer(wl, res, tracer, overhead_s, efficiency)


def environment(seed) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "doublesparse": doublesparse.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "sweep_jobs": workloads.SWEEP_JOBS,
        "seed": seed,
    }


def run_workload(name, seed, seconds, trace) -> dict:
    wl = workloads.build(WORKDIR)[name]
    print("# env " + json.dumps(environment(seed)))
    if trace:
        if isinstance(wl, workloads.Sweep):
            wl.jobs = 1  # keep every span in this process
        res, metrics = run_traced(wl, seed, seconds)
        units = PER_LAYER
    else:
        res = measure(wl, seed, seconds)
        metrics, units = end_to_end(res), END_TO_END
    for name_, value in metrics.items():
        label = " (computed)" if name_.startswith("computed.") else ""
        print(f"# {name} {name_} = {value:.6g} {units[name_]}{label}")
    print(f"# {name} attempted {res.attempted}, failed {res.failed}, op seconds "
          + " ".join(f"{t:.4f}" for *_, t in res.ops))
    return {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.build(WORKDIR):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.build(WORKDIR), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
