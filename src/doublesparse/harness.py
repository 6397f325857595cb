"""Monte-Carlo experiment runner and command-line interface.

Every replicate draws its randomness from the stream (seed, cell_index,
replicate), so results are independent of execution order and of the degree
of parallelism. Records serialize to CSV or JSON-lines with shortest
round-trip float formatting; wall time is measured but excluded from the
serialized output so that equal (seed, grid) pairs produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import bounds, diagnostics, estimators, simulate
from .core import (
    GroupedMatrix,
    NoiseModel,
    SparsityBudget,
    float_text,
    stream,
    text_float,
    vec_to_matrix,
)

__all__ = [
    "Cell",
    "ExperimentRecord",
    "SweepSummary",
    "run_cell",
    "run_sweep",
    "emit",
    "read_records",
    "main",
    "ESTIMATORS",
]

ESTIMATORS = ("dsiht", "dsiht_heterogeneous", "projection_glm", "iht_baseline")

RECORD_FIELDS = [
    "estimator",
    "cell_index",
    "replicate",
    "seed",
    "m",
    "d",
    "s",
    "s0",
    "n",
    "sigma",
    "q",
    "rq",
    "kappa",
    "lambda0",
    "lambda_inf",
    "design",
    "sq_error",
    "iterations",
    "bound_flag",
    "excess_flag",
    "rate_value",
]

_INT_FIELDS = {"cell_index", "replicate", "seed", "m", "d", "s", "s0", "n", "iterations"}
_BOOL_FIELDS = {"bound_flag", "excess_flag"}
_STR_FIELDS = {"estimator", "design"}

_BASELINE_STEPS = 50


@dataclass(frozen=True)
class Cell:
    """One Monte-Carlo cell: problem size, noise level, and solver tuning."""

    m: int
    d: int
    s: int
    s0: int
    n: int
    sigma: float
    q: float | None = None
    rq: float | None = None
    kappa: float = 0.8
    lambda0: float | None = None
    lambda_inf: float | None = None
    design: str | None = None
    magnitude: float | None = None

    @property
    def p(self) -> int:
        return self.m * self.d


@dataclass(frozen=True)
class ExperimentRecord:
    estimator: str
    cell_index: int
    replicate: int
    seed: int
    m: int
    d: int
    s: int
    s0: int
    n: int
    sigma: float
    q: float | None
    rq: float | None
    kappa: float
    lambda0: float | None
    lambda_inf: float | None
    design: str
    sq_error: float
    iterations: int
    bound_flag: bool | None
    excess_flag: bool | None
    rate_value: float
    wall_time_s: float = 0.0


@dataclass
class SweepSummary:
    cells: list = field(default_factory=list)
    slope: float | None = None
    intercept: float | None = None


def _cell_rate(cell: Cell) -> float:
    if cell.q is not None and cell.rq is not None:
        return bounds.rate_soft(
            cell.sigma, cell.n, cell.m, cell.d, cell.s, cell.q, cell.rq
        ).total
    return bounds.rate_hard(cell.sigma, cell.n, cell.m, cell.d, cell.s, cell.s0).total


def _resolve_lambda_inf(cell: Cell, magnitude: float) -> float:
    if cell.lambda_inf is not None:
        return cell.lambda_inf
    if cell.sigma > 0:
        return estimators.default_lambda_inf(
            cell.sigma, cell.n, cell.p, cell.d, cell.s, cell.s0
        )
    # noiseless: stop one geometric step below the signal magnitude so the
    # returned iterate is an exact fixed point
    return 0.9 * cell.kappa * magnitude


def _resolve_magnitude(cell: Cell) -> float:
    if cell.magnitude is not None:
        return cell.magnitude
    if cell.sigma > 0:
        # signals clear the final threshold; separates estimation error from
        # detection failure
        return 3.0 * estimators.default_lambda_inf(
            cell.sigma, cell.n, cell.p, cell.d, cell.s, cell.s0
        )
    return 1.0


def run_one(cell: Cell, cell_index: int, replicate: int, estimator: str, seed: int):
    """Run a single replicate; randomness comes from (seed, cell, replicate)."""
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; choose from {ESTIMATORS}")
    if cell.q is not None or cell.rq is not None:
        raise ValueError(
            "q/rq describe a soft (l_q-ball) signal class, but replicates draw "
            "hard-sparse signals only; soft-signal replicates are not supported"
        )
    design = cell.design or (
        "identity" if estimator == "projection_glm" else "gaussian_iid"
    )
    if estimator == "projection_glm" and design != "identity":
        raise ValueError(
            "projection_glm estimates a location model; only the identity "
            f"design is compatible, got {design!r}"
        )
    rng = stream(seed, cell_index, replicate)
    start = time.perf_counter()
    magnitude = _resolve_magnitude(cell)

    budget = SparsityBudget.hard(cell.m, cell.d, cell.s, cell.s0)
    spec = simulate.SignalSpec(budget, simulate.Constant(magnitude), sign="random")
    theta_star = simulate.gen_signal(spec, rng)
    lambda0 = lambda_inf = bound_flag = excess_flag = None

    if estimator == "projection_glm":
        Y = simulate.gen_glm(theta_star, NoiseModel(cell.sigma, cell.n), rng)
        theta_hat = estimators.project_double_sparse(Y, cell.s, cell.s0)
        sq_error = float(np.sum((theta_hat.values - theta_star.values) ** 2))
        iterations = 1
    else:
        beta_star = theta_star.values.reshape(-1, order="F")
        kind = "identity_scaled" if design == "identity" else design
        X = simulate.gen_design(cell.n, cell.p, kind, rng)
        Y = simulate.gen_regression(X, beta_star, NoiseModel(cell.sigma, cell.n), rng)

        lambda_inf = _resolve_lambda_inf(cell, magnitude)
        lambda0 = cell.lambda0
        if lambda0 is None:
            lambda0 = max(
                estimators.default_lambda0(X, Y, cell.s, cell.s0), lambda_inf
            )
        schedule = estimators.ThresholdSchedule(lambda0, cell.kappa, lambda_inf)

        if estimator == "iht_baseline":
            beta_hat = estimators.iht_baseline(X, Y, cell.s * cell.s0, _BASELINE_STEPS)
            iterations = _BASELINE_STEPS
        else:
            if estimator == "dsiht_heterogeneous":
                budget = SparsityBudget.heterogeneous(
                    cell.m, cell.d, cell.s, cell.s * cell.s0, s0=cell.s0
                )
            # looked up at call time, so a wrapper set on the module is used
            solver = getattr(estimators, estimator)
            beta_hat, trace = solver(X, Y, budget, schedule, truth=beta_star)
            iterations = trace.iterations
            bound_flag = all(trace.bound_held)
            excess_flag = all(trace.excess_admissible)
        sq_error = float(np.sum((beta_hat - beta_star) ** 2))

    return ExperimentRecord(
        estimator=estimator, cell_index=cell_index, replicate=replicate,
        seed=seed, m=cell.m, d=cell.d, s=cell.s, s0=cell.s0, n=cell.n,
        sigma=cell.sigma, q=cell.q, rq=cell.rq, kappa=cell.kappa,
        lambda0=lambda0, lambda_inf=lambda_inf, design=design,
        sq_error=sq_error, iterations=iterations,
        bound_flag=bound_flag, excess_flag=excess_flag,
        rate_value=_cell_rate(cell),
        wall_time_s=time.perf_counter() - start,
    )


def run_cell(
    cell: Cell, replicates: int, estimator: str, seed: int, cell_index: int = 0
) -> list:
    """All replicates of one cell, in replicate order."""
    return [
        run_one(cell, cell_index, r, estimator, seed) for r in range(replicates)
    ]


def _worker(args):
    cell, cell_index, replicate, estimator, seed = args
    return run_one(cell, cell_index, replicate, estimator, seed)


def run_sweep(
    grid: list,
    replicates: int,
    estimator: str,
    seed: int,
    jobs: int = 1,
):
    """Run every (cell, replicate) task of the grid and aggregate.

    Returns (records, summary). Records are ordered by (cell_index,
    replicate) regardless of ``jobs``. The log-log slope of mean error
    against the rate-formula value needs at least 3 distinct rate values.
    """
    tasks = [
        (cell, ci, r, estimator, seed)
        for ci, cell in enumerate(grid)
        for r in range(replicates)
    ]
    if jobs <= 1:
        records = [_worker(t) for t in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_worker, tasks, chunksize=8))
    records.sort(key=lambda rec: (rec.cell_index, rec.replicate))
    return records, summarize(grid, records)


def summarize(grid: list, records: list) -> SweepSummary:
    summary = SweepSummary()
    rates, mean_errors = [], []
    by_cell = {}
    for rec in records:
        by_cell.setdefault(rec.cell_index, []).append(rec)
    for ci, cell in enumerate(grid):
        cell_recs = by_cell.get(ci, [])
        errs = np.array([r.sq_error for r in cell_recs])
        bound_vals = [r.bound_flag for r in cell_recs if r.bound_flag is not None]
        excess_vals = [r.excess_flag for r in cell_recs if r.excess_flag is not None]
        entry = {
            "cell_index": ci,
            "params": asdict(cell),
            "replicates": len(cell_recs),
            "mean_sq_error": float(np.mean(errs)) if errs.size else math.nan,
            "median_sq_error": float(np.median(errs)) if errs.size else math.nan,
            "rate_value": _cell_rate(cell),
            "bound_pass_rate": float(np.mean(bound_vals)) if bound_vals else None,
            "excess_pass_rate": float(np.mean(excess_vals)) if excess_vals else None,
        }
        summary.cells.append(entry)
        rates.append(entry["rate_value"])
        mean_errors.append(entry["mean_sq_error"])

    distinct = {round(r, 15) for r in rates}
    if len(distinct) >= 3:
        x = np.log(np.array(rates))
        y = np.log(np.array(mean_errors))
        xbar, ybar = x.mean(), y.mean()
        slope = float(np.sum((x - xbar) * (y - ybar)) / np.sum((x - xbar) ** 2))
        summary.slope = slope
        summary.intercept = float(ybar - slope * xbar)
    return summary


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return float_text(value)
    return str(value)


def _parse_value(name: str, text: str):
    if text == "":
        return None
    if name in _BOOL_FIELDS:
        return text == "true"
    if name in _INT_FIELDS:
        return int(text)
    if name in _STR_FIELDS:
        return text
    return text_float(text)


def _json_value(value):
    # json writes every NaN as NaN; one it would not read back bit for bit
    # goes as its float_text string
    if isinstance(value, float) and math.isnan(value):
        text = float_text(value)
        return value if text == "nan" else text
    return value


def emit(records: list, path, fmt: str = "csv", include_timing: bool = False) -> None:
    """Write records to ``path`` as CSV (fixed column order) or JSON lines.

    Timing is excluded by default so output is deterministic for a fixed
    (seed, grid); pass include_timing=True to keep it.
    """
    fields = RECORD_FIELDS + (["wall_time_s"] if include_timing else [])
    try:
        if fmt == "csv":
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(fields)
                for rec in records:
                    writer.writerow(
                        [_format_value(getattr(rec, f)) for f in fields]
                    )
        elif fmt == "json":
            with open(path, "w", encoding="utf-8") as fh:
                for rec in records:
                    row = {f: _json_value(getattr(rec, f)) for f in fields}
                    fh.write(json.dumps(row) + "\n")
        else:
            raise ValueError(f"unknown format {fmt!r}")
    except OSError as exc:
        raise OSError(f"failed writing records to {path}: {exc}") from exc


def read_records(path, fmt: str = "csv") -> list:
    """Read back what :func:`emit` wrote, losslessly."""
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            reader = csv.reader(fh)
            header = next(reader)
            for row in reader:
                kwargs = {
                    name: _parse_value(name, text) for name, text in zip(header, row)
                }
                records.append(ExperimentRecord(**{"wall_time_s": 0.0, **kwargs}))
        elif fmt == "json":
            for line in fh:
                if not line.strip():
                    continue
                kwargs = {
                    name: text_float(value)
                    if isinstance(value, str) and name not in _STR_FIELDS
                    else value
                    for name, value in json.loads(line).items()
                }
                records.append(ExperimentRecord(**{"wall_time_s": 0.0, **kwargs}))
        else:
            raise ValueError(f"unknown format {fmt!r}")
    return records


# ---------------------------------------------------------------------------
# command-line interface


def _parse_int_list(text: str):
    return [int(v) for v in text.split(",")]


def _parse_float_list(text: str):
    return [float(v) for v in text.split(",")]


def _config_flags(argv) -> list:
    """The ``key = value`` lines of the ``--config`` file named in ``argv``,
    as ``--key=value`` flags (``_`` in a key becomes ``-``)."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return []
    flags = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return flags


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--m", default="8")
    parser.add_argument("--d", default="8")
    parser.add_argument("--s", default="2")
    parser.add_argument("--s0", default="2")
    parser.add_argument("--n", default="100")
    parser.add_argument("--sigma", default="1.0")
    parser.add_argument("--q", type=float, default=None)
    parser.add_argument("--rq", type=float, default=None)
    parser.add_argument("--kappa", type=float, default=0.8)
    parser.add_argument("--lambda0", type=float, default=None)
    parser.add_argument("--lambda-inf", dest="lambda_inf", type=float, default=None)
    parser.add_argument("--config", default=None, help="key=value defaults file")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="doublesparse",
        description="Double-sparse recovery experiments and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a signal/dataset to CSV files")
    _add_common(gen)
    gen.add_argument("--model", choices=("glm", "regression"), default="glm")
    gen.add_argument("--design", choices=("identity", "gaussian_iid"),
                     default="gaussian_iid")
    gen.add_argument("--magnitude", type=float, default=1.0)
    gen.add_argument("--out", required=True, help="output file prefix")

    solve = sub.add_parser("solve", help="run one estimator and print the trace")
    _add_common(solve)
    solve.add_argument("--estimator", choices=ESTIMATORS, default="dsiht")
    solve.add_argument("--design", choices=("identity", "gaussian_iid"), default=None)
    solve.add_argument("--magnitude", type=float, default=None)

    sweep = sub.add_parser("sweep", help="Monte-Carlo grid run")
    _add_common(sweep)
    sweep.add_argument("--estimator", choices=ESTIMATORS, default="dsiht")
    sweep.add_argument("--design", choices=("identity", "gaussian_iid"), default=None)
    sweep.add_argument("--magnitude", type=float, default=None)
    sweep.add_argument("--replicates", type=int, default=10)
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")

    diag = sub.add_parser("dsrip", help="design-matrix isometry diagnostics")
    _add_common(diag)
    diag.add_argument("--design", choices=("identity", "gaussian_iid"),
                      default="gaussian_iid")
    diag.add_argument("--method", choices=("exhaustive", "monte_carlo"),
                      default="exhaustive")
    diag.add_argument("--trials", type=int, default=1000)

    pack = sub.add_parser("packing", help="build and verify a packing set")
    _add_common(pack)
    pack.add_argument("--magnitude", type=float, default=1.0)
    pack.add_argument("--out", default=None, help="codebook output path")

    rates = sub.add_parser("rates", help="evaluate the rate formulas")
    _add_common(rates)
    return parser


def _single(values, flag):
    out = _parse_float_list(str(values)) if flag in ("sigma",) else _parse_int_list(str(values))
    if len(out) != 1:
        raise ValueError(f"--{flag} takes a single value for this subcommand")
    return out[0]


def _cell_from_args(args, design=None, magnitude=None) -> Cell:
    return Cell(
        m=_single(args.m, "m"), d=_single(args.d, "d"), s=_single(args.s, "s"),
        s0=_single(args.s0, "s0"), n=_single(args.n, "n"),
        sigma=_single(args.sigma, "sigma"),
        q=args.q, rq=args.rq, kappa=args.kappa,
        lambda0=args.lambda0, lambda_inf=args.lambda_inf,
        design=design, magnitude=magnitude,
    )


def _grid_from_args(args, design=None, magnitude=None) -> list:
    base = dict(
        q=args.q, rq=args.rq, kappa=args.kappa,
        lambda0=args.lambda0, lambda_inf=args.lambda_inf,
        design=design, magnitude=magnitude,
    )
    cells = []
    for n in _parse_int_list(str(args.n)):
        for s in _parse_int_list(str(args.s)):
            for s0 in _parse_int_list(str(args.s0)):
                for sigma in _parse_float_list(str(args.sigma)):
                    cells.append(Cell(
                        m=_single(args.m, "m"), d=_single(args.d, "d"),
                        s=s, s0=s0, n=n, sigma=sigma, **base,
                    ))
    return cells


def _cmd_generate(args):
    cell = _cell_from_args(args, design=args.design, magnitude=args.magnitude)
    rng = stream(args.seed)
    budget = SparsityBudget.hard(cell.m, cell.d, cell.s, cell.s0)
    spec = simulate.SignalSpec(budget, simulate.Constant(args.magnitude), sign="random")
    theta_star = simulate.gen_signal(spec, rng)
    simulate.save_matrix_csv(f"{args.out}_theta.csv", theta_star.values)
    if args.model == "glm":
        Y = simulate.gen_glm(theta_star, NoiseModel(cell.sigma, cell.n), rng)
        simulate.save_matrix_csv(f"{args.out}_y.csv", Y.values)
        print(f"wrote {args.out}_theta.csv and {args.out}_y.csv")
    else:
        kind = "identity_scaled" if args.design == "identity" else args.design
        X = simulate.gen_design(cell.n, cell.p, kind, rng)
        beta = theta_star.values.reshape(-1, order="F")
        y = simulate.gen_regression(X, beta, NoiseModel(cell.sigma, cell.n), rng)
        simulate.save_matrix_csv(f"{args.out}_X.csv", X)
        simulate.save_matrix_csv(f"{args.out}_y.csv", y[None, :])
        print(f"wrote {args.out}_theta.csv, {args.out}_X.csv, {args.out}_y.csv")
    return 0


def _cmd_solve(args):
    cell = _cell_from_args(args, design=args.design, magnitude=args.magnitude)
    record = run_one(cell, 0, 0, args.estimator, args.seed)
    print(json.dumps({f: getattr(record, f) for f in RECORD_FIELDS}, indent=2))
    return 0


def _cmd_sweep(args):
    grid = _grid_from_args(args, design=args.design, magnitude=args.magnitude)
    records, summary = run_sweep(
        grid, args.replicates, args.estimator, args.seed, jobs=args.jobs
    )
    if args.out:
        emit(records, args.out, fmt=args.format)
    print(json.dumps({
        "cells": summary.cells,
        "slope": summary.slope,
        "intercept": summary.intercept,
    }, indent=2))
    return 0


def _cmd_dsrip(args):
    cell = _cell_from_args(args)
    kind = "identity_scaled" if args.design == "identity" else args.design
    X = simulate.gen_design(cell.n, cell.p, kind, stream(args.seed))
    report = diagnostics.dsrip(
        X, cell.m, cell.d, cell.s, cell.s0,
        method=args.method,
        trials=args.trials if args.method == "monte_carlo" else None,
        seed=args.seed,
    )
    print(report.to_json())
    return 0


def _cmd_packing(args):
    cell = _cell_from_args(args)
    packing = bounds.build_khatri_rao_packing(
        cell.m, cell.d, cell.s, cell.s0, magnitude=args.magnitude
    )
    if args.out:
        bounds.export_codebook(packing, args.out)
    print(json.dumps({
        "size": len(packing.elements),
        "min_pairwise_hamming": packing.min_pairwise_hamming,
        "target": packing.target,
        "stage_sizes": packing.stage_sizes,
        "stage_bounds_met": packing.stage_bounds_met,
        "log_cardinality": packing.log_cardinality,
        "log_cardinality_bound": packing.log_cardinality_bound,
        "log_cardinality_met": packing.log_cardinality_met,
    }, indent=2))
    return 0


def _cmd_rates(args):
    cell = _cell_from_args(args)
    out = {"hard": asdict(bounds.rate_hard(
        cell.sigma, cell.n, cell.m, cell.d, cell.s, cell.s0))}
    if args.q is not None and args.rq is not None:
        out["soft"] = asdict(bounds.rate_soft(
            cell.sigma, cell.n, cell.m, cell.d, cell.s, args.q, args.rq))
    out["lambda_inf"] = estimators.default_lambda_inf(
        cell.sigma, cell.n, cell.p, cell.d, cell.s, cell.s0)
    print(json.dumps(out, indent=2))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "dsrip": _cmd_dsrip,
    "packing": _cmd_packing,
    "rates": _cmd_rates,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # config values go right after the subcommand, so later flags win
        # and argparse converts and checks them like typed flags
        argv[1:1] = _config_flags(argv)
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        handler = _COMMANDS[args.command]
    except KeyError:
        print(f"unknown command {args.command!r}", file=sys.stderr)
        return 1
    try:
        return handler(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
