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
from dataclasses import asdict, dataclass, field, fields
from itertools import repeat

import numpy as np

from . import bounds, diagnostics, estimators, simulate
from .core import NoiseModel, SparsityBudget, float_text, stream, text_float

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


# the serialized columns, in declaration order; wall time is opt-in
RECORD_FIELDS = [f.name for f in fields(ExperimentRecord) if f.name != "wall_time_s"]


def _flag(text: str) -> bool | None:
    """A flag column's text as written by :func:`emit`: true, false or empty."""
    if text not in ("true", "false", ""):
        raise ValueError(f"expected true, false or an empty value, got {text!r}")
    return text == "true" if text else None


# each column's text reader, by its annotation; an annotation missing here
# fails at import rather than read as a float
_READERS = {"int": int, "bool | None": _flag, "str": str,
            "float": text_float, "float | None": text_float}
_COLUMN_READERS = {f.name: _READERS[f.type] for f in fields(ExperimentRecord)}


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


def _resolve_scale(cell: Cell) -> tuple:
    """The replicate's (signal magnitude, lambda_inf); a value set on the
    cell wins over its default."""
    magnitude = cell.magnitude
    if cell.sigma > 0:
        lambda_inf = estimators.default_lambda_inf(
            cell.sigma, cell.n, cell.p, cell.d, cell.s, cell.s0
        )
        if magnitude is None:
            # signals clear the final threshold; separates estimation error
            # from detection failure
            magnitude = 3.0 * lambda_inf
    else:
        if magnitude is None:
            magnitude = 1.0
        # noiseless: stop one geometric step below the signal magnitude so the
        # returned iterate is an exact fixed point
        lambda_inf = 0.9 * cell.kappa * magnitude
    return magnitude, lambda_inf if cell.lambda_inf is None else cell.lambda_inf


def _gen_design(cell: Cell, design: str, rng) -> np.ndarray:
    # the identity design is scaled to the sqrt(n) column norms the solvers need
    kind = "identity_scaled" if design == "identity" else design
    return simulate.gen_design(cell.n, cell.p, kind, rng)


def _draw(cell: Cell, design: str | None, magnitude: float, rng) -> tuple:
    """One data set, in RNG order: a hard-budget signal theta* of constant
    ``magnitude`` and random signs, then, for ``design=None``, the location
    observation theta* + noise, else the design X and the regression response.
    Returns (theta*, X or None, response)."""
    if cell.q is not None or cell.rq is not None:
        raise ValueError(
            "q/rq describe a soft (l_q-ball) signal class, but signals are drawn "
            "hard-sparse only; soft-signal replicates are not supported"
        )
    budget = SparsityBudget.hard(cell.m, cell.d, cell.s, cell.s0)
    spec = simulate.SignalSpec(budget, simulate.Constant(magnitude), sign="random")
    theta_star = simulate.gen_signal(spec, rng)
    noise = NoiseModel(cell.sigma, cell.n)
    if design is None:
        return theta_star, None, simulate.gen_glm(theta_star, noise, rng)
    X = _gen_design(cell, design, rng)
    beta_star = theta_star.values.reshape(-1, order="F")
    return theta_star, X, simulate.gen_regression(X, beta_star, noise, rng)


def run_one(cell: Cell, cell_index: int, replicate: int, estimator: str, seed: int):
    """Run a single replicate; randomness comes from (seed, cell, replicate)."""
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; choose from {ESTIMATORS}")
    glm = estimator == "projection_glm"
    design = cell.design or ("identity" if glm else "gaussian_iid")
    if glm and design != "identity":
        raise ValueError(
            "projection_glm estimates a location model; only the identity "
            f"design is compatible, got {design!r}"
        )
    rng = stream(seed, cell_index, replicate)
    start = time.perf_counter()
    magnitude, lambda_inf = _resolve_scale(cell)
    theta_star, X, Y = _draw(cell, None if glm else design, magnitude, rng)
    lambda0 = bound_flag = excess_flag = None

    if glm:
        lambda_inf = None
        theta_hat = estimators.project_double_sparse(Y, cell.s, cell.s0)
        sq_error = float(np.sum((theta_hat.values - theta_star.values) ** 2))
        iterations = 1
    else:
        beta_star = theta_star.values.reshape(-1, order="F")
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
            else:
                budget = SparsityBudget.hard(cell.m, cell.d, cell.s, cell.s0)
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
    if replicates < 1:
        raise ValueError(f"replicates must be at least 1, got {replicates}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    cells = [cell for cell in grid for _ in range(replicates)]
    indices = [ci for ci in range(len(grid)) for _ in range(replicates)]
    reps = list(range(replicates)) * len(grid)
    # run_one is looked up at call time, so a wrapper set on the module is used
    args = (cells, indices, reps, repeat(estimator), repeat(seed))
    if jobs == 1:
        records = list(map(run_one, *args))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(run_one, *args, chunksize=8))
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


def _record(path, line: int, pairs) -> ExperimentRecord:
    """The record of one line's (column, value) pairs; a string value goes
    through its column's reader."""
    kwargs = {}
    for name, value in pairs:
        where = f"{path}, line {line}, column {name!r}"
        if name not in _COLUMN_READERS:
            raise ValueError(f"{where}: not a record column")
        try:
            kwargs[name] = _COLUMN_READERS[name](value) if isinstance(value, str) else value
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    for name in RECORD_FIELDS:
        if name not in kwargs:
            raise ValueError(f"{path}, line {line}, column {name!r}: missing")
    return ExperimentRecord(**kwargs)


def read_records(path, fmt: str = "csv") -> list:
    """Read back what :func:`emit` wrote, losslessly. A row that is not a
    record raises ValueError naming the file, the line and the column."""
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            reader = csv.reader(fh)
            header = next(reader)
            for row in reader:
                if len(row) != len(header):
                    column = header[-1] if len(row) > len(header) else header[len(row)]
                    raise ValueError(f"{path}, line {reader.line_num}, column {column!r}: "
                                     f"{len(row)} values for {len(header)} columns")
                values = (text or None for text in row)
                records.append(_record(path, reader.line_num, zip(header, values)))
        elif fmt == "json":
            for line, text in enumerate(fh, 1):
                if text.strip():
                    records.append(_record(path, line, json.loads(text).items()))
        else:
            raise ValueError(f"unknown format {fmt!r}")
    return records


# ---------------------------------------------------------------------------
# command-line interface


def _list_of(kind):
    """argparse type of a comma-separated list of ``kind`` values."""
    def parse(text: str) -> list:
        return [kind(v) for v in text.split(",")]
    parse.__name__ = f"{kind.__name__} list"
    return parse


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


def _add_common(parser, unread=()):
    """The shared flags, less those named in ``unread`` (by destination),
    which the subcommand does not read: passing one is a usage error, and
    its default fills the cells the subcommand builds."""
    common = [
        ("--seed", dict(type=int, default=0)),
        ("--m", dict(type=int, default=8)),
        ("--d", dict(type=int, default=8)),
        # lists span a sweep's grid; the other subcommands take one value
        ("--s", dict(type=_list_of(int), default=[2])),
        ("--s0", dict(type=_list_of(int), default=[2])),
        ("--n", dict(type=_list_of(int), default=[100])),
        ("--sigma", dict(type=_list_of(float), default=[1.0])),
        ("--q", dict(type=float, default=None)),
        ("--rq", dict(type=float, default=None)),
        ("--kappa", dict(type=float, default=0.8)),
        ("--lambda0", dict(type=float, default=None)),
        ("--lambda-inf", dict(dest="lambda_inf", type=float, default=None)),
        ("--config", dict(default=None, help="key=value defaults file")),
    ]
    for flag, options in common:
        dest = options.get("dest", flag[2:])
        if dest in unread:
            parser.set_defaults(**{dest: options["default"]})
        else:
            parser.add_argument(flag, **options)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="doublesparse",
        description="Double-sparse recovery experiments and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # generate, solve and sweep take --q/--rq to reject them: they draw
    # hard-sparse signals only
    tuning = ("kappa", "lambda0", "lambda_inf")
    gen = sub.add_parser("generate", help="write a signal/dataset to CSV files")
    _add_common(gen, unread=tuning)
    gen.add_argument("--model", choices=("glm", "regression"), default="glm")
    gen.add_argument("--design", choices=("identity", "gaussian_iid"),
                     default="gaussian_iid")
    gen.add_argument("--magnitude", type=float, default=1.0)
    gen.add_argument("--out", required=True, help="output file prefix")

    solve = sub.add_parser("solve", help="run one estimator and print the trace")
    sweep = sub.add_parser("sweep", help="Monte-Carlo grid run")
    for run in (solve, sweep):
        _add_common(run)
        run.add_argument("--estimator", choices=ESTIMATORS, default="dsiht")
        run.add_argument("--design", choices=("identity", "gaussian_iid"), default=None)
        run.add_argument("--magnitude", type=float, default=None)
    sweep.add_argument("--replicates", type=int, default=10)
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")

    diag = sub.add_parser("dsrip", help="design-matrix isometry diagnostics")
    _add_common(diag, unread=("sigma", "q", "rq", *tuning))
    diag.add_argument("--design", choices=("identity", "gaussian_iid"),
                      default="gaussian_iid")
    diag.add_argument("--method", choices=("exhaustive", "monte_carlo"),
                      default="exhaustive")
    diag.add_argument("--trials", type=int, default=1000)

    pack = sub.add_parser("packing", help="build and verify a packing set")
    _add_common(pack, unread=("seed", "n", "sigma", "q", "rq", *tuning))
    pack.add_argument("--magnitude", type=float, default=1.0)
    pack.add_argument("--out", default=None, help="codebook output path")

    rates = sub.add_parser("rates", help="evaluate the rate formulas")
    _add_common(rates, unread=("seed", *tuning))
    return parser


def _grid_from_args(args, design=None, magnitude=None) -> list:
    return [
        Cell(
            m=args.m, d=args.d, s=s, s0=s0, n=n, sigma=sigma,
            q=args.q, rq=args.rq, kappa=args.kappa,
            lambda0=args.lambda0, lambda_inf=args.lambda_inf,
            design=design, magnitude=magnitude,
        )
        for n in args.n
        for s in args.s
        for s0 in args.s0
        for sigma in args.sigma
    ]


def _one_cell(args, design=None, magnitude=None) -> Cell:
    """The only cell of the grid, for the subcommands that run one cell; a
    list flag with more than one value is an error."""
    for flag in ("s", "s0", "n", "sigma"):
        if len(getattr(args, flag)) != 1:
            raise ValueError(f"--{flag} takes a single value for this subcommand")
    (cell,) = _grid_from_args(args, design, magnitude)
    return cell


def _cmd_generate(args):
    cell = _one_cell(args)
    design = args.design if args.model == "regression" else None
    theta_star, X, y = _draw(cell, design, args.magnitude, stream(args.seed))
    simulate.save_matrix_csv(f"{args.out}_theta.csv", theta_star.values)
    if X is None:
        simulate.save_matrix_csv(f"{args.out}_y.csv", y.values)
        print(f"wrote {args.out}_theta.csv and {args.out}_y.csv")
    else:
        simulate.save_matrix_csv(f"{args.out}_X.csv", X)
        simulate.save_matrix_csv(f"{args.out}_y.csv", y[None, :])
        print(f"wrote {args.out}_theta.csv, {args.out}_X.csv, {args.out}_y.csv")
    return 0


def _cmd_solve(args):
    cell = _one_cell(args, design=args.design, magnitude=args.magnitude)
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
    print(json.dumps(asdict(summary), indent=2))
    return 0


def _cmd_dsrip(args):
    cell = _one_cell(args)
    X = _gen_design(cell, args.design, stream(args.seed))
    report = diagnostics.dsrip(
        X, cell.m, cell.d, cell.s, cell.s0,
        method=args.method,
        trials=args.trials if args.method == "monte_carlo" else None,
        seed=args.seed,
    )
    print(report.to_json())
    return 0


def _cmd_packing(args):
    cell = _one_cell(args)
    packing = bounds.build_khatri_rao_packing(
        cell.m, cell.d, cell.s, cell.s0, magnitude=args.magnitude
    )
    if args.out:
        bounds.export_codebook(packing, args.out)
    report = {"size": len(packing.elements)} | {
        f.name: getattr(packing, f.name)
        for f in fields(packing) if f.name not in ("elements", "params")
    }
    print(json.dumps(report, indent=2))
    return 0


def _cmd_rates(args):
    cell = _one_cell(args)
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
        return _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
