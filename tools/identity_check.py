"""Check that two source trees give bit-identical outputs on a fixed corpus.

    python3 tools/identity_check.py parent=../parent change=.

Each SIDE=ROOT names a repository root holding the ``src`` tree to check.
For each side, this script runs itself once more as a worker, in a
subprocess with ``PYTHONPATH=ROOT/src`` and BLAS on 1 thread, so both sides
run the same corpus, the one defined here. The worker computes every case
and prints one SHA-256 digest per case; a case that raises digests its
error instead. The script prints the name of every case whose digests
differ, or that only one side has, and exits 1 on any difference, 0
otherwise.

The corpus:

- ``dsrip/...``: every ``DsripReport`` field, floats as ``float.hex``, for
  16 grids x 3 seeds x 6 designs (Gaussian, quantized, duplicated columns,
  zero columns, unnormalized columns, n < k) x both methods;
- ``bruteforce/...``: ``constrained_ls_bruteforce`` on tie-heavy inputs
  with fixed seeds, every entry's bytes;
- ``cli/...``: the stdout of ``doublesparse dsrip`` at 3 grids, both
  methods;
- ``packing/...``: ``build_khatri_rao_packing`` at the 15 sizes in
  ``PACKINGS`` (every size the tests build, then three larger ones) and at
  a second magnitude: every ``PackingSet`` field, floats as ``float.hex``
  and ``elements`` as the bytes of its ``columns`` and ``contents``, and the
  bytes ``export_codebook`` writes;
- ``cli/packing/...``: the stdout of ``doublesparse packing`` at 2 sizes;
- ``dsrip/monte_carlo/gram/...``: Monte-Carlo reports on Gaussian designs
  (n = 100) where the Gram matrix of the columns in use decides which
  supports are certified: (30,8,2,3) with 4000 trials x 3 seeds, whose
  240 columns it holds, and (100,8,2,3) with 20 000 trials, whose 800
  columns do not fit its cap;
- ``dsrip/exhaustive/chunked/...``: exhaustive reports on Gaussian designs
  (n = 100) x 3 seeds at grids whose column sets span several chunks of
  the prefix pass: (30,8,2,3) with 2 chunks and (100,6,2,2) with 6, whose
  X^T X fits its cap, and (363,2,2,2) and (242,3,2,2), whose p = 726
  columns do not;
- ``sweep/...``: ``run_sweep`` on the fixed-seed grid (m = 20, d = 10,
  s = 3, s0 = 2, n in {200, 400, 800}, sigma = 1, 20 replicates, seed 123;
  the identity design for ``projection_glm``) for all four estimators at
  jobs 1 and 2: the CSV and JSON bytes ``emit`` writes, the records
  ``read_records`` returns from each, and the summary;
- ``cli/solve/...``, ``cli/sweep/...``, ``cli/generate/...`` and
  ``cli/rates/...``: the stdout of those subcommands, and the bytes of
  every file they write;
- ``solve/...``: ``dsiht`` and ``dsiht_heterogeneous`` at the three
  problems in ``SOLVES`` x 3 seeds, in each run of ``SOLVE_RUNS``: a long
  zero phase, a plain decay, a dense ``beta0`` with -0.0 entries (which
  diverges at n < p), and ``truth=None``; on the identity design, nonzero
  iterates stand still. The bytes of the estimate and of every
  ``IterationTrace`` field;
- ``operator/...``: ``threshold.apply`` and ``threshold.apply_heterogeneous``
  on tie-heavy half-integer grids (``OPERATOR_GRIDS`` x 3 seeds x the
  half-integer lambdas ``OPERATOR_LAMS``), the input in C order and as the
  column-major view the solver passes: the dtype, shape, strides and bytes
  of ``result`` and of both masks, and ``row_cut``.

Later cases go at the end of ``corpus``; a case's name fixes its inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

# (m, d, s, s0): s = 1, s = 3, s0 = d, one row subset (d = 1 or s0 = d),
# many column sets, and the grids the benchmark and the tests use; then a
# grid whose prefix matrices outgrow their supports (K^2 > r k^2, so the
# prefix pass is skipped) and an s = 3 grid of 13 500 supports
DSRIP_GRIDS = [
    (6, 8, 2, 3), (4, 10, 2, 3), (8, 6, 2, 2), (40, 2, 2, 1), (250, 1, 2, 1),
    (5, 4, 3, 2), (10, 4, 3, 2), (4, 4, 2, 2), (5, 3, 3, 1), (6, 4, 1, 2),
    (3, 6, 2, 6), (20, 1, 2, 1), (12, 2, 2, 1), (3, 5, 3, 2),
    (3, 12, 2, 1), (4, 6, 3, 2),
]
DESIGNS = ["gaussian", "quantized", "duplicated", "zero", "unnormalized", "n_below_k"]
SEEDS = [0, 1, 2]
MC_TRIALS = 300
# (m, d, s, s0, seed) for the hard-budget oracle
BRUTEFORCE = [(4, 4, 2, 2, 0), (6, 3, 2, 2, 1), (5, 4, 3, 1, 2), (3, 6, 1, 3, 3),
              (5, 5, 2, 3, 4)]
CLI_GRIDS = [(6, 8, 2, 3, 100), (4, 4, 2, 2, 20), (8, 6, 2, 2, 5)]
# (m, d, s, s0): every packing the tests build, then larger ones whose
# verification once took seconds
PACKINGS = [
    (5, 4, 2, 2), (5, 4, 1, 2), (6, 6, 2, 2), (8, 8, 2, 2), (16, 8, 2, 2),
    (10, 6, 3, 2), (5, 4, 3, 1), (6, 4, 4, 1), (7, 5, 3, 1), (5, 5, 3, 2),
    (8, 6, 4, 2), (6, 16, 4, 1), (12, 6, 4, 2), (8, 8, 4, 2), (6, 31, 4, 1),
]
CLI_PACKINGS = [(8, 8, 2, 2), (6, 16, 4, 1)]
# (m, d, s, s0, trials, seeds): Monte-Carlo on Gaussian designs with
# n = 100, where every chunk after the first is certified against one Gram
# matrix of the columns in use, and where that matrix outgrows its cap
MC_GRAM = [(30, 8, 2, 3, 4000, SEEDS), (100, 8, 2, 3, 20000, [0])]
# (m, d, s, s0): exhaustive grids whose column sets span several chunks of
# the prefix pass, on Gaussian designs with n = 100; X^T X fits its cap of
# 4 MiB (p <= 724) at the first two and not at the two with p = 726
CHUNKED_GRIDS = [(30, 8, 2, 3), (100, 6, 2, 2), (363, 2, 2, 2), (242, 3, 2, 2)]
# the fixed-seed sweep grid: (m, d, s, s0), the sample sizes, replicates, seed
SWEEP_GRID = ((20, 10, 3, 2), (200, 400, 800), 20, 123)
ESTIMATORS = ["dsiht", "dsiht_heterogeneous", "projection_glm", "iht_baseline"]
THREAD_VARS = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
# (m, d, s, s0, n, design): the solver problems; Gaussian at n >= p and at
# n < p, and the identity design, whose gradient step does not depend on the
# iterate, so that nonzero iterates stand still
SOLVES = [(6, 5, 2, 2, 60, "gaussian_iid"), (20, 10, 3, 2, 120, "gaussian_iid"),
          (6, 5, 2, 2, 60, "identity_scaled")]
# run: (lambda0 over ||X^T Y / n|| / sqrt(s s0), kappa, lambda_inf over
# lambda0, whether beta0 is dense with -0.0 entries, whether the truth is given)
SOLVE_RUNS = {
    "zero-phase": (30.0, 0.5, 0.01, False, True),
    "plain": (1.0, 0.8, 0.05, False, True),
    "dense-start": (1.0, 0.8, 0.05, True, True),
    "no-truth": (1.0, 0.8, 0.05, False, False),
}
# (m, d, s, s0): the operator's grids of half-integer entries; at the
# half-integer lambdas, entries, column masses and row masses tie
OPERATOR_GRIDS = [(4, 4, 2, 2), (6, 5, 3, 2), (5, 6, 2, 3), (3, 8, 1, 4), (8, 3, 4, 1)]
OPERATOR_LAMS = [0.5, 1.0, 1.5]


def design(kind, m, d, s, s0, seed):
    """An n x (m*d) design of the given kind, drawn from ``stream(seed)``."""
    # the package is imported only in a worker, from its side's source tree
    import numpy as np
    from doublesparse import simulate
    from doublesparse.core import stream

    p = m * d
    rng = stream(9100 + seed)
    n = max(1, s * s0 - 1) if kind == "n_below_k" else 30
    X = simulate.gen_design(n, p, "gaussian_iid", rng)
    if kind == "quantized":  # exact ties
        X = np.round(2.0 * X)
    elif kind == "duplicated":
        X[:, rng.integers(p, size=max(1, p // 3))] = X[:, [rng.integers(p)]]
    elif kind == "zero":
        X[:, rng.random(p) < 0.4] = 0.0
    elif kind == "unnormalized":
        X *= 10.0 ** rng.uniform(-3.0, 3.0, size=p)
    return X


def gaussian(p, seed):
    """An n x p Gaussian design with n = 100, drawn from ``stream(9300 + seed)``."""
    from doublesparse import simulate
    from doublesparse.core import stream

    return simulate.gen_design(100, p, "gaussian_iid", stream(9300 + seed))


def hexed(value):
    """``value`` with every float, also inside dicts and lists, as ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: hexed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [hexed(item) for item in value]
    return value


def array_bytes(arr) -> bytes:
    """The dtype, shape, strides and bytes of ``arr``."""
    return f"{arr.dtype} {arr.shape} {arr.strides}\n".encode() + arr.tobytes()


def report_bytes(report) -> bytes:
    from dataclasses import asdict

    return json.dumps(hexed(asdict(report)), sort_keys=True).encode()


def packing_bytes(size, magnitude=1.0) -> bytes:
    """The digest of every field of the packing at ``size``, its elements
    by their factors, and of the codebook file it exports."""
    import tempfile
    from dataclasses import fields
    from doublesparse import bounds

    packing = bounds.build_khatri_rao_packing(*size, magnitude=magnitude)
    digest = hashlib.sha256()
    for f in fields(packing):
        value = getattr(packing, f.name)
        if f.name == "elements":
            for factor in (value.columns, value.contents):
                digest.update(f"{factor.dtype} {factor.shape}".encode())
                digest.update(factor.tobytes())
            value = list(value.shape)
        digest.update(json.dumps([f.name, hexed(value)], sort_keys=True).encode())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "codebook.txt"
        bounds.export_codebook(packing, path)
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    return digest.digest()


def cli_bytes(argv) -> bytes:
    """The exit code and stdout of ``doublesparse ARGV``, run in an empty
    directory, then the name and bytes of every file it wrote there."""
    import tempfile
    from doublesparse import harness

    out, cwd = io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out):
                code = harness.main(argv)
        finally:
            os.chdir(cwd)
        data = f"{code}\n{out.getvalue()}".encode()
        for path in sorted(Path(tmp).iterdir()):
            data += f"\n{path.name}\n".encode() + path.read_bytes()
    return data


@functools.cache
def sweep_bytes(estimator, jobs) -> dict:
    """The outputs of one fixed-seed sweep, as bytes by part: the files
    ``emit`` writes in each format, the records read back from each, and
    the summary."""
    import tempfile
    from dataclasses import asdict
    from doublesparse import harness

    (m, d, s, s0), ns, replicates, seed = SWEEP_GRID
    design = "identity" if estimator == "projection_glm" else None
    grid = [harness.Cell(m=m, d=d, s=s, s0=s0, n=n, sigma=1.0, design=design) for n in ns]
    records, summary = harness.run_sweep(grid, replicates, estimator, seed, jobs=jobs)
    parts = {"summary": json.dumps(hexed(asdict(summary)), sort_keys=True).encode()}
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("csv", "json"):
            path = Path(tmp) / f"records.{fmt}"
            harness.emit(records, path, fmt=fmt)
            parts[fmt] = path.read_bytes()
            back = [hexed(asdict(r)) for r in harness.read_records(path, fmt=fmt)]
            parts[f"{fmt}/records"] = json.dumps(back, sort_keys=True).encode()
    return parts


def solve_bytes(heterogeneous, size, run, seed) -> bytes:
    """The estimate and every ``IterationTrace`` field of one fixed-seed
    solve, as bytes."""
    from dataclasses import fields
    import numpy as np
    from doublesparse import estimators, simulate
    from doublesparse.core import NoiseModel, SparsityBudget, stream

    m, d, s, s0, n, kind = size
    scale, kappa, floor, dense, with_truth = SOLVE_RUNS[run]
    rng = stream(9400 + seed)
    budget = SparsityBudget.hard(m, d, s, s0)
    spec = simulate.SignalSpec(budget, simulate.Constant(1.0), sign="random")
    truth = simulate.gen_signal(spec, rng).values.ravel(order="F")
    X = simulate.gen_design(n, m * d, kind, rng)
    Y = simulate.gen_regression(X, truth, NoiseModel(0.5, n), rng)
    lam0 = scale * float(np.linalg.norm(X.T @ Y / n)) / (s * s0) ** 0.5
    schedule = estimators.ThresholdSchedule(lam0, kappa, floor * lam0)
    beta0 = np.where(rng.random(m * d) < 0.3, -0.0, rng.normal(size=m * d)) if dense else None
    solver = estimators.dsiht
    if heterogeneous:
        budget = SparsityBudget.heterogeneous(m, d, s, s * s0, s0=s0)
        solver = estimators.dsiht_heterogeneous
    beta_hat, trace = solver(X, Y, budget, schedule, beta0=beta0,
                             truth=truth if with_truth else None)
    data = array_bytes(beta_hat)
    for f in fields(trace):
        value = getattr(trace, f.name)
        if f.name == "betas":
            value = [array_bytes(beta).hex() for beta in value]
        data += json.dumps([f.name, hexed(value)]).encode()
    return data


def operator_bytes(heterogeneous, grid, seed, lam, column_major) -> bytes:
    """``result``, both masks and ``row_cut`` of the operator on a fixed-seed
    grid of half-integer entries, as bytes."""
    import numpy as np
    from doublesparse import threshold
    from doublesparse.core import GroupedMatrix, SparsityBudget, stream

    m, d, s, s0 = grid
    values = np.round(4.0 * stream(9500 + seed).normal(size=(d, m))) / 2.0
    if column_major:  # as the solver wraps its gradient step
        values = np.asfortranarray(values)
        values.flags.writeable = False
        U = GroupedMatrix._wrap(values)
    else:
        U = GroupedMatrix(values)
    if heterogeneous:
        budget = SparsityBudget.heterogeneous(m, d, s, s * s0, s0=s0)
        outcome = threshold.apply_heterogeneous(U, lam, budget)
    else:
        outcome = threshold.apply(U, lam, SparsityBudget.hard(m, d, s, s0))
    return b"".join(array_bytes(arr) for arr in (
        outcome.result.values, outcome.selected_mask, outcome.active_mask,
    )) + f"row_cut {outcome.row_cut!r}".encode()


def corpus():
    """(name, thunk returning bytes) for every case, in a fixed order."""
    import numpy as np
    from doublesparse import diagnostics, estimators
    from doublesparse.core import GroupedMatrix, SparsityBudget, stream

    for m, d, s, s0 in DSRIP_GRIDS:
        for kind in DESIGNS:
            for seed in SEEDS:
                X = design(kind, m, d, s, s0, seed)
                grid = f"{m},{d},{s},{s0}"
                yield (f"dsrip/exhaustive/{grid}/{kind}/{seed}",
                       lambda X=X, g=(m, d, s, s0): report_bytes(diagnostics.dsrip(X, *g)))
                yield (f"dsrip/monte_carlo/{grid}/{kind}/{seed}",
                       lambda X=X, g=(m, d, s, s0), seed=seed: report_bytes(diagnostics.dsrip(
                           X, *g, method="monte_carlo", trials=MC_TRIALS, seed=seed)))
    for m, d, s, s0, seed in BRUTEFORCE:
        # integer entries, so many supports tie for the best
        Y = GroupedMatrix(np.round(stream(9200 + seed).normal(size=(d, m))))
        yield (f"bruteforce/{m},{d},{s},{s0}/{seed}",
               lambda Y=Y, b=SparsityBudget.hard(m, d, s, s0):
               estimators.constrained_ls_bruteforce(Y, b).values.tobytes())
    for m, d, s, s0, n in CLI_GRIDS:
        for method in ("exhaustive", "monte_carlo"):
            argv = ["dsrip", "--m", str(m), "--d", str(d), "--s", str(s), "--s0", str(s0),
                    "--n", str(n), "--method", method, "--trials", "200", "--seed", "7"]
            yield f"cli/dsrip/{method}/{m},{d},{s},{s0},n={n}", lambda argv=argv: cli_bytes(argv)
    for size in PACKINGS:
        yield f"packing/{','.join(map(str, size))}", lambda size=size: packing_bytes(size)
    yield "packing/8,8,2,2/magnitude=0.7", lambda: packing_bytes((8, 8, 2, 2), 0.7)
    for m, d, s, s0 in CLI_PACKINGS:
        argv = ["packing", "--m", str(m), "--d", str(d), "--s", str(s), "--s0", str(s0)]
        yield f"cli/packing/{m},{d},{s},{s0}", lambda argv=argv: cli_bytes(argv)
    for m, d, s, s0, trials, seeds in MC_GRAM:
        for seed in seeds:
            X = gaussian(m * d, seed)
            yield (f"dsrip/monte_carlo/gram/{m},{d},{s},{s0}/trials={trials}/{seed}",
                   lambda X=X, g=(m, d, s, s0), t=trials, seed=seed: report_bytes(
                       diagnostics.dsrip(X, *g, method="monte_carlo", trials=t, seed=seed)))
    for m, d, s, s0 in CHUNKED_GRIDS:
        for seed in SEEDS:
            yield (f"dsrip/exhaustive/chunked/{m},{d},{s},{s0}/{seed}",
                   lambda X=gaussian(m * d, seed), g=(m, d, s, s0): report_bytes(
                       diagnostics.dsrip(X, *g)))
    for estimator in ESTIMATORS:
        for jobs in (1, 2):
            for part in ("csv", "json", "csv/records", "json/records", "summary"):
                yield (f"sweep/{estimator}/jobs={jobs}/{part}",
                       lambda e=estimator, j=jobs, part=part: sweep_bytes(e, j)[part])
    (m, d, s, s0), ns, _, seed = SWEEP_GRID
    size = ["--m", str(m), "--d", str(d), "--s", str(s), "--s0", str(s0)]
    seeded = [*size, "--seed", str(seed)]
    for estimator in ESTIMATORS:
        run = [*seeded, "--estimator", estimator] + (
            ["--design", "identity"] if estimator == "projection_glm" else [])
        argv = ["solve", *run, "--n", str(ns[0])]
        yield f"cli/solve/{estimator}", lambda argv=argv: cli_bytes(argv)
        for fmt in ("csv", "json"):
            argv = ["sweep", *run, "--n", ",".join(map(str, ns)), "--replicates", "5",
                    "--out", f"records.{fmt}", "--format", fmt]
            yield f"cli/sweep/{estimator}/{fmt}", lambda argv=argv: cli_bytes(argv)
    for model, kind in (("glm", "gaussian_iid"), ("regression", "gaussian_iid"),
                        ("regression", "identity")):
        argv = ["generate", *seeded, "--n", "200", "--model", model, "--design", kind,
                "--magnitude", "1.5", "--out", "data"]
        yield f"cli/generate/{model}/{kind}", lambda argv=argv: cli_bytes(argv)
    for soft in ([], ["--q", "0.5", "--rq", "2.0"]):
        argv = ["rates", *size, "--n", str(ns[0]), "--sigma", "0.5", *soft]
        yield f"cli/rates/{'soft' if soft else 'hard'}", lambda argv=argv: cli_bytes(argv)
    for heterogeneous, solver in ((False, "dsiht"), (True, "dsiht_heterogeneous")):
        for size in SOLVES:
            for run in SOLVE_RUNS:
                for seed in SEEDS:
                    yield (f"solve/{solver}/{','.join(map(str, size))}/{run}/{seed}",
                           lambda h=heterogeneous, size=size, run=run, seed=seed:
                           solve_bytes(h, size, run, seed))
    for heterogeneous, name in ((False, "apply"), (True, "apply_heterogeneous")):
        for grid in OPERATOR_GRIDS:
            for seed in SEEDS:
                for lam in OPERATOR_LAMS:
                    for layout in ("C", "F"):
                        yield (f"operator/{name}/{','.join(map(str, grid))}/{seed}/"
                               f"lam={lam}/{layout}",
                               lambda h=heterogeneous, g=grid, seed=seed, lam=lam,
                               f=layout == "F": operator_bytes(h, g, seed, lam, f))


def worker():
    digests = {}
    for name, thunk in corpus():
        try:
            data = thunk()
        except Exception as exc:  # a failing case is an output too
            data = f"error: {type(exc).__name__}: {exc}".encode()
        digests[name] = hashlib.sha256(data).hexdigest()
    json.dump(digests, sys.stdout)


def run_side(root: Path, script=__file__) -> dict:
    """The JSON that ``script --worker`` prints, run in a subprocess with
    ``PYTHONPATH=ROOT/src`` and BLAS on 1 thread."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), **dict.fromkeys(THREAD_VARS, "1")}
    proc = subprocess.run([sys.executable, str(Path(script).resolve()), "--worker"],
                          env=env, cwd=root,
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def parse_sides(argv, description):
    """(worker, roots): whether ``--worker`` was given, and otherwise the
    two SIDE=ROOT arguments as a dict from side to resolved root."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("sides", nargs="*", metavar="SIDE=ROOT")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return True, {}
    if len(args.sides) != 2:
        parser.error("expected two SIDE=ROOT arguments")
    roots = {}
    for item in args.sides:
        side, sep, root = item.partition("=")
        if not sep or not side or side in roots:
            parser.error(f"expected distinct SIDE=ROOT, got {item!r}")
        roots[side] = Path(root).resolve()
    return False, roots


def main(argv=None) -> int:
    is_worker, roots = parse_sides(argv, __doc__.splitlines()[0])
    if is_worker:
        worker()
        return 0
    (a, first), (b, second) = ((side, run_side(root)) for side, root in roots.items())
    differ = [name for name in {**first, **second} if first.get(name) != second.get(name)]
    for name in differ:
        print(name)
    print(f"{len(differ)} of {len(first | second)} cases differ between {a} and {b}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
