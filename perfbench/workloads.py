"""The benchmark's workloads.

Each workload generates its inputs from the workload seed in ``setup`` (one
fresh instance per round), times one operation in ``op`` and checks every
output in ``check``. All of them are closed loops with a single caller: the
next operation starts when the previous one has returned.

Why these four:

- ``solve-wide``: dsiht on the large 200 x 200 grid with n = 1000 < p. Most
  of a solve is the two dense matrix-vector products and the column-norm
  validation, so it exercises a support-restricted forward product.
- ``solve-deep``: dsiht with deep columns (d = 800). The threshold's d x d x m
  tie-count broadcast dominates, so it exercises a faster rank; it is the
  control for matrix-vector savings.
- ``sweep-mc``: many tiny replicates through the sweep harness at jobs=2, with
  both the hard and the heterogeneous operator. Time goes to design
  generation, per-iteration object overhead, trace recording, the threshold
  and the process pool; n >= p, so a Gram path applies here.
- ``analysis``: exhaustive restricted-isometry diagnostics and a packing
  build. The only workload for ``diagnostics`` and ``bounds``; no solver.

Each operation takes one to two seconds, so a run of 20 seconds times ten or
more of them.
"""

from __future__ import annotations

import collections
import csv
import io
import math
from dataclasses import dataclass
from itertools import combinations, product
from time import perf_counter

import numpy as np

from doublesparse import bounds, diagnostics, estimators, harness, simulate
from doublesparse.core import NoiseModel, SparsityBudget, matrix_to_vec, stream, vec_to_matrix

# accuracy check on every solve: squared error at most this multiple of the
# minimax rate (sigma^2/n)(s ln(em/s) + s s0 ln(ed/s0)); a correct solve sits
# near a quarter of the rate at these sizes
ERROR_RATE_MULTIPLE = 4.0

# the same check on each sweep cell's mean squared error over its replicates
SWEEP_ERROR_RATE_MULTIPLE = 1.0

# agreement of the exhaustive restricted-isometry report with the reference,
# relative to the largest eigenvalue
DSRIP_RTOL = 1e-9

# worker processes of the sweep workload; a constant, so the workload does not
# change with the host's core count
SWEEP_JOBS = 2


def support_count(m, d, s, s0) -> int:
    """Supports with s occupied columns of s0 entries each."""
    return math.comb(m, s) * math.comb(d, s0) ** s


def minimax_rate(sigma, n, m, d, s, s0) -> float:
    """(sigma^2/n)(s ln(em/s) + s s0 ln(ed/s0)), written out here so that the
    accuracy checks do not rest on the package's own rate code."""
    return sigma * sigma / n * (s * math.log(math.e * m / s) + s * s0 * math.log(math.e * d / s0))


def schedule_lengths(lambda0, kappa, lambda_inf) -> set:
    """Iteration counts the closed form admits: #{t >= 0 : lambda0 kappa^(t/2)
    >= lambda_inf}. Within 1e-9 of an integer, rounding in the solver's
    running product decides, so both neighbours are accepted."""
    x = 2.0 * math.log(lambda0 / lambda_inf) / math.log(1.0 / kappa)
    if x < 0:
        return {0}
    if abs(x - round(x)) < 1e-9:
        return {round(x), round(x) + 1}
    return {math.floor(x) + 1}


@dataclass
class SolveInstance:
    X: np.ndarray
    budget: SparsityBudget
    inputs: list  # (Y, beta_star, schedule) per signal


class Solve:
    """Back-to-back ``estimators.dsiht`` solves with ``truth`` on one design
    per round; each round draws ``signals`` signal/noise pairs on it."""

    def __init__(self, name, stream_id, m, d, s, s0, n, sigma=0.5, kappa=0.8, signals=2):
        self.name, self.stream_id = name, stream_id
        self.m, self.d, self.s, self.s0, self.n = m, d, s, s0, n
        self.sigma, self.kappa, self.signals = sigma, kappa, signals

    @property
    def p(self):
        return self.m * self.d

    def setup(self, seed, rnd):
        rng = stream(seed, self.stream_id, rnd)
        budget = SparsityBudget.hard(self.m, self.d, self.s, self.s0)
        lam_inf = estimators.default_lambda_inf(
            self.sigma, self.n, self.p, self.d, self.s, self.s0
        )
        spec = simulate.SignalSpec(budget, simulate.Constant(3.0 * lam_inf), sign="random")
        X = simulate.gen_design(self.n, self.p, "gaussian_iid", rng)
        inputs = []
        for _ in range(self.signals):
            beta = matrix_to_vec(simulate.gen_signal(spec, rng))
            Y = simulate.gen_regression(X, beta, NoiseModel(self.sigma, self.n), rng)
            lam0 = estimators.default_lambda0(X, Y, self.s, self.s0)
            inputs.append((Y, beta, estimators.ThresholdSchedule(lam0, self.kappa, lam_inf)))
        return SolveInstance(X, budget, inputs)

    def distinct_inputs(self, inst):
        return len(inst.inputs)

    def op(self, inst, k):
        Y, beta, schedule = inst.inputs[k % len(inst.inputs)]
        t0 = perf_counter()
        beta_hat, trace = estimators.dsiht(inst.X, Y, inst.budget, schedule, truth=beta)
        return (beta_hat, trace), trace.iterations, perf_counter() - t0

    def check(self, inst, k, out):
        beta_hat, trace = out
        _, beta, schedule = inst.inputs[k % len(inst.inputs)]
        problems = []
        expected = schedule_lengths(schedule.lambda0, schedule.kappa, schedule.lambda_inf)
        if trace.iterations not in expected:
            problems.append(f"{trace.iterations} iterations, schedule gives {sorted(expected)}")
        if not np.all(np.isfinite(beta_hat)):
            problems.append("non-finite estimate")
        elif not inst.budget.admits(vec_to_matrix(beta_hat, self.m, self.d)):
            problems.append("estimate outside the sparsity budget")
        sq_error = float(np.sum((beta_hat - beta) ** 2))
        rate = minimax_rate(self.sigma, self.n, self.m, self.d, self.s, self.s0)
        if not sq_error <= ERROR_RATE_MULTIPLE * rate:
            problems.append(
                f"squared error {sq_error:.4g} above {ERROR_RATE_MULTIPLE} x rate {rate:.4g}"
            )
        return problems

    def standalone(self, inst):
        """Matrix-vector products and design validation timed on their own
        on the round's design, in milliseconds."""
        return _standalone(inst.X, inst.inputs[0][0])

    def kernel_sizes(self):
        return self.n, self.p, self.d, self.m


class Sweep:
    """``harness.run_sweep`` over one grid, once per estimator, at ``jobs``
    workers. Each output CSV must equal a ``jobs=1`` reference made at setup,
    and its rows must keep the solver's contract: every replicate's iteration
    count is the schedule length of its own CSV fields, and each cell's mean
    squared error is within a multiple of the minimax rate."""

    ESTIMATORS = ("dsiht", "dsiht_heterogeneous")

    def __init__(self, name, stream_id, workdir, m=20, d=10, s=3, s0=2,
                 ns=(200, 400, 800), sigma=0.5, replicates=40, jobs=SWEEP_JOBS):
        self.name, self.stream_id, self.workdir = name, stream_id, workdir
        self.grid = [harness.Cell(m=m, d=d, s=s, s0=s0, n=n, sigma=sigma) for n in ns]
        self.replicates, self.jobs = replicates, jobs

    def _sweep(self, estimator, seed, jobs, tag):
        records, _ = harness.run_sweep(self.grid, self.replicates, estimator, seed, jobs=jobs)
        path = self.workdir / f"{self.name}-{tag}-{estimator}.csv"
        harness.emit(records, path)
        return path, records

    def setup(self, seed, rnd):
        self.workdir.mkdir(exist_ok=True)
        sweep_seed = int(stream(seed, self.stream_id, rnd).integers(2**31))
        reference = {}
        for est in self.ESTIMATORS:
            path, _ = self._sweep(est, sweep_seed, 1, f"ref{rnd}")
            reference[est] = path.read_bytes()
        return sweep_seed, reference

    def distinct_inputs(self, inst):
        return 1

    def op(self, inst, k):
        sweep_seed, _ = inst
        t0 = perf_counter()
        out = {est: self._sweep(est, sweep_seed, self.jobs, "run") for est in self.ESTIMATORS}
        elapsed = perf_counter() - t0
        return out, sum(len(records) for _, records in out.values()), elapsed

    def check(self, inst, k, out):
        _, reference = inst
        problems = []
        for est, (path, _) in out.items():
            text = path.read_bytes()
            if text != reference[est]:
                problems.append(f"{est}: jobs={self.jobs} CSV differs from the jobs=1 reference")
            problems += self.check_rows(est, text.decode())
        return problems

    def check_rows(self, est, text):
        """The CSV's rows against the grid, the schedule and the rate."""
        problems = []
        errors = collections.defaultdict(list)
        for row in csv.DictReader(io.StringIO(text)):
            ci = int(row["cell_index"])
            cell = self.grid[ci] if 0 <= ci < len(self.grid) else None
            where = f"{est} cell {ci} replicate {row['replicate']}"
            if (cell is None or row["estimator"] != est
                    or any(int(row[f]) != getattr(cell, f) for f in ("m", "d", "s", "s0", "n"))):
                problems.append(f"{where}: row does not match the grid")
                continue
            expected = schedule_lengths(
                float(row["lambda0"]), float(row["kappa"]), float(row["lambda_inf"])
            )
            if int(row["iterations"]) not in expected:
                problems.append(
                    f"{where}: {row['iterations']} iterations, schedule gives {sorted(expected)}"
                )
            errors[ci].append(float(row["sq_error"]))
        for ci, cell in enumerate(self.grid):
            errs = errors[ci]
            if len(errs) != self.replicates:
                problems.append(f"{est} cell {ci}: {len(errs)} rows, expected {self.replicates}")
                continue
            mean = sum(errs) / len(errs)
            rate = minimax_rate(cell.sigma, cell.n, cell.m, cell.d, cell.s, cell.s0)
            if not mean <= SWEEP_ERROR_RATE_MULTIPLE * rate:
                problems.append(
                    f"{est} cell {ci}: mean squared error {mean:.4g} above "
                    f"{SWEEP_ERROR_RATE_MULTIPLE} x rate {rate:.4g}"
                )
        return problems

    def standalone(self, inst):
        cell = self.grid[-1]
        rng = stream(0, self.stream_id)
        X = simulate.gen_design(cell.n, cell.p, "gaussian_iid", rng)
        return _standalone(X, rng.normal(size=cell.n))

    def kernel_sizes(self):
        cell = self.grid[-1]
        return cell.n, cell.p, cell.d, cell.m


class Analysis:
    """One pass: exhaustive ``diagnostics.dsrip`` on a fresh Gaussian design,
    then ``bounds.build_khatri_rao_packing`` at each packing size.

    The checks share no code with the functions they check: the exhaustive
    report must match extreme eigenvalues computed at setup from the Gram
    matrix, the Monte-Carlo report made at setup must not exceed that delta,
    and each packing's reported minimum distance must equal one computed
    here from its elements."""

    def __init__(self, name, stream_id, grid=(6, 8, 2, 3), n=100, mc_trials=4000,
                 packings=((8, 8, 2, 2),)):
        self.name, self.stream_id = name, stream_id
        self.grid, self.n, self.mc_trials, self.packings = grid, n, mc_trials, packings

    def setup(self, seed, rnd):
        m, d, s, s0 = self.grid
        rng = stream(seed, self.stream_id, rnd)
        X = simulate.gen_design(self.n, m * d, "gaussian_iid", rng)
        mc = diagnostics.dsrip(
            X, m, d, s, s0, method="monte_carlo", trials=self.mc_trials,
            seed=int(rng.integers(2**31)),
        )
        return X, mc, reference_extreme_eigs(X, m, d, s, s0)

    def distinct_inputs(self, inst):
        return 1

    def op(self, inst, k):
        X, _, _ = inst
        t0 = perf_counter()
        report = diagnostics.dsrip(X, *self.grid)
        dsrip_s = perf_counter() - t0
        packings = [bounds.build_khatri_rao_packing(*size) for size in self.packings]
        return (report, packings), support_count(*self.grid), dsrip_s

    def check(self, inst, k, out):
        _, mc, (u_s, l_s) = inst
        report, packings = out
        problems = []
        tol = DSRIP_RTOL * u_s
        delta = 1.0 - l_s / u_s
        if not (abs(report.u_s - u_s) <= tol and abs(report.l_s - l_s) <= tol
                and abs(report.delta_s - delta) <= DSRIP_RTOL):
            problems.append(
                f"exhaustive report (u {report.u_s!r}, l {report.l_s!r}, delta "
                f"{report.delta_s!r}) differs from the reference (u {u_s!r}, l {l_s!r}, "
                f"delta {delta!r})"
            )
        if not mc.delta_s <= delta + DSRIP_RTOL:
            problems.append(f"Monte-Carlo delta {mc.delta_s!r} above exhaustive {delta!r}")
        for size, packing in zip(self.packings, packings):
            problems += [f"packing {size}: {p}" for p in packing_problems(size, packing)]
        return problems

    def standalone(self, inst):
        return {}

    def kernel_sizes(self):
        return None


def reference_extreme_eigs(X, m, d, s, s0):
    """Largest and smallest eigenvalue of X_S^T X_S over every support with s
    occupied columns of s0 entries each (entry (i, j) is column d j + i of
    X), from one batched eigvalsh over submatrices of the Gram matrix."""
    gram = X.T @ X
    rows = list(combinations(range(d), s0))
    idx = np.array([
        [d * j + i for j, r in zip(cols, rows_choice) for i in r]
        for cols in combinations(range(m), s)
        for rows_choice in product(rows, repeat=s)
    ])
    eigs = np.linalg.eigvalsh(gram[idx[:, :, None], idx[:, None, :]])
    return float(eigs[:, -1].max()), max(float(eigs[:, 0].min()), 0.0)


def min_distance_equal_weight(positions):
    """Exact minimum Hamming distance of 0/1 vectors of equal weight w, each
    given by its w sorted nonzero positions: 2 (w - k) for the largest k such
    that two vectors share k positions."""
    n, w = positions.shape
    base = int(positions.max()) + 1
    for k in range(w, 0, -1):
        # one integer key per k-subset of a vector's positions
        keys = np.concatenate([
            sum(positions[:, i].astype(np.int64) * base**e for e, i in enumerate(c))
            for c in combinations(range(w), k)
        ])
        # one vector's k-subsets are distinct, so a repeat comes from two vectors
        if len(np.unique(keys)) < len(keys):
            return 2 * (w - k)
    return 2 * w


def packing_problems(size, packing):
    """A packing's elements against the construction's contract: each has s
    nonzero columns of s0 entries equal to 1, the reported minimum distance is
    the true one and reaches ceil(s s0 / 4), and there are at least
    exp(s/4 ln(em/s) + s s0/4 ln(ed/s0)) elements."""
    m, d, s, s0 = size
    values = np.stack([el.values for el in packing.elements])
    nonzero = values != 0
    per_column = nonzero.sum(axis=1)
    problems = []
    if not (np.all(values[nonzero] == 1.0) and np.all((per_column == 0) | (per_column == s0))
            and np.all((per_column > 0).sum(axis=1) == s)):
        problems.append(f"an element is not an ({s}, {s0}) pattern of ones")
        return problems
    positions = np.nonzero(nonzero.reshape(len(values), -1))[1].reshape(len(values), s * s0)
    min_dist = min_distance_equal_weight(positions)
    if packing.min_pairwise_hamming != min_dist:
        problems.append(f"reports min distance {packing.min_pairwise_hamming}, true {min_dist}")
    if min_dist < math.ceil(s * s0 / 4):
        problems.append(f"min distance {min_dist} below ceil(s s0 / 4)")
    log_bound = s / 4 * math.log(math.e * m / s) + s * s0 / 4 * math.log(math.e * d / s0)
    if math.log(len(values)) < log_bound:
        problems.append(f"{len(values)} elements, fewer than exp({log_bound:.4g})")
    return problems


def _standalone(X, Y, repeats=5):
    n, p = X.shape
    beta = stream(0).normal(size=p)
    matvec, validate = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        r = Y - X @ beta
        X.T @ r
        matvec.append(perf_counter() - t0)
        t0 = perf_counter()
        estimators._validate_design(X, Y, p)
        validate.append(perf_counter() - t0)
    return {
        "estimators.matvec_ms": 1e3 * float(np.median(matvec)),
        "estimators.validate_ms": 1e3 * float(np.median(validate)),
    }


def build(workdir):
    """Every workload at its benchmark size, by name."""
    return {
        wl.name: wl
        for wl in (
            Solve("solve-wide", 1, m=200, d=200, s=5, s0=10, n=1000),
            Solve("solve-deep", 2, m=25, d=800, s=5, s0=10, n=1000),
            Sweep("sweep-mc", 3, workdir),
            Analysis("analysis", 4),
        )
    }
