"""Estimators: the iterative double-sparse hard-thresholding solver, its
heterogeneous variant, the exact double-sparse Euclidean projection, a
brute-force constrained least-squares oracle, and an ordinary top-k IHT
baseline."""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import diagnostics, threshold
from .core import (
    GroupedMatrix,
    SparsityBudget,
    _check_budget,
    _check_flat_budget,
    _check_noise,
    _checked_design,
    _checked_vector,
    excess_support,
    support_of,
)

__all__ = [
    "ThresholdSchedule",
    "IterationTrace",
    "dsiht",
    "dsiht_heterogeneous",
    "default_lambda_inf",
    "default_lambda0",
    "project_double_sparse",
    "constrained_ls_bruteforce",
    "iht_baseline",
    "HARD_CONTRACTION_CONSTANT",
    "HETEROGENEOUS_CONTRACTION_CONSTANT",
    # core's support helpers, re-exported under the names a benchmark traces
    "support_of",
    "excess_support",
]

# per-iteration error-bound constants of the two solver variants
HARD_CONTRACTION_CONSTANT = 2.0 + math.sqrt(3.0)
HETEROGENEOUS_CONTRACTION_CONSTANT = 2.0 + math.sqrt(2.0)


@dataclass(frozen=True)
class ThresholdSchedule:
    """Geometric threshold decay: lambda_{t+1} = sqrt(kappa) * lambda_t,
    iterating while lambda_t >= lambda_inf."""

    lambda0: float
    kappa: float
    lambda_inf: float

    def __post_init__(self):
        # nan passes every comparison below, and an infinite lambda0 never
        # decays to lambda_inf
        for name in ("lambda0", "lambda_inf"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.lambda0 <= 0:
            raise ValueError("lambda0 must be positive")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("kappa must lie in (0, 1)")
        if self.lambda_inf <= 0:
            raise ValueError("lambda_inf must be positive")

    def value_at(self, t: int) -> float:
        return self.lambda0 * self.kappa ** (t / 2.0)


@dataclass
class IterationTrace:
    """Per-iteration diagnostics; index t runs over beta_0 .. beta_T."""

    lambdas: list = field(default_factory=list)
    betas: list = field(default_factory=list)
    errors: list | None = None
    excess_sizes: list | None = None
    excess_admissible: list | None = None
    bound_held: list | None = None
    bound_constant: float = HARD_CONTRACTION_CONSTANT
    empty_schedule: bool = False

    @property
    def iterations(self) -> int:
        return len(self.betas) - 1


def default_lambda_inf(
    sigma: float, n: int, p: int, d: int, s: int, s0: int
) -> float:
    """Terminal threshold level

        sqrt(40 * sigma^2 * ((1/s0) * ln(e*p/s) + ln(e*d/s0)) / n)

    at which the solver's decaying schedule stops."""
    _check_noise(sigma, n)
    _check_flat_budget(p, d, s, s0)
    inner = math.log(math.e * p / s) / s0 + math.log(math.e * d / s0)
    return math.sqrt(40.0 * sigma * sigma * inner / n)


def default_lambda0(X: np.ndarray, Y: np.ndarray, s: int, s0: int) -> float:
    """Data-driven starting threshold ||X^T Y / n||_2 / sqrt(s*s0); with a
    zero start it upper-bounds the signal scale the error analysis needs."""
    X = _checked_design(np.asarray(X, dtype=float))
    n = X.shape[0]
    Y = _checked_vector("Y", Y, n)
    return float(np.linalg.norm(X.T @ Y / n) / math.sqrt(s * s0))


def _validate_design(X: np.ndarray, Y: np.ndarray, p: int) -> tuple:
    """(X, Y) as float arrays: an n x p design with column norms sqrt(n), finite Y."""
    X = _checked_design(X, p)
    n = X.shape[0]
    Y = _checked_vector("Y", Y, n)
    norms = np.sqrt(np.einsum("ij,ij->j", X, X))
    # a non-finite entry makes its column norm non-finite
    if not np.all(np.isfinite(norms)):
        raise ValueError("X must be finite; a column norm is not finite")
    if not np.allclose(norms, math.sqrt(n), rtol=1e-8, atol=0.0):
        worst = float(np.max(np.abs(norms - math.sqrt(n))))
        raise ValueError(
            f"columns of X must have norm sqrt(n); worst deviation {worst:.3e}"
        )
    return X, Y


def _iterate(X, Y, budget, schedule, beta0, truth, operator, bound_constant):
    """The loop both solvers share, on plain arrays and masks.

    The gradient step is marked read-only and handed to ``operator`` as a
    ``GroupedMatrix`` over its column-major (d, m) view, without a copy; the
    next iterate is the operator's read-only output flattened in the same
    order. With ``truth``, the excess support is the mask of entries nonzero
    in the iterate and zero in the truth. Every iterate's trace entries are
    computed from the iterate itself. The loop's only reuse is the gradient
    step: an iterate with the same bits as the one before keeps its gradient
    step and fit, so no backward product is repeated.
    """
    p, d, m = budget.p, budget.d, budget.m
    X, Y = _validate_design(X, Y, p)
    n = X.shape[0]
    beta0 = np.zeros(p) if beta0 is None else _checked_vector("beta0", beta0, p)

    trace = IterationTrace(bound_constant=bound_constant)
    bound_scale = bound_constant * math.sqrt(budget.s * budget.s0)
    if truth is not None:
        truth = _checked_vector("truth", truth, p)
        off_truth = truth == 0
        trace.errors = []
        trace.excess_sizes = []
        trace.excess_admissible = []
        trace.bound_held = []

    def record(beta, lam):
        trace.lambdas.append(lam)
        trace.betas.append(beta.copy())
        if truth is None:
            return
        # einsum sums in one order whatever the BLAS thread count; a BLAS
        # dot product does not
        diff = beta - truth
        err = math.sqrt(np.einsum("i,i->", diff, diff))
        excess = ((beta != 0) & off_truth).reshape((d, m), order="F")
        trace.errors.append(err)
        trace.excess_sizes.append(int(np.count_nonzero(excess)))
        trace.excess_admissible.append(budget._mask_fits(excess))
        trace.bound_held.append(err <= bound_scale * lam)

    lam = schedule.lambda0
    beta = beta0
    record(beta, lam)

    if lam < schedule.lambda_inf:
        trace.empty_schedule = True
        warnings.warn(
            "lambda_inf exceeds lambda0; the schedule is empty and the "
            "starting point is returned unchanged",
            stacklevel=3,
        )
        return beta0.copy(), trace

    sqrt_kappa = math.sqrt(schedule.kappa)
    # a zero start fits zero; a caller's nonzero beta0 may be dense
    fit = X @ beta if np.any(beta) else np.zeros(n)
    U = None
    while lam >= schedule.lambda_inf:
        if U is None:
            grad_step = beta + X.T @ (Y - fit) / n
            if not np.isfinite(grad_step).all():
                raise FloatingPointError("non-finite values in the solver iterate")
            grad_step.flags.writeable = False
            U = GroupedMatrix._wrap(grad_step.reshape((d, m), order="F"))
        new_beta = operator(U, lam, budget).result.values.ravel(order="F")
        # an iterate with the same bits has the same gradient step: keep U
        # and the fit. Compare bits, not values: a caller's beta0 may hold
        # -0.0 where the operator writes +0.0.
        if not np.array_equal(new_beta.view(np.int64), beta.view(np.int64)):
            # a threshold output is sparse: multiply over its support only
            nz = new_beta.nonzero()[0]
            fit = X[:, nz] @ new_beta[nz]
            U = None
        beta = new_beta
        lam = lam * sqrt_kappa
        record(beta, lam)

    # the schedule's output line: the last iterate computed before lambda
    # fell below lambda_inf is betas[-1]; the returned estimate is the one
    # before it
    return trace.betas[-2].copy(), trace


def dsiht(
    X: np.ndarray,
    Y: np.ndarray,
    budget: SparsityBudget,
    schedule: ThresholdSchedule,
    beta0: np.ndarray | None = None,
    truth: np.ndarray | None = None,
):
    """Iterative double-sparse hard thresholding.

    Iterates beta <- T_lam(beta + X^T (Y - X beta) / n) with the two-stage
    operator while the geometrically decaying lam stays at or above
    lambda_inf; returns the second-to-last iterate together with the trace.
    Columns of X must be normalized to norm sqrt(n).

    Cost: one pass over X (the backward product X^T r) per distinct iterate,
    plus a forward product over the iterate's support when it changes. An
    iterate that comes out of the operator unchanged, bit for bit, reuses its
    gradient step; so does the zero phase while lam is still above every
    signal entry. That is the only reuse: the trace entries of every iterate
    are computed from it. Only a nonzero ``beta0`` costs a dense forward
    product.
    The loop copies no array at the operator boundary; see ``_iterate``.
    """
    if budget.mode != "hard":
        raise ValueError("dsiht expects a hard-mode budget")
    return _iterate(
        X, Y, budget, schedule, beta0, truth,
        threshold.apply, HARD_CONTRACTION_CONSTANT,
    )


def dsiht_heterogeneous(
    X: np.ndarray,
    Y: np.ndarray,
    budget: SparsityBudget,
    schedule: ThresholdSchedule,
    beta0: np.ndarray | None = None,
    truth: np.ndarray | None = None,
):
    """Same loop as :func:`dsiht` with the row-condition-free operator and the
    smaller per-iteration bound constant."""
    if budget.mode != "heterogeneous":
        raise ValueError("dsiht_heterogeneous expects a heterogeneous-mode budget")
    return _iterate(
        X, Y, budget, schedule, beta0, truth,
        threshold.apply_heterogeneous, HETEROGENEOUS_CONTRACTION_CONSTANT,
    )


def project_double_sparse(Y: GroupedMatrix, s: int, s0: int) -> GroupedMatrix:
    """Euclidean projection onto the set of matrices with at most ``s``
    nonzero columns and at most ``s0`` nonzeros per column.

    Per column keep the s0 largest-magnitude entries (ties to the lower row
    index), rank columns by truncated squared mass, keep the s best (ties to
    the lower column index)."""
    d, m = Y.rows, Y.cols
    _check_budget(m, d, s, s0)
    V = Y.values
    _checked_vector("Y", V.ravel(), V.size)
    A = np.abs(V)

    # stable argsort of -|.| puts lower row indices first among ties
    order = np.argsort(-A, axis=0, kind="stable")
    keep_rows = order[:s0, :]
    truncated = np.zeros_like(V)
    cols = np.arange(m)[None, :]
    truncated[keep_rows, cols] = V[keep_rows, cols]

    col_scores = np.sum(truncated * truncated, axis=0)
    keep_cols = np.argsort(-col_scores, kind="stable")[:s]
    out = np.zeros_like(V)
    out[:, keep_cols] = truncated[:, keep_cols]
    return GroupedMatrix(out)


_BRUTEFORCE_GUARD = 10**6


def constrained_ls_bruteforce(
    Y: GroupedMatrix, budget: SparsityBudget
) -> GroupedMatrix:
    """Global constrained least squares by support enumeration (test oracle).

    Minimizes the squared Frobenius distance to ``Y`` over the budget's
    parameter space. Guarded: raises when the candidate count exceeds 10^6.
    """
    d, m = Y.rows, Y.cols
    if (budget.d, budget.m) != (d, m):
        raise ValueError("budget grid does not match the matrix shape")
    V = Y.values
    sq = V * V

    if budget.mode == "hard":
        s, s0 = budget.s, budget.s0
        n_candidates = math.comb(m, s) * math.comb(d, s0) ** s
        if n_candidates > _BRUTEFORCE_GUARD:
            raise ValueError(
                f"instance too large to enumerate: {n_candidates} support candidates"
            )
        # entry (i, j) is position d*j + i of the column-major flattening
        idx = diagnostics._support_indices(m, d, s, s0)
        captured = sq.ravel(order="F")[idx].reshape(-1, s, s0)
        # add rows within each column, then columns, in support order
        per_column = sum(captured[:, :, t] for t in range(s0))
        gain = sum(per_column[:, c] for c in range(s))
        # the first maximal candidate wins
        best = idx[int(np.argmax(gain))]
        rows, cols = best % d, best // d
        out = np.zeros_like(V)
        out[rows, cols] = V[rows, cols]
        return GroupedMatrix(out)

    if budget.mode == "heterogeneous":
        s, sp = min(budget.s, m), budget.s_prime
        n_candidates = math.comb(m, s)
        if n_candidates * s * d > _BRUTEFORCE_GUARD:
            raise ValueError(
                f"instance too large to enumerate: {n_candidates} column sets"
            )
        best_gain = -1.0
        best = None
        for cols in combinations(range(m), s):
            # for a fixed column set, the best support of size <= s_prime is
            # exactly the s_prime largest squared entries inside those columns
            vals = sorted(
                ((sq[i, j], i, j) for j in cols for i in range(d)), reverse=True
            )[:sp]
            gain = sum(v for v, _, _ in vals)
            if gain > best_gain:
                best_gain = gain
                best = vals
        out = np.zeros_like(V)
        for _, i, j in best:
            out[i, j] = V[i, j]
        return GroupedMatrix(out)

    raise ValueError("brute-force enumeration covers hard and heterogeneous modes")


def iht_baseline(X: np.ndarray, Y: np.ndarray, k: int, steps: int) -> np.ndarray:
    """Classical iterative hard thresholding: gradient step scaled by 1/n,
    then keep the k largest-magnitude components (ties to the lower index)."""
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 0:
        raise ValueError(f"steps must be a nonnegative integer, got {steps!r}")
    X = _checked_design(np.asarray(X, dtype=float))
    n, p = X.shape
    Y = _checked_vector("Y", Y, n)
    if not 1 <= k <= p:
        raise ValueError(f"k must lie in [1, p]={p}")
    beta = np.zeros(p)
    for _ in range(steps):
        beta = beta + X.T @ (Y - X @ beta) / n
        if k < p:
            order = np.argsort(-np.abs(beta), kind="stable")
            drop = order[k:]
            beta[drop] = 0.0
    return beta
