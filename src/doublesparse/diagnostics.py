"""Design-matrix and noise diagnostics: restricted-isometry constants over
double-sparse supports, doubled-budget sparse eigenvalue constants, and the
support-restricted correlated-noise statistic with its probability bound."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from .core import stream

__all__ = [
    "DsripReport",
    "dsrip",
    "sparse_eigen_constants",
    "noise_event_stat",
    "noise_event_bound",
    "rec_slack",
    "NOISE_EVENT_CONSTANT",
]

# proof-artifact constant in the noise-event probability bound; exposed,
# not tuned
NOISE_EVENT_CONSTANT = 10.0

_EXHAUSTIVE_GUARD = 10**5
# bytes of gathered rows and Gram matrices per eigvalsh batch
_CHUNK_BYTES = 1 << 22
_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class DsripReport:
    """Extreme support-restricted eigenvalues of X^T X and their gap.

    ``delta_s = 1 - l_s / u_s``. Monte-Carlo reports maximize/minimize over a
    sampled subset of supports only, so their delta underestimates the truth;
    ``is_lower_bound_on_delta`` flags that.
    """

    u_s: float
    l_s: float
    delta_s: float
    method: str
    trials: int | None = None
    is_lower_bound_on_delta: bool = False
    degenerate_supports: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _support_indices(m, d, s, s0) -> np.ndarray:
    """Every support with s occupied columns of s0 entries each, one per row
    of a (count, s*s0) index array, in ``combinations(cols) x product(row
    subsets)`` order. Entry (i, j) is X-column d*j + i."""
    col_sets = np.array(list(combinations(range(m), s)), dtype=np.intp)
    row_sets = np.array(list(combinations(range(d), s0)), dtype=np.intp)
    # one row subset per occupied column, last column varying fastest
    choice = np.indices((row_sets.shape[0],) * s).reshape(s, -1).T
    idx = d * col_sets[:, None, :, None] + row_sets[choice][None, :, :, :]
    return idx.reshape(-1, s * s0)


def _support_count(m, d, s, s0) -> int:
    return math.comb(m, s) * math.comb(d, s0) ** s


def _sample_support(rng, m, d, s, s0) -> np.ndarray:
    cols = np.sort(rng.choice(m, size=s, replace=False))
    rows = [np.sort(rng.choice(d, size=s0, replace=False)) for _ in cols]
    return (d * cols[:, None] + np.array(rows)).ravel()


def _extreme_eigs(X, idx):
    """(u_s, l_s, degenerate) over the supports in the rows of ``idx``:
    one stacked eigvalsh per chunk of Gram submatrices."""
    XT = np.ascontiguousarray(X.T)
    k = idx.shape[1]
    # a support's gathered k x n rows plus its k x k Gram matrix
    chunk = max(1, _CHUNK_BYTES // (8 * k * (XT.shape[1] + k)))
    u_s = -math.inf
    l_s = math.inf
    degenerate = 0
    for start in range(0, idx.shape[0], chunk):
        Xs = XT[idx[start:start + chunk]]
        eigs = np.linalg.eigvalsh(Xs @ Xs.transpose(0, 2, 1))
        top = eigs[:, -1]
        degenerate += int(np.count_nonzero(top < _DEGENERATE_TOL))
        u_s = max(u_s, float(top.max()))
        l_s = min(l_s, max(float(eigs[:, 0].min()), 0.0))
    return u_s, l_s, degenerate


def _checked_design(X, m, d, s, s0) -> np.ndarray:
    """``X`` as a float array, after checking that it is a finite n x (m*d)
    matrix and that the budget (s, s0) fits the d x m grid."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be a 2-d n x p array, got shape {X.shape}")
    if X.shape[1] != m * d:
        raise ValueError(f"X has {X.shape[1]} columns, expected m*d = {m * d}")
    if not 1 <= s <= m:
        raise ValueError(f"s must lie in [1, m] = [1, {m}], got {s}")
    if not 1 <= s0 <= d:
        raise ValueError(f"s0 must lie in [1, d] = [1, {d}], got {s0}")
    if not np.all(np.isfinite(X)):
        raise ValueError("X must be finite")
    return X


def dsrip(
    X: np.ndarray,
    m: int,
    d: int,
    s: int,
    s0: int,
    method: str = "exhaustive",
    trials: int | None = None,
    seed: int = 0,
) -> DsripReport:
    """Restricted-isometry report over supports with exactly ``s`` occupied
    columns and exactly ``s0`` entries per occupied column.

    Enumerating only maximal supports is exact for both extremes: eigenvalue
    interlacing makes the minimum eigenvalue nonincreasing and the maximum
    nondecreasing as a support grows, so both are attained on maximal
    supports. ``monte_carlo`` samples supports uniformly instead.

    Cost: with k = s*s0 and N supports (the enumerated count, or ``trials``),
    O(N*k) index storage, then per support a k x n row gather, an
    O(n*k^2) Gram product and an O(k^3) eigendecomposition. Supports are
    processed in stacks of at most 4 MiB of gathered rows and Gram matrices,
    one ``eigvalsh`` call per stack, so working memory beyond the index array
    does not grow with N.
    """
    X = _checked_design(X, m, d, s, s0)
    if method == "exhaustive":
        count = _support_count(m, d, s, s0)
        if count > _EXHAUSTIVE_GUARD:
            raise ValueError(
                f"instance too large for exhaustive enumeration: {count} supports"
            )
        idx = _support_indices(m, d, s, s0)
        flagged = False
        trials_out = None
    elif method == "monte_carlo":
        if not trials or trials < 1:
            raise ValueError("monte_carlo requires a positive trial count")
        rng = stream(seed)
        idx = np.array([_sample_support(rng, m, d, s, s0) for _ in range(trials)])
        flagged = True
        trials_out = trials
    else:
        raise ValueError(f"unknown method {method!r}")
    u_s, l_s, degenerate = _extreme_eigs(X, idx)

    delta = 1.0 - l_s / u_s if u_s > _DEGENERATE_TOL else 1.0
    delta = min(max(delta, 0.0), 1.0)
    return DsripReport(
        u_s=u_s,
        l_s=l_s,
        delta_s=delta,
        method=method,
        trials=trials_out,
        is_lower_bound_on_delta=flagged,
        degenerate_supports=degenerate,
    )


def sparse_eigen_constants(
    X: np.ndarray,
    m: int,
    d: int,
    s2: int,
    s02: int,
    method: str = "exhaustive",
    trials: int | None = None,
    seed: int = 0,
):
    """Extreme singular values of support-restricted submatrices, scaled by
    1/sqrt(n), over the (doubled) budget class: pass s2 = 2s, s02 = 2s0."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    report = dsrip(X, m, d, s2, s02, method=method, trials=trials, seed=seed)
    tau_u = math.sqrt(report.u_s / n)
    tau_l = math.sqrt(max(report.l_s, 0.0) / n)
    return tau_u, tau_l


def noise_event_stat(
    X: np.ndarray, xi: np.ndarray, m: int, d: int, s: int, s0: int
) -> float:
    """max over admissible supports of the squared correlated-noise mass.

    With Xi the d x m reshape of X^T xi / n, the maximum over supports with at
    most s columns and at most s0 entries per column has the closed form: per
    column, sum of the s0 largest squared entries; then the sum of the s
    largest column scores.
    """
    X = _checked_design(X, m, d, s, s0)
    xi = np.asarray(xi, dtype=float)
    n = X.shape[0]
    if xi.shape != (n,):
        raise ValueError(f"xi must have shape ({n},), got {xi.shape}")
    if not np.all(np.isfinite(xi)):
        raise ValueError("xi must be finite")
    xi_corr = (X.T @ xi / n).reshape((d, m), order="F")
    sq = xi_corr * xi_corr
    top_rows = np.sort(sq, axis=0)[::-1, :][:s0, :]
    col_scores = np.sum(top_rows, axis=0)
    return float(np.sum(np.sort(col_scores)[::-1][:s]))


def noise_event_bound(sigma: float, n: int, p: int, d: int, s: int, s0: int) -> float:
    """High-probability envelope 10 * sigma^2 * s * (ln(e*p/s) + s0*ln(e*d/s0)) / n
    for the statistic of :func:`noise_event_stat`."""
    return (
        NOISE_EVENT_CONSTANT
        * sigma
        * sigma
        * s
        * (math.log(math.e * p / s) + s0 * math.log(math.e * d / s0))
        / n
    )


def rec_slack(rq: float, n: int, s: int, d: int, q: float) -> float:
    """Restricted-eigenvalue slack term s * rq * (ln(d)/n)^(1 - q/2)."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q}")
    return s * rq * (math.log(d) / n) ** (1.0 - q / 2.0)
