"""Design-matrix and noise diagnostics: restricted-isometry constants over
double-sparse supports, doubled-budget sparse eigenvalue constants, and the
support-restricted correlated-noise statistic with its probability bound."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from . import core
from .core import (
    _check_budget,
    _check_flat_budget,
    _check_noise,
    _check_q,
    _checked_vector,
    stream,
)

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
# working bytes per chunk of supports: gathered rows, Gram matrices, the
# inertia-test stack and the chunk's column union with its Gram matrix
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


def _union(supports, p):
    """The sorted column union of the index array ``supports`` over p
    columns, and each entry's position in it (``supports``' shape): what
    ``np.unique(supports, return_inverse=True)`` gives, without a sort."""
    present = np.zeros(p, dtype=bool)
    present[supports] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[supports]


def _positive_definite(A) -> np.ndarray:
    """Per matrix of the k x k x B stack ``A``, overwritten: whether LDL^T
    elimination on its lower triangle, without pivoting, keeps every pivot
    positive."""
    k = A.shape[0]
    with np.errstate(all="ignore"):  # a failed pivot may spread inf or nan
        for j in range(k - 1):
            A[j + 1:, j + 1:] -= A[j + 1:, j, None] * (A[j + 1:, j] / A[j, j])
        return np.all(A[range(k), range(k)] > 0.0, axis=0)


def _settled(XT, supports, u_s, l_s) -> np.ndarray:
    """Per row of ``supports``: whether its Gram matrix, gathered from the
    Gram matrix of the rows' column union, is certified by LDL^T inertia
    tests to have lambda_max < u_s - M and, while l_s > 0, lambda_min >
    l_s + M, and has a diagonal entry, a lower bound on lambda_max, above the
    degeneracy tolerance plus M (M as in :func:`_extreme_eigs`). None is
    settled when the union's Gram matrix costs more than the supports' own
    (u^2 > count k^2)."""
    count, k = supports.shape
    union, local = _union(supports, XT.shape[0])
    if union.size ** 2 > supports.size * k:
        return np.zeros(count, dtype=bool)
    local = np.ascontiguousarray(local.T)
    XU = XT[union]
    gram = XU @ XU.T
    c2 = max(float(gram.diagonal().max()), u_s / k)
    margin = 8.0 * k * (XT.shape[1] + k * k) * np.finfo(float).eps * c2
    G = gram[local[:, None], local[None, :]]  # k x k x count
    diag = np.arange(k)
    # both tests on one stack; no support lowers l_s past its clamp at 0
    A = np.concatenate([-G, G], axis=2)
    A[diag, diag] += np.repeat([u_s - margin, -(l_s + margin)], count)
    below, above = _positive_definite(A).reshape(2, count)
    nondegenerate = G[diag, diag].max(axis=0) > _DEGENERATE_TOL + margin
    return below & (above | (l_s == 0.0)) & nondegenerate


def _extreme_eigs(X, idx):
    """(u_s, l_s, degenerate) over the supports in the rows of ``idx``.

    Supports run in chunks. The first chunk's supports are all
    eigendecomposed, which seeds u_s and l_s. In each later chunk, the
    supports that :func:`_settled` certifies cannot raise u_s, lower l_s or
    count as degenerate are skipped; the rest get their rows gathered, their
    own Gram matrix G formed and one stacked eigvalsh, exactly as if every
    support were decomposed. Only those exact values move u_s, l_s and the
    count, so the result is that of an eigvalsh on every support, bit for
    bit. u_s only grows and l_s only shrinks, so certifying against the
    running values is enough.

    The margin M = 8 k (n + k^2) eps c^2 covers the sum of three errors,
    each at most a few k (n + k^2) eps c^2, where c^2 is the larger of the
    largest squared norm of a column in the chunk's union and u_s / k, so
    that u_s <= k c^2:

    - the certified matrix G~ and G are length-n dot products summed in two
      orders, each entry within gamma_n |x_u| |x_v| <= gamma_n c^2 of the
      exact one, so ||G~ - G||_2 <= 2 gamma_n k c^2, about 2 n k eps c^2;
    - eigvalsh is backward stable: each computed eigenvalue of G is within
      p(k) eps ||G||_2 <= p(k) k eps c^2 of the true one, for a modestly
      growing p(k), taken here as at most k^2;
    - LDL^T elimination with positive pivots factors A + E exactly, with
      ||E||_2 <= gamma_{k+1} tr(A) (Cauchy-Schwarz on |L||D||L^T|), and
      tr(A) <= k u_s <= k^2 c^2 for A = (u_s - M) I - G~; forming A rounds
      its diagonal by about k eps c^2 more.

    The diagonal test needs only the first two: an eigvalsh top eigenvalue
    is at least G's largest diagonal entry less both errors.
    """
    rows = slice(None)
    if idx.size < X.size:  # finding the union is cheaper than copying X
        union, local = _union(idx, X.shape[1])
        if union.size < X.shape[1]:  # copy only the rows of X^T in use
            rows, idx = union, local
    XT = np.ascontiguousarray(X.T[rows])
    p, n = XT.shape
    k = idx.shape[1]
    # a support's gathered k x n rows and about six k x k matrices (Gram
    # matrices, its share of the inertia-test stack and temporaries), plus
    # the rows and Gram matrix of the chunk's column union, which is used
    # only while it has at most k sqrt(chunk) columns
    per_support = 8 * k * (n + 6 * k)
    union_cap = min(p, k * math.isqrt(max(1, _CHUNK_BYTES // per_support)))
    chunk = max(1, (_CHUNK_BYTES - 8 * union_cap * (n + union_cap)) // per_support)
    u_s = -math.inf
    l_s = math.inf
    degenerate = 0
    for start in range(0, idx.shape[0], chunk):
        supports = idx[start:start + chunk]
        if start:  # the first chunk seeds the thresholds
            supports = supports[~_settled(XT, supports, u_s, l_s)]
            if not supports.shape[0]:
                continue
        Xs = XT[supports]
        eigs = np.linalg.eigvalsh(Xs @ Xs.transpose(0, 2, 1))
        top = eigs[:, -1]
        degenerate += int(np.count_nonzero(top < _DEGENERATE_TOL))
        u_s = max(u_s, float(top.max()))
        l_s = min(l_s, max(float(eigs[:, 0].min()), 0.0))
    return u_s, l_s, degenerate


def _checked_design(X, m, d, s, s0) -> np.ndarray:
    """``X`` as a float array, after checking that it is a finite n x (m*d)
    matrix and that the budget (s, s0) fits the d x m grid."""
    X = core._checked_design(np.asarray(X, dtype=float), m * d)
    _check_budget(m, d, s, s0)
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
    O(N*k) index storage and one copy of the rows of X^T the supports use
    (all of them when N*k is at least the size of X, as in exhaustive
    enumeration). Supports are processed in chunks of about 4 MiB of
    working arrays, so working memory beyond the index array does not grow
    with N. A chunk whose column union has u <= k sqrt(chunk) columns, as in
    exhaustive enumeration, costs one O(n*u^2) union Gram product and
    O(k^3) per support for two LDL^T inertia tests; only the supports these
    cannot settle, the ones that could move an extreme or be degenerate,
    get the exact path: a k x n row gather, an O(n*k^2) Gram product and an
    O(k^3) eigendecomposition, one stacked ``eigvalsh`` per chunk. The first
    chunk, and every support of a chunk with a larger union (Monte-Carlo
    supports over many columns), take the exact path.
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
    report = dsrip(X, m, d, s2, s02, method=method, trials=trials, seed=seed)
    n = X.shape[0]  # after dsrip has checked that X is 2-d
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
    n = X.shape[0]
    xi = _checked_vector("xi", xi, n)
    xi_corr = (X.T @ xi / n).reshape((d, m), order="F")
    sq = xi_corr * xi_corr
    top_rows = np.sort(sq, axis=0)[::-1, :][:s0, :]
    col_scores = np.sum(top_rows, axis=0)
    return float(np.sum(np.sort(col_scores)[::-1][:s]))


def noise_event_bound(sigma: float, n: int, p: int, d: int, s: int, s0: int) -> float:
    """High-probability envelope 10 * sigma^2 * s * (ln(e*p/s) + s0*ln(e*d/s0)) / n
    for the statistic of :func:`noise_event_stat`."""
    _check_noise(sigma, n)
    _check_flat_budget(p, d, s, s0)
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
    _check_q(q)
    return s * rq * (math.log(d) / n) ** (1.0 - q / 2.0)
