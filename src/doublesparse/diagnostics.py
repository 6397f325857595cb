"""Design-matrix and noise diagnostics: restricted-isometry constants over
double-sparse supports, doubled-budget sparse eigenvalue constants, and the
support-restricted correlated-noise statistic with its probability bound."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass
from functools import partial
from itertools import combinations

import numpy as np

from . import core
from .core import (
    _check_budget,
    _check_flat_budget,
    _check_noise,
    _check_nonnegative,
    _check_q,
    _check_sample_size,
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
# inertia-test stack and the chunk's column union with its Gram matrix; also
# per block of interval-table rows and per chunk of interval reads
_CHUNK_BYTES = 1 << 22
_DEGENERATE_TOL = 1e-12
# an exhaustive enumeration seeds u_s and l_s with the exact eigenvalues of
# this many supports of highest interval top and as many of lowest bottom;
# the supports beyond the seeded values are left to the chunks
_SEED = 128


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


def _combinations(n, k) -> np.ndarray:
    """``combinations(range(n), k)`` as a (count, k) intp array, in the same
    order, built a column at a time."""
    out = np.zeros((1, 0), dtype=np.intp)
    for col in range(k):
        last = out[:, -1] if col else np.full(1, -1)
        counts = n - k + col - last  # next entry from last + 1 to n - k + col
        before = np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.repeat(np.arange(out.shape[0]), counts)
        nxt = np.repeat(last + 1, counts) + np.arange(rows.size) - before
        out = np.column_stack([out[rows], nxt])
    return out


def _support_indices(m, d, s, s0) -> np.ndarray:
    """Every support with s occupied columns of s0 entries each, one per row
    of a (count, s*s0) index array, in ``combinations(cols) x product(row
    subsets)`` order. Entry (i, j) is X-column d*j + i."""
    col_sets = _combinations(m, s)
    row_sets = _combinations(d, s0)
    # one row subset per occupied column, last column varying fastest
    choice = np.indices((row_sets.shape[0],) * s).reshape(s, -1).T
    idx = d * col_sets[:, None, :, None] + row_sets[choice][None, :, :, :]
    return idx.reshape(-1, s * s0)


def _support_rows(sets, row_sets, d, positions) -> np.ndarray:
    """Rows ``positions`` of ``_support_indices(m, d, s, s0)``, from
    ``sets = _combinations(m, s)`` and ``row_sets = _combinations(d, s0)``
    alone: a position is its column set's rank times r^s (r row subsets)
    plus its row subsets' ranks as s base-r digits, the last column's
    lowest."""
    s = sets.shape[1]
    r = row_sets.shape[0]
    rank, digits = np.divmod(positions, r ** s)
    digits = digits[:, None] // r ** np.arange(s - 1, -1, -1) % r
    idx = d * sets[rank][:, :, None] + row_sets[digits]
    return idx.reshape(-1, s * row_sets.shape[1])


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


def _margin(k, n, c2) -> float:
    """The margin M = 8 k (n + k^2) eps c^2 of :func:`_extreme_eigs` for
    supports of k columns of length n."""
    return 8.0 * k * (n + k * k) * np.finfo(float).eps * c2


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
    margin = _margin(k, XT.shape[1], max(float(gram.diagonal().max()), u_s / k))
    G = gram[local[:, None], local[None, :]]  # k x k x count
    diag = np.arange(k)
    # both tests on one stack; no support lowers l_s past its clamp at 0
    A = np.concatenate([-G, G], axis=2)
    A[diag, diag] += np.repeat([u_s - margin, -(l_s + margin)], count)
    below, above = _positive_definite(A).reshape(2, count)
    nondegenerate = G[diag, diag].max(axis=0) > _DEGENERATE_TOL + margin
    return below & (above | (l_s == 0.0)) & nondegenerate


def _prefix_settled(
    XT, grid, u_s, l_s, margin, open_top=None, open_bottom=None
) -> np.ndarray:
    """Per support of ``_support_indices(*grid)``: whether the two LDL^T
    inertia tests of :func:`_settled` certify lambda_max < u_s - margin and,
    while l_s > 0, lambda_min > l_s + margin. The upper test runs on the
    prefixes (below) that hold a support of the bool mask ``open_top``, the
    lower test on those that hold one of ``open_bottom``, each on every
    prefix when its mask is None. A support that a test skips counts as
    passing it, so the caller must know that it would pass, or have no use
    for it. The degeneracy test is left to the caller.

    A support's first P = (s - 1) s0 pivots depend only on its prefix: the
    column set and the row subsets of its first s - 1 columns. Each prefix
    is eliminated once per test, on a K x K matrix (K = P + d) that holds
    the prefix and every row of the last column, from the Gram matrix of
    the chunk's column union as in :func:`_settled`. The Schur complement's
    s0 x s0 block at each of the r row subsets of the last column then
    finishes the r supports that extend the prefix. An entry's update at
    pivot j reads only its own row and column at j and the pivot, so every
    entry takes the same operations as in :func:`_settled`. With both masks
    None the cost is fixed by the grid. None is settled when a prefix matrix
    is larger than its r supports' own (K^2 > r k^2); in a chunk, when the
    union's Gram matrix is larger than both the chunk's prefix matrices and
    ``_CHUNK_BYTES``."""
    m, d, s, s0 = grid
    k, P = s * s0, (s - 1) * s0
    K = P + d
    row_sets = _combinations(d, s0)
    r = row_sets.shape[0]
    R = r ** (s - 1)  # prefixes per column set
    count = math.comb(m, s) * R
    settled = np.zeros((count, r), dtype=bool)
    if K * K > r * k * k:
        return settled.reshape(-1)
    # per prefix, whether it takes the upper and the lower test
    tested = [np.ones(count, dtype=bool) if mask is None else mask.reshape(count, r).any(1)
              for mask in (open_top, open_bottom)]
    sets = _combinations(m, s)
    prefix = np.indices((r,) * (s - 1)).reshape(s - 1, R)
    diag = np.arange(K)
    last = P + row_sets.T
    # a prefix's two shifted matrices and temporaries, and its leaf blocks
    step = max(1, _CHUNK_BYTES // (8 * (3 * K * K + 3 * s0 * s0 * r)))
    for start in range(0, count, step):
        states = np.arange(start, min(count, start + step))
        b = states.size
        cols = sets[states // R]
        rows = np.concatenate(
            [d * cols[:, a, None] + row_sets[prefix[a, states % R]] for a in range(s - 1)]
            + [d * cols[:, -1, None] + np.arange(d)], axis=1)
        union, local = _union(rows, XT.shape[0])
        if union.size ** 2 > max(rows.size * K, _CHUNK_BYTES // 8):
            continue
        XU = XT[union]
        gram = XU @ XU.T
        upper, lower = (np.flatnonzero(t[start:start + b]) for t in tested)
        nu = upper.size
        local = np.ascontiguousarray(np.concatenate([local[upper], local[lower]]).T)
        A = gram[local[:, None], local[None, :]]  # K x K x (upper + lower)
        np.negative(A[:, :, :nu], out=A[:, :, :nu])
        A[diag, diag] += np.repeat([u_s - margin, -(l_s + margin)], [nu, lower.size])
        with np.errstate(all="ignore"):  # as in _positive_definite
            for j in range(P):
                A[j + 1:, j + 1:] -= A[j + 1:, j, None] * (A[j + 1:, j] / A[j, j])
            ok = np.all(A[range(P), range(P)] > 0.0, axis=0)
        leaves = A[last[:, None], last[None, :]]  # s0 x s0 x r x (upper + lower)
        passed = _positive_definite(leaves) & ok
        below, above = np.ones((2, r, b), dtype=bool)
        below[:, upper] = passed[:, :nu]
        above[:, lower] = passed[:, nu:]
        settled[start:start + b] = (below & (above | (l_s == 0.0))).T
    return settled.reshape(-1)


def _support_intervals(XT, m, d, s, s0) -> np.ndarray:
    """A 3 x count array whose columns are, per support of
    ``_support_indices(m, d, s, s0)``, the mean eigenvalue of its Gram
    matrix G and the lower and upper end of the interval mean -+ sqrt(k - 1)
    sd that holds all of them, with sd^2 = (||G||_F^2 - tr(G)^2 / k) / k and
    the radicand inflated by its rounding bound (see :func:`_extreme_eigs`).
    ``XT`` is X^T, C-contiguous.

    No support's G is formed. Both moments are sums over tables indexed by
    row subset rho: per column c, the trace, the squared-diagonal sum and
    the off-diagonal squared mass of the rho x rho block of X_c^T X_c; per
    column pair (c, c'), the cross mass (I (G_cc' o G_cc') I^T)[rho, rho'],
    with G_cc' = X_c^T X_c' and I the row-subset indicator. The pair tables
    come from blocks of rows of X^T X and the supports read the tables in
    chunks, both of about ``_CHUNK_BYTES``."""
    n = XT.shape[1]
    k = s * s0
    row_sets = _combinations(d, s0)
    r = row_sets.shape[0]
    XT3 = XT.reshape(m, d, n)
    diag = np.einsum("cin,cin->ci", XT3, XT3)
    trace = diag[:, row_sets].sum(axis=2)
    mass = (diag * diag)[:, row_sets].sum(axis=2)
    if s0 > 1:  # each off-diagonal entry once, counted twice
        H = XT3 @ XT3.transpose(0, 2, 1)
        H *= H
        for a, b in combinations(range(s0), 2):
            mass += 2.0 * H[:, row_sets[:, a], row_sets[:, b]]
    if s > 1:  # pairs (c, c') in lexicographic order, m - c - 1 per column c
        cross = np.empty((m * (m - 1) // 2, r, r))
        step = max(1, _CHUNK_BYTES // (8 * m * (2 * d * d + d * r + r * r)))
        done = 0
        for c0 in range(0, m - 1, step):
            c1 = min(m - 1, c0 + step)
            G = XT[c0 * d:c1 * d] @ XT[c0 * d:].T
            first, second = np.triu_indices(c1 - c0, 1, m - c0)
            H = G.reshape(c1 - c0, d, m - c0, d)[first, :, second, :]
            H *= H
            H = sum(H[:, :, row_sets[:, b]] for b in range(s0))  # rows x subsets
            cross[done:done + first.size] = sum(H[:, row_sets[:, a]] for a in range(s0))
            done += first.size
    sets = _combinations(m, s)
    # the radicand's rounding: ||G||_F^2 sums k^2 rounded squares and
    # tr^2 / k squares a sum of k terms
    slack = 2.0 * (k * k + 2 * k + 4) * np.finfo(float).eps / k
    out = np.empty((3, sets.shape[0]) + (r,) * s)
    # each column set's supports form an r x ... x r grid, row subsets in
    # support order, and each table broadcasts along its own axes of it;
    # the grids' rows of ``out`` hold the moments until the interval is known
    step = max(1, _CHUNK_BYTES // (8 * r ** s))
    for start in range(0, sets.shape[0], step):
        cols = sets[start:start + step]
        mean, lower, upper = out[:, start:start + step]
        axes = [[cols.shape[0]] + [r if j == a else 1 for j in range(s)] for a in range(s)]
        mean[...] = trace[cols[:, 0]].reshape(axes[0])
        upper[...] = mass[cols[:, 0]].reshape(axes[0])
        for a in range(1, s):
            mean += trace[cols[:, a]].reshape(axes[a])
            upper += mass[cols[:, a]].reshape(axes[a])
        for a, b in combinations(range(s), 2):
            pair = cols[:, a] * (2 * m - cols[:, a] - 1) // 2 + cols[:, b] - cols[:, a] - 1
            upper += 2.0 * cross[pair].reshape(np.maximum(axes[a], axes[b]))
        np.multiply(mean, mean / k, out=lower)  # tr^2 / k, with ||G||_F^2 in upper
        radius = (upper - lower) / k
        upper += lower
        radius += slack * upper
        np.sqrt(radius, out=radius)
        radius *= math.sqrt(k - 1)
        mean /= k
        np.subtract(mean, radius, out=lower)
        np.add(mean, radius, out=upper)
    return out.reshape(3, -1)


def _certified(intervals, u_s, l_s, margin) -> np.ndarray:
    """Per column (mean, lower, upper) of ``intervals``: whether it shows, as
    :func:`_settled` does, that the support cannot raise u_s, lower l_s or
    count as degenerate: upper < u_s - M, lower > l_s + M unless l_s = 0,
    and the mean, a lower bound on lambda_max, above the degeneracy
    tolerance plus M."""
    mean, lower, upper = intervals
    certified = (upper < u_s - margin) & (mean > _DEGENERATE_TOL + margin)
    return certified & ((lower > l_s + margin) | (l_s == 0.0))


def _decompose(XT, supports, u_s, l_s, degenerate):
    """(u_s, l_s, degenerate) moved by the Gram matrices of the rows of
    ``supports``: their rows gathered, their Gram matrices formed and one
    stacked eigvalsh."""
    Xs = XT[supports]
    eigs = np.linalg.eigvalsh(Xs @ Xs.transpose(0, 2, 1))
    top = eigs[:, -1]
    return (
        max(u_s, float(top.max())),
        min(l_s, max(float(eigs[:, 0].min()), 0.0)),
        degenerate + int(np.count_nonzero(top < _DEGENERATE_TOL)),
    )


def _extreme_eigs(X, idx, grid):
    """(u_s, l_s, degenerate) over the supports in the rows of ``idx``, or,
    when ``idx`` is None, over the exhaustive enumeration of ``grid`` = (m,
    d, s, s0) in ``_support_indices(*grid)`` order; ``grid`` is None
    otherwise. An enumeration builds no count x k index array: a support
    gets its index row from its position (:func:`_support_rows`) only when
    it is decomposed or reaches :func:`_settled`.

    A few supports are eigendecomposed first, which seeds u_s and l_s: in an
    enumeration of more than 2 * _SEED supports, the _SEED with the highest
    upper ends and the _SEED with the lowest lower ends of their
    :func:`_support_intervals` (at most half a chunk each), and otherwise
    the first chunk. The other supports run in chunks. In each,
    the supports whose interval (in an enumeration) or :func:`_settled`
    certifies that they cannot raise u_s, lower l_s or count as degenerate
    are skipped; the rest get their rows gathered, their own Gram matrix G
    formed and one stacked eigvalsh, exactly as if every support were
    decomposed. Only those exact values move u_s, l_s and the count, so the
    result is that of an eigvalsh on every support, bit for bit. u_s only
    grows and l_s only shrinks, so certifying against the running values is
    enough. An enumeration first drops every support its interval certifies
    against the seeded values, and then every support that the LDL^T tests
    of :func:`_prefix_settled` certify there with a mean above the
    degeneracy tolerance plus M, so its chunks hold only supports left to
    test. Each of the two tests runs there only on the prefixes that hold a
    pending support whose interval leaves that test open; elsewhere it
    counts as passed, as the interval has shown. On Gaussian designs the upper test
    runs on about a tenth of the prefixes and the lower one on nearly all
    of them at (6, 8, 2, 3), so the pass costs about the same for every
    design of a grid, while the share of supports the intervals settle
    varies from design to design.

    The margin M = 8 k (n + k^2) eps c^2 covers the sum of three errors,
    each at most a few k (n + k^2) eps c^2, where c^2 is the larger of the
    largest squared norm of a column in the chunk's union (of any column,
    for the interval below) and u_s / k, so that u_s <= k c^2:

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

    :func:`_prefix_settled` computes, entry for entry, the eliminations of
    :func:`_settled` from a union Gram matrix of the same kind, so the three
    errors are as above; its c^2 is that of the interval below. Each test it
    runs is that elimination unchanged, so M covers it whichever prefixes
    take which test, and a test it skips is one the interval has passed
    against the same M.

    In an enumeration the interval of :func:`_support_intervals` stands in
    for the LDL^T tests, with G~ the symmetric matrix of the Gram entries
    its tables are built from (each off-diagonal entry computed once), so
    the first two errors are as above. Wolkowicz & Styan (1980, "Bounds for
    eigenvalues using traces", Linear Algebra Appl. 29) put every
    eigenvalue of a symmetric k x k matrix within mean -+ sqrt(k - 1) sd,
    where mean = tr / k and sd^2 = ||.||_F^2 / k - mean^2, and the mean is
    at most lambda_max. Rounding in the tables and the interval:

    - the mean and the radius are sums, products and a square root of a few
      k terms, each off by at most about k eps c^2, within M's third term;
    - sd^2 = (S - tr^2 / k) / k, with S = ||G~||_F^2, subtracts two nearly
      equal numbers when the eigenvalues are close. S sums k^2 rounded
      squares of nonnegative terms and tr^2 / k squares a sum of k, so the
      computed radicand is within gamma_{k^2+2k+4} (S + tr^2 / k) / k of the
      exact one. Its square root would turn that error of order eps into
      one of order sqrt(eps), so the radicand is inflated by twice the bound
      before the root is taken.
    """
    if idx is None:  # every column is in some support of an enumeration
        m, d, s, s0 = grid
        XT = np.ascontiguousarray(X.T)
        count, k = _support_count(*grid), s * s0
        rows_at = partial(_support_rows, _combinations(m, s), _combinations(d, s0), d)
    else:
        rows = slice(None)
        if idx.size < X.size:  # finding the union is cheaper than copying X
            union, local = _union(idx, X.shape[1])
            if union.size < X.shape[1]:  # copy only the rows of X^T in use
                rows, idx = union, local
        XT = np.ascontiguousarray(X.T[rows])
        count, k = idx.shape
        rows_at = idx.__getitem__
    p, n = XT.shape
    # a support's gathered k x n rows and about six k x k matrices (Gram
    # matrices, its share of the inertia-test stack and temporaries), plus
    # the rows and Gram matrix of the chunk's column union, which is used
    # only while it has at most k sqrt(chunk) columns
    per_support = 8 * k * (n + 6 * k)
    union_cap = min(p, k * math.isqrt(max(1, _CHUNK_BYTES // per_support)))
    chunk = max(1, (_CHUNK_BYTES - 8 * union_cap * (n + union_cap)) // per_support)
    intervals = None
    seed = np.arange(min(chunk, count))
    width = max(1, min(_SEED, chunk // 2))
    if idx is None and count > 2 * width:
        intervals = _support_intervals(XT, *grid)
        norm2 = float(np.einsum("ij,ij->i", XT, XT).max())
        seed = np.union1d(
            np.argpartition(intervals[2], -width)[-width:],
            np.argpartition(intervals[1], width)[:width],
        )
    u_s, l_s, degenerate = _decompose(XT, rows_at(seed), -math.inf, math.inf, 0)
    pending = np.ones(count, dtype=bool)
    pending[seed] = False
    if intervals is not None:  # drop what the seeded values already settle
        margin = _margin(k, n, max(norm2, u_s / k))
        pending &= ~_certified(intervals, u_s, l_s, margin)
        if pending.any():
            mean, lower, upper = intervals
            open_top = pending & ~(upper < u_s - margin)
            open_bottom = pending & ~((lower > l_s + margin) | (l_s == 0.0))
            pending &= ~(_prefix_settled(XT, grid, u_s, l_s, margin, open_top, open_bottom)
                         & (mean > _DEGENERATE_TOL + margin))
    rest = np.flatnonzero(pending)
    for start in range(0, rest.size, chunk):
        picks = rest[start:start + chunk]
        if intervals is not None:
            margin = _margin(k, n, max(norm2, u_s / k))
            picks = picks[~_certified(intervals[:, picks], u_s, l_s, margin)]
            if not picks.size:
                continue
        supports = rows_at(picks)
        supports = supports[~_settled(XT, supports, u_s, l_s)]
        if supports.shape[0]:
            u_s, l_s, degenerate = _decompose(XT, supports, u_s, l_s, degenerate)
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
    one copy of the rows of X^T the supports use (all of them in an
    enumeration, or when N*k is at least the size of X), plus, for
    ``monte_carlo``, O(N*k) index storage, and for an enumeration, three
    interval floats and a few flags per support; an enumeration computes a
    support's index row from its position when it needs one. Supports are
    processed in chunks of about 4 MiB of working arrays, so working memory
    beyond these per-support arrays does not grow with N.

    Exhaustive enumeration first builds tables over the r = C(d, s0) row
    subsets from X^T X: per column, from its d x d block, and per column
    pair, from its d x d cross block, O(n p^2) for the blocks in all. The
    cross blocks come from blocks of rows of X^T X of about 4 MiB, so the
    p x p Gram matrix is never held whole once it is larger than that. Each
    support then reads O(s^2) table entries, which give an interval holding
    all its eigenvalues; the 128 supports with the highest interval tops and
    the 128 with the lowest bottoms are eigendecomposed first, and every
    support whose interval then shows that it cannot move an extreme or be
    degenerate is settled. The rest then take the two LDL^T inertia tests
    with the elimination of their first s - 1 columns shared by the
    C(d, s0) supports that extend them, each test only where an interval
    leaves it open: per chunk of about 4 MiB of prefixes, one O(n*u^2) Gram
    product of its column union of u columns, then O(P*K^2) per prefix and
    test, with P = (s - 1) s0 and K = P + d, and O(s0^3) per support and
    test (skipped when K^2 > C(d, s0) k^2). On Gaussian designs about a
    tenth of the prefixes take the upper test, and the lower one runs on
    nearly all of them at (6, 8, 2, 3), so this costs about the same for
    every design of the grid; it settles all but a few of the supports.
    The rest, and every chunk of
    ``monte_carlo`` supports after the first, go to two LDL^T inertia tests
    when the chunk's column union has u <= k sqrt(chunk) columns, as in
    exhaustive enumeration: one O(n*u^2) union Gram product per chunk and
    O(k^3) per support. Only the supports these cannot settle, and every
    support of a chunk with a larger union (Monte-Carlo supports over many
    columns), get the exact path: a k x n row gather, an O(n*k^2) Gram
    product and an O(k^3) eigendecomposition, one stacked ``eigvalsh`` per
    chunk. The first ``monte_carlo`` chunk takes the exact path too.

    ``trials`` is required for ``monte_carlo``, as a positive integer, and
    is recorded in the report as an int; the exhaustive method rejects it.
    """
    X = _checked_design(X, m, d, s, s0)
    if method == "exhaustive":
        count = _support_count(m, d, s, s0)
        if trials is not None:
            raise ValueError(
                f"trials applies only to method 'monte_carlo', got {trials!r} "
                "for method 'exhaustive'"
            )
        if count > _EXHAUSTIVE_GUARD:
            raise ValueError(
                f"instance too large for exhaustive enumeration: {count} supports"
            )
        idx = None
        grid = (m, d, s, s0)
        flagged = False
        trials_out = None
    elif method == "monte_carlo":
        if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or trials < 1:
            raise ValueError(
                f"trials must be a positive integer for method 'monte_carlo', got {trials!r}"
            )
        trials = int(trials)
        rng = stream(seed)
        idx = np.array([_sample_support(rng, m, d, s, s0) for _ in range(trials)])
        grid = None
        flagged = True
        trials_out = trials
    else:
        raise ValueError(f"unknown method {method!r}")
    u_s, l_s, degenerate = _extreme_eigs(X, idx, grid)

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
    _check_nonnegative("rq", rq)
    _check_sample_size(n)
    return s * rq * (math.log(d) / n) ** (1.0 - q / 2.0)
