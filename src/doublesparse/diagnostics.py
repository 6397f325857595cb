"""Design-matrix and noise diagnostics: restricted-isometry constants over
double-sparse supports, doubled-budget sparse eigenvalue constants, and the
support-restricted correlated-noise statistic with its probability bound.

Why :func:`dsrip` may skip supports. A report's u_s, l_s and degenerate
count move only by the eigvalsh eigenvalues of a support's own Gram matrix
G, formed from its gathered rows (the exact path). A support skips that
path only when a certificate shows, with a margin M to spare, that it can
neither raise u_s (lambda_max < u_s - M), nor lower l_s (lambda_min > l_s
+ M, nothing to show while l_s is at its clamp 0), nor count as degenerate
(lambda_max > _DEGENERATE_TOL + M). u_s only grows and l_s only shrinks,
so certifying against the running values is enough, and the report is
that of an eigvalsh on every support, bit for bit. The certificates:

- LDL^T inertia tests (:func:`_prefix_settled` in an enumeration,
  :func:`_settled` in Monte-Carlo): elimination without pivoting keeps
  every pivot of (u_s - M) I - G~ and of G~ - (l_s + M) I positive, G~
  gathered from the Gram matrix of every column the supports use, formed
  at most once per call by one rule for both methods (:func:`_gram`): only
  when it costs less than the supports' own and fits _CHUNK_BYTES, and
  with no such matrix no support takes these tests. G~ may be a larger
  K x K matrix that holds the support's as a principal submatrix: by
  Cauchy's interlacing theorem (Horn & Johnson, Matrix Analysis, ch. 4)
  the support's eigenvalues lie between its extreme ones, so a test that
  passes on it passes for the support;
- in Monte-Carlo, a diagonal entry of G~, a squared column norm of the
  support: the same entry of G is a lower bound on lambda_max;
- in an enumeration, the interval of :func:`_support_intervals`, with G~
  the symmetric matrix of the Gram entries its tables are built from (each
  off-diagonal entry computed once). Wolkowicz & Styan (1980, "Bounds for
  eigenvalues using traces", Linear Algebra Appl. 29) put every eigenvalue
  of a symmetric k x k matrix within mean -+ sqrt(k - 1) sd, where mean =
  tr / k and sd^2 = ||.||_F^2 / k - mean^2, and the mean is at most
  lambda_max.

The margin M = 8 k (n + k^2) eps c^2 of :func:`_margin`, for supports of k
columns of length n, covers the sum of three errors, each at most a few
k (n + k^2) eps c^2. c^2 is the larger of the largest squared norm of a
column in use, computed once per call (in Monte-Carlo, the largest
diagonal entry of the Gram matrix of the columns in use), and u_s / k, so
that u_s <= k c^2. A test on a K x K matrix takes the margin with K for
k: each bound below grows with the size, so one rule holds, the margin of
the largest matrix a test eliminates.

- G~ and G are length-n dot products summed in two orders, each entry
  (a squared column norm on the diagonal) within gamma_n |x_u| |x_v| <=
  gamma_n c^2 of the exact one, so ||G~ - G||_2 <= 2 gamma_n k c^2, about
  2 n k eps c^2;
- eigvalsh is backward stable: each computed eigenvalue of G is within
  p(k) eps ||G||_2 <= p(k) k eps c^2 of the true one, for a modestly
  growing p(k), taken here as at most k^2;
- LDL^T elimination with positive pivots factors A + E exactly, with
  ||E||_2 <= gamma_{k+1} tr(A) (Cauchy-Schwarz on |L||D||L^T|), and
  tr(A) <= k u_s <= k^2 c^2 for A = (u_s - M) I - G~; forming A rounds its
  diagonal by about k eps c^2 more. In the interval this third error is
  its rounding: the mean and the radius are sums, products and a square
  root of a few k terms, each off by at most about k eps c^2.

Monte-Carlo's column norm needs only the first two. The interval's
radicand sd^2 = (S - tr^2 / k) / k, with S = ||G~||_F^2, subtracts two
nearly equal numbers when the eigenvalues are close. S sums k^2 rounded
squares of nonnegative terms and tr^2 / k squares a sum of k, so the
computed radicand is within gamma_{k^2+2k+4} (S + tr^2 / k) / k of the
exact one. Its square root would turn that error of order eps into one of
order sqrt(eps), so the radicand is inflated by twice the bound before
the root is taken.

:func:`_prefix_settled` first tests a prefix's K x K matrix, which holds
every support that extends the prefix, with the margin of K. It
eliminates the matrix with the last column's rows pivoted first, a
symmetric permutation with the same eigenvalues, and the argument above
holds for any pivot order. The prefixes that fail take the per-support
eliminations computed entry for entry (an entry's update at pivot j
reads only its own row and column at j and the pivot), with the margin
of k. It runs each of the two tests only on the prefixes that hold a
support whose interval leaves that test open. Every other support's
interval has shown that test's bound against the margin of k, so a
skipped test counts as passed.
"""

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

_EXHAUSTIVE_GUARD = 4 * 10**6
# working bytes per chunk of supports: gathered rows, Gram matrices and, in
# Monte-Carlo, the inertia-test stack; also the most a call's one Gram
# matrix of its columns in use (_gram, either method) may take, and per
# block of interval-table rows, per chunk of interval reads, and per chunk
# of column sets and of prefixes in the prefix pass
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


def _support_indices(m, d, s, s0) -> np.ndarray:
    """Every support with s occupied columns of s0 entries each, one per row
    of a (count, s*s0) index array, in ``combinations(cols) x product(row
    subsets)`` order. Entry (i, j) is X-column d*j + i."""
    positions = np.arange(_support_count(m, d, s, s0))
    return _support_rows(_combinations(m, s), _combinations(d, s0), d, positions)


def _sample_supports(rng, trials, m, d, s, s0) -> np.ndarray:
    """``trials`` supports drawn uniformly, one per row of a (trials,
    s*s0) index array: per trial, one ``rng.choice`` of s columns, then
    one of s0 rows for each of them in turn, each sorted."""
    cols = np.empty((trials, s), dtype=np.intp)
    rows = np.empty((trials, s, s0), dtype=np.intp)
    for t in range(trials):
        cols[t] = rng.choice(m, size=s, replace=False)
        rows[t] = [rng.choice(d, size=s0, replace=False) for _ in range(s)]
    rows.sort()
    cols.sort()
    cols *= d
    rows += cols[:, :, None]
    return rows.reshape(trials, s * s0)


def _union(supports, p) -> np.ndarray:
    """The sorted column union of the index array ``supports`` over p
    columns, with ``supports`` renumbered in place to each entry's position
    in it: what ``np.unique(supports, return_inverse=True)`` gives, without
    a sort or a second index array."""
    present = np.zeros(p, dtype=bool)
    present[supports] = True
    # mode="clip" writes into ``supports`` directly; "raise" buffers a copy
    np.take(np.cumsum(present) - 1, supports, out=supports, mode="clip")
    return np.flatnonzero(present)


def _gram(XT, count, k):
    """X^T X over the u rows of ``XT``, the columns in use, when it costs
    less than the Gram matrices of ``count`` supports of k columns (u^2 <=
    count k^2) and fits ``_CHUNK_BYTES``; otherwise None."""
    u = XT.shape[0]
    return XT @ XT.T if u * u <= min(count * k * k, _CHUNK_BYTES // 8) else None


def _margin(k, n, c2, u_s) -> float:
    """The margin M = 8 k (n + k^2) eps c^2 for supports of k columns of
    length n, with c^2 the larger of ``c2``, the largest squared column
    norm, and u_s / k (see the module docstring)."""
    return 8.0 * k * (n + k * k) * np.finfo(float).eps * max(c2, u_s / k)


def _shifted_stack(gram, top, bottom, u_s, l_s, margin) -> np.ndarray:
    """The k x k x (t + b) stack of the two inertia tests' matrices, for
    the t rows of ``top`` and the b rows of ``bottom``, each k positions in
    the column union whose Gram matrix is ``gram``: (u_s - margin) I - G
    per row of ``top`` and G - (l_s + margin) I per row of ``bottom``, G
    the row's Gram matrix gathered from ``gram``."""
    local = np.ascontiguousarray(np.concatenate([top, bottom]).T)
    A = gram[local[:, None], local[None, :]]
    t = top.shape[0]
    # not np.negative(..., out=...): on some SIMD builds it misreads strided
    # views (numpy 2.4.6 with AVX-512, at a stride of 8 doubles)
    A[:, :, :t] *= -1.0
    diag = np.arange(A.shape[0])
    A[diag, diag] += np.repeat([u_s - margin, -(l_s + margin)], [t, bottom.shape[0]])
    return A


def _eliminate(A, pivots) -> np.ndarray:
    """Per matrix of the K x K x B stack ``A``, overwritten: whether LDL^T
    elimination on its lower triangle, without pivoting, keeps its first
    ``pivots`` pivots positive. The trailing block is left holding their
    Schur complement."""
    with np.errstate(all="ignore"):  # a failed pivot may spread inf or nan
        for j in range(min(pivots, A.shape[0] - 1)):
            A[j + 1:, j + 1:] -= A[j + 1:, j, None] * (A[j + 1:, j] / A[j, j])
        return np.all(np.diagonal(A)[..., :pivots] > 0.0, axis=-1)


def _settled(gram, supports, u_s, l_s, margin) -> np.ndarray:
    """Per row of ``supports``, k positions among the columns whose Gram
    matrix is ``gram``: whether the LDL^T inertia tests certify lambda_max
    < u_s - margin and, while l_s > 0, lambda_min > l_s + margin, on its
    Gram matrix gathered from ``gram``, and one of its diagonal entries, a
    squared column norm, exceeds the degeneracy tolerance plus margin."""
    count, k = supports.shape
    bottom = supports if l_s > 0.0 else supports[:0]
    passed = _eliminate(_shifted_stack(gram, supports, bottom, u_s, l_s, margin), k)
    above = passed[count:] if l_s > 0.0 else True
    norms = np.diagonal(gram)[supports.T].max(axis=0)
    return passed[:count] & above & (norms > _DEGENERATE_TOL + margin)


def _prefix_settled(gram, n, sets, row_sets, d, u_s, l_s, c2, open_top, open_bottom):
    """Per support of the enumeration over ``sets = _combinations(m, s)``
    and ``row_sets = _combinations(d, s0)``: whether the two LDL^T inertia
    tests certify lambda_max < u_s - M and lambda_min > l_s + M, with M
    the margin of the largest matrix a test eliminates, for columns of
    length ``n`` and ``c2`` the largest squared column norm. Every matrix
    is gathered from ``gram`` = X^T X, formed once per call by
    :func:`_gram`. The upper test runs on the
    prefixes (below) that hold a support of the bool mask ``open_top``, the
    lower test on those that hold one of ``open_bottom``; a support that a
    test skips counts as passing it (see the module docstring). The
    degeneracy test is left to the caller.

    A support's prefix is its column set and the row subsets of its first
    s - 1 columns, P = (s - 1) s0 rows. The prefix's K x K matrix (K = P +
    d) holds those rows and every row of the last column, so the r
    supports that extend the prefix are its principal submatrices, and a
    test that passes on it passes on all r (interlacing). The caller runs
    the pass only when that matrix is no larger than theirs (K^2 <= r k^2).
    Per chunk of column sets:

    - each column set's s d x s d matrix is eliminated once per test, the
      last column's d rows first, and each prefix's P x P block of the
      Schur complement then takes P more pivots: entry for entry, the
      K x K elimination with the last column pivoted first. A column set
      takes a test only when most of its prefixes take it: for a few,
      the eliminations below cost less than its own;
    - the prefixes still open take the test as their supports'
      eliminations, with the first P pivots shared: the K x K matrix with
      the prefix pivoted first, then the s0 x s0 block of the Schur
      complement at each of the r row subsets of the last column."""
    s, s0 = sets.shape[1], row_sets.shape[1]
    k, P = s * s0, (s - 1) * s0
    K, S = P + d, s * d
    r = row_sets.shape[0]
    R = r ** (s - 1)  # prefixes per column set
    settled = np.ones((sets.shape[0] * R, r), dtype=bool)
    # per column set and prefix, whether it takes the upper and the lower test
    tested = [mask.reshape(-1, R, r).any(2) for mask in (open_top, open_bottom)]
    # per column set, whether it takes each test on its prefixes' K x K
    # matrices: when most of its prefixes take the test
    whole = [2 * t.sum(1) > R for t in tested]
    margin_K, margin_k = _margin(K, n, c2, u_s), _margin(k, n, c2, u_s)
    # a column set's rows: the d of its last column, then the d of each
    # other column in turn; a prefix's K rows among them: its own P, then
    # the last column's d
    order = [s - 1, *range(s - 1)]
    prefix = np.indices((r,) * (s - 1)).reshape(s - 1, R)
    within = np.empty((R, K), dtype=np.intp)
    within[:, :P] = (d + d * np.arange(s - 1)[:, None, None] + row_sets[prefix]).transpose(
        1, 0, 2).reshape(R, P)
    within[:, P:] = np.arange(d)
    schur = within[:, :P].T  # P x R
    last = P + row_sets.T
    todo = np.flatnonzero(tested[0].any(1) | tested[1].any(1))
    # a column set's two shifted matrices and temporaries, and its prefix
    # blocks; per prefix, its two shifted matrices and temporaries and its
    # leaf blocks
    step = max(1, _CHUNK_BYTES // (8 * (3 * S * S + 3 * P * P * R)))
    leaf_step = max(1, _CHUNK_BYTES // (8 * (3 * K * K + 3 * s0 * s0 * r)))
    for start in range(0, todo.size, step):
        chosen = todo[start:start + step]
        rows = (d * sets[chosen][:, order, None] + np.arange(d)).reshape(chosen.size, S)
        left = [t[chosen] for t in tested]
        upper, lower = (np.flatnonzero(w[chosen]) for w in whole)
        if upper.size + lower.size:
            A = _shifted_stack(gram, rows[upper], rows[lower], u_s, l_s, margin_K)
            ok = _eliminate(A, d)
            blocks = A[schur[:, None], schur[None, :]]  # P x P x R x (upper + lower)
            blocks = blocks.reshape(P, P, R * ok.size)
            passed = (_eliminate(blocks, P).reshape(R, -1) & ok).T
            left[0][upper] &= ~passed[:upper.size]
            left[1][lower] &= ~passed[upper.size:]
        sides = [np.nonzero(t) for t in left]  # (column set in chunk, prefix)
        stacks = [rows[at[:, None], within[j]] for at, j in sides]
        states = [chosen[at] * R + j for at, j in sides]
        for lo in range(0, max(len(ids) for ids in states), leaf_step):
            part = slice(lo, lo + leaf_step)
            top, bottom = (stack[part] for stack in stacks)
            A = _shifted_stack(gram, top, bottom, u_s, l_s, margin_k)
            ok = _eliminate(A, P)
            leaves = A[last[:, None], last[None, :]]  # s0 x s0 x r x (top + bottom)
            passed = (_eliminate(leaves, s0) & ok).T
            settled[states[0][part]] &= passed[:len(top)]
            settled[states[1][part]] &= passed[len(top):]
    return settled.reshape(-1)


def _support_intervals(XT, d, sets, row_sets) -> np.ndarray:
    """A 3 x count array whose columns are, per support of the enumeration
    over ``sets = _combinations(m, s)`` and ``row_sets = _combinations(d,
    s0)``, the mean eigenvalue of its Gram matrix G and the lower and upper
    end of the interval mean -+ sqrt(k - 1) sd that holds all of them, with
    sd^2 = (||G||_F^2 - tr(G)^2 / k) / k and the radicand inflated by its
    rounding bound (see the module docstring). ``XT`` is X^T, C-contiguous.

    No support's G is formed. Both moments are sums over tables indexed by
    row subset rho: per column c, the trace, the squared-diagonal sum and
    the off-diagonal squared mass of the rho x rho block of X_c^T X_c; per
    column pair (c, c'), the cross mass (I (G_cc' o G_cc') I^T)[rho, rho'],
    with G_cc' = X_c^T X_c' and I the row-subset indicator. The pair tables
    come from blocks of rows of X^T X and the supports read the tables in
    chunks, both of about ``_CHUNK_BYTES``."""
    n = XT.shape[1]
    m = XT.shape[0] // d
    s, s0 = sets.shape[1], row_sets.shape[1]
    k = s * s0
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


def _open(intervals, u_s, l_s, margin):
    """Per column (mean, lower, upper) of ``intervals``, three masks: where
    the interval leaves open that the support raises u_s (upper not below
    u_s - M), lowers l_s (lower not above l_s + M, while l_s > 0) or counts
    as degenerate (the mean, a lower bound on lambda_max, not above the
    degeneracy tolerance plus M)."""
    mean, lower, upper = intervals
    return (~(upper < u_s - margin), ~(lower > l_s + margin) & (l_s > 0.0),
            ~(mean > _DEGENERATE_TOL + margin))


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


def _extreme_eigs(X, grid):
    """(u_s, l_s, degenerate) over the exhaustive enumeration of ``grid`` =
    (m, d, s, s0), in ``_support_indices(*grid)`` order, by the stages
    that :func:`dsrip` states. No count x k index array is built: a support
    gets its index row from its position (:func:`_support_rows`) only when
    it takes the exact path.

    The seed takes at most _SEED supports, and at most half a chunk, at
    each end, and an enumeration that fits it takes the exact path whole.
    Otherwise it takes the highest upper and the lowest lower interval
    ends; with ties at either cut, the first supports at or past a cut, as
    many as without ties. :func:`_prefix_settled` runs only when some
    support is pending, K^2 <= r k^2 and :func:`_gram` forms X^T X. It
    settles only supports whose interval mean is above the degeneracy
    tolerance plus M, each prefix test running only where a pending
    support's interval leaves it open. In each chunk of the supports
    left, those that their interval certifies against the running values
    are skipped.
    """
    m, d, s, s0 = grid
    XT = np.ascontiguousarray(X.T)
    n = XT.shape[1]
    sets, row_sets = _combinations(m, s), _combinations(d, s0)
    count, k = _support_count(*grid), s * s0
    rows_at = partial(_support_rows, sets, row_sets, d)
    # a support's gathered k x n rows and about six k x k matrices (its Gram
    # matrix, eigvalsh's copy and temporaries)
    chunk = max(1, _CHUNK_BYTES // (8 * k * (n + 6 * k)))
    width = max(1, min(_SEED, chunk // 2))
    if count <= 2 * width:
        return _decompose(XT, rows_at(np.arange(count)), -math.inf, math.inf, 0)
    intervals = _support_intervals(XT, d, sets, row_sets)
    # the width-th highest top and lowest bottom; ties at either cut
    # (quantized or zero columns) must not grow the seed past a chunk
    high = np.partition(intervals[2], count - width)[count - width]
    low = np.partition(intervals[1], width - 1)[width - 1]
    seed = np.flatnonzero((intervals[2] >= high) | (intervals[1] <= low))[:2 * width]
    u_s, l_s, degenerate = _decompose(XT, rows_at(seed), -math.inf, math.inf, 0)
    # drop what the seeded values already settle
    c2 = float(np.einsum("ij,ij->i", XT, XT).max())
    top, bottom, flat = _open(intervals, u_s, l_s, _margin(k, n, c2, u_s))
    pending = top | bottom | flat
    pending[seed] = False
    # the prefix pass runs only while a prefix's K x K matrix costs no more
    # than its r supports' own (K^2 <= r k^2) and X^T X passes _gram's rule
    K = (s - 1) * s0 + d
    if pending.any() and K * K <= row_sets.shape[0] * k * k:
        gram = _gram(XT, count, k)
        if gram is not None:
            settled = _prefix_settled(gram, n, sets, row_sets, d, u_s, l_s, c2,
                                      pending & top, pending & bottom)
            pending &= ~settled | flat
    rest = np.flatnonzero(pending)
    for start in range(0, rest.size, chunk):
        picks = rest[start:start + chunk]
        margin = _margin(k, n, c2, u_s)
        picks = picks[np.any(_open(intervals[:, picks], u_s, l_s, margin), axis=0)]
        if picks.size:
            u_s, l_s, degenerate = _decompose(XT, rows_at(picks), u_s, l_s, degenerate)
    return u_s, l_s, degenerate


def _sampled_eigs(X, idx):
    """(u_s, l_s, degenerate) over the supports in the rows of ``idx``, in
    chunks. The first chunk takes the exact path, which seeds u_s and l_s.
    When more chunks follow and :func:`_gram` forms the Gram matrix of the
    u columns in use (u^2 <= count k^2, and it fits ``_CHUNK_BYTES``), in
    each later chunk the supports that :func:`_settled` certifies against
    it and the running values are skipped. The rest take the exact path.
    ``idx`` is renumbered in place to index the columns in use."""
    union = _union(idx, X.shape[1])  # copy only the rows of X^T in use
    XT = np.ascontiguousarray(X.T[union])
    n, (count, k) = XT.shape[1], idx.shape
    # a support's gathered k x n rows and about six k x k matrices (Gram
    # matrices, its share of the inertia-test stack and temporaries)
    chunk = max(1, _CHUNK_BYTES // (8 * k * (n + 6 * k)))
    gram = _gram(XT, count, k) if count > chunk else None
    if gram is not None:
        c2 = float(np.diagonal(gram).max())
    u_s, l_s, degenerate = _decompose(XT, idx[:chunk], -math.inf, math.inf, 0)
    for start in range(chunk, count, chunk):
        supports = idx[start:start + chunk]
        if gram is not None:
            supports = supports[~_settled(gram, supports, u_s, l_s, _margin(k, n, c2, u_s))]
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

    Cost: with k = s*s0 and N supports (the enumerated count, or
    ``trials``), supports are processed in chunks of about 4 MiB of working
    arrays, so working memory beyond the per-support arrays named below
    does not grow with N. A support that takes the exact path costs a
    k x n row gather, an O(n*k^2) Gram product and an O(k^3)
    eigendecomposition, one stacked ``eigvalsh`` per chunk. The module
    docstring states why a settled support cannot change the report, so
    the report is that of an ``eigvalsh`` on every support.

    Exhaustive enumeration, of at most 4 * 10^6 supports, holds one copy
    of X^T and, per support, three interval floats and a few flags, about
    40 bytes; it computes a support's index row from its position when it
    needs one. It first builds tables over the r = C(d, s0) row subsets
    from X^T X: per column, from its d x d block, and per column pair,
    from its d x d cross block, O(n p^2) for the blocks in all. The cross
    blocks come from blocks of rows of X^T X of about 4 MiB, so the p x p
    Gram matrix is never held whole once it is larger than that. Each
    support then reads O(s^2) table entries, which give an interval
    holding all its eigenvalues; the 128 supports with the highest
    interval tops and the 128 with the lowest bottoms take the exact path
    first, and every support whose interval then shows that it cannot
    move an extreme or be degenerate is settled. The rest then take the
    two LDL^T inertia tests by prefix, its column set and the row subsets
    of its first s - 1 columns (P = (s - 1) s0 rows, K = P + d with every
    row of the last column), each test only where an interval leaves it
    open. Every test reads the p x p Gram matrix X^T X, formed once,
    O(n p^2), by the rule Monte-Carlo uses below (p^2 <= N k^2 and about
    4 MiB, so p <= 724), and only when K^2 <= C(d, s0) k^2; otherwise no
    support takes these tests. Per chunk of about 4 MiB of column sets, on
    each column set where most prefixes take a test, O(d (s d)^2) to
    eliminate its last column and O(P^3) per prefix, which settles the
    C(d, s0) supports that extend a prefix whose K x K matrix
    passes; and for the prefixes left, O(P*K^2) per prefix and test and
    O(s0^3) per support and test. On Gaussian designs at (6, 8, 2, 3)
    about a tenth of the prefixes take the upper test and nearly all the
    lower one, of which the K x K test settles 72-99% (12 designs, n =
    100), so this costs about the same for every design of the grid; it
    settles all but a few of the supports. Those that an interval still
    leaves open take the exact path. On Gaussian designs (n = 100, BLAS on
    one thread) that is about 10 M supports/s at (6, 8, 2, 3), where fixed
    cost per call dominates, and 16-22 M supports/s from 4 * 10^5 to
    4 * 10^6 supports; a call at 4 * 10^6 takes about 0.25 s and 160 MB.
    Designs whose column scales span orders of magnitude leave far more
    supports to the exact path.

    ``monte_carlo`` draws the N supports into one (N, k) index array, with
    1 + s ``rng.choice`` calls per support, and holds one copy of the u
    rows of X^T that the supports use. Its first chunk takes the exact
    path. When the u x u Gram matrix of those rows costs less than the
    supports' own (u^2 <= N k^2) and fits in about 4 MiB, it is formed
    once, O(n*u^2), and every chunk after the first goes to the two LDL^T
    inertia tests of each support, O(k^3) each; only the supports these
    cannot settle take the exact path. Otherwise (supports spread over
    many columns) every support takes the exact path.

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
        u_s, l_s, degenerate = _extreme_eigs(X, (m, d, s, s0))
    elif method == "monte_carlo":
        if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or trials < 1:
            raise ValueError(
                f"trials must be a positive integer for method 'monte_carlo', got {trials!r}"
            )
        trials = int(trials)
        # _sampled_eigs renumbers the draw in place, so no second copy of
        # it is made
        u_s, l_s, degenerate = _sampled_eigs(
            X, _sample_supports(stream(seed), trials, m, d, s, s0))
    else:
        raise ValueError(f"unknown method {method!r}")

    delta = 1.0 - l_s / u_s if u_s > _DEGENERATE_TOL else 1.0
    delta = min(max(delta, 0.0), 1.0)
    return DsripReport(
        u_s=u_s,
        l_s=l_s,
        delta_s=delta,
        method=method,
        trials=trials,
        is_lower_bound_on_delta=method == "monte_carlo",
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
