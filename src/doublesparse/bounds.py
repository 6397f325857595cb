"""Closed-form rate calculators and constructive packing machinery.

The packing constructor combines three greedy maximal codes: a binary code on
column-location patterns, a binary code on within-column patterns, and a
q-ary code (alphabet = the within-column codebook) that assigns contents to
the chosen columns. Any greedy maximal code meets its counting lower bound,
so the assembled set provably packs the double-sparse parameter space.

Natural logarithms throughout.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .core import GroupedMatrix, _check_budget, _check_noise, _check_q

__all__ = [
    "RateValue",
    "PackingSet",
    "rate_hard",
    "rate_soft",
    "gv_sphere_packing",
    "gv_qary_code",
    "sphere_packing_bound",
    "qary_code_bound",
    "build_khatri_rao_packing",
    "covering_bound_hard",
    "covering_bound_soft",
    "pairwise_hamming",
    "export_codebook",
]

_ENUMERATION_GUARD = 10**6


@dataclass(frozen=True)
class RateValue:
    """Two-term risk decomposition: the cost of locating the nonzero columns
    plus the cost of estimating within the located columns."""

    total: float
    group_term: float
    within_term: float
    regime: str

    def __post_init__(self):
        if self.group_term < 0 or self.within_term < 0:
            raise ValueError("rate terms must be nonnegative")


def rate_hard(sigma: float, n: int, m: int, d: int, s: int, s0: int) -> RateValue:
    """(sigma^2/n) * (s*ln(e*m/s) + s*s0*ln(e*d/s0))."""
    _check_noise(sigma, n)
    _check_budget(m, d, s, s0)
    scale = sigma * sigma / n
    group = scale * s * math.log(math.e * m / s)
    within = scale * s * s0 * math.log(math.e * d / s0)
    return RateValue(group + within, group, within, "hard")


def rate_soft(
    sigma: float, n: int, m: int, d: int, s: int, q: float, rq: float
) -> RateValue:
    """(sigma^2/n)*s*ln(e*m/s) + s*rq*(sigma^2*ln(d)/n)^(1-q/2)."""
    _check_noise(sigma, n)
    if s == 0:
        return RateValue(0.0, 0.0, 0.0, "soft")
    _check_q(q)
    group = (sigma * sigma / n) * s * math.log(math.e * m / s)
    within = s * rq * (sigma * sigma * math.log(d) / n) ** (1.0 - q / 2.0)
    return RateValue(group + within, group, within, "soft")


def covering_bound_hard(m: int, d: int, s: int, s0: int) -> float:
    """Metric-entropy bound s*ln(e*m/s) + s*s0*ln(e*d/s0)."""
    _check_budget(m, d, s, s0)
    return s * math.log(math.e * m / s) + s * s0 * math.log(math.e * d / s0)


def covering_bound_soft(
    m: int, d: int, s: int, q: float, rq: float, eps: float, c_q: float = 1.0
) -> float:
    """Metric-entropy bound s*ln(e*m/s) + s*(c_q*s*rq^(2/q)/eps^2)^(q/(2-q))*ln(d).

    ``eps`` must lie inside the window
    [sqrt(s)*c_q*rq^(1/q)*(ln(d)/d)^((2-q)/(2q)), sqrt(s)*rq^(1/q)]
    where the within-column entropy estimate is valid. The constant ``c_q``
    is configuration (default 1).
    """
    _check_q(q)
    radius = rq ** (1.0 / q)
    lo = math.sqrt(s) * c_q * radius * (math.log(d) / d) ** ((2.0 - q) / (2.0 * q))
    hi = math.sqrt(s) * radius
    if not lo <= eps <= hi * (1 + 1e-12):
        raise ValueError(f"eps={eps:.4g} outside the valid window [{lo:.4g}, {hi:.4g}]")
    within = s * (c_q * s * rq ** (2.0 / q) / (eps * eps)) ** (q / (2.0 - q)) * math.log(d)
    return s * math.log(math.e * m / s) + within


def sphere_packing_bound(m: int, k: int, rho: int, from_one: bool = False) -> float:
    """Counting lower bound C(m,k) / sum_{i<=rho} C(m,i) on a greedy maximal
    packing of the weight-k Hamming sphere at distance > rho.

    The safe form sums from i=0; ``from_one`` starts the denominator at i=1
    (a larger, sometimes infinite value reported for comparison only).
    """
    start = 1 if from_one else 0
    denom = sum(math.comb(m, i) for i in range(start, rho + 1))
    if denom == 0:
        return math.inf
    return math.comb(m, k) / denom


def qary_code_bound(alphabet_size: int, length: int, min_dist: int) -> float:
    """Counting lower bound q^n / sum_{j<d} C(n,j)(q-1)^j on a greedy maximal
    code of length n over a q-letter alphabet at minimum distance d."""
    q = alphabet_size
    denom = sum(
        math.comb(length, j) * (q - 1) ** j for j in range(min_dist)
    )
    return q**length / denom


def gv_sphere_packing(m: int, k: int, rho: int) -> np.ndarray:
    """Greedy maximal packing of the weight-k binary words of length m at
    pairwise Hamming distance > rho, scanned in lexicographic support order.

    Returns an (M, m) 0/1 array. M >= C(m,k) / sum_{i=0}^{rho} C(m,i).

    Two weight-k words lie within distance rho exactly when they share at
    least t = k - rho // 2 positions, so a candidate is kept when none of
    its t-subsets belongs to a kept word. Cost: at most C(k, rho // 2) set
    lookups per candidate, as the scan stops at the first taken subset.
    """
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if math.comb(m, k) > _ENUMERATION_GUARD:
        raise ValueError(f"sphere too large: C({m},{k}) = {math.comb(m, k)}")

    t = max(k - rho // 2, 0)
    taken, kept = set(), []
    for cand in combinations(range(m), k):
        if taken.isdisjoint(combinations(cand, t)):
            kept.append(cand)
            taken.update(combinations(cand, t))

    out = np.zeros((len(kept), m), dtype=int)
    np.put_along_axis(out, np.array(kept, dtype=np.intp).reshape(len(kept), k), 1, axis=1)
    return out


def gv_qary_code(
    alphabet_size: int, length: int, min_dist: int, budget: int = _ENUMERATION_GUARD
) -> np.ndarray:
    """Greedy maximal code over a q-letter alphabet at pairwise Hamming
    distance >= min_dist, scanned in lexicographic order.

    Returns an (M, length) integer array with symbols in [0, q). M >=
    q^length / sum_{j<min_dist} C(length,j)(q-1)^j.

    This is the lexicode of Conway & Sloane (1986). Words are numbered in
    scan order, and one byte per word records whether it is still free:
    each kept word clears the V = sum_{j<min_dist} C(length,j)(q-1)^j words
    of its Hamming ball, and the next kept word is the next free one. Cost:
    q^length bytes of flags, one pass over the q^length x length symbol
    table to find the ball's shifts, and O(M V length) arithmetic in M
    vectorized steps. At min_dist = 1 every word is kept, and the code is
    the q^length x length table of all words in scan order, built from
    ``np.indices`` without the scan.
    """
    q = alphabet_size
    if q < 2:
        raise ValueError("alphabet_size must be at least 2")
    if min_dist < 1:
        raise ValueError("min_dist must be at least 1")
    if q**length > budget:
        raise ValueError(f"search space too large: {q}^{length} words")

    if min_dist == 1:
        return np.indices((q,) * length, dtype=int).reshape(length, q**length).T

    # the ball of radius min_dist - 1 as symbol shifts (mod q) of fewer than
    # min_dist positions, split so that no temporary exceeds 2^20 entries
    offsets = np.indices((q,) * length, dtype=np.min_scalar_type(q))
    offsets = offsets.reshape(length, q**length)
    shifts = offsets[:, np.count_nonzero(offsets, axis=0) < min_dist].T
    parts = np.array_split(shifts, -(-shifts.size // 2**20) or 1)

    place = q ** np.arange(length - 1, -1, -1)
    free = bytearray(b"\x01") * q**length
    marks = np.frombuffer(free, dtype=np.uint8)
    kept = []
    word = free.find(1)
    while word >= 0:
        kept.append(word)
        symbols = word // place % q
        for part in parts:
            marks[(symbols + part) % q @ place] = 0
        word = free.find(1, word + 1)
    return np.array(kept)[:, None] // place % q


class _PackingElements(Sequence):
    """The elements of a Khatri-Rao packing, in pattern-major order, built on
    access from the packing's factors: element i holds ``contents[i %
    n_codes]`` in the columns ``columns[i // n_codes]`` of a zero d x m
    matrix.

    Each element handed out is a fresh read-only ``GroupedMatrix``; a slice
    is a list of them. Iteration builds one (n_codes, d, m) block per column
    pattern and yields views of it, so an element from a full pass keeps its
    pattern's block alive. Two sequences are equal when their factors are.
    """

    def __init__(self, columns: np.ndarray, contents: np.ndarray, shape: tuple):
        self.columns, self.contents, self.shape = columns, contents, shape

    def __len__(self):
        return len(self.columns) * len(self.contents)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if not -len(self) <= i < len(self):
            raise IndexError(f"packing element index {i} out of range for {len(self)}")
        pattern, code = divmod(i % len(self), len(self.contents))
        theta = np.zeros(self.shape)
        theta[:, self.columns[pattern]] = self.contents[code]
        theta.flags.writeable = False
        return GroupedMatrix._wrap(theta)

    def __eq__(self, other):
        if not isinstance(other, _PackingElements):
            return NotImplemented
        return (self.shape == other.shape and np.array_equal(self.columns, other.columns)
                and np.array_equal(self.contents, other.contents))

    def __iter__(self):
        for cols in self.columns:
            block = np.zeros((len(self.contents), *self.shape))
            block[:, :, cols] = self.contents
            block.flags.writeable = False
            yield from map(GroupedMatrix._wrap, block)


@dataclass
class PackingSet:
    """A verified packing of double-sparse matrices over the alphabet
    {0, magnitude}.

    ``elements`` is a read-only sequence that keeps the Khatri-Rao factors,
    not the matrices: the occupied columns of each of n_gamma column patterns
    (n_gamma x s) and the scaled column contents of each of n_codes content
    words (n_codes x d x s). Memory is O(n_gamma s + n_codes d s); each
    element is built on access, 8 d m bytes. An element taken by index keeps
    nothing else alive; one taken by iteration keeps its column pattern's
    n_codes elements alive.
    """

    elements: Sequence
    min_pairwise_hamming: int
    target: int
    stage_sizes: dict = field(default_factory=dict)
    stage_bounds_met: dict = field(default_factory=dict)
    log_cardinality: float = 0.0
    log_cardinality_bound: float = 0.0
    log_cardinality_met: bool | None = None
    params: dict = field(default_factory=dict)


def pairwise_hamming(a: GroupedMatrix, b: GroupedMatrix) -> int:
    """Entrywise Hamming distance between two matrices."""
    return int(np.count_nonzero(a.values != b.values))


def _closest_pair(xs, ys, db, delta, best):
    """The least sum_t db[x_t, y_t] over pairs of a row x of ``xs`` and a row
    y of ``ys``, or ``best`` if no pair comes below it. ``ys=None`` pairs the
    rows of ``xs`` with each other; otherwise both sides are first reduced
    to their distinct rows.

    Rows that follow each other in ``xs``, or a row found on both sides,
    give a first minimum. Pairs are then visited by symbol distance k = 1,
    2, ...: for each choice of k free positions, the rows are sorted by
    their symbols on the other positions, then on the free ones, and the
    pairs j places apart within a run of equal agreed symbols, j = 1, 2, ...,
    are scored on their free positions (``db`` is symmetric with a zero
    diagonal). A pair that differs in k symbols scores at least k * delta,
    so the search stops once k * delta reaches the running minimum.

    Cost: one sort of the rows per choice of free positions, and one pass
    over them per offset j up to the longest run. Memory: a few arrays of
    one entry per row and choice of k positions.
    """
    q, width = len(db), xs.shape[1]
    place = q ** np.arange(width)  # row numbers stay below q^s, which gv_qary_code bounds
    if ys is None:
        rows, side = xs, None
        if len(rows) >= 2:  # neighbouring rows give a first minimum to stop on
            best = min(best, int(db[rows[:-1], rows[1:]].sum(axis=1).min()))
    else:
        xs, ys = (np.unique(r @ place) for r in (xs, ys))
        if np.intersect1d(xs, ys, assume_unique=True).size:
            return min(best, 0)  # a row on both sides
        rows = np.concatenate([xs, ys])[:, None] // place % q
        side = np.arange(len(rows)) >= len(xs)
    for k in range(1, width + 1):
        if k * delta >= best:
            return best
        # for each choice of k free positions, the last k first (rows in
        # lexicographic order, as codes come, are then already sorted), one
        # number per row that orders the rows by their agreed symbols, then
        # by their free ones
        frees = list(combinations(range(width - 1, -1, -1), k))
        weights = np.zeros((len(frees), width), dtype=np.int64)
        for c, free in enumerate(frees):
            weights[c, [t for t in range(width) if t not in free] + sorted(free)] = place[::-1]
        numbers = weights @ rows.T
        runs = np.sort(numbers, axis=1) // q**k  # the agreed symbols, in sorted order
        for c in np.flatnonzero((runs[:, 1:] == runs[:, :-1]).any(axis=1)):
            order = np.argsort(numbers[c])
            sides = None if side is None else side[order]
            for j in range(1, len(order)):
                pair = runs[c, j:] == runs[c, :-j]
                if not pair.any():
                    break  # no run is longer than j
                if sides is not None:
                    pair &= sides[j:] != sides[:-j]
                a, b = order[:-j][pair], order[j:][pair]
                if not a.size:
                    continue
                score = 0
                for t in frees[c]:
                    score = score + db[rows[a, t], rows[b, t]]
                best = min(best, int(np.min(score)))
                if k * delta >= best:
                    return best
    return best


def _min_distance_exact(gamma_supports, codes, db, s0):
    """Exact minimum pairwise Hamming distance of the assembled packing:
    within a column pattern, the least code distance sum_t db[x_t, y_t];
    across two patterns, their per-column contribution ``base`` plus the
    least joint distance over their shared column positions. The column
    patterns ``gamma_supports`` are distinct 0/1 rows of weight s, the
    length of the ``codes``.

    ``db`` is the q x q distance table of the within-column words (symmetric,
    zero diagonal) and delta its least off-diagonal entry. Two codes that
    differ in k symbols are at least k * delta apart, so ``_closest_pair``
    looks only at codes that agree on all but k positions, k = 1, 2, ...,
    and stops once k * delta reaches the running minimum. Two distinct
    patterns differ in two columns or more, so their ``base`` is at least
    2 s0, and pattern pairs are searched only when the minimum is larger.
    They are visited by increasing ``base``; only pairs with ``base`` below
    the running minimum and shared columns search their joint term, over
    the distinct codes of each pattern on those columns.

    Cost: no n_codes x n_codes table. The construction's codes come in
    lexicographic order at symbol distance r = ceil(s/2), and at every size
    the tests build, two neighbouring codes are r * delta apart. The
    within-pattern search then only shows that no codes differ in fewer
    than r symbols: one sort of the n_codes codes per choice of k < r free
    positions. Memory: a few arrays of n_codes entries per such choice, and
    the n_gamma x n_gamma pattern overlaps.
    """
    best = math.inf
    db = np.asarray(db, dtype=np.int64)
    off_diagonal = db[~np.eye(len(db), dtype=bool)]
    delta = int(off_diagonal.min()) if off_diagonal.size else 0

    if codes.shape[0] >= 2 and len(gamma_supports):
        best = _closest_pair(codes, None, db, delta, best)

    if len(gamma_supports) >= 2 and 2 * s0 < best:
        gamma = np.asarray(gamma_supports, dtype=np.int64)
        # position of each column within its pattern's sorted support
        position = np.cumsum(gamma, axis=1) - 1
        shared = gamma @ gamma.T
        weight = np.diagonal(shared)
        base = s0 * (weight[:, None] + weight - 2 * shared)
        g, h = np.nonzero(base < best)  # the pattern pairs that can lower it
        g, h = g[g < h], h[g < h]
        shared, base = shared[g, h], base[g, h]
        for pair in np.argsort(base, kind="stable"):
            if base[pair] >= best:
                break
            if not shared[pair]:
                best = min(best, int(base[pair]))
                continue
            cols = np.flatnonzero(gamma[g[pair]] & gamma[h[pair]])
            in_g, in_h = position[g[pair], cols], position[h[pair], cols]
            cap = best - int(base[pair])
            joint = _closest_pair(codes[:, in_g], codes[:, in_h], db, delta, cap)
            best = min(best, int(base[pair]) + joint)
    return best


def build_khatri_rao_packing(
    m: int, d: int, s: int, s0: int, magnitude: float = 1.0
) -> PackingSet:
    """Assemble and verify a packing of the (s, s0) double-sparse matrices at
    pairwise Hamming distance >= ceil(s*s0/4), nonzeros all equal
    ``magnitude``.

    Stages: a weight-s column-location packing at distance > ceil(s/4)-1, a
    weight-s0 within-column packing at distance > ceil(s0/2)-1, and a q-ary
    content-assignment code at minimum distance ceil(s/2). Distance
    verification is exhaustive and exact; failure raises (construction bug).

    Cost: the packing keeps only its factors, O(n_gamma s + n_codes d s)
    memory for N = n_gamma * n_codes elements, which are built on access.
    Verification sorts the codes a few times and holds a few arrays of
    n_codes entries, the n_gamma x n_gamma shared-column counts and the q x q
    word distances, never a table over pairs of codes (see
    ``_min_distance_exact``).
    """
    _check_budget(m, d, s, s0)
    if magnitude <= 0:
        raise ValueError("magnitude must be positive")
    target = math.ceil(s * s0 / 4)

    rho_cols = math.ceil(s / 4) - 1
    gamma = gv_sphere_packing(m, s, max(rho_cols, 0))
    rho_rows = math.ceil(s0 / 2) - 1
    b_words = gv_sphere_packing(d, s0, max(rho_rows, 0))
    code_dist = math.ceil(s / 2)
    codes = gv_qary_code(b_words.shape[0], s, code_dist)

    # greedy maximality guarantees each stage's counting bound
    checks = {
        "gamma": gamma.shape[0] >= sphere_packing_bound(m, s, max(rho_cols, 0)),
        "b": b_words.shape[0] >= sphere_packing_bound(d, s0, max(rho_rows, 0)),
        "code": codes.shape[0] >= qary_code_bound(b_words.shape[0], s, code_dist),
    }
    if not all(checks.values()):
        raise RuntimeError(f"greedy stage missed its counting bound: {checks}")

    # columns[g]: the s occupied columns of pattern g, ascending;
    # contents[c][:, t]: the scaled within-column word code c puts in the
    # t-th of them
    columns = np.nonzero(gamma)[1].reshape(gamma.shape[0], s)
    contents = np.array(magnitude * b_words[codes].transpose(0, 2, 1), dtype=float)
    columns.flags.writeable = contents.flags.writeable = False
    elements = _PackingElements(columns, contents, (d, m))

    # q x q distance table between within-column words (all weight s0)
    db = b_words.astype(np.int32) @ b_words.T.astype(np.int32)
    db -= s0
    db *= -2
    min_dist = _min_distance_exact(gamma, codes, db, s0)
    if len(elements) >= 2 and min_dist < target:
        raise RuntimeError(
            f"packing verification failed: min distance {min_dist} < target {target}"
        )

    # stagewise cardinality requirements behind the headline count
    gamma_rate_ok = gamma.shape[0] >= math.exp(s / 4 * math.log(math.e * m / s))
    b_rate_ok = b_words.shape[0] >= math.exp(s0 / 2 * math.log(math.e * d / s0))
    code_rate_ok = codes.shape[0] >= b_words.shape[0] ** (s / 2) / math.comb(
        s, math.ceil(s / 2)
    )
    log_card = math.log(len(elements)) if elements else -math.inf
    log_bound = s / 4 * math.log(math.e * m / s) + s * s0 / 4 * math.log(
        math.e * d / s0
    )
    stages_ok = gamma_rate_ok and b_rate_ok and code_rate_ok
    log_met = log_card >= log_bound if stages_ok else None
    if stages_ok and not log_met:
        raise RuntimeError(
            f"cardinality bound violated: ln|set| = {log_card:.4f} < {log_bound:.4f}"
        )

    return PackingSet(
        elements=elements,
        min_pairwise_hamming=min_dist if len(elements) >= 2 else 0,
        target=target,
        stage_sizes={
            "gamma": gamma.shape[0],
            "b": b_words.shape[0],
            "code": codes.shape[0],
        },
        stage_bounds_met={**checks, "gamma_rate": gamma_rate_ok,
                          "b_rate": b_rate_ok, "code_rate": code_rate_ok},
        log_cardinality=log_card,
        log_cardinality_bound=log_bound,
        log_cardinality_met=log_met,
        params={"m": m, "d": d, "s": s, "s0": s0, "magnitude": magnitude},
    )


def export_codebook(packing: PackingSet, path) -> None:
    """Plain-text codebook: a parameter header, then one element per line as
    semicolon-separated (row, col, value) support triples, in row-major
    order. The lines are written from the factors of a packing made by
    ``build_khatri_rao_packing``, without building its elements."""
    with open(path, "w", encoding="utf-8") as fh:
        p = packing.params
        fh.write(
            f"# m={p.get('m')} d={p.get('d')} s={p.get('s')} s0={p.get('s0')} "
            f"magnitude={p.get('magnitude')} "
            f"min_hamming={packing.min_pairwise_hamming} target={packing.target}\n"
        )
        # one line template per content word, its column slots left open;
        # rows ascending, then slots, is the element's row-major order
        # because each pattern's columns ascend
        elements = packing.elements
        templates = []
        for content in elements.contents:
            rows, slots = np.nonzero(content)
            values = content[rows, slots].tolist()
            templates.append(";".join(
                f"{i},{{{t}}},{v!r}" for i, t, v in zip(rows.tolist(), slots.tolist(), values)
            ) + "\n")
        for cols in elements.columns.tolist():
            fh.writelines(template.format(*cols) for template in templates)
