import math
import pickle
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from doublesparse.core import stream
from doublesparse import bounds
from doublesparse.bounds import (
    build_khatri_rao_packing,
    covering_bound_hard,
    covering_bound_soft,
    gv_qary_code,
    gv_sphere_packing,
    pairwise_hamming,
    qary_code_bound,
    rate_hard,
    rate_soft,
    sphere_packing_bound,
)


def test_rate_hard_reference_value():
    r = rate_hard(1.0, 100, 8, 16, 2, 2)
    assert r.total == pytest.approx(0.1709, abs=5e-4)
    assert r.group_term == pytest.approx(2 * math.log(4 * math.e) / 100, rel=1e-12)
    assert r.within_term == pytest.approx(4 * math.log(8 * math.e) / 100, rel=1e-12)


@pytest.mark.parametrize(
    "sigma,n,message",
    [(0.5, 0, "n must be at least 1, got 0"),
     (float("nan"), 10, "sigma must be finite and nonnegative, got nan"),
     (float("inf"), 10, "sigma must be finite and nonnegative, got inf"),
     (-1.0, 10, "sigma must be finite and nonnegative, got -1.0")],
)
@pytest.mark.parametrize(
    "rate",
    [lambda sigma, n: rate_hard(sigma, n, 4, 4, 2, 2),
     lambda sigma, n: rate_soft(sigma, n, 4, 4, 2, 0.5, 1.0),
     lambda sigma, n: rate_soft(sigma, n, 4, 4, 0, 0.5, 1.0)],
    ids=["hard", "soft", "soft_s_zero"],
)
def test_rates_reject_bad_noise_inputs(rate, sigma, n, message):
    with pytest.raises(ValueError) as err:
        rate(sigma, n)
    assert str(err.value) == message


def test_rate_hard_saturated_budget():
    r = rate_hard(1.0, 50, 6, 4, 6, 4)
    assert r.group_term == pytest.approx(6 / 50, rel=1e-12)
    assert r.within_term == pytest.approx(24 / 50, rel=1e-12)


def test_rate_hard_sigma_scaling():
    r1 = rate_hard(1.0, 100, 8, 16, 2, 2)
    r2 = rate_hard(2.0, 100, 8, 16, 2, 2)
    assert r2.total == pytest.approx(4 * r1.total, rel=1e-12)


def test_rate_soft_matches_hard_shape_at_q_one():
    # with q=1 and rq = s0*delta, delta = sigma*sqrt(ln d / n), the within
    # term becomes s*s0*sigma^2*ln(d)/n
    sigma, n, m, d, s, s0 = 1.0, 400, 16, 32, 2, 3
    delta = sigma * math.sqrt(math.log(d) / n)
    r = rate_soft(sigma, n, m, d, s, 1.0, s0 * delta)
    assert r.within_term == pytest.approx(
        s * s0 * sigma**2 * math.log(d) / n, rel=1e-12
    )


def test_rate_soft_within_reference_value():
    r = rate_soft(1.0, 400, 16, math.e**4, 2, 0.5, 1.0)
    assert r.within_term == pytest.approx(2 * 0.01**0.75, rel=1e-12)
    assert r.within_term == pytest.approx(0.0632, abs=5e-4)


def test_rate_soft_degenerate_s_zero():
    assert rate_soft(1.0, 100, 8, 16, 0, 0.5, 1.0).total == 0.0


def test_covering_bound_hard_values():
    assert covering_bound_hard(1, 1, 1, 1) == pytest.approx(2.0, rel=1e-12)
    r = rate_hard(1.0, 77, 8, 16, 2, 2)
    assert covering_bound_hard(8, 16, 2, 2) == pytest.approx(77 * r.total, rel=1e-12)


def test_covering_bound_hard_monotone():
    vals_s = [covering_bound_hard(40, 40, s, 2) for s in range(1, 10)]
    assert all(a < b for a, b in zip(vals_s, vals_s[1:]))
    vals_s0 = [covering_bound_hard(40, 40, 2, s0) for s0 in range(1, 10)]
    assert all(a < b for a, b in zip(vals_s0, vals_s0[1:]))


def test_covering_bound_soft_window():
    m, d, s, q, rq = 16, 64, 2, 0.5, 1.0
    hi = math.sqrt(s) * rq ** (1 / q)
    val = covering_bound_soft(m, d, s, q, rq, eps=hi / 2)
    assert val > 0
    with pytest.raises(ValueError):
        covering_bound_soft(m, d, s, q, rq, eps=hi * 10)


def test_sphere_packing_bound_forms():
    # safe form includes the i=0 term; the alternative starts at i=1
    safe = sphere_packing_bound(6, 3, 2)
    loose = sphere_packing_bound(6, 3, 2, from_one=True)
    assert safe == pytest.approx(20 / (1 + 6 + 15))
    assert loose == pytest.approx(20 / (6 + 15))
    assert sphere_packing_bound(6, 3, 0, from_one=True) == math.inf


def test_gv_sphere_packing_small():
    words = gv_sphere_packing(4, 2, 1)
    assert words.shape[0] >= 2
    assert np.all(words.sum(axis=1) == 2)
    for a in range(words.shape[0]):
        for b in range(a + 1, words.shape[0]):
            assert np.sum(words[a] != words[b]) >= 2


def test_gv_sphere_packing_meets_bound():
    for (m, k, rho) in [(6, 3, 2), (8, 4, 3), (10, 3, 2)]:
        words = gv_sphere_packing(m, k, rho)
        assert words.shape[0] >= sphere_packing_bound(m, k, rho)
        dists = [
            np.sum(words[a] != words[b])
            for a in range(words.shape[0])
            for b in range(a + 1, words.shape[0])
        ]
        assert min(dists) > rho


def test_gv_sphere_packing_degenerate_rho():
    # rho >= 2k: any two weight-k words are within distance 2k, one survivor
    words = gv_sphere_packing(6, 2, 4)
    assert words.shape[0] == 1


def _sphere_packing_scan(m, k, rho):
    # the greedy scan gv_sphere_packing used before the subset presence set:
    # each candidate support, in lexicographic order, against every kept one
    kept_supports = []
    for cand in combinations(range(m), k):
        cset = frozenset(cand)
        # distance between weight-k words: 2*(k - overlap)
        if all(2 * (k - len(cset & kept)) > rho for kept in kept_supports):
            kept_supports.append(cset)
    out = np.zeros((len(kept_supports), m), dtype=int)
    for row, supp in enumerate(kept_supports):
        out[row, sorted(supp)] = 1
    return out


@pytest.mark.parametrize(
    "m,k,rho",
    [(8, 3, 0), (8, 4, 1), (10, 4, 2), (10, 5, 3), (12, 6, 5), (11, 4, 2), (9, 3, 6),
     (7, 2, 9), (6, 0, 2), (0, 0, 0), (7, 7, 3), (13, 5, 4)],
)
def test_gv_sphere_packing_matches_scan(m, k, rho):
    # rho = 2k and beyond (one word), k = 0, k = m, and odd m among them
    words = gv_sphere_packing(m, k, rho)
    expected = _sphere_packing_scan(m, k, rho)
    assert words.dtype == expected.dtype and words.shape == expected.shape
    assert np.array_equal(words, expected)


def test_gv_qary_code_small():
    code = gv_qary_code(2, 3, 2)
    assert code.shape[0] >= qary_code_bound(2, 3, 2)
    for a in range(code.shape[0]):
        for b in range(a + 1, code.shape[0]):
            assert np.sum(code[a] != code[b]) >= 2
    # distance-1 code is the whole space
    assert gv_qary_code(3, 2, 1).shape[0] == 9


def test_gv_guards():
    with pytest.raises(ValueError):
        gv_sphere_packing(3, 5, 1)
    with pytest.raises(ValueError):
        gv_qary_code(1, 3, 1)
    with pytest.raises(ValueError):
        gv_qary_code(50, 50, 2)


def test_packing_small_case_verified_naively():
    packing = build_khatri_rao_packing(5, 4, 2, 2)
    elems = packing.elements
    assert len(elems) >= 2
    naive = min(
        pairwise_hamming(elems[a], elems[b])
        for a in range(len(elems))
        for b in range(a + 1, len(elems))
    )
    assert naive == packing.min_pairwise_hamming
    assert naive >= packing.target


def test_packing_supports_admissible():
    packing = build_khatri_rao_packing(5, 4, 2, 2, magnitude=0.7)
    for el in packing.elements:
        nz_cols = np.any(el.values != 0, axis=0)
        assert nz_cols.sum() <= 2
        assert np.all(np.count_nonzero(el.values, axis=0)[nz_cols] == 2)
        assert np.all(el.values[el.values != 0] == 0.7)


def test_packing_counting_stage_bounds():
    packing = build_khatri_rao_packing(8, 8, 2, 2)
    assert packing.stage_bounds_met["gamma"]
    assert packing.stage_bounds_met["b"]
    assert packing.stage_bounds_met["code"]


def test_packing_log_cardinality_assertion():
    packing = build_khatri_rao_packing(16, 8, 2, 2)
    if packing.log_cardinality_met is not None:
        assert packing.log_cardinality >= packing.log_cardinality_bound


def test_packing_rejects_bad_magnitude():
    with pytest.raises(ValueError):
        build_khatri_rao_packing(8, 8, 2, 2, magnitude=0.0)


def test_export_codebook_round_trip(tmp_path):
    packing = build_khatri_rao_packing(5, 4, 2, 2)
    path = tmp_path / "codebook.txt"
    bounds.export_codebook(packing, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("# m=5 d=4 s=2 s0=2")
    assert len(lines) - 1 == len(packing.elements)
    # rebuild the first element from its triples
    first = np.zeros((4, 5))
    for triple in lines[1].split(";"):
        i, j, v = triple.split(",")
        first[int(i), int(j)] = float(v)
    assert np.array_equal(first, packing.elements[0].values)


def _packing_elements_loop(m, d, s, s0, magnitude):
    # one element per (column pattern, content code), filled column by column
    gamma = gv_sphere_packing(m, s, max(math.ceil(s / 4) - 1, 0))
    b_words = gv_sphere_packing(d, s0, max(math.ceil(s0 / 2) - 1, 0))
    codes = gv_qary_code(b_words.shape[0], s, math.ceil(s / 2))
    elements = []
    for g in gamma:
        for word in codes:
            theta = np.zeros((d, m))
            for t, col in enumerate(np.nonzero(g)[0]):
                theta[:, col] = magnitude * b_words[word[t]]
            elements.append(theta)
    return elements


@pytest.mark.parametrize("size", [(8, 8, 2, 2), (6, 6, 2, 2), (10, 6, 3, 2), (5, 4, 1, 2)])
def test_packing_elements_match_per_element_loop(size):
    packing = build_khatri_rao_packing(*size, magnitude=1.5)
    expected = _packing_elements_loop(*size, 1.5)
    assert len(packing.elements) == len(expected)
    for element, theta in zip(packing.elements, expected):
        assert np.array_equal(element.values, theta)


def _brute_force_distances(matrices):
    values = np.reshape(matrices, (len(matrices), -1))
    dist = np.count_nonzero(values[:, None, :] != values[None, :, :], axis=2)
    np.fill_diagonal(dist, dist.max() + 1)
    return dist


@pytest.mark.parametrize(
    "size,within,true_min",
    [((5, 4, 3, 1), 4, 2), ((6, 4, 4, 1), 4, 2), ((7, 5, 3, 1), 4, 2), ((5, 5, 3, 2), 4, 4)],
)
def test_packing_min_distance_matches_brute_force(size, within, true_min):
    # in the first three the minimum comes from two column patterns that
    # share columns, below the minimum within any one pattern
    packing = build_khatri_rao_packing(*size)
    dist = _brute_force_distances([el.values for el in packing.elements])
    pattern = np.arange(len(packing.elements)) // packing.stage_sizes["code"]
    same = pattern[:, None] == pattern[None, :]
    assert int(dist[same].min()) == within
    assert int(dist.min()) == true_min == packing.min_pairwise_hamming


@pytest.mark.parametrize("order", [[0, 1, 2, 3], [2, 0, 1, 3], [2, 3, 0, 1]])
def test_min_distance_over_row_blocks(order):
    # the closest pair (codes 0 and 1) sits first, in the middle or last in
    # code order, and the search must find it wherever it sits
    gamma = np.array([[1, 1, 0]])
    codes = np.array([[0, 0], [0, 1], [2, 3], [3, 2]])[order]
    b_words = gv_sphere_packing(4, 1, 0)
    db = 2 * (1 - b_words @ b_words.T).astype(np.int64)
    assert bounds._min_distance_exact(list(gamma), codes, db, 1) == 2
    assert _assembled_min_distance(gamma, codes, b_words) == 2
    # the joint term in blocks too: over the shifted patterns {0, 1} and
    # {1, 2}, codes of one pattern differ in both words, 4 apart, and only
    # the code (2, 2) against itself puts one word in the shared column, so
    # those two elements differ only in columns 0 and 2, 1 + 1 apart
    shifted = np.array([[1, 1, 0], [0, 1, 1]])
    codes = np.array([[0, 4], [1, 5], [2, 2], [3, 6]])[order]
    b_words = gv_sphere_packing(8, 1, 0)
    db = 2 * (1 - b_words @ b_words.T).astype(np.int64)
    assert bounds._min_distance_exact(list(shifted[:1]), codes, db, 1) == 4
    assert bounds._min_distance_exact(list(shifted), codes, db, 1) == 2
    assert _assembled_min_distance(shifted, codes, b_words) == 2
    # one-symbol codes, all in one bucket: only words 0 and 3 share a row,
    # so the closest pair sits at the two ends of the sorted bucket
    single = np.array([[1, 0, 0]])
    codes = np.arange(4)[order][:, None]
    b_words = np.zeros((4, 8), dtype=int)
    b_words[[0, 0, 1, 1, 2, 2, 3, 3], [0, 1, 2, 3, 4, 5, 0, 6]] = 1
    db = 2 * (2 - b_words @ b_words.T).astype(np.int64)
    assert bounds._min_distance_exact(single, codes, db, 2) == 2
    assert _assembled_min_distance(single, codes, b_words) == 2


def _verification_peak(monkeypatch, size):
    # the tracemalloc peak of the minimum-distance check in a packing build
    peaks = []
    original = bounds._min_distance_exact

    def traced(*args):
        tracemalloc.start()
        try:
            return original(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(bounds, "_min_distance_exact", traced)
    return build_khatri_rao_packing(*size), peaks[0]


def test_min_distance_holds_no_full_code_table(monkeypatch):
    packing, peak = _verification_peak(monkeypatch, (8, 6, 4, 2))
    n_codes = packing.stage_sizes["code"]
    assert n_codes == 3165
    # the int32 n_codes x n_codes table is 40 MB; a block is at most 4 MB
    assert peak < n_codes * n_codes * 4 / 2


def test_min_distance_holds_no_full_joint_table(monkeypatch):
    # every pair of the 15 column patterns shares columns, and the joint
    # term sets the minimum: 2, below the within-pattern 4
    packing, peak = _verification_peak(monkeypatch, (6, 16, 4, 1))
    n_codes = packing.stage_sizes["code"]
    assert (n_codes, packing.min_pairwise_hamming) == (4096, 2)
    # the int32 n_codes x n_codes table is 67 MB
    assert peak < n_codes * n_codes * 4 / 2


def test_packing_elements_read_only():
    packing = build_khatri_rao_packing(5, 4, 2, 2)
    values = packing.elements[0].values
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[0, 0] = 1.0


def _assembled_min_distance(gamma, codes, b_words):
    d, m = b_words.shape[1], gamma.shape[1]
    elements = []
    for g in gamma:
        for word in codes:
            theta = np.zeros((d, m))
            theta[:, np.nonzero(g)[0]] = b_words[word].T
            elements.append(theta)
    return int(_brute_force_distances(elements).min())


def test_min_distance_joint_term_on_shifted_patterns():
    # patterns {0, 1} and {1, 2} share column 1, first in one and second in
    # the other; the one code puts word 0 then word 1, so column 1 differs
    # in both entries and the distance is 1 + 2 + 1, not the per-column 2
    gamma = [np.array([1, 1, 0]), np.array([0, 1, 1])]
    codes = np.array([[0, 1]])
    b_words = gv_sphere_packing(2, 1, 0)
    db = 2 * (1 - b_words @ b_words.T).astype(np.int64)
    assert bounds._min_distance_exact(gamma, codes, db, 1) == 4
    assert _assembled_min_distance(np.array(gamma), codes, b_words) == 4


def test_min_distance_matches_brute_force_on_sparse_codes():
    # a few column patterns and one or two content words, so that the
    # minimum often comes from patterns sharing columns at shifted positions
    # (the construction's own code holds the all-zero word, which hides that)
    rng = stream(31)
    for _ in range(120):
        m = int(rng.integers(3, 7))
        s, d = int(rng.integers(2, m)), int(rng.integers(2, 4))
        s0 = int(rng.integers(1, d))
        b_words = gv_sphere_packing(d, s0, 0)
        patterns = np.array([
            np.isin(np.arange(m), cols).astype(int)
            for cols in combinations(range(m), s)
        ])
        pick = rng.choice(len(patterns), size=min(len(patterns), int(rng.integers(2, 4))),
                          replace=False)
        gamma = patterns[np.sort(pick)]
        codes = np.unique(rng.integers(len(b_words), size=(int(rng.integers(1, 3)), s)), axis=0)
        db = 2 * (s0 - b_words @ b_words.T).astype(np.int64)
        assert bounds._min_distance_exact(list(gamma), codes, db, s0) == (
            _assembled_min_distance(gamma, codes, b_words)
        )


def _table_min_distance(gamma_supports, codes, db, s0):
    # the minimum from whole n_codes x n_codes code-distance tables, within a
    # column pattern and jointly over the shared columns of two patterns
    def table_min(pos_g, pos_h, skip_diagonal=False):
        dq = sum(db[codes[:, a]][:, codes[:, b]] for a, b in zip(pos_g, pos_h))
        if skip_diagonal:
            np.fill_diagonal(dq, np.iinfo(dq.dtype).max)
        return int(dq.min())

    best = math.inf
    if codes.shape[0] >= 2 and len(gamma_supports):
        every = range(codes.shape[1])
        best = table_min(every, every, skip_diagonal=True)
    if len(gamma_supports) >= 2:
        gamma = np.asarray(gamma_supports, dtype=np.int64)
        position = np.cumsum(gamma, axis=1) - 1
        weight = gamma.sum(axis=1)
        g, h = np.triu_indices(len(gamma), 1)
        shared = (gamma @ gamma.T)[g, h]
        base = s0 * (weight[g] + weight[h] - 2 * shared)
        for pair in np.argsort(base, kind="stable"):
            if base[pair] >= best:
                break
            if not shared[pair]:
                best = min(best, int(base[pair]))
                continue
            cols = np.flatnonzero(gamma[g[pair]] & gamma[h[pair]])
            in_g, in_h = position[g[pair], cols], position[h[pair], cols]
            best = min(best, int(base[pair]) + table_min(in_g, in_h))
    return best


@pytest.mark.parametrize("r", [1, 2, 3])
def test_min_distance_matches_the_distance_tables(r):
    # q-ary codes at symbol distance r, thinned at random (to a few words,
    # or one, half the time) and shuffled; column patterns that share no
    # column, or share columns at shifted positions; as words, a packing at
    # distance > rho, or a few of its words, in random order, so that word
    # distances mix and the closest words need not have neighbouring symbols
    rng = stream(4100 + r)
    kinds = {"disjoint": 0, "shifted": 0, "one word": 0}
    for _ in range(200):
        s = int(rng.integers(r, 5))
        m = int(rng.integers(s + 1, 2 * s + 3))
        d = int(rng.integers(2, 9))
        s0 = int(rng.integers(1, d))
        b_words = gv_sphere_packing(d, s0, int(rng.integers(0, 2 * min(s0, d - s0))))
        b_words = b_words[rng.permutation(len(b_words))]
        if rng.random() < 0.5:
            b_words = b_words[:int(rng.integers(2, 7))]
        if len(b_words) < 2 or len(b_words) ** s > 5000:
            continue
        code = gv_qary_code(len(b_words), s, r)
        few = len(code) if rng.random() < 0.5 else min(len(code), 6)
        codes = code[rng.permutation(len(code))[:int(rng.integers(1, few + 1))]]
        if rng.random() < 0.5:
            codes = codes[np.lexsort(codes.T[::-1])]  # code order
        patterns = np.array([
            np.isin(np.arange(m), cols).astype(int)
            for cols in combinations(range(m), s)
        ])
        pick = rng.choice(len(patterns), size=min(len(patterns), int(rng.integers(1, 5))),
                          replace=False)
        gamma = patterns[np.sort(pick)]
        position = np.cumsum(gamma, axis=1) - 1
        for g, h in combinations(range(len(gamma)), 2):
            both = (gamma[g] & gamma[h]).astype(bool)
            kinds["disjoint"] += not both.any()
            kinds["shifted"] += bool((position[g, both] != position[h, both]).any())
        kinds["one word"] += len(codes) == 1
        db = 2 * (s0 - b_words @ b_words.T).astype(np.int64)
        for some in (gamma[:1], gamma):  # the within-pattern term alone, then all
            assert bounds._min_distance_exact(some, codes, db, s0) == (
                _table_min_distance(some, codes, db, s0)
            )
    assert min(kinds.values()) > 0, kinds


def _qary_code_scan(q, length, min_dist):
    # the greedy scan gv_qary_code used before the lexicode: each candidate,
    # in lexicographic order, against every kept word
    kept = np.empty((0, length), dtype=int)
    for cand in product(range(q), repeat=length):
        arr = np.array(cand, dtype=int)
        if kept.shape[0] == 0 or np.min(np.sum(kept != arr[None, :], axis=1)) >= min_dist:
            kept = np.vstack([kept, arr[None, :]])
    return kept


@pytest.mark.parametrize(
    "q,length,min_dist",
    [(2, 3, 2), (3, 4, 3), (5, 5, 2), (6, 5, 3), (8, 4, 2), (4, 6, 3),
     (2, 12, 6), (3, 3, 5), (3, 0, 2), (28, 2, 1), (5, 3, 1), (3, 0, 1)],
)
def test_gv_qary_code_matches_scan(q, length, min_dist):
    # then: a ball of half the space, a radius beyond the length (one word),
    # the empty word, and at min_dist 1 every word, the empty word included
    code = gv_qary_code(q, length, min_dist)
    expected = _qary_code_scan(q, length, min_dist)
    assert code.dtype == expected.dtype and code.shape == expected.shape
    assert np.array_equal(code, expected)


def _as_bytes(elements):
    return [element.values.tobytes() for element in elements]


def test_packing_elements_sequence_contract():
    elements = build_khatri_rao_packing(5, 4, 2, 2, magnitude=0.7).elements
    n = len(elements)
    assert n == 360
    by_index = [elements[i] for i in range(n)]
    assert _as_bytes(elements) == _as_bytes(by_index)
    assert _as_bytes([elements[-1], elements[-n]]) == _as_bytes([by_index[-1], by_index[0]])
    assert elements[np.int64(7)].values.tobytes() == by_index[7].values.tobytes()
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            elements[bad]
    for cut in (slice(3, 9), slice(None, None, -7), slice(-5, None), slice(n, n + 3),
                slice(10, 2), slice(None)):
        part = elements[cut]
        assert isinstance(part, list)
        assert _as_bytes(part) == _as_bytes(by_index[cut])
    with pytest.raises(TypeError):
        elements[0] = by_index[1]
    with pytest.raises(TypeError):
        elements["0"]


def test_packing_equality_compares_factors():
    packing = build_khatri_rao_packing(5, 4, 2, 2)
    assert packing == build_khatri_rao_packing(5, 4, 2, 2)
    assert packing.elements == build_khatri_rao_packing(5, 4, 2, 2).elements
    assert packing.elements != build_khatri_rao_packing(5, 4, 2, 2, magnitude=0.7).elements
    assert packing.elements != build_khatri_rao_packing(6, 4, 2, 2).elements
    assert packing.elements != list(packing.elements)


def test_packing_elements_handed_out_read_only():
    elements = build_khatri_rao_packing(6, 6, 2, 2).elements
    for element in [*elements, *(elements[i] for i in range(len(elements))), *elements[5:9]]:
        assert not element.values.flags.writeable
        with pytest.raises(ValueError):
            element.values[0, 0] = 2.0


def _export_codebook_per_element(packing, path):
    # the writer export_codebook used before it read the factors: one
    # assembled element at a time
    with open(path, "w", encoding="utf-8") as fh:
        p = packing.params
        fh.write(
            f"# m={p.get('m')} d={p.get('d')} s={p.get('s')} s0={p.get('s0')} "
            f"magnitude={p.get('magnitude')} "
            f"min_hamming={packing.min_pairwise_hamming} target={packing.target}\n"
        )
        for element in packing.elements:
            rows, cols = np.nonzero(element.values)
            triples = ";".join(
                f"{i},{j},{repr(float(element.values[i, j]))}"
                for i, j in zip(rows.tolist(), cols.tolist())
            )
            fh.write(triples + "\n")


@pytest.mark.parametrize("size", [(5, 4, 2, 2), (10, 6, 3, 2)])
def test_export_codebook_matches_per_element_writer(size, tmp_path):
    packing = build_khatri_rao_packing(*size, magnitude=0.7)
    bounds.export_codebook(packing, tmp_path / "factors.txt")
    _export_codebook_per_element(packing, tmp_path / "elements.txt")
    assert (tmp_path / "factors.txt").read_bytes() == (tmp_path / "elements.txt").read_bytes()


def test_packing_keeps_factors_not_elements():
    m, d, s, s0 = 16, 8, 2, 2
    packing = build_khatri_rao_packing(m, d, s, s0)
    assert len(pickle.dumps(packing)) < 8 * len(packing.elements) * d * m / 10
