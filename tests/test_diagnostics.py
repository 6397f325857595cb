import math
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doublesparse.core import NoiseModel, stream
from doublesparse import diagnostics, simulate


def test_identity_design_delta_zero_exact():
    X = simulate.gen_design(16, 16, "identity_scaled", stream(0))
    rep = diagnostics.dsrip(X, 4, 4, 2, 2)
    assert rep.delta_s == 0.0
    assert rep.u_s == 16.0
    assert rep.l_s == 16.0


def test_duplicated_columns_give_delta_one():
    rng = stream(1)
    X = simulate.gen_design(30, 8, "gaussian_iid", rng)
    X[:, 1] = X[:, 0]  # (0,0) and (1,0) collinear within one group
    rep = diagnostics.dsrip(X, 4, 2, 1, 2)
    assert rep.delta_s == 1.0
    assert rep.l_s == pytest.approx(0.0, abs=1e-9)


def test_monte_carlo_underestimates_exhaustive():
    rng = stream(2)
    X = simulate.gen_design(40, 16, "gaussian_iid", rng)
    full = diagnostics.dsrip(X, 4, 4, 2, 2)
    mc = diagnostics.dsrip(X, 4, 4, 2, 2, method="monte_carlo", trials=30, seed=5)
    assert mc.is_lower_bound_on_delta
    assert mc.delta_s <= full.delta_s + 1e-12
    assert mc.u_s <= full.u_s + 1e-12
    assert mc.l_s >= full.l_s - 1e-12


def test_delta_monotone_in_budget():
    rng = stream(3)
    X = simulate.gen_design(30, 16, "gaussian_iid", rng)
    d_small = diagnostics.dsrip(X, 4, 4, 1, 1).delta_s
    d_mid = diagnostics.dsrip(X, 4, 4, 2, 1).delta_s
    d_big = diagnostics.dsrip(X, 4, 4, 2, 2).delta_s
    assert d_small <= d_mid + 1e-12
    assert d_mid <= d_big + 1e-12


def test_tau_identity():
    rng = stream(4)
    X = simulate.gen_design(40, 16, "gaussian_iid", rng)
    rep = diagnostics.dsrip(X, 4, 4, 2, 2)
    tau_u, tau_l = diagnostics.sparse_eigen_constants(X, 4, 4, 2, 2)
    assert abs((1 - (tau_l / tau_u) ** 2) - rep.delta_s) <= 1e-10


def test_sparse_eigen_constants_list_input_matches_array():
    X = simulate.gen_design(40, 16, "gaussian_iid", stream(4))
    want = diagnostics.sparse_eigen_constants(X, 4, 4, 2, 2)
    assert diagnostics.sparse_eigen_constants(X.tolist(), 4, 4, 2, 2) == want


@pytest.mark.parametrize("X", [np.float64(3.0), np.zeros(4)])
def test_sparse_eigen_constants_rejects_a_design_that_is_not_2d(X):
    with pytest.raises(ValueError, match=r"^X must be a 2-d n x p array with p=4, got shape"):
        diagnostics.sparse_eigen_constants(X, 2, 2, 1, 1)


def test_dsrip_guards():
    X = np.zeros((10, 12))
    with pytest.raises(ValueError):
        diagnostics.dsrip(X, 5, 2, 1, 1)  # m*d mismatch
    with pytest.raises(ValueError):
        diagnostics.dsrip(np.zeros((10, 400)), 20, 20, 10, 10)  # too many supports
    with pytest.raises(ValueError):
        diagnostics.dsrip(np.zeros((10, 4)), 2, 2, 1, 1, method="monte_carlo")


def _noise_stat_enumerated(X, xi, m, d, s, s0):
    n = X.shape[0]
    corr = (X.T @ xi / n).reshape((d, m), order="F")
    best = 0.0
    for cols in combinations(range(m), s):
        for rows_choice in product(combinations(range(d), s0), repeat=s):
            val = sum(
                corr[i, j] ** 2 for j, rows in zip(cols, rows_choice) for i in rows
            )
            best = max(best, val)
    return best


def test_noise_stat_matches_enumeration():
    rng = stream(5)
    m, d, s, s0 = 5, 4, 2, 2
    for _ in range(20):
        X = simulate.gen_design(30, m * d, "gaussian_iid", rng)
        xi = rng.normal(size=30)
        fast = diagnostics.noise_event_stat(X, xi, m, d, s, s0)
        slow = _noise_stat_enumerated(X, xi, m, d, s, s0)
        assert fast == pytest.approx(slow, rel=1e-12)


def test_noise_bound_exceedance_rare():
    rng = stream(6)
    m, d, s, s0, n = 8, 6, 2, 2, 100
    sigma = 1.0
    bound = diagnostics.noise_event_bound(sigma, n, m * d, d, s, s0)
    X = simulate.gen_design(n, m * d, "gaussian_iid", rng)
    exceed = 0
    reps = 200
    for _ in range(reps):
        xi = rng.normal(0.0, sigma, size=n)
        if diagnostics.noise_event_stat(X, xi, m, d, s, s0) > bound:
            exceed += 1
    assert exceed / reps <= 0.05


def test_rec_slack_reference_value():
    # s=2, rq=1, q=1/2, ln(d)=4, n=400 -> 2*(4/400)^(3/4)
    val = diagnostics.rec_slack(1.0, 400, 2, math.e**4, 0.5)
    assert val == pytest.approx(2 * 0.01**0.75, rel=1e-12)
    assert val == pytest.approx(0.0632, abs=5e-4)
    with pytest.raises(ValueError):
        diagnostics.rec_slack(1.0, 100, 2, 16, 1.5)


@pytest.mark.parametrize(
    "rq,n,message",
    [(-1.0, 10, "rq must be finite and nonnegative, got -1.0"),
     (float("nan"), 10, "rq must be finite and nonnegative, got nan"),
     (float("inf"), 10, "rq must be finite and nonnegative, got inf"),
     (1.0, 0, "n must be at least 1, got 0"),
     (1.0, -3, "n must be at least 1, got -3")],
)
def test_rec_slack_rejects_bad_rq_or_n(rq, n, message):
    with pytest.raises(ValueError) as err:
        diagnostics.rec_slack(rq, n, 2, 4, 0.5)
    assert str(err.value) == message


def test_report_json_serializes():
    X = simulate.gen_design(16, 16, "identity_scaled", stream(7))
    rep = diagnostics.dsrip(X, 4, 4, 1, 1)
    assert '"delta_s": 0.0' in rep.to_json()


def _supports_enumerated(m, d, s, s0):
    return [
        [d * j + i for j, rows in zip(cols, rows_choice) for i in rows]
        for cols in combinations(range(m), s)
        for rows_choice in product(combinations(range(d), s0), repeat=s)
    ]


@pytest.mark.parametrize(
    "m,d,s,s0", [(6, 8, 2, 3), (4, 4, 2, 2), (5, 3, 1, 3), (3, 5, 3, 1), (1, 1, 1, 1)]
)
def test_support_indices_match_enumeration(m, d, s, s0):
    idx = diagnostics._support_indices(m, d, s, s0)
    assert idx.dtype == np.intp
    assert idx.shape == (diagnostics._support_count(m, d, s, s0), s * s0)
    assert idx.tolist() == _supports_enumerated(m, d, s, s0)


@pytest.mark.parametrize(
    "m,d,s,s0", [(6, 8, 2, 3), (4, 4, 2, 2), (5, 3, 1, 3), (3, 5, 3, 1), (1, 1, 1, 1)]
)
def test_support_rows_match_enumeration(m, d, s, s0):
    # 50 positions drawn at random, with repeats; every position in order is
    # test_support_indices_match_enumeration
    want = np.array(_supports_enumerated(m, d, s, s0))
    tables = diagnostics._combinations(m, s), diagnostics._combinations(d, s0), d
    picks = stream(35).integers(len(want), size=50)
    rows = diagnostics._support_rows(*tables, picks)
    assert rows.dtype == np.intp and np.array_equal(rows, want[picks])


def _sampled_supports(seed, trials, m, d, s, s0):
    # the per-trial draws of the Monte-Carlo method: sorted columns, then
    # sorted rows for each column in turn
    rng = stream(seed)
    out = []
    for _ in range(trials):
        cols = sorted(rng.choice(m, size=s, replace=False).tolist())
        rows = [sorted(rng.choice(d, size=s0, replace=False).tolist()) for _ in cols]
        out.append([d * j + i for j, r in zip(cols, rows) for i in r])
    return out


def _extreme_eigs_loop(X, supports):
    u_s, l_s, degenerate = -math.inf, math.inf, 0
    for idx in supports:
        Xs = X[:, idx]
        eigs = np.linalg.eigvalsh(Xs.T @ Xs)
        top, bottom = float(eigs[-1]), max(float(eigs[0]), 0.0)
        degenerate += top < 1e-12
        u_s, l_s = max(u_s, top), min(l_s, bottom)
    return u_s, l_s, degenerate


def _designs():
    rng = stream(20)
    for m, d, s, s0, n in [(4, 4, 2, 2, 30), (5, 3, 2, 1, 12), (3, 6, 2, 3, 50)]:
        yield m, d, s, s0, simulate.gen_design(n, m * d, "gaussian_iid", rng)
    # many column sets with one row subset each, s = 1, s = 3 and s0 = d
    for m, d, s, s0, n in [(20, 1, 2, 1, 10), (12, 2, 2, 1, 12), (6, 4, 1, 2, 10),
                           (5, 3, 3, 1, 20), (5, 3, 2, 3, 12)]:
        yield m, d, s, s0, simulate.gen_design(n, m * d, "gaussian_iid", rng)
    yield 4, 4, 2, 2, simulate.gen_design(16, 16, "identity_scaled", rng)
    X = simulate.gen_design(30, 8, "gaussian_iid", rng)
    X[:, 1] = X[:, 0]
    yield 4, 2, 1, 2, X
    X = np.zeros((10, 8))
    X[:, 5] = 1.0
    yield 4, 2, 2, 1, X  # supports of all-zero columns are degenerate


@pytest.mark.parametrize("chunk_bytes", [None, 1, 5000])
@pytest.mark.parametrize("method", ["exhaustive", "monte_carlo"])
def test_dsrip_matches_per_support_loop(monkeypatch, chunk_bytes, method):
    if chunk_bytes is not None:
        # one support per chunk, or a few per chunk with a ragged last one
        monkeypatch.setattr(diagnostics, "_CHUNK_BYTES", chunk_bytes)
    for m, d, s, s0, X in _designs():
        if method == "exhaustive":
            rep = diagnostics.dsrip(X, m, d, s, s0)
            supports = _supports_enumerated(m, d, s, s0)
        else:
            rep = diagnostics.dsrip(X, m, d, s, s0, method=method, trials=37, seed=4)
            supports = _sampled_supports(4, 37, m, d, s, s0)
        u_s, l_s, degenerate = _extreme_eigs_loop(X, supports)
        assert (rep.u_s, rep.l_s, rep.degenerate_supports) == (u_s, l_s, degenerate)
        delta = 1.0 - l_s / u_s if u_s > 1e-12 else 1.0
        assert rep.delta_s == min(max(delta, 0.0), 1.0)


@pytest.mark.parametrize("chunk_bytes", [None, 1, 5000])
def test_exhaustive_dsrip_builds_no_support_index_array(monkeypatch, chunk_bytes):
    # an enumeration takes each support's index row from its position
    def refuse(*args):
        raise AssertionError("_support_indices called")

    monkeypatch.setattr(diagnostics, "_support_indices", refuse)
    if chunk_bytes is not None:
        monkeypatch.setattr(diagnostics, "_CHUNK_BYTES", chunk_bytes)
    for m, d, s, s0, X in _designs():
        rep = diagnostics.dsrip(X, m, d, s, s0)
        want = _extreme_eigs_loop(X, _supports_enumerated(m, d, s, s0))
        assert (rep.u_s, rep.l_s, rep.degenerate_supports) == want


# many column sets, each with a single row subset
WIDE_GRIDS = [(20, 1, 2, 1), (12, 2, 2, 1)]


@st.composite
def small_grids(draw):
    m, d = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    return m, d, draw(st.integers(1, min(m, 3))), draw(st.integers(1, min(d, 3)))


@st.composite
def dsrip_cases(draw):
    """A grid, small or with many column sets, and a design that stresses the
    certified skipping: exact ties from integer entries, duplicated and
    all-zero columns, column scales over six decades, supports whose Gram
    matrices are permutations of one another, and n below the support size."""
    m, d, s, s0 = draw(st.one_of(small_grids(), st.sampled_from(WIDE_GRIDS)))
    n, p = draw(st.integers(1, 14)), m * d
    rng = stream(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(
        ["gaussian", "quantized", "duplicated", "zero", "unnormalized"]
    ))
    X = simulate.gen_design(n, p, "gaussian_iid", rng)
    if kind == "quantized":
        X = np.round(2.0 * X)
    elif kind == "duplicated":
        X[:, rng.integers(p, size=max(1, p // 3))] = X[:, [rng.integers(p)]]
    elif kind == "zero":
        X[:, rng.random(p) < 0.4] = 0.0
    elif kind == "unnormalized":
        X *= 10.0 ** rng.uniform(-3.0, 3.0, size=p)
    if draw(st.booleans()):  # every column group the same d columns, reordered
        X = np.hstack([X[:, rng.permutation(d)] for _ in range(m)])
    method = draw(st.sampled_from(["exhaustive", "monte_carlo"]))
    trials, seed = draw(st.integers(1, 80)), draw(st.integers(0, 1000))
    chunk_bytes = draw(st.sampled_from([1, 3000, 20000, diagnostics._CHUNK_BYTES]))
    return m, d, s, s0, X, method, trials, seed, chunk_bytes


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(dsrip_cases())
def test_dsrip_certified_skipping_matches_per_support_loop(case):
    m, d, s, s0, X, method, trials, seed, chunk_bytes = case
    with mock.patch.object(diagnostics, "_CHUNK_BYTES", chunk_bytes):
        rep = diagnostics.dsrip(X, m, d, s, s0, method=method, seed=seed,
                                trials=trials if method == "monte_carlo" else None)
    if method == "exhaustive":
        supports = _supports_enumerated(m, d, s, s0)
    else:
        supports = _sampled_supports(seed, trials, m, d, s, s0)
    assert (rep.u_s, rep.l_s, rep.degenerate_supports) == _extreme_eigs_loop(X, supports)


def _assert_intervals_hold(X, m, d, s, s0):
    # every eigvalsh eigenvalue of each support's own Gram matrix lies in its
    # table interval widened by the margin M the settling test subtracts, and
    # the mean is at most the top eigenvalue plus M
    XT = np.ascontiguousarray(X.T)
    mean, lower, upper = diagnostics._support_intervals(XT, d, *_tables(m, d, s, s0))
    Xs = XT[diagnostics._support_indices(m, d, s, s0)]
    eigs = np.linalg.eigvalsh(Xs @ Xs.transpose(0, 2, 1))
    c2 = float(np.einsum("ij,ij->j", X, X).max())
    margin = diagnostics._margin(s * s0, X.shape[0], c2, 0.0)
    assert np.all(lower[:, None] - margin <= eigs)
    assert np.all(eigs <= upper[:, None] + margin)
    assert np.all(mean <= eigs[:, -1] + margin)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(dsrip_cases())
def test_support_intervals_hold_every_eigenvalue(case):
    m, d, s, s0, X, _, _, _, chunk_bytes = case
    with mock.patch.object(diagnostics, "_CHUNK_BYTES", chunk_bytes):
        _assert_intervals_hold(X, m, d, s, s0)


@pytest.mark.parametrize("m,d,s,s0", [(4, 4, 2, 2), (3, 5, 3, 2), (6, 2, 1, 2), (5, 3, 2, 3)])
@pytest.mark.parametrize("bump", [0.0, 2.0**-17])
def test_support_intervals_hold_when_sd_is_about_zero(m, d, s, s0, bump):
    # sqrt(n) [I; 0] has sd = 0 on every support; a row of tiny equal
    # entries adds bump^2 to every Gram entry, so each support's eigenvalues
    # are n + k bump^2 once and n otherwise: the interval's top is attained,
    # and the spread is below the rounding of ||G||_F^2
    p = m * d
    X = simulate.gen_design(p + 3, p, "identity_scaled", stream(30))
    X[p] = bump
    _assert_intervals_hold(X, m, d, s, s0)


def _tables(m, d, s, s0):
    return diagnostics._combinations(m, s), diagnostics._combinations(d, s0)


def _prefix_cases(X, m, d, s, s0):
    # thresholds at quantiles of the exact extremes, and l_s = 0; per case
    # the supports that must be settled and those that must not be, and
    # the degenerate ones
    XT = np.ascontiguousarray(X.T)
    Xs = XT[diagnostics._support_indices(m, d, s, s0)]
    eigs = np.linalg.eigvalsh(Xs @ Xs.transpose(0, 2, 1))
    top, bottom = eigs[:, -1], eigs[:, 0]
    c2 = float(np.einsum("ij,ij->j", X, X).max())
    for qu, ql in [(1.0, 0.0), (0.9, 0.2), (0.5, 0.5), (1.0, None)]:
        u_s = float(np.quantile(top, qu))
        l_s = 0.0 if ql is None else max(float(np.quantile(bottom, ql)), 0.0)
        margin = diagnostics._margin(s * s0, X.shape[0], c2, u_s)
        inside = (top < u_s - 2 * margin) & ((bottom > l_s + 2 * margin) | (l_s == 0.0))
        outside = (top >= u_s) | ((bottom <= l_s) & (l_s > 0.0))
        yield XT, u_s, l_s, margin, inside, outside, top < 1e-12


def _every_prefix(XT, grid, u_s, l_s, margin):
    # both tests on every prefix, the lower one only while l_s > 0, as the
    # enumeration's masks have it
    m, d, s, s0 = grid
    tested = np.ones(diagnostics._support_count(*grid), dtype=bool)
    return diagnostics._prefix_settled(XT, *_tables(*grid), d, u_s, l_s, margin,
                                       tested, tested & (l_s > 0.0))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(dsrip_cases())
def test_prefix_settled_never_settles_a_support_beyond_the_thresholds(case):
    m, d, s, s0, X, _, _, _, chunk_bytes = case
    with mock.patch.object(diagnostics, "_CHUNK_BYTES", chunk_bytes):
        for XT, u_s, l_s, margin, _, outside, _ in _prefix_cases(X, m, d, s, s0):
            settled = _every_prefix(XT, (m, d, s, s0), u_s, l_s, margin)
            assert not np.any(settled & outside)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dsrip_cases())
def test_prefix_settled_with_open_masks_never_settles_a_support_beyond_the_thresholds(case):
    # as the enumeration calls it: each test only on the prefixes that hold
    # a support whose interval leaves that test open, among those that the
    # intervals do not settle outright; the supports they settle are a
    # superset of what both tests on every prefix settle, and none of them
    # is beyond the thresholds
    m, d, s, s0, X, _, _, _, chunk_bytes = case
    grid = (m, d, s, s0)
    with mock.patch.object(diagnostics, "_CHUNK_BYTES", chunk_bytes):
        for XT, u_s, l_s, margin, _, outside, _ in _prefix_cases(X, *grid):
            tables = _tables(*grid)
            intervals = diagnostics._support_intervals(XT, d, *tables)
            top, bottom, flat = diagnostics._open(intervals, u_s, l_s, margin)
            pending = top | bottom | flat
            settled = diagnostics._prefix_settled(XT, *tables, d, u_s, l_s, margin,
                                                  pending & top, pending & bottom)
            assert not np.any(settled & outside & pending)
            full = _every_prefix(XT, grid, u_s, l_s, margin)
            assert np.all(settled[pending] >= full[pending])


@pytest.mark.parametrize("m,d,s,s0", [(6, 8, 2, 3), (5, 3, 3, 1), (5, 4, 3, 2),
                                      (6, 4, 1, 2), (3, 6, 2, 6), (250, 1, 2, 1)])
@pytest.mark.parametrize("chunk_bytes", [None, 1])
def test_prefix_settled_matches_the_exact_eigenvalues(monkeypatch, m, d, s, s0, chunk_bytes):
    # away from the thresholds the shared-prefix LDL^T tests decide exactly
    # as the eigenvalues do, on grids with s = 1, s = 3, s0 = d and r = 1,
    # with every prefix in one chunk or each in its own (a chunk whose
    # union's Gram matrix outgrows it settles nothing)
    if chunk_bytes is not None:
        monkeypatch.setattr(diagnostics, "_CHUNK_BYTES", chunk_bytes)
    X = simulate.gen_design(40, m * d, "gaussian_iid", stream(33))
    for XT, u_s, l_s, margin, inside, outside, _ in _prefix_cases(X, m, d, s, s0):
        settled = _every_prefix(XT, (m, d, s, s0), u_s, l_s, margin)
        assert np.array_equal(settled[inside | outside], inside[inside | outside])


def test_prefix_settled_leaves_every_support_when_a_prefix_outgrows_its_supports():
    # (12, 2, 2, 1): prefix matrices of 3 x 3 against two supports of 2 x 2
    X = simulate.gen_design(20, 24, "gaussian_iid", stream(34))
    settled = _every_prefix(np.ascontiguousarray(X.T), (12, 2, 2, 1), 1e9, 0.0, 0.0)
    assert settled.shape == (264,) and not settled.any()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(dsrip_cases())
def test_settled_never_settles_a_support_beyond_the_thresholds(case):
    m, d, s, s0, X, *_ = case
    idx = diagnostics._support_indices(m, d, s, s0)
    for XT, u_s, l_s, margin, _, outside, degenerate in _prefix_cases(X, m, d, s, s0):
        norms = np.einsum("ij,ij->i", XT, XT)
        settled = diagnostics._settled(XT, idx, norms, u_s, l_s, margin)
        assert not np.any(settled & (outside | degenerate))


@pytest.mark.parametrize("m,d,s,s0", [(6, 8, 2, 3), (5, 3, 3, 1), (5, 4, 3, 2),
                                      (3, 6, 1, 3), (3, 6, 2, 6), (250, 1, 2, 1)])
def test_settled_matches_the_exact_eigenvalues(m, d, s, s0):
    # away from the thresholds the LDL^T tests decide exactly as the
    # eigenvalues do, on grids with s = 1, s = 3, s0 = d and r = 1 whose
    # column union is small enough for the tests to run
    X = simulate.gen_design(40, m * d, "gaussian_iid", stream(33))
    idx = diagnostics._support_indices(m, d, s, s0)
    for XT, u_s, l_s, margin, inside, outside, degenerate in _prefix_cases(X, m, d, s, s0):
        assert not degenerate.any()
        norms = np.einsum("ij,ij->i", XT, XT)
        settled = diagnostics._settled(XT, idx, norms, u_s, l_s, margin)
        assert np.array_equal(settled[inside | outside], inside[inside | outside])


def test_shifted_stack_matches_its_definition():
    # every split of stacks of up to 10 matrices; a stack of 8 with one
    # upper matrix is where an in-place np.negative misread its strided view
    rng = stream(37)
    for k in range(1, 5):
        gram = rng.normal(size=(2 * k, 2 * k))
        gram = gram @ gram.T
        for B in range(1, 11):
            rows = np.array([rng.permutation(2 * k)[:k] for _ in range(B)])
            G = gram[rows[:, :, None], rows[:, None, :]].transpose(1, 2, 0)
            for t in range(B + 1):
                A = diagnostics._shifted_stack(gram, rows[:t], rows[t:], 3.0, 0.5, 0.25)
                want = np.concatenate([2.75 * np.eye(k)[:, :, None] - G[:, :, :t],
                                       G[:, :, t:] - 0.75 * np.eye(k)[:, :, None]], axis=2)
                assert np.array_equal(A, want)


def test_union_matches_unique():
    rng = stream(28)
    for p, shape in [(48, (633, 6)), (7, (3, 2)), (4000, (40, 6)), (5, (1, 5))]:
        supports = rng.integers(p, size=shape)
        union, local = diagnostics._union(supports, p)
        expected, inverse = np.unique(supports, return_inverse=True)
        assert np.array_equal(union, expected)
        assert np.array_equal(local, inverse.reshape(shape))


@pytest.mark.parametrize("chunk_bytes", [None, 5000])
def test_wide_design_monte_carlo_matches_per_support_loop(monkeypatch, chunk_bytes):
    # the sampled supports read a few hundred of the 4000 columns, so only
    # those rows of X^T are copied and the supports index that copy
    if chunk_bytes is not None:
        monkeypatch.setattr(diagnostics, "_CHUNK_BYTES", chunk_bytes)
    m, d, s, s0 = 200, 20, 2, 3
    X = simulate.gen_design(60, m * d, "gaussian_iid", stream(29))
    X[:, 45] = X[:, 7]
    rep = diagnostics.dsrip(X, m, d, s, s0, method="monte_carlo", trials=150, seed=6)
    supports = _sampled_supports(6, 150, m, d, s, s0)
    assert len({c for idx in supports for c in idx}) < m * d // 4
    assert (rep.u_s, rep.l_s, rep.degenerate_supports) == _extreme_eigs_loop(X, supports)


def test_most_supports_skip_eigendecomposition(monkeypatch):
    # (6,8,2,3) has 47 040 supports; on a Gaussian design nearly all of them
    # are certified away from both extremes and never eigendecomposed
    X = simulate.gen_design(100, 48, "gaussian_iid", stream(27))
    eigvalsh = np.linalg.eigvalsh
    decomposed = []
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda a: decomposed.append(len(a)) or eigvalsh(a)
    )
    rep = diagnostics.dsrip(X, 6, 8, 2, 3)
    assert 0 < sum(decomposed) <= 0.05 * 47040
    monkeypatch.undo()
    idx = diagnostics._support_indices(6, 8, 2, 3)
    Xs = np.ascontiguousarray(X.T)[idx]
    eigs = np.linalg.eigvalsh(Xs @ Xs.transpose(0, 2, 1))
    assert (rep.u_s, rep.l_s) == (eigs[:, -1].max(), eigs[:, 0].min())


def test_most_supports_never_reach_the_inertia_tests(monkeypatch):
    # on the design of test_most_supports_skip_eigendecomposition, the table
    # intervals and the shared-prefix LDL^T tests, run once, leave at most
    # 2% of the 47 040 supports to the per-chunk tests
    X = simulate.gen_design(100, 48, "gaussian_iid", stream(27))
    settled, prefix_settled = diagnostics._settled, diagnostics._prefix_settled
    tested, prefix_calls = [], []
    monkeypatch.setattr(
        diagnostics, "_settled",
        lambda XT, supports, *args: tested.append(len(supports)) or settled(XT, supports, *args),
    )
    monkeypatch.setattr(
        diagnostics, "_prefix_settled",
        lambda *args: prefix_calls.append(args[1:4]) or prefix_settled(*args),
    )
    diagnostics.dsrip(X, 6, 8, 2, 3)
    assert [(sets.shape, row_sets.shape, d) for sets, row_sets, d in prefix_calls] == [
        ((15, 2), (56, 3), 8)]
    assert 0 < sum(tested) <= 47040 // 50


@pytest.mark.parametrize("n,k", [(1, 1), (4, 2), (6, 3), (7, 7), (9, 1), (9, 4), (250, 2)])
def test_combinations_match_itertools(n, k):
    out = diagnostics._combinations(n, k)
    assert out.dtype == np.intp
    assert out.shape == (math.comb(n, k), k)
    assert out.tolist() == [list(c) for c in combinations(range(n), k)]


@pytest.mark.parametrize("m,d,s,s0", [(6, 8, 2, 3), (250, 1, 2, 1)])
def test_exhaustive_dsrip_builds_each_combination_table_once(monkeypatch, m, d, s, s0):
    build = diagnostics._combinations
    built = []
    monkeypatch.setattr(diagnostics, "_combinations",
                        lambda n, k: built.append((n, k)) or build(n, k))
    diagnostics.dsrip(simulate.gen_design(100, m * d, "gaussian_iid", stream(36)), m, d, s, s0)
    assert sorted(built) == sorted([(m, s), (d, s0)])


def test_monte_carlo_trials_numpy_integer_is_stored_as_int():
    X = simulate.gen_design(20, 16, "gaussian_iid", stream(31))
    rep = diagnostics.dsrip(X, 4, 4, 2, 2, method="monte_carlo", trials=np.int64(3))
    assert type(rep.trials) is int and rep.trials == 3
    assert '"trials": 3' in rep.to_json()
    assert rep == diagnostics.dsrip(X, 4, 4, 2, 2, method="monte_carlo", trials=3)


@pytest.mark.parametrize("trials", [True, False, 2.5, 0, -1, None, "3", np.float64(3.0)])
def test_monte_carlo_rejects_trials_that_are_not_a_positive_integer(trials):
    X = simulate.gen_design(20, 16, "gaussian_iid", stream(32))
    message = f"trials must be a positive integer for method 'monte_carlo', got {trials!r}"
    with pytest.raises(ValueError) as err:
        diagnostics.dsrip(X, 4, 4, 2, 2, method="monte_carlo", trials=trials)
    assert str(err.value) == message


@pytest.mark.parametrize("trials", [5, 0, np.int64(3), "3"])
def test_exhaustive_rejects_trials(trials):
    X = simulate.gen_design(20, 16, "gaussian_iid", stream(32))
    message = (f"trials applies only to method 'monte_carlo', got {trials!r} "
               "for method 'exhaustive'")
    with pytest.raises(ValueError) as err:
        diagnostics.dsrip(X, 4, 4, 2, 2, trials=trials)
    assert str(err.value) == message


@pytest.mark.parametrize("method", ["exhaustive", "monte_carlo"])
@pytest.mark.parametrize(
    "s,s0,name", [(0, 2, "s"), (5, 2, "s"), (2, 0, "s0"), (2, 5, "s0")]
)
def test_dsrip_rejects_budget_outside_grid(method, s, s0, name):
    X = simulate.gen_design(20, 16, "gaussian_iid", stream(21))
    with pytest.raises(ValueError, match=rf"^{name} must lie in"):
        diagnostics.dsrip(X, 4, 4, s, s0, method=method, trials=5)


@pytest.mark.parametrize("method", ["exhaustive", "monte_carlo"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dsrip_rejects_non_finite_design(method, bad):
    X = simulate.gen_design(20, 16, "gaussian_iid", stream(22))
    X[3, 7] = bad
    with pytest.raises(ValueError, match="X must be finite"):
        diagnostics.dsrip(X, 4, 4, 2, 2, method=method, trials=5)


@pytest.mark.parametrize(
    "s,s0,name", [(0, 2, "s"), (5, 2, "s"), (2, 0, "s0"), (2, 5, "s0")]
)
def test_noise_stat_rejects_budget_outside_grid(s, s0, name):
    rng = stream(23)
    X = simulate.gen_design(20, 16, "gaussian_iid", rng)
    xi = rng.normal(size=20)
    with pytest.raises(ValueError, match=rf"^{name} must lie in"):
        diagnostics.noise_event_stat(X, xi, 4, 4, s, s0)


def test_one_dimensional_design_rejected():
    with pytest.raises(ValueError, match="^X must be a 2-d"):
        diagnostics.dsrip(np.zeros(16), 4, 4, 1, 1)
    with pytest.raises(ValueError, match="^X must be a 2-d"):
        diagnostics.noise_event_stat(np.zeros(16), np.zeros(16), 4, 4, 1, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_noise_stat_rejects_non_finite_xi(bad):
    rng = stream(25)
    X = simulate.gen_design(20, 16, "gaussian_iid", rng)
    xi = rng.normal(size=20)
    xi[5] = bad
    with pytest.raises(ValueError, match="^xi must be finite"):
        diagnostics.noise_event_stat(X, xi, 4, 4, 2, 2)


@pytest.mark.parametrize(
    "shape", [(19,), (21,), (20, 1), ()], ids=["short", "long", "column", "scalar"]
)
def test_noise_stat_rejects_xi_of_wrong_shape(shape):
    X = simulate.gen_design(20, 16, "gaussian_iid", stream(26))
    with pytest.raises(ValueError, match=r"^xi must have shape \(20,\)"):
        diagnostics.noise_event_stat(X, np.ones(shape), 4, 4, 2, 2)
