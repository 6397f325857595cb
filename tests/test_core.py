import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doublesparse import bounds, diagnostics, estimators, threshold
from doublesparse.core import (
    GroupedMatrix,
    NoiseModel,
    SparsityBudget,
    SupportSet,
    excess_support,
    matrix_to_vec,
    stream,
    support_of,
    vec_to_matrix,
)

from float_cases import EDGE_FLOATS, same_bits


def test_vec_matrix_round_trip_bit_exact():
    rng = stream(0)
    beta = rng.normal(size=24)
    theta = vec_to_matrix(beta, m=4, d=6)
    back = matrix_to_vec(theta)
    assert np.array_equal(beta, back)


def test_vec_layout_entry_mapping():
    # entry (i, j) of the matrix is component d*j + i of the vector
    m, d = 3, 4
    beta = np.arange(m * d, dtype=float)
    theta = vec_to_matrix(beta, m, d)
    for j in range(m):
        for i in range(d):
            assert theta.values[i, j] == beta[d * j + i]


def test_vec_length_mismatch_rejected():
    with pytest.raises(ValueError):
        vec_to_matrix(np.zeros(10), m=3, d=4)


def test_grouped_matrix_is_immutable():
    g = GroupedMatrix(np.ones((2, 2)))
    with pytest.raises(ValueError):
        g.values[0, 0] = 5.0


def test_grouped_matrix_copies_its_input():
    arr = np.ones((2, 2))
    g = GroupedMatrix(arr)
    arr[0, 0] = 5.0
    assert g.values[0, 0] == 1.0
    assert arr.flags.writeable


def test_grouped_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        GroupedMatrix(np.zeros(3))
    with pytest.raises(ValueError):
        GroupedMatrix(np.zeros((0, 2)))


def test_support_set_classes():
    supp = SupportSet(frozenset({(0, 1), (2, 1), (1, 3)}))
    assert len(supp) == 3
    assert supp.columns == frozenset({1, 3})
    assert supp.column_counts() == {1: 2, 3: 1}
    assert supp.in_hard_class(2, 2)
    assert not supp.in_hard_class(1, 2)
    assert not supp.in_hard_class(2, 1)
    assert supp.in_heterogeneous_class(2, 3)
    assert not supp.in_heterogeneous_class(2, 2)


def test_support_of_and_excess():
    theta = GroupedMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
    supp = support_of(theta)
    assert supp.entries == frozenset({(0, 0), (1, 1)})
    truth = SupportSet(frozenset({(0, 0)}))
    assert excess_support(supp, truth).entries == frozenset({(1, 1)})


def test_budget_validation():
    with pytest.raises(ValueError):
        SparsityBudget.hard(4, 4, 0, 1)
    with pytest.raises(ValueError):
        SparsityBudget.hard(4, 4, 5, 1)
    with pytest.raises(ValueError):
        SparsityBudget.hard(4, 4, 2, 5)
    with pytest.raises(ValueError):
        SparsityBudget.soft(4, 4, 2, q=1.5, rq=1.0)
    with pytest.raises(ValueError):
        SparsityBudget.heterogeneous(4, 4, 2, s_prime=9)
    for s0 in (0, 5, 99):
        with pytest.raises(ValueError, match="s0"):
            SparsityBudget.heterogeneous(4, 3, 2, s_prime=4, s0=s0)


def _budget_entry_points():
    # every entry point that takes an (s, s0) budget on a 4 x 4 grid
    X = np.eye(20, 16) * math.sqrt(20)
    U = GroupedMatrix(np.ones((4, 4)))
    return {
        "SparsityBudget": lambda s, s0: SparsityBudget.hard(4, 4, s, s0),
        "step2_matrix": lambda s, s0: threshold.step2_matrix(U, 1.0, s, s0),
        "project_double_sparse": lambda s, s0: estimators.project_double_sparse(U, s, s0),
        "dsrip": lambda s, s0: diagnostics.dsrip(X, 4, 4, s, s0),
        "noise_event_stat": lambda s, s0: diagnostics.noise_event_stat(
            X, np.zeros(20), 4, 4, s, s0),
        "rate_hard": lambda s, s0: bounds.rate_hard(1.0, 20, 4, 4, s, s0),
        "covering_bound_hard": lambda s, s0: bounds.covering_bound_hard(4, 4, s, s0),
        "build_khatri_rao_packing": lambda s, s0: bounds.build_khatri_rao_packing(4, 4, s, s0),
        "default_lambda_inf": lambda s, s0: estimators.default_lambda_inf(1.0, 20, 16, 4, s, s0),
        "noise_event_bound": lambda s, s0: diagnostics.noise_event_bound(1.0, 20, 16, 4, s, s0),
    }


@pytest.mark.parametrize("entry", sorted(_budget_entry_points()))
@pytest.mark.parametrize(
    "s,s0,message",
    [(0, 2, r"^s must lie in \[1, m\]=4, got 0$"),
     (5, 2, r"^s must lie in \[1, m\]=4, got 5$"),
     (2, 0, r"^s0 must lie in \[1, d\]=4, got 0$"),
     (2, 5, r"^s0 must lie in \[1, d\]=4, got 5$")],
)
def test_budget_rule_has_one_message(entry, s, s0, message):
    with pytest.raises(ValueError, match=message):
        _budget_entry_points()[entry](s, s0)


@pytest.mark.parametrize("p,d", [(15, 4), (0, 4), (16, 0), (-8, 4)])
def test_flat_budget_needs_p_a_multiple_of_d(p, d):
    for call in (estimators.default_lambda_inf, diagnostics.noise_event_bound):
        with pytest.raises(ValueError, match=rf"^p must be a positive multiple of d={d}, got {p}$"):
            call(1.0, 20, p, d, 1, 1)


def _noise_entry_points():
    # every entry point that takes a noise level sigma and a sample size n
    return {
        "NoiseModel": lambda sigma, n: NoiseModel(sigma, n),
        "default_lambda_inf": lambda sigma, n: estimators.default_lambda_inf(
            sigma, n, 16, 4, 1, 1),
        "noise_event_bound": lambda sigma, n: diagnostics.noise_event_bound(
            sigma, n, 16, 4, 1, 1),
    }


@pytest.mark.parametrize("entry", sorted(_noise_entry_points()))
@pytest.mark.parametrize(
    "sigma,n,message",
    [(-1.0, 10, r"^sigma must be finite and nonnegative, got -1\.0$"),
     (math.nan, 10, r"^sigma must be finite and nonnegative, got nan$"),
     (math.inf, 10, r"^sigma must be finite and nonnegative, got inf$"),
     (None, 10, r"^sigma must be finite and nonnegative, got None$"),
     (1.0, 0, r"^n must be at least 1, got 0$"),
     (1.0, -3, r"^n must be at least 1, got -3$")],
)
def test_noise_rule_has_one_message(entry, sigma, n, message):
    with pytest.raises(ValueError, match=message):
        _noise_entry_points()[entry](sigma, n)


@pytest.mark.parametrize("entry", sorted(_noise_entry_points()))
def test_noise_rule_admits_zero_sigma_and_one_sample(entry):
    _noise_entry_points()[entry](0.0, 1)


@pytest.mark.parametrize("q", [0.0, -0.5, 1.5, math.nan])
def test_q_rule_has_one_message(q):
    for call in (
        lambda: SparsityBudget.soft(4, 4, 2, q=q, rq=1.0),
        lambda: bounds.rate_soft(1.0, 20, 4, 4, 2, q, 1.0),
        lambda: bounds.covering_bound_soft(4, 4, 2, q, 1.0, 1.0),
        lambda: diagnostics.rec_slack(1.0, 20, 2, 4, q),
    ):
        with pytest.raises(ValueError, match=rf"^q must lie in \(0, 1\], got {q}$"):
            call()


def test_heterogeneous_s0_default():
    b = SparsityBudget.heterogeneous(8, 8, 3, s_prime=7)
    assert b.s0 == math.ceil(7 / 3)
    b2 = SparsityBudget.heterogeneous(8, 4, 1, s_prime=4)
    assert b2.s0 == 4


def test_budget_admits():
    b = SparsityBudget.hard(4, 4, 2, 1)
    theta = np.zeros((4, 4))
    theta[0, 0] = 1.0
    theta[1, 2] = 1.0
    assert b.admits(GroupedMatrix(theta))
    theta[2, 2] = 1.0  # second entry in column 2
    assert not b.admits(GroupedMatrix(theta))


@st.composite
def budget_masks(draw):
    """A d x m support mask and a hard or heterogeneous budget on its grid.
    Most masks are built to sit on a limit or one past it: s columns or one
    more or fewer, s0 or s0 + 1 entries in a column, a total of s_prime or
    one off; the rest are arbitrary."""
    d, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    s, s0 = draw(st.integers(1, m)), draw(st.integers(1, d))
    if draw(st.booleans()):
        cells = draw(st.lists(st.booleans(), min_size=d * m, max_size=d * m))
        mask = np.array(cells).reshape(d, m)
    else:
        mask = np.zeros((d, m), dtype=bool)
        ncols = min(m, max(0, s + draw(st.sampled_from([-1, 0, 0, 1]))))
        for j in draw(st.permutations(range(m)))[:ncols]:
            count = draw(st.one_of(st.sampled_from([s0, s0 + 1]), st.integers(1, d)))
            mask[draw(st.permutations(range(d)))[:count], j] = True
    if draw(st.booleans()):
        return mask, SparsityBudget.hard(m, d, s, s0)
    total = int(np.count_nonzero(mask))
    s_prime = draw(st.one_of(st.sampled_from([total - 1, total, total + 1]),
                             st.integers(1, s * d)))
    return mask, SparsityBudget.heterogeneous(m, d, s, min(max(s_prime, 1), s * d))


def test_mask_fits_matches_support_set_classes():
    edges = set()

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(budget_masks())
    def check(case):
        mask, budget = case
        rows, cols = np.nonzero(mask)
        supp = SupportSet(frozenset(zip(rows.tolist(), cols.tolist())))
        if budget.mode == "hard":
            expected = supp.in_hard_class(budget.s, budget.s0)
        else:
            expected = supp.in_heterogeneous_class(budget.s, budget.s_prime)
        assert budget._mask_fits(mask) is expected
        signs = np.where(np.arange(mask.size).reshape(mask.shape) % 2, -1.5, 2.0)
        assert budget.admits(GroupedMatrix(np.where(mask, signs, 0.0))) is expected
        if expected:
            counts = supp.column_counts()
            if len(counts) == budget.s:
                edges.add("s columns")
            if budget.mode == "hard" and budget.s0 in counts.values():
                edges.add("s0 in a column")
            if budget.mode == "heterogeneous" and len(supp) == budget.s_prime:
                edges.add("s_prime in total")
        else:
            edges.add(f"{budget.mode} refused")

    check()
    assert edges == {"s columns", "s0 in a column", "s_prime in total",
                     "hard refused", "heterogeneous refused"}


def test_soft_budget_admits_lq_mass():
    b = SparsityBudget.soft(3, 3, 1, q=0.5, rq=2.0)
    theta = np.zeros((3, 3))
    theta[0, 0] = 1.0
    theta[1, 0] = 1.0  # mass = 1^0.5 + 1^0.5 = 2 <= rq
    assert b.admits(GroupedMatrix(theta))
    theta[2, 0] = 1.0  # mass 3 > 2
    assert not b.admits(GroupedMatrix(theta))


def test_soft_regime_margin_warns_below_one():
    b = SparsityBudget.soft(4, 4, 2, q=1.0, rq=100.0)
    with pytest.warns(UserWarning):
        b.check_soft_regime(n=100)
    b2 = SparsityBudget.soft(4, 1000, 2, q=1.0, rq=1.0)
    assert b2.check_soft_regime(n=100) >= 1.0


def test_noise_model():
    nm = NoiseModel(2.0, 16)
    assert nm.entry_std == 0.5
    with pytest.raises(ValueError):
        NoiseModel(-1.0, 16)
    with pytest.raises(ValueError):
        NoiseModel(1.0, 0)


def test_stream_determinism_and_separation():
    a = stream(7, 1, 2).normal(size=5)
    b = stream(7, 1, 2).normal(size=5)
    c = stream(7, 2, 1).normal(size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_vec_matrix_round_trip_bits(m, d, data):
    beta = np.array(data.draw(st.lists(EDGE_FLOATS, min_size=m * d, max_size=m * d)))
    theta = vec_to_matrix(beta, m, d)
    assert same_bits(matrix_to_vec(theta), beta)
    assert same_bits(matrix_to_vec(vec_to_matrix(matrix_to_vec(theta), m, d)), beta)
