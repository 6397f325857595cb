import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doublesparse.core import GroupedMatrix, SparsityBudget, stream
from doublesparse import threshold


def hard(m, d, s, s0):
    return SparsityBudget.hard(m, d, s, s0)


def test_step1_keeps_on_equality():
    U = GroupedMatrix(np.array([[1.0, -1.0], [0.5, 2.0]]))
    out = threshold.step1_entrywise(U, 1.0)
    assert np.array_equal(out.values, [[1.0, -1.0], [0.0, 2.0]])


def test_worked_example():
    U = GroupedMatrix(np.array([[2.0, 1.2], [0.0, 1.1]]))
    out = threshold.apply(U, 1.2, hard(2, 2, 1, 1))
    assert np.array_equal(out.result.values, [[2.0, 1.2], [0.0, 0.0]])
    assert out.selected_columns == frozenset({0, 1})
    assert out.row_cut == 1
    assert out.active_set.entries == frozenset({(0, 0), (0, 1)})


def test_column_condition_boundary():
    # squared column mass exactly s0*lam^2 passes (>=)
    lam = 1.0
    U = GroupedMatrix(np.array([[1.0, 2.0], [1.0, 0.0], [0.0, 0.0]]))
    out = threshold.apply(U, lam, hard(2, 3, 2, 2))
    assert 0 in out.selected_columns  # mass 2 == 2*1
    assert 1 in out.selected_columns  # mass 4 >= 2


def test_tie_rank_keeps_all_tied_entries_or_none():
    # two equal magnitudes in one column: rank of each is 2, so i_max=1 drops
    # both and i_max=2 keeps both
    U = GroupedMatrix(np.array([[3.0, 3.0], [3.0, 0.0]]))
    out = threshold.apply(U, 1.0, hard(2, 2, 2, 2))
    kept = out.result.values[:, 0]
    assert (kept == 0).all() or (kept == U.values[:, 0]).all()


def test_oracle_matches_fast_path_random():
    rng = stream(42)
    budgetp = [(1, 1), (2, 2), (3, 2), (2, 4)]
    for trial in range(300):
        U = GroupedMatrix(rng.normal(size=(6, 8)))
        lam = float(rng.uniform(0.1, 2.0))
        s, s0 = budgetp[trial % len(budgetp)]
        fast = threshold.apply(U, lam, hard(8, 6, s, s0)).result.values
        slow = threshold.literal_oracle(U, lam, s, s0).values
        assert np.array_equal(fast, slow)


def test_oracle_matches_fast_path_ties():
    rng = stream(43)
    for _ in range(100):
        # quantized entries force magnitude ties
        U = GroupedMatrix(rng.integers(-2, 3, size=(6, 8)).astype(float) * 0.5)
        lam = float(rng.choice([0.5, 1.0]))
        fast = threshold.apply(U, lam, hard(8, 6, 2, 2)).result.values
        slow = threshold.literal_oracle(U, lam, 2, 2).values
        assert np.array_equal(fast, slow)


@st.composite
def tie_grids(draw):
    """A quantized d x m grid (many equal magnitudes), a threshold on the same
    lattice, and any budget (s, s0) the grid admits."""
    d = draw(st.integers(1, 8))
    m = draw(st.integers(1, 6))
    cells = draw(st.lists(st.integers(-3, 3), min_size=d * m, max_size=d * m))
    U = GroupedMatrix(np.array(cells, dtype=float).reshape(d, m) * 0.5)
    lam = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5]))
    return U, lam, draw(st.integers(1, m)), draw(st.integers(1, d))


def test_oracle_matches_fast_path_on_tie_grids():
    edges = set()

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(tie_grids())
    def check(case):
        U, lam, s, s0 = case
        out = threshold.apply(U, lam, hard(U.cols, U.rows, s, s0))
        slow = threshold.literal_oracle(U, lam, s, s0).values
        assert np.array_equal(out.result.values, slow)
        rows, cols = np.nonzero(out.result.values)
        assert out.active_set.entries == frozenset(zip(rows.tolist(), cols.tolist()))
        if out.row_cut == 0:
            edges.add("none")
        elif out.row_cut == U.rows:
            edges.add("full")

        het = SparsityBudget.heterogeneous(U.cols, U.rows, s, s * s0, s0=s0)
        out = threshold.apply_heterogeneous(U, lam, het)
        slow = threshold.literal_oracle(U, lam, s, s0, row_condition=False).values
        assert np.array_equal(out.result.values, slow)
        assert out.row_cut == U.rows
        rows, cols = np.nonzero(out.result.values)
        assert out.active_set.entries == frozenset(zip(rows.tolist(), cols.tolist()))

    check()
    # both edges of the order-statistic comparison were exercised
    assert edges == {"none", "full"}


def test_outcome_fields_are_read_only_and_built_from_masks():
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(tie_grids())
    def check(case):
        U, lam, s, s0 = case
        # the column condition reads the entrywise stage's output; on the
        # half-integer lattice every squared mass is exact
        W = np.where(np.abs(U.values) >= lam, U.values, 0.0)
        passing = frozenset(np.flatnonzero(np.sum(W * W, axis=0) >= s0 * lam * lam).tolist())
        het = SparsityBudget.heterogeneous(U.cols, U.rows, s, s * s0, s0=s0)
        for out in (threshold.apply(U, lam, hard(U.cols, U.rows, s, s0)),
                    threshold.apply_heterogeneous(U, lam, het)):
            assert out.selected_columns == passing
            assert np.array_equal(out.selected_mask, np.isin(np.arange(U.cols), list(passing)))
            for arr in (out.result.values, out.active_mask, out.selected_mask):
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0

    check()


def test_heterogeneous_matches_oracle():
    rng = stream(44)
    budget = SparsityBudget.heterogeneous(8, 6, 2, s_prime=4)
    for _ in range(200):
        U = GroupedMatrix(rng.normal(size=(6, 8)))
        lam = float(rng.uniform(0.1, 2.0))
        fast = threshold.apply_heterogeneous(U, lam, budget).result.values
        slow = threshold.literal_oracle(U, lam, budget.s, budget.s0,
                                        row_condition=False).values
        assert np.array_equal(fast, slow)


def test_heterogeneous_row_cut_is_full_depth():
    U = GroupedMatrix(np.ones((5, 3)))
    budget = SparsityBudget.heterogeneous(3, 5, 2, s_prime=6)
    out = threshold.apply_heterogeneous(U, 0.5, budget)
    assert out.row_cut == 5


def test_output_never_grows_entries():
    rng = stream(45)
    for _ in range(50):
        U = GroupedMatrix(rng.normal(size=(5, 5)))
        out = threshold.apply(U, 0.7, hard(5, 5, 3, 2)).result
        mask = out.values != 0
        assert np.array_equal(out.values[mask], U.values[mask])


def test_monotone_in_lambda_support_shrinks():
    rng = stream(46)
    U = GroupedMatrix(rng.normal(size=(6, 6)))
    prev_support = None
    for lam in (0.2, 0.5, 1.0, 1.5):
        out = threshold.apply(U, lam, hard(6, 6, 6, 6))
        # with the budget maxed out, only stage 1 and the scores bind;
        # raising lambda can only remove entries
        supp = out.active_set.entries
        if prev_support is not None:
            assert supp <= prev_support
        prev_support = supp


def test_large_lambda_zeroes_everything():
    U = GroupedMatrix(np.ones((4, 4)))
    out = threshold.apply(U, 100.0, hard(4, 4, 2, 2))
    assert not out.result.values.any()
    assert out.row_cut == 0
    assert len(out.active_set) == 0


def test_idempotent_on_own_output():
    rng = stream(47)
    for _ in range(25):
        U = GroupedMatrix(rng.normal(size=(6, 6)) * 3)
        once = threshold.apply(U, 1.0, hard(6, 6, 3, 2)).result
        twice = threshold.apply(once, 1.0, hard(6, 6, 3, 2)).result
        assert np.array_equal(once.values, twice.values)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(tie_grids())
def test_heterogeneous_idempotent_on_tie_grids(case):
    # without the row condition, a second pass at the same level keeps every
    # entry of the first: the variant is idempotent, unlike the hard mode
    # pinned by test_hard_mode_not_idempotent
    U, lam, s, s0 = case
    budget = SparsityBudget.heterogeneous(U.cols, U.rows, s, s * s0, s0=s0)
    once = threshold.apply_heterogeneous(U, lam, budget)
    twice = threshold.apply_heterogeneous(once.result, lam, budget)
    assert np.array_equal(twice.result.values, once.result.values)


def test_hard_mode_not_idempotent():
    # the row cut drops the tied column 0, after which no rank reaches
    # s * lam^2 and the second pass keeps nothing: not a projection
    U = GroupedMatrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
    budget = hard(2, 2, 2, 1)
    once = threshold.apply(U, 1.0, budget)
    twice = threshold.apply(once.result, 1.0, budget)
    assert np.array_equal(once.result.values, [[0.0, 1.0], [0.0, 0.0]])
    assert not twice.result.values.any()
    assert (once.row_cut, twice.row_cut) == (1, 0)
    oracle_once = threshold.literal_oracle(U, 1.0, 2, 1)
    assert np.array_equal(oracle_once.values, once.result.values)
    assert not threshold.literal_oracle(oracle_once, 1.0, 2, 1).values.any()


def test_rejects_bad_arguments():
    U = GroupedMatrix(np.ones((3, 3)))
    with pytest.raises(ValueError):
        threshold.step1_entrywise(U, 0.0)
    with pytest.raises(ValueError):
        threshold.step2_matrix(U, 1.0, s=0, s0=1)
    with pytest.raises(ValueError):
        threshold.apply(U, 1.0, SparsityBudget.heterogeneous(3, 3, 1, 2))
    with pytest.raises(ValueError):
        threshold.apply_heterogeneous(U, 1.0, SparsityBudget.hard(3, 3, 1, 1))
    # a NaN lam passes a `lam <= 0` test and would zero every entry
    nan = float("nan")
    for call in (
        lambda: threshold.step1_entrywise(U, nan),
        lambda: threshold.step2_matrix(U, nan, s=1, s0=1),
        lambda: threshold.apply(U, nan, SparsityBudget.hard(3, 3, 1, 1)),
        lambda: threshold.apply_heterogeneous(U, nan, SparsityBudget.heterogeneous(3, 3, 1, 2)),
        lambda: threshold.literal_oracle(U, nan, 1, 1),
        lambda: threshold.literal_oracle(U, nan, 1, 1, row_condition=False),
    ):
        with pytest.raises(ValueError, match="^lam must be positive"):
            call()


NON_FINITE_U = [
    ("nan entry", (1, 2), float("nan")),
    ("inf entry", (0, 0), float("inf")),
    ("-inf entry", (2, 1), float("-inf")),
]
PUBLIC_STAGES = {
    "step1_entrywise": lambda U: threshold.step1_entrywise(U, 0.5),
    "step2_matrix": lambda U: threshold.step2_matrix(U, 0.5, s=2, s0=1),
    "apply": lambda U: threshold.apply(U, 0.5, hard(3, 3, 2, 1)),
    "apply_heterogeneous": lambda U: threshold.apply_heterogeneous(
        U, 0.5, SparsityBudget.heterogeneous(3, 3, 2, 1)),
}


@pytest.mark.parametrize("name", sorted(PUBLIC_STAGES))
@pytest.mark.parametrize("case,at,value", NON_FINITE_U)
def test_public_stages_reject_a_non_finite_U(name, case, at, value):
    # a NaN fails every comparison, so without the check it would drop out
    # of the output as a zero; an infinity would pass straight through
    V = np.full((3, 3), 2.0)
    V[at] = value
    with pytest.raises(ValueError, match="^U must be finite"):
        PUBLIC_STAGES[name](GroupedMatrix(V))
    V[at] = 2.0
    PUBLIC_STAGES[name](GroupedMatrix(V))  # the same input, finite, passes


def test_matrix_stage_accepts_finite_entries_whose_squares_overflow():
    # the column sums of the first two columns overflow to inf, so finiteness
    # falls to a scan of every entry, which passes; the row cut at rank 3
    # then drops the 0.6 of the first column, and the last column, below
    # lam after stage 1, is not selected
    V = np.array([[1e200, 0.7, 0.1], [2.0, -1e200, 0.2], [1.0, 0.9, 0.3], [0.6, 0.0, 0.4]])
    kept = np.array([[1e200, 0.7, 0.0], [2.0, -1e200, 0.0], [1.0, 0.9, 0.0], [0.0, 0.0, 0.0]])
    budget = hard(3, 4, 2, 1)
    with np.errstate(over="ignore"):
        outcomes = [
            threshold.apply(GroupedMatrix(V), 0.5, budget),
            threshold.step2_matrix(threshold.step1_entrywise(GroupedMatrix(V), 0.5), 0.5, 2, 1),
        ]
        loose = threshold.apply_heterogeneous(
            GroupedMatrix(V), 0.5, SparsityBudget.heterogeneous(3, 4, 2, 1))
    for out in outcomes:
        assert out.result.values.tobytes() == kept.tobytes()
        assert out.row_cut == 3
        assert out.selected_mask.tolist() == [True, True, False]
    kept[3, 0] = 0.6  # no row condition
    assert loose.result.values.tobytes() == kept.tobytes()
    assert loose.row_cut == 4
