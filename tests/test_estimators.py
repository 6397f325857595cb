import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doublesparse.core import (
    GroupedMatrix,
    NoiseModel,
    SparsityBudget,
    SupportSet,
    matrix_to_vec,
    stream,
    vec_to_matrix,
)
from doublesparse import core, estimators, simulate, threshold
from doublesparse.estimators import ThresholdSchedule


def test_default_lambda_inf_reference_value():
    val = estimators.default_lambda_inf(1.0, 100, 128, 16, 2, 2)
    assert val == pytest.approx(1.5045109615, abs=1e-9)


def test_default_lambda_inf_validation():
    with pytest.raises(ValueError):
        estimators.default_lambda_inf(1.0, 0, 10, 5, 1, 1)
    with pytest.raises(ValueError):
        estimators.default_lambda_inf(-1.0, 10, 10, 5, 1, 1)


def test_schedule_geometry():
    sched = ThresholdSchedule(2.0, 0.25, 0.1)
    assert sched.value_at(0) == 2.0
    assert sched.value_at(2) == pytest.approx(0.5)
    # one sqrt(kappa) factor per step
    assert sched.value_at(1) == pytest.approx(2.0 * 0.5)
    with pytest.raises(ValueError):
        ThresholdSchedule(0.0, 0.5, 0.1)
    with pytest.raises(ValueError):
        ThresholdSchedule(1.0, 1.5, 0.1)
    with pytest.raises(ValueError):
        ThresholdSchedule(1.0, 0.5, 0.0)


@pytest.mark.parametrize("field", ["lambda0", "lambda_inf"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_schedule_rejects_non_finite(field, bad):
    # nan would end a solve after 0 iterations and an infinite lambda0 would
    # never decay, so the constructor refuses both
    values = {"lambda0": 1.0, "kappa": 0.5, "lambda_inf": 0.1, field: bad}
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ThresholdSchedule(**values)


def test_iteration_count_matches_schedule_length():
    # number of gradient steps is the number of lambda values >= lambda_inf
    lam0, kappa, lam_inf = 1.0, 0.64, 0.3
    expected = 0
    lam = lam0
    while lam >= lam_inf:
        expected += 1
        lam *= math.sqrt(kappa)
    rng = stream(9)
    budget = SparsityBudget.hard(4, 4, 2, 2)
    X = simulate.gen_design(20, 16, "gaussian_iid", rng)
    Y = rng.normal(size=20)
    _, trace = estimators.dsiht(X, Y, budget, ThresholdSchedule(lam0, kappa, lam_inf))
    assert trace.iterations == expected


def test_noise_free_exact_recovery_orthogonal_design():
    rng = stream(10)
    budget = SparsityBudget.hard(6, 6, 2, 2)
    spec = simulate.SignalSpec(budget, simulate.Constant(1.0), sign="random")
    theta = simulate.gen_signal(spec, rng)
    beta = matrix_to_vec(theta)
    X = simulate.gen_design(36, 36, "identity_scaled", rng)
    Y = X @ beta
    sched = ThresholdSchedule(1.0, 0.8, 0.75)
    beta_hat, _ = estimators.dsiht(X, Y, budget, sched, truth=beta)
    assert np.linalg.norm(beta_hat - beta) <= 1e-12


def test_heterogeneous_noise_free_recovery():
    rng = stream(11)
    budget = SparsityBudget.heterogeneous(6, 6, 2, s_prime=3)
    spec = simulate.SignalSpec(budget, simulate.Constant(1.0), sign="random")
    theta = simulate.gen_signal(spec, rng)
    beta = matrix_to_vec(theta)
    X = simulate.gen_design(36, 36, "identity_scaled", rng)
    Y = X @ beta
    # a lone-entry column has squared mass 1; the column condition needs
    # s0 * lam^2 <= 1, so stop the schedule below 1/sqrt(s0)
    # s0*lam^2 <= 1 throughout, and at least two steps so the returned
    # second-to-last iterate is a post-threshold fixed point
    sched = ThresholdSchedule(0.5, 0.8, 0.4)
    beta_hat, _ = estimators.dsiht_heterogeneous(X, Y, budget, sched, truth=beta)
    assert np.linalg.norm(beta_hat - beta) <= 1e-12


def test_returned_estimate_is_second_to_last_iterate():
    rng = stream(12)
    budget = SparsityBudget.hard(4, 4, 1, 1)
    X = simulate.gen_design(16, 16, "identity_scaled", rng)
    beta = np.zeros(16)
    beta[5] = 2.0
    Y = X @ beta
    beta_hat, trace = estimators.dsiht(X, Y, budget, ThresholdSchedule(1.0, 0.5, 0.3))
    assert np.array_equal(beta_hat, trace.betas[-2])


def test_empty_schedule_warns_and_returns_start():
    rng = stream(13)
    budget = SparsityBudget.hard(4, 4, 1, 1)
    X = simulate.gen_design(16, 16, "identity_scaled", rng)
    Y = rng.normal(size=16)
    with pytest.warns(UserWarning):
        beta_hat, trace = estimators.dsiht(
            X, Y, budget, ThresholdSchedule(0.5, 0.5, 1.0)
        )
    assert trace.empty_schedule
    assert np.array_equal(beta_hat, np.zeros(16))


def test_unnormalized_design_rejected():
    budget = SparsityBudget.hard(4, 4, 1, 1)
    X = 2.0 * np.ones((8, 16))
    with pytest.raises(ValueError):
        estimators.dsiht(X, np.zeros(8), budget, ThresholdSchedule(1.0, 0.5, 0.5))


@pytest.mark.parametrize("solver,mode", [(estimators.dsiht, "hard"),
                                         (estimators.dsiht_heterogeneous, "heterogeneous")])
def test_overflowing_iterate_raises_floating_point_error(solver, mode):
    # finite inputs whose forward product overflows: the solver reports its
    # own iterate, before the threshold operator would reject a non-finite U
    rng = stream(16)
    budget = getattr(SparsityBudget, mode)(4, 4, 1, 1)
    X = simulate.gen_design(12, 16, "gaussian_iid", rng)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="solver iterate"):
            solver(X, np.zeros(12), budget, ThresholdSchedule(1.0, 0.5, 0.5),
                   beta0=np.full(16, 1.5e308))


@pytest.mark.parametrize("name", ["X", "Y", "beta0", "truth"])
def test_non_finite_input_rejected(name):
    rng = stream(15)
    budget = SparsityBudget.hard(4, 4, 1, 1)
    X = simulate.gen_design(12, 16, "gaussian_iid", rng)
    args = {"X": X, "Y": rng.normal(size=12), "beta0": np.zeros(16),
            "truth": np.zeros(16)}
    args[name] = args[name].copy()
    args[name][3] = np.nan
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        estimators.dsiht(
            args["X"], args["Y"], budget, ThresholdSchedule(1.0, 0.5, 0.5),
            beta0=args["beta0"], truth=args["truth"],
        )


@pytest.mark.parametrize(
    "solver",
    [lambda X, Y: estimators.default_lambda0(X, Y, 1, 1),
     lambda X, Y: estimators.iht_baseline(X, Y, 2, 3)],
    ids=["default_lambda0", "iht_baseline"],
)
@pytest.mark.parametrize(
    "bad, message",
    [
        (lambda X, Y: (X, np.where(np.arange(12) == 3, np.nan, Y)), "^Y must be finite"),
        (lambda X, Y: (X, Y[:-1]), r"^Y must have shape \(12,\)"),
        (lambda X, Y: (X, Y[:, None]), r"^Y must have shape \(12,\)"),
        (lambda X, Y: (X[:, 0], Y), "^X must be a 2-d"),
    ],
    ids=["nan-Y", "short-Y", "column-Y", "1-d-X"],
)
def test_data_driven_helpers_reject_bad_inputs(solver, bad, message):
    rng = stream(24)
    X = simulate.gen_design(12, 16, "gaussian_iid", rng)
    with pytest.raises(ValueError, match=message):
        solver(*bad(X, rng.normal(size=12)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_projection_rejects_non_finite(bad):
    values = stream(25).normal(size=(4, 5))
    values[2, 3] = bad
    with pytest.raises(ValueError, match="^Y must be finite"):
        estimators.project_double_sparse(GroupedMatrix(values), 2, 2)


def test_dense_start_matches_full_product_loop():
    rng = stream(16)
    budget = SparsityBudget.hard(8, 6, 2, 2)
    spec = simulate.SignalSpec(budget, simulate.Constant(2.0), sign="random")
    beta_star = matrix_to_vec(simulate.gen_signal(spec, rng))
    X = simulate.gen_design(400, 48, "gaussian_iid", rng)
    Y = simulate.gen_regression(X, beta_star, NoiseModel(0.5, 400), rng)
    beta0 = rng.normal(size=48)
    schedule = ThresholdSchedule(1.0, 0.7, 0.2)
    beta_hat, trace = estimators.dsiht(X, Y, budget, schedule, beta0=beta0)

    # the textbook loop: every gradient step uses the dense product X @ beta
    lam, beta, betas = schedule.lambda0, beta0, [beta0]
    while lam >= schedule.lambda_inf:
        U = vec_to_matrix(beta + X.T @ (Y - X @ beta) / 400, budget.m, budget.d)
        beta = matrix_to_vec(threshold.apply(U, lam, budget).result)
        lam = lam * math.sqrt(schedule.kappa)
        betas.append(beta)

    assert trace.iterations == len(betas) - 1 > 1
    # the first step, taken from the dense start, already keeps entries
    assert np.count_nonzero(betas[1]) > 0
    assert np.allclose(beta_hat, betas[-2], rtol=1e-12, atol=0.0)


def test_mode_mismatch_rejected():
    rng = stream(14)
    X = simulate.gen_design(16, 16, "identity_scaled", rng)
    Y = np.zeros(16)
    het = SparsityBudget.heterogeneous(4, 4, 2, s_prime=3)
    hard = SparsityBudget.hard(4, 4, 2, 2)
    sched = ThresholdSchedule(1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        estimators.dsiht(X, Y, het, sched)
    with pytest.raises(ValueError):
        estimators.dsiht_heterogeneous(X, Y, hard, sched)


def test_trace_bound_uses_correct_constants():
    assert estimators.HARD_CONTRACTION_CONSTANT == pytest.approx(2 + math.sqrt(3))
    assert estimators.HETEROGENEOUS_CONTRACTION_CONSTANT == pytest.approx(
        2 + math.sqrt(2)
    )


def test_projection_matches_bruteforce_small():
    rng = stream(15)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        m = int(rng.integers(2, 6))
        s = int(rng.integers(1, min(m, 2) + 1))
        s0 = int(rng.integers(1, min(d, 2) + 1))
        Y = GroupedMatrix(rng.normal(size=(d, m)))
        proj = estimators.project_double_sparse(Y, s, s0)
        brute = estimators.constrained_ls_bruteforce(
            Y, SparsityBudget.hard(m, d, s, s0)
        )
        obj_p = np.sum((proj.values - Y.values) ** 2)
        obj_b = np.sum((brute.values - Y.values) ** 2)
        assert abs(obj_p - obj_b) <= 1e-12


def test_projection_keeps_budget():
    rng = stream(16)
    Y = GroupedMatrix(rng.normal(size=(8, 10)))
    out = estimators.project_double_sparse(Y, 3, 2)
    nz_cols = np.count_nonzero(np.any(out.values != 0, axis=0))
    assert nz_cols <= 3
    assert np.all(np.count_nonzero(out.values, axis=0) <= 2)


def test_projection_tie_break_lower_index():
    Y = GroupedMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    out = estimators.project_double_sparse(Y, 1, 1)
    assert out.values[0, 0] == 1.0
    assert np.count_nonzero(out.values) == 1


def test_bruteforce_heterogeneous_beats_hard_projection():
    # signal with 3 entries in one column and 1 in another: the heterogeneous
    # budget (s=2, s_prime=4) captures all mass, hard (s=2, s0=2) cannot
    V = np.zeros((4, 4))
    V[0:3, 0] = 5.0
    V[0, 2] = 5.0
    Y = GroupedMatrix(V)
    het = estimators.constrained_ls_bruteforce(
        Y, SparsityBudget.heterogeneous(4, 4, 2, s_prime=4)
    )
    hard = estimators.constrained_ls_bruteforce(Y, SparsityBudget.hard(4, 4, 2, 2))
    err_het = np.sum((het.values - V) ** 2)
    err_hard = np.sum((hard.values - V) ** 2)
    assert err_het == 0.0
    assert err_hard > 0.0


def _bruteforce_hard_loop(V, s, s0):
    # scalar scan: first candidate with strictly larger captured energy wins
    d, m = V.shape
    sq = V * V
    row_subsets = list(combinations(range(d), s0))
    energy = {
        (j, r): float(sum(sq[i, j] for i in r)) for j in range(m) for r in row_subsets
    }
    best_gain, best = -1.0, None
    for cols in combinations(range(m), s):
        for rows_choice in product(row_subsets, repeat=s):
            gain = sum(energy[(j, r)] for j, r in zip(cols, rows_choice))
            if gain > best_gain:
                best_gain, best = gain, (cols, rows_choice)
    out = np.zeros_like(V)
    for j, r in zip(*best):
        for i in r:
            out[i, j] = V[i, j]
    return out


def test_bruteforce_hard_matches_scalar_scan_on_tie_grids():
    rng = stream(19)
    for _ in range(300):
        d = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        s = int(rng.integers(1, min(m, 3) + 1))
        s0 = int(rng.integers(1, min(d, 3) + 1))
        # few distinct magnitudes: most candidates tie with another
        V = rng.integers(-2, 3, size=(d, m)) * 0.5
        brute = estimators.constrained_ls_bruteforce(
            GroupedMatrix(V), SparsityBudget.hard(m, d, s, s0)
        )
        assert np.array_equal(brute.values, _bruteforce_hard_loop(V, s, s0))


def test_bruteforce_guard_raises():
    rng = stream(17)
    Y = GroupedMatrix(rng.normal(size=(20, 30)))
    with pytest.raises(ValueError):
        estimators.constrained_ls_bruteforce(Y, SparsityBudget.hard(30, 20, 10, 8))


def test_iht_baseline_recovers_simple_sparse():
    rng = stream(18)
    n, p, k = 100, 30, 3
    X = simulate.gen_design(n, p, "gaussian_iid", rng)
    beta = np.zeros(p)
    beta[[2, 11, 25]] = [1.0, -2.0, 1.5]
    Y = X @ beta
    beta_hat = estimators.iht_baseline(X, Y, k, steps=200)
    assert np.linalg.norm(beta_hat - beta) <= 1e-6


@pytest.mark.parametrize("steps", [-1, True, False, 2.0, "3", None])
def test_iht_baseline_rejects_steps_that_are_not_a_nonnegative_integer(steps):
    X = simulate.gen_design(20, 5, "gaussian_iid", stream(19))
    with pytest.raises(ValueError) as err:
        estimators.iht_baseline(X, np.ones(20), 2, steps)
    assert str(err.value) == f"steps must be a nonnegative integer, got {steps!r}"


def test_iht_baseline_takes_zero_or_numpy_integer_steps():
    rng = stream(19)
    X = simulate.gen_design(20, 5, "gaussian_iid", rng)
    Y = rng.normal(size=20)
    assert not estimators.iht_baseline(X, Y, 2, 0).any()
    assert np.array_equal(estimators.iht_baseline(X, Y, 2, np.int64(7)),
                          estimators.iht_baseline(X, Y, 2, 7))


def test_iht_baseline_full_k_is_untruncated_descent():
    rng = stream(19)
    X = simulate.gen_design(20, 5, "gaussian_iid", rng)
    Y = rng.normal(size=20)
    out = estimators.iht_baseline(X, Y, k=5, steps=500)
    lsq = np.linalg.lstsq(X, Y, rcond=None)[0]
    assert np.allclose(out, lsq, atol=1e-8)


def test_default_lambda0_zero_start_dominates_signal():
    rng = stream(20)
    budget = SparsityBudget.hard(5, 5, 2, 2)
    spec = simulate.SignalSpec(budget, simulate.Constant(2.0), sign="random")
    theta = simulate.gen_signal(spec, rng)
    beta = matrix_to_vec(theta)
    X = simulate.gen_design(25, 25, "identity_scaled", rng)
    Y = X @ beta
    lam0 = estimators.default_lambda0(X, Y, 2, 2)
    # ||X^T Y / n|| = ||beta|| = 2*sqrt(s*s0) here, so lam0 equals the magnitude
    assert lam0 == pytest.approx(2.0, rel=1e-12)


def test_list_inputs_match_arrays():
    rng = stream(21)
    budget = SparsityBudget.hard(4, 3, 2, 1)
    X = simulate.gen_design(30, 12, "gaussian_iid", rng)
    Y = rng.normal(size=30)
    beta0 = rng.normal(size=12)
    schedule = ThresholdSchedule(2.0, 0.6, 0.2)
    lam0 = estimators.default_lambda0(X, Y, 2, 1)
    assert estimators.default_lambda0(X.tolist(), Y.tolist(), 2, 1) == lam0
    for solver, b in ((estimators.dsiht, budget),
                      (estimators.dsiht_heterogeneous,
                       SparsityBudget.heterogeneous(4, 3, 2, 2, s0=1))):
        for start in (None, beta0):
            want, trace = solver(X, Y, b, schedule, beta0=start, truth=beta0)
            got, trace_l = solver(
                X.tolist(), Y.tolist(), b, schedule,
                beta0=None if start is None else start.tolist(),
                truth=beta0.tolist(),
            )
            assert np.array_equal(got, want)
            assert trace_l.errors == trace.errors


@pytest.mark.parametrize(
    "name, bad",
    [
        ("X", lambda X, Y, b: (X[:, 0], Y, b)),
        ("X", lambda X, Y, b: (X[:, :-1], Y, b)),
        ("Y", lambda X, Y, b: (X, Y[:, None], b)),
        ("Y", lambda X, Y, b: (X, Y[:-1], b)),
        ("beta0", lambda X, Y, b: (X, Y, b[None, :])),
    ],
)
def test_bad_shapes_name_the_argument(name, bad):
    rng = stream(22)
    budget = SparsityBudget.hard(4, 4, 1, 1)
    X = simulate.gen_design(12, 16, "gaussian_iid", rng)
    X, Y, beta0 = bad(X, rng.normal(size=12), np.zeros(16))
    with pytest.raises(ValueError, match=f"^{name} must"):
        estimators.dsiht(X, Y, budget, ThresholdSchedule(1.0, 0.5, 0.5), beta0=beta0)


def test_bad_truth_shape_names_truth():
    rng = stream(23)
    budget = SparsityBudget.hard(4, 4, 1, 1)
    X = simulate.gen_design(12, 16, "gaussian_iid", rng)
    with pytest.raises(ValueError, match="^truth must"):
        estimators.dsiht(X, rng.normal(size=12), budget,
                         ThresholdSchedule(1.0, 0.5, 0.5), truth=np.zeros((4, 4)))


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def reference_dsiht(X, Y, budget, schedule, beta0, truth):
    """Textbook DSIHT with its full trace: every step recomputes the gradient
    step beta + X^T (Y - X beta) / n from the current iterate.

    X beta is written as the solver rounds it: the dense product for the
    start, the product over the support for a threshold output (the two
    differ in the last bits)."""
    het = budget.mode == "heterogeneous"
    operator = threshold.apply_heterogeneous if het else threshold.apply
    constant = (estimators.HETEROGENEOUS_CONTRACTION_CONSTANT if het
                else estimators.HARD_CONTRACTION_CONSTANT)
    n = X.shape[0]
    tr = {"betas": [], "lambdas": [], "errors": [], "excess_sizes": [],
          "excess_admissible": [], "bound_held": []}

    def record(beta, lam):
        tr["betas"].append(beta)
        tr["lambdas"].append(lam)
        if truth is None:
            return
        diff = beta - truth
        err = math.sqrt(np.einsum("i,i->", diff, diff))
        tr["errors"].append(err)
        excess = ((beta != 0) & (truth == 0)).reshape(budget.d, budget.m, order="F")
        per_col = excess.sum(axis=0)
        cols = int(np.count_nonzero(per_col))
        tr["excess_sizes"].append(int(per_col.sum()))
        if het:
            tr["excess_admissible"].append(
                cols <= budget.s and per_col.sum() <= budget.s_prime)
        else:
            tr["excess_admissible"].append(
                cols <= budget.s and bool(np.all(per_col <= budget.s0)))
        tr["bound_held"].append(
            err <= constant * math.sqrt(budget.s * budget.s0) * lam)

    beta = np.zeros(budget.p) if beta0 is None else beta0
    lam = schedule.lambda0
    record(beta, lam)
    fit = X @ beta
    while lam >= schedule.lambda_inf:
        U = vec_to_matrix(beta + X.T @ (Y - fit) / n, budget.m, budget.d)
        beta = matrix_to_vec(operator(U, lam, budget).result)
        nz = np.flatnonzero(beta)
        fit = X[:, nz] @ beta[nz]
        lam = lam * math.sqrt(schedule.kappa)
        record(beta, lam)
    return tr


@st.composite
def solve_cases(draw):
    """A small regression problem, a schedule whose lambda0 may sit far above
    the signal (a long zero phase), a start (default, +0.0, -0.0 or dense with
    -0.0 entries), with or without the truth, for either solver."""
    m, d = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    s, s0 = draw(st.integers(1, m)), draw(st.integers(1, d))
    # n >= p; the unit-step iteration can still diverge on designs this small
    n = draw(st.integers(m * d, 3 * m * d + 4))
    rng = stream(draw(st.integers(0, 2**32 - 1)))
    hard = SparsityBudget.hard(m, d, s, s0)
    magnitude = draw(st.sampled_from([0.3, 1.0, 3.0]))
    spec = simulate.SignalSpec(hard, simulate.Constant(magnitude), sign="random")
    truth = matrix_to_vec(simulate.gen_signal(spec, rng))
    X = simulate.gen_design(n, m * d, "gaussian_iid", rng)
    sigma = draw(st.sampled_from([0.0, 0.5]))
    Y = simulate.gen_regression(X, truth, NoiseModel(sigma, n), rng)
    lam0 = estimators.default_lambda0(X, Y, s, s0)
    lam0 *= draw(st.sampled_from([1.0, 4.0, 30.0]))
    kappa = draw(st.sampled_from([0.5, 0.8]))
    lam_inf = lam0 * draw(st.sampled_from([0.01, 0.05, 0.3]))
    schedule = ThresholdSchedule(lam0, kappa, lam_inf)
    start = draw(st.sampled_from(["default", "zero", "negzero", "dense"]))
    beta0 = {
        "default": None,
        "zero": np.zeros(m * d),
        "negzero": np.full(m * d, -0.0),
        "dense": np.where(rng.random(m * d) < 0.3, -0.0, rng.normal(size=m * d)),
    }[start]
    if draw(st.booleans()):
        s_prime = draw(st.integers(1, s * d))
        budget = SparsityBudget.heterogeneous(m, d, s, s_prime, s0=s0)
    else:
        budget = hard
    return X, Y, budget, schedule, beta0, truth if draw(st.booleans()) else None


def _leading_zero_steps(betas):
    return next((t for t, b in enumerate(betas[1:]) if np.any(b)), len(betas) - 1)


def test_gradient_reuse_matches_reference_loop():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(solve_cases())
    def check(case):
        X, Y, budget, schedule, beta0, truth = case
        solver = (estimators.dsiht_heterogeneous if budget.mode == "heterogeneous"
                  else estimators.dsiht)
        beta_hat, trace = solver(X, Y, budget, schedule, beta0=beta0, truth=truth)
        ref = reference_dsiht(X, Y, budget, schedule, beta0, truth)

        assert [_bits(b) for b in trace.betas] == [_bits(b) for b in ref["betas"]]
        assert _bits(trace.lambdas) == _bits(ref["lambdas"])
        assert _bits(beta_hat) == _bits(ref["betas"][-2])
        if truth is None:
            assert trace.errors is None and trace.bound_held is None
        else:
            assert _bits(trace.errors) == _bits(ref["errors"])
            for key in ("excess_sizes", "excess_admissible", "bound_held"):
                assert getattr(trace, key) == ref[key], key
            seen.add("truth")

        steps = [_bits(b) for b in trace.betas[:-1]]
        if _leading_zero_steps(trace.betas) >= 5:
            seen.add("long zero phase")
        if any(a == b and any(np.frombuffer(a)) for a, b in zip(steps, steps[1:])):
            seen.add("nonzero iterate stands still")
        seen.add(budget.mode)
        if beta0 is not None and np.any(beta0) and np.signbit(beta0).any():
            seen.add("dense start with -0.0")

    check()
    assert seen == {"truth", "long zero phase", "nonzero iterate stands still",
                    "hard", "heterogeneous", "dense start with -0.0"}


def test_solver_loop_builds_no_support_sets(monkeypatch):
    # the loop reads masks: with core's support helpers made to raise, both
    # solvers still finish with the same trace
    rng = stream(31)
    n, m, d, s, s0 = 120, 12, 10, 3, 2
    hard = SparsityBudget.hard(m, d, s, s0)
    spec = simulate.SignalSpec(hard, simulate.Constant(1.0), sign="random")
    truth = matrix_to_vec(simulate.gen_signal(spec, rng))
    X = simulate.gen_design(n, m * d, "gaussian_iid", rng)
    Y = simulate.gen_regression(X, truth, NoiseModel(0.3, n), rng)
    # lambda_inf low enough that noise enters: the excess support grows past
    # the budget late in the run
    schedule = ThresholdSchedule(4 * estimators.default_lambda0(X, Y, s, s0), 0.8, 0.02)
    het = SparsityBudget.heterogeneous(m, d, s, s * s0 + 1, s0=s0)

    def solve_both():
        return [estimators.dsiht(X, Y, hard, schedule, truth=truth),
                estimators.dsiht_heterogeneous(X, Y, het, schedule, truth=truth)]

    unpatched = solve_both()

    def refuse(*args, **kwargs):
        raise AssertionError("a support helper was called")

    monkeypatch.setattr(estimators, "support_of", refuse)
    monkeypatch.setattr(estimators, "excess_support", refuse)
    monkeypatch.setattr(core, "support_of", refuse)
    for (beta_hat, trace), (ref_hat, ref) in zip(solve_both(), unpatched):
        assert _bits(beta_hat) == _bits(ref_hat)
        assert [_bits(b) for b in trace.betas] == [_bits(b) for b in ref.betas]
        assert _bits(trace.lambdas) == _bits(ref.lambdas)
        assert _bits(trace.errors) == _bits(ref.errors)
        for key in ("excess_sizes", "excess_admissible", "bound_held"):
            assert getattr(trace, key) == getattr(ref, key), key
        assert set(trace.excess_admissible) == {True, False}


@pytest.mark.parametrize("mode", ["hard", "heterogeneous"])
def test_standing_iterate_keeps_its_trace_fields(mode):
    # with X = sqrt(n) [I; 0] the gradient step is the same matrix V at every
    # iterate, so the iterate stands still between the lambdas that cross an
    # entry of V. Two off-truth entries share column 1: once both enter, the
    # excess support is outside the budget while the iterate stands
    m, d, n = 3, 4, 12
    V = np.zeros((d, m))
    V[0, 0], V[1, 1], V[2, 1] = 3.0, 2.0, -2.0
    truth = np.zeros(m * d)
    truth[0] = 3.0
    X = simulate.gen_design(n, m * d, "identity_scaled", 0)
    Y = X @ V.ravel(order="F")
    if mode == "hard":
        budget, solver = SparsityBudget.hard(m, d, 2, 1), estimators.dsiht
    else:
        budget = SparsityBudget.heterogeneous(m, d, 1, 1, s0=1)
        solver = estimators.dsiht_heterogeneous
    _, trace = solver(X, Y, budget, ThresholdSchedule(4.0, 0.8, 0.5), truth=truth)

    standing_outside = 0
    for t, beta in enumerate(trace.betas):
        rows, cols = np.nonzero(beta.reshape((d, m), order="F"))
        excess = SupportSet(frozenset(zip(rows.tolist(), cols.tolist())) - {(0, 0)})
        fits = (excess.in_hard_class(budget.s, budget.s0) if mode == "hard"
                else excess.in_heterogeneous_class(budget.s, budget.s_prime))
        err = float(np.linalg.norm(beta - truth))
        assert (trace.errors[t], trace.excess_sizes[t], trace.excess_admissible[t]) == (
            err, len(excess), fits)
        bound = trace.bound_constant * math.sqrt(budget.s * budget.s0) * trace.lambdas[t]
        assert trace.bound_held[t] == (err <= bound)
        if t and _bits(beta) == _bits(trace.betas[t - 1]) and not fits:
            standing_outside += 1
    assert standing_outside >= 2


class CountingDesign(np.ndarray):
    """An ndarray that logs the result shape of every np.matmul it enters."""

    log: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = tuple(
            x.view(np.ndarray) if isinstance(x, CountingDesign) else x
            for x in inputs
        )
        result = getattr(ufunc, method)(*inputs, **kwargs)
        if ufunc is np.matmul:
            CountingDesign.log.append(np.shape(result))
        return result


@pytest.mark.parametrize("solver", ["dsiht", "dsiht_heterogeneous"])
@pytest.mark.parametrize("start", ["default", "negzero", "dense"])
def test_one_backward_product_per_distinct_iterate(solver, start):
    rng = stream(24)
    n, m, d, s, s0 = 60, 8, 5, 2, 2
    hard = SparsityBudget.hard(m, d, s, s0)
    spec = simulate.SignalSpec(hard, simulate.Constant(1.0), sign="random")
    truth = matrix_to_vec(simulate.gen_signal(spec, rng))
    X = simulate.gen_design(n, m * d, "gaussian_iid", rng)
    Y = simulate.gen_regression(X, truth, NoiseModel(0.3, n), rng)
    # lambda0 far above the signal: a zero phase of several iterations
    lam0 = 10 * estimators.default_lambda0(X, Y, s, s0)
    schedule = ThresholdSchedule(lam0, 0.7, 0.05)
    if solver == "dsiht":
        budget = hard
    else:
        budget = SparsityBudget.heterogeneous(m, d, s, s * s0, s0=s0)
    beta0 = {"default": None, "negzero": np.full(m * d, -0.0),
             "dense": rng.normal(size=m * d)}[start]

    CountingDesign.log = []
    _, trace = getattr(estimators, solver)(
        X.view(CountingDesign), Y, budget, schedule, beta0=beta0
    )
    backward = CountingDesign.log.count((m * d,))
    forward = CountingDesign.log.count((n,))
    assert backward + forward == len(CountingDesign.log)

    # a gradient step is taken at beta_0 .. beta_{T-1}; a run of bit-equal
    # iterates is one distinct iterate (-0.0 and +0.0 are distinct)
    steps = [_bits(b) for b in trace.betas]
    changes = [a != b for a, b in zip(steps, steps[1:])]
    assert backward == 1 + sum(changes[:-1]) < trace.iterations
    assert changes[0] == (start != "default")
    # a forward product for every change, plus the dense start's
    assert forward == sum(changes) + (start == "dense")
