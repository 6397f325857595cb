import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from float_cases import EDGE_FLOATS, same_bits

from doublesparse.core import GroupedMatrix, NoiseModel, SparsityBudget, stream
from doublesparse import simulate
from doublesparse.simulate import (
    Constant,
    LeastFavorable,
    SignalSpec,
    UniformRange,
    gen_design,
    gen_glm,
    gen_regression,
    gen_signal,
    load_matrix_csv,
    save_matrix_csv,
)


def test_hard_signal_counts():
    budget = SparsityBudget.hard(10, 8, 3, 2)
    spec = SignalSpec(budget, Constant(1.5))
    theta = gen_signal(spec, stream(0))
    nz_per_col = np.count_nonzero(theta.values, axis=0)
    assert np.count_nonzero(nz_per_col) == 3
    assert set(nz_per_col[nz_per_col > 0]) == {2}
    assert np.all(np.abs(theta.values[theta.values != 0]) == 1.5)


def test_heterogeneous_signal_total_count():
    budget = SparsityBudget.heterogeneous(10, 8, 3, s_prime=7)
    spec = SignalSpec(budget, Constant(1.0))
    theta = gen_signal(spec, stream(1))
    assert np.count_nonzero(theta.values) == 7
    assert np.count_nonzero(np.any(theta.values != 0, axis=0)) == 3


def test_soft_least_favorable_exact_mass():
    budget = SparsityBudget.soft(6, 16, 2, q=0.5, rq=2.0)
    # rq / delta^q = 2 / 0.25^0.5 = 4 entries per column
    spec = SignalSpec(budget, LeastFavorable(0.25))
    theta = gen_signal(spec, stream(2))
    active = np.any(theta.values != 0, axis=0)
    for j in np.nonzero(active)[0]:
        col = theta.values[:, j]
        assert np.count_nonzero(col) == 4
        mass = np.sum(np.abs(col) ** 0.5)
        assert mass == pytest.approx(2.0, rel=1e-12)


def test_soft_least_favorable_infeasible_delta():
    budget = SparsityBudget.soft(6, 4, 2, q=0.5, rq=2.0)
    with pytest.raises(ValueError):
        # 2 / 0.01^0.5 = 20 entries > d = 4
        gen_signal(SignalSpec(budget, LeastFavorable(0.01)), stream(3))


def test_soft_least_favorable_random_signs_match_hand_draw():
    # the draw order: s sorted columns, then per column its rows and signs
    budget = SparsityBudget.soft(6, 16, 3, q=0.5, rq=2.0)
    theta = gen_signal(SignalSpec(budget, LeastFavorable(0.25), sign="random"), stream(8))
    rng = stream(8)
    expected = np.zeros((16, 6))
    for j in np.sort(rng.choice(6, size=3, replace=False)):
        rows = rng.choice(16, size=4, replace=False)
        expected[rows, j] = 0.25 * rng.choice([-1.0, 1.0], size=4)
    assert theta.values.tobytes() == expected.tobytes()
    assert {-0.25, 0.25} <= set(theta.values.ravel().tolist())


def test_soft_generic_column_meets_mass():
    budget = SparsityBudget.soft(5, 8, 2, q=1.0, rq=3.0)
    theta = gen_signal(SignalSpec(budget, UniformRange(0.5, 1.5)), stream(4))
    active = np.any(theta.values != 0, axis=0)
    for j in np.nonzero(active)[0]:
        assert np.sum(np.abs(theta.values[:, j])) == pytest.approx(3.0, rel=1e-12)


def test_signs():
    budget = SparsityBudget.hard(8, 8, 4, 4)
    pos = gen_signal(SignalSpec(budget, Constant(1.0), sign="positive"), stream(5))
    assert np.all(pos.values >= 0)
    rnd = gen_signal(SignalSpec(budget, Constant(1.0), sign="random"), stream(5))
    nz = rnd.values[rnd.values != 0]
    assert (nz > 0).any() and (nz < 0).any()
    with pytest.raises(ValueError):
        SignalSpec(budget, Constant(1.0), sign="sometimes")


def test_determinism_same_stream():
    budget = SparsityBudget.hard(8, 8, 2, 2)
    spec = SignalSpec(budget, UniformRange(0.5, 2.0), sign="random")
    a = gen_signal(spec, (7, 3))
    b = gen_signal(spec, (7, 3))
    assert np.array_equal(a.values, b.values)


def test_glm_noise_scale():
    theta = GroupedMatrix(np.zeros((30, 40)))
    noise = NoiseModel(2.0, 25)  # entry std 0.4
    Y = gen_glm(theta, noise, stream(8))
    z = Y.values.ravel()
    se = 0.4 / math.sqrt(z.size)
    assert abs(z.mean()) <= 3 * se
    assert z.std() == pytest.approx(0.4, rel=0.05)
    # distributional check, level 0.01
    assert stats.kstest(z / 0.4, "norm").pvalue > 0.01


def test_regression_noise_scale():
    rng = stream(9)
    X = gen_design(4000, 5, "gaussian_iid", rng)
    beta = np.zeros(5)
    y = gen_regression(X, beta, NoiseModel(1.5, 4000), rng)
    assert stats.kstest(y / 1.5, "norm").pvalue > 0.01


def test_design_column_norms_exact():
    for kind in ("identity_scaled", "gaussian_iid"):
        X = gen_design(50, 20, kind, stream(10))
        norms = np.linalg.norm(X, axis=0)
        assert np.allclose(norms, math.sqrt(50), rtol=1e-12, atol=0.0)


def test_identity_design_shape_guard():
    with pytest.raises(ValueError):
        gen_design(10, 20, "identity_scaled", stream(11))
    with pytest.raises(ValueError):
        gen_design(10, 5, "dct", stream(11))


def test_regression_shape_guard():
    X = gen_design(10, 4, "gaussian_iid", stream(12))
    with pytest.raises(ValueError):
        gen_regression(X, np.zeros(5), NoiseModel(1.0, 10), stream(12))


def test_matrix_csv_round_trip_bit_exact(tmp_path):
    rng = stream(13)
    arr = rng.normal(size=(7, 5)) * 1e-7
    path = tmp_path / "mat.csv"
    save_matrix_csv(path, arr)
    back = load_matrix_csv(path)
    assert np.array_equal(arr, back)


def test_matrix_csv_header_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# rows=2 cols=2\n1.0,2.0\n")
    with pytest.raises(ValueError):
        load_matrix_csv(path)


def test_inadmissible_signal_raises_under_optimize():
    # python -O strips assert statements; the admissibility check must not be one
    src = str(Path(simulate.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "from doublesparse import simulate\n"
        "from doublesparse.core import SparsityBudget, stream\n"
        "SparsityBudget.admits = lambda self, theta: False\n"
        "budget = SparsityBudget.hard(10, 8, 3, 2)\n"
        "simulate.gen_signal(simulate.SignalSpec(budget, simulate.Constant(1.0)), stream(0))\n"
    ) % src
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode != 0
    assert "outside its hard-mode budget" in proc.stderr


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_matrix_csv_round_trip_bits(rows, cols, data):
    values = data.draw(st.lists(EDGE_FLOATS, min_size=rows * cols, max_size=rows * cols))
    arr = np.array(values).reshape(rows, cols)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mat.csv"
        save_matrix_csv(path, arr)
        assert same_bits(load_matrix_csv(path), arr)
