import json
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doublesparse import harness, simulate
from doublesparse.core import NoiseModel, SparsityBudget, stream
from doublesparse.harness import Cell, emit, read_records, run_cell, run_sweep

from float_cases import EDGE_FLOATS, same_bits


def small_grid():
    return [Cell(m=6, d=6, s=2, s0=2, n=n, sigma=1.0) for n in (50, 100, 200)]


def test_run_cell_deterministic():
    cell = Cell(m=6, d=6, s=2, s0=2, n=80, sigma=0.5)
    a = run_cell(cell, 4, "dsiht", seed=3, cell_index=1)
    b = run_cell(cell, 4, "dsiht", seed=3, cell_index=1)
    for ra, rb in zip(a, b):
        assert ra.sq_error == rb.sq_error
        assert ra.lambda0 == rb.lambda0
    c = run_cell(cell, 4, "dsiht", seed=4, cell_index=1)
    assert any(ra.sq_error != rc.sq_error for ra, rc in zip(a, c))


def test_records_independent_of_parallelism():
    grid = small_grid()
    r1, _ = run_sweep(grid, 3, "dsiht", seed=5, jobs=1)
    r8, _ = run_sweep(grid, 3, "dsiht", seed=5, jobs=8)
    for a, b in zip(r1, r8):
        assert a.sq_error == b.sq_error
        assert (a.cell_index, a.replicate) == (b.cell_index, b.replicate)


def test_emit_csv_byte_identical(tmp_path):
    grid = small_grid()
    r1, _ = run_sweep(grid, 3, "dsiht", seed=5, jobs=1)
    r8, _ = run_sweep(grid, 3, "dsiht", seed=5, jobs=8)
    p1, p8 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(r1, p1)
    emit(r8, p8)
    assert p1.read_bytes() == p8.read_bytes()


def test_emit_round_trip_lossless(tmp_path):
    records, _ = run_sweep(small_grid(), 2, "dsiht", seed=6, jobs=1)
    for fmt in ("csv", "json"):
        path = tmp_path / f"rec.{fmt}"
        emit(records, path, fmt=fmt)
        back = read_records(path, fmt=fmt)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.sq_error == b.sq_error  # bit-exact float round trip
            assert a.lambda0 == b.lambda0
            assert a.bound_flag == b.bound_flag


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:2] + [lines[2] + ",1"] + lines[3:],
     r"line 3, column 'rate_value': 22 values for 21 columns"),
    (lambda lines: lines[:2] + [lines[2].rpartition(",")[0]] + lines[3:],
     r"line 3, column 'rate_value': 20 values for 21 columns"),
    (lambda lines: [lines[0].replace("seed", "sead")] + lines[1:],
     r"line 2, column 'sead': not a record column"),
])
def test_read_records_rejects_a_malformed_csv_row(tmp_path, edit, message):
    path = tmp_path / "rec.csv"
    emit(run_cell(small_grid()[0], 2, "dsiht", seed=6), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=f"rec.csv, {message}"):
        read_records(path)


def test_read_records_names_the_column_of_an_unreadable_value(tmp_path):
    path = tmp_path / "rec.json"
    emit(run_cell(small_grid()[0], 1, "dsiht", seed=6), path, fmt="json")
    row = json.loads(path.read_text())
    path.write_text(json.dumps({**row, "sq_error": "many"}) + "\n")
    with pytest.raises(ValueError, match="rec.json, line 1, column 'sq_error'"):
        read_records(path, fmt="json")


def _emit_edited(path, fmt, edit):
    """Emit one record to ``path``, its columns passed through ``edit``, a
    function of the dict from column to value."""
    emit(run_cell(small_grid()[0], 1, "dsiht", seed=6), path, fmt=fmt)
    if fmt == "json":
        path.write_text(json.dumps(edit(json.loads(path.read_text()))) + "\n")
    else:
        header, values = (line.split(",") for line in path.read_text().splitlines())
        row = edit(dict(zip(header, values)))
        path.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")


@pytest.mark.parametrize("fmt, line", [("csv", 2), ("json", 1)])
@pytest.mark.parametrize("column", ["bound_flag", "excess_flag"])
def test_read_records_accepts_only_true_false_or_empty_in_a_flag(tmp_path, fmt, line, column):
    path = tmp_path / f"rec.{fmt}"
    _emit_edited(path, fmt, lambda row: {**row, column: "yes"})
    with pytest.raises(ValueError, match=f"rec.{fmt}, line {line}, column '{column}': "
                                         "expected true, false or an empty value"):
        read_records(path, fmt=fmt)
    _emit_edited(path, fmt, lambda row: {**row, column: ""})
    assert getattr(read_records(path, fmt=fmt)[0], column) is None


@pytest.mark.parametrize("fmt, line", [("csv", 2), ("json", 1)])
def test_read_records_names_a_missing_column(tmp_path, fmt, line):
    path = tmp_path / f"rec.{fmt}"
    _emit_edited(path, fmt, lambda row: {k: v for k, v in row.items() if k != "seed"})
    with pytest.raises(ValueError, match=f"rec.{fmt}, line {line}, column 'seed': missing"):
        read_records(path, fmt=fmt)


def test_record_csv_header(tmp_path):
    path = tmp_path / "rec.csv"
    emit(run_cell(small_grid()[0], 1, "dsiht", seed=6), path)
    assert path.read_text().splitlines()[0] == (
        "estimator,cell_index,replicate,seed,m,d,s,s0,n,sigma,q,rq,kappa,"
        "lambda0,lambda_inf,design,sq_error,iterations,bound_flag,excess_flag,"
        "rate_value"
    )


def test_emit_include_timing(tmp_path):
    records, _ = run_sweep(small_grid()[:1], 1, "dsiht", seed=6, jobs=1)
    path = tmp_path / "t.csv"
    emit(records, path, include_timing=True)
    assert "wall_time_s" in path.read_text().splitlines()[0]


def test_noiseless_cell_recovers_exactly():
    cell = Cell(m=6, d=6, s=2, s0=2, n=40, sigma=0.0, design="identity")
    records = run_cell(cell, 5, "dsiht", seed=7)
    for rec in records:
        assert rec.sq_error <= 1e-10


def test_projection_glm_requires_identity_design():
    cell = Cell(m=6, d=6, s=2, s0=2, n=40, sigma=1.0, design="gaussian_iid")
    with pytest.raises(ValueError):
        run_cell(cell, 1, "projection_glm", seed=0)


def test_unknown_estimator_rejected():
    cell = Cell(m=6, d=6, s=2, s0=2, n=40, sigma=1.0)
    with pytest.raises(ValueError):
        run_cell(cell, 1, "lasso", seed=0)


def test_summary_slope_requires_three_rates():
    grid = [Cell(m=6, d=6, s=2, s0=2, n=100, sigma=1.0)] * 2
    _, summary = run_sweep(grid, 2, "projection_glm", seed=8, jobs=1)
    assert summary.slope is None
    _, summary3 = run_sweep(small_grid(), 2, "projection_glm", seed=8, jobs=1)
    assert summary3.slope is not None


@pytest.mark.parametrize("q,rq", [(0.5, 1.0), (0.5, None), (None, 1.0)])
@pytest.mark.parametrize("estimator", ["dsiht", "projection_glm"])
def test_soft_signal_cell_rejected(q, rq, estimator):
    cell = Cell(m=6, d=6, s=2, s0=2, n=40, sigma=1.0, q=q, rq=rq, design="identity")
    with pytest.raises(ValueError, match="soft-signal replicates are not supported"):
        harness.run_one(cell, 0, 0, estimator, seed=0)


def test_iht_baseline_estimator_runs():
    cell = Cell(m=6, d=6, s=2, s0=2, n=80, sigma=0.5)
    rec = run_cell(cell, 1, "iht_baseline", seed=9)[0]
    assert rec.bound_flag is None
    assert np.isfinite(rec.sq_error)


def test_heterogeneous_estimator_runs():
    cell = Cell(m=6, d=6, s=2, s0=2, n=80, sigma=0.5)
    rec = run_cell(cell, 1, "dsiht_heterogeneous", seed=10)[0]
    assert np.isfinite(rec.sq_error)


def _cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "doublesparse.harness", *args],
        capture_output=True, text=True,
    )
    return proc


def test_cli_rates():
    proc = _cli("rates", "--m", "8", "--d", "16", "--s", "2", "--s0", "2",
                "--n", "100", "--sigma", "1.0")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["hard"]["total"] == pytest.approx(0.1709, abs=5e-4)


def test_cli_module_run_prints_no_warning():
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "doublesparse.harness", "rates",
         "--m", "8", "--d", "16", "--s", "2", "--s0", "2", "--n", "100"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_lazy_harness_names():
    code = (
        "import sys, doublesparse\n"
        "assert 'doublesparse.harness' not in sys.modules\n"
        "from doublesparse import harness\n"
        "assert doublesparse.run_sweep is harness.run_sweep\n"
        "assert doublesparse.Cell is harness.Cell\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_cli_soft_class_rejected_by_sweep_kept_by_rates(tmp_path):
    args = ("--m", "6", "--d", "6", "--s", "2", "--s0", "2", "--n", "50",
            "--sigma", "1.0", "--q", "0.5", "--rq", "1.0")
    sweep = _cli("sweep", "--replicates", "2", *args)
    assert sweep.returncode == 1
    assert "soft-signal replicates are not supported" in sweep.stderr
    generate = _cli("generate", "--out", str(tmp_path / "soft"), *args)
    assert generate.returncode == 1
    assert "soft-signal replicates are not supported" in generate.stderr
    assert not any(tmp_path.iterdir())
    rates = _cli("rates", *args)
    assert rates.returncode == 0
    assert json.loads(rates.stdout)["soft"]["total"] > 0


def test_cli_solve_and_exit_codes(tmp_path):
    ok = _cli("solve", "--estimator", "dsiht", "--m", "6", "--d", "6",
              "--s", "2", "--s0", "2", "--n", "60", "--sigma", "0.5", "--seed", "2")
    assert ok.returncode == 0
    bad = _cli("solve", "--estimator", "projection_glm",
               "--design", "gaussian_iid", "--m", "4", "--d", "4",
               "--s", "1", "--s0", "1", "--n", "20", "--sigma", "1.0")
    assert bad.returncode == 1


def test_cli_sweep_with_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 6\nd = 6\ns = 2\ns0 = 2\nsigma = 1.0\nreplicates = 2\n")
    out = tmp_path / "sweep.csv"
    proc = _cli("sweep", "--config", str(cfg), "--n", "50,100",
                "--out", str(out), "--seed", "3")
    assert proc.returncode == 0
    assert out.exists()
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 1 + 2 * 2  # header + 2 cells x 2 replicates
    # a flag overrides the config value
    proc2 = _cli("sweep", "--config", str(cfg), "--n", "50,100",
                 "--replicates", "3", "--out", str(out), "--seed", "3")
    assert proc2.returncode == 0
    assert len(out.read_text().strip().splitlines()) == 1 + 2 * 3
    # a key no option of the subcommand takes is an error, not ignored
    typo = tmp_path / "typo.cfg"
    typo.write_text("sigmaa = 3\n")
    proc3 = _cli("rates", "--config", str(typo))
    assert proc3.returncode == 1
    assert "sigmaa" in proc3.stderr


def test_cli_generate(tmp_path):
    prefix = tmp_path / "data"
    proc = _cli("generate", "--model", "glm", "--m", "6", "--d", "6",
                "--s", "2", "--s0", "2", "--n", "50", "--sigma", "1.0",
                "--out", str(prefix))
    assert proc.returncode == 0
    assert (tmp_path / "data_theta.csv").exists()
    assert (tmp_path / "data_y.csv").exists()


@pytest.mark.parametrize("design,kind", [
    ("identity", "identity_scaled"), ("gaussian_iid", "gaussian_iid"),
])
def test_cli_generate_regression_matches_hand_draw(tmp_path, design, kind):
    m, d, s, s0, n, sigma, magnitude, seed = 6, 5, 2, 2, 40, 0.7, 1.5, 19
    prefix = tmp_path / "data"
    proc = _cli("generate", "--model", "regression", "--design", design,
                "--m", str(m), "--d", str(d), "--s", str(s), "--s0", str(s0),
                "--n", str(n), "--sigma", str(sigma), "--magnitude", str(magnitude),
                "--seed", str(seed), "--out", str(prefix))
    assert proc.returncode == 0, proc.stderr
    # signal, then design, then response, all from one stream
    rng = stream(seed)
    budget = SparsityBudget.hard(m, d, s, s0)
    spec = simulate.SignalSpec(budget, simulate.Constant(magnitude), sign="random")
    theta = simulate.gen_signal(spec, rng).values
    X = simulate.gen_design(n, m * d, kind, rng)
    y = simulate.gen_regression(
        X, theta.reshape(-1, order="F"), NoiseModel(sigma, n), rng
    )
    for suffix, want in (("theta", theta), ("X", X), ("y", y[None, :])):
        got = simulate.load_matrix_csv(tmp_path / f"data_{suffix}.csv")
        assert got.shape == want.shape, suffix
        assert got.tobytes() == want.tobytes(), suffix


@pytest.mark.parametrize("flag,value", [("--n", "50,100"), ("--m", "6,8")])
def test_cli_solve_rejects_a_list(flag, value):
    args = {"--m": "6", "--d": "6", "--s": "2", "--s0": "2", "--n": "50"}
    args[flag] = value
    proc = _cli("solve", *[x for kv in args.items() for x in kv])
    assert proc.returncode == 1
    assert flag in proc.stderr


@pytest.mark.parametrize("arg,replicates,jobs", [
    ("replicates", 0, 1), ("replicates", -2, 1), ("jobs", 3, 0), ("jobs", 3, -1),
])
def test_run_sweep_rejects_no_replicates_or_workers(arg, replicates, jobs):
    with pytest.raises(ValueError, match=f"^{arg} must be at least 1"):
        run_sweep(small_grid(), replicates, "dsiht", seed=1, jobs=jobs)


CELL_FLAGS = ["--m", "6", "--d", "6", "--s", "2", "--s0", "2", "--sigma", "1.0"]


@pytest.mark.parametrize("flag", ["--replicates", "--jobs"])
def test_cli_sweep_rejects_zero_replicates_or_jobs(capsys, flag):
    argv = ["sweep", *CELL_FLAGS, "--n", "50,100", "--replicates", "2", flag, "0"]
    assert harness.main(argv) == 1
    assert f"{flag[2:]} must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value,message",
    [("--n", "0", "n must be at least 1, got 0"),
     ("--sigma", "nan", "sigma must be finite and nonnegative, got nan"),
     ("--sigma", "-1", "sigma must be finite and nonnegative, got -1.0")],
)
def test_cli_rates_rejects_bad_noise_inputs(capsys, flag, value, message):
    argv = ["rates", "--m", "4", "--d", "4", "--s", "2", "--s0", "2", "--n", "10",
            "--sigma", "0.5", flag, value]
    assert harness.main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "flag,field", [("--lambda0", "lambda0"), ("--lambda-inf", "lambda_inf")]
)
def test_cli_solve_rejects_non_finite_threshold(capsys, flag, field):
    # nan, not inf: an unchecked infinite lambda0 would never stop iterating
    assert harness.main(["solve", *CELL_FLAGS, "--n", "50", flag, "nan"]) == 1
    assert f"{field} must be finite" in capsys.readouterr().err


def test_cli_dsrip_and_packing(tmp_path):
    proc = _cli("dsrip", "--design", "identity", "--m", "4", "--d", "4",
                "--s", "1", "--s0", "1", "--n", "16")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["delta_s"] == 0.0
    out = tmp_path / "codebook.txt"
    proc2 = _cli("packing", "--m", "5", "--d", "4", "--s", "2", "--s0", "2",
                 "--out", str(out))
    assert proc2.returncode == 0
    assert json.loads(proc2.stdout)["min_pairwise_hamming"] >= 1
    assert out.exists()


# the shared flags each subcommand does not read
UNREAD_FLAGS = {
    "generate": ["--kappa", "--lambda0", "--lambda-inf"],
    "dsrip": ["--sigma", "--q", "--rq", "--kappa", "--lambda0", "--lambda-inf"],
    "packing": ["--seed", "--n", "--sigma", "--q", "--rq", "--kappa", "--lambda0",
                "--lambda-inf"],
    "rates": ["--seed", "--kappa", "--lambda0", "--lambda-inf"],
}


@pytest.mark.parametrize(
    "command,flag", [(c, f) for c, flags in UNREAD_FLAGS.items() for f in flags]
)
def test_cli_rejects_a_flag_the_subcommand_does_not_read(capsys, tmp_path, command, flag):
    argv = [command, "--m", "4", "--d", "4", "--s", "1", "--s0", "1", flag, "1"]
    if command == "generate":
        argv += ["--out", str(tmp_path / "data")]
    assert harness.main(argv) == 1
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


FLOAT_FIELDS = ("sigma", "kappa", "sq_error", "rate_value")
OPTIONAL_FLOAT_FIELDS = ("q", "rq", "lambda0", "lambda_inf")


@st.composite
def records(draw):
    floats = {f: draw(EDGE_FLOATS) for f in FLOAT_FIELDS}
    optional = {f: draw(st.none() | EDGE_FLOATS) for f in OPTIONAL_FLOAT_FIELDS}
    flags = {f: draw(st.sampled_from([None, True, False]))
             for f in ("bound_flag", "excess_flag")}
    return harness.ExperimentRecord(
        estimator="dsiht", cell_index=draw(st.integers(0, 9)),
        replicate=draw(st.integers(0, 99)), seed=draw(st.integers(0, 2**31)),
        m=4, d=3, s=2, s0=1, n=50, design="gaussian_iid", iterations=7,
        **floats, **optional, **flags,
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_read_round_trip_bits(fmt):
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(records(), min_size=1, max_size=4))
    def check(recs):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"rec.{fmt}"
            emit(recs, path, fmt=fmt)
            back = read_records(path, fmt=fmt)
        assert len(back) == len(recs)
        no_floats = {f: None for f in FLOAT_FIELDS + OPTIONAL_FLOAT_FIELDS}
        for a, b in zip(recs, back):
            for f in no_floats:
                x, y = getattr(a, f), getattr(b, f)
                assert (x is None and y is None) or same_bits(x, y), f
            # the other fields, compared without NaN != NaN in the way
            assert replace(a, **no_floats) == replace(b, **no_floats)

    check()
