"""Solver traces and dsrip reports do not depend on the BLAS thread count.

Each case runs in two subprocesses, one with BLAS on 1 thread and one on 2,
and compares digests of every output field's bytes."""

import json
import os
import subprocess
import sys

CHILD = r"""
import hashlib, json, sys
from dataclasses import asdict, fields
import numpy as np
from doublesparse import diagnostics, estimators, simulate
from doublesparse.core import NoiseModel, SparsityBudget, stream


def digest(value):
    if isinstance(value, np.ndarray):
        data = f"{value.dtype} {value.shape}".encode() + value.tobytes()
    elif isinstance(value, (list, tuple)):
        data = "\n".join(digest(v) for v in value).encode()
    elif isinstance(value, dict):
        data = "\n".join(f"{k}={digest(v)}" for k, v in sorted(value.items())).encode()
    elif isinstance(value, float):
        data = value.hex().encode()
    else:
        data = repr(value).encode()
    return hashlib.sha256(data).hexdigest()


def solve(seed):
    # the harness's draw: signal, then design, then the regression response
    m, d, s, s0, n, sigma = 200, 100, 2, 2, 100, 0.5
    budget = SparsityBudget.hard(m, d, s, s0)
    lambda_inf = estimators.default_lambda_inf(sigma, n, m * d, d, s, s0)
    rng = stream(seed)
    spec = simulate.SignalSpec(budget, simulate.Constant(3.0 * lambda_inf), sign="random")
    beta = simulate.gen_signal(spec, rng).values.reshape(-1, order="F")
    X = simulate.gen_design(n, m * d, "gaussian_iid", rng)
    Y = simulate.gen_regression(X, beta, NoiseModel(sigma, n), rng)
    # default_lambda0's formula, with its norm summed by einsum: its BLAS
    # dot product can change with the thread count at this p
    g = X.T @ Y / n
    lambda0 = max(float(np.sqrt(np.einsum("i,i->", g, g) / (s * s0))), lambda_inf)
    schedule = estimators.ThresholdSchedule(lambda0, 0.8, lambda_inf)
    beta_hat, trace = estimators.dsiht(X, Y, budget, schedule, truth=beta)
    out = {"beta_hat": digest(beta_hat)}
    out.update({f.name: digest(getattr(trace, f.name)) for f in fields(trace)})
    return out


def dsrip(seed):
    m, d, s, s0, n = 350, 2, 2, 2, 1000
    X = simulate.gen_design(n, m * d, "gaussian_iid", stream(seed))
    report = diagnostics.dsrip(X, m, d, s, s0)
    return {key: digest(value) for key, value in asdict(report).items()}


case, seed = sys.argv[1], int(sys.argv[2])
json.dump({"solve": solve, "dsrip": dsrip}[case](seed), sys.stdout)
"""

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _digests(case, seed, threads):
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, str(threads))}
    proc = subprocess.run([sys.executable, "-c", CHILD, case, str(seed)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_solve_trace_is_blas_thread_invariant():
    # at p = 20 000 a BLAS dot product of the error vector sums in an order
    # that depends on the thread count, for this seed
    one = _digests("solve", 1, threads=1)
    assert {"beta_hat", "errors", "bound_held", "lambdas", "betas"} <= one.keys()
    assert _digests("solve", 1, threads=2) == one


def test_dsrip_report_is_blas_thread_invariant():
    # p = 700 columns, where X^T X by GEMM differs in its last bits
    one = _digests("dsrip", 0, threads=1)
    assert _digests("dsrip", 0, threads=2) == one
