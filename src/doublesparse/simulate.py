"""Synthetic data generation: double-sparse signals, matrix observations with
entrywise Gaussian noise of variance sigma^2/n, normalized design matrices,
and regression responses with per-coordinate noise variance sigma^2.

The two noise conventions are deliberately distinct: the location-model
observation adds noise of variance sigma^2/n per entry, while the regression
response adds noise of variance sigma^2 per coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GroupedMatrix,
    NoiseModel,
    SparsityBudget,
    _checked_design,
    float_text,
    stream,
    text_float,
)

__all__ = [
    "Constant",
    "UniformRange",
    "LeastFavorable",
    "SignalSpec",
    "gen_signal",
    "gen_glm",
    "gen_design",
    "gen_regression",
    "save_matrix_csv",
    "load_matrix_csv",
]


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class UniformRange:
    lo: float
    hi: float


@dataclass(frozen=True)
class LeastFavorable:
    """Two-point magnitude: every nonzero equals delta. For a soft budget the
    per-column nonzero count is rq / delta^q, so each column's l_q mass meets
    the budget with equality."""

    delta: float


@dataclass(frozen=True)
class SignalSpec:
    budget: SparsityBudget
    magnitude: object
    sign: str = "positive"  # "positive" | "random"

    def __post_init__(self):
        if self.sign not in ("positive", "random"):
            raise ValueError(f"sign must be 'positive' or 'random', got {self.sign!r}")


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (tuple, list)):
        return stream(*seed)
    return stream(int(seed))


def _signs(rng, size, sign):
    if sign == "positive":
        return np.ones(size)
    return rng.choice([-1.0, 1.0], size=size)


def gen_signal(spec: SignalSpec, seed) -> GroupedMatrix:
    """Draw a signal from the budget's parameter space.

    Support is uniform: s columns without replacement, then rows per column
    without replacement. Soft-mode columns are rescaled so their l_q mass
    meets the budget exactly.
    """
    rng = _as_rng(seed)
    budget = spec.budget
    m, d, s = budget.m, budget.d, budget.s
    theta = np.zeros((d, m))
    cols = np.sort(rng.choice(m, size=s, replace=False))

    if budget.mode == "hard":
        counts = [budget.s0] * s
    elif budget.mode == "heterogeneous":
        # spread s_prime entries over the chosen columns
        base, extra = divmod(budget.s_prime, s)
        counts = [base + (1 if t < extra else 0) for t in range(s)]
    elif isinstance(spec.magnitude, LeastFavorable):
        # soft: rq / delta^q entries of delta meet each column's mass exactly
        delta = spec.magnitude.delta
        s0_eff = int(round(budget.rq / delta**budget.q))
        if s0_eff < 1 or s0_eff > d:
            raise ValueError(
                f"rq/delta^q = {budget.rq / delta ** budget.q:.4g} gives an "
                f"infeasible per-column count for d={d}"
            )
        counts = [s0_eff] * s
    else:
        # soft: whole columns of draws, rescaled to mass rq; none left to place
        counts = []
        for j in cols:
            raw = _draw_magnitudes(spec.magnitude, rng, d)
            raw *= _signs(rng, d, spec.sign)
            mass = np.sum(np.abs(raw) ** budget.q)
            if mass <= 0:
                raise ValueError("degenerate zero column in soft-mode generation")
            theta[:, j] = raw * (budget.rq / mass) ** (1.0 / budget.q)
    for j, cnt in zip(cols, counts):
        if cnt == 0:
            continue
        rows = rng.choice(d, size=cnt, replace=False)
        mags = _draw_magnitudes(spec.magnitude, rng, cnt)
        theta[rows, j] = mags * _signs(rng, cnt, spec.sign)

    out = GroupedMatrix(theta)
    # an explicit raise, unlike assert, survives python -O
    if not budget.admits(out):
        raise RuntimeError(f"generated signal lies outside its {budget.mode}-mode budget")
    return out


def _draw_magnitudes(magnitude, rng, size):
    if isinstance(magnitude, Constant):
        return np.full(size, float(magnitude.value))
    if isinstance(magnitude, UniformRange):
        return rng.uniform(magnitude.lo, magnitude.hi, size=size)
    if isinstance(magnitude, LeastFavorable):
        return np.full(size, float(magnitude.delta))
    raise TypeError(f"unknown magnitude spec {magnitude!r}")


def gen_glm(theta_star: GroupedMatrix, noise: NoiseModel, seed) -> GroupedMatrix:
    """Observation theta_star + Z with Z i.i.d. Gaussian(0, sigma^2/n)."""
    rng = _as_rng(seed)
    Z = rng.normal(0.0, 1.0, size=theta_star.values.shape) * noise.entry_std
    return GroupedMatrix(theta_star.values + Z)


def gen_design(n: int, p: int, kind: str, seed) -> np.ndarray:
    """Design matrix with every column norm exactly sqrt(n).

    ``identity_scaled`` returns sqrt(n) * [I_p; 0] (requires p <= n);
    ``gaussian_iid`` draws standard normal entries and rescales columns.
    """
    rng = _as_rng(seed)
    if kind == "identity_scaled":
        if p > n:
            raise ValueError(f"identity_scaled needs p <= n, got p={p}, n={n}")
        X = np.zeros((n, p))
        X[:p, :p] = math.sqrt(n) * np.eye(p)
        return X
    if kind == "gaussian_iid":
        X = rng.normal(0.0, 1.0, size=(n, p))
        X *= math.sqrt(n) / np.sqrt(np.einsum("ij,ij->j", X, X))
        return X
    raise ValueError(f"unknown design kind {kind!r}")


def gen_regression(
    X: np.ndarray, beta_star: np.ndarray, noise: NoiseModel, seed
) -> np.ndarray:
    """Response X @ beta_star + xi with xi i.i.d. Gaussian(0, sigma^2)."""
    rng = _as_rng(seed)
    beta_star = np.asarray(beta_star, dtype=float)
    X = _checked_design(np.asarray(X, dtype=float), beta_star.shape[0])
    xi = rng.normal(0.0, noise.sigma, size=X.shape[0])
    return X @ beta_star + xi


def save_matrix_csv(path, array: np.ndarray) -> None:
    """Dense row-major CSV with a shape header; floats round-trip bit-exactly."""
    arr = np.atleast_2d(np.asarray(array, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# rows={arr.shape[0]} cols={arr.shape[1]}\n")
        for row in arr:
            fh.write(",".join(float_text(v) for v in row) + "\n")


def load_matrix_csv(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("# rows="):
            raise ValueError(f"{path}: missing shape header")
        parts = dict(p.split("=") for p in header[2:].split())
        rows, cols = int(parts["rows"]), int(parts["cols"])
        data = [
            [text_float(v) for v in line.strip().split(",")]
            for line in fh
            if line.strip()
        ]
    arr = np.array(data)
    if arr.shape != (rows, cols):
        raise ValueError(f"{path}: header says {(rows, cols)}, data is {arr.shape}")
    return arr
