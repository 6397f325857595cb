"""Domain types shared by all modules.

A parameter vector ``beta`` of length ``p = m * d`` is viewed interchangeably
as a ``d x m`` matrix ``theta`` whose column ``j`` is the ``j``-th contiguous
block of ``beta`` (column-major layout: entry ``(i, j)`` of the matrix is
component ``d*j + i`` of the vector, zero-based).
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroupedMatrix",
    "SparsityBudget",
    "SupportSet",
    "NoiseModel",
    "vec_to_matrix",
    "matrix_to_vec",
    "support_of",
    "excess_support",
    "stream",
    "float_text",
    "text_float",
]


@dataclass(frozen=True)
class GroupedMatrix:
    """A dense d x m real matrix; column j holds group j of the paired vector."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d array, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"empty matrix shape {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "GroupedMatrix":
        """An instance holding ``arr`` itself, unchecked and uncopied: only
        for a read-only 2-d float array the package has just allocated."""
        self = object.__new__(cls)
        object.__setattr__(self, "values", arr)
        return self

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def p(self) -> int:
        return self.values.size

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.values))


def vec_to_matrix(beta: np.ndarray, m: int, d: int) -> GroupedMatrix:
    """Reshape a length-``m*d`` vector into its d x m grouped matrix form."""
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 1:
        raise ValueError("beta must be a 1-d vector")
    if beta.size != m * d:
        raise ValueError(f"length {beta.size} does not match m*d = {m * d}")
    return GroupedMatrix(beta.reshape((d, m), order="F"))


def matrix_to_vec(theta: GroupedMatrix) -> np.ndarray:
    """Inverse of :func:`vec_to_matrix`; bit-exact round trip."""
    return theta.values.flatten(order="F")


@dataclass(frozen=True)
class SupportSet:
    """A set of (row, column) index pairs on a d x m grid (zero-based)."""

    entries: frozenset

    def __post_init__(self):
        object.__setattr__(self, "entries", frozenset(tuple(e) for e in self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, pair) -> bool:
        return tuple(pair) in self.entries

    @property
    def columns(self) -> frozenset:
        return frozenset(j for _, j in self.entries)

    def column_counts(self) -> dict:
        counts: dict = {}
        for _, j in self.entries:
            counts[j] = counts.get(j, 0) + 1
        return counts

    def in_hard_class(self, s: int, s0: int) -> bool:
        """Membership in the class of supports with at most ``s`` occupied
        columns and at most ``s0`` entries in each column."""
        counts = self.column_counts()
        return len(counts) <= s and all(c <= s0 for c in counts.values())

    def in_heterogeneous_class(self, s: int, s_prime: int) -> bool:
        """At most ``s`` occupied columns and at most ``s_prime`` entries total."""
        return len(self.columns) <= s and len(self.entries) <= s_prime


def support_of(theta: GroupedMatrix) -> SupportSet:
    """Index pairs of the nonzero entries of ``theta``."""
    rows, cols = np.nonzero(theta.values)
    return SupportSet(frozenset(zip(rows.tolist(), cols.tolist())))


def excess_support(candidate: SupportSet, truth: SupportSet) -> SupportSet:
    """Set difference ``candidate - truth`` (entries of candidate outside truth)."""
    return SupportSet(candidate.entries - truth.entries)


def _check_budget(m: int, d: int, s: int, s0: int) -> None:
    """The (s, s0) double-sparse class must fit the d x m grid."""
    if not 1 <= s <= m:
        raise ValueError(f"s must lie in [1, m]={m}, got {s}")
    if s0 is None or not 1 <= s0 <= d:
        raise ValueError(f"s0 must lie in [1, d]={d}, got {s0}")


def _check_flat_budget(p: int, d: int, s: int, s0: int) -> None:
    """The (s, s0) class must fit the grid of p = m * d coefficients."""
    if not (d >= 1 and p >= 1 and p % d == 0):
        raise ValueError(f"p must be a positive multiple of d={d}, got {p}")
    _check_budget(p // d, d, s, s0)


def _check_q(q: float) -> None:
    """The l_q exponent q must lie in (0, 1]."""
    if q is None or not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q}")


def _check_nonnegative(name: str, value: float) -> None:
    """``value`` must be finite and nonnegative."""
    if value is None or not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def _check_sample_size(n: int) -> None:
    """The sample size n must be at least 1."""
    if n is None or not n >= 1:
        raise ValueError(f"n must be at least 1, got {n}")


def _check_noise(sigma: float, n: int) -> None:
    """The noise level sigma must be finite and nonnegative, the sample size
    n at least 1."""
    _check_nonnegative("sigma", sigma)
    _check_sample_size(n)


def _checked_vector(name: str, value, length: int) -> np.ndarray:
    """``value`` as a float array of shape (length,) with finite entries."""
    value = np.asanyarray(value, dtype=float)
    if value.shape != (length,):
        raise ValueError(f"{name} must have shape ({length},), got {value.shape}")
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite")
    return value


def _checked_design(X, p: int | None = None) -> np.ndarray:
    """``X`` as a 2-d float array, subclass kept, with ``p`` columns (any when
    None). Its entries are not read: callers check finiteness on a pass they
    make anyway."""
    X = np.asanyarray(X, dtype=float)
    if X.ndim != 2 or (p is not None and X.shape[1] != p):
        width = "" if p is None else f" with p={p}"
        raise ValueError(f"X must be a 2-d n x p array{width}, got shape {X.shape}")
    return X


@dataclass(frozen=True)
class SparsityBudget:
    """Group/within-group sparsity budget on a d x m grid.

    Modes:
      hard           -- at most ``s`` nonzero columns, at most ``s0`` nonzeros per column
      soft           -- at most ``s`` nonzero columns, per-column l_q mass at most ``rq``
      heterogeneous  -- at most ``s`` nonzero columns, at most ``s_prime`` nonzeros total
    """

    m: int
    d: int
    s: int
    mode: str
    s0: int | None = None
    q: float | None = None
    rq: float | None = None
    s_prime: int | None = None

    def __post_init__(self):
        if self.m < 1 or self.d < 1:
            raise ValueError("m and d must be positive")
        if self.mode not in ("hard", "soft", "heterogeneous"):
            raise ValueError(f"unknown mode {self.mode!r}")
        # no s0 (soft, or heterogeneous before its default): columns may fill d rows
        s0 = self.d if self.s0 is None and self.mode != "hard" else self.s0
        _check_budget(self.m, self.d, self.s, s0)
        if self.mode == "soft":
            _check_q(self.q)
            if self.rq is None or self.rq <= 0:
                raise ValueError(f"rq must be positive, got {self.rq}")
        elif self.mode == "heterogeneous":
            if self.s_prime is None or not 1 <= self.s_prime <= self.s * self.d:
                raise ValueError(
                    f"s_prime must lie in [1, s*d]={self.s * self.d}, got {self.s_prime}"
                )
            if self.s0 is None:
                object.__setattr__(
                    self, "s0", min(self.d, math.ceil(self.s_prime / self.s))
                )

    @classmethod
    def hard(cls, m: int, d: int, s: int, s0: int) -> "SparsityBudget":
        return cls(m=m, d=d, s=s, mode="hard", s0=s0)

    @classmethod
    def soft(cls, m: int, d: int, s: int, q: float, rq: float) -> "SparsityBudget":
        return cls(m=m, d=d, s=s, mode="soft", q=q, rq=rq)

    @classmethod
    def heterogeneous(
        cls, m: int, d: int, s: int, s_prime: int, s0: int | None = None
    ) -> "SparsityBudget":
        # s0 feeds the operator's column condition; defaults to ceil(s_prime/s).
        return cls(m=m, d=d, s=s, mode="heterogeneous", s_prime=s_prime, s0=s0)

    @property
    def p(self) -> int:
        return self.m * self.d

    def soft_regime_margin(self, n: int) -> float:
        """The ratio d / (rq * n^(q/2)); the soft-sparsity analysis assumes it
        is bounded below. Informational only."""
        if self.mode != "soft":
            raise ValueError("regime margin is defined for soft mode only")
        return self.d / (self.rq * n ** (self.q / 2.0))

    def check_soft_regime(self, n: int) -> float:
        """Evaluate the soft-mode regime margin and warn (not reject) when it
        drops below one."""
        margin = self.soft_regime_margin(n)
        if margin < 1.0:
            warnings.warn(
                f"soft-sparsity regime margin d/(rq*n^(q/2)) = {margin:.4g} < 1; "
                "the (n, d, rq) triple is outside the regime the rate formulas assume",
                stacklevel=2,
            )
        return margin

    def _mask_fits(self, mask: np.ndarray) -> bool:
        """Whether the support marked by the d x m boolean ``mask`` lies in
        the hard or heterogeneous support class: the same answer as
        ``SupportSet.in_hard_class`` / ``in_heterogeneous_class``."""
        per_column = mask.sum(axis=0)
        if np.count_nonzero(per_column) > self.s:
            return False
        if self.mode == "heterogeneous":
            return int(per_column.sum()) <= self.s_prime
        return int(per_column.max()) <= self.s0

    def admits(self, theta: GroupedMatrix) -> bool:
        """Whether ``theta`` lies in this budget's parameter space."""
        if (theta.rows, theta.cols) != (self.d, self.m):
            return False
        mask = theta.values != 0
        if self.mode != "soft":
            return self._mask_fits(mask)
        # soft: column count plus per-column l_q mass
        if np.count_nonzero(mask.any(axis=0)) > self.s:
            return False
        mass = np.sum(np.abs(theta.values) ** self.q, axis=0)
        return bool(np.all(mass <= self.rq * (1 + 1e-12)))


@dataclass(frozen=True)
class NoiseModel:
    """Entrywise Gaussian noise with variance sigma^2 / n."""

    sigma: float
    n: int

    def __post_init__(self):
        _check_noise(self.sigma, self.n)

    @property
    def entry_std(self) -> float:
        return self.sigma / math.sqrt(self.n)


def stream(seed: int, *ids: int) -> np.random.Generator:
    """Deterministic generator for the stream identified by (seed, *ids).

    Distinct id tuples give statistically independent streams regardless of
    the order in which they are drawn.
    """
    return np.random.default_rng([int(seed), *[int(i) for i in ids]])


def _float_bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


_QUIET_NAN_BITS = _float_bits(math.nan)


def float_text(value: float) -> str:
    """Text that :func:`text_float` reads back to the same 64 bits: the
    shortest round-trip ``repr``, except that a NaN other than the positive
    quiet NaN (``repr`` writes every NaN as ``nan``) is written as ``nan:``
    and its bits in hex."""
    value = float(value)
    bits = _float_bits(value)
    if math.isnan(value) and bits != _QUIET_NAN_BITS:
        return f"nan:{bits:016x}"
    return repr(value)


def text_float(text: str) -> float:
    """Inverse of :func:`float_text`."""
    if text.startswith("nan:"):
        return struct.unpack("<d", struct.pack("<Q", int(text[4:], 16)))[0]
    return float(text)
