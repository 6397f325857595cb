"""Two-stage double-sparse hard-thresholding operator.

Stage 1 zeroes entries with magnitude below ``lam`` (keep on equality).
Stage 2 keeps columns whose squared mass reaches ``s0 * lam**2`` and prunes
rows past the largest order-statistic index whose cross-column squared mass
reaches ``s * lam**2``; the heterogeneous variant skips the row condition.

The hard-mode operator is not a projection: applied to its own output it
can remove more entries, because the row cut can lower a column's mass or
move itself. ``estimators.project_double_sparse`` is the projection.

``literal_oracle`` re-implements the same definitions with plain Python
loops and no vectorized shortcuts; it exists so tests can cross-check the
fast path, including tie handling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import GroupedMatrix, SparsityBudget, SupportSet, _check_budget, support_of

__all__ = [
    "ThresholdOutcome",
    "step1_entrywise",
    "step2_matrix",
    "apply",
    "apply_heterogeneous",
    "literal_oracle",
]


@dataclass(frozen=True)
class ThresholdOutcome:
    """Result of the matrix-condition stage.

    ``selected_mask`` marks the columns passing the column condition,
    ``row_cut`` is the largest admissible order-statistic rank (0 when no row
    qualifies, the full depth d for the row-condition-free variant), and
    ``active_mask`` is the d x m boolean mask of the entries the output keeps.
    ``result`` wraps the stage's own output array without a copy; it and
    both masks are read-only. ``active_mask`` is exactly ``result != 0``.
    ``selected_columns`` is built from ``selected_mask`` and ``active_set``
    from ``result``, each on first access.
    """

    result: GroupedMatrix
    selected_mask: np.ndarray
    row_cut: int
    active_mask: np.ndarray

    @cached_property
    def selected_columns(self) -> frozenset:
        """The column indices passing the column condition."""
        return frozenset(np.flatnonzero(self.selected_mask).tolist())

    @cached_property
    def active_set(self) -> SupportSet:
        """The index pairs the output keeps, built on first access."""
        return support_of(self.result)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _check_lam(lam: float) -> None:
    if not lam > 0:  # a NaN lam fails this too
        raise ValueError("lam must be positive")


def _checked_values(U: GroupedMatrix, lam: float) -> np.ndarray:
    """The values of ``U``, after checking that ``lam`` is positive and that
    every entry of ``U`` is finite: a NaN entry would otherwise fail every
    comparison and drop out, and an infinite one would pass through."""
    _check_lam(lam)
    V = U.values
    if not np.isfinite(V).all():
        raise ValueError("U must be finite")
    return V


def step1_entrywise(U: GroupedMatrix, lam: float) -> GroupedMatrix:
    """Entrywise hard thresholding: keep entries with |value| >= lam.

    The output is a fresh read-only array in C order, whatever the layout of
    ``U``, so that the matrix stage's column and row sums add in the same
    order for the solver's column-major gradient step as for any other
    input."""
    V = _checked_values(U, lam)
    out = np.ascontiguousarray(np.where(np.abs(V) >= lam, V, 0.0))
    return GroupedMatrix._wrap(_frozen(out))


def _matrix_stage(
    V: np.ndarray, lam: float, s: int, s0: int, row_condition: bool
) -> ThresholdOutcome:
    """Column condition on the values ``V`` of U, then the row condition
    unless ``row_condition`` is false, in which case i_max = d and every
    nonzero entry of a selected column stays active.

    ``V`` must be finite. The column sums check that: a non-finite entry
    makes its column's sum non-finite, and only then, as squares that
    overflow do the same, does a full pass over ``V`` decide."""
    d, m = V.shape
    col_scores = (V * V).sum(axis=0)
    if not np.isfinite(col_scores).all() and not np.isfinite(V).all():
        raise ValueError("U must be finite")
    _check_budget(m, d, s, s0)
    A = np.abs(V)
    selected = col_scores >= s0 * lam * lam

    if row_condition:
        # i-th non-increasing magnitude order statistic per column, squared,
        # summed across columns
        order = np.sort(A, axis=0)[::-1, :]
        row_scores = (order * order).sum(axis=1)
        qualifying = np.nonzero(row_scores >= s * lam * lam)[0]
        i_max = int(qualifying[-1]) + 1 if qualifying.size else 0
    else:
        i_max = d
    # #{k : |U_kj| >= |U_ij|} <= i_max  <=>  |U_ij| > order[i_max, j]; at the
    # full depth every nonzero entry qualifies, and no zero is active
    cut = order[i_max] if i_max < d else 0.0
    active = (A > cut) & selected[None, :]

    result = GroupedMatrix._wrap(_frozen(np.where(active, V, 0.0)))
    return ThresholdOutcome(result, _frozen(selected), i_max, _frozen(active))


def step2_matrix(U: GroupedMatrix, lam: float, s: int, s0: int) -> ThresholdOutcome:
    """Matrix-condition stage: column selection plus row-rank pruning.

    A column j is selected when sum_i U_ij^2 >= s0*lam^2. The row cut i_max is
    the largest rank i such that the i-th largest squared magnitudes, summed
    over all m columns, reach s*lam^2 (0 if none). An entry (i, j) stays
    active when its magnitude rank within column j, counted as
    #{k : |U_kj| >= |U_ij|} with ties included, is at most i_max.

    The rank is never formed: with desc_j the magnitudes of column j in
    non-increasing order, the rank condition holds exactly when
    |U_ij| > desc_j[i_max] (0-based), and for every nonzero entry when
    i_max = d.
    """
    _check_lam(lam)
    return _matrix_stage(U.values, lam, s, s0, row_condition=True)


def apply(U: GroupedMatrix, lam: float, budget: SparsityBudget) -> ThresholdOutcome:
    """The composed operator: entrywise stage followed by the matrix stage."""
    if budget.mode != "hard":
        raise ValueError("the composed operator is defined for hard-mode budgets only")
    return step2_matrix(step1_entrywise(U, lam), lam, budget.s, budget.s0)


def apply_heterogeneous(
    U: GroupedMatrix, lam: float, budget: SparsityBudget
) -> ThresholdOutcome:
    """Row-condition-free variant: entrywise stage, then the column condition
    only. Every surviving entry in a selected column stays active; the row
    cut is reported as the full depth d."""
    if budget.mode != "heterogeneous":
        raise ValueError("expected a heterogeneous-mode budget")
    return _matrix_stage(
        step1_entrywise(U, lam).values, lam, budget.s, budget.s0, row_condition=False
    )


def literal_oracle(
    U: GroupedMatrix,
    lam: float,
    s: int,
    s0: int,
    row_condition: bool = True,
) -> GroupedMatrix:
    """Loop-for-loop transcription of the operator definitions, used as an
    independent test oracle. Deliberately unoptimized."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    d, m = U.rows, U.cols

    # stage 1: entrywise
    W = [[0.0] * m for _ in range(d)]
    for i in range(d):
        for j in range(m):
            u = U.values[i, j]
            if abs(u) >= lam:
                W[i][j] = u

    # column condition
    J = []
    for j in range(m):
        total = 0.0
        for i in range(d):
            total += W[i][j] ** 2
        if total >= s0 * lam * lam:
            J.append(j)

    if row_condition:
        # row condition over order statistics of every column
        i_max = 0
        for i in range(1, d + 1):
            total = 0.0
            for j in range(m):
                column = sorted((abs(W[k][j]) for k in range(d)), reverse=True)
                total += column[i - 1] ** 2
            if total >= s * lam * lam:
                i_max = i
    else:
        i_max = d

    out = [[0.0] * m for _ in range(d)]
    for j in J:
        for i in range(d):
            rank = 0
            for k in range(d):
                if abs(W[k][j]) >= abs(W[i][j]):
                    rank += 1
            if rank <= i_max:
                out[i][j] = W[i][j]
    return GroupedMatrix(np.array(out))
