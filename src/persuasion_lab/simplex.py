"""Dense two-phase tableau simplex with Bland's rule.

Solves  max c.x  s.t.  A x = b, x >= 0, with b >= 0.  Small problems only:
the obedience programs this package builds have at most a few hundred
variables, so a dense tableau with anti-cycling pivoting is simple,
dependency-free, and bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LPError, LPInfeasibleError, LPIterationLimitError

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-7


@dataclass(frozen=True)
class SimplexResult:
    """Optimal basic solution; column ``basis[k]`` is basic in kept row ``rows[k]``."""

    x: np.ndarray
    objective: float
    iterations: int
    basis: np.ndarray
    rows: np.ndarray


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    # eliminate the pivot column from every other row, cost row included
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    basis[row] = col


def _bland_iterate(tableau: np.ndarray, basis: np.ndarray, max_iter: int) -> int:
    """Run simplex iterations (minimization tableau) until optimal.

    Entering column: smallest-index column with negative reduced cost.
    Leaving row: minimum ratio, ties broken by smallest basis variable index.
    """
    n_rows = tableau.shape[0] - 1
    for it in range(max_iter):
        reduced = tableau[-1, :-1]
        candidates = np.flatnonzero(reduced < -_PIVOT_TOL)
        if candidates.size == 0:
            return it
        col = int(candidates[0])
        column = tableau[:n_rows, col]
        rhs = tableau[:n_rows, -1]
        rows = np.flatnonzero(column > _PIVOT_TOL)
        if rows.size == 0:
            raise LPError("unbounded pivot column; problem is not a bounded program")
        ratios = rhs[rows] / column[rows]
        best = ratios.min()
        tied = rows[np.flatnonzero(ratios <= best + 0.0)]
        # Bland: among minimum-ratio rows pick the smallest basis index
        row = int(tied[np.argmin(basis[tied])])
        _pivot(tableau, basis, row, col)
    raise LPIterationLimitError(f"simplex did not converge in {max_iter} iterations")


def _basic_solution(n_vars: int, basis: np.ndarray, values: np.ndarray) -> np.ndarray:
    x = np.zeros(n_vars)
    x[basis] = values
    return np.where(np.abs(x) < 1e-14, 0.0, x)


def _residual(A: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(A @ x - b))) if A.shape[0] else 0.0


def solve_standard_form(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
) -> SimplexResult:
    """Maximize ``c @ x`` subject to ``A x = b``, ``x >= 0`` (``b >= 0``)."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    n_rows, n_vars = A.shape
    if np.any(b < 0):
        raise LPError("standard form requires b >= 0")
    max_iter = 200 * (n_vars + n_rows + 10)

    # ---- phase 1: minimize the sum of artificial variables
    tableau = np.zeros((n_rows + 1, n_vars + n_rows + 1))
    tableau[:n_rows, :n_vars] = A
    tableau[:n_rows, n_vars : n_vars + n_rows] = np.eye(n_rows)
    tableau[:n_rows, -1] = b
    basis = np.arange(n_vars, n_vars + n_rows)
    # reduced costs of original columns under the artificial basis
    tableau[-1, :n_vars] = -A.sum(axis=0)
    tableau[-1, -1] = -b.sum()

    iters = _bland_iterate(tableau, basis, max_iter)
    if -tableau[-1, -1] > _FEAS_TOL:
        raise LPInfeasibleError(
            f"phase-1 optimum {-tableau[-1, -1]:g} > 0; constraints are infeasible"
        )

    # drive leftover artificials out of the basis; drop redundant rows
    keep_rows = np.ones(n_rows, dtype=bool)
    for r in range(n_rows):
        if basis[r] < n_vars:
            continue
        pivots = np.flatnonzero(np.abs(tableau[r, :n_vars]) > _PIVOT_TOL)
        if pivots.size:
            _pivot(tableau, basis, r, int(pivots[0]))
        else:
            keep_rows[r] = False  # linearly dependent constraint

    row_mask = np.append(keep_rows, True)
    col_mask = np.append(
        np.concatenate([np.ones(n_vars, dtype=bool), np.zeros(n_rows, dtype=bool)]), True
    )
    tableau = tableau[row_mask][:, col_mask]
    basis = basis[keep_rows]
    kept = np.flatnonzero(keep_rows)

    # ---- phase 2: minimize -c over the feasible basis found above
    cost = -c
    tableau[-1, :-1] = cost
    tableau[-1, -1] = 0.0
    for r, var in enumerate(basis):
        tableau[-1] -= cost[var] * tableau[r]
    iters += _bland_iterate(tableau, basis, max_iter)

    x = _basic_solution(n_vars, basis, tableau[: len(basis), -1])
    B = A[kept][:, basis]
    residual = _residual(A, x, b)
    if residual > _FEAS_TOL:
        # Rounding in the pivots drifted the tableau, right-hand side and
        # cost row alike: solve for the final basis's values directly.
        try:
            x_basic = np.linalg.solve(B, b[kept])
        except np.linalg.LinAlgError as e:
            raise LPError(f"singular final basis: {e}") from e
        if float(x_basic.min()) < -_FEAS_TOL:
            raise LPError(f"final basis is infeasible: x_B has entry {float(x_basic.min()):g}")
        x = _basic_solution(n_vars, basis, np.maximum(x_basic, 0.0))
        residual = _residual(A, x, b)
    objective = float(c @ x)

    # y solves B^T y = c_B; the final basis is optimal when A^T y >= c
    try:
        y = np.linalg.solve(B.T, c[basis])
    except np.linalg.LinAlgError as e:
        raise LPError(f"singular final basis: {e}") from e
    reduced = float(np.min(A[kept].T @ y - c))
    if reduced < -_FEAS_TOL:
        raise LPError(f"final basis is not optimal: reduced cost {reduced:g}")
    if residual > _FEAS_TOL:
        raise LPError(f"solution violates constraints by {residual:g}")
    # c.x - y.b vanishes for any basis: it bounds how far the objective is
    # from the final basis's own value, not how far from the optimum
    gap = abs(objective - float(y @ b[kept]))
    if gap > _FEAS_TOL:
        raise LPError(f"objective is {gap:g} from the final basis's value")

    return SimplexResult(x=x, objective=objective, iterations=iters, basis=basis, rows=kept)
