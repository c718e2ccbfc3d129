"""Two-phase simplex for small dense equality-form linear programs.

Solves  max c.x  subject to  A x = b,  x >= 0  on a dense tableau.  Sized
for the tiny nonsignaling-polytope programs of blocks of up to 3 parties
(<= 64 variables), where an external solver dependency is not justified.
The package's vertex pools are stored data, so its only callers are the
test oracles that enumerate those vertices, until it becomes the solver of
exact certificates (ROADMAP item 1).

The returned solution is a basic feasible point, i.e. a vertex of the
feasible polytope.  Pivot selection uses the largest reduced cost with a
largest-pivot-magnitude tie-break on the ratio test; if that stalls past an
iteration budget the solve restarts under Bland's rule, which cannot cycle.
"""

from __future__ import annotations

import numpy as np

FEAS_TOL = 1e-9


class LpInfeasibleError(RuntimeError):
    """Phase 1 ended with artificial variables at a positive level."""


class LpUnboundedError(RuntimeError):
    """An entering column had no positive pivot candidates."""


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    basis[row - 1] = col


def _run_simplex(
    tableau: np.ndarray,
    basis: np.ndarray,
    allowed: int,
    bland: bool,
    max_iter: int,
) -> bool:
    """Drive the objective row to optimality; True on success, False on stall.

    Row 0 holds reduced costs (entering candidates are columns with value
    > tol among the first ``allowed`` columns); rows 1.. hold constraints
    with the rhs in the last column.
    """
    for _ in range(max_iter):
        costs = tableau[0, :allowed]
        if bland:
            candidates = np.flatnonzero(costs > FEAS_TOL)
            if candidates.size == 0:
                return True
            col = int(candidates[0])
        else:
            col = int(np.argmax(costs))
            if costs[col] <= FEAS_TOL:
                return True
        column = tableau[1:, col]
        rhs = tableau[1:, -1]
        positive = column > FEAS_TOL
        if not np.any(positive):
            raise LpUnboundedError(f"column {col} is unbounded")
        ratios = np.full_like(rhs, np.inf)
        ratios[positive] = rhs[positive] / column[positive]
        best = np.min(ratios)
        ties = np.flatnonzero(ratios <= best + FEAS_TOL)
        if bland:
            row = int(ties[np.argmin(basis[ties])])
        else:
            row = int(ties[np.argmax(column[ties])])
        _pivot(tableau, basis, row + 1, col)
    return False


def _optimize(tableau: np.ndarray, basis: np.ndarray, allowed: int, max_iter: int) -> None:
    snapshot = (tableau.copy(), basis.copy())
    if _run_simplex(tableau, basis, allowed, bland=False, max_iter=max_iter):
        return
    tableau[:], basis[:] = snapshot
    if not _run_simplex(tableau, basis, allowed, bland=True, max_iter=20 * max_iter):
        raise RuntimeError("simplex failed to terminate under Bland's rule")


def solve_lp_max(
    c: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    max_iter: int = 2000,
) -> np.ndarray:
    """Maximize c.x over {A x = b, x >= 0}; returns an optimal vertex."""
    a = np.array(a_eq, dtype=float)
    b = np.array(b_eq, dtype=float)
    c = np.asarray(c, dtype=float)
    n_rows, n_vars = a.shape
    if b.shape != (n_rows,) or c.shape != (n_vars,):
        raise ValueError("inconsistent LP dimensions")

    flip = b < 0.0
    a[flip] *= -1.0
    b[flip] *= -1.0

    # Phase 1: maximize -(sum of artificials), reduced against the artificial basis.
    tableau = np.zeros((n_rows + 1, n_vars + n_rows + 1))
    tableau[1:, :n_vars] = a
    tableau[1:, n_vars : n_vars + n_rows] = np.eye(n_rows)
    tableau[1:, -1] = b
    tableau[0, :n_vars] = a.sum(axis=0)
    tableau[0, -1] = b.sum()
    basis = np.arange(n_vars, n_vars + n_rows)
    _optimize(tableau, basis, allowed=n_vars, max_iter=max_iter)
    if tableau[0, -1] > FEAS_TOL * max(1.0, abs(b).max()):
        raise LpInfeasibleError(f"phase-1 residual {tableau[0, -1]!r}")

    # Remove artificial variables still basic at zero level; a row with no
    # structural pivot left is redundant and dropped.
    keep = np.ones(n_rows + 1, dtype=bool)
    for i in range(n_rows):
        if basis[i] < n_vars:
            continue
        row = tableau[i + 1, :n_vars]
        pivots = np.flatnonzero(np.abs(row) > FEAS_TOL)
        if pivots.size:
            _pivot(tableau, basis, i + 1, int(pivots[0]))
        else:
            keep[i + 1] = False
    row_kept = keep[1:]
    tableau = tableau[keep][:, list(range(n_vars)) + [-1]]
    basis = basis[row_kept]

    # Phase 2 on the reduced tableau with the true objective.
    tableau[0, :] = 0.0
    tableau[0, :n_vars] = c
    for i, var in enumerate(basis):
        coeff = tableau[0, var]
        if coeff != 0.0:
            tableau[0] -= coeff * tableau[i + 1]
    _optimize(tableau, basis, allowed=n_vars, max_iter=max_iter)

    x = np.zeros(n_vars)
    x[basis] = tableau[1:, -1]
    return x
