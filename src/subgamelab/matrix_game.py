"""Exact solver for two-player zero-sum matrix games, one at a time or stacked.

``solve`` returns the maximin value together with optimal mixed strategies
for both sides; ``solve_stack`` does the same for every matrix of a
(k, m, n) stack, bit for bit as ``solve`` would one at a time. The matrix
is the row player's payoff; the column player receives its negation. Two
deterministic paths are used:

* a pure saddle-point check (max-min over rows equals min-max over columns),
  resolved with lowest-index tie-breaking, which covers the many stage games
  whose optimum is a pure pair;
* otherwise a dense primal simplex with Bland's rule on the classic
  positive-payoff transformation. Payoffs are shifted so the minimum entry
  is exactly 1, which also makes the pivot path invariant to adding a
  constant to every entry.

A stack's mixed matrices pivot together, each step taken by every tableau
at once, so a dynamic-programming sweep over many small stage games costs
a few pivots' worth of numpy calls rather than one LP per state. A single
mixed matrix (the learner's cache misses, the CLI) takes a plain one-tableau
pivot loop instead, which is about twice as fast for it. Matrices are small
(tens of actions), so no sparsity or scaling tricks are needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# feasibility/optimality tolerance for the simplex; results are quoted at 1e-9
_TOL = 1e-10


@dataclass(frozen=True)
class MatrixSolution:
    """Game value plus maximin strategies for the row and column players."""

    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray


def _validate_payoff(payoff, ndim: int = 2) -> np.ndarray:
    """``payoff`` as a float64 array: one matrix, or a stack of them for ``ndim=3``."""
    a = np.asarray(payoff, dtype=np.float64)
    if a.ndim != ndim or a.shape[-2] < 1 or a.shape[-1] < 1:
        raise ValueError("payoff must be a non-empty 2-D matrix" if ndim == 2 else
                         "payoffs must be a (k, m, n) stack of non-empty matrices")
    if not np.isfinite(a).all():
        raise ValueError("payoff entries must be finite")
    return a


def _tableau(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Initial tableaus and all-slack bases of the positive games ``b`` (k, m, n).

    Each tableau holds the column player's scaled LP  max 1'u  s.t.  b u <= 1,
    u >= 0: constraint rows, then the objective row; columns u, the slacks,
    then the right-hand side.
    """
    k, m, n = b.shape
    tableau = np.zeros((k, m + 1, n + m + 1))
    tableau[:, :m, :n] = b
    tableau[:, :m, n : n + m] = np.eye(m)
    tableau[:, :m, -1] = 1.0
    tableau[:, m, :n] = -1.0
    basis = np.empty((k, m), dtype=np.intp)
    basis[:] = np.arange(n, n + m)
    return tableau, basis


def _pivot_one(tableau: np.ndarray, basis: np.ndarray) -> None:
    """Bland's-rule simplex to optimality on a one-matrix stack, in place.

    Bland's rule (lowest eligible index, ties by lowest basis variable) makes
    the pivot path deterministic and cycle-free.
    """
    tableau, basis = tableau[0], basis[0]
    m = basis.size
    objective = tableau[m, :-1]
    while True:
        below = objective < -_TOL
        j = int(below.argmax())
        if not below[j]:
            return
        col = tableau[:m, j]
        eligible = (col > _TOL).nonzero()[0]
        if eligible.size == 0:  # cannot happen with b >= 1
            raise ArithmeticError("maximin LP unbounded")
        ratios = tableau[eligible, -1] / col[eligible]
        best = ratios.min()
        tied = eligible[ratios <= best + _TOL * (1.0 + abs(best))]
        r = int(tied[basis[tied].argmin()])
        tableau[r] /= tableau[r, j]
        factor = tableau[:, j].copy()
        factor[r] = 0.0
        tableau -= factor[:, None] * tableau[r]
        basis[r] = j


def _pivot_stack(tableau: np.ndarray, basis: np.ndarray) -> None:
    """The pivots of ``_pivot_one``, taken by every tableau of the stack at once.

    Each step picks every tableau's entering column, ratio-test row and
    Bland tie-break together; a tableau already at its optimum takes a no-op
    pivot (divisor 1, factor 0), which leaves its entries bit for bit as
    they are. Every operation is elementwise, so each tableau follows
    exactly the path ``_pivot_one`` would give it alone.
    """
    k, m1, width = tableau.shape
    m = m1 - 1
    ar = np.arange(k)
    rhs = tableau[:, :m, -1]
    while True:
        below = tableau[:, m, :-1] < -_TOL
        active = below.any(axis=1)
        if not active.any():
            return
        j = below.argmax(axis=1)
        factor = tableau[ar, :, j]  # a copy of each entering column
        col = factor[:, :m]
        ratios = np.divide(rhs, col, out=np.full((k, m), np.inf), where=col > _TOL)
        best = ratios.min(axis=1)
        tied = ratios <= (best + _TOL * (1.0 + np.abs(best)))[:, None]
        r = np.where(tied, basis, width).argmin(axis=1)
        pivot = np.where(active, factor[ar, r], 1.0)
        if (pivot <= _TOL).any():  # no eligible row; cannot happen with b >= 1
            raise ArithmeticError("maximin LP unbounded")
        row = tableau[ar, r] / pivot[:, None]
        factor[ar, r] = 0.0
        factor *= active[:, None]
        tableau[ar, r] = row
        tableau -= factor[:, :, None] * row[:, None, :]
        basis[ar, r] = np.where(active, j, basis[ar, r])


def _clean_distribution(p: np.ndarray) -> np.ndarray:
    p = np.where(p < 0.0, 0.0, p)
    return p / p.sum(axis=1, keepdims=True)


def _simplex(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values and strategies of the (k, m, n) games ``a`` by the simplex.

    Each matrix is shifted so its minimum entry is exactly 1, which makes the
    pivot path invariant to adding a constant to every entry. At the optimum
    of the LP in ``_tableau`` 1/objective is the shifted game's value, the
    basic u recovers the column strategy, and the objective-row entries under
    the slack columns recover the row strategy (the dual).
    """
    k, m, n = a.shape
    shift = 1.0 - a.min(axis=(1, 2))
    tableau, basis = _tableau(a + shift[:, None, None])
    (_pivot_one if k == 1 else _pivot_stack)(tableau, basis)
    sigma = tableau[:, m, -1]
    if (sigma <= _TOL).any():
        raise ArithmeticError("degenerate maximin LP objective")
    u = np.zeros((k, n + m))
    u[np.arange(k)[:, None], basis] = tableau[:, :m, -1]
    value = 1.0 / sigma
    return (value - shift, _clean_distribution(tableau[:, m, n : n + m] * value[:, None]),
            _clean_distribution(u[:, :n] * value[:, None]))


def _solve(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values and strategies of a validated (k, m, n) stack.

    A matrix whose max-min over rows equals its min-max over columns is a
    pure saddle, solved by its lowest-index maximin row and minimax column;
    the others go to one simplex together.
    """
    k, m, n = a.shape
    row_mins = a.min(axis=2)
    col_maxs = a.max(axis=1)
    values = row_mins.max(axis=1)
    mixed = values != col_maxs.min(axis=1)
    mixed_count = np.count_nonzero(mixed)
    if mixed_count == k:  # nothing to gather or scatter
        return _simplex(a)
    ar = np.arange(k)
    p = np.zeros((k, m))
    q = np.zeros((k, n))
    p[ar, row_mins.argmax(axis=1)] = 1.0
    q[ar, col_maxs.argmin(axis=1)] = 1.0
    if mixed_count:
        values[mixed], p[mixed], q[mixed] = _simplex(a[mixed])
    return values, p, q


def solve_stack(payoffs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``solve`` for every matrix of a (k, m, n) stack at once.

    Returns the values (k,), row strategies (k, m) and column strategies
    (k, n), each bit for bit what ``solve`` gives for that matrix alone. The
    pivots of all mixed matrices are taken together, so a stack of many
    small games costs a few pivots' worth of numpy calls, not one LP each.
    """
    return _solve(_validate_payoff(payoffs, ndim=3))


def solve(payoff) -> MatrixSolution:
    """Maximin value and mutually best-responding mixed strategies.

    Deterministic for a given matrix; when several equilibria exist the
    returned one is whichever the fixed saddle/pivot path produces.
    """
    values, p, q = _solve(_validate_payoff(payoff)[None])
    return MatrixSolution(float(values[0]), p[0], q[0])


def best_response_value(payoff, opponent, side: str) -> tuple[float, int]:
    """Best pure reply and its payoff against a fixed mixed opponent.

    ``side`` names the responding player: ``"row"`` answers a column mixture,
    ``"col"`` answers a row mixture (and maximizes the negated payoff).
    Returns the lowest-index maximizer.
    """
    a = _validate_payoff(payoff)
    opponent = np.asarray(opponent, dtype=np.float64)
    if side == "row":
        if opponent.shape != (a.shape[1],):
            raise ValueError("opponent mixture must have one entry per column")
        scores = a @ opponent
    elif side == "col":
        if opponent.shape != (a.shape[0],):
            raise ValueError("opponent mixture must have one entry per row")
        scores = -(opponent @ a)
    else:
        raise ValueError("side must be 'row' or 'col'")
    action = int(np.argmax(scores))
    return float(scores[action]), action
