"""Reference computations that share no code with the package's solvers.

Matrix games are solved by scipy's HiGHS ``linprog``, after an exact
pure-saddle test; grid pursuit is rebuilt from its rules and solved by
backward recursion over (predator, prey, time). Nothing here imports
``subgamelab``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog


def lp_value(a: np.ndarray) -> float:
    """Maximin value of the row player by HiGHS.

    Variables are the row mixture p and the value v: maximize v subject to
    p'a[:, j] >= v for every column j, sum p = 1, p >= 0.
    """
    m, n = a.shape
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-a.T, np.ones((n, 1))])
    a_eq = np.hstack([np.ones((1, m)), np.zeros((1, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0.0, None)] * m + [(None, None)], method="highs")
    if res.status != 0:
        raise ArithmeticError(f"HiGHS failed: {res.message}")
    return float(-res.fun)


def stage_values(stages: np.ndarray) -> np.ndarray:
    """Maximin values of a batch (N, A1, A2) of stage matrices.

    A matrix whose largest row minimum equals its smallest column maximum
    has that number as its value; every other matrix goes to HiGHS.
    """
    lower = stages.min(axis=2).max(axis=1)
    upper = stages.max(axis=1).min(axis=1)
    values = lower.copy()
    for i in np.flatnonzero(lower != upper):
        values[i] = lp_value(stages[i])
    return values


_MOVES = ((0, 0), (0, -1), (0, 1), (-1, 0), (1, 0))  # stay, up, down, left, right


def grid_pursuit(width: int, height: int, horizon: int,
                 capture_reward: float) -> tuple[np.ndarray, np.ndarray]:
    """Predator's equilibrium values and stage matrices of grid pursuit.

    Returns V[t, predator cell, prey cell] and Q[t, predator cell, prey cell,
    predator move, prey move]. Both agents move at once among stay, up,
    down, left and right, clamped at the walls. Landing on the prey or
    swapping cells captures and pays the reward; the game ends unpaid after
    ``horizon`` steps. Entries with equal cells are unused and left at zero.
    """
    cells = width * height
    x, y = np.arange(cells) % width, np.arange(cells) // width
    step = np.empty((cells, len(_MOVES)), dtype=np.int64)
    for k, (dx, dy) in enumerate(_MOVES):
        step[:, k] = (np.clip(y + dy, 0, height - 1) * width
                      + np.clip(x + dx, 0, width - 1))
    pred, prey = np.meshgrid(np.arange(cells), np.arange(cells), indexing="ij")
    pred_next = step[pred][:, :, :, None]  # (C, C, 5, 1)
    prey_next = step[prey][:, :, None, :]  # (C, C, 1, 5)
    captured = ((pred_next == prey_next)
                | ((pred_next == prey[:, :, None, None])
                   & (prey_next == pred[:, :, None, None])))
    live = pred != prey
    values = np.zeros((horizon + 1, cells, cells))
    stages = np.zeros((horizon, cells, cells, len(_MOVES), len(_MOVES)))
    for t in range(horizon - 1, -1, -1):
        stages[t] = np.where(captured, capture_reward, values[t + 1][pred_next, prey_next])
        stages[t][~live] = 0.0
        values[t][live] = stage_values(stages[t][live])
    return values[:horizon], stages


def grid_state_index(features: np.ndarray, width: int, height: int,
                     horizon: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, predator cell, prey cell) of states given by grid-pursuit features.

    Features are (predator x, predator y, prey x, prey y, t), each scaled to
    [0, 1]; the lookup undoes the scaling.
    """
    scale = np.array([width - 1, height - 1, width - 1, height - 1,
                      max(horizon - 1, 1)], dtype=np.float64)
    px, py, ex, ey, t = np.rint(features * scale).astype(np.int64).T
    return t, py * width + px, ey * width + ex


def bellman_gaps(next_states: np.ndarray, next_probs: np.ndarray,
                 reward1: np.ndarray, discount: float,
                 v: np.ndarray) -> np.ndarray:
    """|v(s) - maximin of the stage matrix that v induces at s|, per state.

    ``next_states`` index into v; the value past the last state is the
    terminal outcome, worth zero.
    """
    v_ext = np.append(v, 0.0)
    stages = reward1 + discount * (next_probs * v_ext[next_states]).sum(axis=3)
    return np.abs(stage_values(stages) - v)
