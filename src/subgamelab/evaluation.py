"""Exact oracles and policy-quality metrics.

Every oracle is one dynamic program, run by a single kernel: build each
state's stage matrix r + discount * E[v(s')] and reduce it to a value.
Topologically ordered (finite-horizon) games take one exact backward pass,
a slice of ``GameSpec.levels`` at a time; other games iterate to tolerance.
Only the reducer differs: the maximin of the stage game for the Nash
equilibrium (Shapley 1953), solved by one ``solve_stack`` call for all the
stage games of a slice or a sweep; the best row of the stage matrix
marginalised over a fixed opponent for the exact best response (strictly
stronger than a learned approximation at tabular scale); and the bilinear
form of two fixed policies for the matchup value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import GameSpec, Policy, Rng, rollout, sample_initial
from .matrix_game import solve_stack


@dataclass(frozen=True)
class NESolution:
    """Equilibrium values, Q-values, and policies with the final residual.

    ``residual`` is the sup-norm gap between ``v_star`` and one more backup;
    it is exactly zero on a topologically ordered game (one backward pass)
    and at most the stopping tolerance otherwise. A residual above the requested tolerance flags
    non-convergence within the iteration budget.
    """

    v_star: np.ndarray  # (2, S)
    q_star: np.ndarray  # (2, S, A1, A2)
    ne_policy: Policy
    residual: float

    def converged(self, tol: float) -> bool:
        return self.residual <= tol


def _stages(game: GameSpec, reward: np.ndarray, v_ext: np.ndarray, s) -> np.ndarray:
    """Stage matrices r(s, a) + discount * E[v(s') | s, a] at the states ``s``.

    ``v_ext`` holds one value per state plus a trailing zero for the terminal.
    """
    return reward[s] + game.discount * (game.next_probs[s] * v_ext[game.next_states[s]]).sum(-1)


def _maximin(stages: np.ndarray, s) -> tuple[np.ndarray, np.ndarray]:
    """Shapley's backup: stage-game values, and row and column strategies side by side."""
    values, p, q = solve_stack(stages)
    return values, np.concatenate((p, q), axis=1)


def _sweep(game: GameSpec, reward: np.ndarray, reduce, tol: float, max_iters: int):
    """The dynamic program whose backup applies ``reduce`` to stage matrices.

    ``reduce(stages, s)`` maps the stage matrices of the states ``s`` (a
    slice) to their values and a per-state auxiliary array. A topologically
    ordered game takes one exact backward pass, one ``reduce`` call per
    slice of ``game.levels``. Otherwise Jacobi sweeps over all states run
    until the sup-norm change falls below ``tol`` or ``max_iters`` is spent,
    and one more sweep at the final values gives the stages, the auxiliary
    array and the residual. Returns (v, stages, aux, residual).
    """
    v_ext = np.zeros(game.state_count + 1)
    v = v_ext[:-1]
    if game.levels is not None:
        stages = np.empty(reward.shape)
        parts = []
        for s in game.levels:
            stages[s] = _stages(game, reward, v_ext, s)
            v[s], aux = reduce(stages[s], s)
            parts.append(aux)
        return v, stages, np.concatenate(parts[::-1]), 0.0
    every = slice(None)
    for _ in range(max_iters):
        v_next, _ = reduce(_stages(game, reward, v_ext, every), every)
        change = float(np.abs(v_next - v).max())
        v[:] = v_next
        if change < tol:
            break
    stages = _stages(game, reward, v_ext, every)
    values, aux = reduce(stages, every)
    return v, stages, aux, float(np.abs(values - v).max())


def shapley_backup(game: GameSpec, v1: np.ndarray) -> np.ndarray:
    """One value-iteration sweep for player 1: maximin of each stage matrix."""
    return _maximin(_stages(game, game.reward1, np.append(v1, 0.0), slice(None)), None)[0]


def solve_ne(game: GameSpec, tol: float = 1e-10, max_iters: int = 100_000) -> NESolution:
    """Equilibrium of the full Markov game by stage-wise value iteration."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    v1, q1, strategies, residual = _sweep(game, game.reward1, _maximin, tol, max_iters)
    a1 = game.action_counts[0]
    v_star = np.stack([v1, -v1])
    q_star = np.stack([q1, -q1])
    return NESolution(v_star, q_star, Policy(strategies[:, :a1], strategies[:, a1:]), residual)


def best_response(game: GameSpec, opponent: np.ndarray, player: int,
                  tol: float = 1e-12, max_iters: int = 100_000) -> tuple[np.ndarray, float]:
    """Exact optimal deterministic reply to a fixed opponent mixture.

    ``opponent`` is the other player's (S, A) policy table. Returns the
    one-hot policy (lowest-index argmax) and its value under the game's
    initial distribution.
    """
    if player not in (0, 1):
        raise ValueError("player must be 0 or 1")
    opponent = np.asarray(opponent, dtype=np.float64)
    if opponent.shape != (game.state_count, game.action_counts[1 - player]):
        raise ValueError("opponent policy does not cover this game")

    def reply(stages, s):
        # the stage matrix marginalised over the opponent's mixture
        if player == 0:
            rows = (stages @ opponent[s, :, None])[:, :, 0]
        else:
            rows = (opponent[s, None, :] @ stages)[:, 0, :]
        return rows.max(axis=1), rows

    reward = game.reward1 if player == 0 else -game.reward1
    v, _, rows, _ = _sweep(game, reward, reply, tol, max_iters)
    policy = np.zeros(rows.shape)
    policy[np.arange(game.state_count), rows.argmax(axis=1)] = 1.0
    return policy, float(game.initial_dist @ v)


@dataclass(frozen=True)
class ExploitabilityReport:
    """Both best-response values against the fixed pair, and their sum."""

    br_value_1: float
    br_value_2: float
    total: float
    br_policy_1: np.ndarray
    br_policy_2: np.ndarray


def exploitability(game: GameSpec, joint: Policy) -> ExploitabilityReport:
    """Sum of each player's exact best-response value against the other.

    Zero exactly at a Nash equilibrium and non-negative otherwise; the
    initial-state expectation is computed exactly, not sampled.
    """
    br1, value1 = best_response(game, joint.p2, player=0)
    br2, value2 = best_response(game, joint.p1, player=1)
    return ExploitabilityReport(value1, value2, value1 + value2, br1, br2)


def oracle_weight(state: int, member_values: np.ndarray, oracle: NESolution) -> float:
    """Mean squared gap between signed member values and the NE value.

    ``member_values`` stacks signed value tables (any leading shape, last
    axis indexes states); with the two players' signed tables this equals
    half the sum of both players' squared value errors.
    """
    members = np.asarray(member_values, dtype=np.float64).reshape(-1, oracle.v_star.shape[1])
    gaps = oracle.v_star[0, state] - members[:, state]
    return float(np.mean(gaps**2))


def matchup_value(game: GameSpec, p1: np.ndarray, p2: np.ndarray,
                  tol: float = 1e-12, max_iters: int = 100_000) -> float:
    """Exact expected return of player 1 when both policies are fixed."""
    joint = Policy(p1, p2)  # validates shapes and rows

    def bilinear(stages, s):
        v = (joint.p1[s, None, :] @ stages @ joint.p2[s, :, None])[:, 0, 0]
        return v, v  # no auxiliary output; the values stand in

    v, _, _, _ = _sweep(game, game.reward1, bilinear, tol, max_iters)
    return float(game.initial_dist @ v)


def evaluate_matchup(game: GameSpec, p1: np.ndarray, p2: np.ndarray,
                     episodes: int, rng: Rng, max_steps: int = 10_000) -> float:
    """Monte-Carlo mean of player 1's discounted return from the start states.

    The exact expectation is available from :func:`matchup_value`.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    joint = Policy(p1, p2)
    total = 0.0
    for _ in range(episodes):
        s0 = sample_initial(game, rng)
        traj = rollout(game, joint, s0, rng, max_steps)
        ret = 0.0
        scale = 1.0
        for tr in traj:
            ret += scale * tr.reward1
            scale *= game.discount
        total += ret
    return total / episodes
