"""Exact oracles and policy-quality metrics.

Every oracle is exact and finishes in a finite number of steps. A
topologically ordered (finite-horizon) game takes one backward pass, a
slice of ``GameSpec.levels`` at a time, which builds each state's stage
matrix r + discount * E[v(s')] and reduces it to a value. The pass keeps
only the values and each reducer's per-state output, (v, aux); a reducer
that needs the stage matrices (the equilibrium's Q*) stores them itself.
Only the reducer differs: the maximin of the stage game for the Nash
equilibrium (Shapley 1953), solved by one ``solve_stack`` call for all the
stage games of a slice; the best row of the stage matrix marginalised over
a fixed opponent for the exact best response (strictly stronger than a
learned approximation at tabular scale); and the bilinear form of two
fixed policies for the matchup value. On a slice of many states the
expectation over a short successor support and the best reply's max are
chains of elementwise calls (``game._reduce_short``), bit for bit numpy's
reductions at a fraction of their cost there.

A cyclic game has no such order. There the oracles rest on one
policy-evaluation kernel: the values of a fixed pair of mixtures are one
linear solve of (I - discount * P) v = r. The matchup value is that solve;
the best response is policy iteration on it (Howard 1960). The equilibrium
is strategy iteration from Shapley backups, one ``solve_stack`` call each.
Its steps are Newton's (Pollatschek and Avi-Itzhak 1969): the values of both
players' stage strategies at the current values, one linear solve, kept
while each at least halves the Shapley gap. Where one does not, a
Hoffman-Karp step (1966; see Filar and Vrieze 1997) stands in: policy
iteration for the minimizer's exact reply to the maximizer's stage
strategies. Newton alone can cycle (van der Wal 1978); the fallback makes
the iteration converge, and the Newton steps make it quadratic near the
end: a 25-state game with 4 or 5 actions takes about six ``solve_stack``
calls and five linear solves, against 23 calls and 67 solves by
Hoffman-Karp alone. The solve is dense, (S, S), which suits S up to a few
thousand states. At discount 1 every pair of policies must reach the
terminal from every state with probability one; a pair that does not
makes I - P singular and raises ``ValueError`` (a Newton step whose pair
does not end is only refused).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import _TALL, GameSpec, Policy, _reduce_short
from .matrix_game import solve_stack

# strategy iteration stops once no value moves by more than this times
# max|r| / (1 - discount), or times max|r| at discount 1
_STOP = 1e-13
# policy iteration switches a state's action only when the best action beats
# it by more than this times the largest stage entry, so rounding in the
# linear solve cannot swap two near-equal actions back and forth
_GAIN = 1e-12
# the most steps strategy iteration and policy iteration take, so no input
# can make either hang; strategy iteration reports its residual when it
# runs out, policy iteration (which settles in a few steps) raises
_MAX_STEPS = 200
_MAX_POLICY_STEPS = 1000


@dataclass(frozen=True)
class NESolution:
    """Equilibrium values, Q-values, and policies with the final residual.

    ``residual`` is the sup-norm gap between ``v_star`` and one more Shapley
    backup. It is exactly zero on a topologically ordered game (one backward
    pass). On a cyclic game it is what strategy iteration left, at most
    about 1e-13 x max|r| / (1 - discount) on payoffs of scale 1 to 1e8, and
    larger where the stage-game solver's absolute tolerance binds (payoffs
    far below 1) or the step bound was spent; it is measured, never assumed.
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
    successors = game.next_probs[s] * v_ext[game.next_states[s]]
    expected = (successors.sum(-1) if len(successors) < _TALL
                else _reduce_short(np.add, successors, -1))
    return reward[s] + game.discount * expected


def _maximin(stages: np.ndarray, s) -> tuple[np.ndarray, np.ndarray]:
    """Shapley's backup: stage-game values, and row and column strategies side by side."""
    values, p, q = solve_stack(stages)
    return values, np.concatenate((p, q), axis=1)


def _marginal(stages: np.ndarray, opponent: np.ndarray, player: int) -> np.ndarray:
    """``player``'s stage rows: the stage matrices marginalised over the opponent's mixture."""
    if player == 0:
        return (stages @ opponent[:, :, None])[:, :, 0]
    return (opponent[:, None, :] @ stages)[:, 0, :]


def _backward(game: GameSpec, reward: np.ndarray, reduce):
    """One exact backward pass over ``game.levels`` with the backup ``reduce``.

    ``reduce(stages, s)`` maps the stage matrices of the states ``s`` (a
    slice) to their values and a per-state auxiliary array. The stage
    matrices are not kept; a reducer that needs them stores them. Returns
    (v, aux).
    """
    v_ext = np.zeros(game.state_count + 1)
    v = v_ext[:-1]
    parts = []
    for s in game.levels:
        v[s], aux = reduce(_stages(game, reward, v_ext, s), s)
        parts.append(aux)
    return v, np.concatenate(parts[::-1])


def _evaluate(game: GameSpec, reward: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """State values of the fixed mixtures ``p1``, ``p2``: one solve of (I - discount * P) v = r.

    Raises ``ValueError`` at discount 1 when some state never reaches the
    terminal under the pair, which makes I - P singular.
    """
    s_count = game.state_count
    joint = p1[:, :, None] * p2[:, None, :]
    # row s of ``chain`` spreads the joint action's successor probabilities
    # over the S states and the terminal (the last column)
    flat = game.next_states + (s_count + 1) * np.arange(s_count)[:, None, None, None]
    chain = np.bincount(flat.ravel(), (joint[..., None] * game.next_probs).ravel(),
                        minlength=s_count * (s_count + 1)).reshape(s_count, s_count + 1)
    if game.discount == 1.0:
        ends = chain[:, -1] > 0.0  # states that can reach the terminal
        while True:
            grown = ends | (chain[:, :-1][:, ends] > 0.0).any(axis=1)
            if np.array_equal(grown, ends):
                break
            ends = grown
        if not ends.all():
            stuck = np.flatnonzero(~ends).tolist()
            raise ValueError(f"discount 1 needs every state to reach the terminal, but under "
                             f"these policies states {stuck} never do (I - P is singular)")
    lhs = np.eye(s_count) - game.discount * chain[:, :-1]
    return np.linalg.solve(lhs, (joint * reward).sum(axis=(1, 2)))


def _policy_iteration(game: GameSpec, reward: np.ndarray, opponent: np.ndarray, player: int,
                      actions: np.ndarray | None = None):
    """``player``'s exact best reply to a fixed ``opponent`` mixture on a cyclic game.

    Howard's policy iteration on ``player``'s MDP: evaluate the
    deterministic policy ``actions`` (one action per state; by default the
    greedy reply at v = 0) with one linear solve, then switch every state
    whose best action beats its current one by more than ``_GAIN`` times
    the largest stage entry. Returns the values, the stage rows at them and
    the final actions.
    """
    every = np.arange(game.state_count)
    one_hot = np.eye(game.action_counts[player])
    if actions is None:
        actions = _marginal(reward, opponent, player).argmax(axis=1)
    v_ext = np.zeros(game.state_count + 1)
    for _ in range(_MAX_POLICY_STEPS):
        own = one_hot[actions]
        pair = (own, opponent) if player == 0 else (opponent, own)
        v_ext[:-1] = _evaluate(game, reward, *pair)
        rows = _marginal(_stages(game, reward, v_ext, slice(None)), opponent, player)
        best = rows.argmax(axis=1)
        switch = rows[every, best] - rows[every, actions] > _GAIN * np.abs(rows).max()
        if not switch.any():
            return v_ext[:-1], rows, actions
        actions = np.where(switch, best, actions)
    raise ArithmeticError(f"policy iteration did not settle within {_MAX_POLICY_STEPS} steps")


def _strategy_iteration(game: GameSpec):
    """Strategy iteration for the equilibrium of a cyclic game: Newton steps, Hoffman-Karp guard.

    Each backup at the values v is one ``solve_stack`` call, which gives the
    Shapley values T v and both players' stage strategies p and q. A step
    first tries Newton's move (Pollatschek and Avi-Itzhak 1969): v' is the
    value of the fixed pair (p, q), one linear solve. It keeps v' when the
    backup at v' at least halves the gap |T v - v|. Otherwise (or when the
    pair never ends at discount 1) it restores v and takes the Hoffman-Karp
    step: the minimizer's exact reply to p by policy iteration, warm-started
    from the last reply, and a backup there. Newton alone can cycle (van
    der Wal 1978), so after a refused Newton move none is tried again until
    the gap has halved. The iteration stops when the gap or the step's
    change in v is at most ``_STOP`` times the payoff scale, or after
    ``_MAX_STEPS`` steps, each of at most two ``solve_stack`` calls; the
    stages, strategies and residual are those of the last backup.
    Returns (v, stages, strategies, residual).
    """
    reward = game.reward1
    horizon = 1.0 if game.discount == 1.0 else 1.0 / (1.0 - game.discount)
    stop = _STOP * float(np.abs(reward).max()) * horizon
    every = slice(None)
    v_ext = np.zeros(game.state_count + 1)
    v = v_ext[:-1]

    def backup():
        stages = _stages(game, reward, v_ext, every)
        values, p, q = solve_stack(stages)
        return float(np.abs(values - v).max()), stages, p, q

    gap, stages, p, q = backup()
    newton_below = np.inf  # try Newton only while the gap is at most this
    actions = None
    for _ in range(_MAX_STEPS):
        if gap <= stop:
            break
        before = v.copy()
        step = None
        if gap <= newton_below:
            try:
                v[:] = _evaluate(game, reward, p, q)
            except ValueError:  # at discount 1, the pair (p, q) need not end
                pass
            else:
                step = backup()
            if step is None or step[0] > 0.5 * gap:
                step = None
                newton_below = 0.5 * gap
        if step is None:  # Hoffman-Karp; the reply's values replace v
            reply, _, actions = _policy_iteration(game, -reward, p, 1, actions)
            v[:] = -reply
            step = backup()
        gap, stages, p, q = step
        if float(np.abs(v - before).max()) <= stop:
            break
    return v, stages, np.concatenate((p, q), axis=1), gap


def solve_ne(game: GameSpec) -> NESolution:
    """Equilibrium of the full Markov game.

    One backward pass of Shapley backups on a topologically ordered game;
    strategy iteration, Newton steps with a Hoffman-Karp fallback, on a
    cyclic one (see the module notes for its size limit and the discount-1
    requirement).
    """
    q_star = np.empty((2, *game.reward1.shape))
    if game.levels is not None:
        def shapley(stages, s):  # the stage matrices are player 1's Q*
            q_star[0, s] = stages
            return _maximin(stages, s)

        v1, strategies = _backward(game, game.reward1, shapley)
        residual = 0.0
    else:
        v1, q_star[0], strategies, residual = _strategy_iteration(game)
    np.negative(q_star[0], out=q_star[1])
    a1 = game.action_counts[0]
    v_star = np.stack([v1, -v1])
    return NESolution(v_star, q_star, Policy(strategies[:, :a1], strategies[:, a1:]), residual)


def best_response(game: GameSpec, opponent: np.ndarray, player: int) -> tuple[np.ndarray, float]:
    """Exact optimal deterministic reply to a fixed opponent mixture.

    ``opponent`` is the other player's (S, A) policy table. Returns the
    one-hot policy (lowest-index argmax of the stage rows at the reply's
    values) and its value under the game's initial distribution. A cyclic
    game takes policy iteration (see the module notes).
    """
    if player not in (0, 1):
        raise ValueError("player must be 0 or 1")
    opponent = np.asarray(opponent, dtype=np.float64)
    if opponent.shape != (game.state_count, game.action_counts[1 - player]):
        raise ValueError("opponent policy does not cover this game")

    def reply(stages, s):
        rows = _marginal(stages, opponent[s], player)
        best = rows.max(axis=1) if len(rows) < _TALL else _reduce_short(np.maximum, rows, 1)
        return best, rows

    reward = game.reward1 if player == 0 else -game.reward1
    if game.levels is not None:
        v, rows = _backward(game, reward, reply)
    else:
        v, rows, _ = _policy_iteration(game, reward, opponent, player)
    policy = np.zeros(rows.shape)
    policy[np.arange(game.state_count), rows.argmax(axis=1)] = 1.0
    return policy, float(game.initial_dist @ v)


@dataclass(frozen=True)
class ExploitabilityReport:
    """Both best-response values against the fixed pair, and their sum."""

    br_value_1: float
    br_value_2: float
    total: float


def exploitability(game: GameSpec, joint: Policy) -> ExploitabilityReport:
    """Sum of each player's exact best-response value against the other.

    Zero exactly at a Nash equilibrium and non-negative otherwise; the
    initial-state expectation is computed exactly, not sampled.
    """
    _, value1 = best_response(game, joint.p2, player=0)
    _, value2 = best_response(game, joint.p1, player=1)
    return ExploitabilityReport(value1, value2, value1 + value2)


def oracle_weight(state: int, members: np.ndarray, oracle: NESolution) -> float:
    """Mean squared gap between the member values at ``state`` and the NE value.

    ``members`` is the curriculum's (S, 2M) member matrix: row s holds,
    learner by learner, player 1's value and player 2's value negated. With
    both players' values this equals half the sum of both players' squared
    value errors.
    """
    gaps = oracle.v_star[0, state] - np.asarray(members, dtype=np.float64)[state]
    return float(np.mean(gaps**2))


def matchup_value(game: GameSpec, p1: np.ndarray, p2: np.ndarray) -> float:
    """Exact expected return of player 1 when both policies are fixed.

    One backward pass on a topologically ordered game; one linear solve on
    a cyclic one (see the module notes).
    """
    joint = Policy(p1, p2)  # validates shapes and rows

    def bilinear(stages, s):
        v = (joint.p1[s, None, :] @ stages @ joint.p2[s, :, None])[:, 0, 0]
        return v, v  # no auxiliary output; the values stand in

    if game.levels is not None:
        v = _backward(game, game.reward1, bilinear)[0]
    else:
        v = _evaluate(game, game.reward1, joint.p1, joint.p2)
    return float(game.initial_dist @ v)
