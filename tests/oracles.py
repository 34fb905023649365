"""Independent reference computations used to pin expected test values.

Nothing here shares code with the package's solvers: matrix games are solved
by exhaustive support enumeration, and Markov games by recursing over the
game tree with that enumerator at every node. The one exception is
``per_state_value_iteration``, which keeps the equilibrium dynamic program
with one ``solve`` call per state as the reference for the stacked kernel.
"""

from itertools import combinations

import numpy as np

from subgamelab import GameSpec, solve


def support_enumeration_value(payoff, tol=1e-9):
    """Maximin value (and strategies) by checking every support pair.

    For each equal-size support pair, solve the indifference systems and
    keep the first pair whose strategies are feasible and unimprovable.
    """
    a = np.asarray(payoff, dtype=float)
    m, n = a.shape
    for k in range(1, min(m, n) + 1):
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = a[np.ix_(rows, cols)]
                # column mixture making the support rows indifferent at value v
                lhs = np.zeros((k + 1, k + 1))
                lhs[:k, :k] = sub
                lhs[:k, k] = -1.0
                lhs[k, :k] = 1.0
                rhs = np.zeros(k + 1)
                rhs[k] = 1.0
                try:
                    sol = np.linalg.solve(lhs, rhs)
                except np.linalg.LinAlgError:
                    continue
                q_sub, value = sol[:k], sol[k]
                if (q_sub < -tol).any():
                    continue
                q = np.zeros(n)
                q[list(cols)] = np.clip(q_sub, 0.0, None)
                if (a @ q > value + tol).any():
                    continue  # some row response beats the candidate value
                # row mixture making the support columns indifferent
                lhs_t = np.zeros((k + 1, k + 1))
                lhs_t[:k, :k] = sub.T
                lhs_t[:k, k] = -1.0
                lhs_t[k, :k] = 1.0
                try:
                    sol_t = np.linalg.solve(lhs_t, rhs)
                except np.linalg.LinAlgError:
                    continue
                p_sub = sol_t[:k]
                if (p_sub < -tol).any():
                    continue
                p = np.zeros(m)
                p[list(rows)] = np.clip(p_sub, 0.0, None)
                if (p @ a < value - tol).any():
                    continue  # some column response undercuts the value
                return float(value), p, q
    raise AssertionError("support enumeration found no equilibrium")


def tree_maximin_values(game: GameSpec) -> np.ndarray:
    """Player 1's equilibrium state values by backward game-tree recursion.

    Requires a topologically ordered game (all built-in environments are).
    Every node's stage matrix is solved by support enumeration, keeping this
    path fully independent of the package's simplex.
    """
    assert game.levels is not None
    s_count = game.state_count
    v_ext = np.zeros(s_count + 1)
    for s in range(s_count - 1, -1, -1):
        ev = (game.next_probs[s] * v_ext[game.next_states[s]]).sum(axis=2)
        stage = game.reward1[s] + game.discount * ev
        v_ext[s], _, _ = support_enumeration_value(stage)
    return v_ext[:s_count]


def random_game(rng, states=4, a1=2, a2=3, gamma=0.9, branching=2) -> GameSpec:
    """A small random stochastic game (possibly cyclic) for property tests."""
    dense = np.zeros((states, a1, a2, states + 1))
    for s in range(states):
        for i in range(a1):
            for j in range(a2):
                support = rng.choice(states + 1, size=min(branching, states + 1),
                                     replace=False)
                probs = rng.random(support.size) + 0.1
                dense[s, i, j, support] = probs / probs.sum()
    reward1 = rng.uniform(-1.0, 1.0, size=(states, a1, a2))
    rho = rng.random(states) + 0.1
    rho /= rho.sum()
    features = rng.random((states, 2))
    return GameSpec.from_dense(dense, reward1, gamma, rho, features=features)


def random_acyclic_game(rng, states=5, a1=2, a2=2, support=2, gamma=0.9) -> GameSpec:
    """A random stochastic game whose live successors all lie above each state.

    Each (state, action pair) draws ``support`` successors from the states
    above it and the terminal. With two or more, a slot may get probability
    zero and any index, even a lower one, which must not count as an edge.
    """
    shape = (states, a1, a2, support)
    next_states = np.empty(shape, dtype=np.int64)
    for s in range(states):
        next_states[s] = rng.integers(s + 1, states + 1, size=shape[1:])
    next_probs = rng.dirichlet(np.ones(support), size=shape[:3])
    if support > 1:
        dead = rng.random(shape[:3]) < 0.3
        next_states[..., 0][dead] = rng.integers(0, states + 1, size=int(dead.sum()))
        next_probs[..., 1][dead] += next_probs[..., 0][dead]
        next_probs[..., 0][dead] = 0.0
    reward1 = rng.uniform(-1.0, 1.0, size=shape[:3])
    rho = rng.random(states) + 0.1
    return GameSpec(next_states, next_probs, reward1, gamma, rho / rho.sum(),
                    rng.random((states, 2)))


def dense_matchup_values(game: GameSpec, p1, p2) -> np.ndarray:
    """Player 1's state values under a fixed joint policy: (I - gamma P)^-1 r."""
    s_count = game.state_count
    joint = np.einsum("sa,sb->sab", p1, p2)
    transition = np.zeros((s_count, s_count + 1))
    for s in range(s_count):
        np.add.at(transition[s], game.next_states[s].ravel(),
                  (joint[s][..., None] * game.next_probs[s]).ravel())
    reward = (joint * game.reward1).sum(axis=(1, 2))
    lhs = np.eye(s_count) - game.discount * transition[:, :s_count]
    return np.linalg.solve(lhs, reward)


def per_state_value_iteration(game: GameSpec, tol=1e-10, max_iters=100_000):
    """``solve_ne``'s dynamic program with each state's stage game solved alone.

    A topologically ordered game takes one backward pass, state by state from
    the top index; any other game takes Jacobi sweeps until the sup-norm
    change falls below ``tol``, then one more sweep at the final values.
    Returns player 1's values and stage matrices, both players' strategies
    and the residual.
    """
    s_count = game.state_count
    a1 = game.action_counts[0]
    v_ext = np.zeros(s_count + 1)

    def stage(s):
        ev = (game.next_probs[s] * v_ext[game.next_states[s]]).sum(-1)
        return game.reward1[s] + game.discount * ev

    def sweep():
        stages = np.array([stage(s) for s in range(s_count)])
        sols = [solve(a) for a in stages]
        return (stages, np.array([sol.value for sol in sols]),
                np.array([np.concatenate((sol.row_strategy, sol.col_strategy)) for sol in sols]))

    if game.levels is not None:
        stages = np.empty(game.reward1.shape)
        strategies = np.empty((s_count, sum(game.action_counts)))
        for s in range(s_count - 1, -1, -1):
            stages[s] = stage(s)
            sol = solve(stages[s])
            v_ext[s] = sol.value
            strategies[s] = np.concatenate((sol.row_strategy, sol.col_strategy))
        residual = 0.0
    else:
        for _ in range(max_iters):
            _, values, _ = sweep()
            change = float(np.abs(values - v_ext[:-1]).max())
            v_ext[:-1] = values
            if change < tol:
                break
        stages, values, strategies = sweep()
        residual = float(np.abs(values - v_ext[:-1]).max())
    return v_ext[:-1], stages, strategies[:, :a1], strategies[:, a1:], residual
