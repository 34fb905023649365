"""Independent reference computations used to pin expected test values.

Nothing here shares code with the package's solvers: matrix games are solved
by exhaustive support enumeration, and Markov games by recursing over the
game tree with that enumerator at every node. The exceptions keep earlier,
simpler forms of package code as references for faster ones:
``shapley_backup`` and ``per_state_value_iteration`` are the equilibrium
dynamic program with one ``solve`` call per state, the reference for the
stacked kernel (and, by value iteration, an independent check of strategy
iteration on cyclic games), and ``DictCacheQTable`` with its three functions is the
minimax-Q learner with a dict of per-(player, state) ``solve`` results, the
reference for the learner's per-state stage store, and ``reference_rollout``
is the episode loop with ``np.searchsorted`` draws and one tuple per step,
the reference for the scalar ``rollout``, and ``merge_buffer_insert`` is
the buffer insert that always merges, the reference for its member-only
fast path, and ``loop_grid_pursuit`` is the grid-pursuit builder as one
Python loop per (state, action pair), the reference for the array-built
``make_grid_pursuit``, and ``hoffman_karp_strategy_iteration`` is the
cyclic equilibrium solver as pure Hoffman-Karp strategy iteration (no
Newton steps), the reference for the safeguarded Newton iteration of
``solve_ne``. ``dense_game`` builds small
hand-written games from a dense transition tensor, ``stopping_game`` turns
a game into one that ends under every pair of policies at discount 1,
``random_layered_game`` makes acyclic games whose level slices hold many
states; ``episode_of`` and
``steps_of`` convert between an ``Episode`` and its per-step tuples.
"""

from itertools import combinations, product

import numpy as np

from subgamelab import (Episode, GameSpec, GridPursuitParams, Policy, WeightedStateBuffer,
                        solve)
from subgamelab.envs import MOVES
from subgamelab.evaluation import (_MAX_STEPS, _STOP, _maximin, _policy_iteration, _stages,
                                   solve_stack)


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


def dense_game(transition, reward1, discount, initial_dist, features=None) -> GameSpec:
    """A game from a dense (S, A1, A2, S+1) transition tensor.

    Column S is the terminal outcome; the padded support width is the largest
    per-row support size. Features default to the normalised state index.
    """
    transition = np.asarray(transition, dtype=np.float64)
    s_count = transition.shape[0]
    assert transition.shape[3] == s_count + 1, "dense transition needs S+1 outcome columns"
    support = transition > 0.0
    k = max(int(support.sum(axis=3).max()), 1)
    ns = np.full(transition.shape[:3] + (k,), s_count, dtype=np.int64)
    npr = np.zeros(transition.shape[:3] + (k,))
    for index in np.ndindex(*transition.shape[:3]):
        idx = np.flatnonzero(support[index])
        ns[index][: idx.size] = idx
        npr[index][: idx.size] = transition[index][idx]
    if features is None:
        features = (np.arange(s_count, dtype=np.float64) / max(s_count - 1, 1)).reshape(-1, 1)
    return GameSpec(ns, npr, reward1, discount, initial_dist, features)


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
    return dense_game(dense, reward1, gamma, rho, features=features)


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


def random_layered_game(rng, layers=3, width=100, a1=4, a2=5, support=2,
                        gamma=0.9) -> GameSpec:
    """A random acyclic game of ``layers`` blocks of ``width`` states; each block is one level.

    A state's ``support`` successors lie in the next block (the last block's
    end the game), so the backward pass solves ``width`` stage games per
    slice. Rewards are halves in [-1, 1] rounded from uniforms, so zeros,
    -0.0 and tied entries are common.
    """
    s_count = layers * width
    shape = (s_count, a1, a2, support)
    next_block = (np.arange(s_count) // width + 1) * width
    next_states = np.minimum(next_block[:, None, None, None] + rng.integers(0, width, shape),
                             s_count)
    next_probs = rng.dirichlet(np.ones(support), size=shape[:3])
    reward1 = np.round(rng.uniform(-2.0, 2.0, size=shape[:3])) / 2.0
    rho = rng.random(s_count) + 0.1
    return GameSpec(next_states, next_probs, reward1, gamma, rho / rho.sum(),
                    rng.random((s_count, 2)))


def stopping_game(game: GameSpec, stop: float) -> GameSpec:
    """``game`` at discount 1, with every transition row sending ``stop`` of its mass to the terminal.

    Every pair of policies then ends with probability one, so the values are
    finite and I - P is invertible for every fixed pair.
    """
    pad = game.next_states.shape[:3] + (1,)
    next_states = np.concatenate([game.next_states, np.full(pad, game.state_count)], axis=3)
    next_probs = np.concatenate([(1.0 - stop) * game.next_probs, np.full(pad, stop)], axis=3)
    return GameSpec(next_states, next_probs, game.reward1, 1.0, game.initial_dist,
                    game.features)


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


def shapley_backup(game: GameSpec, v1) -> np.ndarray:
    """One value-iteration sweep for player 1: each state's stage game solved alone."""
    v_ext = np.append(v1, 0.0)
    stages = game.reward1 + game.discount * (game.next_probs * v_ext[game.next_states]).sum(-1)
    return np.array([solve(a).value for a in stages])


def per_state_value_iteration(game: GameSpec, tol=1e-10, max_iters=100_000):
    """The equilibrium dynamic program with each state's stage game solved alone.

    A topologically ordered game takes one backward pass, state by state from
    the top index, as ``solve_ne`` does; any other game takes Jacobi value
    iteration sweeps until the sup-norm change falls below ``tol``, then one
    more sweep at the final values.
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


class DictCacheQTable:
    """The learner's Q-tables with a dict stage cache beside a dirty value table.

    ``stage_cache`` maps (player, state) to that state's ``solve`` result and
    is dropped whenever the row is written; ``values`` holds each state's
    pair of stage values, refreshed by ``dict_cache_values_from_q`` for the
    rows marked in ``dirty``.
    """

    def __init__(self, game: GameSpec):
        a1, a2 = game.action_counts
        self.q = np.zeros((2, game.state_count, a1, a2))
        self.visits = np.zeros((game.state_count, a1, a2), dtype=np.int64)
        self.stage_cache = {}
        self.values = np.zeros((2, game.state_count))
        self.dirty = np.ones(game.state_count, dtype=bool)

    def stage_solution(self, player, state):
        key = (player, state)
        cached = self.stage_cache.get(key)
        if cached is None:
            matrix = self.q[0, state] if player == 0 else self.q[1, state].T
            cached = solve(matrix)
            self.stage_cache[key] = cached
        return cached

    def invalidate(self, state):
        self.stage_cache.pop((0, state), None)
        self.stage_cache.pop((1, state), None)
        self.dirty[state] = True


def dict_cache_minimax_q_update(q: DictCacheQTable, episode: Episode, cfg, discount):
    """The minimax-Q backup of every step, in order, for both players."""
    terminal = q.q.shape[1]
    for s, a1, a2, r, nxt in steps_of(episode):
        prior = int(q.visits[s, a1, a2])
        if cfg.lr_decay is None:
            alpha = cfg.lr
        elif cfg.lr_decay == "visit_count":
            alpha = cfg.lr / (1.0 + prior)
        else:
            alpha = cfg.lr * cfg.lr_decay**prior
        q.visits[s, a1, a2] += 1
        if alpha == 0.0:
            continue
        changed = False
        for player in (0, 1):
            reward = r if player == 0 else -r
            backup = 0.0 if nxt == terminal else q.stage_solution(player, nxt).value
            target = reward + discount * backup
            old = q.q[player, s, a1, a2]
            new = (1.0 - alpha) * old + alpha * target
            if new != old:
                q.q[player, s, a1, a2] = new
                changed = True
        if changed:
            q.invalidate(s)
    return q


def dict_cache_exploration_policy(q: DictCacheQTable, epsilon: float) -> Policy:
    """Epsilon-mixture of uniform play and each player's maximin strategy, per state."""
    _, s_count, a1, a2 = q.q.shape
    p1 = np.full((s_count, a1), epsilon / a1)
    p2 = np.full((s_count, a2), epsilon / a2)
    if epsilon < 1.0:
        for s in range(s_count):
            p1[s] += (1.0 - epsilon) * q.stage_solution(0, s).row_strategy
            p2[s] += (1.0 - epsilon) * q.stage_solution(1, s).row_strategy
    return Policy(p1, p2)


def dict_cache_values_from_q(q: DictCacheQTable) -> np.ndarray:
    """(2, S) copy of the stage values, re-solving the rows written since last time."""
    for s in np.flatnonzero(q.dirty).tolist():
        q.values[0, s] = q.stage_solution(0, s).value
        q.values[1, s] = q.stage_solution(1, s).value
    q.dirty[:] = False
    return q.values.copy()


def episode_of(steps) -> Episode:
    """An Episode from (state, action1, action2, reward1, next_state) tuples."""
    columns = [list(c) for c in zip(*steps)] if steps else [[] for _ in range(5)]
    return Episode(*columns)


def steps_of(episode: Episode) -> list[tuple]:
    """The (state, action1, action2, reward1, next_state) tuple of each step."""
    return list(zip(episode.states, episode.actions1, episode.actions2,
                    episode.rewards1, episode.next_states))


def searchsorted_draw(cum: np.ndarray, rng) -> int:
    """Inverse-CDF draw with ``np.searchsorted``, clamped to the last index."""
    idx = int(np.searchsorted(cum, rng.random(), side="right"))
    return min(idx, cum.shape[0] - 1)


def reference_rollout(game: GameSpec, policy: Policy, s0: int, rng,
                      max_steps: int) -> list[tuple]:
    """One episode as (state, action1, action2, reward1, next_state, terminal) tuples.

    Draws player 1's action, player 2's action and, on a stochastic kernel,
    the successor from the numpy CDF rows, one uniform each.
    """
    cum1, cum2 = np.cumsum(policy.p1, axis=1), np.cumsum(policy.p2, axis=1)
    deterministic = game.next_states.shape[3] == 1
    traj = []
    s = int(s0)
    for _ in range(max_steps):
        a1 = searchsorted_draw(cum1[s], rng)
        a2 = searchsorted_draw(cum2[s], rng)
        if deterministic:
            nxt = int(game.next_states[s, a1, a2, 0])
        else:
            k = searchsorted_draw(np.cumsum(game.next_probs[s, a1, a2]), rng)
            nxt = int(game.next_states[s, a1, a2, k])
        r = float(game.reward1[s, a1, a2])
        done = nxt == game.terminal_index
        traj.append((s, a1, a2, r, nxt, done))
        if done:
            break
        s = nxt
    return traj


def merge_buffer_insert(buf: WeightedStateBuffer, states) -> WeightedStateBuffer:
    """``buffer_insert`` without its member-only fast path: every batch merged."""
    newest = {int(s): float(w) for s, w in states}
    if not newest:
        return buf
    new_states = np.array(sorted(newest), dtype=np.int64)
    new_weights = np.array([newest[s] for s in new_states.tolist()])
    pos = np.minimum(np.searchsorted(new_states, buf.states), new_states.size - 1)
    old = new_states[pos] != buf.states
    merged = np.concatenate([buf.states[old], new_states])
    order = np.argsort(merged, kind="stable")
    buf.states = merged[order]
    buf.weights = np.concatenate([buf.weights[old], new_weights])[order]
    return buf


def feature_game(points, states=None) -> GameSpec:
    """A game whose state ``states[i]`` has the feature row ``points[i]``.

    ``states`` defaults to 0..n-1 and the state count is one past the
    largest; every other state's features are zero. Each state has one
    action per player and ends the game, so only the features matter: FPS
    tests place their points here.
    """
    points = np.asarray(points, dtype=np.float64)
    states = np.arange(len(points)) if states is None else np.asarray(states)
    s_count = int(states.max()) + 1
    features = np.zeros((s_count, points.shape[1]))
    features[states] = points
    rho = np.zeros(s_count)
    rho[0] = 1.0
    return GameSpec(np.full((s_count, 1, 1, 1), s_count), np.ones((s_count, 1, 1, 1)),
                    np.zeros((s_count, 1, 1)), 1.0, rho, features)


def loop_grid_pursuit(params: GridPursuitParams) -> GameSpec:
    """Predator-prey pursuit built by one loop over (t, predator, prey, a1, a2).

    The loop form of ``make_grid_pursuit``, which must equal it bit for bit.

    A state is (predator cell, prey cell, timestep) with distinct cells; both
    agents pick one of five moves at once. Landing on the prey's cell or
    swapping cells captures (swap counts so the prey cannot pass through the
    predator), paying the predator +capture_reward and ending the episode.
    Reaching the horizon without a capture ends with zero reward. Episodes
    start uniformly over the distinct-cell configurations at t=0. Features
    are the two cell coordinates and the timestep, each scaled to [0, 1].
    """
    w, h, hor = params.width, params.height, params.horizon
    cells = w * h
    pairs = [(p, e) for p, e in product(range(cells), repeat=2) if p != e]
    pair_index = {pe: i for i, pe in enumerate(pairs)}
    per_step = len(pairs)
    s_count = per_step * hor
    terminal = s_count

    def clamp_move(cell: int, move: int) -> int:
        x, y = cell % w, cell // w
        dx, dy = MOVES[move]
        nx = min(max(x + dx, 0), w - 1)
        ny = min(max(y + dy, 0), h - 1)
        return ny * w + nx

    next_states = np.full((s_count, 5, 5, 1), terminal, dtype=np.int64)
    next_probs = np.ones((s_count, 5, 5, 1))
    reward1 = np.zeros((s_count, 5, 5))
    features = np.zeros((s_count, 5))
    for t in range(hor):
        for (p, e), pi in pair_index.items():
            s = t * per_step + pi
            features[s] = (
                (p % w) / (w - 1),
                (p // w) / (h - 1),
                (e % w) / (w - 1),
                (e // w) / (h - 1),
                t / (hor - 1) if hor > 1 else 0.0,
            )
            for a1 in range(5):
                p_new = clamp_move(p, a1)
                for a2 in range(5):
                    e_new = clamp_move(e, a2)
                    captured = p_new == e_new or (p_new == e and e_new == p)
                    if captured:
                        reward1[s, a1, a2] = params.capture_reward
                    elif t + 1 < hor:
                        next_states[s, a1, a2, 0] = (t + 1) * per_step + pair_index[(p_new, e_new)]
    rho = np.zeros(s_count)
    rho[:per_step] = 1.0 / per_step
    return GameSpec(next_states, next_probs, reward1, 1.0, rho, features)



def hoffman_karp_strategy_iteration(game: GameSpec):
    """Hoffman-Karp strategy iteration for the equilibrium of a cyclic game.

    Each step takes the maximizer's stage maximin strategies at the current
    values (one ``solve_stack`` call) and sets the values to the minimizer's
    exact best reply to them (policy iteration, warm-started from the last
    step's reply). It stops when no value moves by more than ``_STOP`` times
    the payoff scale, or after ``_MAX_STEPS`` steps; one more backup at the
    final values gives the stages, both strategies and the residual.
    Returns (v, stages, strategies, residual).
    """
    reward = game.reward1
    horizon = 1.0 if game.discount == 1.0 else 1.0 / (1.0 - game.discount)
    stop = _STOP * float(np.abs(reward).max()) * horizon
    every = slice(None)
    v_ext = np.zeros(game.state_count + 1)
    v = v_ext[:-1]
    actions = None
    for _ in range(_MAX_STEPS):
        _, p, _ = solve_stack(_stages(game, reward, v_ext, every))
        reply, _, actions = _policy_iteration(game, -reward, p, 1, actions)
        change = float(np.abs(reply + v).max())
        v[:] = -reply
        if change <= stop:
            break
    stages = _stages(game, reward, v_ext, every)
    values, strategies = _maximin(stages, every)
    return v, stages, strategies, float(np.abs(values - v).max())
