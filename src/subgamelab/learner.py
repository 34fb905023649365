"""Tabular minimax-Q learning.

Each player keeps its own Q-table over (state, joint action); a backup
bootstraps through the maximin value of that player's stage matrix at the
successor state. Both players are trained from the same sample stream
(self-play style). Per-state stage-game solutions are memoized and
invalidated when the underlying Q-row changes, since the inner LP dominates
runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .game import GameSpec, Policy, Rng, Transition, rollout
from .matrix_game import MatrixSolution, solve


@dataclass(frozen=True)
class LearnerConfig:
    """Update and exploration knobs.

    ``lr`` is the base learning rate. ``lr_decay`` selects the schedule:
    None keeps it constant (the right choice for deterministic kernels),
    "visit_count" uses lr / (1 + previous visits of the pair), and a float d
    uses lr * d**visits. ``epsilon`` mixes uniform exploration into the
    maximin policy. ``batch_size`` is how many samples are collected under
    one exploration policy before it is refreshed from the current Q-tables;
    at epsilon=1 the policy is uniform and is never refreshed.
    """

    lr: float = 1.0
    lr_decay: str | float | None = "visit_count"
    epsilon: float = 1.0
    batch_size: int = 1

    def __post_init__(self):
        if not 0.0 < self.lr <= 1.0:
            raise ValueError("lr must lie in (0, 1]")
        if isinstance(self.lr_decay, str) and self.lr_decay != "visit_count":
            raise ValueError("lr_decay must be None, 'visit_count', or a float")
        if isinstance(self.lr_decay, float) and not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("multiplicative lr_decay must lie in (0, 1]")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")


@dataclass
class QTable:
    """Per-player Q estimates plus shared visit counts and a stage cache.

    Zero-sum consistency is not enforced entry by entry; each player learns
    its own table from the shared stream. The cache maps (player, state) to
    that state's solved stage game and is dropped whenever the row is
    written. Each state's pair of stage values is kept too, with a dirty
    mask that starts all-true, so :func:`values_from_q` re-solves only the
    rows written since its last call.
    """

    q: np.ndarray  # (2, S, A1, A2)
    visits: np.ndarray  # (S, A1, A2) int64
    _stage_cache: dict = field(default_factory=dict, repr=False)
    _values: np.ndarray = field(init=False, repr=False)  # (2, S)
    _dirty: np.ndarray = field(init=False, repr=False)  # (S,) bool

    def __post_init__(self):
        s_count = self.q.shape[1]
        self._values = np.zeros((2, s_count))
        self._dirty = np.ones(s_count, dtype=bool)

    @classmethod
    def zeros(cls, game: GameSpec) -> "QTable":
        a1, a2 = game.action_counts
        return cls(np.zeros((2, game.state_count, a1, a2)),
                   np.zeros((game.state_count, a1, a2), dtype=np.int64))

    def stage_solution(self, player: int, state: int) -> MatrixSolution:
        """Solved stage game at ``state`` from ``player``'s perspective.

        Player 0 is the row chooser of its own matrix; player 1's matrix is
        transposed so it too is the maximizing row chooser.
        """
        key = (player, state)
        cached = self._stage_cache.get(key)
        if cached is None:
            matrix = self.q[0, state] if player == 0 else self.q[1, state].T
            cached = solve(matrix)
            self._stage_cache[key] = cached
        return cached

    def stage_value(self, player: int, state: int) -> float:
        return self.stage_solution(player, state).value

    def invalidate(self, state: int) -> None:
        self._stage_cache.pop((0, state), None)
        self._stage_cache.pop((1, state), None)
        self._dirty[state] = True


def _effective_lr(cfg: LearnerConfig, prior_visits: int) -> float:
    if cfg.lr_decay is None:
        return cfg.lr
    if cfg.lr_decay == "visit_count":
        return cfg.lr / (1.0 + prior_visits)
    return cfg.lr * cfg.lr_decay**prior_visits


def minimax_q_update(q: QTable, batch: list[Transition], cfg: LearnerConfig,
                     discount: float) -> QTable:
    """Apply the minimax-Q backup to every sample, in order, for both players.

    For player i the target is r_i plus the discounted maximin value of its
    own stage matrix at the successor; terminal successors contribute zero.
    The table is updated in place and returned.
    """
    for tr in batch:
        alpha = _effective_lr(cfg, int(q.visits[tr.state, tr.action1, tr.action2]))
        q.visits[tr.state, tr.action1, tr.action2] += 1
        if alpha == 0.0:
            continue
        changed = False
        for player in (0, 1):
            reward = tr.reward1 if player == 0 else -tr.reward1
            backup = 0.0 if tr.terminal else q.stage_value(player, tr.next_state)
            target = reward + discount * backup
            old = q.q[player, tr.state, tr.action1, tr.action2]
            new = (1.0 - alpha) * old + alpha * target
            if new != old:
                q.q[player, tr.state, tr.action1, tr.action2] = new
                changed = True
        if changed:
            q.invalidate(tr.state)
    return q


def exploration_policy(q: QTable, cfg: LearnerConfig) -> Policy:
    """Epsilon-mixture of uniform play and each player's maximin strategy.

    The mixture is formed in closed form (randomness is consumed at rollout
    time), so with epsilon=1 no stage game needs solving.
    """
    _, s_count, a1, a2 = q.q.shape
    eps = cfg.epsilon
    p1 = np.full((s_count, a1), eps / a1)
    p2 = np.full((s_count, a2), eps / a2)
    if eps < 1.0:
        for s in range(s_count):
            p1[s] += (1.0 - eps) * q.stage_solution(0, s).row_strategy
            p2[s] += (1.0 - eps) * q.stage_solution(1, s).row_strategy
    return Policy(p1, p2)


def values_from_q(q: QTable) -> np.ndarray:
    """Each player's maximin value of its current stage matrix, per state.

    Returns a (2, S) copy; only rows invalidated since the last call are
    re-solved.
    """
    for s in np.flatnonzero(q._dirty).tolist():
        q._values[0, s] = q.stage_value(0, s)
        q._values[1, s] = q.stage_value(1, s)
    q._dirty[:] = False
    return q._values.copy()


def q_error(q: QTable, oracle) -> float:
    """Sup-norm distance to the oracle Q-tables over players, states, pairs."""
    if q.q.shape != oracle.q_star.shape:
        raise ValueError("learned and oracle tables have different shapes")
    return float(np.abs(q.q - oracle.q_star).max())


class Learner:
    """One self-play minimax-Q learner: tables, exploration, episode loop."""

    def __init__(self, game: GameSpec, cfg: LearnerConfig, rng: Rng):
        self.game = game
        self.cfg = cfg
        self.rng = rng
        self.qtable = QTable.zeros(game)
        self._policy: Policy | None = None
        self._samples_since_refresh = 0

    def policy(self) -> Policy:
        if self._policy is None:
            self._policy = exploration_policy(self.qtable, self.cfg)
            self._samples_since_refresh = 0
        return self._policy

    def greedy_policy(self) -> Policy:
        return exploration_policy(self.qtable, replace(self.cfg, epsilon=0.0))

    def values(self) -> np.ndarray:
        return values_from_q(self.qtable)

    def run_episode(self, s0: int, max_steps: int) -> list[Transition]:
        traj = rollout(self.game, self.policy(), s0, self.rng, max_steps)
        minimax_q_update(self.qtable, traj, self.cfg, self.game.discount)
        self._samples_since_refresh += len(traj)
        # at epsilon=1 the policy is uniform whatever the tables hold
        if self.cfg.epsilon < 1.0 and self._samples_since_refresh >= self.cfg.batch_size:
            self._policy = None  # stale; rebuilt lazily from the updated tables
        return traj
