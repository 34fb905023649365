"""Tabular minimax-Q learning.

Each player keeps its own Q-table over (state, joint action); a backup
bootstraps through the maximin value of that player's stage matrix at the
successor state. Both players are trained from the same sample stream
(self-play style). Solved stage games are stored per state and re-solved,
a batch of states at a time, only after a Q-row changes: the LP dominates.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .envs import _integer_problem
from .game import Episode, GameSpec, Policy, Rng, UniformStream, rollout
from .matrix_game import solve_stack


@dataclass(frozen=True)
class LearnerConfig:
    """Update and exploration knobs.

    ``lr`` is the base learning rate. ``lr_decay`` selects the schedule:
    None keeps it constant (the right choice for deterministic kernels),
    "visit_count" uses lr / (1 + previous visits of the pair), and a number d
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
        d = self.lr_decay
        real = isinstance(d, numbers.Real) and not isinstance(d, bool)
        if d not in (None, "visit_count") and not (real and 0.0 < d <= 1.0):
            raise ValueError(f"lr_decay must be None, 'visit_count' or a number in (0, 1], got {d!r}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        problem = _integer_problem("batch_size", self.batch_size, 1)
        if problem:
            raise ValueError(problem)


@dataclass
class QTable:
    """Per-player Q estimates, shared visit counts and a per-state stage store.

    Zero-sum consistency is not enforced entry by entry; each player learns
    its own table from the shared stream. The stage store keeps every state's
    solved stage games: the (2, S) maximin values and each player's maximin
    row strategies, (S, A1) and (S, A2). A write only marks its state dirty
    (all states start dirty); :meth:`refresh` is the one place that solves,
    and :meth:`solved` and :meth:`stage_solution` are the readers.
    """

    q: np.ndarray  # (2, S, A1, A2)
    visits: np.ndarray  # (S, A1, A2) int64
    _values: np.ndarray = field(init=False, repr=False)  # (2, S)
    _strategies: tuple = field(init=False, repr=False)  # (S, A1), (S, A2)
    _dirty: np.ndarray = field(init=False, repr=False)  # (S,) bool

    def __post_init__(self):
        _, s_count, a1, a2 = self.q.shape
        self._values = np.zeros((2, s_count))
        self._strategies = (np.zeros((s_count, a1)), np.zeros((s_count, a2)))
        self._dirty = np.ones(s_count, dtype=bool)

    @classmethod
    def zeros(cls, game: GameSpec) -> "QTable":
        a1, a2 = game.action_counts
        return cls(np.zeros((2, game.state_count, a1, a2)),
                   np.zeros((game.state_count, a1, a2), dtype=np.int64))

    def refresh(self, rows) -> None:
        """Re-solve the stage games at states ``rows`` and mark them clean.

        Player 1's matrices are transposed so it too is the maximizing row chooser.
        """
        if len(rows) == 0:
            return
        for player, strategies in enumerate(self._strategies):
            stages = self.q[0, rows] if player == 0 else self.q[1, rows].transpose(0, 2, 1)
            self._values[player, rows], strategies[rows], _ = solve_stack(stages)
        self._dirty[rows] = False

    def solved(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """The whole store, dirty rows re-solved: (2, S) values and both strategy tables.

        The arrays are the store's own; callers copy what they keep.
        """
        self.refresh(np.flatnonzero(self._dirty))
        return self._values, self._strategies

    def stage_solution(self, player: int, state: int) -> tuple[float, np.ndarray]:
        """``player``'s maximin value and row strategy (a view) at ``state``."""
        if self._dirty.item(state):
            self.refresh([state])
        return self._values.item(player, state), self._strategies[player][state]

    def stage_value(self, player: int, state: int) -> float:
        return self.stage_solution(player, state)[0]

    def invalidate(self, state: int) -> None:
        self._dirty[state] = True


def _effective_lr(cfg: LearnerConfig, prior_visits: int) -> float:
    if cfg.lr_decay is None:
        return cfg.lr
    if cfg.lr_decay == "visit_count":
        return cfg.lr / (1.0 + prior_visits)
    return cfg.lr * cfg.lr_decay**prior_visits


def minimax_q_update(q: QTable, episode: Episode, cfg: LearnerConfig,
                     discount: float) -> QTable:
    """Apply the minimax-Q backup to each step of ``episode`` in order, for both players.

    For player i the target is r_i plus the discounted maximin value of its
    own stage matrix at the successor (read through
    :meth:`QTable.stage_value`); terminal successors contribute zero. The
    loop reads the episode's columns and the tables' entries as Python
    scalars. The table is updated in place and returned.
    """
    table, visits = q.q, q.visits
    terminal = table.shape[1]  # the terminal index is the state count
    for s, a1, a2, r, nxt in zip(episode.states, episode.actions1, episode.actions2,
                                 episode.rewards1, episode.next_states):
        prior = visits.item(s, a1, a2)
        visits[s, a1, a2] = prior + 1
        alpha = _effective_lr(cfg, prior)
        if alpha == 0.0:
            continue
        for player, reward in ((0, r), (1, -r)):
            backup = 0.0 if nxt == terminal else q.stage_value(player, nxt)
            target = reward + discount * backup
            old = table.item(player, s, a1, a2)
            new = (1.0 - alpha) * old + alpha * target
            if new != old:
                table[player, s, a1, a2] = new
                q.invalidate(s)
    return q


def exploration_policy(q: QTable, epsilon: float) -> Policy:
    """Epsilon-mixture of uniform play and each player's maximin strategy.

    The mixture is formed in closed form (randomness is consumed at rollout
    time), so with epsilon=1 no stage game needs solving.
    """
    _, s_count, a1, a2 = q.q.shape
    p1 = np.full((s_count, a1), epsilon / a1)
    p2 = np.full((s_count, a2), epsilon / a2)
    if epsilon < 1.0:
        _, (s1, s2) = q.solved()
        p1 += (1.0 - epsilon) * s1
        p2 += (1.0 - epsilon) * s2
    return Policy(p1, p2)


def values_from_q(q: QTable) -> np.ndarray:
    """Each player's maximin value of its current stage matrix, per state.

    Returns a (2, S) copy; only rows invalidated since the last call are
    re-solved.
    """
    return q.solved()[0].copy()


def q_error(q: QTable, oracle) -> float:
    """Sup-norm distance to the oracle Q-tables over players, states, pairs."""
    if q.q.shape != oracle.q_star.shape:
        raise ValueError("learned and oracle tables have different shapes")
    return float(np.abs(q.q - oracle.q_star).max())


class Learner:
    """One self-play minimax-Q learner: tables, exploration, episode loop.

    The learner owns ``rng`` from here on: it is wrapped in a
    :class:`UniformStream`, which draws ahead of the values it hands out.
    """

    def __init__(self, game: GameSpec, cfg: LearnerConfig, rng: Rng):
        self.game = game
        self.cfg = cfg
        self.rng = UniformStream(rng)
        self.qtable = QTable.zeros(game)
        # epsilon -> (its mixture, copies of the strategies the mixture mixes)
        self._mixtures: dict[float, tuple[Policy, tuple]] = {}
        self._policy: Policy | None = None
        self._samples = 0  # samples collected under ``_policy``

    def _mixture(self, epsilon: float) -> Policy:
        """The epsilon-mixture of the current tables, reused while its strategies stand.

        The mixture is a pure function of (strategies, epsilon), so the
        stored object equals a fresh build bit for bit while both players'
        strategies equal its copies; a caller may reuse anything it computed
        from that object. At epsilon=1 it mixes no strategy, so nothing is
        solved or compared.
        """
        strategies = () if epsilon == 1.0 else self.qtable.solved()[1]
        cached = self._mixtures.get(epsilon)
        if cached is None or not all(map(np.array_equal, cached[1], strategies)):
            cached = (exploration_policy(self.qtable, epsilon),
                      tuple(s.copy() for s in strategies))
            self._mixtures[epsilon] = cached
        return cached[0]

    def policy(self) -> Policy:
        """The exploration policy, refreshed once ``batch_size`` samples have gone by.

        At epsilon=1 the policy is uniform whatever the tables hold, so it is
        built once and never refreshed.
        """
        cfg = self.cfg
        if self._policy is None or (cfg.epsilon < 1.0 and self._samples >= cfg.batch_size):
            self._policy = self._mixture(cfg.epsilon)
            self._samples = 0
        return self._policy

    def greedy_policy(self) -> Policy:
        """The epsilon=0 policy of the current tables (the same object while it stands)."""
        return self._mixture(0.0)

    def values(self) -> np.ndarray:
        return values_from_q(self.qtable)

    def run_episode(self, s0: int, max_steps: int) -> Episode:
        episode = rollout(self.game, self.policy(), s0, self.rng, max_steps)
        minimax_q_update(self.qtable, episode, self.cfg, self.game.discount)
        self._samples += len(episode)
        return episode
