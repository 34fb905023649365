"""Subgame curriculum: state weights, the particle buffer, and epoch loop.

The sampling weight per state combines how fast its value moved between two
consecutive checkpoints (bias term) with how much the value ensemble
disagrees right now (variance term). Episodes restart from buffered states
with probability p, weighted by those numbers; the rest restart from the
game's own initial distribution, which keeps equilibrium convergence intact.
When the buffer overflows, farthest point sampling keeps entries spread out
in feature space.

The ensemble of M learners is one C-contiguous (S, 2M) member matrix: row s
holds, learner by learner, player 1's value at s and then player 2's value
negated, so all 2M members estimate player 1's value and each state's metric
is one reduction along its row.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .envs import _integer_problem, _is_integer
from .game import GameSpec, Rng, UniformStream, _draw, sample_initial
from .learner import Learner

METRIC_VARIANTS = ("full", "uniform", "bias_only", "variance_only", "td_error")


@dataclass(frozen=True)
class MetricConfig:
    """Weight-metric settings.

    ``alpha_bias`` scales the bias term in the full variant (this is distinct
    from the learning rate). ``ensemble_size`` is the number of independent
    learners per player whose signed values form the ensemble; the two
    players already contribute two members each.
    """

    alpha_bias: float = 1.0
    variant: str = "full"
    ensemble_size: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.alpha_bias) and self.alpha_bias >= 0.0):
            raise ValueError("alpha_bias must be finite and non-negative")
        if self.variant not in METRIC_VARIANTS:
            raise ValueError(f"variant must be one of {METRIC_VARIANTS}")
        problem = _integer_problem("ensemble_size", self.ensemble_size, 1)
        if problem:
            raise ValueError(problem)


@dataclass(frozen=True)
class SamplerConfig:
    """Probability of restarting from the buffer instead of the start states."""

    p: float = 0.7

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")


def _member_values(learners: list[Learner]) -> np.ndarray:
    """The learners' (S, 2M) member matrix: row s is v1_0(s), -v2_0(s), v1_1(s), ..."""
    values = [lr.values() for lr in learners]
    return np.stack([col for v in values for col in (v[0], -v[1])], axis=1)


def compute_weights(states, current: np.ndarray, previous: np.ndarray, cfg: MetricConfig,
                    td_context: tuple[Sequence[float], Sequence[int]] | None = None,
                    discount: float = 1.0) -> np.ndarray:
    """Sampling weights of ``states`` under the configured metric variant.

    ``current`` and ``previous`` are (S, 2M) member matrices, now and one
    epoch ago: row s holds, learner by learner, player 1's value at s and
    player 2's value negated, so all 2M members estimate player 1's value.

    full: alpha_bias * (mean checkpoint difference)^2 plus the population
    variance of the current member values. bias_only / variance_only keep
    the respective term alone; uniform is constant 1; td_error uses
    |r + discount * V(s') - V(s)| with player 1's mean value, where
    ``td_context`` is a pair (rewards, next states) holding the reward r
    and successor s' of a step taken at each of ``states``; a successor
    equal to the state count is terminal and contributes zero. Always
    non-negative.

    Every term reduces one state's row along the contiguous last axis, as
    the 1-D ``np.mean``/``np.var`` do, so each weight is bit for bit the one
    the state would get alone. A state outside [0, S), or one that is not
    an integer (a bool or a float), raises ``ValueError`` under every
    variant.
    """
    current = np.ascontiguousarray(current, dtype=np.float64)
    previous = np.ascontiguousarray(previous, dtype=np.float64)
    if current.shape != previous.shape or current.ndim != 2 or current.shape[1] % 2:
        raise ValueError("member values must share one (S, 2M) shape")
    s_count = current.shape[0]
    # Python min/max: on an epoch's few states several times cheaper than numpy's
    if len(states) and (min(states) < 0 or max(states) >= s_count):
        bad = next(s for s in states if not 0 <= s < s_count)
        raise ValueError(f"state {bad} is not a state index in 0..{s_count - 1}")
    array = np.asarray(states)
    if array.dtype.kind not in "iu" and array.size:  # a bool or float would index silently
        bad = next((s for s in states if not _is_integer(s)), states[0])
        raise ValueError(f"state {bad} is not an integer state index")
    states = array.astype(np.int64, copy=False)
    if cfg.variant == "uniform":
        return np.ones(states.size)
    if cfg.variant == "td_error":
        if td_context is None:
            raise ValueError("td_error variant needs each state's reward and next state")
        reward = np.asarray(td_context[0], dtype=np.float64)
        nxt = np.asarray(td_context[1], dtype=np.int64)
        if reward.shape != states.shape or nxt.shape != states.shape:
            raise ValueError("td_context must hold one reward and one next state per state")
        if nxt.size and (nxt.min() < 0 or nxt.max() > s_count):
            raise ValueError("td_context next states must lie in [0, state count]")
        terminal = nxt == s_count
        v1 = np.ascontiguousarray(current[:, 0::2])
        v_here = v1[states].mean(axis=-1)
        v_next = v1[np.where(terminal, 0, nxt)].mean(axis=-1)
        v_next[terminal] = 0.0
        return np.abs(reward + discount * v_next - v_here)
    cur = current[states]
    if cfg.variant == "variance_only":
        return np.var(cur, axis=-1)
    diffs = cur - previous[states]
    # Python's float power (libm pow), not np.square: the two round about
    # one value in a thousand differently, and trajectories depend on it
    bias = np.array([m**2 for m in np.mean(diffs, axis=-1).tolist()])
    if cfg.variant == "bias_only":
        return bias
    return cfg.alpha_bias * bias + np.var(cur, axis=-1)


def compute_weight(state: int, current: np.ndarray, previous: np.ndarray,
                   cfg: MetricConfig, td_context: tuple[float, int] | None = None,
                   discount: float = 1.0) -> float:
    """Sampling weight of one state; :func:`compute_weights` for one entry.

    ``td_context`` is the (reward, next state) pair of a step taken there.
    """
    td = None if td_context is None else ([td_context[0]], [td_context[1]])
    return float(compute_weights([state], current, previous, cfg, td_context=td,
                                 discount=discount)[0])


def _check_weights(weights: np.ndarray) -> None:
    if not np.all(np.isfinite(weights) & (weights >= 0.0)):
        raise ValueError("weights must be finite and non-negative")


@dataclass
class WeightedStateBuffer:
    """Capacity-bounded particle set of (state, weight).

    Members are kept as arrays in ascending state order: unique ``states``
    and their ``weights``; a member's feature vector is the game's row
    ``game.features[state]``. Re-inserting a state overwrites its weight
    with the newer value. Insertion never prunes; callers prune when the
    size exceeds the capacity.
    """

    capacity: int
    states: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    weights: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        problem = _integer_problem("capacity", self.capacity, 1)
        if problem:
            raise ValueError(problem)
        self.states = np.asarray(self.states, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        n = self.states.size
        if self.states.shape != (n,) or self.weights.shape != (n,):
            raise ValueError("buffer needs states (n,) and weights (n,)")
        if np.any(np.diff(self.states) <= 0):
            raise ValueError("buffer states must be strictly increasing")
        _check_weights(self.weights)

    def __len__(self) -> int:
        return self.states.size

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """States and weights in ascending state order (not copies)."""
        return self.states, self.weights


def buffer_insert(buf: WeightedStateBuffer, states: Iterable[tuple[int, float]],
                  game: GameSpec) -> WeightedStateBuffer:
    """Union the (state, weight) pairs into the buffer; newest weight wins.

    The whole batch is checked before any of it is inserted.
    """
    newest = {int(s): float(w) for s, w in states}
    if not newest:
        return buf
    new_states = np.array(sorted(newest), dtype=np.int64)
    new_weights = np.array([newest[s] for s in new_states.tolist()])
    _check_weights(new_weights)
    if new_states[0] < 0 or new_states[-1] >= game.state_count:
        raise ValueError("buffered states must be valid state indices")
    pos = np.minimum(np.searchsorted(new_states, buf.states), new_states.size - 1)
    old = new_states[pos] != buf.states
    if old.size - np.count_nonzero(old) == new_states.size:
        # every new state is already a member (states are unique on both
        # sides): only those members' weights change, in ascending order
        weights = buf.weights.copy()
        weights[~old] = new_weights
        buf.weights = weights
        return buf
    merged = np.concatenate([buf.states[old], new_states])
    order = np.argsort(merged, kind="stable")
    buf.states = merged[order]
    buf.weights = np.concatenate([buf.weights[old], new_weights])[order]
    return buf


def _pairwise_distances(feats: np.ndarray) -> np.ndarray:
    """(n, n) matrix whose row j is ``np.linalg.norm(feats - feats[j], axis=1)``.

    Bit for bit: numpy's last-axis sum adds fewer than 8 terms one at a time
    from the left, so for such widths the squared differences are summed a
    feature column at a time, left to right, which is several times faster
    than reducing n*n short rows and holds two (n, n) arrays at most. Wider
    features take the norm itself.
    """
    if feats.shape[1] >= 8:
        return np.linalg.norm(feats[None, :, :] - feats[:, None, :], axis=2)
    total = None
    for column in feats.T:
        sq = column[None, :] - column[:, None]
        sq *= sq
        if total is None:
            total = sq
        else:
            total += sq
    return np.sqrt(total, out=total)


def fps_prune(buf: WeightedStateBuffer, k: int, game: GameSpec) -> WeightedStateBuffer:
    """Keep k entries by greedy farthest point sampling; identity if small.

    Distances are Euclidean on the members' rows of ``game.features``.
    Seeded at the maximum-weight entry (ties break to the lowest state
    index), then repeatedly adds the entry with the largest distance to the
    selected set (Gonzalez 1985), ties again to the lowest index.
    Deterministic on identical inputs; kept entries retain their weights.
    The members' pairwise distances are computed once, which takes memory
    quadratic in the buffer size.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(buf) <= k:
        return buf
    states, weights = buf.arrays()
    pairwise = _pairwise_distances(game.features[states])
    selected = [int(weights.argmax())]
    dist = pairwise[selected[0]].copy()
    for _ in range(k - 1):
        nxt = int(dist.argmax())
        selected.append(nxt)
        np.minimum(dist, pairwise[nxt], out=dist)
    # a member picked twice (all remaining distances zero) is kept once
    rows = sorted(set(selected))
    buf.states, buf.weights = states[rows], weights[rows]
    return buf


@dataclass(frozen=True)
class SamplingTable:
    """The buffer's start-state draw table, built once per epoch.

    ``cum`` is ``cumsum(weights / total)`` over ``states``, as a list for
    scalar draws; it is empty when the buffer is empty or its weights sum to
    zero, and then no start is drawn from the buffer.
    """

    states: np.ndarray
    cum: list[float]

    @classmethod
    def of(cls, buf: WeightedStateBuffer) -> "SamplingTable":
        states, weights = buf.arrays()
        total = weights.sum()
        if states.size == 0 or not total > 0.0:
            return cls(states, [])
        return cls(states, np.cumsum(weights / total).tolist())


def sample_subgame(table: SamplingTable | None, game: GameSpec, cfg: SamplerConfig,
                   rng: Rng | UniformStream) -> int:
    """Choose an episode's start state.

    With probability p and a usable buffer table, draw a buffered state with
    probability proportional to its weight; otherwise draw from the game's
    initial distribution. No table, an empty buffer or all-zero weights fall
    back to the initial distribution without drawing the p-coin, and so does
    p=0.
    """
    if table is not None and cfg.p > 0.0 and table.cum and rng.random() < cfg.p:
        return table.states.item(_draw(table.cum, rng))
    return sample_initial(game, rng)


def curriculum_epoch(learners: list[Learner], buf: WeightedStateBuffer | None,
                     game: GameSpec, metric_cfg: MetricConfig,
                     sampler_cfg: SamplerConfig, episodes_per_epoch: int,
                     max_steps: int, evaluator=None,
                     starts: Iterator[int] | None = None) -> None:
    """One curriculum epoch: checkpoint values, train, reweight the buffer.

    Every learner in turn runs ``episodes_per_epoch`` episodes whose start
    states come from :func:`sample_subgame` (each learner consumes its own
    generator) or, when ``starts`` is given, from that iterator, which is
    advanced once per episode, after the previous episode has trained, and
    draws no uniform. Afterwards the states acted on this epoch get fresh
    weights from the current-vs-checkpoint ensemble and are merged into the
    buffer, which is pruned back to capacity by FPS. Passing ``buf=None``
    disables all buffer work, which is exactly plain self-play.

    ``evaluator``, when given, is told the sample count of every episode by
    ``evaluator.after_episode``, which records its own rows and returns
    whether the run should stop; the epoch then ends at once, its buffer
    work still done. The learners and the buffer are updated in place;
    nothing is returned.
    """
    table = None
    if buf is not None:
        previous = _member_values(learners)
        table = SamplingTable.of(buf)  # the buffer changes only at epoch end
    episodes = []
    for lr in [member for member in learners for _ in range(episodes_per_epoch)]:
        s0 = (sample_subgame(table, game, sampler_cfg, lr.rng) if starts is None
              else next(starts))
        ep = lr.run_episode(s0, max_steps)
        episodes.append(ep)
        if evaluator is not None and evaluator.after_episode(len(ep)):
            break
    if buf is not None and episodes:
        visited: dict[int, tuple[float, int]] = {}  # state -> its latest (reward, next state)
        for ep in episodes:
            for s, r, nxt in zip(ep.states, ep.rewards1, ep.next_states):
                visited[s] = (r, nxt)
        states = sorted(visited)
        td = None
        if metric_cfg.variant == "td_error":
            td = ([visited[s][0] for s in states], [visited[s][1] for s in states])
        weights = compute_weights(states, _member_values(learners), previous, metric_cfg,
                                  td_context=td, discount=game.discount)
        buffer_insert(buf, zip(states, weights.tolist()), game)
        if len(buf) > buf.capacity:
            fps_prune(buf, buf.capacity, game)
