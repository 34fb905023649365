"""Core abstractions for two-player zero-sum Markov games.

States and actions are dense integer indices. The transition kernel maps
(state, action1, action2) to a distribution over successor states plus a
distinguished terminal outcome, stored in padded support form so that both
deterministic and stochastic kernels share one representation. Only player
1's reward is stored; player 2's reward is its negation by construction.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Every stochastic operation takes an explicit generator; same seed, same draws.
Rng = np.random.Generator

_PROB_TOL = 1e-12
_BLOCK = 256  # uniforms drawn per generator call by UniformStream
# numpy reduces a short axis of a tall array one row at a time, so a chain
# of elementwise calls over the axis wins on tall arrays and loses on short
# ones. Medians on a 2-core Xeon, numpy 2.4.6: a (25200, 5, 5) min over the
# last axis takes 8.4 ms reduced and 1.0 ms chained; the 5x5 saddle test's
# four reductions take 9.5 us reduced and 19.5 us chained on one matrix,
# 54 and 35 us on 64; a (64, 5) row sum 2.4 and 4.0 us, a (288, 5) one 6.9
# and 4.8 us. So callers take ``_reduce_short`` for a stack of this many
# matrices or states and more
_TALL = 64


def _reduce_short(ufunc, a: np.ndarray, axis: int) -> np.ndarray:
    """``ufunc.reduce(a, axis=axis)`` bit for bit, as a chain of elementwise calls.

    ``ufunc`` is ``np.minimum``, ``np.maximum`` or ``np.add``. The chain
    runs over the slices along ``axis`` in order, as numpy's reduction does
    below 8 terms; add starts from its identity, as numpy's does, so -0.0
    sums to 0.0. From 8 terms numpy adds pairwise and breaks min and max
    ties between 0.0 and -0.0 by lane, so a longer axis takes the reduction.
    """
    n = a.shape[axis]
    if n >= 8:
        return ufunc.reduce(a, axis=axis)
    lead = (slice(None),) * (axis % a.ndim)
    if ufunc.identity is not None:
        out, start = ufunc(a[lead + (0,)], ufunc.identity), 1
    elif n > 1:
        out, start = ufunc(a[lead + (0,)], a[lead + (1,)]), 2
    else:
        return a[lead + (0,)].copy()
    for i in range(start, n):
        ufunc(out, a[lead + (i,)], out=out)
    return out


def _blocks(rng: Rng):
    while True:
        yield rng.random(_BLOCK).tolist()


class UniformStream:
    """The uniforms of ``rng``, drawn from it a block at a time.

    ``random()`` returns the same doubles, in the same order, as successive
    ``rng.random()`` calls would, at a fraction of a scalar call's cost. The
    generator's own state runs up to a block ahead of the values consumed,
    so nothing else may draw from ``rng`` once it is wrapped. Everything
    that draws here (``rollout``, ``sample_initial``, ``sample_subgame``)
    calls only ``random()``, so it takes a stream or a raw generator alike.
    """

    def __init__(self, rng: Rng):
        self.rng = rng
        # a C-level iterator step per value; the generator is called only
        # when a block runs out
        self.random = itertools.chain.from_iterable(_blocks(rng)).__next__


@dataclass(frozen=True)
class GameSpec:
    """An enumerable two-player zero-sum Markov game.

    The kernel is stored as padded support arrays: ``next_states[s, a1, a2]``
    holds up to K successor indices with probabilities ``next_probs[s, a1, a2]``
    summing to one. The index ``state_count`` is the absorbing terminal marker;
    padding slots use that index with probability zero.

    ``features`` gives each state a fixed-length vector, pre-scaled so every
    dimension lies in [0, 1]; buffer pruning measures Euclidean distance on it.
    Finite-horizon games must encode the timestep in the state index so that
    transitions only move to strictly larger indices (checked lazily by
    ``levels``).

    The arrays are adopted, not copied: an input already of the stored dtype
    and C-contiguous becomes the game's own array, and every stored array is
    made read-only, the caller's included. The freeze keeps the cached
    ``levels`` and ``initial_cdf`` valid; copying would add a transient second
    set of arrays, about 16 MB on a 6x6 grid with horizon 20.
    """

    next_states: np.ndarray  # (S, A1, A2, K) int64, entries in [0, S]
    next_probs: np.ndarray  # (S, A1, A2, K) float64, rows sum to 1
    reward1: np.ndarray  # (S, A1, A2) float64
    discount: float
    initial_dist: np.ndarray  # (S,) float64
    features: np.ndarray  # (S, d) float64 in [0, 1]

    def __post_init__(self):
        ns = np.ascontiguousarray(self.next_states, dtype=np.int64)
        npr = np.ascontiguousarray(self.next_probs, dtype=np.float64)
        r1 = np.ascontiguousarray(self.reward1, dtype=np.float64)
        rho = np.ascontiguousarray(self.initial_dist, dtype=np.float64)
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        for name, arr in (("next_states", ns), ("next_probs", npr),
                          ("reward1", r1), ("initial_dist", rho), ("features", feats)):
            object.__setattr__(self, name, arr)

        if ns.ndim != 4 or npr.shape != ns.shape:
            raise ValueError("next_states/next_probs must share shape (S, A1, A2, K)")
        s_count = ns.shape[0]
        if r1.shape != ns.shape[:3]:
            raise ValueError("reward1 must have shape (S, A1, A2)")
        if min(ns.shape[:3]) < 1:
            raise ValueError("need at least one state and one action per player")
        if ns.min() < 0 or ns.max() > s_count:
            raise ValueError("next-state indices must lie in [0, state_count]")
        # every range check below is a comparison, which NaN passes
        for name, arr in (("next_probs", npr), ("reward1", r1),
                          ("initial_dist", rho), ("features", feats)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has a NaN or infinite entry")
        if npr.min() < -_PROB_TOL:
            raise ValueError("transition probabilities must be non-negative")
        row_sums = npr.sum(axis=3)
        if np.abs(row_sums - 1.0).max() > _PROB_TOL:
            raise ValueError("every transition row must sum to 1")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError("discount must lie in (0, 1]")
        if rho.shape != (s_count,) or rho.min() < -_PROB_TOL:
            raise ValueError("initial_dist must be a length-S probability vector")
        if abs(rho.sum() - 1.0) > _PROB_TOL:
            raise ValueError("initial_dist must sum to 1")
        if feats.ndim != 2 or feats.shape[0] != s_count or feats.shape[1] < 1:
            raise ValueError("features must have shape (S, d) with d >= 1")
        if feats.min() < 0.0 or feats.max() > 1.0:
            raise ValueError("features must be pre-scaled to [0, 1] per dimension")
        for arr in (ns, npr, r1, rho, feats):
            arr.setflags(write=False)

    @property
    def state_count(self) -> int:
        return self.next_states.shape[0]

    @property
    def action_counts(self) -> tuple[int, int]:
        return self.next_states.shape[1], self.next_states.shape[2]

    @property
    def terminal_index(self) -> int:
        return self.state_count

    @cached_property
    def levels(self) -> list[slice] | None:
        """Batches of an exact backward pass, or None for a cyclic game.

        A game is topologically ordered when every positive-probability
        successor has a larger index; it is then acyclic, and one backward
        pass of any dynamic program over the state index is exact. The
        batches are contiguous index slices from the top index down; every
        live successor of a state in a slice lies at or above the slice's stop.
        """
        live = np.where(self.next_probs > 0.0, self.next_states, self.state_count)
        lowest = live.min(axis=(1, 2, 3))
        if np.any(lowest <= np.arange(self.state_count)):
            return None
        floor = np.minimum.accumulate(lowest[::-1])[::-1]  # non-decreasing
        out = []
        hi = self.state_count
        while hi > 0:
            lo = int(np.searchsorted(floor, hi))
            out.append(slice(lo, hi))
            hi = lo
        return out

    @cached_property
    def initial_cdf(self) -> list[float]:
        return np.cumsum(self.initial_dist).tolist()


@dataclass(frozen=True)
class Policy:
    """Per-player state-conditioned mixed strategies.

    ``p1`` has shape (S, A1) and ``p2`` shape (S, A2); each row is a
    probability vector. As in :class:`GameSpec`, a C-contiguous float64 input
    is adopted, not copied, and made read-only, so the caller can no longer
    write to it; the freeze keeps the cached ``row_cdf_lists`` valid.
    """

    p1: np.ndarray
    p2: np.ndarray

    def __post_init__(self):
        for name in ("p1", "p2"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 2:
                raise ValueError(f"{name} must be a (S, A) matrix")
            low = arr.min()
            if not low >= 0.0:  # a NaN minimum fails this comparison too
                raise ValueError(f"{name} has a NaN entry" if low != low
                                 else f"{name} has negative probabilities")
            sums = arr.sum(axis=1) if len(arr) < _TALL else _reduce_short(np.add, arr, 1)
            if np.abs(sums - 1.0).max() > _PROB_TOL:
                raise ValueError(f"every {name} row must sum to 1")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.p1.shape[0] != self.p2.shape[0]:
            raise ValueError("p1 and p2 must cover the same states")

    @cached_property
    def row_cdf_lists(self) -> tuple[list, list]:
        """Per-state slots for the cumulative sums of each player's row, as lists.

        A slot is None until :func:`rollout` first draws from that row and
        fills it, so a policy used for many episodes converts each row it
        visits once, and one used for a single episode converts only the
        rows that episode visits.
        """
        s_count = self.p1.shape[0]
        return [None] * s_count, [None] * s_count


def uniform_policy(game: GameSpec) -> Policy:
    a1, a2 = game.action_counts
    s = game.state_count
    return Policy(np.full((s, a1), 1.0 / a1), np.full((s, a2), 1.0 / a2))


@dataclass(slots=True)
class Episode:
    """One rollout as per-step columns of plain Python scalars.

    Step i was taken at ``states[i]`` under joint action
    (``actions1[i]``, ``actions2[i]``), paid player 1 ``rewards1[i]`` and
    moved to ``next_states[i]``; a step is terminal when its next state is
    the game's terminal index. ``len`` is the step count.
    """

    states: list[int]
    actions1: list[int]
    actions2: list[int]
    rewards1: list[float]
    next_states: list[int]

    def __len__(self) -> int:
        return len(self.states)


def _draw(cum: list[float], rng: Rng | UniformStream) -> int:
    # inverse-CDF draw: the index np.searchsorted(cum, u, side="right") gives;
    # the clamp guards the u ~ 1.0 rounding edge
    return min(bisect.bisect_right(cum, rng.random()), len(cum) - 1)


def sample_initial(game: GameSpec, rng: Rng | UniformStream) -> int:
    """Draw a start state from the game's initial distribution."""
    return _draw(game.initial_cdf, rng)


def rollout(game: GameSpec, policy: Policy, s0: int, rng: Rng | UniformStream,
            max_steps: int) -> Episode:
    """Play one episode from ``s0`` under a fixed joint policy.

    The episode ends at the terminal marker or after ``max_steps`` steps,
    whichever comes first. Rewards are player 1's; player 2's are their
    negation by construction. The sample count is ``len`` of the returned
    :class:`Episode`.

    Each step draws player 1's action, player 2's action and, on a
    stochastic kernel, the successor, in that order, each by inverse CDF
    from one uniform of ``rng`` (a generator or a :class:`UniformStream`).
    Only the policy rows drawn from are converted to lists, once per policy
    (kept in :attr:`Policy.row_cdf_lists`), so the per-step work is plain
    Python on scalars. Identical (game, policy, s0, seed) inputs reproduce
    the trajectory bit for bit.
    """
    if not 0 <= s0 < game.state_count:
        raise ValueError(f"rollout start {s0} out of range")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    p1, p2 = policy.p1, policy.p2
    rows1, rows2 = policy.row_cdf_lists
    next_states, next_probs, reward1 = game.next_states, game.next_probs, game.reward1
    deterministic = next_states.shape[3] == 1
    terminal = game.terminal_index
    states, actions1, actions2, rewards1, nexts = [], [], [], [], []
    s = int(s0)
    for _ in range(max_steps):
        row1, row2 = rows1[s], rows2[s]
        if row1 is None:
            row1 = rows1[s] = np.cumsum(p1[s]).tolist()
            row2 = rows2[s] = np.cumsum(p2[s]).tolist()
        a1 = _draw(row1, rng)
        a2 = _draw(row2, rng)
        k = 0 if deterministic else _draw(np.cumsum(next_probs[s, a1, a2]).tolist(), rng)
        nxt = next_states.item(s, a1, a2, k)
        states.append(s)
        actions1.append(a1)
        actions2.append(a2)
        rewards1.append(reward1.item(s, a1, a2))
        nexts.append(nxt)
        if nxt == terminal:
            break
        s = nxt
    return Episode(states, actions1, actions2, rewards1, nexts)
