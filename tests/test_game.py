import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgamelab import (GridPursuitParams, Policy, RpsParams, UniformStream,
                        make_grid_pursuit, make_rps, rollout, sample_initial, solve_ne,
                        uniform_policy)
from subgamelab.game import _TALL, _draw, _reduce_short

from oracles import (dense_game, random_acyclic_game, random_game, reference_rollout,
                     searchsorted_draw, steps_of, tree_maximin_values)


def two_state_chain():
    """Deterministic s0 -> s1 -> terminal chain with one action per player."""
    dense = np.zeros((2, 1, 1, 3))
    dense[0, 0, 0, 1] = 1.0
    dense[1, 0, 0, 2] = 1.0
    reward1 = np.array([[[0.5]], [[-0.25]]])
    return dense_game(dense, reward1, 1.0, np.array([1.0, 0.0]))


def looping_rps1():
    """One-round game where a player-1 win replays the state forever."""
    game = make_rps(RpsParams(1))
    next_states = np.array(game.next_states)
    reward1 = np.array(game.reward1)
    for a1, a2 in ((0, 2), (1, 0), (2, 1)):
        next_states[0, a1, a2, 0] = 0
        reward1[0, a1, a2] = 0.0
    return dataclasses.replace(game, next_states=next_states, reward1=reward1)


def test_validation_catches_bad_specs():
    good = two_state_chain()
    with pytest.raises(ValueError):
        dataclasses.replace(good, initial_dist=np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        dataclasses.replace(good, discount=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(good, next_probs=good.next_probs * 0.5)
    with pytest.raises(ValueError, match="d >= 1"):  # FPS needs a distance
        dataclasses.replace(good, features=np.zeros((2, 0)))


def test_gamespec_rejects_unnormalized_features():
    good = two_state_chain()
    for bad in (1.5, -0.1, np.nan, np.inf):
        features = np.array([[0.0], [bad]])
        with pytest.raises(ValueError, match="features"):
            dataclasses.replace(good, features=features)


def test_gamespec_rejects_nan_next_probs():
    # a NaN in a padding slot leaves every row's comparison checks passing
    good = two_state_chain()
    next_states = np.concatenate([good.next_states, np.full((2, 1, 1, 1), 2)], axis=3)
    next_probs = np.concatenate([good.next_probs, np.full((2, 1, 1, 1), np.nan)], axis=3)
    with pytest.raises(ValueError, match="next_probs has a NaN"):
        dataclasses.replace(good, next_states=next_states, next_probs=next_probs)


def test_gamespec_rejects_nan_initial_dist():
    good = two_state_chain()
    with pytest.raises(ValueError, match="initial_dist has a NaN"):
        dataclasses.replace(good, initial_dist=np.array([1.0, np.nan]))


def test_subgame_value_matches_analytic_recursion():
    # V*(s_k) = 3**(k-n); cross-checked with the support-enumeration tree
    game = make_rps(RpsParams(3))
    ne = solve_ne(game)
    assert ne.v_star[0, 2] == pytest.approx(1.0 / 3.0, abs=1e-12)
    np.testing.assert_allclose(ne.v_star[0], tree_maximin_values(game), atol=1e-9)


def test_rollout_deterministic_chain():
    game = two_state_chain()
    policy = uniform_policy(game)
    ep = rollout(game, policy, 0, np.random.default_rng(0), max_steps=10)
    assert len(ep) == 2
    assert steps_of(ep) == [(0, 0, 0, 0.5, 1), (1, 0, 0, -0.25, 2)]  # 2 is terminal


def test_rollout_is_bit_reproducible():
    game = make_rps(RpsParams(4))
    policy = uniform_policy(game)
    t1 = rollout(game, policy, 0, np.random.default_rng(123), max_steps=50)
    t2 = rollout(game, policy, 0, np.random.default_rng(123), max_steps=50)
    assert t1 == t2


def test_rollout_rejects_bad_arguments():
    game = make_rps(RpsParams(2))
    policy = uniform_policy(game)
    with pytest.raises(ValueError):
        rollout(game, policy, 2, np.random.default_rng(0), max_steps=5)
    with pytest.raises(ValueError):
        rollout(game, policy, 0, np.random.default_rng(0), max_steps=0)


def test_rps1_uniform_win_rate_one_third():
    game = make_rps(RpsParams(1))
    policy = uniform_policy(game)
    rng = np.random.default_rng(42)
    wins = sum(rollout(game, policy, 0, rng, 1).rewards1[0] for _ in range(100_000))
    assert wins / 100_000 == pytest.approx(1.0 / 3.0, abs=0.01)


def test_unbounded_variant_mean_episode_length():
    game = looping_rps1()
    policy = uniform_policy(game)
    rng = np.random.default_rng(7)
    total = sum(len(rollout(game, policy, 0, rng, max_steps=50))
                for _ in range(100_000))
    assert total / 100_000 == pytest.approx(1.5, abs=0.05)


def test_sample_initial_point_mass_and_default():
    chain = two_state_chain()
    rng = np.random.default_rng(0)
    assert all(sample_initial(chain, rng) == 0 for _ in range(100))
    game = make_rps(RpsParams(5))
    assert all(sample_initial(game, rng) == 0 for _ in range(100))


def test_sample_initial_frequencies_within_3_sigma():
    game = dataclasses.replace(two_state_chain(), initial_dist=np.array([0.25, 0.75]))
    rng = np.random.default_rng(5)
    draws = 10_000
    ones = sum(sample_initial(game, rng) for _ in range(draws))
    sigma = np.sqrt(draws * 0.75 * 0.25)
    assert abs(ones - draws * 0.75) <= 3 * sigma


def test_transition_frequencies_match_kernel():
    # two next states with probabilities (0.3, 0.7); 1e5 rollout steps
    dense = np.zeros((3, 1, 1, 4))
    dense[0, 0, 0, 1] = 0.3
    dense[0, 0, 0, 2] = 0.7
    dense[1, 0, 0, 3] = 1.0
    dense[2, 0, 0, 3] = 1.0
    game = dense_game(dense, np.zeros((3, 1, 1)), 1.0, np.array([1.0, 0.0, 0.0]))
    policy = uniform_policy(game)
    rng = np.random.default_rng(9)
    steps = 100_000
    hits = sum(rollout(game, policy, 0, rng, 1).next_states[0] == 1
               for _ in range(steps))
    sigma = np.sqrt(steps * 0.3 * 0.7)
    assert abs(hits - steps * 0.3) <= 3 * sigma


def test_policy_validation():
    with pytest.raises(ValueError):
        Policy(np.array([[0.5, 0.4]]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        Policy(np.array([[1.1, -0.1]]), np.array([[1.0]]))


def test_policy_and_game_adopt_and_freeze_the_callers_arrays():
    p1, p2 = np.full((2, 3), 1.0 / 3.0), np.array([[1.0], [1.0]])
    policy = Policy(p1, p2)
    assert policy.p1 is p1 and policy.p2 is p2
    with pytest.raises(ValueError, match="read-only"):
        p1[0, 0] = 0.5
    chain = two_state_chain()
    reward1 = np.array([[[0.5]], [[-0.25]]])
    game = dataclasses.replace(chain, reward1=reward1)
    assert game.reward1 is reward1
    with pytest.raises(ValueError, match="read-only"):
        reward1[0, 0, 0] = 1.0
    # an input of another dtype or layout is converted, so the caller's stays writable
    ints = np.ones((2, 1), dtype=np.int64)
    assert Policy(p1, ints).p2 is not ints and ints.flags.writeable


def test_policy_rejects_nan_rows():
    with pytest.raises(ValueError, match="p1 has a NaN"):
        Policy(np.array([[np.nan, 1.0]]), np.array([[1.0]]))
    with pytest.raises(ValueError, match="p2 has a NaN"):
        Policy(np.array([[1.0]]), np.array([[np.nan, 1.0]]))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), states=st.integers(1, 30),
       support=st.integers(1, 3))
def test_levels_partition_states_below_their_successors(seed, states, support):
    game = random_acyclic_game(np.random.default_rng(seed), states, 2, 2, support)
    levels = game.levels
    assert sorted(i for s in levels for i in range(game.state_count)[s]) == list(
        range(game.state_count))
    assert levels[0].stop == game.state_count and levels[-1].start == 0
    for upper, lower in zip(levels, levels[1:]):
        assert lower.stop == upper.start
    for s in levels:
        live = game.next_probs[s] > 0.0
        assert (game.next_states[s][live] >= s.stop).all()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), states=st.integers(1, 30),
       support=st.integers(1, 3))
def test_acyclic_rollout_ends_within_state_count_steps(seed, states, support):
    # every step moves to a larger index, so no episode outlasts the state
    # count; that is why one step cap serves every built-in game
    rng = np.random.default_rng(seed)
    game = random_acyclic_game(rng, states, 2, 2, support)
    p1, p2 = rng.dirichlet(np.ones(2), size=(2, states))
    policy = Policy(p1, p2)
    for s0 in range(states):
        ep = rollout(game, policy, s0, rng, max_steps=game.state_count)
        assert ep.next_states[-1] == game.terminal_index


def test_levels_of_built_in_and_cyclic_games():
    assert make_rps(RpsParams(3)).levels == [slice(2, 3), slice(1, 2), slice(0, 1)]
    assert looping_rps1().levels is None
    assert random_game(np.random.default_rng(2), states=5).levels is None


class FixedUniform:
    """Stands in for a generator whose next uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@settings(max_examples=300, deadline=None)
@given(weights=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 5.0), min_size=1, max_size=6),
       scale=st.sampled_from([1.0, 1.0 - 1e-12, 0.5]), pick=st.integers(0, 5),
       u=st.floats(0.0, 1.0, exclude_max=True), at_entry=st.booleans())
def test_draw_is_searchsorted_right_with_the_clamp(weights, scale, pick, u, at_entry):
    # plateaued rows (zero weights), rows whose sum ends below 1.0, and
    # uniforms exactly on a cumulative entry, where side="right" matters
    w = np.array(weights)
    cum = np.cumsum(w / w.sum() * scale) if w.sum() > 0 else np.zeros(w.size)
    if at_entry:
        u = min(float(cum[pick % cum.size]), np.nextafter(1.0, 0.0))
    assert _draw(cum.tolist(), FixedUniform(u)) == searchsorted_draw(cum, FixedUniform(u))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 6))
def test_draw_consumes_one_uniform_like_the_searchsorted_draw(seed, size):
    cum = np.cumsum(np.random.default_rng(seed).random(size))
    cum /= cum[-1]
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        assert _draw(cum.tolist(), a) == searchsorted_draw(cum, b)
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1])
def test_uniform_stream_returns_the_scalar_draws_across_blocks(seed):
    stream, raw = UniformStream(np.random.default_rng(seed)), np.random.default_rng(seed)
    draws = 1_300  # five blocks and part of a sixth
    assert [stream.random() for _ in range(draws)] == [raw.random() for _ in range(draws)]
    # the wrapped generator has drawn the started block whole, and no further
    raw.random(6 * 256 - draws)
    assert stream.rng.bit_generator.state == raw.bit_generator.state


ROLLOUT_GAMES = {
    "rps4": make_rps(RpsParams(4)),
    "grid": make_grid_pursuit(GridPursuitParams(2, 2, 3)),
    # stochastic (K = 3) and cyclic: only max_steps ends some episodes
    "cyclic": random_game(np.random.default_rng(11), states=4, a1=2, a2=3, branching=3),
}


def mixture_policy(game, rng, epsilon):
    """Epsilon-mixture of uniform play and random strategies with zero entries."""
    rows = []
    for actions in game.action_counts:
        shape = (game.state_count, actions)
        strategy = rng.random(shape) * (rng.random(shape) < 0.5)
        strategy[strategy.sum(axis=1) == 0.0, 0] = 1.0
        strategy /= strategy.sum(axis=1, keepdims=True)
        rows.append(epsilon / actions + (1.0 - epsilon) * strategy)
    return Policy(*rows)


@settings(max_examples=150, deadline=None)
@given(game=st.sampled_from(sorted(ROLLOUT_GAMES)), seed=st.integers(0, 2**32 - 1),
       epsilon=st.sampled_from([0.0, 0.3, 1.0]), max_steps=st.integers(1, 12),
       episodes=st.integers(1, 5))
def test_rollout_columns_equal_the_reference_steps(game, seed, epsilon, max_steps, episodes):
    game = ROLLOUT_GAMES[game]
    rng = np.random.default_rng(seed)
    policy = mixture_policy(game, rng, epsilon)
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    visited = set()
    for _ in range(episodes):
        s0 = int(rng.integers(0, game.state_count))
        converted = [list(slots) for slots in policy.row_cdf_lists]
        ep = rollout(game, policy, s0, a, max_steps)
        ref = reference_rollout(game, policy, s0, b, max_steps)
        assert len(ep) == len(ref)
        assert steps_of(ep) == [step[:5] for step in ref]
        for column in (ep.states, ep.actions1, ep.actions2, ep.next_states):
            assert all(type(x) is int for x in column)
        assert all(type(r) is float for r in ep.rewards1)
        # a terminal step ends the episode; otherwise it ran max_steps
        assert [step[5] for step in ref] == [n == game.terminal_index for n in ep.next_states]
        assert ref[-1][5] or len(ep) == max_steps
        assert a.bit_generator.state == b.bit_generator.state
        visited.update(ep.states)
        for before, slots in zip(converted, policy.row_cdf_lists):
            assert all(row is None or row is slots[s] for s, row in enumerate(before))
    # the policy's row slots persist across its rollouts: converted once for
    # each state drawn from, into that state's CDF rows
    for slots, p in zip(policy.row_cdf_lists, (policy.p1, policy.p2)):
        cum = np.cumsum(p, axis=1)
        assert {s for s, row in enumerate(slots) if row is not None} == visited
        assert all(slots[s] == cum[s].tolist() for s in visited)


# signed zeros, ties and magnitudes far apart, so an add in another order
# or a tie resolved to the other zero shows in the bits
REDUCE_ENTRIES = np.array([-0.0, 0.0, 1.0, -1.0, 0.5, 1e-300, -3e16, 3e16, 0.1, -0.7])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ufunc=st.sampled_from([np.minimum, np.maximum, np.add]),
       height=st.sampled_from([1, 2, _TALL - 1, _TALL, _TALL + 1, 1000, 30_000]),
       width=st.integers(1, 5), terms=st.integers(1, 10), last=st.booleans())
def test_reduce_short_is_the_numpy_reduction_bit_for_bit(seed, ufunc, height, width, terms,
                                                         last):
    # a (height, width, terms) stack reduced over its last axis, or a
    # (height, terms, width) stack over its middle one; from 8 terms the
    # helper hands over to numpy
    rng = np.random.default_rng(seed)
    shape, axis = ((height, width, terms), 2) if last else ((height, terms, width), 1)
    a = REDUCE_ENTRIES[rng.integers(0, REDUCE_ENTRIES.size, shape)]
    expected = ufunc.reduce(a, axis=axis)
    got = _reduce_short(ufunc, a, axis)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()
    flat = a.reshape(height * a.shape[1], a.shape[2]) if last else a[:, :, 0]
    assert _reduce_short(ufunc, flat, 1).tobytes() == ufunc.reduce(flat, axis=1).tobytes()
