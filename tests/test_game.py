import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgamelab import (Policy, RpsParams, make_rps, rollout, sample_initial,
                        solve_ne, uniform_policy)

from oracles import dense_game, random_acyclic_game, random_game, tree_maximin_values


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
    return dataclasses.replace(game, next_states=next_states, reward1=reward1,
                               horizon=None)


def test_validation_catches_bad_specs():
    good = two_state_chain()
    with pytest.raises(ValueError):
        dataclasses.replace(good, initial_dist=np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        dataclasses.replace(good, discount=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(good, next_probs=good.next_probs * 0.5)
    with pytest.raises(ValueError):
        dataclasses.replace(good, features=np.full((2, 1), 1.5))


def test_subgame_value_matches_analytic_recursion():
    # V*(s_k) = 3**(k-n); cross-checked with the support-enumeration tree
    game = make_rps(RpsParams(3))
    ne = solve_ne(game)
    assert ne.v_star[0, 2] == pytest.approx(1.0 / 3.0, abs=1e-12)
    np.testing.assert_allclose(ne.v_star[0], tree_maximin_values(game), atol=1e-9)


def test_rollout_deterministic_chain():
    game = two_state_chain()
    policy = uniform_policy(game)
    traj = rollout(game, policy, 0, np.random.default_rng(0), max_steps=10)
    assert [(t.state, t.next_state, t.reward1, t.terminal) for t in traj] == [
        (0, 1, 0.5, False), (1, 2, -0.25, True)]


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
    wins = sum(rollout(game, policy, 0, rng, 1)[0].reward1 for _ in range(100_000))
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
    hits = sum(rollout(game, policy, 0, rng, 1)[0].next_state == 1
               for _ in range(steps))
    sigma = np.sqrt(steps * 0.3 * 0.7)
    assert abs(hits - steps * 0.3) <= 3 * sigma


def test_policy_validation():
    with pytest.raises(ValueError):
        Policy(np.array([[0.5, 0.4]]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        Policy(np.array([[1.1, -0.1]]), np.array([[1.0]]))


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


def test_levels_of_built_in_and_cyclic_games():
    assert make_rps(RpsParams(3)).levels == [slice(2, 3), slice(1, 2), slice(0, 1)]
    assert looping_rps1().levels is None
    assert random_game(np.random.default_rng(2), states=5).levels is None
