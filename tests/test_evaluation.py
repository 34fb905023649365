import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgamelab import (GameSpec, GridPursuitParams, Policy, RpsParams,
                        best_response, evaluate_matchup, exploitability,
                        make_grid_pursuit, make_rng, make_rps, matchup_value,
                        oracle_weight, shapley_backup, solve_ne, uniform_policy)

from oracles import (dense_matchup_values, per_state_value_iteration,
                     random_acyclic_game, random_game, tree_maximin_values)

ROCK_ONLY = np.array([[1.0, 0.0, 0.0]])


def swap_players(game: GameSpec) -> GameSpec:
    """The same game seen from player 2's side (roles and reward sign flipped)."""
    return GameSpec(
        next_states=game.next_states.swapaxes(1, 2),
        next_probs=game.next_probs.swapaxes(1, 2),
        reward1=-game.reward1.swapaxes(1, 2),
        discount=game.discount,
        initial_dist=game.initial_dist,
        features=game.features,
        horizon=game.horizon,
    )


def test_solve_ne_rps2_values():
    ne = solve_ne(make_rps(RpsParams(2)))
    assert ne.v_star[0, 0] == pytest.approx(1.0 / 9.0, abs=1e-9)
    assert ne.v_star[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-9)
    np.testing.assert_allclose(ne.v_star[0], -ne.v_star[1], atol=1e-12)


def test_solve_ne_zero_rewards():
    game = make_rps(RpsParams(2))
    zero = dataclasses.replace(game, reward1=np.zeros_like(game.reward1))
    ne = solve_ne(zero)
    assert np.abs(ne.v_star).max() == 0.0
    assert np.abs(ne.q_star).max() == 0.0


def test_solve_ne_matches_tree_oracle_on_grid():
    game = make_grid_pursuit(GridPursuitParams(2, 2, 2))
    ne = solve_ne(game)
    np.testing.assert_allclose(ne.v_star[0], tree_maximin_values(game), atol=1e-9)


def test_solve_ne_bellman_consistency():
    # Q* reproduces V* through one more stage solve, within tolerance
    rng = make_rng(23)
    game = random_game(rng, states=5, gamma=0.85)
    ne = solve_ne(game, tol=1e-10)
    assert ne.residual <= 1e-10
    backed = shapley_backup(game, ne.v_star[0])
    np.testing.assert_allclose(backed, ne.v_star[0], atol=1e-9)


def test_solve_ne_duality_via_swapped_game():
    rng = make_rng(31)
    game = random_game(rng, states=4, gamma=0.8)
    ne = solve_ne(game)
    ne_swapped = solve_ne(swap_players(game))
    np.testing.assert_allclose(ne_swapped.v_star[0], ne.v_star[1], atol=1e-9)


def test_solve_ne_flags_nonconvergence():
    rng = make_rng(37)
    game = random_game(rng, states=5, gamma=0.99)
    ne = solve_ne(game, tol=1e-12, max_iters=3)
    assert not ne.converged(1e-12)


def test_shapley_contraction_for_discounted_games():
    rng = make_rng(41)
    game = random_game(rng, states=5, gamma=0.7)
    v = np.zeros(game.state_count)
    prev_change = None
    for _ in range(25):
        v_next = shapley_backup(game, v)
        change = np.abs(v_next - v).max()
        if prev_change is not None:
            assert change <= game.discount * prev_change + 1e-12
        prev_change = change
        v = v_next


def test_best_response_to_uniform_rps1():
    game = make_rps(RpsParams(1))
    _, value = best_response(game, uniform_policy(game).p2, player=0)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_best_response_to_always_rock():
    game = make_rps(RpsParams(1))
    policy, value = best_response(game, ROCK_ONLY, player=0)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert policy[0].tolist() == [0.0, 1.0, 0.0]  # paper


def test_best_response_against_equilibrium_gets_the_value():
    game = make_rps(RpsParams(3))
    ne = solve_ne(game)
    _, value1 = best_response(game, ne.ne_policy.p2, player=0)
    _, value2 = best_response(game, ne.ne_policy.p1, player=1)
    assert value1 == pytest.approx(ne.v_star[0, 0], abs=1e-8)
    assert value2 == pytest.approx(-ne.v_star[0, 0], abs=1e-8)


def test_exploitability_of_exact_equilibrium_is_zero():
    game = make_rps(RpsParams(1))
    report = exploitability(game, solve_ne(game).ne_policy)
    assert abs(report.total) <= 1e-8


def test_exploitability_uniform_vs_rock():
    game = make_rps(RpsParams(1))
    joint = Policy(uniform_policy(game).p1, ROCK_ONLY)
    report = exploitability(game, joint)
    assert report.br_value_1 == pytest.approx(1.0, abs=1e-8)
    assert report.br_value_2 == pytest.approx(-1.0 / 3.0, abs=1e-8)
    assert report.total == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_exploitability_nonnegative_and_positive_when_perturbed():
    game = make_rps(RpsParams(2))
    ne = solve_ne(game)
    rng = make_rng(3)
    for _ in range(20):
        p1 = rng.random((2, 3)) + 0.05
        p2 = rng.random((2, 3)) + 0.05
        joint = Policy(p1 / p1.sum(1, keepdims=True), p2 / p2.sum(1, keepdims=True))
        assert exploitability(game, joint).total >= -1e-9
    eps = 0.1
    pure = np.zeros((2, 3))
    pure[:, 0] = 1.0
    perturbed = Policy((1 - eps) * ne.ne_policy.p1 + eps * pure,
                       (1 - eps) * ne.ne_policy.p2 + eps * pure)
    assert exploitability(game, perturbed).total > 0.0


def test_oracle_weight_values():
    game = make_rps(RpsParams(1))
    ne = solve_ne(game)
    zeros = np.zeros((1, 2, 1))
    assert oracle_weight(0, zeros, ne) == pytest.approx(1.0 / 9.0, abs=1e-12)
    exact = np.stack([[ne.v_star[0], -ne.v_star[1]]])
    assert oracle_weight(0, exact, ne) == 0.0


def test_oracle_weight_bias_variance_identity():
    rng = make_rng(5)
    game = make_rps(RpsParams(2))
    ne = solve_ne(game)
    members = rng.uniform(-1, 1, size=(3, 2, 2))
    for s in range(2):
        gaps = ne.v_star[0, s] - members[:, :, s].ravel()
        decomposed = np.mean(gaps) ** 2 + np.var(gaps)
        assert oracle_weight(s, members, ne) == pytest.approx(decomposed, abs=1e-12)


def test_matchup_value_ne_vs_ne():
    game = make_rps(RpsParams(1))
    ne = solve_ne(game)
    assert matchup_value(game, ne.ne_policy.p1, ne.ne_policy.p2) == pytest.approx(
        1.0 / 3.0, abs=1e-9)


def test_matchup_value_uniform_vs_rock():
    game = make_rps(RpsParams(1))
    value = matchup_value(game, uniform_policy(game).p1, ROCK_ONLY)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-12)  # wins only with paper


def test_monte_carlo_matches_dp_for_deterministic_play():
    game = make_rps(RpsParams(2))
    point1 = np.zeros((2, 3))
    point1[:, 1] = 1.0  # always paper
    point2 = np.zeros((2, 3))
    point2[:, 0] = 1.0  # always rock
    exact = matchup_value(game, point1, point2)
    sampled = evaluate_matchup(game, point1, point2, episodes=10, rng=make_rng(0))
    assert sampled == exact


def test_monte_carlo_matchup_close_to_dp():
    game = make_rps(RpsParams(1))
    policy = uniform_policy(game)
    sampled = evaluate_matchup(game, policy.p1, policy.p2, episodes=20_000,
                               rng=make_rng(8))
    assert sampled == pytest.approx(1.0 / 3.0, abs=0.02)


def random_joint(rng, game):
    a1, a2 = game.action_counts
    p1 = rng.random((game.state_count, a1)) + 0.05
    p2 = rng.random((game.state_count, a2)) + 0.05
    return p1 / p1.sum(1, keepdims=True), p2 / p2.sum(1, keepdims=True)


def assert_policies_earn_their_values(game, ne, p1, p2):
    # each returned policy earns the returned value against its fixed opponent
    assert exploitability(game, ne.ne_policy).total == pytest.approx(0.0, abs=1e-9)
    br1, value1 = best_response(game, p2, player=0)
    br2, value2 = best_response(game, p1, player=1)
    assert value1 == pytest.approx(matchup_value(game, br1, p2), abs=1e-9)
    assert value2 == pytest.approx(-matchup_value(game, p1, br2), abs=1e-9)
    expected = game.initial_dist @ dense_matchup_values(game, p1, p2)
    assert matchup_value(game, p1, p2) == pytest.approx(expected, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), states=st.integers(1, 7),
       a1=st.integers(1, 3), a2=st.integers(1, 3), support=st.integers(2, 3),
       gamma=st.sampled_from([0.5, 0.9, 1.0]))
def test_acyclic_kernel_matches_independent_oracles(seed, states, a1, a2, support, gamma):
    # one backward pass over the level slices equals the tree recursion for
    # the equilibrium and a dense linear solve for a fixed joint policy
    rng = make_rng(seed)
    game = random_acyclic_game(rng, states, a1, a2, support, gamma)
    ne = solve_ne(game)
    assert ne.residual == 0.0
    np.testing.assert_allclose(ne.v_star[0], tree_maximin_values(game), atol=1e-9)
    assert_policies_earn_their_values(game, ne, *random_joint(rng, game))


@pytest.mark.parametrize("seed", range(6))
def test_cyclic_kernel_policies_earn_their_values(seed):
    rng = make_rng(100 + seed)
    game = random_game(rng, states=6, a1=3, a2=2, gamma=0.9, branching=3)
    assert game.levels is None
    assert_policies_earn_their_values(game, solve_ne(game), *random_joint(rng, game))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_solve_ne_is_the_per_state_dynamic_program_bit_for_bit(seed):
    # the stacked stage-game solves change no bit of the equilibrium, on
    # value iteration (cyclic) and on one backward pass (acyclic)
    rng = make_rng(200 + seed)
    cyclic = random_game(rng, states=8, a1=3, a2=3, gamma=0.9, branching=3)
    acyclic = random_acyclic_game(rng, states=12, a1=3, a2=3, support=2)
    assert cyclic.levels is None and acyclic.levels is not None
    for game in (cyclic, acyclic):
        ne = solve_ne(game)
        v, stages, p1, p2, residual = per_state_value_iteration(game)
        assert _bits(ne.v_star) == _bits(np.stack([v, -v]))
        assert _bits(ne.q_star) == _bits(np.stack([stages, -stages]))
        assert _bits(ne.ne_policy.p1) == _bits(p1)
        assert _bits(ne.ne_policy.p2) == _bits(p2)
        assert _bits(ne.residual) == _bits(residual)
