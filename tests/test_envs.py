import numpy as np
import pytest

from subgamelab import (GridPursuitParams, RpsParams, build_env,
                        make_grid_pursuit, make_rps, solve_ne)
from subgamelab.envs import RPS_WINS

from oracles import tree_maximin_values


def test_rps_structure():
    game = make_rps(RpsParams(1))
    assert game.state_count == 1
    assert game.action_counts == (3, 3)
    wins = {(a1, a2) for a1, a2 in RPS_WINS}
    for a1 in range(3):
        for a2 in range(3):
            expected = 1.0 if (a1, a2) in wins else 0.0
            assert game.reward1[0, a1, a2] == expected
    assert game.next_probs.sum(axis=3).min() == 1.0


def test_rps_transitions_advance_on_wins():
    game = make_rps(RpsParams(3))
    assert game.state_count == 3
    for k in range(3):
        for a1 in range(3):
            for a2 in range(3):
                nxt = game.next_states[k, a1, a2, 0]
                if (a1, a2) in RPS_WINS and k < 2:
                    assert nxt == k + 1
                else:
                    assert nxt == game.terminal_index


def test_rps_features_normalized_round_index():
    assert make_rps(RpsParams(1)).features.tolist() == [[0.0]]
    np.testing.assert_allclose(make_rps(RpsParams(5)).features[:, 0],
                               np.arange(5) / 4.0)


def test_rps_rejects_bad_params():
    with pytest.raises(ValueError):
        RpsParams(0)
    with pytest.raises(ValueError):
        RpsParams(13)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_rps_equilibrium_values_and_policy(n):
    game = make_rps(RpsParams(n))
    ne = solve_ne(game)
    for k in range(n):
        assert ne.v_star[0, k] == pytest.approx(3.0 ** (k - n), abs=1e-9)
        np.testing.assert_allclose(ne.ne_policy.p1[k], np.ones(3) / 3, atol=1e-9)
        np.testing.assert_allclose(ne.ne_policy.p2[k], np.ones(3) / 3, atol=1e-9)


def test_rps_value_recursion_against_tree_oracle():
    game = make_rps(RpsParams(3))
    ne = solve_ne(game)
    # one third of the next state's value at every round
    for k in range(2):
        assert ne.v_star[0, k] == pytest.approx(ne.v_star[0, k + 1] / 3.0, abs=1e-12)
    np.testing.assert_allclose(ne.v_star[0], tree_maximin_values(game), atol=1e-9)


def grid_state(game, params, p, e, t):
    cells = params.width * params.height
    pairs = [(a, b) for a in range(cells) for b in range(cells) if a != b]
    return t * len(pairs) + pairs.index((p, e))


def test_grid_capture_onto_prey_cell():
    params = GridPursuitParams(3, 3, 4)
    game = make_grid_pursuit(params)
    # predator at cell 0, prey at cell 1; predator moves right, prey stays
    s = grid_state(game, params, 0, 1, 0)
    assert game.reward1[s, 4, 0] == 1.0
    assert game.next_states[s, 4, 0, 0] == game.terminal_index


def test_grid_swap_counts_as_capture():
    params = GridPursuitParams(3, 3, 4)
    game = make_grid_pursuit(params)
    s = grid_state(game, params, 0, 1, 0)
    # predator right (0 -> 1) while prey left (1 -> 0): they swap
    assert game.reward1[s, 4, 3] == 1.0
    assert game.next_states[s, 4, 3, 0] == game.terminal_index


def test_grid_zero_sum_and_acyclic():
    game = make_grid_pursuit(GridPursuitParams(2, 2, 3))
    # only player 1's reward is stored; the other side is defined as its negation
    assert np.isfinite(game.reward1).all()
    assert game.levels is not None
    assert game.state_count == 12 * 3
    assert game.horizon == 3


def test_grid_initial_distribution_uniform_at_t0():
    game = make_grid_pursuit(GridPursuitParams(2, 2, 2))
    rho = game.initial_dist
    assert rho[:12].min() == rho[:12].max() == pytest.approx(1.0 / 12)
    assert rho[12:].max() == 0.0


def test_grid_one_ply_values_match_bruteforce():
    game = make_grid_pursuit(GridPursuitParams(2, 2, 1))
    ne = solve_ne(game)
    np.testing.assert_allclose(ne.v_star[0], tree_maximin_values(game), atol=1e-9)


def test_grid_two_ply_values_match_tree_oracle():
    game = make_grid_pursuit(GridPursuitParams(2, 2, 2))
    ne = solve_ne(game)
    np.testing.assert_allclose(ne.v_star[0], tree_maximin_values(game), atol=1e-9)
    assert ne.residual == 0.0


def test_grid_rejects_intractable_and_tiny_sizes():
    with pytest.raises(ValueError):
        GridPursuitParams(1, 3, 4)
    with pytest.raises(ValueError):
        GridPursuitParams(10, 10, 20)


def test_grid_params_report_every_problem_together():
    with pytest.raises(ValueError) as err:
        GridPursuitParams(1, 1, 0, capture_reward=float("inf"))
    assert [p.split(" must")[0] for p in err.value.problems] == [
        "grid_width", "grid_height", "grid_horizon", "capture_reward"]


def test_build_env_dispatch():
    assert build_env("rps", {"rps_n": 2}).state_count == 2
    grid = build_env("grid_pursuit", {"grid_width": 2, "grid_height": 2,
                                      "grid_horizon": 1})
    assert grid.state_count == 12
    with pytest.raises(ValueError):
        build_env("chess", {})
