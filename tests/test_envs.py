import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subgamelab import (GridPursuitParams, RpsParams, build_env,
                        make_grid_pursuit, make_rps, solve_ne)
from subgamelab.envs import RPS_WINS

from oracles import loop_grid_pursuit, tree_maximin_values


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
    assert len(game.levels) == 3


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
    # (2^16 * 2^16)^2 wraps to 0 in int64; the cap must still see 2^64
    with pytest.raises(ValueError, match="state space too large"):
        GridPursuitParams(np.int64(2**16), np.int64(2**16), np.int64(1))


def test_grid_params_report_every_problem_together():
    with pytest.raises(ValueError) as err:
        GridPursuitParams(1, 1, 0, capture_reward=float("inf"))
    assert [p.split(" must")[0] for p in err.value.problems] == [
        "grid_width", "grid_height", "grid_horizon", "capture_reward"]


@pytest.mark.parametrize("args, kwargs, keys", [
    ((2.5, 3, 4), {}, ["grid_width"]),
    ((3, 3, True), {}, ["grid_horizon"]),
    (("3", np.float64(3.0), 0), {"capture_reward": "1"},
     ["grid_width", "grid_height", "grid_horizon", "capture_reward"]),
    ((3, 3, 4), {"capture_reward": True}, ["capture_reward"]),
    ((3, 3, 4), {"capture_reward": 10**400}, ["capture_reward"]),
], ids=["float_width", "bool_horizon", "all_four", "bool_reward", "int_beyond_float"])
def test_grid_params_reject_non_integer_sizes_and_non_real_rewards(args, kwargs, keys):
    with pytest.raises(ValueError) as err:
        GridPursuitParams(*args, **kwargs)
    assert [p.split(" must")[0] for p in err.value.problems] == keys


@pytest.mark.parametrize("n", [True, 2.0, "3", None])
def test_rps_params_name_a_non_integer_round_count(n):
    with pytest.raises(ValueError) as err:
        RpsParams(n)
    assert err.value.problems == [f"rps_n must be an integer, got {n!r}"]


def test_params_accept_numpy_integers_and_reals():
    assert make_rps(RpsParams(np.int64(2))).state_count == 2
    params = GridPursuitParams(np.int64(2), np.int32(2), np.int8(2),
                               capture_reward=np.float32(0.5))
    game = make_grid_pursuit(params)
    assert game.state_count == 24 and game.reward1.max() == 0.5


@pytest.mark.parametrize("name, flat, foreign", [
    ("rps", {"rps_n": 2, "grid_width": 5, "capture_reward": 2.0},
     ["grid_width", "capture_reward"]),
    ("grid_pursuit", {"rps_n": 3, "grid_width": 2, "grid_height": 2, "grid_horizon": 1},
     ["rps_n"]),
])
def test_build_env_rejects_keys_of_the_other_env(name, flat, foreign):
    with pytest.raises(ValueError) as err:
        build_env(name, flat)
    assert err.value.problems == [f"key '{key}' does not apply to env {name}"
                                  for key in foreign]


def assert_same_game(game, reference):
    for name in ("next_states", "next_probs", "reward1", "initial_dist", "features"):
        built, expected = getattr(game, name), getattr(reference, name)
        assert built.dtype == expected.dtype and built.shape == expected.shape, name
        assert built.tobytes() == expected.tobytes(), name
    assert game.discount == reference.discount


@settings(max_examples=40, deadline=None)
@given(width=st.integers(2, 5), height=st.integers(2, 5), horizon=st.integers(1, 6),
       capture_reward=st.one_of(st.just(0.0), st.just(-0.0),
                                st.floats(allow_nan=False, allow_infinity=False)))
def test_grid_is_the_loop_builder_bit_for_bit(width, height, horizon, capture_reward):
    params = GridPursuitParams(width, height, horizon, capture_reward)
    assert_same_game(make_grid_pursuit(params), loop_grid_pursuit(params))


def test_grid_of_1440_states_is_the_loop_builder_bit_for_bit():
    params = GridPursuitParams(4, 4, 6, capture_reward=-2.0)
    game = make_grid_pursuit(params)
    assert game.state_count == 1440
    assert_same_game(game, loop_grid_pursuit(params))


def test_build_env_dispatch():
    assert build_env("rps", {"rps_n": 2}).state_count == 2
    grid = build_env("grid_pursuit", {"grid_width": 2, "grid_height": 2,
                                      "grid_horizon": 1})
    assert grid.state_count == 12
    with pytest.raises(ValueError):
        build_env("chess", {})
