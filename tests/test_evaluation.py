import dataclasses
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subgamelab import (GameSpec, GridPursuitParams, Policy, RpsParams,
                        best_response, exploitability, make_grid_pursuit, make_rps,
                        matchup_value, oracle_weight, solve_ne, uniform_policy)
from subgamelab import evaluation as evaluation_module

from oracles import (dense_game, dense_matchup_values, hoffman_karp_strategy_iteration,
                     per_state_value_iteration, random_acyclic_game, random_game,
                     random_layered_game, shapley_backup, stopping_game,
                     tree_maximin_values)

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
    rng = np.random.default_rng(23)
    game = random_game(rng, states=5, gamma=0.85)
    ne = solve_ne(game)
    assert ne.residual <= 1e-10
    backed = shapley_backup(game, ne.v_star[0])
    np.testing.assert_allclose(backed, ne.v_star[0], atol=1e-9)


def test_solve_ne_duality_via_swapped_game():
    rng = np.random.default_rng(31)
    game = random_game(rng, states=4, gamma=0.8)
    ne = solve_ne(game)
    ne_swapped = solve_ne(swap_players(game))
    np.testing.assert_allclose(ne_swapped.v_star[0], ne.v_star[1], atol=1e-9)


def shapley_gap(game: GameSpec, ne) -> float:
    return float(np.abs(shapley_backup(game, ne.v_star[0]) - ne.v_star[0]).max())


def test_solve_ne_flags_a_spent_step_bound(monkeypatch):
    # strategy iteration stops at its step bound and reports the residual it left
    calls = []
    original = evaluation_module.solve_stack

    def counting(stages):
        calls.append(len(stages))
        return original(stages)

    monkeypatch.setattr(evaluation_module, "solve_stack", counting)
    monkeypatch.setattr(evaluation_module, "_MAX_STEPS", 3)
    rng = np.random.default_rng(37)
    game = random_game(rng, states=5, gamma=0.99)
    ne = solve_ne(game)
    assert len(calls) <= 2 * 3 + 1  # at most two stage solves per step, one first backup
    assert not ne.converged(1e-12)
    assert ne.residual == shapley_gap(game, ne)


def test_shapley_contraction_for_discounted_games():
    rng = np.random.default_rng(41)
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
    rng = np.random.default_rng(3)
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
    zeros = np.zeros((1, 2))
    assert oracle_weight(0, zeros, ne) == pytest.approx(1.0 / 9.0, abs=1e-12)
    exact = np.column_stack([ne.v_star[0], -ne.v_star[1]])
    assert oracle_weight(0, exact, ne) == 0.0


def test_oracle_weight_bias_variance_identity():
    rng = np.random.default_rng(5)
    game = make_rps(RpsParams(2))
    ne = solve_ne(game)
    members = rng.uniform(-1, 1, size=(2, 6))
    for s in range(2):
        gaps = ne.v_star[0, s] - members[s]
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
    rng = np.random.default_rng(seed)
    game = random_acyclic_game(rng, states, a1, a2, support, gamma)
    ne = solve_ne(game)
    assert ne.residual == 0.0
    np.testing.assert_allclose(ne.v_star[0], tree_maximin_values(game), atol=1e-9)
    assert_policies_earn_their_values(game, ne, *random_joint(rng, game))


@pytest.mark.parametrize("seed", range(6))
def test_cyclic_kernel_policies_earn_their_values(seed):
    rng = np.random.default_rng(100 + seed)
    game = random_game(rng, states=6, a1=3, a2=2, gamma=0.9, branching=3)
    assert game.levels is None
    assert_policies_earn_their_values(game, solve_ne(game), *random_joint(rng, game))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_solve_ne_is_the_per_state_dynamic_program_bit_for_bit(seed):
    # the stacked stage-game solves change no bit of the backward pass
    # (acyclic); strategy iteration agrees with value iteration run to a
    # tight tolerance (cyclic)
    rng = np.random.default_rng(200 + seed)
    cyclic = random_game(rng, states=8, a1=3, a2=3, gamma=0.9, branching=3)
    acyclic = random_acyclic_game(rng, states=12, a1=3, a2=3, support=2)
    assert cyclic.levels is None and acyclic.levels is not None
    ne = solve_ne(acyclic)
    v, stages, p1, p2, residual = per_state_value_iteration(acyclic)
    assert _bits(ne.v_star) == _bits(np.stack([v, -v]))
    assert _bits(ne.q_star) == _bits(np.stack([stages, -stages]))
    assert _bits(ne.ne_policy.p1) == _bits(p1)
    assert _bits(ne.ne_policy.p2) == _bits(p2)
    assert _bits(ne.residual) == _bits(residual)
    ne = solve_ne(cyclic)
    v, stages, _, _, _ = per_state_value_iteration(cyclic, tol=1e-12)
    np.testing.assert_allclose(ne.v_star, np.stack([v, -v]), rtol=0, atol=1e-9)
    np.testing.assert_allclose(ne.q_star, np.stack([stages, -stages]), rtol=0, atol=1e-9)


def value_scale(game: GameSpec) -> float:
    """max|r| / (1 - discount), or max|r| at discount 1."""
    horizon = 1.0 if game.discount == 1.0 else 1.0 / (1.0 - game.discount)
    return float(np.abs(game.reward1).max()) * horizon


def deterministic_policies(states: int, actions: int):
    for choice in itertools.product(range(actions), repeat=states):
        yield np.eye(actions)[list(choice)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), states=st.integers(1, 3), player=st.sampled_from([0, 1]),
       gamma=st.sampled_from([0.5, 0.9, 0.99]))
def test_cyclic_best_response_is_the_best_deterministic_policy(seed, states, player, gamma):
    # policy iteration against the enumeration of every deterministic
    # policy, each scored by a dense linear solve
    rng = np.random.default_rng(seed)
    game = random_game(rng, states=states, a1=2, a2=2, gamma=gamma, branching=2)
    assume(game.levels is None)
    p1, p2 = random_joint(rng, game)

    def score(own):
        pair = (own, p2) if player == 0 else (p1, own)
        value = game.initial_dist @ dense_matchup_values(game, *pair)
        return value if player == 0 else -value

    best = max(score(own) for own in deterministic_policies(states, 2))
    policy, value = best_response(game, p2 if player == 0 else p1, player)
    tol = 1e-12 * value_scale(game)
    assert value == pytest.approx(best, abs=tol)
    assert score(policy) == pytest.approx(best, abs=tol)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), states=st.integers(1, 7),
       a1=st.integers(1, 3), a2=st.integers(1, 3), gamma=st.sampled_from([0.5, 0.9, 0.99]))
def test_cyclic_matchup_value_is_the_dense_linear_solve(seed, states, a1, a2, gamma):
    rng = np.random.default_rng(seed)
    game = random_game(rng, states=states, a1=a1, a2=a2, gamma=gamma, branching=2)
    assume(game.levels is None)
    p1, p2 = random_joint(rng, game)
    expected = game.initial_dist @ dense_matchup_values(game, p1, p2)
    assert abs(matchup_value(game, p1, p2) - expected) <= 1e-12


CYCLIC_CASES = [(seed, gamma) for gamma in (0.7, 0.9, 0.99) for seed in range(3)]


@pytest.mark.parametrize("seed, gamma", CYCLIC_CASES)
def test_strategy_iteration_residual_is_relative_to_the_value_scale(seed, gamma):
    rng = np.random.default_rng(300 + seed)
    game = random_game(rng, states=8, a1=3, a2=3, gamma=gamma, branching=3)
    assert game.levels is None
    ne = solve_ne(game)
    assert ne.residual <= 1e-12 * value_scale(game)
    assert ne.residual == shapley_gap(game, ne)


@pytest.mark.parametrize("seed", range(3))
def test_strategy_iteration_on_a_terminating_undiscounted_game(seed):
    rng = np.random.default_rng(400 + seed)
    game = stopping_game(random_game(rng, states=6, a1=3, a2=2, gamma=0.9, branching=3), 0.2)
    assert game.discount == 1.0 and game.levels is None
    ne = solve_ne(game)
    assert ne.residual <= 1e-12 * value_scale(game)
    assert ne.residual == shapley_gap(game, ne)
    assert_policies_earn_their_values(game, ne, *random_joint(rng, game))


@pytest.mark.parametrize("scale", [1e-8, 1e8])
def test_solve_ne_residual_is_honest_at_extreme_scales(scale):
    # the reported residual is the Shapley gap recomputed independently;
    # this checks that it is honest, not that it is small
    game = random_game(np.random.default_rng(17), states=6, a1=3, a2=3, gamma=0.9, branching=3)
    game = dataclasses.replace(game, reward1=scale * game.reward1)
    ne = solve_ne(game)
    assert np.isfinite(ne.v_star).all()
    assert ne.residual == shapley_gap(game, ne)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), states=st.integers(2, 8), a1=st.integers(1, 3),
       a2=st.integers(1, 3), gamma=st.sampled_from([0.5, 0.9, 0.99, 1.0]))
def test_strategy_iteration_matches_pure_hoffman_karp(seed, states, a1, a2, gamma):
    # the Newton steps change the path, not the equilibrium; gamma 1 stands
    # for a stopping game, which ends under every pair of policies
    rng = np.random.default_rng(seed)
    game = random_game(rng, states=states, a1=a1, a2=a2, gamma=min(gamma, 0.9), branching=2)
    if gamma == 1.0:
        game = stopping_game(game, 0.2)
    assume(game.levels is None)
    ne = solve_ne(game)
    v, _, _, _ = hoffman_karp_strategy_iteration(game)
    assert np.abs(ne.v_star[0] - v).max() <= 1e-10 * value_scale(game)
    assert ne.residual == shapley_gap(game, ne)


@pytest.mark.parametrize("scale", [1.0, 1e8])
def test_strategy_iteration_lp_budget(monkeypatch, scale):
    # 16 cyclic games on which pure Hoffman-Karp makes 537 stage solves at
    # scale 1 and 535 at 1e8; the Newton steps must keep to a third of that
    calls = []
    original = evaluation_module.solve_stack

    def counting(stages):
        calls.append(len(stages))
        return original(stages)

    monkeypatch.setattr(evaluation_module, "solve_stack", counting)
    for seed in range(4):
        for gamma in (0.7, 0.9, 0.99, 0.999):
            game = random_game(np.random.default_rng(seed), states=8, a1=3, a2=3, gamma=gamma)
            assert game.levels is None
            game = dataclasses.replace(game, reward1=scale * game.reward1)
            ne = solve_ne(game)
            assert ne.residual <= 1e-12 * value_scale(game)
    assert len(calls) <= 537 // 3


def test_newton_pair_that_never_ends_falls_back_to_hoffman_karp(monkeypatch):
    # at discount 1 the stage strategies at some values form a pair under
    # which a state never ends; the Newton step cannot be evaluated there,
    # and the Hoffman-Karp step stands in for it
    transition = np.array([[[[0.0, 1.0, 0.0], [0.5, 0.0, 0.5]],
                            [[1.0, 0.0, 0.0], [0.5, 0.0, 0.5]]],
                           [[[0.0, 1.0, 0.0], [0.0, 0.5, 0.5]],
                            [[0.5, 0.0, 0.5], [0.0, 1.0, 0.0]]]])
    reward = np.array([[[1.0, 0.0], [-1.0, 0.0]], [[2.0, -1.0], [1.0, 1.0]]])
    game = dense_game(transition, reward, 1.0, np.array([0.5, 0.5]))
    refused = []
    original = evaluation_module._evaluate

    def evaluate(*args):
        try:
            return original(*args)
        except ValueError:
            refused.append(args)
            raise

    monkeypatch.setattr(evaluation_module, "_evaluate", evaluate)
    ne = solve_ne(game)
    assert refused
    v, _, _, _ = hoffman_karp_strategy_iteration(game)
    np.testing.assert_allclose(ne.v_star[0], v, rtol=0, atol=1e-12)
    np.testing.assert_allclose(ne.v_star[0], [0.0, 2.0], rtol=0, atol=1e-12)
    assert ne.residual == shapley_gap(game, ne)
    assert ne.residual <= 1e-12 * value_scale(game)


def test_undiscounted_chain_that_never_ends_fails_loudly():
    # state 1 ends only under the joint action (0, 0); elsewhere the chain
    # cycles between the two states, so I - P is singular for other pairs
    transition = np.zeros((2, 2, 2, 3))
    transition[0, :, :, 1] = 1.0
    transition[1, :, :, 0] = 1.0
    transition[1, 0, 0] = [0.0, 0.0, 1.0]
    game = dense_game(transition, np.ones((2, 2, 2)), 1.0, np.array([1.0, 0.0]))
    first = np.tile([1.0, 0.0], (2, 1))
    assert matchup_value(game, first, first) == 2.0
    second = np.tile([0.0, 1.0], (2, 1))
    with pytest.raises(ValueError, match="discount 1 needs every state to reach the terminal"):
        matchup_value(game, second, first)
    with pytest.raises(ValueError, match="never"):
        best_response(game, first, player=0)  # the maximizer's best reply never ends
    with pytest.raises(ValueError, match="never"):
        solve_ne(game)


# level slices of hundreds of states: the stage reductions of the backward
# pass and of the best reply take their tall-stack path
TALL_SLICES = {
    "grid4x4x3": lambda: make_grid_pursuit(GridPursuitParams(4, 4, 3)),  # 240 per slice
    "layered3x100": lambda: random_layered_game(np.random.default_rng(5)),
}
TALL_SLICE_DIGESTS = {
    "grid4x4x3": "8eab14f1c9e1ab4ba9aa98b6b0cfb02ed311cfb1e0f3580f10d11b71d5f92457",
    "layered3x100": "cdf0dcc00999670c80b934c678799c0516e711a85514380c0c1c4b5a97579261",
}


@pytest.mark.parametrize("name", TALL_SLICES)
def test_oracles_on_tall_slices_match_their_recorded_digest(name):
    # every output bit of the three exact oracles, -0.0 against 0.0 included,
    # as recorded before the tall-stack reductions were chained
    game = TALL_SLICES[name]()
    assert min(s.stop - s.start for s in game.levels) >= 100
    ne = solve_ne(game)
    p1, p2 = random_joint(np.random.default_rng(9), game)
    report = exploitability(game, ne.ne_policy)
    br1, value1 = best_response(game, p2, player=0)
    br2, value2 = best_response(game, p1, player=1)
    scalars = [ne.residual, report.br_value_1, report.br_value_2, value1, value2,
               matchup_value(game, p1, p2), matchup_value(game, br1, br2)]
    digest = hashlib.sha256()
    for part in (ne.v_star, ne.q_star, ne.ne_policy.p1, ne.ne_policy.p2, br1, br2, scalars):
        digest.update(_bits(part))
    assert digest.hexdigest() == TALL_SLICE_DIGESTS[name]


@pytest.mark.parametrize("support", range(1, 10))
@pytest.mark.parametrize("width", [1, 100])
def test_stages_is_the_expectation_over_the_support_bit_for_bit(support, width):
    # chained for short supports on tall slices, numpy's sum elsewhere; a
    # fifth of the values are -0.0
    rng = np.random.default_rng(support)
    game = random_layered_game(rng, layers=2, width=width, support=support)
    v_ext = np.append(np.round(rng.uniform(-2.0, 2.0, game.state_count)) / 2.0, 0.0)
    v_ext[rng.random(v_ext.size) < 0.2] = -0.0
    for reward in (game.reward1, -game.reward1):
        for s in game.levels + [slice(None)]:
            expected = reward[s] + game.discount * (
                game.next_probs[s] * v_ext[game.next_states[s]]).sum(-1)
            assert _bits(evaluation_module._stages(game, reward, v_ext, s)) == _bits(expected)
