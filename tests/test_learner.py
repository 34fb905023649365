import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgamelab import (GridPursuitParams, Learner, LearnerConfig, QTable, RpsParams,
                        RunConfig, UniformStream, exploration_policy, make_grid_pursuit,
                        make_rps, minimax_q_update, q_error, run_experiment,
                        sample_initial, samples_to_converge, solve_ne, values_from_q)
from subgamelab import learner as learner_module
from subgamelab.envs import RPS_WINS

from oracles import (DictCacheQTable, dict_cache_exploration_policy,
                     dict_cache_minimax_q_update, dict_cache_values_from_q, episode_of,
                     random_game, support_enumeration_value)


def rps_game(n=1):
    return make_rps(RpsParams(n))


def all_joint_steps(game, state):
    """One step per joint action at ``state`` under the true kernel."""
    return [(state, a1, a2, float(game.reward1[state, a1, a2]),
             int(game.next_states[state, a1, a2, 0]))
            for a1 in range(3) for a2 in range(3)]


def test_zero_learning_rate_is_identity():
    game = rps_game()
    q = QTable.zeros(game)
    # lr must be positive, so realize alpha=0 through a fully decayed schedule
    cfg = LearnerConfig(lr=1e-9, lr_decay=None)
    before = q.q.copy()
    minimax_q_update(q, episode_of(all_joint_steps(game, 0)), cfg, game.discount)
    np.testing.assert_allclose(q.q, before, atol=1e-8)


def test_unit_rate_terminal_update_is_exact():
    game = rps_game()
    q = QTable.zeros(game)
    cfg = LearnerConfig(lr=1.0, lr_decay=None)
    win = episode_of([(0, 0, 2, 1.0, game.terminal_index)])
    minimax_q_update(q, win, cfg, game.discount)
    assert q.q[0, 0, 0, 2] == 1.0
    assert q.q[1, 0, 0, 2] == -1.0


def test_one_pass_over_rps1_reaches_stage_value_one_third():
    game = rps_game()
    q = QTable.zeros(game)
    minimax_q_update(q, episode_of(all_joint_steps(game, 0)),
                     LearnerConfig(lr=1.0, lr_decay=None), game.discount)
    assert q.stage_value(0, 0) == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert q.stage_value(1, 0) == pytest.approx(-1.0 / 3.0, abs=1e-9)


def test_visit_count_decay_averages_targets():
    game = rps_game()
    q = QTable.zeros(game)
    cfg = LearnerConfig(lr=1.0, lr_decay="visit_count")
    win = (0, 0, 2, 1.0, game.terminal_index)
    draw = (0, 0, 2, 0.0, game.terminal_index)
    minimax_q_update(q, episode_of([win, draw, win, draw]), cfg, game.discount)
    assert q.q[0, 0, 0, 2] == pytest.approx(0.5)


def test_exploration_policy_uniform_when_epsilon_one():
    game = rps_game(2)
    policy = exploration_policy(QTable.zeros(game), 1.0)
    np.testing.assert_allclose(policy.p1, 1.0 / 3.0)
    np.testing.assert_allclose(policy.p2, 1.0 / 3.0)


def test_exploration_policy_greedy_on_converged_rps1_is_uniform():
    game = rps_game()
    oracle = solve_ne(game)
    q = QTable.zeros(game)
    q.q[:] = oracle.q_star
    policy = exploration_policy(q, 0.0)
    np.testing.assert_allclose(policy.p1[0], np.ones(3) / 3, atol=1e-9)
    np.testing.assert_allclose(policy.p2[0], np.ones(3) / 3, atol=1e-9)


def test_exploration_policy_mixture_frequencies():
    # action draws from the epsilon=0.5 policy match the analytic mixture
    game = rps_game()
    q = QTable.zeros(game)
    # row 1 (paper) strictly dominates, so the maximin strategy is pure
    q.q[0, 0] = np.array([[2.0, 2.0, 2.0], [3.0, 3.0, 3.0], [2.0, 2.0, 2.0]])
    q.invalidate(0)
    policy = exploration_policy(q, 0.5)
    expected = 0.5 * np.ones(3) / 3 + 0.5 * np.array([0.0, 1.0, 0.0])
    np.testing.assert_allclose(policy.p1[0], expected, atol=1e-12)
    rng = np.random.default_rng(2)
    draws = 10_000
    counts = np.bincount(
        [np.searchsorted(np.cumsum(policy.p1[0]), rng.random(), side="right")
         for _ in range(draws)], minlength=3)
    for a in range(3):
        sigma = np.sqrt(draws * expected[a] * (1 - expected[a]))
        assert abs(counts[a] - draws * expected[a]) <= 3 * sigma


def test_values_from_q_zero_and_exact():
    game = rps_game()
    assert values_from_q(QTable.zeros(game)).tolist() == [[0.0], [0.0]]
    oracle = solve_ne(game)
    q = QTable.zeros(game)
    q.q[:] = oracle.q_star
    vt = values_from_q(q)
    assert vt[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert vt[1, 0] == pytest.approx(-1.0 / 3.0, abs=1e-9)


def test_values_from_q_matches_support_enumeration():
    game = rps_game(2)
    rng = np.random.default_rng(17)
    q = QTable.zeros(game)
    q.q[:] = rng.uniform(-1, 1, size=q.q.shape)
    vt = values_from_q(q)
    for s in range(2):
        expected, _, _ = support_enumeration_value(q.q[0, s])
        assert vt[0, s] == pytest.approx(expected, abs=1e-8)
        expected2, _, _ = support_enumeration_value(q.q[1, s].T)
        assert vt[1, s] == pytest.approx(expected2, abs=1e-8)


def test_q_error_against_rps2_oracle():
    game = rps_game(2)
    oracle = solve_ne(game)
    zero = QTable.zeros(game)
    assert q_error(zero, oracle) == pytest.approx(1.0)  # the winning entry at s1
    exact = QTable.zeros(game)
    exact.q[:] = oracle.q_star
    assert q_error(exact, oracle) == 0.0


def test_q_error_monotone_under_single_entry_improvement():
    game = rps_game(2)
    oracle = solve_ne(game)
    q = QTable.zeros(game)
    before = q_error(q, oracle)
    q.q[0, 1, 0, 2] = 0.5  # halfway toward the true winning entry
    assert q_error(q, oracle) <= before


def test_fixed_point_of_oracle_backups():
    game = rps_game(2)
    oracle = solve_ne(game)
    q = QTable.zeros(game)
    q.q[:] = oracle.q_star
    cfg = LearnerConfig(lr=1.0, lr_decay=None)
    batch = all_joint_steps(game, 0) + all_joint_steps(game, 1)
    minimax_q_update(q, episode_of(batch), cfg, game.discount)
    assert q_error(q, oracle) < 1e-9


def test_player_symmetry_under_shared_stream():
    game = rps_game(2)
    q = QTable.zeros(game)
    cfg = LearnerConfig(lr=1.0, lr_decay="visit_count")
    rng = np.random.default_rng(3)
    for _ in range(300):
        s = int(rng.integers(0, 2))
        a1, a2 = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        step = (s, a1, a2, float(game.reward1[s, a1, a2]), int(game.next_states[s, a1, a2, 0]))
        minimax_q_update(q, episode_of([step]), cfg, game.discount)
    np.testing.assert_allclose(q.q[0], -q.q[1], atol=1e-9)


def test_visit_decay_converges_on_rps2():
    cfg = RunConfig(env="rps", env_params={"rps_n": 2}, method="self_play",
                    learner=LearnerConfig(lr=1.0, lr_decay="visit_count",
                                          epsilon=1.0),
                    seeds=(0,), sample_budget=20_000, eval_every=200)
    record = run_experiment(cfg)
    assert samples_to_converge(record, 1e-2) is not None


def test_config_validation():
    with pytest.raises(ValueError):
        LearnerConfig(lr=0.0)
    with pytest.raises(ValueError):
        LearnerConfig(epsilon=1.5)
    for decay in ("linear", 2, 2.0, -1, 0, 0.0, True, False, [0.5], float("nan"),
                  float("inf"), np.float64(1.5)):
        with pytest.raises(ValueError, match="lr_decay"):
            LearnerConfig(lr_decay=decay)
    for decay in (None, "visit_count", 0.5, 1, 1.0, np.float64(0.9)):
        assert LearnerConfig(lr_decay=decay).lr_decay == decay
    with pytest.raises(ValueError):
        LearnerConfig(batch_size=0)


def test_q_error_shape_mismatch():
    game = rps_game(2)
    oracle = solve_ne(game)
    with pytest.raises(ValueError):
        q_error(QTable.zeros(rps_game(3)), oracle)


def test_win_pairs_constant_is_consistent():
    game = rps_game()
    for a1, a2 in RPS_WINS:
        assert game.reward1[0, a1, a2] == 1.0


def random_step(game, rng):
    s = int(rng.integers(0, game.state_count))
    a1, a2 = (int(a) for a in rng.integers(0, game.action_counts))
    slot = 0
    if game.next_states.shape[3] > 1:  # a stochastic kernel: any live successor
        slot = int(rng.choice(np.flatnonzero(game.next_probs[s, a1, a2] > 0.0)))
    return (s, a1, a2, float(game.reward1[s, a1, a2]), int(game.next_states[s, a1, a2, slot]))


GAMES = {"rps3": rps_game(3), "grid": make_grid_pursuit(GridPursuitParams(2, 2, 3))}


@settings(max_examples=60, deadline=None)
@given(game=st.sampled_from(sorted(GAMES)), seed=st.integers(0, 2**32 - 1),
       batches=st.lists(st.integers(0, 12), min_size=1, max_size=8),
       lr=st.sampled_from([1.0, 0.5]), decay=st.sampled_from([None, "visit_count"]))
def test_values_from_q_refreshes_written_rows_exactly(game, seed, batches, lr, decay):
    # after each batch, the dirty-mask refresh equals a fresh table's full solve
    game = GAMES[game]
    rng = np.random.default_rng(seed)
    q = QTable.zeros(game)
    cfg = LearnerConfig(lr=lr, lr_decay=decay)
    for size in batches:
        batch = episode_of([random_step(game, rng) for _ in range(size)])
        minimax_q_update(q, batch, cfg, game.discount)
        fresh = QTable(q.q.copy(), q.visits.copy())
        assert values_from_q(q).tolist() == values_from_q(fresh).tolist()


# non-square cyclic games; every state of both has a self-loop
REFERENCE_GAMES = {**GAMES,
                   "cyclic2x3": random_game(np.random.default_rng(5), states=4, a1=2, a2=3, branching=3),
                   "cyclic3x2": random_game(np.random.default_rng(6), states=5, a1=3, a2=2, branching=3)}
READS = ("values", "greedy", "explore")


@settings(max_examples=80, deadline=None)
@given(game=st.sampled_from(sorted(REFERENCE_GAMES)), seed=st.integers(0, 2**32 - 1),
       batches=st.lists(st.tuples(st.integers(0, 12), st.lists(st.sampled_from(READS))),
                        min_size=1, max_size=8),
       lr=st.sampled_from([1.0, 0.5]), decay=st.sampled_from([None, "visit_count", 0.9]))
def test_stage_store_matches_dict_cache_reference(game, seed, batches, lr, decay):
    # same Q-tables, values and policies, bit for bit, whatever reads fall between writes
    game = REFERENCE_GAMES[game]
    rng = np.random.default_rng(seed)
    q, ref = QTable.zeros(game), DictCacheQTable(game)
    cfg = LearnerConfig(lr=lr, lr_decay=decay)

    def assert_reads_equal(names):
        for name in names:
            if name == "values":
                pairs = [(values_from_q(q), dict_cache_values_from_q(ref))]
            else:
                eps = 0.0 if name == "greedy" else 0.3
                pol = exploration_policy(q, eps)
                pol_ref = dict_cache_exploration_policy(ref, eps)
                pairs = [(pol.p1, pol_ref.p1), (pol.p2, pol_ref.p2)]
            for new, old in pairs:
                assert new.tobytes() == old.tobytes(), name

    for size, reads in batches:
        batch = episode_of([random_step(game, rng) for _ in range(size)])
        minimax_q_update(q, batch, cfg, game.discount)
        dict_cache_minimax_q_update(ref, batch, cfg, game.discount)
        assert q.q.tobytes() == ref.q.tobytes()
        assert q.visits.tobytes() == ref.visits.tobytes()
        assert_reads_equal(reads)
    assert_reads_equal(READS)


def test_refresh_solves_only_rows_written_since_their_last_solve(monkeypatch):
    solved = []
    original = learner_module.solve_stack

    def counting(stages):
        solved.append(len(stages))
        return original(stages)

    monkeypatch.setattr(learner_module, "solve_stack", counting)
    game = rps_game(3)
    q = QTable.zeros(game)
    values_from_q(q)
    assert solved == [3, 3]  # every row starts unsolved; one stack per player
    values_from_q(q)
    exploration_policy(q, 0.5)
    q.stage_solution(1, 2)
    assert solved == [3, 3]
    win = episode_of([(2, 0, 2, 1.0, game.terminal_index)])
    minimax_q_update(q, win, LearnerConfig(lr=1.0, lr_decay=None), game.discount)
    exploration_policy(q, 0.5)
    values_from_q(q)
    assert solved == [3, 3, 1, 1]


def test_values_from_q_returns_a_copy():
    q = QTable.zeros(rps_game(2))
    vt = values_from_q(q)
    vt[:] = 5.0
    assert values_from_q(q).tolist() == [[0.0, 0.0], [0.0, 0.0]]


def count_policy_builds(monkeypatch):
    builds = []
    original = learner_module.exploration_policy

    def counting(q, epsilon):
        builds.append(epsilon)
        return original(q, epsilon)

    monkeypatch.setattr(learner_module, "exploration_policy", counting)
    return builds


def test_uniform_exploration_policy_is_built_once(monkeypatch):
    builds = count_policy_builds(monkeypatch)
    game = rps_game(3)
    lr = Learner(game, LearnerConfig(lr=1.0, lr_decay=None, epsilon=1.0), np.random.default_rng(0))
    for _ in range(200):
        lr.run_episode(0, 10)
    assert lr.qtable.q.any()  # rows were written, yet the policy stands
    assert builds == [1.0]


def test_mixed_exploration_policy_rebuilt_after_a_write(monkeypatch):
    # writes that leave both stage strategies as they were reuse the policy;
    # the first write that moves one rebuilds it
    builds = count_policy_builds(monkeypatch)
    game = rps_game(3)
    cfg = LearnerConfig(lr=1.0, lr_decay=None, epsilon=0.5, batch_size=1)
    lr = Learner(game, cfg, np.random.default_rng(0))
    policy = lr.policy()
    writes = 0
    for _ in range(1000):
        before = lr.qtable.q.copy()
        lr.run_episode(0, 10)
        writes += not np.array_equal(before, lr.qtable.q)
        fresh = exploration_policy(lr.qtable, cfg.epsilon)
        if not (np.array_equal(fresh.p1, policy.p1) and np.array_equal(fresh.p2, policy.p2)):
            break
        assert lr.policy() is policy
    else:
        pytest.fail("no write moved a stage strategy")
    assert writes > 1 and builds == [0.5]
    rebuilt = lr.policy()
    assert rebuilt is not policy and builds == [0.5, 0.5]
    assert rebuilt.p1.tobytes() == fresh.p1.tobytes()
    assert rebuilt.p2.tobytes() == fresh.p2.tobytes()


class RebuildingLearner(Learner):
    """The learner with every mixture rebuilt from scratch, never looked up."""

    def _mixture(self, epsilon):
        return learner_module.exploration_policy(self.qtable, epsilon)


@pytest.mark.parametrize("game", ["grid", "cyclic2x3"])
@pytest.mark.parametrize("batch_size", [1, 3])
def test_reused_exploration_policy_equals_a_fresh_rebuild_bit_for_bit(monkeypatch, game,
                                                                       batch_size):
    builds = count_policy_builds(monkeypatch)
    game = REFERENCE_GAMES[game]
    cfg = LearnerConfig(lr=0.5, lr_decay=None, epsilon=0.5, batch_size=batch_size)

    def run(learner):
        runs = []
        for _ in range(300):
            episode = learner.run_episode(sample_initial(game, learner.rng), 6)
            runs.append((episode, learner.qtable.q.tobytes()))
        return runs

    reused = run(Learner(game, cfg, np.random.default_rng(9)))
    reused_builds = len(builds)
    assert reused == run(RebuildingLearner(game, cfg, np.random.default_rng(9)))
    assert 1 < reused_builds < len(builds) - reused_builds  # rebuilt, and reused more often


@pytest.mark.parametrize("epsilon, batch_size", [(1.0, 1), (0.5, 3)])
def test_learner_episodes_through_its_stream_equal_raw_generator_episodes(epsilon, batch_size):
    # a stochastic cyclic game: each step draws both actions and the successor
    game = random_game(np.random.default_rng(11), states=4, a1=2, a2=3, branching=3)
    cfg = LearnerConfig(lr=0.5, lr_decay="visit_count", epsilon=epsilon, batch_size=batch_size)
    streamed = Learner(game, cfg, np.random.default_rng(3))
    raw = Learner(game, cfg, np.random.default_rng(3))
    raw.rng = np.random.default_rng(3)  # scalar draws straight from the generator
    assert isinstance(streamed.rng, UniformStream)
    draws = 0
    for _ in range(200):
        s0 = sample_initial(game, streamed.rng)
        assert s0 == sample_initial(game, raw.rng)
        episode = streamed.run_episode(s0, 6)
        assert episode == raw.run_episode(s0, 6)
        draws += 1 + 3 * len(episode)
    assert draws > 4 * 256  # several blocks were used up
    assert streamed.qtable.q.tobytes() == raw.qtable.q.tobytes()


@pytest.mark.parametrize("game", ["rps3", "cyclic2x3", "cyclic3x2"])
def test_greedy_policy_is_reused_exactly_while_strategies_are_unchanged(game):
    game = REFERENCE_GAMES[game]
    lr = Learner(game, LearnerConfig(lr=0.5, lr_decay=None), np.random.default_rng(4))
    previous = lr.greedy_policy()
    outcomes = set()
    for _ in range(300):
        lr.run_episode(sample_initial(game, lr.rng), 10)
        policy = lr.greedy_policy()
        fresh = exploration_policy(lr.qtable, 0.0)
        assert policy.p1.tobytes() == fresh.p1.tobytes()
        assert policy.p2.tobytes() == fresh.p2.tobytes()
        unchanged = np.array_equal(fresh.p1, previous.p1) and np.array_equal(fresh.p2, previous.p2)
        assert (policy is previous) == unchanged
        outcomes.add(unchanged)
        previous = policy
    assert outcomes == {True, False}  # both reuse and rebuild happened


def test_greedy_exploration_policy_is_the_greedy_policy():
    # at epsilon=0 exploring and scoring read one mixture cache: one object
    game = REFERENCE_GAMES["cyclic2x3"]
    lr = Learner(game, LearnerConfig(lr=0.5, lr_decay=None, epsilon=0.0), np.random.default_rng(4))
    policies = set()
    for _ in range(100):
        assert lr.policy() is lr.greedy_policy()
        policies.add(id(lr.policy()))
        lr.run_episode(sample_initial(game, lr.rng), 10)
    assert len(policies) > 1  # the tables moved the strategies


def test_uniform_exploration_policy_solves_no_stage_game(monkeypatch):
    solved = []
    original = learner_module.solve_stack

    def counting(stages):
        solved.append(len(stages))
        return original(stages)

    monkeypatch.setattr(learner_module, "solve_stack", counting)
    lr = Learner(rps_game(3), LearnerConfig(epsilon=1.0), np.random.default_rng(0))
    policy = lr.policy()
    np.testing.assert_array_equal(policy.p1, 1.0 / 3.0)
    assert solved == []
    lr.greedy_policy()
    assert solved == [3, 3]
