from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgamelab import (GridPursuitParams, Learner, LearnerConfig, MetricConfig,
                        RpsParams, RunConfig, SamplerConfig, SamplingTable,
                        WeightedStateBuffer,
                        buffer_insert, compute_weight, compute_weights,
                        curriculum_epoch, fps_prune, make_grid_pursuit,
                        make_rps, oracle_weight, run_experiment,
                        sample_initial, sample_subgame, samples_to_converge,
                        solve_ne)
from subgamelab.curriculum import METRIC_VARIANTS, _member_values, _pairwise_distances

from oracles import feature_game, merge_buffer_insert


def test_weight_zero_when_converged():
    members = np.array([[0.25, 0.25]])
    for variant in ("full", "bias_only", "variance_only"):
        cfg = MetricConfig(alpha_bias=0.7, variant=variant)
        assert compute_weight(0, members, members, cfg) == 0.0


def test_weight_hand_computed_example():
    # members 0.5 and 0.1 now, 0.3 and 0.1 at the checkpoint:
    # bias = (mean diff)^2 = 0.01, variance = 0.04, total = 0.7*0.01 + 0.04
    ens = (np.array([[0.5, 0.1]]), np.array([[0.3, 0.1]]))
    cfg = MetricConfig(alpha_bias=0.7)
    assert compute_weight(0, *ens, cfg) == pytest.approx(0.047, abs=1e-12)
    assert compute_weight(0, *ens, MetricConfig(variant="bias_only")) == pytest.approx(0.01)
    assert compute_weight(0, *ens, MetricConfig(variant="variance_only")) == pytest.approx(0.04)
    assert compute_weight(0, *ens, MetricConfig(variant="uniform")) == 1.0


def test_weight_td_error_variant():
    members = np.array([[0.0, 0.0], [1.0 / 3.0, 1.0 / 3.0]])
    cfg = MetricConfig(variant="td_error")
    step = (0.0, 1)  # reward 0, on to state 1
    assert compute_weight(0, members, members, cfg, td_context=step,
                          discount=1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
    with pytest.raises(ValueError):
        compute_weight(0, members, members, cfg)


def test_weight_nonnegative_on_random_inputs():
    rng = np.random.default_rng(19)
    for _ in range(500):
        m = int(rng.integers(1, 4))
        cur = rng.uniform(-2, 2, size=(3, 2 * m))
        prev = rng.uniform(-2, 2, size=(3, 2 * m))
        s = int(rng.integers(0, 3))
        step = (float(rng.uniform(-1, 1)), 3)  # a terminal step
        for variant in ("full", "uniform", "bias_only", "variance_only", "td_error"):
            cfg = MetricConfig(alpha_bias=float(rng.uniform(0, 2)), variant=variant)
            td = step if variant == "td_error" else None
            assert compute_weight(s, cur, prev, cfg, td_context=td) >= 0.0


def test_full_weight_with_oracle_checkpoint_matches_oracle_weight():
    # previous = signed equilibrium values and alpha = 1 turns the estimate
    # into the exact squared-distance weight: (E[X])^2 + Var(X) = E[X^2]
    game = make_rps(RpsParams(2))
    ne = solve_ne(game)
    rng = np.random.default_rng(29)
    current = rng.uniform(-1, 1, size=(2, 2))
    previous = np.column_stack([ne.v_star[0], -ne.v_star[1]])
    cfg = MetricConfig(alpha_bias=1.0, variant="full")
    for s in range(2):
        assert compute_weight(s, current, previous, cfg) == pytest.approx(
            oracle_weight(s, current, ne), abs=1e-9)


def test_buffer_insert_and_dedup():
    game = make_rps(RpsParams(4))
    buf = WeightedStateBuffer(capacity=8)
    buffer_insert(buf, [(0, 1.0), (2, 0.5)], game)
    assert len(buf) == 2
    buffer_insert(buf, [(2, 2.5)], game)
    assert len(buf) == 2
    assert buf.weights[buf.states == 2].tolist() == [2.5]  # newest weight wins
    with pytest.raises(ValueError):
        buffer_insert(buf, [(1, -0.1)], game)


def test_insert_many_then_prune_to_capacity():
    game = make_rps(RpsParams(10))
    buf = WeightedStateBuffer(capacity=4)
    buffer_insert(buf, [(s, 1.0) for s in range(8)], game)
    assert len(buf) == 8  # insertion never prunes
    fps_prune(buf, 4, game)
    assert len(buf) == 4


def buffer_of(points, weights):
    """Buffer holding states 0..n-1, and a game placing them at the given feature points."""
    buf = WeightedStateBuffer(capacity=len(points), states=np.arange(len(points)),
                              weights=weights)
    return buf, feature_game(points)


def one_dim_buffer(positions, weights):
    return buffer_of(np.reshape(positions, (-1, 1)), weights)


def min_pairwise(feats):
    return min(np.linalg.norm(a - b) for a, b in combinations(feats, 2))


def test_fps_identity_when_small():
    buf, game = one_dim_buffer([0.0, 0.5], [1.0, 1.0])
    assert fps_prune(buf, 5, game) is buf
    assert len(buf) == 2


def test_fps_matches_exhaustive_max_min_distance():
    # seed is the max-weight entry at 0.0; the optimal 2-subset is {0.0, 1.0}
    positions = [0.0, 0.1, 0.5, 1.0]
    buf, game = one_dim_buffer(positions, [2.0, 1.0, 1.0, 1.0])
    fps_prune(buf, 2, game)
    kept = sorted(game.features[buf.states, 0].tolist())
    best = max((subset for subset in combinations(positions, 2)),
               key=lambda sub: min_pairwise([np.array([x]) for x in sub]))
    assert kept == sorted(best) == [0.0, 1.0]


def test_fps_keeps_a_member_picked_twice_once():
    # after 0.0 and 1.0 every distance to the selection is zero, so the third
    # pick is state 0 again: the buffer keeps two members, not three
    buf, game = one_dim_buffer([0.0, 0.0, 1.0, 1.0], [2.0, 1.0, 1.0, 1.0])
    fps_prune(buf, 3, game)
    assert buf.states.tolist() == [0, 2]
    assert buf.weights.tolist() == [2.0, 1.0]


def test_fps_deterministic_and_keeps_weights():
    rng = np.random.default_rng(3)
    pts = rng.random((20, 3))
    kept = []
    for _ in range(2):
        buf, game = buffer_of(pts, np.arange(20.0))
        fps_prune(buf, 6, game)
        kept.append(buf.states.tolist())
        assert buf.weights.tolist() == [float(s) for s in buf.states]
    assert kept[0] == kept[1]


def test_fps_beats_random_pruning_on_spread():
    rng = np.random.default_rng(11)
    dominated = 0
    trials = 100
    for _ in range(trials):
        pts = rng.random((30, 3))
        fps_buf, game = buffer_of(pts, np.ones(30))
        fps_prune(fps_buf, 6, game)
        chosen = rng.choice(np.arange(30), size=6, replace=False)  # random pruning
        fps_spread = min_pairwise(game.features[fps_buf.states])
        rnd_spread = min_pairwise(pts[chosen])
        if fps_spread >= rnd_spread:
            dominated += 1
    assert dominated >= 95


def test_sampler_p_zero_equals_initial_distribution():
    game = make_rps(RpsParams(3))
    buf = WeightedStateBuffer(capacity=4)
    buffer_insert(buf, [(1, 5.0), (2, 1.0)], game)
    cfg = SamplerConfig(p=0.0)
    table = SamplingTable.of(buf)
    draws_a = [sample_subgame(table, game, cfg, np.random.default_rng(0)) for _ in range(50)]
    rng = np.random.default_rng(0)
    draws_b = [sample_initial(game, rng) for _ in range(50)]
    assert draws_a == draws_b  # identical stream, not just identical law


def test_sampler_weight_proportional_draws():
    game = make_rps(RpsParams(3))
    buf = WeightedStateBuffer(capacity=4)
    buffer_insert(buf, [(1, 1.0), (2, 3.0)], game)
    rng = np.random.default_rng(21)
    draws = 10_000
    table = SamplingTable.of(buf)
    hits = sum(sample_subgame(table, game, SamplerConfig(p=1.0), rng) == 2
               for _ in range(draws))
    sigma = np.sqrt(draws * 0.75 * 0.25)
    assert abs(hits - draws * 0.75) <= 3 * sigma


def test_sampler_fallbacks():
    game = make_rps(RpsParams(3))
    rng = np.random.default_rng(2)
    empty = SamplingTable.of(WeightedStateBuffer(capacity=4))
    zeroed = WeightedStateBuffer(capacity=4)
    buffer_insert(zeroed, [(1, 0.0), (2, 0.0)], game)
    for table in (None, empty, SamplingTable.of(zeroed)):
        assert all(sample_subgame(table, game, SamplerConfig(p=1.0), rng) == 0
                   for _ in range(50))


def make_learners(game, seed, count=1):
    cfg = LearnerConfig(lr=1.0, lr_decay=None, epsilon=1.0)
    return [Learner(game, cfg, np.random.default_rng([seed, m]))
            for m in range(count)]


def test_epoch_with_p_zero_matches_plain_self_play():
    game = make_rps(RpsParams(3))
    with_buffer = make_learners(game, seed=5)
    without = make_learners(game, seed=5)
    buf = WeightedStateBuffer(capacity=16)
    metric = MetricConfig(variant="uniform")
    for _ in range(30):
        curriculum_epoch(with_buffer, buf, game, metric, SamplerConfig(p=0.0),
                         episodes_per_epoch=4, max_steps=10)
        curriculum_epoch(without, None, game, metric, SamplerConfig(p=0.0),
                         episodes_per_epoch=4, max_steps=10)
    assert np.array_equal(with_buffer[0].qtable.q, without[0].qtable.q)
    assert len(buf) > 0  # the buffer was maintained, just never sampled


def test_epoch_initial_state_mixture(monkeypatch):
    # freeze learning so fresh weights stay zero; buffer draws can then only
    # come from the preloaded states, and s0 == 0 identifies a rho draw
    game = make_rps(RpsParams(4))
    starts = []
    original = Learner.run_episode

    def spy(self, s0, max_steps):
        starts.append(s0)
        return original(self, s0, max_steps)

    monkeypatch.setattr(Learner, "run_episode", spy)
    learners = [Learner(game, LearnerConfig(lr=1e-12, lr_decay=None, epsilon=1.0),
                        np.random.default_rng(0))]
    buf = WeightedStateBuffer(capacity=8)
    metric = MetricConfig(variant="full")
    p = 0.7
    for _ in range(100):
        # re-up the preload each epoch: epoch-end reweighting zeroes visited states
        buffer_insert(buf, [(1, 1.0), (2, 1.0), (3, 1.0)], game)
        curriculum_epoch(learners, buf, game, metric, SamplerConfig(p=p),
                         episodes_per_epoch=100, max_steps=10)
    episodes = len(starts)
    from_rho = sum(s == 0 for s in starts)
    sigma = np.sqrt(episodes * p * (1 - p))
    assert abs(from_rho - episodes * (1 - p)) <= 3 * sigma


def test_epoch_respects_capacity():
    game = make_rps(RpsParams(8))
    learners = make_learners(game, seed=1)
    buf = WeightedStateBuffer(capacity=3)
    for _ in range(40):
        curriculum_epoch(learners, buf, game, MetricConfig(variant="uniform"),
                         SamplerConfig(p=0.7), episodes_per_epoch=4, max_steps=10)
        assert len(buf) <= 3


def test_member_values_layout():
    # two learners with different random tables, so every column differs:
    # row s of the member matrix is [v1_0(s), -v2_0(s), v1_1(s), -v2_1(s)]
    game = make_rps(RpsParams(3))
    learners = make_learners(game, seed=0, count=2)
    rng = np.random.default_rng(3)
    for lr in learners:
        lr.qtable.q[...] = rng.uniform(-1, 1, size=lr.qtable.q.shape)
        for s in range(game.state_count):
            lr.qtable.invalidate(s)
    v0, v1 = learners[0].values(), learners[1].values()
    members = _member_values(learners)
    assert members.shape == (game.state_count, 4)
    assert members.flags.c_contiguous
    for s in range(game.state_count):
        row = [v0[0, s], -v0[1, s], v1[0, s], -v1[1, s]]
        assert len(set(row)) == 4
        assert members[s].tolist() == row


@pytest.mark.parametrize("variant", ["full", "uniform", "bias_only",
                                     "variance_only", "td_error"])
def test_curriculum_preserves_convergence_on_rps2(variant):
    cfg = RunConfig(env="rps", env_params={"rps_n": 2}, method="sacl",
                    learner=LearnerConfig(lr=1.0, lr_decay=None, epsilon=1.0),
                    metric=MetricConfig(variant=variant),
                    sampler=SamplerConfig(p=0.7), capacity_k=64,
                    seeds=(0, 1), sample_budget=20_000, eval_every=100)
    record = run_experiment(cfg)
    for seed in (0, 1):
        assert samples_to_converge(record.filter_seed(seed), 1e-2) is not None


def test_metric_config_validation():
    with pytest.raises(ValueError):
        MetricConfig(alpha_bias=-0.1)
    with pytest.raises(ValueError, match="alpha_bias"):
        MetricConfig(alpha_bias=float("nan"))
    with pytest.raises(ValueError):
        MetricConfig(variant="entropy")
    with pytest.raises(ValueError):
        MetricConfig(ensemble_size=0)
    with pytest.raises(ValueError):
        SamplerConfig(p=1.2)


# -- the array-backed epoch against reference copies of the per-state code
# it replaced; every comparison is exact

def reference_weight(state, current, previous, cfg, td_context=None, discount=1.0):
    """One state's weight, computed the way the per-state formula did.

    ``td_context`` is the (reward, next state) pair of a step at ``state``.
    """
    if cfg.variant == "uniform":
        return 1.0
    if cfg.variant == "td_error":
        reward, nxt = td_context
        v1 = current[:, 0::2]
        v_here = float(v1[state].mean())
        v_next = 0.0 if nxt == v1.shape[0] else float(v1[nxt].mean())
        return abs(reward + discount * v_next - v_here)
    cur = current[state]
    prev = previous[state]
    if cfg.variant == "variance_only":
        return float(np.var(cur))
    bias = float(np.mean(cur - prev)) ** 2
    if cfg.variant == "bias_only":
        return bias
    return cfg.alpha_bias * bias + float(np.var(cur))


def reference_fps_keep(states, feats, weights, k):
    """States kept by the greedy loop that recomputed distances each step."""
    selected = [int(np.argmax(weights))]
    dist = np.linalg.norm(feats - feats[selected[0]], axis=1)
    for _ in range(k - 1):
        nxt = int(np.argmax(dist))
        selected.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(feats - feats[nxt], axis=1))
    return sorted(int(states[i]) for i in set(selected))


def reference_sample(entries, game, p, rng):
    """Start-state draw from a {state: weight} buffer, sorted on every call."""
    if p > 0.0 and entries:
        states = np.array(sorted(entries), dtype=np.int64)
        weights = np.array([entries[int(s)] for s in states])
        total = weights.sum()
        if total > 0.0 and rng.random() < p:
            cum = np.cumsum(weights / total)
            idx = min(int(np.searchsorted(cum, rng.random(), side="right")),
                      states.size - 1)
            return int(states[idx])
    return sample_initial(game, rng)


def random_td_contexts(rng, states, s_count):
    """A (reward, next state) pair per state; next state ``s_count`` is terminal."""
    out = []
    for _ in states:
        terminal = bool(rng.integers(2))
        nxt = s_count if terminal else int(rng.integers(0, s_count))
        out.append((float(rng.uniform(-2, 2)), nxt))
    return out


def assert_weights_match_reference(states, ens, cfg, td, discount, scalar=True):
    columns = None if td is None else ([r for r, _ in td], [nxt for _, nxt in td])
    weights = compute_weights(states, *ens, cfg, td_context=columns, discount=discount)
    contexts = td if td is not None else [None] * len(states)
    assert weights.tolist() == [reference_weight(s, *ens, cfg, step, discount)
                                for s, step in zip(states, contexts)]
    if scalar:
        assert weights.tolist() == [compute_weight(s, *ens, cfg, step, discount)
                                    for s, step in zip(states, contexts)]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), members=st.integers(1, 6),
       s_count=st.integers(1, 12), variant=st.sampled_from(METRIC_VARIANTS),
       alpha=st.floats(0.0, 2.0),
       scale=st.sampled_from([1e-6, 1.0, 3.0, 1e6]))
def test_compute_weights_bit_equal_to_per_state_formula(seed, members, s_count, variant,
                                                        alpha, scale):
    # ensemble sizes 4..6 give 2M >= 8 values per state, past the size where
    # numpy's pairwise summation switches to its unrolled blocks
    rng = np.random.default_rng(seed)
    ens = (scale * rng.uniform(-1, 1, size=(s_count, 2 * members)),
           scale * rng.uniform(-1, 1, size=(s_count, 2 * members)))
    cfg = MetricConfig(alpha_bias=alpha, variant=variant)
    states = rng.integers(0, s_count, size=int(rng.integers(0, 2 * s_count + 1))).tolist()
    td = random_td_contexts(rng, states, s_count) if variant == "td_error" else None
    assert_weights_match_reference(states, ens, cfg, td, float(rng.uniform(0.1, 1.0)))


@pytest.mark.parametrize("members", range(1, 7))
def test_compute_weights_bit_equal_on_many_states(members):
    # enough states that the rare values whose square rounds differently
    # under np.square than under Python's power are sure to occur
    rng = np.random.default_rng(members)
    s_count = 3000
    ens = (rng.uniform(-3, 3, size=(s_count, 2 * members)),
           rng.uniform(-3, 3, size=(s_count, 2 * members)))
    states = list(range(s_count))
    for variant in METRIC_VARIANTS:
        cfg = MetricConfig(alpha_bias=0.7, variant=variant)
        td = random_td_contexts(rng, states, s_count) if variant == "td_error" else None
        assert_weights_match_reference(states, ens, cfg, td, 0.9, scalar=False)


def test_compute_weights_checks_td_contexts():
    members = np.array([[0.0, 0.0], [0.5, 0.5]])
    ens = (members, members)
    cfg = MetricConfig(variant="td_error")
    with pytest.raises(ValueError):
        compute_weights([0, 1], *ens, cfg)
    with pytest.raises(ValueError):  # one step for two states
        compute_weights([0, 1], *ens, cfg, td_context=([0.0], [2]))
    with pytest.raises(ValueError):  # state 3 is past the terminal index 2
        compute_weights([0, 1], *ens, cfg, td_context=([0.0, 0.0], [2, 3]))
    with pytest.raises(ValueError):
        compute_weights([0, 1], *ens, cfg, td_context=([0.0, 0.0], [-1, 2]))


@pytest.mark.parametrize("variant", METRIC_VARIANTS)
@pytest.mark.parametrize("state", [-1, 2], ids=["negative", "past_the_end"])
def test_compute_weights_rejects_a_state_outside_the_matrix(variant, state):
    members = np.array([[0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0]])  # S=2, M=2
    with pytest.raises(ValueError, match=f"state {state} is not a state index in 0..1"):
        compute_weights([0, state, 1], members, members, MetricConfig(variant=variant),
                        td_context=([0.0] * 3, [2] * 3))


@pytest.mark.parametrize("states, bad", [
    ([1.5], "1.5"), ([True], "True"), ([0, 1.0], "1.0"), (np.array([1.5]), "1.5"),
    (np.array([True]), "True"), ([], None), ([1, 1], None), (np.array([1]), None),
    (np.array([1], dtype=np.uint8), None),
], ids=["float", "bool", "float_after_int", "float_array", "bool_array", "empty", "ints",
        "int_array", "uint8_array"])
def test_compute_weights_takes_only_integer_states(states, bad):
    # np.int64 would read 1.5 and True as state 1
    current, previous = np.arange(4.0).reshape(2, 2), np.zeros((2, 2))
    for variant in METRIC_VARIANTS:
        cfg = MetricConfig(variant=variant)
        td = ([0.0] * len(states), [2] * len(states))
        if bad is None:
            expected = compute_weights([1] * len(states), current, previous, cfg, td_context=td)
            got = compute_weights(states, current, previous, cfg, td_context=td)
            assert got.tobytes() == expected.tobytes()
        else:
            with pytest.raises(ValueError, match=f"state {bad} is not an integer state index"):
                compute_weights(states, current, previous, cfg, td_context=td)


@pytest.mark.parametrize("current, previous", [
    (np.zeros((3, 2)), np.zeros((3, 4))),
    (np.zeros((3, 2)), np.zeros((2, 2))),
    (np.zeros((3, 3)), np.zeros((3, 3))),
    (np.zeros((1, 2, 3)), np.zeros((1, 2, 3))),
    (np.zeros(2), np.zeros(2)),
], ids=["member_counts_differ", "state_counts_differ", "odd_width", "three_axes", "one_axis"])
def test_compute_weights_rejects_bad_member_matrices(current, previous):
    for variant in METRIC_VARIANTS:
        with pytest.raises(ValueError, match="member values"):
            compute_weights([0], current, previous, MetricConfig(variant=variant),
                            td_context=([0.0], [1]))


GRID = make_grid_pursuit(GridPursuitParams(3, 3, 4))  # 288 states
coordinates = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), dim=st.integers(1, 10),
       k=st.integers(1, 42))
def test_fps_keeps_the_reference_greedy_set(data, n, dim, k):
    # few distinct coordinates and weights make duplicate points and ties
    points = np.array(data.draw(st.lists(st.lists(coordinates, min_size=dim, max_size=dim),
                                         min_size=n, max_size=n)))
    weights = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 5.0),
                                          min_size=n, max_size=n)))
    states = np.array(sorted(data.draw(st.sets(st.integers(0, 10_000), min_size=n, max_size=n))))
    buf = WeightedStateBuffer(capacity=n, states=states, weights=weights)
    expected = (states.tolist() if n <= k
                else reference_fps_keep(states, points, weights, k))
    fps_prune(buf, k, feature_game(points, states))
    assert buf.states.tolist() == expected
    assert np.array_equal(buf.weights, weights[np.searchsorted(states, buf.states)])


@settings(max_examples=100, deadline=None)
@given(batches=st.lists(st.lists(st.tuples(st.integers(0, 287),
                                           st.sampled_from([0.0, 0.5]) | st.floats(0.0, 10.0)),
                                 max_size=12), max_size=8))
def test_buffer_insert_matches_newest_weight_dict(batches):
    game = GRID
    buf = WeightedStateBuffer(capacity=64)
    reference: dict[int, float] = {}
    for batch in batches:
        buffer_insert(buf, batch, game)
        reference.update(batch)
        assert buf.states.tolist() == sorted(reference)
        assert buf.weights.tolist() == [reference[s] for s in sorted(reference)]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rounds=st.integers(1, 6))
def test_buffer_insert_equals_the_merge_reference(data, rounds):
    # batches of members only (the fast path), of new states only, and mixed
    game = GRID
    buf, ref = WeightedStateBuffer(capacity=64), WeightedStateBuffer(capacity=64)
    weight = st.sampled_from([0.0, 0.5]) | st.floats(0.0, 10.0)
    for _ in range(rounds):
        members = buf.states.tolist()
        fresh = sorted(set(range(game.state_count)) - set(members))
        kind = data.draw(st.sampled_from(["members", "fresh", "mixed"]) if members
                         else st.just("fresh"))
        parts = {"members": [members], "fresh": [fresh], "mixed": [members, fresh]}[kind]
        batch = [entry for pool in parts for entry in data.draw(
            st.lists(st.tuples(st.sampled_from(pool), weight), min_size=1, max_size=8))]
        batch = data.draw(st.permutations(batch))
        handed_out = buf.arrays()
        before = [a.copy() for a in handed_out]
        buffer_insert(buf, batch, game)
        merge_buffer_insert(ref, batch)
        for name in ("states", "weights"):
            got, want = getattr(buf, name), getattr(ref, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
        # like the merge, no write in place; a members-only batch rewrites only the weights
        assert all(a.tobytes() == b.tobytes() for a, b in zip(handed_out, before))
        assert (buf.states is handed_out[0]) == (kind == "members")


def test_buffer_insert_is_all_or_nothing():
    game = make_rps(RpsParams(4))
    buf = WeightedStateBuffer(capacity=8)
    buffer_insert(buf, [(0, 1.0)], game)
    for bad in ([(1, 1.0), (2, float("nan"))], [(1, 1.0), (2, float("inf"))],
                [(1, 1.0), (4, 1.0)]):
        with pytest.raises(ValueError):
            buffer_insert(buf, bad, game)
        assert buf.states.tolist() == [0]


def test_buffer_constructor_validates_members():
    with pytest.raises(ValueError):
        WeightedStateBuffer(capacity=2, states=[1, 0], weights=[1.0, 1.0])
    with pytest.raises(ValueError):
        WeightedStateBuffer(capacity=2, states=[0, 1], weights=[1.0, -1.0])
    with pytest.raises(ValueError):
        WeightedStateBuffer(capacity=2, states=[0, 1], weights=[1.0])


@settings(max_examples=100, deadline=None)
@given(entries=st.dictionaries(st.integers(0, 287),
                               st.sampled_from([0.0, 1.0]) | st.floats(0.0, 4.0), max_size=10),
       p=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_sampling_table_draws_as_the_per_call_sort(entries, p, seed):
    game = GRID
    buf = buffer_insert(WeightedStateBuffer(capacity=32), entries.items(), game)
    table = SamplingTable.of(buf)
    cfg = SamplerConfig(p=p)
    ref_rng, table_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        expected = reference_sample(entries, game, p, ref_rng)
        assert sample_subgame(table, game, cfg, table_rng) == expected
    assert table_rng.random() == ref_rng.random()  # the same number of draws


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), dim=st.integers(1, 10),
       coarse=st.booleans())
def test_pairwise_distances_are_the_norm_rows(seed, n, dim, coarse):
    feats = np.random.default_rng(seed).random((n, dim))
    if coarse:  # repeated coordinates and points
        feats = np.round(feats * 2) / 2
    pairwise = _pairwise_distances(feats)
    for j in range(n):
        assert pairwise[j].tolist() == np.linalg.norm(feats - feats[j], axis=1).tolist()
