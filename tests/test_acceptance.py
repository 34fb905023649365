"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavy sweeps (the
samples-to-convergence grid and the ten-seed curriculum runs) take a few
minutes on one core; everything else is seconds.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from subgamelab import (GridPursuitParams, LearnerConfig, MetricConfig, Policy,
                        RpsParams, RunConfig, SamplerConfig,
                        WeightedStateBuffer, compute_weight,
                        coverage_experiment, exploitability, fps_prune,
                        joint_action_coverage, make_grid_pursuit, make_rps,
                        oracle_weight, replicate_fig2, run_experiment,
                        samples_to_converge, solve, solve_ne)

from oracles import feature_game, support_enumeration_value

THRESHOLD = 1e-2
SEEDS_10 = tuple(range(10))


def buffer_of(points, weights):
    """Buffer holding states 0..n-1, and a game placing them at the given feature points."""
    buf = WeightedStateBuffer(capacity=len(points), states=np.arange(len(points)),
                              weights=weights)
    return buf, feature_game(points)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def fig2_results():
    start = time.perf_counter()
    rows = replicate_fig2(n_max=6, seeds=10, threshold=THRESHOLD)
    elapsed = time.perf_counter() - start
    print(f"[acceptance] fig2 sweep (n=1..6, 3 methods, 10 seeds) took {elapsed:.1f}s")
    return rows


def by_method(rows, method):
    return {r["n"]: r for r in rows if r["method"] == method}


def test_criterion_1a_vanilla_grows_geometrically(fig2_results):
    vanilla = by_method(fig2_results, "self_play")
    assert all(vanilla[n]["censored"] == 0 for n in range(1, 7))
    ratios = [vanilla[n]["mean_samples"] / vanilla[n - 1]["mean_samples"]
              for n in range(3, 7)]
    growth = float(np.prod(ratios)) ** (1.0 / len(ratios))
    report("1a", growth >= 2.0,
           f"vanilla growth factor {growth:.2f} per unit n over n=3..6, need >= 2.0")


def test_criterion_1b_curricula_fit_linear_bound(fig2_results):
    details = []
    ok = True
    for method in ("sacl", "full_access_order"):
        rows = by_method(fig2_results, method)
        assert all(rows[n]["censored"] == 0 for n in range(1, 7))
        c = max(rows[n]["mean_samples"] / n for n in range(1, 7))
        details.append(f"{method}: c={c:.1f}")
        ok = ok and c <= 500.0
    report("1b", ok, "; ".join(details) + "; need c <= 500")


def test_criterion_1_methods_indistinguishable_at_n1(fig2_results):
    # with a single subgame there is nothing to order or buffer
    means = [by_method(fig2_results, m)[1]["mean_samples"]
             for m in ("self_play", "sacl", "full_access_order")]
    spread = max(means) - min(means)
    report("1-n1", spread <= 10.0,
           f"n=1 means {[round(m, 1) for m in means]} within one episode of each other")


def test_criterion_1_buffer_total_bound(fig2_results):
    # worst-seed relaxation constant over the idealized 65(n-1) schedule
    sacl = by_method(fig2_results, "sacl")
    c_relax = max(samples / (65.0 * (n - 1))
                  for n in range(2, 7) for samples in sacl[n]["per_seed"])
    report("1-bound", c_relax <= 10.0,
           f"buffer curriculum worst-seed constant C={c_relax:.2f}, need <= 10")


def test_criterion_2_state_coverage_constant():
    mean = coverage_experiment(n=10, seeds=200)
    report("2", 22.5 <= mean <= 31.5,
           f"mean steps to cover 10 states = {mean:.2f}, need within [22.5, 31.5]")


def test_criterion_3_joint_action_coverage_constant():
    mean = joint_action_coverage(seeds=1000)
    report("3", abs(mean - 25.46) <= 2.0,
           f"mean episodes to see all 9 joint actions = {mean:.2f}, need 25.46 +/- 2")


def test_criterion_4_oracle_exactness_on_rps():
    worst_value = 0.0
    worst_policy = 0.0
    for n in range(1, 9):
        ne = solve_ne(make_rps(RpsParams(n)))
        worst_value = max(worst_value, abs(ne.v_star[0, 0] - 3.0 ** (-n)))
        for table in (ne.ne_policy.p1, ne.ne_policy.p2):
            worst_policy = max(worst_policy, float(np.abs(table - 1.0 / 3.0).max()))
    report("4", worst_value <= 1e-9 and worst_policy <= 1e-9,
           f"start-state value error {worst_value:.2e}, policy error {worst_policy:.2e},"
           " need both <= 1e-9")


def test_criterion_5_matrix_solver_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        m, n = rng.integers(1, 5, size=2)
        payoff = rng.uniform(-1.0, 1.0, size=(m, n))
        expected, _, _ = support_enumeration_value(payoff)
        worst = max(worst, abs(solve(payoff).value - expected))
    rps = solve(np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]]))
    rps_dev = max(abs(rps.value),
                  float(np.abs(rps.row_strategy - 1 / 3).max()),
                  float(np.abs(rps.col_strategy - 1 / 3).max()))
    report("5", worst <= 1e-8 and rps_dev <= 1e-8,
           f"max |value - enumeration| = {worst:.2e} over 200 matrices, "
           f"rps deviation {rps_dev:.2e}, need <= 1e-8")


def perturb(policy: Policy, eps: float) -> Policy:
    pure1 = np.zeros_like(policy.p1)
    pure1[:, 0] = 1.0
    pure2 = np.zeros_like(policy.p2)
    pure2[:, 0] = 1.0
    return Policy((1 - eps) * policy.p1 + eps * pure1,
                  (1 - eps) * policy.p2 + eps * pure2)


def test_criterion_6_exploitability_calibration():
    rps = make_rps(RpsParams(1))
    grid = make_grid_pursuit(GridPursuitParams(3, 3, 4))
    ne_rps = solve_ne(rps)
    ne_grid = solve_ne(grid)
    at_ne = max(exploitability(rps, ne_rps.ne_policy).total,
                exploitability(grid, ne_grid.ne_policy).total)
    perturbed_rps = exploitability(rps, perturb(ne_rps.ne_policy, 0.1)).total
    perturbed_grid = exploitability(grid, perturb(ne_grid.ne_policy, 0.1)).total
    uniform_vs_rock = exploitability(
        rps, Policy(np.full((1, 3), 1 / 3), np.array([[1.0, 0.0, 0.0]]))).total
    ok = (at_ne <= 1e-6 and perturbed_rps > 0.0 and perturbed_grid > 0.0
          and abs(uniform_vs_rock - 2.0 / 3.0) <= 1e-8)
    report("6", ok,
           f"NE total {at_ne:.2e} (<=1e-6), perturbed {perturbed_rps:.3f}/"
           f"{perturbed_grid:.3f} (>0), uniform-vs-rock {uniform_vs_rock:.9f} (=2/3)")


def prop1_config(env, env_params, budget, eval_every):
    return RunConfig(env=env, env_params=env_params, method="sacl",
                     learner=LearnerConfig(lr=1.0, lr_decay=None, epsilon=1.0),
                     metric=MetricConfig(variant="full"),
                     sampler=SamplerConfig(p=0.7), capacity_k=64,
                     episodes_per_epoch=8, seeds=SEEDS_10, sample_budget=budget,
                     eval_every=eval_every, convergence_threshold=THRESHOLD)


def test_criterion_7_curriculum_preserves_convergence():
    start = time.perf_counter()
    rps_cfg = prop1_config("rps", {"rps_n": 2}, budget=20_000, eval_every=50)
    rps_record = run_experiment(rps_cfg)
    rps_conv = [samples_to_converge(rps_record.filter_seed(s), THRESHOLD)
                for s in SEEDS_10]
    grid_cfg = prop1_config("grid_pursuit",
                            {"grid_width": 3, "grid_height": 3, "grid_horizon": 4},
                            budget=300_000, eval_every=2_000)
    grid_record = run_experiment(grid_cfg)
    grid_conv = [samples_to_converge(grid_record.filter_seed(s), THRESHOLD)
                 for s in SEEDS_10]
    elapsed = time.perf_counter() - start
    ok = all(c is not None for c in rps_conv + grid_conv)
    report("7", ok,
           f"10/10 seeds converged: rps2 worst={max(rps_conv)}, "
           f"grid worst={max(grid_conv)} samples ({elapsed:.0f}s)")


def test_criterion_8_metric_identities():
    game = make_rps(RpsParams(2))
    ne = solve_ne(game)
    signed_star = np.column_stack([ne.v_star[0], -ne.v_star[1]])
    exact_zero = all(
        compute_weight(s, signed_star, signed_star,
                       MetricConfig(alpha_bias=a, variant=v)) == 0.0
        for s in range(2) for a in (0.0, 0.7, 1.0)
        for v in ("full", "bias_only", "variance_only"))

    rng = np.random.default_rng(88)
    identity_worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 4))
        members = rng.uniform(-1, 1, size=(2, 2 * m))
        for s in range(2):
            direct = oracle_weight(s, members, ne)
            decomposed = compute_weight(s, members, np.tile(signed_star, m),
                                        MetricConfig(alpha_bias=1.0))
            identity_worst = max(identity_worst, abs(direct - decomposed))

    negative = 0
    trials = 10_000
    for _ in range(trials):
        m = int(rng.integers(1, 4))
        ens = (rng.uniform(-3, 3, size=(4, 2 * m)), rng.uniform(-3, 3, size=(4, 2 * m)))
        s = int(rng.integers(0, 4))
        terminal = bool(rng.integers(2))
        nxt = 4 if terminal else int(rng.integers(0, 4))
        step = (float(rng.uniform(-2, 2)), nxt)
        for variant in ("full", "uniform", "bias_only", "variance_only", "td_error"):
            cfg = MetricConfig(alpha_bias=float(rng.uniform(0, 2)), variant=variant)
            weight = compute_weight(s, *ens, cfg,
                                    td_context=step if variant == "td_error" else None,
                                    discount=0.9)
            if weight < 0.0:
                negative += 1
    ok = exact_zero and identity_worst <= 1e-12 and negative == 0
    report("8", ok,
           f"converged weight exactly 0: {exact_zero}; decomposition identity "
           f"worst {identity_worst:.2e} (<=1e-12); {negative} negatives in "
           f"{trials} randomized inputs x 5 variants")


def test_criterion_9_fps_properties():
    # exhaustive agreement on the 1-D example
    positions = [0.0, 0.1, 0.5, 1.0]
    buf, game = buffer_of(np.reshape(positions, (-1, 1)),
                          [2.0 if x == 0.0 else 1.0 for x in positions])
    fps_prune(buf, 2, game)
    kept = sorted(game.features[buf.states, 0].tolist())
    best = max(combinations(positions, 2), key=lambda sub: abs(sub[0] - sub[1]))
    exhaustive_ok = kept == sorted(best)

    def spread(feats):
        return min(np.linalg.norm(a - b) for a, b in combinations(feats, 2))

    rng = np.random.default_rng(99)
    wins = 0
    for _ in range(100):
        pts = rng.random((40, 3))
        fps_buf, game = buffer_of(pts, np.ones(40))
        fps_prune(fps_buf, 8, game)
        chosen = rng.choice(np.arange(40), size=8, replace=False)  # random pruning
        if spread(game.features[fps_buf.states]) >= spread(pts[chosen]):
            wins += 1

    pts = np.random.default_rng(5).random((25, 2))
    kept_twice = []
    for _ in range(2):
        buf, game = buffer_of(pts, [float(i % 7) for i in range(25)])
        fps_prune(buf, 9, game)
        kept_twice.append(buf.states.tolist())
    deterministic = kept_twice[0] == kept_twice[1]

    ok = exhaustive_ok and wins >= 95 and deterministic
    report("9", ok, f"exhaustive 1-D match: {exhaustive_ok}; spread dominance "
                    f"{wins}/100 (>=95); deterministic: {deterministic}")


def test_criterion_10_degeneration_to_self_play():
    base = dict(env="rps", env_params={"rps_n": 3},
                learner=LearnerConfig(lr=1.0, lr_decay=None, epsilon=1.0),
                capacity_k=16, episodes_per_epoch=4, seeds=(0, 1, 2),
                sample_budget=4_000, eval_every=50, convergence_threshold=THRESHOLD)
    rec_self = run_experiment(RunConfig(method="self_play",
                                        sampler=SamplerConfig(p=0.0), **base))
    rec_sacl = run_experiment(RunConfig(method="sacl",
                                        metric=MetricConfig(variant="uniform"),
                                        sampler=SamplerConfig(p=0.0), **base))

    def metric_lines(record):
        # metric trajectory = the formatted (seed, samples, q_error,
        # exploitability) columns; method/buffer/wall-clock excluded
        lines = []
        for line in record.to_csv().splitlines()[1:]:
            fields = line.split(",")
            lines.append(",".join([fields[0], fields[3], fields[4], fields[5]]))
        return lines

    identical = metric_lines(rec_self) == metric_lines(rec_sacl)
    report("10", identical,
           f"byte-identical metric trajectories over {len(rec_self.rows)} rows"
           " (seed, samples, q_error, exploitability)")
