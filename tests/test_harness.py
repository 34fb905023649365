import numpy as np
import pytest

from subgamelab import (ExperimentRecord, GridPursuitParams, Learner, LearnerConfig,
                        MetricConfig, RecordRow, RunConfig, SamplerConfig,
                        coverage_experiment, exploration_policy, joint_action_coverage,
                        parse_config, replicate_fig2, run_experiment,
                        WeightedStateBuffer, samples_to_converge)
from subgamelab import harness
from subgamelab.harness import fig2_run_config, fig2_to_csv

FAST_LEARNER = LearnerConfig(lr=1.0, lr_decay=None, epsilon=1.0)


def rps_config(method="self_play", n=1, seeds=(0,), budget=5_000, **kw):
    return RunConfig(env="rps", env_params={"rps_n": n}, method=method,
                     learner=FAST_LEARNER, seeds=seeds, sample_budget=budget,
                     eval_every=50, **kw)


def test_self_play_converges_on_rps1():
    record = run_experiment(rps_config(budget=10_000))
    assert samples_to_converge(record, 1e-2) is not None
    assert record.rows[-1].q_error < 1e-2


def test_rows_track_strictly_increasing_samples():
    record = run_experiment(rps_config(n=3, budget=3_000, seeds=(0, 1)))
    for seed in (0, 1):
        samples = [r.samples_consumed for r in record.filter_seed(seed).rows]
        assert samples == sorted(samples)
        assert len(set(samples)) == len(samples)


def test_row_count_tracks_eval_grid():
    cfg = RunConfig(env="rps", env_params={"rps_n": 2}, method="self_play",
                    learner=LearnerConfig(lr=1e-9, lr_decay=None, epsilon=1.0),
                    seeds=(0,), sample_budget=1_000, eval_every=100,
                    convergence_threshold=1e-12)
    record = run_experiment(cfg)  # never converges; runs out the budget
    assert len(record.rows) == pytest.approx(10, abs=1)


def test_sacl_with_p_zero_degenerates_to_self_play():
    shared = dict(n=3, seeds=(0, 1), budget=4_000)
    rec_sp = run_experiment(rps_config("self_play", **shared))
    rec_cl = run_experiment(rps_config(
        "sacl", metric=MetricConfig(variant="uniform"),
        sampler=SamplerConfig(p=0.0), **shared))
    metrics_sp = [(r.seed, r.samples_consumed, r.q_error, r.exploitability)
                  for r in rec_sp.rows]
    metrics_cl = [(r.seed, r.samples_consumed, r.q_error, r.exploitability)
                  for r in rec_cl.rows]
    assert metrics_sp == metrics_cl


def test_full_access_order_beats_self_play_on_rps4():
    sp = run_experiment(rps_config("self_play", n=4, budget=60_000))
    fa = run_experiment(rps_config("full_access_order", n=4, budget=60_000))
    sp_samples = samples_to_converge(sp, 1e-2)
    fa_samples = samples_to_converge(fa, 1e-2)
    assert fa_samples is not None and sp_samples is not None
    assert fa_samples < sp_samples


def test_records_are_reproducible_excluding_wall_clock():
    cfg = rps_config("sacl", n=2, seeds=(0, 1, 2), budget=3_000,
                     metric=MetricConfig(variant="full"),
                     sampler=SamplerConfig(p=0.7))
    csv_a = run_experiment(cfg).to_csv()
    csv_b = run_experiment(cfg).to_csv()
    assert strip_wall_clock(csv_a) == strip_wall_clock(csv_b)


def strip_wall_clock(text):
    return [",".join(line.split(",")[:-1]) for line in text.splitlines()]


@pytest.mark.parametrize("method", ["sacl", "self_play"])
def test_exploitability_is_scored_once_per_greedy_policy(monkeypatch, method):
    cfg = fig2_run_config(4, method, (0, 1))
    scored = []
    original = harness.exploitability

    def counting(game, policy):
        scored.append(policy)
        return original(game, policy)

    monkeypatch.setattr(harness, "exploitability", counting)
    reused = run_experiment(cfg)
    reused_calls = len(scored)
    # a fresh greedy policy per row, so every row is scored afresh
    monkeypatch.setattr(Learner, "greedy_policy",
                        lambda self: exploration_policy(self.qtable, 0.0))
    scored.clear()
    fresh = run_experiment(cfg)
    assert len(scored) == len(fresh.rows)
    assert 0 < reused_calls < len(fresh.rows)
    assert strip_wall_clock(reused.to_csv()) == strip_wall_clock(fresh.to_csv())


def test_samples_to_converge_edge_cases():
    rows = [RecordRow(0, "self_play", "rps", 100, 0.5, 0.1, 0, 0.0),
            RecordRow(0, "self_play", "rps", 200, 0.005, 0.0, 0, 0.0)]
    assert samples_to_converge(ExperimentRecord(rows), 1e-2) == 200
    assert samples_to_converge(ExperimentRecord(rows[:1]), 1.0) == 100
    assert samples_to_converge(ExperimentRecord(rows), 1e-3) is None
    with pytest.raises(ValueError):
        samples_to_converge(ExperimentRecord([]), 1e-2)


def test_coverage_experiment_n2_constant():
    assert coverage_experiment(2, seeds=200) == pytest.approx(3.0, abs=0.5)
    with pytest.raises(ValueError):
        coverage_experiment(1, seeds=10)


@pytest.mark.parametrize("call, name", [
    (lambda: coverage_experiment(3, seeds=0), "seeds"),
    (lambda: coverage_experiment(3, seeds=-1), "seeds"),
    (lambda: joint_action_coverage(seeds=0), "seeds"),
    (lambda: replicate_fig2(n_max=0, seeds=2), "n_max"),
    (lambda: replicate_fig2(n_max=11, seeds=2), "n_max"),
    (lambda: replicate_fig2(n_max=1, seeds=0), "seeds"),
], ids=["coverage_no_seeds", "coverage_negative_seeds", "actions_no_seeds",
        "fig2_no_sizes", "fig2_too_large", "fig2_no_seeds"])
def test_experiments_reject_empty_inputs(call, name):
    # an empty run would report a NaN mean or an empty table
    with pytest.raises(ValueError, match=name):
        call()


def test_joint_action_coverage_quick():
    # full 1000-seed constant is pinned in the acceptance suite
    assert joint_action_coverage(seeds=200) == pytest.approx(25.46, abs=2.0)


def test_replicate_fig2_smoke_and_csv():
    rows = replicate_fig2(n_max=2, seeds=2)
    assert len(rows) == 6
    methods = {r["method"] for r in rows}
    assert methods == {"self_play", "sacl", "full_access_order"}
    for r in rows:
        assert r["seeds"] + r["censored"] == 2
        assert r["censored"] == 0
        assert np.isfinite(r["mean_samples"])
    csv_text = fig2_to_csv(rows)
    header = csv_text.splitlines()[0]
    assert header == "n,method,mean_samples,stderr,seeds,censored"


def test_fig2_censoring_is_flagged():
    # a budget too small for the coupon-collection floor forces censoring
    record = run_experiment(rps_config(n=2, budget=30))
    assert samples_to_converge(record, 1e-2) is None
    assert record.rows[-1].samples_consumed >= 30


def test_replicate_fig2_censored_seeds_never_enter_means(monkeypatch):
    from dataclasses import replace

    import subgamelab.harness as h

    real = h.fig2_run_config
    monkeypatch.setattr(
        h, "fig2_run_config",
        lambda n, method, seeds, threshold=1e-2: replace(
            real(n, method, seeds, threshold), sample_budget=25))
    rows = h.replicate_fig2(n_max=2, seeds=2)
    starved = next(r for r in rows if r["n"] == 2 and r["method"] == "self_play")
    assert starved["censored"] == 2
    assert starved["seeds"] == 0
    assert np.isnan(starved["mean_samples"])
    assert starved["per_seed"] == [None, None]


def test_run_config_validation_enumerates_errors():
    with pytest.raises(ValueError) as err:
        RunConfig(env="chess", env_params={}, method="dance",
                  sample_budget=-1, eval_every=0)
    message = str(err.value)
    for fragment in ("env must be", "method must be", "sample_budget", "eval_every"):
        assert fragment in message


INTEGER_FIELDS = {
    "capacity_k": lambda v: rps_config(capacity_k=v),
    "episodes_per_epoch": lambda v: rps_config(episodes_per_epoch=v),
    "sample_budget": lambda v: rps_config(budget=v),
    "eval_every": lambda v: RunConfig(env="rps", env_params={"rps_n": 2},
                                      method="self_play", eval_every=v),
    "seeds": lambda v: rps_config(seeds=(0, v)),
    "batch_size": lambda v: LearnerConfig(batch_size=v),
    "ensemble_size": lambda v: MetricConfig(ensemble_size=v),
    "capacity": lambda v: WeightedStateBuffer(capacity=v),
}


@pytest.mark.parametrize("value", [float("nan"), 2.5, True], ids=["nan", "float", "bool"])
@pytest.mark.parametrize("name", INTEGER_FIELDS)
def test_integer_fields_reject_non_integers(name, value):
    # NaN compares false with every bound, so only a type check catches it;
    # a bool is an int to Python but not a count or a seed
    with pytest.raises(ValueError) as err:
        INTEGER_FIELDS[name](value)
    problems = getattr(err.value, "problems", [str(err.value)])
    assert [p for p in problems if p.startswith(f"{name} must be")] == [
        f"{name} must be {'integers' if name == 'seeds' else 'an integer'}, got {value!r}"]
    INTEGER_FIELDS[name](np.int64(3))  # numpy integers are integers


def test_parse_config_roundtrip():
    text = """
    # experiment setup
    env = rps
    rps_n = 4
    method = sacl
    seeds = 0, 1, 2
    sample_budget = 2000
    eval_every = 50
    convergence_threshold = 0.01
    lr = 1.0
    lr_decay = none
    epsilon = 1.0
    batch_size = 1
    p = 0.7
    capacity_k = 32
    alpha_bias = 0.7
    variant = full
    ensemble_size = 1
    episodes_per_epoch = 8
    """
    cfg = parse_config(text)
    assert cfg.env == "rps" and cfg.env_params == {"rps_n": 4}
    assert cfg.method == "sacl"
    assert cfg.seeds == (0, 1, 2)
    assert cfg.learner.lr_decay is None
    assert cfg.metric.alpha_bias == 0.7
    assert cfg.sampler.p == 0.7
    assert cfg.capacity_k == 32


def test_parse_config_collects_all_errors():
    with pytest.raises(ValueError) as err:
        parse_config("""
        env = rps
        flavor = spicy
        lr = soon
        """)
    message = str(err.value)
    assert "unknown key 'flavor'" in message
    assert "cannot parse 'soon'" in message
    assert "missing required key 'method'" in message
    assert "requires rps_n" in message


def test_parse_config_reports_a_repeated_key_with_the_rest():
    # a second value for a key is an error, not a silent override
    with pytest.raises(ValueError) as err:
        parse_config("env = rps\nrps_n = 3\nmethod = sacl\n\nrps_n = 4\nlr = soon\n"
                     "method = self_play\n")
    assert err.value.problems == ["line 5: key 'rps_n' repeats line 2",
                                  "line 7: key 'method' repeats line 3",
                                  "key 'lr': cannot parse 'soon' as float"]


def test_parse_config_reports_a_repeated_seed_with_the_rest():
    # training a seed twice would write two identical runs that read as one
    with pytest.raises(ValueError) as err:
        parse_config("env = rps\nrps_n = 2\nmethod = sacl\nseeds = 0, 3, 0, 1, 3\nlr = soon\n")
    assert err.value.problems == ["key 'lr': cannot parse 'soon' as float",
                                  "seeds must be distinct; repeated: 0, 3"]


def test_parse_config_reports_range_errors_with_the_rest():
    # each part's own range check joins the parse errors: one report, all five
    # (a negative seed is caught here, not by numpy once an oracle is solved)
    with pytest.raises(ValueError) as err:
        parse_config("""
        env = rps
        rps_n = 2
        method = sacl
        lr_decay = 2
        alpha_bias = -1
        p = 3
        capacity_k = 0
        seeds = -1, 2
        """)
    problems = str(err.value).splitlines()[1:]
    assert len(problems) == 5
    for fragment in ("lr_decay must be", "alpha_bias must be", "p must lie",
                     "capacity_k must be", "seeds must be non-negative, got -1"):
        assert sum(fragment in line for line in problems) == 1


@pytest.mark.parametrize("text, fragments", [
    ("env = rps\nrps_n = 0\nmethod = sacl\ncapacity_k = 0\n",
     ["rps_n must lie in 1..12", "capacity_k must be >= 1"]),
    ("env = rps\nrps_n = 13\nmethod = sacl\n", ["rps_n must lie in 1..12"]),
    ("env = grid_pursuit\nmethod = sacl\ngrid_width = 1\ngrid_height = 2\n"
     "grid_horizon = 0\n", ["grid_width must be >= 2", "grid_horizon must be >= 1"]),
    ("env = rps\nrps_n = 3\nmethod = sacl\ngrid_width = 5\ncapture_reward = 2\n",
     ["key 'grid_width' does not apply to env rps",
      "key 'capture_reward' does not apply to env rps"]),
    ("env = grid_pursuit\nmethod = sacl\nrps_n = 3\ngrid_width = 1\ngrid_height = 2\n"
     "grid_horizon = 2\n",
     ["key 'rps_n' does not apply to env grid_pursuit", "grid_width must be >= 2"]),
], ids=["rps_n_0_and_capacity_k", "rps_n_13", "grid_width_and_horizon",
        "grid_keys_on_rps", "rps_key_on_grid"])
def test_parse_config_reports_env_range_errors_with_the_rest(text, fragments):
    # environment parameters are checked in parse_config, each problem on its
    # own line under the one heading and naming its key
    with pytest.raises(ValueError) as err:
        parse_config(text)
    lines = str(err.value).splitlines()
    assert lines[0] == "config errors:"
    assert len(lines[1:]) == len(fragments)
    for fragment in fragments:
        assert sum(fragment in line for line in lines[1:]) == 1


def test_parse_config_reports_an_oversized_grid():
    with pytest.raises(ValueError, match="state space too large"):
        parse_config("env = grid_pursuit\nmethod = sacl\ngrid_width = 10\n"
                     "grid_height = 10\ngrid_horizon = 20\n")


def test_parse_config_leaves_defaults_to_the_dataclasses():
    cfg = parse_config("env = rps\nrps_n = 2\nmethod = sacl\n")
    assert cfg == RunConfig(env="rps", env_params={"rps_n": 2}, method="sacl")


def test_parse_config_grid_requirements():
    with pytest.raises(ValueError) as err:
        parse_config("env = grid_pursuit\nmethod = self_play\n")
    assert "grid_width" in str(err.value)
    cfg = parse_config("""
    env = grid_pursuit
    method = self_play
    grid_width = 2
    grid_height = 2
    grid_horizon = 2
    """)
    assert cfg.env_params["grid_horizon"] == 2
    assert cfg.eval_every == 1000  # env-dependent default


def test_parse_config_rejects_nan_alpha_bias():
    with pytest.raises(ValueError, match="key 'alpha_bias': must be finite"):
        parse_config("env = rps\nrps_n = 2\nmethod = sacl\nalpha_bias = nan\n")
    with pytest.raises(ValueError, match="alpha_bias"):
        MetricConfig(alpha_bias=float("nan"))


def test_parse_config_rejects_nan_convergence_threshold():
    with pytest.raises(ValueError, match="key 'convergence_threshold': must be finite"):
        parse_config("env = rps\nrps_n = 2\nmethod = sacl\nconvergence_threshold = nan\n")
    with pytest.raises(ValueError, match="convergence_threshold"):
        rps_config(convergence_threshold=float("nan"))


def test_parse_config_rejects_inf_capture_reward():
    with pytest.raises(ValueError, match="key 'capture_reward': must be finite"):
        parse_config("env = grid_pursuit\nmethod = sacl\ngrid_width = 2\n"
                     "grid_height = 2\ngrid_horizon = 2\ncapture_reward = inf\n")
    with pytest.raises(ValueError, match="capture_reward"):
        GridPursuitParams(2, 2, 2, capture_reward=float("-inf"))
