"""Short training runs pinned to the CSVs they wrote when their digests were recorded.

Each config is trained through ``parse_config`` and ``run_experiment``; the
CSV, wall-clock column dropped, must hash to the recorded sha256. A change
that alters any draw, update or weight in rollout, the learner or the
curriculum changes at least one digest. The configs follow
``perfbench/golden.py`` at a smaller scale: rps n=3 under all three methods
(seeds 0-2, the ``fig2_run_config`` budgets) and the 3x3x4 grid under
``sacl`` with the ``full`` and ``td_error`` metrics (seed 0, budget 20k).
Those all learn at a constant rate, so rps n=3 under ``sacl`` also runs
with ``lr_decay = visit_count``, the learner's default, on mixed stage
games. They all explore uniformly (epsilon=1), so the grid is also run
with mixed and greedy policies, which the learner rebuilds as its tables
move: ``sacl``/``full`` at epsilon=0.5 with ``batch_size`` 3 (budget 12k)
and ``self_play`` at epsilon=0 (budget 4k). Greedy play from zero tables never
captures, so the epsilon=0 CSV pins the sample counts that greedy episodes
reach, not a learning curve. The 3x3x4 grid also runs under
``full_access_order`` (budget 20k): once with the default capture reward
(eval every 2000), and once with ``capture_reward = 0`` and eval every
sample. There every state counts as learned before the first episode, so
the run stops after one episode, and its one row pins that this episode
still starts at the top index, the last timestep: one sample, not the
several an episode from state 0 takes.
"""

import csv
import hashlib
import io

import pytest

from subgamelab import parse_config, run_experiment

LEARNER = ["lr = 1.0", "lr_decay = none", "epsilon = 1.0", "p = 0.7", "capacity_k = 64"]
RPS_BUDGETS = {"self_play": 5_000 + 300 * 3**3, "sacl": 3_000 + 2_000 * 3,
               "full_access_order": 2_000 + 500 * 3}
MIXED = {
    "grid3x3x4-sacl-full-eps0.5-batch3": [
        "epsilon = 0.5", "batch_size = 3", "method = sacl", "variant = full",
        "episodes_per_epoch = 8", "sample_budget = 12000", "eval_every = 1000"],
    "grid3x3x4-self_play-eps0": [
        "epsilon = 0.0", "method = self_play", "sample_budget = 4000", "eval_every = 500"],
}
FULL_ACCESS = {
    "grid3x3x4-full_access_order": ["eval_every = 2000"],
    "grid3x3x4-full_access_order-capture0": ["capture_reward = 0", "eval_every = 1"],
}


def config(name: str) -> str:
    if name.startswith("rps3-"):
        method, _, decay = name.removeprefix("rps3-").partition("-")
        learner = [f"lr_decay = {decay}" if line.startswith("lr_decay") and decay else line
                   for line in LEARNER]
        return "\n".join(learner + [
            "env = rps", "rps_n = 3", f"method = {method}", "variant = uniform",
            "episodes_per_epoch = 4", "seeds = 0, 1, 2",
            f"sample_budget = {RPS_BUDGETS[method]}", "eval_every = 50",
            "convergence_threshold = 0.01"])
    grid = ["env = grid_pursuit", "grid_width = 3", "grid_height = 3", "grid_horizon = 4",
            "seeds = 0", "convergence_threshold = 0.01"]
    if name in MIXED:
        learner = [line for line in LEARNER if not line.startswith("epsilon")]
        return "\n".join(learner + grid + MIXED[name])
    if name in FULL_ACCESS:
        return "\n".join(LEARNER + grid + FULL_ACCESS[name] + [
            "method = full_access_order", "sample_budget = 20000"])
    variant = name.removeprefix("grid3x3x4-sacl-")
    return "\n".join(LEARNER + grid + [
        "method = sacl", f"variant = {variant}", "episodes_per_epoch = 8",
        "sample_budget = 20000", "eval_every = 2000"])


def digest_without_wall_clock(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    drop = rows[0].index("wall_clock")
    body = "".join(",".join(r[:drop] + r[drop + 1:]) + "\n" for r in rows)
    return hashlib.sha256(body.encode()).hexdigest()


DIGESTS = {
    "rps3-self_play": "41a3846511c92e2df93988ad60c31f020c074ff3b9ef92d84b8c2a93bd4f46f6",
    "rps3-sacl": "df8478aecaa465060e8fe33f4bb8909818c8c34542540e28af51555c369666cc",
    "rps3-full_access_order": "6a1808f3939dd6631e5fc03fc730e160ee8d945cb61240285c1c564952c353b2",
    "rps3-sacl-visit_count":
        "3563e278c7ff762bca62053d540c248386df7bd165b3a3130a16cb2a7ec00a0e",
    "grid3x3x4-sacl-full": "550a76d46a44d1d475d01f893908b300e587fe96485b5e2406dc4a46ce3fed5b",
    "grid3x3x4-sacl-td_error": "e4e655d68d60bebcb5835f18007bc78fb0da51a35a4e94d5ec3aee8c18572c94",
    "grid3x3x4-sacl-full-eps0.5-batch3":
        "3bfe0f86eeab4e9046b21cda424e7db29c5d5d2ffa14d602319bb68d256f6016",
    "grid3x3x4-self_play-eps0": "850a5c5c91de2bc2f58bfaaa1860fd608b03458e495235f812d1931e7ef81030",
    "grid3x3x4-full_access_order":
        "2ed30b524ce0231f721ce92bafffdc0fba71bd8f0b465a8ef3c4535d6adc110f",
    "grid3x3x4-full_access_order-capture0":
        "6461b05de695572ae022d8c309c9b5f4d240eeaf9391c28e9faaec9c49a87e8a",
}


@pytest.mark.parametrize("name", DIGESTS)
def test_training_csv_matches_its_recorded_digest(name):
    record = run_experiment(parse_config(config(name)))
    assert digest_without_wall_clock(record.to_csv()) == DIGESTS[name]
