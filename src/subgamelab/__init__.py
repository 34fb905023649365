"""Desk-scale laboratory for zero-sum Markov games with subgame curricula."""

from .curriculum import (MetricConfig, SamplerConfig, SamplingTable, ValueEnsemble,
                         WeightedStateBuffer, buffer_insert, compute_weight,
                         compute_weights, curriculum_epoch, fps_prune,
                         random_prune, sample_subgame, signed_values)
from .envs import GridPursuitParams, RpsParams, build_env, make_grid_pursuit, make_rps
from .evaluation import (ExploitabilityReport, NESolution, best_response,
                         evaluate_matchup, exploitability, matchup_value,
                         oracle_weight, shapley_backup, solve_ne)
from .game import (GameSpec, Policy, Rng, Transition, make_rng, rollout,
                   sample_initial, subgame_of, uniform_policy)
from .harness import (ExperimentRecord, RecordRow, RunConfig,
                      coverage_experiment, joint_action_coverage, parse_config,
                      replicate_fig2, run_experiment, samples_to_converge)
from .learner import (Learner, LearnerConfig, QTable, exploration_policy,
                      minimax_q_update, q_error, values_from_q)
from .matrix_game import MatrixSolution, best_response_value, solve, solve_stack

__all__ = [
    "ExperimentRecord", "ExploitabilityReport", "GameSpec", "GridPursuitParams",
    "Learner", "LearnerConfig", "MatrixSolution", "MetricConfig", "NESolution",
    "Policy", "QTable", "RecordRow", "Rng", "RpsParams", "RunConfig",
    "SamplerConfig", "SamplingTable", "Transition", "ValueEnsemble",
    "WeightedStateBuffer", "best_response", "best_response_value",
    "buffer_insert", "build_env", "compute_weight", "compute_weights",
    "coverage_experiment",
    "curriculum_epoch", "evaluate_matchup", "exploitability",
    "exploration_policy", "fps_prune", "joint_action_coverage", "make_grid_pursuit",
    "make_rng", "make_rps", "matchup_value", "minimax_q_update", "oracle_weight",
    "parse_config", "q_error", "random_prune", "replicate_fig2", "rollout",
    "run_experiment", "sample_initial", "sample_subgame", "samples_to_converge",
    "shapley_backup", "signed_values", "solve", "solve_ne", "solve_stack",
    "subgame_of",
    "uniform_policy", "values_from_q",
]
