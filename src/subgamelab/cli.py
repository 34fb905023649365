"""Command-line entry points for training runs, oracles, and reports."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import harness
from .envs import build_env
from .evaluation import exploitability, solve_ne
from .game import _PROB_TOL, Policy
from .matrix_game import solve


def _env_params_from_args(args) -> dict:
    params = {}
    if args.env == "rps":
        if args.n is None:
            raise SystemExit("--n is required for the rps environment")
        params["rps_n"] = args.n
    else:
        params["grid_width"] = args.width
        params["grid_height"] = args.height
        params["grid_horizon"] = args.horizon
        params["capture_reward"] = args.capture_reward
    return params


def _add_env_args(parser) -> None:
    parser.add_argument("--env", choices=("rps", "grid_pursuit"), required=True)
    parser.add_argument("--n", type=int, default=None, help="rps rounds")
    parser.add_argument("--width", type=int, default=3)
    parser.add_argument("--height", type=int, default=3)
    parser.add_argument("--horizon", type=int, default=4)
    parser.add_argument("--capture-reward", type=float, default=1.0)


def cmd_train(args) -> None:
    with open(args.config) as fh:
        cfg = harness.parse_config(fh.read())
    record = harness.run_experiment(cfg)
    if args.out:
        record.write_csv(args.out)
    else:
        sys.stdout.write(record.to_csv())


def cmd_replicate_fig2(args) -> None:
    rows = harness.replicate_fig2(args.n_max, args.seeds)
    csv_text = harness.fig2_to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)


def cmd_coverage(args) -> None:
    if args.actions:
        mean = harness.joint_action_coverage(args.seeds)
        print(json.dumps({"target": "rps1_joint_actions", "seeds": args.seeds,
                          "mean_episodes": mean}))
    else:
        mean = harness.coverage_experiment(args.n, args.seeds)
        print(json.dumps({"target": f"rps{args.n}_states", "seeds": args.seeds,
                          "mean_samples": mean}))


def cmd_ne_solve(args) -> None:
    game = build_env(args.env, _env_params_from_args(args))
    ne = solve_ne(game)
    print(json.dumps({
        "values_player1": ne.v_star[0].tolist(),
        "policy_player1": ne.ne_policy.p1.tolist(),
        "policy_player2": ne.ne_policy.p2.tolist(),
        "residual": ne.residual,
    }))


def _load_policy(path: str, game) -> Policy:
    """Read a JSON policy file: per player, state index -> probability row.

    Each player needs one probability row (finite, non-negative, summing to
    1) of its action count for every state; anything else is rejected with a
    message naming the player and state.
    """
    with open(path) as fh:
        data = json.load(fh)
    a1, a2 = game.action_counts
    s_count = game.state_count

    def table(key: str, width: int) -> np.ndarray:
        if not isinstance(data, dict) or not isinstance(data.get(key), dict):
            raise ValueError(f"policy file needs a {key} object of state -> row")
        rows = np.full((s_count, width), np.nan)  # NaN until a (finite) row is given
        for state, probs in data[key].items():
            if not (state.isdecimal() and int(state) < s_count):
                raise ValueError(f"{key} state {state!r} is not a state index "
                                 f"in 0..{s_count - 1}")
            row = np.asarray(probs, dtype=np.float64)
            if row.shape != (width,):
                raise ValueError(f"{key} state {state}: row has shape {row.shape}, "
                                 f"expected {width} probabilities")
            if not np.isfinite(row).all():
                raise ValueError(f"{key} state {state}: row has a NaN or infinite entry")
            if row.min() < 0.0:
                raise ValueError(f"{key} state {state}: row has a negative entry")
            if abs(row.sum() - 1.0) > _PROB_TOL:
                raise ValueError(f"{key} state {state}: row sums to {float(row.sum())}, not 1")
            rows[int(state)] = row
        missing = np.flatnonzero(np.isnan(rows[:, 0]))
        if missing.size:
            raise ValueError(f"{key} has no row for state {missing[0]} "
                             f"({missing.size} of {s_count} states missing)")
        return rows

    return Policy(table("player1", a1), table("player2", a2))


def cmd_exploitability(args) -> None:
    game = build_env(args.env, _env_params_from_args(args))
    joint = _load_policy(args.policy, game)
    report = exploitability(game, joint)
    print(json.dumps({
        "br_value_1": report.br_value_1,
        "br_value_2": report.br_value_2,
        "total": report.total,
    }))


def cmd_solve_matrix(args) -> None:
    if args.matrix == "-":
        payoff = np.loadtxt(sys.stdin, ndmin=2)
    else:
        payoff = np.loadtxt(args.matrix, ndmin=2)
    sol = solve(payoff)
    print(json.dumps({
        "value": sol.value,
        "row_strategy": sol.row_strategy.tolist(),
        "col_strategy": sol.col_strategy.tolist(),
    }))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="subgamelab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a config-driven experiment")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_train.set_defaults(func=cmd_train)

    p_fig2 = sub.add_parser("replicate-fig2",
                            help="samples-to-convergence sweep over game sizes")
    p_fig2.add_argument("--n-max", type=int, default=6)
    p_fig2.add_argument("--seeds", type=int, default=10)
    p_fig2.add_argument("--out", default=None)
    p_fig2.set_defaults(func=cmd_replicate_fig2)

    p_cov = sub.add_parser("coverage", help="state/action coverage constants")
    p_cov.add_argument("--n", type=int, default=10)
    p_cov.add_argument("--seeds", type=int, default=200)
    p_cov.add_argument("--actions", action="store_true",
                       help="measure one-round joint-action coverage instead")
    p_cov.set_defaults(func=cmd_coverage)

    p_ne = sub.add_parser("ne-solve", help="exact equilibrium of a built-in game")
    _add_env_args(p_ne)
    p_ne.set_defaults(func=cmd_ne_solve)

    p_ex = sub.add_parser("exploitability", help="best-response sum of a policy file")
    _add_env_args(p_ex)
    p_ex.add_argument("--policy", required=True,
                      help="JSON file: per player, state index -> probability vector")
    p_ex.set_defaults(func=cmd_exploitability)

    p_mat = sub.add_parser("solve-matrix", help="value and strategies of a payoff matrix")
    p_mat.add_argument("matrix", help="whitespace-delimited matrix file, or - for stdin")
    p_mat.set_defaults(func=cmd_solve_matrix)

    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
