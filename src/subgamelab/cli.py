"""Command-line entry points for training runs, oracles, and reports."""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import MISSING, fields

import numpy as np

from . import harness
from .envs import ENVS, ConfigError, build_env
from .evaluation import exploitability, solve_ne
from .game import _PROB_TOL, Policy
from .matrix_game import solve

# a size flag left out builds the 3x3 grid with horizon 4; these are not
# config defaults, so a grid config file without sizes is still refused
_UNSIZED = {"--width": 3, "--height": 3, "--horizon": 4}
# every env parameter field -> (its flag, the field's name with - for _, its type)
_ENV_FLAGS = {field: ("--" + field.replace("_", "-"), kind)
              for _, _, keys, _ in ENVS.values() for field, kind in keys.values()}


def _env_params_from_args(args) -> dict:
    """The flat config keys of ``--env``; a flag of another env is refused."""
    cls, _, keys, _ = ENVS[args.env]
    own = {field for field, _ in keys.values()}
    for field, (flag, _) in _ENV_FLAGS.items():
        if field not in own and getattr(args, field) is not None:
            raise ValueError(f"{flag} does not apply to env {args.env}")
    required = {f.name for f in fields(cls) if f.default is MISSING}
    params = {}
    for key, (field, _) in keys.items():
        flag = _ENV_FLAGS[field][0]
        value = _UNSIZED.get(flag) if getattr(args, field) is None else getattr(args, field)
        if value is not None:
            params[key] = value
        elif field in required:
            raise ValueError(f"{flag} is required for the {args.env} environment")
    return params


def _env_from_args(args):
    """The game of ``--env`` and its flags; a bad value's message names its flag, not its key."""
    params = _env_params_from_args(args)
    try:
        return build_env(args.env, params)
    except ConfigError as exc:
        flags = {key: _ENV_FLAGS[field][0] for key, (field, _) in ENVS[args.env][2].items()}
        keys = re.compile(r"\b(" + "|".join(flags) + r")\b")
        raise ValueError(keys.sub(lambda key: flags[key[0]], str(exc))) from None


def _add_env_args(parser) -> None:
    parser.add_argument("--env", choices=tuple(ENVS), required=True)
    for flag, kind in _ENV_FLAGS.values():
        parser.add_argument(flag, type=kind)


def _write_output(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_train(args) -> None:
    with open(args.config) as fh:
        cfg = harness.parse_config(fh.read())
    _write_output(harness.run_experiment(cfg).to_csv(), args.out)


def cmd_replicate_fig2(args) -> None:
    rows = harness.replicate_fig2(args.n_max, args.seeds)
    _write_output(harness.fig2_to_csv(rows), args.out)


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
    game = _env_from_args(args)
    ne = solve_ne(game)
    print(json.dumps({
        "values_player1": ne.v_star[0].tolist(),
        "policy_player1": ne.ne_policy.p1.tolist(),
        "policy_player2": ne.ne_policy.p2.tolist(),
        "residual": ne.residual,
    }))


class _Pairs(list):
    """A JSON object as its (key, value) pairs in file order, repeated keys kept."""


def _load_policy(path: str, game) -> Policy:
    """Read a JSON policy file: per player, state index -> probability row.

    Each player needs exactly one probability row (a JSON array of finite,
    non-negative numbers summing to 1) of its action count for every state,
    where ``"1"`` and ``"01"`` name the same state and a key given twice is a
    second row; anything else is rejected with a message naming the player
    and state.
    """
    with open(path) as fh:
        data = json.load(fh, object_pairs_hook=_Pairs)
    a1, a2 = game.action_counts
    s_count = game.state_count

    def table(key: str, width: int) -> np.ndarray:
        found = [value for name, value in data if name == key] if isinstance(data, _Pairs) else []
        if len(found) > 1:
            raise ValueError(f"policy file gives {key} {len(found)} times")
        if not found or not isinstance(found[0], _Pairs):
            raise ValueError(f"policy file needs a {key} object of state -> row")
        rows = np.full((s_count, width), np.nan)  # NaN until a (finite) row is given
        for state, probs in found[0]:
            if not (state.isdecimal() and int(state) < s_count):
                raise ValueError(f"{key} state {state!r} is not a state index "
                                 f"in 0..{s_count - 1}")
            if not np.isnan(rows[int(state), 0]):
                raise ValueError(f"{key} state {state!r} gives state {int(state)} "
                                 f"a second row")
            if type(probs) is not list:
                raise ValueError(f"{key} state {state}: row is not a JSON array")
            for entry in probs:  # a JSON true would otherwise count as 1.0
                if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                    raise ValueError(f"{key} state {state}: row entry {entry!r} "
                                     f"is not a number")
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
    game = _env_from_args(args)
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
    try:
        args.func(args)
    except (ValueError, OSError) as exc:  # bad user input or file: a usage error
        parser.exit(2, f"subgamelab {args.command}: error: {exc}\n")


if __name__ == "__main__":
    main()
