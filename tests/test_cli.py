import argparse
import json
import re

import numpy as np
import pytest

from subgamelab import build_env, parse_config, solve_ne
from subgamelab.cli import _add_env_args, _env_params_from_args, main
from subgamelab.envs import ENVS, env_params


def run_cli(capsys, *argv):
    main(list(argv))
    return capsys.readouterr().out


def cli_error(capsys, *argv) -> str:
    """Run a command that must fail on its input; return its stderr."""
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    return captured.err


def test_solve_matrix_file(tmp_path, capsys):
    path = tmp_path / "rps.txt"
    path.write_text("0 -1 1\n1 0 -1\n-1 1 0\n")
    out = json.loads(run_cli(capsys, "solve-matrix", str(path)))
    assert abs(out["value"]) < 1e-8
    np.testing.assert_allclose(out["row_strategy"], np.ones(3) / 3, atol=1e-8)


def test_solve_matrix_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("2 0\n3 1\n"))
    out = json.loads(run_cli(capsys, "solve-matrix", "-"))
    assert out["value"] == pytest.approx(1.0)
    assert out["col_strategy"] == [0.0, 1.0]


def test_ne_solve_rps(capsys):
    out = json.loads(run_cli(capsys, "ne-solve", "--env", "rps", "--n", "2"))
    assert out["values_player1"][0] == pytest.approx(1.0 / 9.0, abs=1e-9)
    assert out["residual"] == 0.0
    np.testing.assert_allclose(out["policy_player1"][0], np.ones(3) / 3, atol=1e-9)


def test_ne_solve_grid_pursuit_is_the_game_of_the_same_config_keys(capsys):
    def report(flat):
        ne = solve_ne(build_env("grid_pursuit", flat))
        return {"values_player1": ne.v_star[0].tolist(),
                "policy_player1": ne.ne_policy.p1.tolist(),
                "policy_player2": ne.ne_policy.p2.tolist(), "residual": ne.residual}

    unsized = json.loads(run_cli(capsys, "ne-solve", "--env", "grid_pursuit"))
    assert len(unsized["values_player1"]) == 288
    assert unsized == report({"grid_width": 3, "grid_height": 3, "grid_horizon": 4})
    sized = json.loads(run_cli(capsys, "ne-solve", "--env", "grid_pursuit", "--width", "2",
                               "--height", "2", "--horizon", "2", "--capture-reward", "2"))
    assert sized == report({"grid_width": 2, "grid_height": 2, "grid_horizon": 2,
                            "capture_reward": 2.0})


@pytest.mark.parametrize("name", ENVS)
def test_cli_flags_and_config_keys_give_the_same_env_params(name):
    keys = ENVS[name][2]
    # every key a distinct valid value: 2, 3, 4, ... in the table's order
    values = {key: kind(2 + i) for i, (key, (_, kind)) in enumerate(keys.items())}
    text = f"env = {name}\nmethod = sacl\n" + "".join(f"{key} = {value}\n"
                                                      for key, value in values.items())
    from_config = parse_config(text).env_params
    parser = argparse.ArgumentParser()
    _add_env_args(parser)
    argv = ["--env", name]
    for key, (field, _) in keys.items():  # a flag is its field's name with - for _
        argv += ["--" + field.replace("_", "-"), str(values[key])]
    from_flags = _env_params_from_args(parser.parse_args(argv))
    assert from_flags == from_config == values
    assert [type(v) for v in from_flags.values()] == [type(v) for v in from_config.values()]
    assert env_params(name, from_flags) == env_params(name, from_config)


def test_exploitability_policy_file(tmp_path, capsys):
    uniform = [1.0 / 3.0] * 3
    policy = {"player1": {"0": uniform}, "player2": {"0": [1.0, 0.0, 0.0]}}
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(policy))
    out = json.loads(run_cli(capsys, "exploitability", "--env", "rps", "--n", "1",
                             "--policy", str(path)))
    assert out["total"] == pytest.approx(2.0 / 3.0, abs=1e-8)


UNIFORM = [1.0 / 3.0] * 3


@pytest.mark.parametrize("player1, message", [
    ({"0": UNIFORM}, "player1 has no row for state 1"),
    ({"0": UNIFORM, "1": UNIFORM, "2": UNIFORM}, "player1 state '2' is not a state index"),
    ({"0": UNIFORM, "1": UNIFORM, "-1": UNIFORM}, "player1 state '-1' is not a state index"),
    ({"0": UNIFORM, "1.0": UNIFORM}, r"player1 state '1\.0' is not a state index"),
    ({"0": UNIFORM, "1": [0.5, 0.5]}, "player1 state 1: row has shape"),
    ({"0": [float("nan"), 0.5, 0.5], "1": UNIFORM}, "player1 state 0: row has a NaN"),
    ({"0": UNIFORM, "1": [float("inf"), 0.0, 0.0]}, "player1 state 1: row has a NaN or infinite"),
    ({"0": UNIFORM, "1": [0.5, 0.5, 0.5]}, "player1 state 1: row sums to 1.5, not 1"),
    ({"0": [1.5, -0.5, 0.0], "1": UNIFORM}, "player1 state 0: row has a negative entry"),
    ({"0": UNIFORM, "1": UNIFORM, "01": [1.0, 0.0, 0.0]},
     "player1 state '01' gives state 1 a second row"),
    ({"0": [True, False, False], "1": UNIFORM},
     "player1 state 0: row entry True is not a number"),
    ({"0": UNIFORM, "1": ["x", 0.5, 0.5]}, "player1 state 1: row entry 'x' is not a number"),
    ({"0": UNIFORM, "1": [None, 0.5, 0.5]}, "player1 state 1: row entry None is not a number"),
    ({"0": UNIFORM, "1": [[1.0], 0.0, 0.0]},
     r"player1 state 1: row entry \[1\.0\] is not a number"),
    ({"0": UNIFORM, "1": 1.0}, "player1 state 1: row is not a JSON array"),
    ({"0": {"a": 1.0}, "1": UNIFORM}, "player1 state 0: row is not a JSON array"),
], ids=["missing", "out_of_range", "negative", "non_integer", "wrong_length", "nan", "inf",
        "sum_not_one", "negative_entry", "repeated_state", "boolean", "string", "null",
        "nested", "scalar_row", "object_row"])
def test_exploitability_rejects_bad_policy_file(tmp_path, capsys, player1, message):
    policy = {"player1": player1, "player2": {"0": UNIFORM, "1": UNIFORM}}
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(policy))
    err = cli_error(capsys, "exploitability", "--env", "rps", "--n", "2",
                    "--policy", str(path))
    assert err.startswith("subgamelab exploitability: error: ")
    assert re.search(message, err)


@pytest.mark.parametrize("text, message", [
    ('{"player1": {"0": %s, "0": [0, 1, 0]}, "player2": {"0": %s}}',
     "player1 state '0' gives state 0 a second row"),
    ('{"player1": {"0": %s}, "player2": {"0": %s}, "player2": {"0": [0, 1, 0]}}',
     "policy file gives player2 2 times"),
], ids=["state", "player"])
def test_exploitability_rejects_a_repeated_json_key(tmp_path, capsys, text, message):
    # json keeps only the last of two equal keys; the policy reader sees both
    path = tmp_path / "policy.json"
    path.write_text(text % (UNIFORM, UNIFORM))
    err = cli_error(capsys, "exploitability", "--env", "rps", "--n", "1",
                    "--policy", str(path))
    assert err.startswith("subgamelab exploitability: error: ")
    assert message in err


def test_coverage_subcommand(capsys):
    out = json.loads(run_cli(capsys, "coverage", "--n", "2", "--seeds", "50"))
    assert out["mean_samples"] == pytest.approx(3.0, abs=1.0)
    out = json.loads(run_cli(capsys, "coverage", "--actions", "--seeds", "50"))
    assert out["mean_episodes"] == pytest.approx(25.46, abs=4.0)


@pytest.mark.parametrize("extra", [[], ["--actions"]], ids=["states", "actions"])
def test_coverage_subcommand_rejects_zero_seeds(capsys, extra):
    err = cli_error(capsys, "coverage", "--n", "2", "--seeds", "0", *extra)
    assert err.startswith("subgamelab coverage: error: ")
    assert "seeds" in err and err.count("\n") == 1


def test_train_subcommand(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("""
    env = rps
    rps_n = 1
    method = self_play
    seeds = 0
    sample_budget = 2000
    eval_every = 50
    lr = 1.0
    lr_decay = none
    """)
    out_csv = tmp_path / "run.csv"
    run_cli(capsys, "train", "--config", str(config), "--out", str(out_csv))
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("seed,method,env,samples_consumed")
    assert len(lines) > 1


def test_replicate_fig2_subcommand(tmp_path, capsys):
    out_csv = tmp_path / "fig2.csv"
    run_cli(capsys, "replicate-fig2", "--n-max", "1", "--seeds", "2",
            "--out", str(out_csv))
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "n,method,mean_samples,stderr,seeds,censored"
    assert len(lines) == 4


@pytest.mark.parametrize("argv, lines", [
    (["train", "--config", "bad.cfg"],
     ["subgamelab train: error: config errors:", "- p must lie in [0, 1]",
      "- capacity_k must be >= 1"]),
    (["train", "--config", "absent.cfg"],
     ["subgamelab train: error: [Errno 2] No such file or directory: 'absent.cfg'"]),
    (["ne-solve", "--env", "rps"],
     ["subgamelab ne-solve: error: --n is required for the rps environment"]),
    (["ne-solve", "--env", "rps", "--n", "1", "--width", "9", "--horizon", "0"],
     ["subgamelab ne-solve: error: --width does not apply to env rps"]),
    (["ne-solve", "--env", "grid_pursuit", "--n", "3"],
     ["subgamelab ne-solve: error: --n does not apply to env grid_pursuit"]),
    (["ne-solve", "--env", "rps", "--n", "13"],
     ["subgamelab ne-solve: error: invalid rps parameters:",
      "- --n must lie in 1..12 (tabular oracles), got 13"]),
    (["ne-solve", "--env", "grid_pursuit", "--width", "1"],
     ["subgamelab ne-solve: error: invalid grid_pursuit parameters:",
      "- --width must be >= 2, got 1"]),
], ids=["bad_config", "missing_config", "rps_without_rounds", "grid_flag_on_rps",
        "rps_flag_on_grid", "rps_rounds_out_of_range", "grid_width_out_of_range"])
def test_bad_input_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, lines):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text("env = rps\nrps_n = 2\nmethod = sacl\n"
                                      "capacity_k = 0\np = 3\n")
    assert cli_error(capsys, *argv).splitlines() == lines
