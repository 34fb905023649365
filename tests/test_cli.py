import json

import numpy as np
import pytest

from subgamelab.cli import main


def run_cli(capsys, *argv):
    main(list(argv))
    return capsys.readouterr().out


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
], ids=["missing", "out_of_range", "negative", "non_integer", "wrong_length", "nan", "inf",
        "sum_not_one", "negative_entry"])
def test_exploitability_rejects_bad_policy_file(tmp_path, capsys, player1, message):
    policy = {"player1": player1, "player2": {"0": UNIFORM, "1": UNIFORM}}
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(policy))
    with pytest.raises(ValueError, match=message):
        run_cli(capsys, "exploitability", "--env", "rps", "--n", "2", "--policy", str(path))


def test_coverage_subcommand(capsys):
    out = json.loads(run_cli(capsys, "coverage", "--n", "2", "--seeds", "50"))
    assert out["mean_samples"] == pytest.approx(3.0, abs=1.0)
    out = json.loads(run_cli(capsys, "coverage", "--actions", "--seeds", "50"))
    assert out["mean_episodes"] == pytest.approx(25.46, abs=4.0)


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
