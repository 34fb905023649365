"""Golden-trajectory check: do two commits train identically?

    python3 perfbench/golden.py BASE [HEAD]

Exports ``src/`` of each commit (HEAD by default for the second) into a
temporary directory, runs ``subgamelab train`` on a fixed set of configs
with each, drops the ``wall_clock`` column and compares the CSVs byte for
byte. The configs are iterated RPS n = 2..5 under all three methods and 3x3
grid pursuit with horizon 4 under ``sacl`` with the ``full`` and
``td_error`` metrics. Prints one line per config and exits 0 only when
every CSV matches. The reference is regenerated on every call; nothing is
read from a stored copy. Run it inside the git repository; set ``TMPDIR``
to choose where the exports go.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

LEARNER = ["lr = 1.0", "lr_decay = none", "epsilon = 1.0", "p = 0.7", "capacity_k = 64"]


def configs() -> dict[str, str]:
    """Config text per name; the RPS ones follow ``harness.fig2_run_config``."""
    out = {}
    for n in range(2, 6):
        budgets = {"self_play": 5_000 + 300 * 3**n, "sacl": 3_000 + 2_000 * n,
                   "full_access_order": 2_000 + 500 * n}
        for method, budget in budgets.items():
            out[f"rps{n}-{method}"] = "\n".join(LEARNER + [
                "env = rps", f"rps_n = {n}", f"method = {method}", "variant = uniform",
                "episodes_per_epoch = 4", "seeds = 0, 1, 2", f"sample_budget = {budget}",
                "eval_every = 50", "convergence_threshold = 0.01"])
    for variant in ("full", "td_error"):
        out[f"grid3x3x4-sacl-{variant}"] = "\n".join(LEARNER + [
            "env = grid_pursuit", "grid_width = 3", "grid_height = 3", "grid_horizon = 4",
            "method = sacl", f"variant = {variant}", "episodes_per_epoch = 8",
            "seeds = 0", "sample_budget = 100000", "eval_every = 2000",
            "convergence_threshold = 0.01"])
    return out


def export(commit: str, dest: Path) -> None:
    """Write ``src/`` as of ``commit`` under ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", commit, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def without_wall_clock(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    drop = rows[0].index("wall_clock")
    return "".join(",".join(r[:drop] + r[drop + 1:]) + "\n" for r in rows)


def trajectories(commit: str, work: Path) -> dict[str, str]:
    """Train CSVs, wall clock dropped, of every config at ``commit``."""
    tree = work / commit.replace("/", "_")
    export(commit, tree)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = {}
    for name, text in configs().items():
        config, result = tree / f"{name}.cfg", tree / f"{name}.csv"
        config.write_text(text + "\n")
        subprocess.run([sys.executable, "-m", "subgamelab.cli", "train",
                        "--config", str(config), "--out", str(result)],
                       check=True, env=env, cwd=tree)
        out[name] = without_wall_clock(result.read_text())
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="commit whose trajectories are the reference")
    p.add_argument("head", nargs="?", default="HEAD", help="commit to compare")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        work = Path(tmp)
        base = trajectories(args.base, work / "base")
        head = trajectories(args.head, work / "head")
    differ = 0
    for name in base:
        same = base[name] == head[name]
        differ += not same
        rows = base[name].count("\n") - 1
        print(f"{name:28s} {'identical' if same else 'DIFFERENT'} ({rows} rows)")
    print(f"{len(base) - differ}/{len(base)} trajectories identical "
          f"between {args.base} and {args.head}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
