"""The benchmark's layer tracer still fits the package.

``perfbench/tracer.py`` patches package functions by name; this loads it from
the checkout, unedited, so renaming a traced function fails here rather than
only in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from subgamelab import Learner, LearnerConfig, RpsParams, curriculum, learner, make_rps

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def package_bindings(tracer_module):
    """Every attribute of every package module and of the traced classes."""
    for module in {m for targets in tracer_module.TIMED.values() for m, _ in targets}:
        importlib.import_module(f"subgamelab.{module}")
    owners = [m for name, m in sorted(sys.modules.items())
              if m is not None and name.split(".")[0] == "subgamelab"]
    owners += [learner.QTable, curriculum.WeightedStateBuffer]
    return {(id(owner), attr): value
            for owner in owners for attr, value in list(vars(owner).items())}


def train_a_little():
    """Five short episodes; returns their summed length, the sample count."""
    lr = Learner(make_rps(RpsParams(2)),
                 LearnerConfig(lr=1.0, lr_decay=None, epsilon=0.5), np.random.default_rng(0))
    steps = sum(len(lr.run_episode(0, 2)) for _ in range(5))
    assert lr.qtable.visits.sum() == steps  # one visit per sample
    lr.values()
    return steps


def changed(before, after):
    return sorted(key[1] for key, value in before.items() if after.get(key) is not value)


def test_install_and_uninstall_restore_every_binding(tracer_module):
    before = package_bindings(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        patched = changed(before, package_bindings(tracer_module))
        steps = train_a_little()
    finally:
        tracer.uninstall()
    assert changed(before, package_bindings(tracer_module)) == []
    for name, targets in tracer_module.TIMED.items():
        for _, attr in targets:
            assert attr.split(".")[-1] in patched, name
    stats = tracer.take()
    # both counters take len() of the episode, which must be its step count
    assert stats["game.rollout"].calls == 5
    assert stats["game.rollout"].items == steps
    assert stats["learner.minimax_q_update"].calls == 5
    assert stats["learner.minimax_q_update"].items == steps
    assert stats["learner.exploration_policy"].calls > 0
    assert stats["learner.values_from_q"].calls == 1


def test_install_counter_counts_stage_lookups_and_restores(tracer_module):
    before = package_bindings(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install_counter()
    try:
        assert "stage_solution" in changed(before, package_bindings(tracer_module))
        train_a_little()
    finally:
        tracer.uninstall()
    assert changed(before, package_bindings(tracer_module)) == []
    assert tracer.lookups.items > 0
