"""Built-in game constructors: iterated rock-paper-scissors and grid pursuit.

Both environments emit states in timestep order, so every transition moves
to a strictly larger index and backward sweeps are exact.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .game import GameSpec

ROCK, PAPER, SCISSORS = 0, 1, 2
# (a1, a2) pairs where player 1 wins the round
RPS_WINS = ((ROCK, SCISSORS), (PAPER, ROCK), (SCISSORS, PAPER))

MOVES = ((0, 0), (0, -1), (0, 1), (-1, 0), (1, 0))  # stay, up, down, left, right


class ConfigError(ValueError):
    """A configuration with one or more problems, every one listed in ``problems``."""

    def __init__(self, heading: str, problems: list[str]):
        super().__init__(heading + ":\n" + "\n".join(f"- {p}" for p in problems))
        self.problems = problems


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _integer_problem(name: str, value, least: int) -> str | None:
    """What is wrong with ``value`` as the integer field ``name`` (at least ``least``), or None."""
    if not _is_integer(value):
        return f"{name} must be an integer, got {value!r}"
    if value < least:
        return f"{name} must be >= {least}"
    return None


def _is_finite_float(value) -> bool:
    """Whether the real ``value`` is finite as a float; an int beyond its range is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class RpsParams:
    """Rounds of the iterated game; tabular oracles stay practical to n=12.

    A bad value raises :class:`ConfigError` naming the config key ``rps_n``.
    """

    n: int

    def __post_init__(self):
        if not _is_integer(self.n):
            raise ConfigError("invalid rps parameters", [
                f"rps_n must be an integer, got {self.n!r}"])
        if not 1 <= self.n <= 12:
            raise ConfigError("invalid rps parameters", [
                f"rps_n must lie in 1..12 (tabular oracles), got {self.n}"])


def make_rps(params: RpsParams) -> GameSpec:
    """Best-of-nothing iterated rock-paper-scissors.

    State k means player 1 has won k rounds so far. A round win advances to
    state k+1; winning the last round pays +1 to player 1 and ends the game;
    any draw or loss ends the game immediately with zero reward. Episodes
    always start at state 0 and the discount is 1. The single feature is the
    normalized round index.
    """
    n = params.n
    terminal = n
    next_states = np.full((n, 3, 3, 1), terminal, dtype=np.int64)
    next_probs = np.ones((n, 3, 3, 1))
    reward1 = np.zeros((n, 3, 3))
    for k in range(n):
        for a1, a2 in RPS_WINS:
            if k < n - 1:
                next_states[k, a1, a2, 0] = k + 1
            else:
                reward1[k, a1, a2] = 1.0
    rho = np.zeros(n)
    rho[0] = 1.0
    features = (np.arange(n, dtype=np.float64) / max(n - 1, 1)).reshape(-1, 1)
    return GameSpec(next_states, next_probs, reward1, 1.0, rho, features)


@dataclass(frozen=True)
class GridPursuitParams:
    """Simultaneous-move pursuit on a width x height grid with a hard horizon.

    Every bad value is reported in one :class:`ConfigError`, each problem
    naming its config key (``grid_width``, ``grid_height``,
    ``grid_horizon``, ``capture_reward``).
    """

    width: int
    height: int
    horizon: int
    capture_reward: float = 1.0

    def __post_init__(self):
        problems = []
        for key, value, least in (("grid_width", self.width, 2),
                                  ("grid_height", self.height, 2),
                                  ("grid_horizon", self.horizon, 1)):
            if not _is_integer(value):
                problems.append(f"{key} must be an integer, got {value!r}")
            elif value < least:
                problems.append(f"{key} must be >= {least}, got {value}")
        reward = self.capture_reward
        if not isinstance(reward, numbers.Real) or isinstance(reward, bool):
            problems.append(f"capture_reward must be a real number, got {reward!r}")
        elif not _is_finite_float(reward):
            problems.append(f"capture_reward must be finite, got {reward}")
        if not problems:
            # Python ints, so a large numpy size cannot wrap round
            states = (int(self.width) * int(self.height)) ** 2 * int(self.horizon)
            if states > 100_000:
                problems.append("grid pursuit state space too large for tabular play: "
                                f"(grid_width * grid_height)^2 * grid_horizon = {states} > 100000")
        if problems:
            raise ConfigError("invalid grid_pursuit parameters", problems)


def make_grid_pursuit(params: GridPursuitParams) -> GameSpec:
    """Predator-prey pursuit with simultaneous moves and wall clamping.

    A state is (predator cell, prey cell, timestep) with distinct cells; both
    agents pick one of five moves at once. Landing on the prey's cell or
    swapping cells captures (swap counts so the prey cannot pass through the
    predator), paying the predator +capture_reward and ending the episode.
    Reaching the horizon without a capture ends with zero reward. Episodes
    start uniformly over the distinct-cell configurations at t=0. Features
    are the two cell coordinates and the timestep, each scaled to [0, 1].

    States are ordered by timestep first. Within a step, the distinct
    (predator, prey) cell pairs follow ``itertools.product`` order, so state
    ``t * P + i`` is pair i of the P pairs at timestep t; cell c lies at
    x = c % width, y = c // width. ``tests/test_envs.grid_state`` and the
    benchmark's feature lookup both rely on this order.
    """
    w, h, hor = int(params.width), int(params.height), int(params.horizon)
    cells = w * h
    x, y = np.arange(cells) % w, np.arange(cells) // w
    dx, dy = np.array(MOVES).T
    moved = np.clip(y[:, None] + dy, 0, h - 1) * w + np.clip(x[:, None] + dx, 0, w - 1)

    pred, prey = np.divmod(np.arange(cells * cells), cells)
    distinct = pred != prey
    pred, prey = pred[distinct], prey[distinct]
    per_step = pred.size
    s_count = per_step * hor
    terminal = s_count
    pair_index = np.full((cells, cells), -1, dtype=np.int64)
    pair_index[pred, prey] = np.arange(per_step)

    # (pair, a1, a2): the cells after both moves
    p_new, e_new = moved[pred][:, :, None], moved[prey][:, None, :]
    captured = (p_new == e_new) | ((p_new == prey[:, None, None]) & (e_new == pred[:, None, None]))
    live = ~captured
    next_states = np.full((hor, per_step, 5, 5), terminal, dtype=np.int64)
    step_base = np.arange(1, hor, dtype=np.int64)[:, None] * per_step
    next_states[:-1, live] = step_base + pair_index[p_new, e_new][live]
    reward1 = np.zeros((hor, per_step, 5, 5))
    reward1[:, captured] = params.capture_reward

    features = np.empty((hor, per_step, 5))
    features[:, :, 0] = x[pred] / (w - 1)
    features[:, :, 1] = y[pred] / (h - 1)
    features[:, :, 2] = x[prey] / (w - 1)
    features[:, :, 3] = y[prey] / (h - 1)
    features[:, :, 4] = (np.arange(hor) / max(hor - 1, 1))[:, None]

    rho = np.zeros(s_count)
    rho[:per_step] = 1.0 / per_step
    return GameSpec(next_states.reshape(s_count, 5, 5, 1), np.ones((s_count, 5, 5, 1)),
                    reward1.reshape(s_count, 5, 5), 1.0, rho,
                    features.reshape(s_count, 5))


# env -> (parameters, constructor, config key -> (field, int | float), config eval_every or None)
ENVS = {
    "rps": (RpsParams, make_rps, {"rps_n": ("n", int)}, None),
    "grid_pursuit": (GridPursuitParams, make_grid_pursuit,
                     {"grid_width": ("width", int), "grid_height": ("height", int),
                      "grid_horizon": ("horizon", int), "capture_reward": ("capture_reward", float)},
                     1000),  # coarser evaluation suits the larger game
}


def env_params(name: str, flat: dict) -> RpsParams | GridPursuitParams:
    """The parameters of environment ``name`` from flat config keys.

    A key left out keeps its field's default. A key of another environment,
    a missing required key, or any out-of-range value raises
    :class:`ConfigError` listing them all.
    """
    if name not in ENVS:
        raise ValueError(f"unknown environment '{name}' (expected {' or '.join(ENVS)})")
    cls, _, keys, _ = ENVS[name]
    required = {f.name for f in fields(cls) if f.default is MISSING}
    problems = [f"key '{key}' does not apply to env {name}" for key in flat if key not in keys]
    missing = [f"env {name} requires {key}" for key, (field, _) in keys.items()
               if field in required and key not in flat]
    problems += missing
    if not missing:
        try:
            params = cls(**{field: flat[key] for key, (field, _) in keys.items() if key in flat})
        except ConfigError as exc:
            problems += exc.problems
    if problems:
        raise ConfigError(f"invalid {name} parameters", problems)
    return params


def build_env(name: str, params: dict) -> GameSpec:
    """Construct a named environment from flat config parameters."""
    built = env_params(name, params)  # an unknown name raises here
    return ENVS[name][1](built)
