"""Built-in game constructors: iterated rock-paper-scissors and grid pursuit.

Both environments emit states in timestep order, so every transition moves
to a strictly larger index and backward sweeps are exact.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from itertools import product

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


@dataclass(frozen=True)
class RpsParams:
    """Rounds of the iterated game; tabular oracles stay practical to n=12.

    A bad value raises :class:`ConfigError` naming the config key ``rps_n``.
    """

    n: int

    def __post_init__(self):
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
    return GameSpec(next_states, next_probs, reward1, 1.0, rho, features, horizon=n)


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
            if value < least:
                problems.append(f"{key} must be >= {least}, got {value}")
        if not math.isfinite(self.capture_reward):
            problems.append(f"capture_reward must be finite, got {self.capture_reward}")
        states = (self.width * self.height) ** 2 * self.horizon
        if not problems and states > 100_000:
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
    """
    w, h, hor = params.width, params.height, params.horizon
    cells = w * h
    pairs = [(p, e) for p, e in product(range(cells), repeat=2) if p != e]
    pair_index = {pe: i for i, pe in enumerate(pairs)}
    per_step = len(pairs)
    s_count = per_step * hor
    terminal = s_count

    def clamp_move(cell: int, move: int) -> int:
        x, y = cell % w, cell // w
        dx, dy = MOVES[move]
        nx = min(max(x + dx, 0), w - 1)
        ny = min(max(y + dy, 0), h - 1)
        return ny * w + nx

    next_states = np.full((s_count, 5, 5, 1), terminal, dtype=np.int64)
    next_probs = np.ones((s_count, 5, 5, 1))
    reward1 = np.zeros((s_count, 5, 5))
    features = np.zeros((s_count, 5))
    for t in range(hor):
        for (p, e), pi in pair_index.items():
            s = t * per_step + pi
            features[s] = (
                (p % w) / (w - 1),
                (p // w) / (h - 1),
                (e % w) / (w - 1),
                (e // w) / (h - 1),
                t / (hor - 1) if hor > 1 else 0.0,
            )
            for a1 in range(5):
                p_new = clamp_move(p, a1)
                for a2 in range(5):
                    e_new = clamp_move(e, a2)
                    captured = p_new == e_new or (p_new == e and e_new == p)
                    if captured:
                        reward1[s, a1, a2] = params.capture_reward
                    elif t + 1 < hor:
                        next_states[s, a1, a2, 0] = (t + 1) * per_step + pair_index[(p_new, e_new)]
    rho = np.zeros(s_count)
    rho[:per_step] = 1.0 / per_step
    return GameSpec(next_states, next_probs, reward1, 1.0, rho, features, horizon=hor)


# flat config key -> parameter field, per environment
ENV_KEYS = {
    "rps": (RpsParams, {"rps_n": "n"}),
    "grid_pursuit": (GridPursuitParams, {"grid_width": "width", "grid_height": "height",
                                         "grid_horizon": "horizon",
                                         "capture_reward": "capture_reward"}),
}


def env_params(name: str, flat: dict) -> RpsParams | GridPursuitParams:
    """The parameters of environment ``name`` from flat config keys.

    A key left out keeps its field's default; a missing required key, or
    any out-of-range value, raises :class:`ConfigError` listing them all.
    """
    if name not in ENV_KEYS:
        raise ValueError(f"unknown environment '{name}' (expected rps or grid_pursuit)")
    cls, keys = ENV_KEYS[name]
    required = {f.name for f in fields(cls) if f.default is MISSING}
    missing = [f"env {name} requires {key}" for key, field in keys.items()
               if field in required and key not in flat]
    if missing:
        raise ConfigError(f"invalid {name} parameters", missing)
    return cls(**{field: flat[key] for key, field in keys.items() if key in flat})


def build_env(name: str, params: dict) -> GameSpec:
    """Construct a named environment from flat config parameters."""
    built = env_params(name, params)
    if isinstance(built, RpsParams):
        return make_rps(built)
    return make_grid_pursuit(built)
