"""The benchmark's three workloads.

Each workload builds its inputs in ``setup`` (from the benchmark seed only)
and splits one round of operations into timed ``units``; ``collect`` gathers
a round's outputs and ``check`` judges them against ``reference``, which
never calls the package's solvers. The package is reached through its
modules at call time (``evaluation.solve_ne``, not an imported name) so that
the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import astuple, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from subgamelab import cli, envs, evaluation, game, harness, matrix_game

CONVERGED = 1e-2  # q_error threshold of every training run here
EXPL_FLOOR = -1e-9  # exploitability is never negative beyond rounding


@dataclass
class RoundOutput:
    raw: object  # what the package returned, read by check()
    work: float  # samples (training) or states (oracles) done in the round


@dataclass
class Verdict:
    """Checks of one round: a failure reason (or None) per operation."""

    reasons: list[str | None]
    problems: list[str] = field(default_factory=list)  # not tied to one operation
    known_fault: str | None = None  # reasons starting with this are the named solver fault
    samples_to_converge: float | None = None


def _first_converged(rows) -> int | None:
    for row in rows:
        if row.q_error < CONVERGED:
            return row.samples_consumed
    return None


def _seeded_order(seed: int, items: list) -> list:
    rng = np.random.default_rng([seed, 0xB3])
    return [items[i] for i in rng.permutation(len(items))]


# ---------------------------------------------------------------------------


class GridSacl:
    """Criterion-7 grid pursuit under SACL, run through ``subgamelab train``.

    The training seeds are fixed so that trajectories, and with them
    ``samples_to_converge``, repeat exactly; the benchmark seed sets the
    order in which they run.
    """

    name = "grid-sacl"
    setup_runs = 5
    train_seeds = (0, 1)
    params = {"grid_width": 3, "grid_height": 3, "grid_horizon": 4}
    budget = 300_000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        self.game = envs.build_env("grid_pursuit", self.params)
        self.oracle = evaluation.solve_ne(self.game)
        self.runs = []  # (config, csv) per training seed, in run order
        for seed in _seeded_order(self.seed, list(self.train_seeds)):
            lines = [f"{k} = {v}" for k, v in self.params.items()] + [
                "env = grid_pursuit", "method = sacl", "variant = full", "p = 0.7",
                "capacity_k = 64", "episodes_per_epoch = 8", "lr = 1.0",
                "lr_decay = none", "epsilon = 1.0", f"sample_budget = {self.budget}",
                "eval_every = 2000", f"convergence_threshold = {CONVERGED}",
                f"seeds = {seed}"]
            config = self.workdir / f"grid-sacl-{seed}.cfg"
            config.write_text("\n".join(lines) + "\n")
            self.runs.append((config, self.workdir / f"grid-sacl-{seed}.csv"))

    def units(self) -> list:
        return [partial(cli.main, ["train", "--config", str(config), "--out", str(out)])
                for config, out in self.runs]

    work_units = None  # every unit trains

    def collect(self, raws: list) -> RoundOutput:
        per_run = [_read_train_csv(out.read_text()) for _, out in self.runs]
        return RoundOutput([r for rows in per_run for r in rows],
                           sum(_samples(rows) for rows in per_run))

    @staticmethod
    def digest(out: RoundOutput) -> str:
        return _fingerprint(*(astuple(r)[:-1] for r in out.raw))  # wall_clock aside

    def check(self, out: RoundOutput) -> Verdict:
        problems = []
        gap = _grid_gap(self.game, self.oracle.v_star[0], self.oracle.q_star[0],
                        **self.params, capture_reward=1.0)
        if gap > 1e-9:
            problems.append(f"solve_ne on grid 3x3x4 is {gap:.3g} off the tree recursion")
        reasons, firsts = [], []
        for seed in self.train_seeds:
            rows = [r for r in out.raw if r.seed == seed]
            first = _first_converged(rows)
            reasons.append(_run_problem(rows, first, self.budget, f"seed {seed}"))
            firsts.append(first)
        done = [f for f in firsts if f is not None]
        return Verdict(reasons, problems,
                       samples_to_converge=float(np.mean(done)) if done else None)


class RpsSweep:
    """The samples-to-converge sweep on iterated RPS, n = 1..6.

    Seeds 0..9 are the ones the acceptance suite uses; the growth and
    linear-bound properties checked here are statements about that set.
    The benchmark seed sets the order of the (n, method) pairs and of the
    seeds inside each.
    """

    name = "rps-sweep"
    setup_runs = 5
    n_values = range(1, 7)
    methods = ("self_play", "sacl", "full_access_order")
    train_seeds = tuple(range(10))

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.start_values = {}
        for n in self.n_values:
            rps = envs.build_env("rps", {"rps_n": n})
            self.start_values[n] = float(evaluation.solve_ne(rps).v_star[0, 0])
        pairs = _seeded_order(self.seed, [(n, m) for n in self.n_values
                                          for m in self.methods])
        self.configs = [
            harness.fig2_run_config(n, m, tuple(_seeded_order(self.seed + n,
                                                              list(self.train_seeds))))
            for n, m in pairs]

    def units(self) -> list:
        return [partial(harness.run_experiment, cfg) for cfg in self.configs]

    work_units = None  # every unit trains

    def collect(self, records: list) -> RoundOutput:
        return RoundOutput(records, sum(_samples(rec.rows) for rec in records))

    @staticmethod
    def digest(out: RoundOutput) -> str:
        return _fingerprint(*(astuple(r)[:-1] for rec in out.raw for r in rec.rows))

    def check(self, out: RoundOutput) -> Verdict:
        problems = []
        for n, value in self.start_values.items():
            if abs(value - 3.0 ** -n) > 1e-12:
                problems.append(f"solve_ne on rps{n}: v*(0) = {value!r}, want 3^-{n}")
        reasons, means, firsts_all = [], {}, []
        for cfg, rec in zip(self.configs, out.raw):
            n = cfg.env_params["rps_n"]
            firsts = []
            for seed in self.train_seeds:
                rows = [r for r in rec.rows if r.seed == seed]
                first = _first_converged(rows)
                reasons.append(_run_problem(rows, first, cfg.sample_budget,
                                            f"rps{n} {cfg.method} seed {seed}"))
                firsts.append(first)
            done = [f for f in firsts if f is not None]
            firsts_all += done
            means[(n, cfg.method)] = float(np.mean(done)) if done else float("nan")
        ratios = [means[(n, "self_play")] / means[(n - 1, "self_play")] for n in range(3, 7)]
        growth = float(np.prod(ratios)) ** (1.0 / len(ratios))
        if not growth >= 2.0:
            problems.append(f"self-play growth factor {growth:.3f} over n=3..6, want >= 2")
        for method in ("sacl", "full_access_order"):
            c = max(means[(n, method)] / n for n in self.n_values)
            if not c <= 500.0:
                problems.append(f"{method} curriculum constant c = {c:.1f}, want <= 500")
        return Verdict(reasons, problems, samples_to_converge=float(np.mean(firsts_all)))


class Oracles:
    """Exact oracles with no learning: large grid, cyclic games, matrices.

    The matrices at payoff scale 1e-8 and 1e8 come from the fixed seed 7, not
    from the benchmark seed: the ones in ``known_faults`` fail every time
    through the solver's absolute tolerance, and they stay in the batch as
    counted failures until the solver is mended. Any other failing matrix,
    or a known one whose error is not finite and below ``fault_cap``, is an
    unexpected failure.
    """

    name = "oracles"
    setup_runs = 3
    grid = {"grid_width": 6, "grid_height": 6, "grid_horizon": 20, "capture_reward": 1.0}
    # (states, actions) per random cyclic game; value iteration's sweep count
    # is a property of each game, so eight games average it out
    cyclic = ((25, 4), (25, 5)) * 4
    fault = "matrix_game.solve absolute tolerance"
    # (scale, index into the seed-7 batch) of the matrices the fault hits;
    # their errors are 1.1e-4 to 5.1e-3 x scale
    known_faults = {*((1e-8, i) for i in (29, 92, 118, 159, 169, 214, 252, 283, 299)),
                    *((1e8, i) for i in (5, 59, 71, 85, 248))}
    fault_cap = 1e-2  # x scale

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0x0C])
        self.cyclic_arrays = [_random_cyclic(rng, s, a) for s, a in self.cyclic]
        self.games = [envs.build_env("grid_pursuit", self.grid)]
        self.games += [game.GameSpec(*arrays) for arrays in self.cyclic_arrays]
        # (matrix, scale, index of a seed-7 matrix or None)
        self.matrices = [(a, 10.0 ** int(rng.integers(-4, 5)), None)
                         for a in _random_matrices(rng, 300)]
        fixed = _random_matrices(np.random.default_rng(7), 300)
        self.matrices += [(a, scale, i) for scale in (1e-8, 1e8)
                          for i, a in enumerate(fixed)]
        self.scaled = [a * scale for a, scale, _ in self.matrices]

    def units(self) -> list:
        return [partial(_solve_game, g) for g in self.games] + [self._solve_matrices]

    @property
    def work_units(self) -> int:
        return len(self.games)  # the game units; the matrix batch is not counted in states

    def _solve_matrices(self) -> list[float]:
        return [matrix_game.solve(m).value for m in self.scaled]

    def collect(self, raws: list) -> RoundOutput:
        states = sum(g.state_count for g in self.games)
        return RoundOutput((raws[:-1], raws[-1]), states)

    @staticmethod
    def digest(out: RoundOutput) -> str:
        games, values = out.raw
        return _fingerprint(*(part for ne, e, m in games for part in (ne.v_star, ne.q_star, e, m)),
                            *values)

    def check(self, out: RoundOutput) -> Verdict:
        from reference import bellman_gaps, lp_value

        games, values = out.raw
        grid, (ne, _, _) = self.games[0], games[0]
        gap = _grid_gap(grid, ne.v_star[0], ne.q_star[0], **self.grid)
        reasons = [_game_problem("grid 6x6x20", games[0], gap,
                                 float(grid.initial_dist @ ne.v_star[0]), 1e-9)]
        for (s, a), arrays, result in zip(self.cyclic, self.cyclic_arrays, games[1:]):
            ns, probs, r1, gamma, rho, _ = arrays
            v = result[0].v_star[0]
            reasons.append(_game_problem(f"cyclic S={s} A={a}", result,
                                         bellman_gaps(ns, probs, r1, gamma, v).max(),
                                         float(rho @ v), 1e-7))
        for (a, scale, index), value in zip(self.matrices, values):
            err = abs(value - scale * lp_value(a)) / scale
            if err <= 1e-6:
                reasons.append(None)
                continue
            reason = (f"{a.shape[0]}x{a.shape[1]} matrix at scale {scale:g} "
                      f"is {err:.2g} x scale off HiGHS")
            if (scale, index) in self.known_faults and err < self.fault_cap:
                reason = f"{self.fault}: seed-7 matrix {index}, {reason}"
            reasons.append(reason)
        return Verdict(reasons, known_fault=self.fault)


WORKLOADS = {wl.name: wl for wl in (GridSacl, RpsSweep, Oracles)}


# ---------------------------------------------------------------------------


def _fingerprint(*parts) -> str:
    """Hash of arrays' bytes and other values' reprs, to compare rounds."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def _solve_game(g) -> tuple:
    ne = evaluation.solve_ne(g)
    expl = evaluation.exploitability(g, ne.ne_policy).total
    mv = evaluation.matchup_value(g, ne.ne_policy.p1, ne.ne_policy.p2)
    return ne, expl, mv


def _read_train_csv(text: str) -> list[harness.RecordRow]:
    return [harness.RecordRow(int(r["seed"]), r["method"], r["env"],
                              int(r["samples_consumed"]), float(r["q_error"]),
                              float(r["exploitability"]), int(r["buffer_size"]),
                              float(r["wall_clock"]))
            for r in csv.DictReader(io.StringIO(text))]


def _samples(rows) -> int:
    """Samples consumed by the runs of one experiment: each seed's last row."""
    return sum({r.seed: r.samples_consumed for r in rows}.values())


def _run_problem(rows, first, budget: int, label: str) -> str | None:
    if not rows:
        return f"{label}: no rows"
    if first is None:
        return f"{label}: not converged within {budget} samples"
    low = min(r.exploitability for r in rows)
    if low < EXPL_FLOOR:
        return f"{label}: exploitability {low:.3g} < 0"
    return None


def _grid_gap(g, v, q, *, grid_width, grid_height, grid_horizon,
              capture_reward) -> float:
    """Largest gap of solve_ne's player-1 values and Q to the tree recursion.

    Every value of the grids here is 0 (the prey can always step clear), so
    the Q tables, whose capture entries pay the reward, carry the check.
    """
    from reference import grid_pursuit, grid_state_index

    values, stages = grid_pursuit(grid_width, grid_height, grid_horizon, capture_reward)
    at = grid_state_index(g.features, grid_width, grid_height, grid_horizon)
    return max(float(np.abs(v - values[at]).max()), float(np.abs(q - stages[at]).max()))


def _game_problem(label, result, value_gap: float, start_value: float,
                  tol: float) -> str | None:
    _, expl, mv = result
    if value_gap > tol:
        return f"{label}: values are {value_gap:.3g} off the reference"
    if not EXPL_FLOOR <= expl <= 1e-6:
        return f"{label}: NE exploitability {expl:.3g} outside [-1e-9, 1e-6]"
    if abs(mv - start_value) > 10 * tol:
        return f"{label}: matchup value {mv!r} != rho.v* {start_value!r}"
    return None


def _random_cyclic(rng, states: int, actions: int):
    """Arrays of a random discounted stochastic game with cycles.

    Each (state, action pair) has three successors drawn uniformly from all
    states (never terminal), so the game is not topologically ordered and
    value iteration is needed; the discount is 0.9.
    """
    support, gamma = 3, 0.9
    shape = (states, actions, actions)
    next_states = rng.integers(0, states, size=shape + (support,))
    next_probs = rng.dirichlet(np.ones(support), size=shape)
    reward1 = rng.uniform(-1.0, 1.0, size=shape)
    rho = np.full(states, 1.0 / states)
    features = rng.random((states, 2))
    return next_states, next_probs, reward1, gamma, rho, features


def _random_matrices(rng, count: int) -> list[np.ndarray]:
    out = []
    for _ in range(count):
        m, n = rng.integers(2, 9, size=2)
        out.append(rng.uniform(-1.0, 1.0, size=(m, n)))
    return out
