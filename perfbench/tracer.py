"""Layer tracer: wraps the package's public functions from outside ``src/``.

Each wrapped function becomes a span. A span's self time is its duration
minus the time covered by the spans it caused, so the self times of all spans
add up to the time spent inside the outermost ones. Statistics are kept in
memory and read once the traced rounds have ended.

A name is patched in every ``subgamelab`` module that bound it, so
``solve`` is traced whether ``learner``, ``evaluation`` or ``cli`` calls it.
Work the tracer adds after a span closes (the saddle/simplex test on the
input matrix), and time handed to ``exclude``, is charged to no span; it
shows in ``trace.remainder_s``.

Stage-cache lookups (``QTable.stage_solution``) are millions of cheap calls
under ``values_from_q`` and ``minimax_q_update``; a wrapper on them would put
its own cost into those spans' self times. They are counted apart, with no
span installed, by ``install_counter``, in a round whose times are not used.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, fields, replace

import numpy as np

PACKAGE = "subgamelab"

# metric prefix -> (module, attribute) pairs; several pairs share one prefix
TIMED = {
    "curriculum.fps_prune": [("curriculum", "fps_prune")],
    "curriculum.compute_weight": [("curriculum", "compute_weight")],
    "curriculum.sample_subgame": [("curriculum", "sample_subgame")],
    "curriculum.buffer_arrays": [("curriculum", "WeightedStateBuffer.arrays")],
    "curriculum.buffer_insert": [("curriculum", "buffer_insert")],
    "curriculum.curriculum_epoch": [("curriculum", "curriculum_epoch")],
    "learner.values_from_q": [("learner", "values_from_q")],
    "learner.exploration_policy": [("learner", "exploration_policy")],
    "learner.minimax_q_update": [("learner", "minimax_q_update")],
    "learner.q_error": [("learner", "q_error")],
    "game.rollout": [("game", "rollout")],
    "matrix_game.solve": [("matrix_game", "solve")],
    "evaluation.solve_ne": [("evaluation", "solve_ne")],
    "evaluation.best_response": [("evaluation", "best_response")],
    "evaluation.matchup_value": [("evaluation", "matchup_value")],
    "harness.run_experiment": [("harness", "run_experiment")],
    "envs.build": [("envs", "build_env"), ("envs", "make_grid_pursuit"),
                   ("envs", "make_rps")],
    "cli.main": [("cli", "main")],
}


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    # layer-specific counts
    items: int = 0  # rollout steps, update samples, cache lookups
    misses: int = 0  # solves under a cache lookup
    sweeps: float = 0.0  # stage solves under solve_ne, per state
    saddle_calls: int = 0
    saddle_s: float = 0.0

    def add(self, other: "Stat") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class Tracer:
    """Installs and removes the span wrappers; owns their statistics."""

    def __init__(self):
        self.stats = {name: Stat() for name in TIMED}
        self.lookups = Stat()  # stage-cache lookups (items) and solves under them
        self._open = [0.0]  # child-time accumulators of the open spans
        self._undo: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _replace(self, original, wrapper) -> None:
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, targets in TIMED.items():
            for module, attr in targets:
                mod = importlib.import_module(f"{PACKAGE}.{module}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    original = vars(cls)[meth]
                    self._undo.append((cls, meth, original))
                    setattr(cls, meth, self._span(name, original))
                else:
                    original = getattr(mod, attr)
                    self._replace(original, self._wrap(name, original))

    def install_counter(self) -> None:
        """Count stage-cache lookups and the solves under them, and nothing else."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        st = self.lookups
        solves = [0]
        solve = importlib.import_module(f"{PACKAGE}.matrix_game").solve

        def counted_solve(*args, **kwargs):
            solves[0] += 1
            return solve(*args, **kwargs)

        self._replace(solve, counted_solve)
        qtable = importlib.import_module(f"{PACKAGE}.learner").QTable
        lookup = vars(qtable)["stage_solution"]

        def stage_solution(*args, **kwargs):
            before = solves[0]
            result = lookup(*args, **kwargs)
            st.items += 1
            st.misses += solves[0] - before
            return result

        self._undo.append((qtable, "stage_solution", lookup))
        qtable.stage_solution = stage_solution

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def exclude(self, seconds: float) -> None:
        """Charge ``seconds`` spent inside the open span to no span."""
        self._open[-1] += seconds

    def take(self) -> dict[str, Stat]:
        """Return a copy of the statistics gathered so far and zero them."""
        out = {name: replace(st) for name, st in self.stats.items()}
        for st in self.stats.values():
            for f in fields(st):
                setattr(st, f.name, type(getattr(st, f.name))())
        return out

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn):
        if name == "matrix_game.solve":
            return self._span(name, fn, after=_classify_solve)
        if name == "game.rollout":
            return self._span(name, fn, after=lambda st, a, r, s: _count(st, len(r)))
        if name == "learner.minimax_q_update":
            return self._span(name, fn, after=lambda st, a, r, s: _count(st, len(a[1])))
        if name == "evaluation.solve_ne":
            return self._sweeps(self._span(name, fn))
        return self._span(name, fn)

    def _span(self, name, fn, after=None):
        st = self.stats[name]
        open_spans = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = open_spans.pop()
                open_spans[-1] += elapsed
            own = elapsed - inner
            st.calls += 1
            st.self_s += own
            if after is not None:
                t1 = clock()
                after(st, args, result, own)
                open_spans[-1] += clock() - t1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _sweeps(self, span):
        st = self.stats["evaluation.solve_ne"]
        solves = self.stats["matrix_game.solve"]

        def solve_ne(game, *args, **kwargs):
            before = solves.calls
            result = span(game, *args, **kwargs)
            st.sweeps += (solves.calls - before) / game.state_count
            return result

        solve_ne.__wrapped__ = span
        return solve_ne


def _count(st: Stat, n: int) -> None:
    st.items += n


def _classify_solve(st: Stat, args, result, own: float) -> None:
    # the same pure-saddle test solve() applies first
    a = np.asarray(args[0], dtype=np.float64)
    if a.min(axis=1).max() == a.max(axis=0).min():
        st.saddle_calls += 1
        st.saddle_s += own


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    *[(f"curriculum.{f}.{stat}", unit, "lower")
      for f in ("fps_prune", "compute_weight", "sample_subgame", "buffer_arrays")
      for stat, unit in (("calls", "count"), ("self_s", "s"))],
    ("curriculum.buffer_insert.self_s", "s", "lower"),
    ("curriculum.curriculum_epoch.calls", "count", "lower"),
    ("curriculum.curriculum_epoch.self_s", "s", "lower"),
    ("learner.values_from_q.calls", "count", "lower"),
    ("learner.values_from_q.self_s", "s", "lower"),
    ("learner.exploration_policy.calls", "count", "lower"),
    ("learner.exploration_policy.self_s", "s", "lower"),
    ("learner.stage_solution.lookups", "count", "lower"),
    ("learner.stage_solution.hit_ratio", "ratio", "higher"),
    ("game.rollout.calls", "count", "lower"),
    ("game.rollout.steps", "count", "lower"),
    ("game.rollout.self_s", "s", "lower"),
    ("game.rollout.us_per_step", "us", "lower"),
    ("learner.minimax_q_update.calls", "count", "lower"),
    ("learner.minimax_q_update.self_s", "s", "lower"),
    ("learner.minimax_q_update.us_per_sample", "us", "lower"),
    ("matrix_game.solve.calls", "count", "lower"),
    ("matrix_game.solve.saddle_calls", "count", "lower"),
    ("matrix_game.solve.simplex_calls", "count", "lower"),
    ("matrix_game.solve.saddle_self_s", "s", "lower"),
    ("matrix_game.solve.simplex_self_s", "s", "lower"),
    ("matrix_game.solve.saddle_us", "us", "lower"),
    ("matrix_game.solve.simplex_us", "us", "lower"),
    ("evaluation.solve_ne.calls", "count", "lower"),
    ("evaluation.solve_ne.self_s", "s", "lower"),
    ("evaluation.solve_ne.sweeps", "count", "lower"),
    ("evaluation.best_response.calls", "count", "lower"),
    ("evaluation.best_response.self_s", "s", "lower"),
    ("evaluation.matchup_value.self_s", "s", "lower"),
    ("harness.run_experiment.calls", "count", "lower"),
    ("harness.run_experiment.self_s", "s", "lower"),
    ("learner.q_error.self_s", "s", "lower"),
    ("envs.build.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.remainder_s", "s", "lower"),
]


def _per(total: float, count: float) -> float:
    """Microseconds per item; 0 when there are none."""
    return 1e6 * total / count if count else 0.0


def layer_metrics(stats: dict[str, Stat], lookups: Stat) -> dict[str, float]:
    """Layer metrics from the statistics of one set-up plus one round.

    ``lookups`` holds the stage-cache counts of one counted round.

    Returns every ``PER_LAYER`` name except the ``trace.*`` ones, which the
    runner measures around the rounds.
    """
    out: dict[str, float] = {}
    for name, st in stats.items():
        out[f"{name}.calls"] = st.calls
        out[f"{name}.self_s"] = st.self_s
    ro = stats["game.rollout"]
    out["game.rollout.steps"] = ro.items
    out["game.rollout.us_per_step"] = _per(ro.self_s, ro.items)
    up = stats["learner.minimax_q_update"]
    out["learner.minimax_q_update.us_per_sample"] = _per(up.self_s, up.items)
    out["learner.stage_solution.lookups"] = lookups.items
    out["learner.stage_solution.hit_ratio"] = (
        1.0 - lookups.misses / lookups.items if lookups.items else 0.0)
    so = stats["matrix_game.solve"]
    simplex_calls = so.calls - so.saddle_calls
    simplex_s = so.self_s - so.saddle_s
    out["matrix_game.solve.saddle_calls"] = so.saddle_calls
    out["matrix_game.solve.simplex_calls"] = simplex_calls
    out["matrix_game.solve.saddle_self_s"] = so.saddle_s
    out["matrix_game.solve.simplex_self_s"] = simplex_s
    out["matrix_game.solve.saddle_us"] = _per(so.saddle_s, so.saddle_calls)
    out["matrix_game.solve.simplex_us"] = _per(simplex_s, simplex_calls)
    out["evaluation.solve_ne.sweeps"] = stats["evaluation.solve_ne"].sweeps
    return {name: float(out[name]) for name, _, _ in PER_LAYER
            if not name.startswith("trace.")}


def combine(setup: dict[str, Stat], rounds: dict[str, Stat], k: int) -> dict[str, Stat]:
    """One set-up's statistics plus the mean of ``k`` rounds' statistics."""
    out = {}
    for name, st in setup.items():
        r = rounds[name]
        total = replace(st)
        total.add(Stat(**{f.name: getattr(r, f.name) / k for f in fields(r)}))
        out[name] = total
    return out


def self_total(stats: dict[str, Stat]) -> float:
    """Sum of self times; equals the time spent inside outermost spans."""
    return sum(st.self_s for st in stats.values())
