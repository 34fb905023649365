"""Experiment orchestration: seeded runs, convergence curves, CSV emission.

Three training methods share one training loop, ``curriculum_epoch``, and
one evaluator; they differ only in where each episode starts:

* ``self_play``      - from the game's own initial distribution;
* ``sacl``           - from the weighted buffer of visited states with
  probability p, otherwise from the initial distribution;
* ``full_access_order`` - a reverse curriculum with oracle access (Florensa
  et al. 2017): from each state in reverse index order, advancing past a
  state once its own Q-entries match the oracle's, which realizes the
  easiest-subgame-first schedule on the iterated game.

Records are reproducible byte for byte given the same config (wall-clock
column aside).
"""

from __future__ import annotations

import io
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .curriculum import (MetricConfig, SamplerConfig, WeightedStateBuffer,
                         curriculum_epoch)
from .envs import (ENVS, ConfigError, RpsParams, _integer_problem, _is_integer,
                   build_env, env_params, make_rps)
from .evaluation import NESolution, exploitability, solve_ne
from .game import rollout, uniform_policy
from .learner import Learner, LearnerConfig, q_error

METHODS = ("sacl", "self_play", "full_access_order")

RECORD_COLUMNS = ("seed", "method", "env", "samples_consumed", "q_error",
                  "exploitability", "buffer_size", "wall_clock")


@dataclass(frozen=True)
class RecordRow:
    seed: int
    method: str
    env: str
    samples_consumed: int
    q_error: float
    exploitability: float
    buffer_size: int
    wall_clock: float


@dataclass
class ExperimentRecord:
    """Time series of evaluation rows across one or more seeded runs."""

    rows: list[RecordRow] = field(default_factory=list)

    def filter_seed(self, seed: int) -> "ExperimentRecord":
        return ExperimentRecord([r for r in self.rows if r.seed == seed])

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(",".join(RECORD_COLUMNS) + "\n")
        for r in self.rows:
            out.write(f"{r.seed},{r.method},{r.env},{r.samples_consumed},"
                      f"{r.q_error!r},{r.exploitability!r},{r.buffer_size},"
                      f"{r.wall_clock!r}\n")
        return out.getvalue()


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce an experiment."""

    env: str
    env_params: dict
    method: str
    learner: LearnerConfig = LearnerConfig()
    metric: MetricConfig = MetricConfig()
    sampler: SamplerConfig = SamplerConfig()
    capacity_k: int = 64
    episodes_per_epoch: int = 8
    seeds: tuple[int, ...] = (0,)
    sample_budget: int = 10_000
    eval_every: int = 100
    convergence_threshold: float = 1e-2

    def __post_init__(self):
        errors = []
        if self.env not in ENVS:
            errors.append(f"env must be {' or '.join(ENVS)}, got '{self.env}'")
        if self.method not in METHODS:
            errors.append(f"method must be one of {METHODS}, got '{self.method}'")
        errors += filter(None, (_integer_problem(name, getattr(self, name), 1) for name in
                                ("capacity_k", "episodes_per_epoch", "sample_budget", "eval_every")))
        not_integers = [seed for seed in self.seeds if not _is_integer(seed)]
        if not self.seeds:
            errors.append("at least one seed is required")
        elif not_integers:
            errors.append(f"seeds must be integers, got {not_integers[0]!r}")
        else:
            if min(self.seeds) < 0:
                errors.append(f"seeds must be non-negative, got {min(self.seeds)}")
            repeated = sorted({seed for seed in self.seeds if self.seeds.count(seed) > 1})
            if repeated:
                errors.append(f"seeds must be distinct; repeated: {', '.join(map(str, repeated))}")
        if not (math.isfinite(self.convergence_threshold) and self.convergence_threshold > 0):
            errors.append("convergence_threshold must be finite and positive")
        if errors:
            raise ConfigError("invalid run config", errors)


class _Evaluator:
    """Appends q-error / exploitability rows on the eval_every sample grid."""

    def __init__(self, cfg: RunConfig, oracle: NESolution, learner: Learner,
                 buf, seed: int, rows: list[RecordRow]):
        self.cfg = cfg
        self.oracle = oracle
        self.learner = learner
        self.buf = buf
        self.seed = seed
        self.rows = rows
        self.samples = 0
        self.next_mark = cfg.eval_every
        self.converged = False
        self.start = time.perf_counter()
        # the greedy policy last scored and its exploitability; the learner
        # hands back the same object while its strategies are unchanged
        self._scored = None
        self._exploitability = 0.0

    @property
    def should_stop(self) -> bool:
        return self.converged or self.samples >= self.cfg.sample_budget

    def _record(self) -> None:
        err = q_error(self.learner.qtable, self.oracle)
        policy = self.learner.greedy_policy()
        if policy is not self._scored:
            self._scored = policy
            self._exploitability = exploitability(self.learner.game, policy).total
        if err < self.cfg.convergence_threshold:
            self.converged = True
        self.rows.append(RecordRow(
            self.seed, self.cfg.method, self.cfg.env, self.samples, err,
            self._exploitability, len(self.buf) if self.buf is not None else 0,
            time.perf_counter() - self.start))

    def after_episode(self, n_samples: int) -> bool:
        """Count an episode's samples and record any row due; True once stopped."""
        self.samples += n_samples
        if self.samples >= self.next_mark and not self.converged:
            self._record()
            # rows carry true sample counts, so one crossing per episode
            step = self.cfg.eval_every
            self.next_mark = (self.samples // step + 1) * step
        elif self.should_stop:
            self._record()  # the final row, unless this episode already wrote one
        return self.should_stop


def _reverse_starts(learner: Learner, oracle: NESolution, threshold: float) -> Iterator[int]:
    """Start states from the top index down, oracle-checked after each episode.

    Yields the current state, then, once that episode has trained, moves past
    every state whose Q entries of both players lie within ``threshold`` of
    the oracle's; once every state is learned it yields state 0.
    """
    state = learner.game.state_count - 1
    while True:
        yield max(state, 0)
        while state >= 0 and np.abs(learner.qtable.q[:, state]
                                    - oracle.q_star[:, state]).max() < threshold:
            state -= 1


def run_experiment(cfg: RunConfig) -> ExperimentRecord:
    """Run every seed of the configured experiment and collect record rows.

    Each seed trains through :func:`curriculum_epoch` until its sample budget
    is spent or the sup-norm Q error against the exact oracle drops below
    the convergence threshold. The methods differ only in where episodes
    start: ``sacl`` from its weighted buffer, ``self_play`` from the game's
    own distribution, ``full_access_order`` from :func:`_reverse_starts`.
    """
    game = build_env(cfg.env, cfg.env_params)
    oracle = solve_ne(game)
    # an acyclic game ends within state_count steps, so the cap binds only on a cyclic one
    cap = max(1000, 10 * game.state_count)
    n_learners = cfg.metric.ensemble_size if cfg.method == "sacl" else 1
    record = ExperimentRecord()
    for seed in cfg.seeds:
        learners = [Learner(game, cfg.learner, np.random.default_rng([seed, m]))
                    for m in range(n_learners)]
        buf = WeightedStateBuffer(cfg.capacity_k) if cfg.method == "sacl" else None
        starts = (_reverse_starts(learners[0], oracle, cfg.convergence_threshold)
                  if cfg.method == "full_access_order" else None)
        ev = _Evaluator(cfg, oracle, learners[0], buf, seed, record.rows)
        while not ev.should_stop:
            curriculum_epoch(learners, buf, game, cfg.metric, cfg.sampler,
                             cfg.episodes_per_epoch, cap, evaluator=ev, starts=starts)
    return record


def samples_to_converge(record: ExperimentRecord, threshold: float) -> int | None:
    """First sample count at which the recorded Q error crosses the threshold."""
    if not record.rows:
        raise ValueError("record is empty")
    for row in record.rows:
        if row.q_error < threshold:
            return row.samples_consumed
    return None


# ---------------------------------------------------------------------------
# Motivating-example experiments


def fig2_run_config(n: int, method: str, seeds: tuple[int, ...],
                    threshold: float = 1e-2) -> RunConfig:
    """Per-method defaults for the samples-to-convergence sweep.

    Deterministic kernels call for a constant unit learning rate and fully
    uniform exploration. The buffered curriculum uses the uniform metric
    here: with exactly zero-initialized tables the value-change weights stay
    zero until rewards propagate, while uniform weights reproduce the
    spread-over-visited-states resets that make coverage linear in n.
    Budgets are generous; runs stop early at convergence.
    """
    learner = LearnerConfig(lr=1.0, lr_decay=None, epsilon=1.0, batch_size=1)
    if method == "self_play":
        budget = 5_000 + 300 * 3**n
    elif method == "sacl":
        budget = 3_000 + 2_000 * n
    else:
        budget = 2_000 + 500 * n
    return RunConfig(
        env="rps", env_params={"rps_n": n}, method=method, learner=learner,
        metric=MetricConfig(variant="uniform"), sampler=SamplerConfig(p=0.7),
        capacity_k=64, episodes_per_epoch=4, seeds=seeds, sample_budget=budget,
        eval_every=50, convergence_threshold=threshold)


FIG2_COLUMNS = ("n", "method", "mean_samples", "stderr", "seeds", "censored")


def replicate_fig2(n_max: int, seeds: int, threshold: float = 1e-2):
    """Mean samples-to-convergence per (n, method) over seeded runs.

    Returns one dict per (n, method) with the converged-seed mean, its
    standard error, the contributing seed count, the censored count, and the
    per-seed sample counts (None where the budget ran out). Censored seeds
    never enter a mean; they are flagged in the ``censored`` column.
    """
    if not 1 <= n_max <= 10:
        raise ValueError(f"n_max must lie in 1..10, got {n_max}")
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    seed_tuple = tuple(range(seeds))
    out = []
    for n in range(1, n_max + 1):
        for method in ("self_play", "sacl", "full_access_order"):
            cfg = fig2_run_config(n, method, seed_tuple, threshold)
            record = run_experiment(cfg)
            per_seed = [samples_to_converge(record.filter_seed(s), threshold)
                        for s in seed_tuple]
            done = [s for s in per_seed if s is not None]
            censored = len(per_seed) - len(done)
            mean = float(np.mean(done)) if done else float("nan")
            stderr = float(np.std(done, ddof=1) / np.sqrt(len(done))) if len(done) > 1 else 0.0
            out.append({"n": n, "method": method, "mean_samples": mean,
                        "stderr": stderr, "seeds": len(done), "censored": censored,
                        "per_seed": per_seed})
    return out


def fig2_to_csv(rows: list[dict]) -> str:
    out = io.StringIO()
    out.write(",".join(FIG2_COLUMNS) + "\n")
    for r in rows:
        out.write(f"{r['n']},{r['method']},{r['mean_samples']!r},"
                  f"{r['stderr']!r},{r['seeds']},{r['censored']}\n")
    return out.getvalue()


def coverage_experiment(n: int, seeds: int, base_seed: int = 0) -> float:
    """Mean environment steps to visit every state of the iterated game.

    Play is uniformly random; whenever an episode ends the game restarts
    from the newest state discovered so far. Visiting all n states this way
    costs about three steps per new state.
    """
    if n < 2:
        raise ValueError("coverage needs n >= 2")
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    game = make_rps(RpsParams(n))
    policy = uniform_policy(game)
    totals = []
    for s in range(seeds):
        rng = np.random.default_rng([base_seed, s])
        newest = 0
        visited = {0}
        steps = 0
        while len(visited) < n:
            ep = rollout(game, policy, newest, rng, max_steps=n + 1)
            for nxt in ep.next_states:
                steps += 1
                if nxt != game.terminal_index and nxt not in visited:
                    visited.add(nxt)
                    newest = nxt
                if len(visited) == n:
                    break
        totals.append(steps)
    return float(np.mean(totals))


def joint_action_coverage(seeds: int, base_seed: int = 0) -> float:
    """Mean episodes of one-round play until all nine joint actions appear."""
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    game = make_rps(RpsParams(1))
    policy = uniform_policy(game)
    counts = []
    for s in range(seeds):
        rng = np.random.default_rng([base_seed, s])
        seen: set[tuple[int, int]] = set()
        episodes = 0
        while len(seen) < 9:
            ep = rollout(game, policy, 0, rng, max_steps=1)
            episodes += 1
            seen.add((ep.actions1[0], ep.actions2[0]))
        counts.append(episodes)
    return float(np.mean(counts))


# ---------------------------------------------------------------------------
# Flat key=value config files

def _number(kind):
    """Parser of one finite ``kind`` (int or float) value."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise ValueError(f"cannot parse '{text}' as {kind.__name__}") from None
        if not math.isfinite(value):
            raise ValueError(f"must be finite, got '{text}'")
        return value
    return parse


def _lr_decay(text: str) -> str | float | None:
    token = text.lower()
    if token in ("none", "", "visit_count"):
        return token if token == "visit_count" else None
    try:
        return float(token)
    except ValueError:
        raise ValueError("expected none, visit_count, or a float") from None


def _seeds(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        seeds = ()
    if not seeds:
        raise ValueError(f"cannot parse '{text}' as comma-separated integers")
    return seeds


_INT, _FLOAT = _number(int), _number(float)

# key -> (the part it fills, its parser). A part is built from the keys
# given; every key left out keeps the default of that part's dataclass.
_CONFIG_KEYS = {
    "env": ("run", str), "method": ("run", str), "seeds": ("run", _seeds),
    "capacity_k": ("run", _INT), "episodes_per_epoch": ("run", _INT),
    "sample_budget": ("run", _INT), "eval_every": ("run", _INT),
    "convergence_threshold": ("run", _FLOAT),
    **{key: ("env_params", _number(kind)) for _, _, keys, _ in ENVS.values()
       for key, (_, kind) in keys.items()},
    "lr": ("learner", _FLOAT), "lr_decay": ("learner", _lr_decay),
    "epsilon": ("learner", _FLOAT), "batch_size": ("learner", _INT),
    "alpha_bias": ("metric", _FLOAT), "variant": ("metric", str),
    "ensemble_size": ("metric", _INT),
    "p": ("sampler", _FLOAT),
}


def _build(make, kwargs: dict, errors: list[str]):
    """``make(**kwargs)``, or None with its problems appended to ``errors``."""
    try:
        return make(**kwargs)
    except ConfigError as exc:
        errors.extend(exc.problems)
    except ValueError as exc:
        errors.append(str(exc))
    return None


def parse_config(text: str) -> RunConfig:
    """Parse a flat ``key = value`` config into a RunConfig.

    Unknown or repeated keys, bad values, missing required keys and
    out-of-range settings are all collected and reported together.
    """
    raw: dict[str, str] = {}
    line_of: dict[str, int] = {}
    errors: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value'")
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONFIG_KEYS:
            errors.append(f"line {lineno}: unknown key '{key}'")
            continue
        if key in line_of:
            errors.append(f"line {lineno}: key '{key}' repeats line {line_of[key]}")
            continue
        line_of[key] = lineno
        raw[key] = value

    parts: dict[str, dict] = {part: {} for part, _ in _CONFIG_KEYS.values()}
    for key, value in raw.items():
        part, parse = _CONFIG_KEYS[key]
        try:
            parts[part][key] = parse(value)
        except ValueError as exc:
            errors.append(f"key '{key}': {exc}")

    run, flat_env = parts["run"], parts["env_params"]
    for required in ("env", "method"):
        if required not in run:
            errors.append(f"missing required key '{required}'")
    if run.get("env") in ENVS:  # an unknown env is RunConfig's problem
        _build(env_params, {"name": run["env"], "flat": flat_env}, errors)
        if ENVS[run["env"]][3] is not None:
            run.setdefault("eval_every", ENVS[run["env"]][3])

    for part, cls in (("learner", LearnerConfig), ("metric", MetricConfig),
                      ("sampler", SamplerConfig)):
        built = _build(cls, parts[part], errors)
        if built is not None:
            run[part] = built
    cfg = None
    if "env" in run and "method" in run:
        cfg = _build(RunConfig, {**run, "env_params": flat_env}, errors)
    if errors:
        raise ConfigError("config errors", errors)
    return cfg
