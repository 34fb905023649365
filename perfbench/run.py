"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload grid-sacl --seed 0 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/subgamelab``. The process
is single-threaded: BLAS thread pools are pinned to one thread before numpy
loads. Set-up is timed in fresh processes; then the workload repeats whole
rounds of identical operations until ``--seconds`` have passed, and checks
the first round's outputs against independent references and every later
round's outputs against the first. Times are corrected for the host's speed
by ``probe.py``. ``--trace 1`` runs half the time untraced and half with the
layer tracer installed, then one round that only counts stage-cache
lookups, and reports per-layer metrics (in wall seconds) instead of
end-to-end ones. The last line of standard output is the result object; a
copy with the environment is written to ``perfbench/out/``.
"""

import os
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# end-to-end metrics with their units; BENCHMARK.json lists the same
E2E = (("setup_s", "s"), ("run_s", "s"), ("work_per_s", "1/s"), ("peak_rss_mb", "MB"))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("grid-sacl", "rps-sweep", "oracles"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and set up once, then exit (times set-up)")
    return p.parse_args(argv)


def _setup_seconds(args, runs: int) -> tuple[list[float], list[float]]:
    """Wall and reference-speed seconds of fresh processes that only set up."""
    from probe import REFERENCE

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    wall, ref = [], []
    for _ in range(runs):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        wall.append(time.perf_counter() - t0)
        probes = json.loads(done.stdout)
        ref.append((wall[-1] - probes["probe_s"]) * REFERENCE / probes["probe_median"])
    return wall, ref


def _setup_only(wl, speed) -> int:
    """Child side of ``_setup_seconds``: finish set-up, report the probes."""
    wl.setup()
    speed.stop()
    if not speed.samples:
        speed.sample()
    probe_s = [d for _, d in speed.samples]
    print(json.dumps({"probe_s": sum(probe_s), "probe_median": statistics.median(probe_s)}))
    return 0


def _import_package():
    if not (SRC / "subgamelab" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'subgamelab'}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import subgamelab
    if Path(subgamelab.__file__).resolve().parent != SRC / "subgamelab":
        raise SystemExit(f"error: imported subgamelab from {subgamelab.__file__}")


def _rounds(wl, budget: float, speed=None):
    """Whole rounds until ``budget`` seconds have passed; at least one.

    Returns the first round's collected output, every round's fingerprint,
    the wall seconds of each round's units and, given a started ``speed``
    probe, the same at reference speed. Only the first round's output is
    kept, so memory does not grow with the number of rounds.
    """
    first, digests, wall, ref = None, [], [], []
    start = time.perf_counter()
    while not digests or time.perf_counter() - start < budget:
        raws, unit_wall, unit_ref = [], [], []
        for unit in wl.units():
            gc.collect()
            t0 = time.perf_counter()
            raws.append(unit())
            t1 = time.perf_counter()
            unit_wall.append(t1 - t0)
            if speed is not None:
                unit_ref.append(speed.corrected(t0, t1))
        out = wl.collect(raws)
        if first is None:
            first = out
        digests.append(wl.digest(out))
        out = raws = None  # free this round's outputs before the next round
        wall.append(unit_wall)
        ref.append(unit_ref)
    return first, digests, wall, ref


def round_time(times: list[list[float]]) -> float:
    """Seconds of one round: each unit's median over the rounds, summed.

    A unit is one call into the package; taking the median per unit rather
    than per round keeps a slow spell of the host inside one unit from
    spreading to the others.
    """
    return sum(statistics.median(col) for col in zip(*times))


def _git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_only:  # probe the host from just after numpy loads
        sys.path.insert(0, str(HERE))
        from probe import HostSpeed
        speed = HostSpeed()
        speed.start()
    _import_package()
    import numpy as np
    from tracer import PER_LAYER, Tracer, combine, layer_metrics, self_total
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, OUT)
    if args.setup_only:
        return _setup_only(wl, speed)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    else:
        setup_wall, setup_ref = _setup_seconds(args, wl.setup_runs)
    wl.setup()

    from probe import HostSpeed

    if tracer:
        setup_stats = tracer.take()
        tracer.uninstall()
        speed = HostSpeed(on_probe=tracer.exclude)
        speed.start()
        first, plain, plain_s, plain_ref = _rounds(wl, args.seconds / 2, speed)
        tracer.install()
        _, traced, traced_s, traced_ref = _rounds(wl, args.seconds / 2, speed)
        tracer.uninstall()
        speed.stop()
        tracer.install_counter()
        _, counted, counted_s, _ = _rounds(wl, 0)
        tracer.uninstall()
        digests, wall = plain + traced + counted, plain_s + traced_s + counted_s
        ref = plain_ref + traced_ref
    else:
        speed = HostSpeed()
        speed.start()
        first, digests, wall, ref = _rounds(wl, args.seconds, speed)
        speed.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdict = wl.check(first)
    problems = list(verdict.problems)
    if len(set(digests)) > 1:
        problems.append("a later round's outputs differ from the first round's")
    failures = [r for r in verdict.reasons if r is not None]
    unexpected = [r for r in failures
                  if not (verdict.known_fault and r.startswith(verdict.known_fault))]
    for line in problems + failures:
        print(("problem: " if line in problems else "failed: ") + line, file=sys.stderr)

    if tracer:
        stats = combine(setup_stats, tracer.take(), len(traced))
        values = layer_metrics(stats, tracer.lookups)
        # means over rounds, like the layer statistics
        values["trace.run_s"] = statistics.mean(map(sum, traced_s))
        # at reference speed, so that a slow spell of the host in one of
        # the two does not pass for the tracer's cost
        values["trace.overhead_s"] = (statistics.mean(map(sum, traced_ref))
                                      - statistics.mean(map(sum, plain_ref)))
        values["trace.remainder_s"] = values["trace.run_s"] - (
            self_total(stats) - self_total(setup_stats))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        run_s = round_time(ref)
        work_s = round_time([t[:wl.work_units] for t in ref])
        values = {"setup_s": statistics.median(setup_ref),
                  "run_s": run_s,
                  "work_per_s": first.work / work_s,
                  "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in E2E}

    per_round = len(verdict.reasons)
    result = {"correct": not problems and not unexpected,
              "attempted": per_round * len(digests),
              "failed": len(failures) * len(digests),
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  samples_to_converge=verdict.samples_to_converge,
                  unit_wall_s=wall, unit_ref_s=ref,
                  setup_wall_s=None if tracer else setup_wall,
                  setup_ref_s=None if tracer else setup_ref,
                  failures=failures, problems=problems, git_sha=_git_sha(),
                  python=platform.python_version(), numpy=np.__version__,
                  nproc=os.cpu_count())
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
