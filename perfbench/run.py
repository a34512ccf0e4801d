"""kinoplan benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from this checkout's
``src/`` (never from an installed copy); without it the command exits with
code 2 and prints no result.  A run sets up (imports and builds the curve
library), then runs a fixed number of whole rounds of the workload, as many
as take ``--seconds`` on the reference machine (2 vCPUs), checks every
output with the independent checks in ``checks.py``, and prints one JSON
object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``END_TO_END``); the
library is built ``SETUP_REPEATS`` times and ``setup_s`` counts the median
build, and the timings take each operation at its median over the rounds
(``round_metrics``).  With ``--trace 1`` the layer boundaries are wrapped
and the metrics are the per-layer ones (``layers.PER_LAYER``).  A detailed
record of the run (every latency, the time of every operation and, when
traced, the span tree) is written to
``.perfbench/`` at the repository root.  The exit code is 0 when every
check passed and 1 otherwise.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "wall_s": ("s", "lower"),
    "queries_per_s": ("1/s", "higher"),
}


def load_program() -> None:
    """Import kinoplan from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "kinoplan", "__init__.py")):
        print(f"perfbench: no kinoplan sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, HERE]
    import kinoplan

    if not os.path.abspath(kinoplan.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported kinoplan from {kinoplan.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(workload, seconds: float, curve_samples):
    """Run ``seconds / workload.ROUND_SECONDS`` whole rounds, at least one.

    The work is fixed by ``--seconds`` rather than stopped by the clock, so a
    run never ends on a partial or extra round, and two commits measured
    with the same arguments do the same work however fast each one is.

    Every round repeats the same operations, so the curve-sample cache
    (``curve_samples``, an ``lru_cache``) is cleared before each one: no
    operation finds samples that an earlier one cached, and a repeat costs
    what the first run of its input did.  Returns the outcomes and the
    cache's hits and misses summed over the operations.
    """
    rounds = max(1, round(seconds / workload.ROUND_SECONDS))
    outcomes, hits, misses = [], 0, 0
    for k in range(rounds):
        for op in workload.round(k):
            curve_samples.cache_clear()
            outcomes.append(op())
            info = curve_samples.cache_info()
            hits, misses = hits + info.hits, misses + info.misses
    return outcomes, hits, misses


def round_metrics(outcomes) -> dict:
    """Timings of one round, each operation counted at its median over rounds.

    Every round runs the same operations, so each operation's median over
    the rounds leaves out the rounds a stall on the shared machine slowed
    down; the medians are summed over the operations of one round.
    """
    by_key = {}
    for out in outcomes:
        by_key.setdefault(out.key, []).append(out)
    wall = busy = 0.0
    queries = 0
    for outs in by_key.values():
        wall += statistics.median(out.seconds for out in outs)
        busy += statistics.median(sum(out.latencies) for out in outs)
        queries += len(outs[0].latencies)
    return {"wall_s": wall, "queries_per_s": queries / busy}


def check_outcomes(outcomes) -> list[str]:
    """Run the check of every output that did not fail; returns the problems.

    A repeat whose output pickles to the same bytes as an output already
    checked is that output, so the check is not run again on it.
    """
    problems, passed = [], set()
    for i, out in enumerate(outcomes):
        if out.failed:
            continue
        blob = pickle.dumps(out.output)
        if blob in passed:
            continue
        reason = out.check()
        if reason:
            problems.append(f"operation {i}: {reason}")
        else:
            passed.add(blob)
    return problems


def main(argv=None) -> int:
    # One compute thread, set before numpy loads: the program's arrays are
    # small, and a second BLAS thread only spins on a core the machine may share.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    load_program()
    from kinoplan import geometry

    import layers
    from tracer import Tracer, per_span_cost
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    tracer = None
    if args.trace:
        span_cost = per_span_cost()
        tracer = Tracer()
        layers.instrument(tracer)
    builds = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        library = geometry.build_curve_library()
        builds.append(time.perf_counter() - t0)
    workload = WORKLOADS[args.workload](args.seed, library)
    setup_s = time.perf_counter() - T_START - (sum(builds) - statistics.median(builds))

    outcomes, hits, misses = measure(workload, args.seconds, geometry.local_curve_samples)

    if tracer is not None:
        tracer.restore()
    problems = check_outcomes(outcomes)
    latencies = [x for out in outcomes for x in out.latencies]
    if tracer is not None:
        metrics = layers.layer_metrics(tracer, hits, misses, span_cost)
        units = layers.PER_LAYER
    else:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **round_metrics(outcomes),
        }
        units = END_TO_END
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(out.failed for out in outcomes),
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }

    os.makedirs(OUT_DIR, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_builds_s=builds,
                  operations=[[repr(out.key), out.seconds] for out in outcomes],
                  latencies=latencies, problems=problems)
    if tracer is not None:
        record["spans"] = tracer.edge_report()
    with open(os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1)
    for line in problems:
        print("check failed:", line, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
