"""Golden trace hashes: check that a change keeps every scenario trace byte-identical.

    python3 tools/golden_traces.py --base HEAD~1   # this checkout's src/ against HEAD~1's

Run from anywhere inside the git checkout.  The tool extracts ``src/`` of the
revision ``--base`` names with ``git archive`` into a temporary directory,
then computes the hashes of that tree and of this checkout's ``src/`` (as it
is on disk, uncommitted edits included), each in its own subprocess on this
machine, and diffs them.  Per tree it builds the default curve library once,
runs the six worlds (the five built-in scenarios and ``blocked``) at seeds
0-2, and takes the sha1 of each run's ``trace.csv``, of its per-tick
clearances (which ``trace.csv`` does not hold) written with ``%.17g``, of its
planning events, and of the saved library CSV: 55 hashes.  The events hash
covers each event's time, kind, path poses and curves, node timestamps, safe
intervals, and the id, state, 4x4 covariance, last update and last heading
of every track it saw, all written with ``%.17g``; the wall-clock latency is
left out.  So an event that changes while the trace stays the same still
shows.  The tool reads each track as a copy of a tracker filter, so a
``--base`` whose events hold ``ObstacleTrack`` records instead fails to
hash.  It exits 1 and names every hash that differs.  For every run whose
behaviour differs, it also prints one line with both trees' figures: success,
ticks, events and failed events per kind, the largest tick speed and |a|, and
the smallest clearance to 1e-3 (``behaviour``).  Each run's wall time is
printed on stderr as it finishes, after the time of the library build, next
to the run's planning time: the summed latency of its initial and replan
events, the quantity the benchmark's closed-loop ``queries_per_s`` is built
from.  The two trees run side by side, so the times are comparable
only as pairs.

The BLAS and OpenMP pools are pinned to one thread in both subprocesses, as
the benchmark does.  The program's own traces no longer depend on the BLAS
thread count (its timestamp solver makes no BLAS call), so the pin matters
only for a ``--base`` that predates that solver: SciPy's SLSQP moved with
BLAS rounding.  Both trees run on the same numpy/BLAS build, so the
comparison holds on any machine.

Both subprocesses inherit the environment, ``OPENBLAS_CORETYPE`` included.
When a change replaces BLAS products with plain float arithmetic in the
order of an unfused kernel, running the gate as
``OPENBLAS_CORETYPE=Prescott python3 tools/golden_traces.py --base HEAD~1``
shows the byte-identity that the default kernel's fused multiply-adds hide.
"""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORLDS = ("cross", "overtake", "bypass", "follow", "wait", "blocked")
SEEDS = (0, 1, 2)
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}


def _sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def _g(*values) -> str:
    return " ".join("%.17g" % v for v in values)


def _event_lines(events):
    """The deterministic fields of each planning event, one item per line."""
    for ev in events:
        yield f"event {_g(ev.time)} {ev.kind}"
        if ev.path is not None:
            yield from ("pose " + _g(p.x, p.y, p.theta) for p in ev.path.poses)
            yield from ("curve " + _g(c.kappa0, c.a, c.b, c.c, c.s_f) for c in ev.path.curves)
        if ev.trajectory is not None:
            yield "stamps " + _g(*ev.trajectory.timestamps)
        for ni in ev.node_intervals or ():
            yield f"node {ni.node_index} " + _g(*(v for si in ni.intervals
                                                  for v in (si.start, si.end)))
        for tr in ev.tracks or ():
            yield f"track {tr.id} " + _g(*_track_numbers(tr), tr.last_update, tr.last_heading)


def _track_numbers(tr) -> tuple:
    """A track's state and its 4x4 covariance, row by row, built from the
    per-axis block (p, c, v) of the tracker filter an event holds a copy of."""
    p, c, v = tr.p, tr.c, tr.v
    return (tr.x, tr.y, tr.vx, tr.vy, p, 0.0, c, 0.0, 0.0, p, 0.0, c, c, 0.0, v, 0.0,
            0.0, c, 0.0, v)


def behaviour(trace) -> dict:
    """What a run did: success, ticks, events and failed events (no
    trajectory) per kind, the largest tick speed and |a| rounded to 1e-6, and
    the smallest clearance rounded to 1e-3."""
    kinds = sorted({ev.kind for ev in trace.events})
    return {
        "success": trace.success,
        "ticks": len(trace.times),
        "events": {k: sum(ev.kind == k for ev in trace.events) for k in kinds},
        "failed": {k: sum(ev.kind == k and ev.trajectory is None for ev in trace.events)
                   for k in kinds},
        "max_speed": round(max(trace.velocities), 6),
        "max_abs_a": round(max(map(abs, trace.accelerations)), 6),
        "min_clearance": round(min(trace.clearances), 3),
    }


def _describe(b: dict) -> str:
    events = " ".join(f"{k}={n}/{b['failed'][k]}" for k, n in b["events"].items())
    return (f"success={b['success']} ticks={b['ticks']} {events} "
            f"max_speed={b['max_speed']:.6f} max_abs_a={b['max_abs_a']:.3f} "
            f"min_clearance={b['min_clearance']:.3f}")


def compute_hashes(src: str) -> tuple[dict[str, str], dict[str, dict]]:
    """sha1 of the library CSV and of every world/seed ``trace.csv``,
    clearance log and event log, and the ``behaviour`` of every run, with
    kinoplan imported from ``src``."""
    sys.path.insert(0, src)
    import kinoplan
    from kinoplan import build_curve_library, get_scenario, run_scenario

    if not kinoplan.__file__.startswith(os.path.abspath(src)):
        raise SystemExit(f"imported kinoplan from {kinoplan.__file__}, not from {src}")
    hashes, runs = {}, {}
    t0 = time.perf_counter()
    library = build_curve_library()
    print(f"{src}: library build {time.perf_counter() - t0:.2f} s", file=sys.stderr, flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "library.csv")
        library.save_csv(path)
        with open(path, "rb") as fh:
            hashes["library.csv"] = _sha1(fh.read())
        for name in WORLDS:
            for seed in SEEDS:
                t0 = time.perf_counter()
                trace = run_scenario(get_scenario(name), seed=seed, library=library)
                wall = time.perf_counter() - t0
                planning = sum(ev.latency for ev in trace.events
                               if ev.kind in ("initial", "replan"))
                trace.to_csv(path)
                with open(path, "rb") as fh:
                    hashes[f"{name}/{seed}/trace.csv"] = _sha1(fh.read())
                clear = "".join("%.17g\n" % c for c in trace.clearances)
                hashes[f"{name}/{seed}/clearances"] = _sha1(clear.encode())
                events = "".join(line + "\n" for line in _event_lines(trace.events))
                hashes[f"{name}/{seed}/events"] = _sha1(events.encode())
                runs[f"{name}/{seed}"] = behaviour(trace)
                print(f"{src}: {name} seed {seed} {wall:.2f} s, planning {planning:.3f} s",
                      file=sys.stderr, flush=True)
    return hashes, runs


def _start(src: str) -> subprocess.Popen:
    """A subprocess printing ``compute_hashes(src)`` as JSON, on one BLAS thread."""
    return subprocess.Popen([sys.executable, os.path.abspath(__file__), "--hash-src", src],
                            stdout=subprocess.PIPE, env={**os.environ, **ONE_THREAD})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--base", help="git revision to compare this checkout's src/ with")
    mode.add_argument("--hash-src", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.hash_src:
        json.dump(compute_hashes(args.hash_src), sys.stdout)
        return 0
    git = subprocess.run(["git", "-C", ROOT, "archive", args.base, "src"], capture_output=True)
    if git.returncode:
        sys.stderr.write(git.stderr.decode())
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(git.stdout)) as tar:
            tar.extractall(tmp)
        procs = [_start(os.path.join(tmp, "src")), _start(os.path.join(ROOT, "src"))]
        outs = [proc.communicate()[0] for proc in procs]
    if any(proc.returncode for proc in procs):
        print("hashing failed", file=sys.stderr)
        return 1
    (base, base_runs), (head, head_runs) = (json.loads(out) for out in outs)
    bad = sorted(k for k in base.keys() | head.keys() if base.get(k) != head.get(k))
    for key in bad:
        print(f"MISMATCH {key}: {args.base} {base.get(key)} now {head.get(key)}")
    for run in base_runs:
        if base_runs[run] != head_runs[run]:
            print(f"BEHAVIOUR {run}: {args.base} {_describe(base_runs[run])}; "
                  f"now {_describe(head_runs[run])}")
    print(f"{len(head) - len(bad)} of {len(base)} hashes equal")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
