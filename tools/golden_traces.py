"""Golden trace hashes: check that a change keeps every scenario trace byte-identical.

    python3 tools/golden_traces.py --check   # compare with tools/golden_traces.json
    python3 tools/golden_traces.py --write   # record the hashes of this checkout

Run from anywhere; kinoplan is imported from this checkout's ``src/``.  The
tool builds the default curve library once, runs the six worlds (the five
built-in scenarios and ``blocked``) at seeds 0-2, and takes the sha1 of each
run's ``trace.csv``, of its per-tick clearances (which ``trace.csv`` does not
hold) written with ``%.17g``, and of the saved library CSV.  ``--check``
exits 1 and names every hash that differs.

The BLAS and OpenMP pools are pinned to one thread before numpy is imported,
as the benchmark does, because SLSQP's results (and so the traces) move with
BLAS rounding.  Even so, the hashes hold only for one machine's numpy/BLAS
build: record them with ``--write`` at the commit you compare against, on
the machine you check on.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
HASH_FILE = os.path.join(HERE, "golden_traces.json")
WORLDS = ("cross", "overtake", "bypass", "follow", "wait", "blocked")
SEEDS = (0, 1, 2)


def _sha1(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha1(fh.read()).hexdigest()


def compute_hashes() -> dict[str, str]:
    """sha1 of the library CSV and of every world/seed ``trace.csv`` and clearance log."""
    sys.path.insert(0, SRC)
    from kinoplan import build_curve_library, get_scenario, run_scenario

    hashes = {}
    library = build_curve_library()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "library.csv")
        library.save_csv(path)
        hashes["library.csv"] = _sha1(path)
        for name in WORLDS:
            for seed in SEEDS:
                trace = run_scenario(get_scenario(name), seed=seed, library=library)
                path = os.path.join(tmp, f"{name}-{seed}.csv")
                trace.to_csv(path)
                hashes[f"{name}/{seed}/trace.csv"] = _sha1(path)
                clear = "".join("%.17g\n" % c for c in trace.clearances)
                hashes[f"{name}/{seed}/clearances"] = hashlib.sha1(clear.encode()).hexdigest()
                print(f"{name} seed {seed}", flush=True)
    return hashes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record the hashes")
    mode.add_argument("--check", action="store_true", help="compare with the record")
    args = p.parse_args(argv)
    hashes = compute_hashes()
    if args.write:
        with open(HASH_FILE, "w") as fh:
            json.dump(hashes, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(hashes)} hashes to {HASH_FILE}")
        return 0
    with open(HASH_FILE) as fh:
        golden = json.load(fh)
    bad = sorted(k for k in golden.keys() | hashes.keys() if golden.get(k) != hashes.get(k))
    for key in bad:
        print(f"MISMATCH {key}: golden {golden.get(key)} now {hashes.get(key)}")
    print(f"{len(hashes) - len(bad)} of {len(golden)} hashes match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
