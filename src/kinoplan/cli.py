"""Command-line entry point.

Subcommands: gen-library, plan, simulate, bench-sampling, export-plots.
Every value comes from its flag or the flag's literal default, so a run is
bitwise reproducible from its command line; plan, simulate and bench-sampling
take --seed.  The resolved configuration is printed before any work happens.

Exit codes: 0 success, 1 bad input or I/O failure, 2 planning failure,
3 scenario run failure (time limit).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .collision import default_robot_footprint
from .configfile import cast, check, write_lines
from .geometry import CurveLibrary, LibraryConfig, Pose, build_curve_library, checked_pose
from .rrt import EndpointInCollision, PlannerConfig, plan_path
from .scenarios import (Scenario, builtin_scenarios, get_scenario,
                        load_scenario, random_disk_world)
from .simulator import (TraceLog, derive_trace, draw_obstacles, export_artifacts, metrics,
                        run_scenario)
from .svg import SvgCanvas, plot_errorbars

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_PATH = 2
EXIT_SCENARIO_FAILED = 3
PLANNER_CONFIG_HELP = (
    "planner config file: 'key = value' lines setting p_th, goal_bias, max_iterations, "
    "rng_seed or world_bounds; --seed and the world's bounds replace the last two.  The "
    "constants D_TH, GMM_SIGMA, ECCENTRICITY, ELLIPSE_MARGIN, CONNECT_RADIUS, "
    "CONNECT_DIST_MIN, CONNECT_DIST_MAX, CONNECT_HEADING_TOL, COLLISION_DS, STATIC_MARGIN "
    "and EXTEND_CANDIDATES of kinoplan.rrt fix the rest")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_ERROR: argparse's own code 2 is EXIT_NO_PATH."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _flag(name: str, tp):
    """An argparse ``type`` for field ``name``: the text cast to ``tp``
    (``configfile.cast``; split on commas unless ``tp`` is str, so a path
    stays whole) and then checked by the field's rule; a Pose is built from
    'x,y,theta' by ``checked_pose``.  Text that does not cast reads
    ``invalid <tp> value``."""
    def read(text: str):
        value = cast(tp, [text] if tp is str else text.split(","))
        try:
            if tp is Pose:
                return checked_pose(name, value)
            check(name, value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    read.__name__ = tp.__name__
    return read


def _resolve_scenario(name_or_path: str) -> Scenario:
    if os.path.exists(name_or_path):
        return load_scenario(name_or_path)
    try:
        return get_scenario(name_or_path)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None


def _print_config(args, extra: dict | None = None) -> None:
    shown = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    if extra:
        shown.update(extra)
    for key, val in sorted(shown.items()):
        print(f"{key} = {val}")


def cmd_gen_library(args) -> int:
    config = LibraryConfig.from_file(args.config) if args.config else LibraryConfig()
    _print_config(args, {"library_config": config})
    library = build_curve_library(config)
    total = config.n_r * config.n_beta
    library.save_csv(args.out)
    print(f"entries {len(library.entries)}  rejected {total - len(library.entries)}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_plan(args) -> int:
    if args.scenario:
        scenario = _resolve_scenario(args.scenario)
        obstacles = scenario.static_obstacles
        bounds = scenario.bounds
        start = args.start or scenario.start
        goal = args.goal or scenario.goal
        footprint = scenario.robot
    else:
        if args.start is None or args.goal is None:
            raise ValueError("--start and --goal are required without --scenario")
        obstacles = []
        start, goal = args.start, args.goal
        pad = 10.0
        bounds = (min(start.x, goal.x) - pad, min(start.y, goal.y) - pad,
                  max(start.x, goal.x) + pad, max(start.y, goal.y) + pad)
        footprint = default_robot_footprint()
    _print_config(args, {"start": start, "goal": goal})
    pcfg = PlannerConfig.from_file(args.config) if args.config else PlannerConfig()
    pcfg = replace(pcfg, rng_seed=args.seed, world_bounds=bounds)
    library = CurveLibrary.load_csv(args.library) if args.library else build_curve_library()
    try:
        result = plan_path(start, goal, obstacles, pcfg, library, footprint)
    except EndpointInCollision as exc:
        print(f"plan: {exc}", file=sys.stderr)
        return EXIT_NO_PATH
    if result is None:
        print("plan: no path found within the iteration budget", file=sys.stderr)
        return EXIT_NO_PATH
    os.makedirs(args.out, exist_ok=True)
    result.path.to_csv(os.path.join(args.out, "path.csv"))
    _plot_path(result.path, obstacles, bounds, os.path.join(args.out, "path.svg"))
    print(f"path nodes {len(result.path.poses)}  length {result.path.total_length:.3f}  "
          f"iterations {result.iterations}")
    return EXIT_OK


def _plot_path(path, obstacles, bounds, out) -> None:
    cv = SvgCanvas(bounds)
    draw_obstacles(cv, obstacles)
    grid, dense = path.dense_samples()
    cv.polyline([(p[0], p[1]) for p in dense], stroke="#1f4fd0")
    for pose in path.poses:
        cv.circle(pose.x, pose.y, 0.25, fill="#000000", stroke="none")
    cv.write(out)


def cmd_simulate(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    _print_config(args)
    pcfg = PlannerConfig.from_file(args.config) if args.config else None
    library = CurveLibrary.load_csv(args.library) if args.library else None
    trace = run_scenario(scenario, planner_config=pcfg, seed=args.seed, library=library)
    export_artifacts(trace, args.out, scenario)
    m = metrics(trace)
    lat = [e.latency for e in trace.events]
    print("metrics success=%s total_time=%.2f total_length=%.3f min_clearance=%.3f"
          % (m["success"], m["total_time"], m["total_length"], m["min_clearance"]))
    if lat:
        print("planning wall time: events=%d mean=%.3fs max=%.3fs (not part of "
              "any pass/fail)" % (len(lat), sum(lat) / len(lat), max(lat)))
    return EXIT_OK if m["success"] else EXIT_SCENARIO_FAILED


def cmd_bench_sampling(args) -> int:
    _print_config(args)
    library = CurveLibrary.load_csv(args.library) if args.library else build_curve_library()
    footprint = default_robot_footprint()
    headings = list(range(0, 91, 10))
    modes = ("gmm", "random")
    rows = []
    for heading in headings:
        per_mode = {m: {"nodes": [], "time": [], "length": []} for m in modes}
        for run in range(args.runs):
            world_seed = args.seed * 100003 + heading * 101 + run
            disks, start, goal, bounds = random_disk_world(world_seed,
                                                          math.radians(heading))
            for mode in modes:
                # A run that exhausts the iteration budget is retried with a
                # fresh planner seed and a growing budget on the same world,
                # so both modes are compared over identical obstacle sets.
                result = None
                for attempt in range(5):
                    pcfg = PlannerConfig(rng_seed=world_seed + 17 + 1009 * attempt,
                                         world_bounds=bounds,
                                         p_th=0.5 if mode == "gmm" else 0.0,
                                         goal_bias=0.0)
                    pcfg = replace(pcfg, max_iterations=pcfg.max_iterations
                                   * (attempt + 1))
                    t0 = time.perf_counter()
                    result = plan_path(start, goal, disks, pcfg, library, footprint)
                    elapsed = time.perf_counter() - t0
                    if result is not None:
                        break
                if result is None:
                    continue
                per_mode[mode]["nodes"].append(result.node_count)
                per_mode[mode]["time"].append(elapsed)
                per_mode[mode]["length"].append(result.path.total_length)
        for mode in modes:
            stats = per_mode[mode]
            row = {"heading": heading, "mode": mode, "runs": len(stats["nodes"])}
            for key in ("nodes", "time", "length"):
                vals = np.asarray(stats[key])
                mean = float(vals.mean()) if len(vals) else float("nan")
                ci = 1.96 * float(vals.std(ddof=1)) / math.sqrt(len(vals)) \
                    if len(vals) > 1 else 0.0
                row[key + "_mean"] = mean
                row[key + "_ci95"] = ci
            rows.append(row)
    os.makedirs(args.out, exist_ok=True)
    cols = ["heading", "mode", "runs", "nodes_mean", "nodes_ci95", "time_mean",
            "time_ci95", "length_mean", "length_ci95"]
    rows.sort(key=lambda r: (r["heading"], r["mode"]))
    write_lines(os.path.join(args.out, "stats.csv"), [",".join(cols)] + [",".join(
        str(row[c]) if c in ("heading", "mode", "runs") else "%.17g" % row[c] for c in cols)
        for row in rows])
    for key, title in (("length", "mean path length vs heading"),
                       ("nodes", "mean node count vs heading")):
        series = {}
        for mode in modes:
            series[mode] = [(r["heading"], r[key + "_mean"], r[key + "_ci95"])
                            for r in rows if r["mode"] == mode]
        plot_errorbars(series, "heading (deg)",
                       os.path.join(args.out, "bench_%s.svg" % key), title)
    for row in rows:
        print("heading %3d  %-6s runs %d  nodes %.1f  time %.3fs  length %.2f"
              % (row["heading"], row["mode"], row["runs"], row["nodes_mean"],
                 row["time_mean"], row["length_mean"]))
    print("note: wall times are hardware-dependent and informational only")
    return EXIT_OK


def cmd_export_plots(args) -> int:
    _print_config(args)
    scenario = _resolve_scenario(args.scenario) if args.scenario else None
    trace = TraceLog.from_csv(args.trace)
    if scenario is not None:
        ids = [mob.id for mob in scenario.moving]
        if trace.obstacle_ids != ids:
            raise ValueError(f"{args.trace}: obstacle ids {trace.obstacle_ids}, "
                             f"but scenario {scenario.name} has {ids}")
        derive_trace(scenario, trace)
    export_artifacts(trace, args.out, scenario)
    print(f"wrote plots to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kinoplan",
        description="Kinodynamic planning toolkit: curve-library bi-RRT plus "
                    "safe-interval temporal optimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=_flag("seed", int), default=0,
                       help="RNG seed (default 0)")
        p.add_argument("--out", type=_flag("out", str), default="out",
                       help="output directory (default ./out)")
        p.add_argument("--library",
                       help="curve library CSV; regenerated in-process when omitted")

    p = sub.add_parser("gen-library", help="fit the offline curve library")
    p.add_argument("--config", help="library config file (key = value lines)")
    p.add_argument("--out", type=_flag("out", str), default="library.csv",
                   help="output CSV path (default library.csv)")
    p.set_defaults(func=cmd_gen_library)

    p = sub.add_parser("plan", help="run one geometric planning query")
    add_common(p)
    p.add_argument("--scenario", help="builtin scenario name or scenario file for the world")
    p.add_argument("--start", type=_flag("start", Pose), help="start pose 'x,y,theta' (radians)")
    p.add_argument("--goal", type=_flag("goal", Pose), help="goal pose 'x,y,theta' (radians)")
    p.add_argument("--config", help=PLANNER_CONFIG_HELP)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="execute a scenario with the full loop")
    add_common(p)
    p.add_argument("--scenario", required=True,
                   help="builtin name (%s) or scenario file"
                        % "/".join(s.name for s in builtin_scenarios()))
    p.add_argument("--config", help=PLANNER_CONFIG_HELP)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench-sampling",
                       help="GMM vs random sampling benchmark over start headings")
    add_common(p)
    p.add_argument("--runs", type=_flag("runs", int), default=30,
                   help="runs per heading (default 30)")
    p.set_defaults(func=cmd_bench_sampling)

    p = sub.add_parser("export-plots", help="re-render plots from a trace CSV")
    p.add_argument("--trace", required=True, help="trace CSV from simulate")
    p.add_argument("--scenario",
                   help="scenario name or file, for world geometry in the plot "
                        "and for the metrics summary")
    p.add_argument("--out", type=_flag("out", str), default="out")
    p.set_defaults(func=cmd_export_plots)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
