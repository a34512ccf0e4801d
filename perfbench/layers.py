"""The kinoplan functions the traced run wraps, and the per-layer metrics.

Every ``*_s`` metric is self time (span minus traced child spans) except
``rrt.plan_s``, ``rrt.failed_plan_s`` and ``geometry.library_build_s``, which
are the inclusive time of whole plans and whole library builds.
"""

from __future__ import annotations

from kinoplan import collision, geometry, rrt, simulator, temporal, tracking

from tracer import RAISED, Tracer

# name -> (unit, better); the order is the order of the printed metrics.
PER_LAYER = {
    "rrt.plan_calls": ("count", "lower"),
    "rrt.plan_fails": ("count", "lower"),
    "rrt.plan_s": ("s", "lower"),
    "rrt.failed_plan_s": ("s", "lower"),
    "rrt.plan_self_s": ("s", "lower"),
    "rrt.iterations": ("count", "lower"),
    "rrt.tree_nodes": ("count", "lower"),
    "rrt.path_length_m": ("m", "lower"),
    "rrt.extend_calls": ("count", "lower"),
    "rrt.extend_new": ("count", "higher"),
    "rrt.extend_s": ("s", "lower"),
    "rrt.connect_calls": ("count", "lower"),
    "rrt.connect_found": ("count", "higher"),
    "rrt.connect_s": ("s", "lower"),
    "geometry.fit_curve_calls": ("count", "lower"),
    "geometry.fit_curve_fails": ("count", "lower"),
    "geometry.fit_curve_s": ("s", "lower"),
    "geometry.library_build_s": ("s", "lower"),
    "geometry.cell_index_calls": ("count", "lower"),
    "geometry.cell_index_s": ("s", "lower"),
    "geometry.curve_samples_hits": ("count", "higher"),
    "geometry.curve_samples_misses": ("count", "lower"),
    "collision.curve_checks": ("count", "lower"),
    "collision.curve_hits": ("count", "lower"),
    "collision.curve_check_s": ("s", "lower"),
    "collision.disk_calls": ("count", "lower"),
    "collision.disk_s": ("s", "lower"),
    "collision.polygon_calls": ("count", "lower"),
    "collision.polygon_s": ("s", "lower"),
    "collision.footprint_calls": ("count", "lower"),
    "collision.footprint_s": ("s", "lower"),
    "temporal.si_calls": ("count", "lower"),
    "temporal.si_s": ("s", "lower"),
    "temporal.select_none": ("count", "lower"),
    "temporal.select_s": ("s", "lower"),
    "temporal.sqp_calls": ("count", "lower"),
    "temporal.sqp_none": ("count", "lower"),
    "temporal.sqp_node0_rejects": ("count", "lower"),
    "temporal.slsqp_iters": ("count", "lower"),
    "temporal.sqp_s": ("s", "lower"),
    "temporal.validate_rejects": ("count", "lower"),
    "temporal.validate_s": ("s", "lower"),
    "tracking.step_calls": ("count", "lower"),
    "tracking.step_s": ("s", "lower"),
    "simulator.ticks": ("count", "lower"),
    "simulator.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def instrument(tracer: Tracer) -> None:
    """Wrap the layer boundaries.  Call before the first traced operation."""
    c = tracer.counters

    def plan_exit(result, args, kwargs, dt):
        if result is None or result is RAISED:
            c["plan_fails"] += 1
            c["failed_plan_s"] += dt
            if result is None:  # budget exhausted; RAISED means start/goal in collision
                config = args[3] if len(args) > 3 else kwargs["config"]
                c["iterations"] += config.max_iterations
        else:
            c["iterations"] += result.iterations
            c["plans_found"] += 1
            c["tree_nodes"] += result.node_count
            c["path_length"] += result.path.total_length

    def found(key, fail_value=None):
        def on_exit(result, args, kwargs, dt):
            if result is not RAISED and result is not fail_value:
                c[key] += 1
        return on_exit

    def sqp_exit(result, args, kwargs, dt):
        seq = args[1] if len(args) > 1 else kwargs["seq"]
        if not seq.chosen[0].start <= 0.0 <= seq.chosen[0].end:
            c["sqp_node0_rejects"] += 1
        if result is None or result is RAISED:
            c["sqp_none"] += 1

    def slsqp_exit(result, args, kwargs, dt):
        if result is not RAISED:
            c["slsqp_iters"] += result.nit

    def ticks_exit(result, args, kwargs, dt):
        if result is not RAISED:
            c["ticks"] += len(result.times)

    def by_kind(centers, radius, obstacle, *rest, **kwargs):
        return "collision." + obstacle.kind

    tracer.patch(geometry.build_curve_library, "geometry.build_curve_library")
    tracer.patch(geometry.fit_curve, "geometry.fit_curve", found("fit_curve_ok"))
    tracer.patch_method(geometry.CurveLibrary, "cell_index", "geometry.cell_index")
    tracer.patch(rrt.plan_path, "rrt.plan_path", plan_exit)
    tracer.patch(rrt.extend, "rrt.extend", found("extend_new"))
    tracer.patch(rrt.try_connect, "rrt.try_connect", found("connect_found"))
    tracer.patch(collision.curve_in_collision, "collision.curve_in_collision",
                 found("curve_hits", False))
    tracer.patch(collision.circles_hit_obstacle, by_kind)
    tracer.patch(collision.clearance_to_obstacle, by_kind)
    tracer.patch(temporal.compute_safe_intervals, "temporal.compute_safe_intervals")
    tracer.patch(temporal.select_interval_sequence, "temporal.select_interval_sequence",
                 found("select_found"))
    tracer.patch(temporal.optimize_timestamps, "temporal.optimize_timestamps", sqp_exit)
    tracer.patch(temporal.minimize, "scipy.minimize", slsqp_exit, span=False)
    tracer.patch(temporal.validate_trajectory, "temporal.validate_trajectory",
                 found("validate_ok", False))
    tracer.patch_method(tracking.TrackStore, "step", "tracking.step")
    tracer.patch(simulator.run_scenario, "simulator.run_scenario", ticks_exit)


def layer_metrics(tracer: Tracer, samples_hits: int, samples_misses: int,
                  span_cost: float) -> dict:
    """Per-layer values by PER_LAYER name from one traced run."""
    n, incl, own, c = tracer.calls, tracer.inclusive, tracer.self_time, tracer.counters
    found = c["plans_found"]
    values = {
        "rrt.plan_calls": n["rrt.plan_path"],
        "rrt.plan_fails": c["plan_fails"],
        "rrt.plan_s": incl["rrt.plan_path"],
        "rrt.failed_plan_s": c["failed_plan_s"],
        "rrt.plan_self_s": own["rrt.plan_path"],
        "rrt.iterations": c["iterations"],
        "rrt.tree_nodes": c["tree_nodes"] / found if found else 0.0,
        "rrt.path_length_m": c["path_length"] / found if found else 0.0,
        "rrt.extend_calls": n["rrt.extend"],
        "rrt.extend_new": c["extend_new"],
        "rrt.extend_s": own["rrt.extend"],
        "rrt.connect_calls": n["rrt.try_connect"],
        "rrt.connect_found": c["connect_found"],
        "rrt.connect_s": own["rrt.try_connect"],
        "geometry.fit_curve_calls": n["geometry.fit_curve"],
        "geometry.fit_curve_fails": n["geometry.fit_curve"] - c["fit_curve_ok"],
        "geometry.fit_curve_s": own["geometry.fit_curve"],
        "geometry.library_build_s": incl["geometry.build_curve_library"],
        "geometry.cell_index_calls": n["geometry.cell_index"],
        "geometry.cell_index_s": own["geometry.cell_index"],
        "geometry.curve_samples_hits": samples_hits,
        "geometry.curve_samples_misses": samples_misses,
        "collision.curve_checks": n["collision.curve_in_collision"],
        "collision.curve_hits": c["curve_hits"],
        "collision.curve_check_s": own["collision.curve_in_collision"],
        "temporal.si_calls": n["temporal.compute_safe_intervals"],
        "temporal.si_s": own["temporal.compute_safe_intervals"],
        "temporal.select_none": n["temporal.select_interval_sequence"] - c["select_found"],
        "temporal.select_s": own["temporal.select_interval_sequence"],
        "temporal.sqp_calls": n["temporal.optimize_timestamps"],
        "temporal.sqp_none": c["sqp_none"],
        "temporal.sqp_node0_rejects": c["sqp_node0_rejects"],
        "temporal.slsqp_iters": c["slsqp_iters"],
        "temporal.sqp_s": own["temporal.optimize_timestamps"],
        "temporal.validate_rejects": n["temporal.validate_trajectory"] - c["validate_ok"],
        "temporal.validate_s": own["temporal.validate_trajectory"],
        "tracking.step_calls": n["tracking.step"],
        "tracking.step_s": own["tracking.step"],
        "simulator.ticks": c["ticks"],
        "simulator.self_s": own["simulator.run_scenario"],
        "trace.spans": tracer.span_count(),
        "trace.overhead_s": tracer.span_count() * span_cost,
    }
    for kind in ("disk", "polygon", "footprint"):
        values[f"collision.{kind}_calls"] = n["collision." + kind]
        values[f"collision.{kind}_s"] = own["collision." + kind]
    return {name: values[name] for name in PER_LAYER}
