"""End-to-end acceptance checks at pinned tolerances.

Each test is self-contained apart from the shared session fixtures (curve
library, scenario run matrix).  Oracles are independent implementations:
closed forms, hand-evaluated constants, exhaustive enumeration, and dense
grid search.
"""

import math
import os
import time

import numpy as np
import pytest

from kinoplan import cli, temporal
from kinoplan.collision import FootprintSpec, disc_radius
from kinoplan.geometry import CurveParams, Pose, fit_curve, integrate_endpoint
from kinoplan.rrt import Path
from kinoplan.scenarios import get_scenario
from kinoplan.simulator import run_scenario
from kinoplan.temporal import (DT_MIN, NodeIntervals, SafeInterval,
                               TemporalConfig, optimize_timestamps,
                               select_interval_sequence, validate_trajectory)

EPS = 1e-9


# -- 1: constant-curvature curves match circular-arc closed forms ----------

def test_arc_closed_forms():
    t0 = time.perf_counter()
    for kappa in (0.05, -0.05, 0.2, -0.2, 0.5, -0.5):
        for s_f in np.arange(0.1, 10.0 + 1e-9, 0.1):
            dx, dy, dth = integrate_endpoint(CurveParams(kappa, 0.0, 0.0, 0.0, float(s_f)))
            assert abs(dx - math.sin(kappa * s_f) / kappa) < 1e-6
            assert abs(dy - (1.0 - math.cos(kappa * s_f)) / kappa) < 1e-6
            assert abs(dth - kappa * s_f) < 1e-9
    assert time.perf_counter() - t0 < 1.0


# -- 2: covering-circle radius formula, both branches ----------------------

def test_disc_radius_hand_values():
    # one-circle branch: l/w = 1 < 1.3, radius = half diagonal
    assert abs(disc_radius(1.0, 1.0) - math.sqrt(2.0) / 2.0) < 1e-12
    # three-circle branch: l/w = 2
    assert abs(disc_radius(4.0, 2.0) - math.sqrt(52.0) / 6.0) < 1e-12
    # boundary l/w = 1.3 belongs to the three-circle branch
    assert abs(disc_radius(1.3, 1.0) - math.sqrt(10.69) / 6.0) < 1e-12
    one_circle_value = math.sqrt(1.3**2 + 1.0) / 2.0
    assert abs(disc_radius(1.3, 1.0) - one_circle_value) > 1e-3
    assert len(FootprintSpec.from_dimensions(1.3, 1.0).center_offsets) == 3
    assert len(FootprintSpec.from_dimensions(1.29, 1.0).center_offsets) == 1


# -- 3: library entries re-solve and the file round-trips ------------------

def test_library_roundtrip(library, tmp_path):
    assert library.entries
    for entry in library.entries.values():
        refit = fit_curve(0.0, (entry.dx, entry.dy, entry.dtheta),
                          library.config.kappa_max, seed=entry.params)
        assert refit is not None
        dx, dy, dth = integrate_endpoint(refit)
        assert abs(dx - entry.dx) < 1e-4
        assert abs(dy - entry.dy) < 1e-4
        assert abs(dth - entry.dtheta) < 1e-4
    first = tmp_path / "lib_a.csv"
    second = tmp_path / "lib_b.csv"
    library.save_csv(first)
    reloaded = type(library).load_csv(first)
    reloaded.save_csv(second)
    assert first.read_bytes() == second.read_bytes()


# -- 4: GMM sampling beats random sampling on the disk-world benchmark -----

def test_sampling_benchmark_trend(library_csv, tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "bench"
    rc = cli.main(["bench-sampling", "--runs", "30", "--seed", "0",
                   "--library", library_csv, "--out", str(out)])
    assert rc == 0
    rows = {}
    with open(out / "stats.csv") as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            rec = dict(zip(header, line.strip().split(",")))
            rows[(int(rec["heading"]), rec["mode"])] = rec
    headings = range(0, 91, 10)
    for h in headings:
        gmm, rnd = rows[(h, "gmm")], rows[(h, "random")]
        assert int(gmm["runs"]) >= 30 and int(rnd["runs"]) >= 30
        assert float(gmm["length_mean"]) <= float(rnd["length_mean"])
    # Node counts are compared aggregated over all headings, runs-weighted.
    totals = {}
    for mode in ("gmm", "random"):
        n = sum(int(rows[(h, mode)]["runs"]) for h in headings)
        s = sum(int(rows[(h, mode)]["runs"]) * float(rows[(h, mode)]["nodes_mean"])
                for h in headings)
        totals[mode] = s / n
    assert totals["gmm"] < totals["random"]
    assert time.perf_counter() - t0 < 600.0


# -- 5: layered selection + SQP matches brute force within 1% --------------

def _straight_path(edges):
    xs = np.concatenate([[0.0], np.cumsum(edges)])
    poses = [Pose(float(x), 0.0, 0.0) for x in xs]
    curves = [CurveParams(0.0, 0.0, 0.0, 0.0, float(d)) for d in edges]
    return Path(poses, curves)


def _node_grids(nis, dt):
    """(times, interval-id) arrays per node on a dt grid over each interval."""
    out = []
    for ni in nis:
        vals, ids = [], []
        for j, si in enumerate(ni.intervals):
            m = int(round((si.end - si.start) / dt))
            vals.append(si.start + dt * np.arange(m + 1))
            ids.append(np.full(m + 1, j))
        out.append((np.concatenate(vals), np.concatenate(ids)))
    return out


def _overlap_ok(nis, i, j, k):
    a = nis[i].intervals[j]
    b = nis[i + 1].intervals[k]
    return min(a.end, b.end) - max(a.start, b.start) >= temporal.OVERLAP_MIN


def _grid_oracle(edges, nis, config, w_t, w_a, dt=0.01):
    """Exhaustive enumeration of interval sequences plus grid search.

    Dynamic program over the pair state (t_{i-1}, t_i), which is exactly
    sequence enumeration because a node's intervals are disjoint; transitions
    are restricted to interval pairs meeting the overlap requirement and to
    timestamps satisfying t_1 = 0, dt >= 1e-3, v <= v_max, |a| <= a_max.
    """
    grids = _node_grids(nis, dt)
    n = len(grids)
    v_max, a_max = config.v_max, config.a_max
    if not np.any(np.abs(grids[0][0]) < EPS):
        return math.inf
    t2, id2 = grids[1]
    pair01 = np.array([_overlap_ok(nis, 0, 0, int(k)) for k in id2])
    with np.errstate(divide="ignore", invalid="ignore"):
        v2 = edges[0] / t2
    ok2 = pair01 & (t2 >= 1e-3) & (v2 <= v_max + EPS)
    if n == 2:
        vals = w_t * t2[ok2] ** 2
        return float(vals.min()) if vals.size else math.inf
    t3, id3 = grids[2]
    pair12 = np.array([[_overlap_ok(nis, 1, a, b)
                        for b in range(len(nis[2].intervals))]
                       for a in range(len(nis[1].intervals))])
    DT = t3[None, :] - t2[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        v3 = edges[1] / DT
        a3 = (v3 - v2[:, None]) / DT
    valid = (ok2[:, None] & pair12[id2][:, id3] & (DT >= 1e-3)
             & (v3 <= v_max + EPS) & (np.abs(a3) <= a_max + EPS))
    cost = np.where(valid, w_a * a3 ** 2, np.inf)
    for i in range(3, n):
        tprev, idprev = grids[i - 1]
        tcur, idcur = grids[i]
        pair = np.array([[_overlap_ok(nis, i - 1, a, b)
                          for b in range(len(nis[i].intervals))]
                         for a in range(len(nis[i - 1].intervals))])
        pair_pts = pair[idprev][:, idcur]
        with np.errstate(divide="ignore", invalid="ignore"):
            vprev = edges[i - 2] / (tprev[None, :] - grids[i - 2][0][:, None])
        new_cost = np.full((len(tprev), len(tcur)), np.inf)
        for li, tl in enumerate(tcur):
            dtl = tl - tprev
            with np.errstate(divide="ignore", invalid="ignore"):
                vi = edges[i - 1] / dtl
                a = (vi[None, :] - vprev) / dtl[None, :]
            step = cost + w_a * a ** 2
            bad = ((dtl[None, :] < 1e-3) | (vi[None, :] > v_max + EPS)
                   | (np.abs(a) > a_max + EPS) | ~pair_pts[:, li][None, :])
            new_cost[:, li] = np.where(bad, np.inf, step).min(axis=0)
        cost = new_cost
    tl = grids[n - 1][0]
    return float(np.min(cost + w_t * tl[None, :] ** 2))


def _random_instance(seed):
    """Edges (multiples of 0.1 m so exact arrival times land on the grid)
    and 1..3 safe intervals per node clustered near the free-flow arrival."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    edges = np.round(rng.uniform(0.6, 1.5, size=n - 1), 1)
    arrive = np.concatenate([[0.0], np.cumsum(edges)]) / 2.0
    nis = [NodeIntervals(0, [SafeInterval(0.0, round(float(rng.uniform(0.8, 2.0)), 1))])]
    for i in range(1, n):
        k = int(rng.integers(1, 4))
        t = max(0.0, arrive[i] - rng.uniform(0.0, 0.4))
        ints = []
        for _ in range(k):
            t = round(float(t + rng.uniform(0.0, 0.6)), 1)
            length = round(float(rng.uniform(0.6, 1.5)), 1)
            ints.append(SafeInterval(t, t + length))
            t = t + length + rng.uniform(0.3, 0.8)
        nis.append(NodeIntervals(i, ints))
    return edges, nis


def _objective(path, traj, config):
    n = len(path.poses)
    w_t = 1.0 / (path.total_length / config.v_max) ** 2
    w_a = 1.0 / ((n - 2) * config.a_max**2) if n > 2 else 0.0
    dt = np.diff(traj.timestamps)
    v = np.diff(path.arc_lengths) / dt
    a = np.diff(v) / dt[1:]
    return w_t * traj.timestamps[-1] ** 2 + w_a * float(a @ a)


def test_optimizer_matches_brute_force(monkeypatch):
    # The instances' intervals last 0.6-1.5 s, far below the car's 4.6 s
    # OVERLAP_MIN, so selection and the oracle use the 0.2 s they are drawn for.
    monkeypatch.setattr(temporal, "OVERLAP_MIN", 0.2)
    config = TemporalConfig(v_max=2.0, a_max=1.0)
    t0 = time.perf_counter()
    done = 0
    seed = 0
    while done < 50:
        seed += 1
        edges, nis = _random_instance(seed)
        path = _straight_path(edges)
        n = len(nis)
        w_t = 1.0 / (path.total_length / config.v_max) ** 2
        w_a = 1.0 / ((n - 2) * config.a_max**2) if n > 2 else 0.0
        oracle = _grid_oracle(edges, nis, config, w_t, w_a)
        if not math.isfinite(oracle):
            continue  # instance infeasible even for brute force; draw another
        done += 1
        seq = select_interval_sequence(nis, config, edge_lengths=edges)
        assert seq is not None, f"selection failed on brute-force-feasible seed {seed}"
        traj = optimize_timestamps(path, seq, config)
        assert traj is not None, f"SQP failed on brute-force-feasible seed {seed}"
        obj = _objective(path, traj, config)
        assert abs(obj - oracle) <= 0.01 * oracle, \
            f"seed {seed}: sqp {obj:.6f} vs oracle {oracle:.6f}"
    assert time.perf_counter() - t0 < 120.0


# -- 6: every adopted trajectory satisfies the timestamp constraints -------

def _adopted_events(scenario_runs, blocked_run):
    for (name, _seed), trace in scenario_runs.items():
        for ev in trace.events:
            if ev.trajectory is not None:
                yield name, ev
    for ev in blocked_run.events:
        if ev.trajectory is not None:
            yield "blocked", ev


def test_constraint_feasibility(scenario_runs, blocked_run):
    tol = 1e-6
    checked = 0
    for name, ev in _adopted_events(scenario_runs, blocked_run):
        sc = get_scenario(name)
        traj = ev.trajectory
        t = np.asarray(traj.timestamps)
        assert np.all(np.diff(t) >= DT_MIN - tol)
        ds = np.diff(traj.path.arc_lengths)
        v = ds / np.diff(t)
        a = np.diff(v) / np.diff(t)[1:]
        assert np.all(v <= sc.v_max + tol)
        assert np.all(np.abs(a) <= sc.a_max + tol)
        # Interval membership: each timestamp inside one of its node's SIs.
        for i, ni in enumerate(ev.node_intervals):
            assert any(si.start - tol <= t[i] <= si.end + tol
                       for si in ni.intervals), \
                f"{name}: t_{i}={t[i]} outside all safe intervals"
        checked += 1
    assert checked >= 50


def test_executed_speed_keeps_v_max(scenario_runs, blocked_run):
    """The speed of every tick keeps ``v_max``: the executed poses lie on the
    planned curves, at the arc lengths s(t) gives."""
    runs = [(name, trace) for (name, _seed), trace in scenario_runs.items()]
    for name, trace in runs + [("blocked", blocked_run)]:
        assert max(trace.velocities) <= get_scenario(name).v_max + 1e-6, name


def test_pose_speed_follows_s_of_t(scenario_runs, blocked_run):
    """Inside every adopted trajectory, the speed from ``poses_at`` in 5 ms
    steps is the speed from s(t) within 5e-3 m/s.  Not closer: ``poses_at``
    interpolates along the dense table's 0.1 m chords, each shorter than its
    arc by up to kappa^2 ds^3 / 24."""
    dt = 0.005
    for name, ev in _adopted_events(scenario_runs, blocked_run):
        traj = ev.trajectory
        t = np.arange(0.0, traj.duration, dt)
        poses = traj.poses_at(t)
        v_pose = np.hypot(np.diff(poses[:, 0]), np.diff(poses[:, 1])) / dt
        v_s = np.diff(np.interp(t, traj.timestamps, traj.path.arc_lengths)) / dt
        assert np.max(np.abs(v_pose - v_s)) <= 5e-3, f"{name} at t = {ev.time}"


# -- 7: all five scenarios succeed safely across ten seeds -----------------

def test_end_to_end_safety(scenario_runs):
    for (name, seed), trace in scenario_runs.items():
        assert trace.success, f"{name} seed {seed}: time limit exceeded"
        assert min(trace.clearances) > 0.0, f"{name} seed {seed} had contact"
        sc = get_scenario(name)
        for ev in trace.events:
            if ev.trajectory is None:
                continue
            assert validate_trajectory(ev.trajectory, ev.tracks,
                                       sc.static_obstacles, 0.05, sc.robot,
                                       t0=ev.time), \
                f"{name} seed {seed}: adopted trajectory fails validation"


# -- 8: the wait and cross interactions actually happen --------------------

def test_wait_behavior(scenario_runs):
    sc = get_scenario("wait")
    slot_x = (12.0, 18.0)
    for seed in range(10):
        trace = scenario_runs[("wait", seed)]
        slow_before_entry = 0
        for i, t in enumerate(trace.times):
            rx = trace.poses[i][0]
            if rx >= slot_x[0]:
                break
            car_x = trace.obstacle_poses[0][i][0]
            car_in_slot = slot_x[0] - 2.0 <= car_x <= slot_x[1] + 2.0
            if car_in_slot and trace.velocities[i] < 0.1 * sc.v_max:
                slow_before_entry += 1
        # At least half a second of near-standstill while the car holds the slot.
        assert slow_before_entry * sc.sim_dt >= 0.5, f"seed {seed} never waited"


def test_cross_ordering(scenario_runs):
    conflict = np.array([12.0, 0.0])
    for seed in range(10):
        trace = scenario_runs[("cross", seed)]
        robot = np.asarray(trace.poses)[:, :2]
        car = np.asarray(trace.obstacle_poses[0])[:, :2]
        times = np.asarray(trace.times)
        robot_in = times[np.linalg.norm(robot - conflict, axis=1) < 2.0]
        car_in = times[np.linalg.norm(car - conflict, axis=1) < 2.0]
        assert len(robot_in) and len(car_in), f"seed {seed}: no conflict passage"
        assert car_in.max() < robot_in.min(), \
            f"seed {seed}: robot entered the conflict point before the car left"


# -- 9: bit-identical traces for identical (scenario, config, seed) --------

def test_determinism(library, tmp_path):
    paths = []
    for tag in ("a", "b"):
        trace = run_scenario(get_scenario("cross"), seed=3, library=library)
        out = tmp_path / f"trace_{tag}.csv"
        trace.to_csv(out)
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()


# -- 10: a permanent blocker triggers timeout-then-replan ------------------

def test_blocked_corridor_replans(blocked_run):
    trace = blocked_run
    assert trace.success, "time limit exceeded"
    assert any(ev.kind == "replan" for ev in trace.events), \
        "the timeout-then-replan branch never fired"
    assert "waiting" in trace.flags
    # The alternate route runs through the far opening (y in [4.5, 9.5]),
    # not the blocked near one.
    through_b = [p for p in trace.poses if 14.0 <= p[0] <= 16.0]
    assert through_b and all(p[1] > 2.5 for p in through_b)
