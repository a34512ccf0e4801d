"""Correctness checks for the benchmark's outputs, written from first principles.

Nothing here calls kinoplan's geometry, collision or temporal code.  Curve
endpoints come from this module's own Gauss-Legendre quadrature of the
closed-form heading, curvature bounds from the exact extrema of the cubic,
and clearances from its own circle, disk and polygon distances.  The only
kinoplan values used are inputs and outputs: poses, curve coefficients,
timestamps, footprint cover parameters and obstacle descriptions.

Every check returns an empty string when the output is correct and a
one-line reason otherwise.
"""

from __future__ import annotations

import math

import numpy as np

JOIN_TOL = 1e-4  # m and rad: a curve must land on the next node within this
KAPPA_TOL = 1e-9  # 1/m
BOUND_TOL = 1e-6  # m/s and m/s^2, above the program's own 1e-9 SQP feasibility slack
DENSE_DS = 0.05  # m between cover samples along a curve
DENSE_DT = 0.01  # s between samples of an executed trajectory

_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


def wrap(theta):
    """Angles wrapped to (-pi, pi]."""
    return -np.remainder(-np.asarray(theta, dtype=float) + math.pi, 2.0 * math.pi) + math.pi


def heading(coeffs, s):
    """theta(s) - theta(0) for kappa(s) = k0 + a s + b s^2 + c s^3."""
    k0, a, b, c = coeffs
    s = np.asarray(s, dtype=float)
    return s * (k0 + s * (a / 2.0 + s * (b / 3.0 + s * c / 4.0)))


def curve_offsets(coeffs, s_f: float, ds: float = DENSE_DS) -> np.ndarray:
    """(dx, dy, dtheta) rows at arc lengths 0, ds, ..., s_f in the curve's start frame.

    Each step between samples is integrated with 8-point Gauss-Legendre, which
    is exact to ~1e-12 for steps this short.
    """
    n = max(1, int(math.ceil(s_f / ds)))
    s = np.linspace(0.0, s_f, n + 1)
    half = 0.5 * (s[1:] - s[:-1])
    mid = 0.5 * (s[1:] + s[:-1])
    nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
    th = heading(coeffs, nodes)
    dx = np.concatenate([[0.0], np.cumsum(half * (np.cos(th) @ _GL_W))])
    dy = np.concatenate([[0.0], np.cumsum(half * (np.sin(th) @ _GL_W))])
    return np.stack([dx, dy, heading(coeffs, s)], axis=-1)


def to_world(base, offsets: np.ndarray) -> np.ndarray:
    """Local (dx, dy, dtheta) rows placed at base pose (x, y, theta)."""
    x, y, th = base
    c, s = math.cos(th), math.sin(th)
    return np.stack([x + c * offsets[:, 0] - s * offsets[:, 1],
                     y + s * offsets[:, 0] + c * offsets[:, 1],
                     th + offsets[:, 2]], axis=-1)


def kappa_max(coeffs, s_f: float) -> float:
    """Exact max |kappa| over [0, s_f]: endpoints and the roots of kappa'."""
    k0, a, b, c = coeffs
    cands = [0.0, s_f]
    if c != 0.0:
        roots = np.roots([3.0 * c, 2.0 * b, a])
        cands += [float(r.real) for r in roots if abs(r.imag) < 1e-12]
    elif b != 0.0:
        cands.append(-a / (2.0 * b))
    s = np.asarray([v for v in cands if 0.0 <= v <= s_f])
    return float(np.max(np.abs(k0 + s * (a + s * (b + s * c)))))


def cover_centers(offsets, poses: np.ndarray) -> np.ndarray:
    """Cover-circle centers (N, k, 2) for (N, 3) poses and body-axis offsets."""
    offs = np.asarray(offsets, dtype=float)[None, :]
    c = np.cos(poses[:, 2])[:, None]
    s = np.sin(poses[:, 2])[:, None]
    return np.stack([poses[:, 0:1] + c * offs, poses[:, 1:2] + s * offs], axis=-1)


def polygon_signed_distance(points: np.ndarray, vertices) -> np.ndarray:
    """Distance from (..., 2) points to a simple polygon's boundary, negative inside."""
    v = np.asarray(vertices, dtype=float)
    a, b = v, np.roll(v, -1, axis=0)
    p = points[..., None, :]
    ab = b - a
    t = np.clip(np.sum((p - a) * ab, axis=-1) / np.sum(ab * ab, axis=-1), 0.0, 1.0)
    dist = np.min(np.linalg.norm(a + t[..., None] * ab - p, axis=-1), axis=-1)
    py = points[..., 1:2]
    px = points[..., 0:1]
    crosses = (a[:, 1] > py) != (b[:, 1] > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_at = a[:, 0] + (py - a[:, 1]) * ab[:, 0] / ab[:, 1]
    inside = np.sum(crosses & (px < x_at), axis=-1) % 2 == 1
    return np.where(inside, -dist, dist)


def circles_gap(centers: np.ndarray, radius: float, other: np.ndarray, other_radius: float):
    """Per-leading-index minimum gap between two circle sets (..., k, 2) and (..., m, 2)."""
    d = np.linalg.norm(centers[..., :, None, :] - other[..., None, :, :], axis=-1)
    return np.min(d, axis=(-2, -1)) - radius - other_radius


def static_gaps(centers: np.ndarray, radius: float, obstacles) -> np.ndarray:
    """Per-pose minimum gap (N,) between cover circles and static obstacle shapes."""
    gap = np.full(centers.shape[0], np.inf)
    for obs in obstacles:
        if obs.kind == "disk":
            g = np.min(np.linalg.norm(centers - np.asarray(obs.center), axis=-1), axis=-1) \
                - radius - obs.radius
        elif obs.kind == "polygon":
            g = np.min(polygon_signed_distance(centers, obs.vertices), axis=-1) - radius
        elif obs.kind == "footprint":
            pose = np.array([[obs.pose.x, obs.pose.y, obs.pose.theta]])
            other = cover_centers(obs.footprint.center_offsets, pose)[0]
            g = circles_gap(centers, radius, other[None], obs.footprint.radius)
        else:
            raise ValueError(f"unknown obstacle kind {obs.kind!r}")
        gap = np.minimum(gap, g)
    return gap


def script_poses(waypoints, times: np.ndarray) -> np.ndarray:
    """(T, 3) poses of a scripted obstacle: linear between (t, x, y) waypoints,
    held outside them; heading is that of the latest moving segment begun."""
    wp = np.asarray(waypoints, dtype=float)
    x = np.interp(times, wp[:, 0], wp[:, 1])
    y = np.interp(times, wp[:, 0], wp[:, 2])
    seg_heading = [0.0]
    for i in range(len(wp) - 1):
        dx, dy = wp[i + 1, 1] - wp[i, 1], wp[i + 1, 2] - wp[i, 2]
        moving = dx * dx + dy * dy > 1e-12
        seg_heading.append(math.atan2(dy, dx) if moving else seg_heading[-1])
    # Segment i is the one in progress while t < its end time; past the last
    # waypoint the last segment stays current.
    seg = np.minimum(np.searchsorted(wp[1:, 0], times, side="right"), max(len(wp) - 2, 0))
    th = np.asarray(seg_heading)[seg + 1] if len(wp) > 1 else np.zeros_like(times)
    return np.stack([x, y, th], axis=-1)


# -- closed-loop ------------------------------------------------------------

def check_scenario_run(scenario, trace) -> str:
    """Final pose within the goal tolerances and positive clearance at every tick."""
    if not trace.poses:
        return "empty trace"
    x, y, th = trace.poses[-1]
    g = scenario.goal
    pos_err = math.hypot(x - g.x, y - g.y)
    head_err = abs(float(wrap(th - g.theta)))
    if pos_err > scenario.goal_pos_tol or head_err > scenario.goal_heading_tol:
        return "final pose %.3f m / %.3f rad from goal" % (pos_err, head_err)
    poses = np.asarray(trace.poses, dtype=float)
    times = np.asarray(trace.times, dtype=float)
    robot = scenario.robot
    centers = cover_centers(robot.center_offsets, poses)
    gap = static_gaps(centers, robot.radius, scenario.static_obstacles)
    for mob in scenario.moving:
        other = cover_centers(mob.footprint.center_offsets, script_poses(mob.waypoints, times))
        gap = np.minimum(gap, circles_gap(centers, robot.radius, other, mob.footprint.radius))
    k = int(np.argmin(gap))
    if not gap[k] > 0.0:
        return "clearance %.4f m at t=%.2f" % (gap[k], times[k])
    return ""


# -- disk-queries -------------------------------------------------------------

def _pose_err(p, q) -> float:
    return max(math.hypot(p[0] - q[0], p[1] - q[1]), abs(float(wrap(p[2] - q[2]))))


def check_disk_path(path, start, goal, disks, robot, kappa_bound: float) -> str:
    """Endpoints, curve joins, curvature bound and dense disk clearance."""
    poses = [(p.x, p.y, p.theta) for p in path.poses]
    if len(path.curves) != len(poses) - 1 or len(poses) < 2:
        return "%d poses but %d curves" % (len(poses), len(path.curves))
    if _pose_err(poses[0], (start.x, start.y, start.theta)) > 1e-9:
        return "path does not start at the start pose"
    if _pose_err(poses[-1], (goal.x, goal.y, goal.theta)) > 1e-9:
        return "path does not end at the goal pose"
    dense = []
    for i, cv in enumerate(path.curves):
        coeffs = (cv.kappa0, cv.a, cv.b, cv.c)
        world = to_world(poses[i], curve_offsets(coeffs, cv.s_f))
        err = _pose_err(world[-1], poses[i + 1])
        if err > JOIN_TOL:
            return "curve %d lands %.2e from node %d" % (i, err, i + 1)
        km = kappa_max(coeffs, cv.s_f)
        if km > kappa_bound + KAPPA_TOL:
            return "curve %d reaches |kappa| %.6f > %.6f" % (i, km, kappa_bound)
        dense.append(world)
    dense = np.concatenate(dense)
    gap = static_gaps(cover_centers(robot.center_offsets, dense), robot.radius, disks)
    k = int(np.argmin(gap))
    if not gap[k] > 0.0:
        return "clearance %.4f m at (%.2f, %.2f)" % (gap[k], dense[k, 0], dense[k, 1])
    return ""


# -- timing-queries -----------------------------------------------------------

def predicted_covers(tracks, abs_times: np.ndarray):
    """[(centers (T, m, 2), radius)] of constant-velocity predictions of each track."""
    out = []
    for tr in tracks:
        x, y, vx, vy = (float(v) for v in tr.state)
        dt = abs_times - tr.last_update
        th = math.atan2(vy, vx) if math.hypot(vx, vy) > 0.1 else tr.last_heading
        poses = np.stack([x + vx * dt, y + vy * dt, np.full_like(dt, th)], axis=-1)
        out.append((cover_centers(tr.footprint.center_offsets, poses), tr.footprint.radius))
    return out


def check_trajectory(traj, query) -> str:
    """Timestamps, node-level v and a bounds, duration floor and dense clearance.

    ``query`` carries the constructed path's edge lengths and the tracks,
    statics, robot, t0 and limits the trajectory was planned for.
    """
    t = np.asarray(traj.timestamps, dtype=float)
    ds = np.asarray(query.edges, dtype=float)
    if len(t) != len(ds) + 1:
        return "%d timestamps for %d edges" % (len(t), len(ds))
    if t[0] != 0.0:
        return "first timestamp %.6g != 0" % t[0]
    dt = np.diff(t)
    if not np.all(dt > 0.0):
        return "timestamps not strictly increasing"
    if t[-1] < float(np.sum(ds)) / query.v_max - 1e-9:
        return "duration %.4f below length / v_max" % t[-1]
    v = ds / dt
    if np.max(v) > query.v_max + BOUND_TOL:
        return "node speed %.6f > v_max %.3f" % (np.max(v), query.v_max)
    a = np.diff(v) / dt[1:]
    if len(a) and np.max(np.abs(a)) > query.a_max + BOUND_TOL:
        return "node |a| %.6f > a_max %.3f" % (np.max(np.abs(a)), query.a_max)
    times = np.linspace(0.0, t[-1], int(math.ceil(t[-1] / DENSE_DT)) + 1)
    poses = np.array([[p.x, p.y, p.theta] for p in map(traj.pose_at, times)])
    robot = query.robot
    centers = cover_centers(robot.center_offsets, poses)
    gap = static_gaps(centers, robot.radius, query.statics)
    for other, radius in predicted_covers(query.tracks, query.t0 + times):
        gap = np.minimum(gap, circles_gap(centers, robot.radius, other, radius))
    k = int(np.argmin(gap))
    if not gap[k] > 0.0:
        return "clearance %.4f m at t=%.2f" % (gap[k], times[k])
    return ""
