"""Benchmark worlds: the five interaction scenarios, the random-disk world
for the sampling comparison, and a blocked-corridor world for the replan path.

Scenario geometry is chosen so each named interaction is forced, not merely
possible: the "follow" channel is too narrow for the robot beside the lead
car, the "wait" slot admits one vehicle at a time, and so on.  Dimensions are
documented inline; the interactions themselves are qualitative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .collision import FootprintSpec, ObstacleShape, default_robot_footprint
from .geometry import Pose


@dataclass
class ScriptedObstacle:
    """A moving obstacle following timed waypoints at piecewise constant velocity.

    Waypoints are (t, x, y) rows with strictly increasing t; the obstacle holds
    the first position before the first time and the last position afterwards.
    """

    id: int
    footprint: FootprintSpec
    waypoints: list[tuple[float, float, float]]

    def __post_init__(self):
        wp = np.asarray(self.waypoints, dtype=float)
        if wp.ndim != 2 or wp.shape[1] != 3 or len(wp) < 1:
            raise ValueError("waypoints must be (t, x, y) rows")
        if len(wp) > 1 and np.any(np.diff(wp[:, 0]) <= 0.0):
            raise ValueError("waypoint times must be strictly increasing")
        self._wp = wp

    def position_at(self, t: float) -> np.ndarray:
        wp = self._wp
        x = np.interp(t, wp[:, 0], wp[:, 1])
        y = np.interp(t, wp[:, 0], wp[:, 2])
        return np.array([x, y])

    def heading_at(self, t: float) -> float:
        """Direction of the active segment; earlier segments' heading is held
        across stationary stretches and past the last waypoint."""
        wp = self._wp
        heading = 0.0
        for i in range(len(wp) - 1):
            dx = wp[i + 1, 1] - wp[i, 1]
            dy = wp[i + 1, 2] - wp[i, 2]
            if dx * dx + dy * dy > 1e-12:
                heading = math.atan2(dy, dx)
            if t < wp[i + 1, 0]:
                break
        return heading

    def pose_at(self, t: float) -> Pose:
        p = self.position_at(t)
        return Pose(float(p[0]), float(p[1]), self.heading_at(t))


@dataclass
class Scenario:
    """A complete simulation setup: world, robot endpoints, scripted traffic."""

    name: str
    start: Pose
    goal: Pose
    bounds: tuple[float, float, float, float]  # xmin, ymin, xmax, ymax
    robot: FootprintSpec = field(default_factory=default_robot_footprint)
    static_obstacles: list[ObstacleShape] = field(default_factory=list)
    moving: list[ScriptedObstacle] = field(default_factory=list)
    v_max: float = 2.0
    a_max: float = 1.0
    horizon: float = 60.0
    sim_dt: float = 0.05
    perception_dt: float = 0.1
    obs_noise: float = 0.05
    time_limit: float = 90.0
    goal_pos_tol: float = 0.5
    goal_heading_tol: float = 0.2


def _wall(x0: float, y0: float, x1: float, y1: float) -> ObstacleShape:
    return ObstacleShape.polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


_CAR = FootprintSpec.from_dimensions(4.0, 2.0)
_PED = FootprintSpec.from_dimensions(0.6, 0.6, single_circle=True)


def cross_scenario() -> Scenario:
    """A car crosses the robot's corridor through a gap at x = 12, moving -y.

    Corridor walls keep the robot within |y| <= 2.5, so it has to pass through
    the intersection rather than swing around it.
    """
    walls = [
        _wall(-4.0, 2.5, 10.0, 5.0), _wall(14.0, 2.5, 30.0, 5.0),
        _wall(-4.0, -5.0, 10.0, -2.5), _wall(14.0, -5.0, 30.0, -2.5),
    ]
    car = ScriptedObstacle(0, _CAR, [(0.0, 12.0, 10.0), (20.0, 12.0, -20.0)])
    return Scenario(
        name="cross",
        start=Pose(0.0, 0.0, 0.0),
        goal=Pose(24.0, 0.0, 0.0),
        bounds=(-6.0, -8.0, 30.0, 20.0),
        static_obstacles=walls,
        moving=[car],
        time_limit=60.0,
    )


def overtake_scenario() -> Scenario:
    """A slow car (0.4 m/s) ahead in a wide corridor; room to pass beside it."""
    car = ScriptedObstacle(0, _CAR, [(0.0, 6.0, 0.0), (80.0, 38.0, 0.0)])
    return Scenario(
        name="overtake",
        start=Pose(-2.0, 0.0, 0.0),
        goal=Pose(30.0, 0.0, 0.0),
        bounds=(-8.0, -8.0, 36.0, 8.0),
        moving=[car],
        time_limit=90.0,
    )


def bypass_scenario() -> Scenario:
    """A parked car intrudes into the lane; a pedestrian crosses further on."""
    parked = ObstacleShape.footprint_at(FootprintSpec.from_dimensions(4.2, 1.9),
                                        Pose(14.0, 0.8, 0.15))
    ped = ScriptedObstacle(0, _PED, [(0.0, 24.0, -6.0), (24.0, 24.0, 6.0)])
    return Scenario(
        name="bypass",
        start=Pose(0.0, 0.0, 0.0),
        goal=Pose(30.0, 0.0, 0.0),
        bounds=(-6.0, -8.0, 36.0, 8.0),
        static_obstacles=[parked],
        moving=[ped],
        time_limit=60.0,
    )


def follow_scenario() -> Scenario:
    """Lead car at 0.8 m/s inside a 4 m channel: no room to overtake.

    Channel width 4.0 < robot width-cover (2.44) + car cover (2.40), so two
    vehicles cannot be abreast; the robot alone fits with 0.78 m of slack.
    """
    walls = [_wall(2.0, 2.0, 30.0, 6.0), _wall(2.0, -6.0, 30.0, -2.0)]
    car = ScriptedObstacle(0, _CAR, [(0.0, 6.0, 0.0), (50.0, 46.0, 0.0)])
    return Scenario(
        name="follow",
        start=Pose(-1.0, 0.0, 0.0),
        goal=Pose(27.0, 0.0, 0.0),
        bounds=(-6.0, -8.0, 34.0, 8.0),
        static_obstacles=walls,
        moving=[car],
        time_limit=90.0,
    )


def wait_scenario() -> Scenario:
    """Oncoming car occupies a single-vehicle slot; the robot must let it out.

    Slot width 4.4 over x in [12, 18]: enough for one vehicle with slack, but
    under the 4.84 m two vehicles abreast would need.  The car drives through
    toward the robot, then turns off the corridor once clear of the slot.
    """
    walls = [_wall(12.0, 2.2, 18.0, 10.0), _wall(12.0, -10.0, 18.0, -2.2)]
    car = ScriptedObstacle(0, _CAR, [
        (0.0, 27.0, 0.0),
        (17.0, 10.0, 0.0),
        (24.0, 5.0, -5.0),
        (45.0, -16.0, -5.0),
    ])
    return Scenario(
        name="wait",
        start=Pose(0.0, 0.0, 0.0),
        goal=Pose(26.0, 0.0, 0.0),
        bounds=(-4.0, -10.0, 32.0, 10.0),
        static_obstacles=walls,
        moving=[car],
        time_limit=90.0,
    )


def blocked_corridor_scenario() -> Scenario:
    """A car drives into the near opening of a wall and stops there for good.

    The wall at x in [14, 16] has two openings: A at y in [-2.5, 2.5] (on the
    robot's line) and B at y in [4.5, 9.5].  The stopped car permanently blocks
    A, so reaching the goal requires replanning through B.
    """
    walls = [
        _wall(14.0, -12.0, 16.0, -2.5),
        _wall(14.0, 2.5, 16.0, 4.5),
        _wall(14.0, 9.5, 16.0, 14.0),
    ]
    car = ScriptedObstacle(0, _CAR, [(0.0, 24.0, 0.0), (6.0, 15.0, 0.0),
                                     (1000.0, 15.0, 0.0)])
    return Scenario(
        name="blocked",
        start=Pose(0.0, 0.0, 0.0),
        goal=Pose(28.0, 0.0, 0.0),
        bounds=(-6.0, -12.0, 34.0, 14.0),
        static_obstacles=walls,
        moving=[car],
        time_limit=90.0,
    )


def builtin_scenarios() -> list[Scenario]:
    return [cross_scenario(), overtake_scenario(), bypass_scenario(),
            follow_scenario(), wait_scenario()]


def get_scenario(name: str) -> Scenario:
    extra = {"blocked": blocked_corridor_scenario}
    for sc in builtin_scenarios():
        if sc.name == name:
            return sc
    if name in extra:
        return extra[name]()
    raise KeyError(f"unknown scenario {name!r}")


def random_disk_world(seed: int, start_heading: float = 0.0):
    """The quantitative-benchmark world: 15 random disks between fixed endpoints.

    Start (0, 0, start_heading), goal (20, 20, 45 deg), disk radii in
    [0.5, 2.0].  Disks keep 5 m of clearance from both endpoints so the car is
    never boxed in at spawn.  Returns (static_obstacles, start, goal, bounds).
    """
    rng = np.random.default_rng(seed)
    start = Pose(0.0, 0.0, start_heading)
    goal = Pose(20.0, 20.0, math.pi / 4.0)
    bounds = (-8.0, -8.0, 28.0, 28.0)
    disks = []
    while len(disks) < 15:
        x = rng.uniform(-3.0, 23.0)
        y = rng.uniform(-3.0, 23.0)
        r = rng.uniform(0.5, 2.0)
        if math.hypot(x - start.x, y - start.y) < r + 5.0:
            continue
        if math.hypot(x - goal.x, y - goal.y) < r + 5.0:
            continue
        disks.append(ObstacleShape.disk(x, y, r))
    return disks, start, goal, bounds


def save_scenario(scenario: Scenario, path) -> None:
    """Flat text form; see load_scenario for the schema."""
    lines = [
        f"name {scenario.name}",
        "bounds %g %g %g %g" % scenario.bounds,
        "start %.17g %.17g %.17g" % (scenario.start.x, scenario.start.y, scenario.start.theta),
        "goal %.17g %.17g %.17g" % (scenario.goal.x, scenario.goal.y, scenario.goal.theta),
        "robot %.17g %.17g" % (scenario.robot.length, scenario.robot.width),
    ]
    for key in ("v_max", "a_max", "horizon", "sim_dt", "perception_dt",
                "obs_noise", "time_limit", "goal_pos_tol", "goal_heading_tol"):
        lines.append("%s %.17g" % (key, getattr(scenario, key)))
    for obs in scenario.static_obstacles:
        if obs.kind == "disk":
            lines.append("disk %.17g %.17g %.17g" % (obs.center[0], obs.center[1], obs.radius))
        elif obs.kind == "polygon":
            flat = " ".join("%.17g" % v for xy in obs.vertices for v in xy)
            lines.append("polygon " + flat)
        elif obs.kind == "footprint":
            lines.append("parked %.17g %.17g %.17g %.17g %.17g" % (
                obs.footprint.length, obs.footprint.width,
                obs.pose.x, obs.pose.y, obs.pose.theta))
    for mob in scenario.moving:
        single = 1 if mob.footprint.mode == "one-circle" and \
            mob.footprint.length / mob.footprint.width < 1.3 else 0
        lines.append("obstacle %d %.17g %.17g %d" % (
            mob.id, mob.footprint.length, mob.footprint.width, single))
        for t, x, y in mob.waypoints:
            lines.append("waypoint %d %.17g %.17g %.17g" % (mob.id, t, x, y))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_scenario(path) -> Scenario:
    """Parse the flat text schema written by save_scenario.

    Lines are "keyword args..."; '#' starts a comment.  Parse errors carry the
    file name and line number.
    """
    kwargs: dict = {"static_obstacles": [], "moving": []}
    obstacles: dict[int, tuple[FootprintSpec, list]] = {}
    floats = {"v_max", "a_max", "horizon", "sim_dt", "perception_dt",
              "obs_noise", "time_limit", "goal_pos_tol", "goal_heading_tol"}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, *args = line.split()
            try:
                if key == "name":
                    kwargs["name"] = args[0]
                elif key == "bounds":
                    kwargs["bounds"] = tuple(float(a) for a in args)
                    if len(kwargs["bounds"]) != 4:
                        raise ValueError("bounds needs 4 numbers")
                elif key in ("start", "goal"):
                    x, y, th = (float(a) for a in args)
                    kwargs[key] = Pose(x, y, th)
                elif key == "robot":
                    l, w = (float(a) for a in args)
                    kwargs["robot"] = FootprintSpec.from_dimensions(l, w)
                elif key in floats:
                    kwargs[key] = float(args[0])
                elif key == "disk":
                    x, y, r = (float(a) for a in args)
                    kwargs["static_obstacles"].append(ObstacleShape.disk(x, y, r))
                elif key == "polygon":
                    vals = [float(a) for a in args]
                    if len(vals) % 2 or len(vals) < 6:
                        raise ValueError("polygon needs >= 3 x,y pairs")
                    verts = list(zip(vals[0::2], vals[1::2]))
                    kwargs["static_obstacles"].append(ObstacleShape.polygon(verts))
                elif key == "parked":
                    l, w, x, y, th = (float(a) for a in args)
                    kwargs["static_obstacles"].append(ObstacleShape.footprint_at(
                        FootprintSpec.from_dimensions(l, w), Pose(x, y, th)))
                elif key == "obstacle":
                    oid = int(args[0])
                    l, w = float(args[1]), float(args[2])
                    single = bool(int(args[3])) if len(args) > 3 else False
                    fp = FootprintSpec.from_dimensions(l, w, single_circle=single)
                    obstacles[oid] = (fp, [])
                elif key == "waypoint":
                    oid = int(args[0])
                    if oid not in obstacles:
                        raise ValueError(f"waypoint before obstacle {oid}")
                    t, x, y = (float(a) for a in args[1:4])
                    obstacles[oid][1].append((t, x, y))
                else:
                    raise ValueError(f"unknown keyword {key!r}")
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    for oid in sorted(obstacles):
        fp, wps = obstacles[oid]
        kwargs["moving"].append(ScriptedObstacle(oid, fp, wps))
    missing = {"name", "bounds", "start", "goal"} - set(kwargs)
    if missing:
        raise ValueError(f"{path}: missing required keys {sorted(missing)}")
    return Scenario(**kwargs)
