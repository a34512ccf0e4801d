"""Benchmark worlds: the five interaction scenarios, the random-disk world
for the sampling comparison, and a blocked-corridor world for the replan path.

Scenario geometry is chosen so each named interaction is forced, not merely
possible: the "follow" channel is too narrow for the robot beside the lead
car, the "wait" slot admits one vehicle at a time, and so on.  Dimensions are
documented inline; the interactions themselves are qualitative.
"""

from __future__ import annotations

import math
import typing
from dataclasses import MISSING, dataclass, field, fields
from functools import partial

import numpy as np

from . import configfile
from .collision import FootprintSpec, ObstacleShape, default_robot_footprint
from .geometry import Pose, checked_pose, normalize_angle


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
        if not np.all(np.isfinite(wp)):
            raise ValueError("waypoints must be finite")
        if len(wp) > 1 and np.any(np.diff(wp[:, 0]) <= 0.0):
            raise ValueError("waypoint times must be strictly increasing")
        # Contiguous columns: np.interp would copy a column view at every call.
        self._t, self._x, self._y = (wp[:, j].copy() for j in range(3))
        # Row k is the heading held from t[k] until t[k + 1] (row 0 also
        # before, the last row also after): the direction of the last moving
        # segment up to the one that starts at t[k], else 0.0.  A time's row
        # is its right-side ``searchsorted`` into the times after the first.
        rows, heading, held = wp.tolist(), 0.0, []
        for (_, x0, y0), (_, x1, y1) in zip(rows, rows[1:]):
            dx, dy = x1 - x0, y1 - y0
            if dx * dx + dy * dy > 1e-12:
                heading = math.atan2(dy, dx)
            held.append(heading)
        self._wrapped = np.array([normalize_angle(h) for h in (*held, heading)])

    def position_at(self, t: float) -> np.ndarray:
        return np.array([np.interp(t, self._t, self._x), np.interp(t, self._t, self._y)])

    def pose_at(self, t: float) -> Pose:
        """The position at ``t`` and the direction of the active segment; an
        earlier segment's heading is held across stationary stretches and past
        the last waypoint."""
        return Pose(*self.poses_at([t])[0])

    def poses_at(self, times) -> list[tuple[float, float, float]]:
        """``pose_at`` of each time as an (x, y, theta) tuple: one
        ``np.interp`` per axis and one lookup of the wrapped headings over all
        the times."""
        rows = np.searchsorted(self._t[1:], times, side="right")
        return list(zip(np.interp(times, self._t, self._x).tolist(),
                        np.interp(times, self._t, self._y).tolist(),
                        self._wrapped[rows].tolist()))


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

    def __post_init__(self):
        configfile.check_fields(self)
        ids = [mob.id for mob in self.moving]
        if len(set(ids)) != len(ids):
            raise ValueError(f"moving obstacle ids must be distinct, got {ids}")


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


# Each named world's constructor: the five interaction scenarios, then
# "blocked", which ``get_scenario`` builds but ``builtin_scenarios`` leaves out.
_SCENARIOS = {"cross": cross_scenario, "overtake": overtake_scenario,
              "bypass": bypass_scenario, "follow": follow_scenario, "wait": wait_scenario,
              "blocked": blocked_corridor_scenario}


def builtin_scenarios() -> list[Scenario]:
    return [make() for name, make in _SCENARIOS.items() if name != "blocked"]


def get_scenario(name: str) -> Scenario:
    if name not in _SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}")
    return _SCENARIOS[name]()


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


def _floats(args, n: int) -> list[float]:
    if len(args) != n:
        raise ValueError(f"expected {n} numbers, got {len(args)}")
    return [float(a) for a in args]


def _read_footprint(args) -> FootprintSpec:
    length, width, *rest = args
    [single] = rest or ["0"]
    return FootprintSpec.from_dimensions(float(length), float(width),
                                         single_circle=bool(int(single)))


def _footprint_args(fp: FootprintSpec) -> tuple:
    """Length and width, plus 1 where the cover is forced to one circle."""
    args = (fp.length, fp.width)
    return args if fp == FootprintSpec.from_dimensions(*args) else (*args, 1)


def _parked_args(obs: ObstacleShape) -> tuple:
    length, width, *single = _footprint_args(obs.footprint)
    return (length, width, obs.pose.x, obs.pose.y, obs.pose.theta, *single)


def _read_pose(args) -> tuple[float, float, float]:
    """X Y THETA, left as numbers: ``checked_pose`` builds the Pose."""
    return tuple(_floats(args, 3))


def _read_parked(args) -> ObstacleShape:
    return ObstacleShape.footprint_at(_read_footprint(args[:2] + args[5:]), _read_pose(args[2:5]))


_POSE = (_read_pose, lambda pose: (pose.x, pose.y, pose.theta))
# The scenario file schema, keyword -> (read its arguments, write them back).
# One "keyword args..." line each; '#' starts a comment.  A str or float field
# of Scenario is written under its own name ("name cross", "v_max 2"); then
# bounds XMIN YMIN XMAX YMAX, start/goal X Y THETA, robot L W [1]; one static
# obstacle per disk X Y R, polygon X1 Y1 X2 Y2 X3 Y3 ... or parked L W X Y THETA [1]
# line; obstacle ID L W [1], then waypoint ID T X Y per point of its script.
# The optional 1 forces the footprint's one-circle cover.
_KEYWORDS = {
    **{name: (partial(configfile.cast, tp), lambda v: (v,))
       for name, tp in typing.get_type_hints(Scenario).items() if tp in (float, str)},
    "bounds": (lambda args: tuple(_floats(args, 4)), tuple),
    "start": _POSE,
    "goal": _POSE,
    "robot": (_read_footprint, _footprint_args),
    "disk": (lambda args: ObstacleShape.disk(*_floats(args, 3)),
             lambda obs: (*obs.center, obs.radius)),
    "polygon": (lambda args: ObstacleShape.polygon(np.reshape([float(a) for a in args], (-1, 2))),
                lambda obs: [v for xy in obs.vertices for v in xy]),
    "parked": (_read_parked, _parked_args),
    "obstacle": (lambda args: (int(args[0]), _read_footprint(args[1:])),
                 lambda mob: (mob.id, *_footprint_args(mob.footprint))),
    "waypoint": (lambda args: (int(args[0]), tuple(_floats(args[1:], 3))), lambda row: row),
}
_READERS = {key: read for key, (read, _) in _KEYWORDS.items()}


def _line(key: str, value) -> str:
    args = _KEYWORDS[key][1](value)
    return " ".join([key, *(a if isinstance(a, str) else "%.17g" % a for a in args)])


def save_scenario(scenario: Scenario, path) -> None:
    """One line per ``_KEYWORDS`` entry used, numbers to 17 significant digits."""
    lines = [_line(f.name, getattr(scenario, f.name))
             for f in fields(Scenario) if f.name in _KEYWORDS]
    for obs in scenario.static_obstacles:
        lines.append(_line("parked" if obs.kind == "footprint" else obs.kind, obs))
    for mob in scenario.moving:
        lines.append(_line("obstacle", mob))
        lines += [_line("waypoint", (mob.id, *row)) for row in mob.waypoints]
    configfile.write_lines(path, lines)


def load_scenario(path) -> Scenario:
    """Parse the schema written by save_scenario.  Errors name the file and,
    where one line is at fault, its number (a moving obstacle's ``obstacle``
    line for an error in its script; both lines for a key set twice)."""
    kwargs: dict = {"static_obstacles": [], "moving": []}
    obstacles: dict[int, tuple[int, FootprintSpec, list]] = {}
    set_on: dict[str, int] = {}  # the line of each scalar key read
    for lineno, (key, *args) in configfile.read_lines(path):
        with configfile.at_line(path, lineno):
            if key in set_on:
                raise ValueError(f"{key} already set on line {set_on[key]}")
            value = configfile.parse_field(_READERS, key, args)
            if isinstance(value, ObstacleShape):
                kwargs["static_obstacles"].append(value)
            elif key == "obstacle":
                oid, footprint = value
                if oid in obstacles:
                    raise ValueError(f"obstacle {oid} already defined on line {obstacles[oid][0]}")
                obstacles[oid] = (lineno, footprint, [])
            elif key == "waypoint":
                oid, row = value
                if oid not in obstacles:
                    raise ValueError(f"waypoint before obstacle {oid}")
                obstacles[oid][2].append(row)
            else:
                kwargs[key] = checked_pose(key, value) if key in ("start", "goal") else value
                set_on[key] = lineno
    for oid in sorted(obstacles):
        lineno, footprint, rows = obstacles[oid]
        with configfile.at_line(path, lineno):
            kwargs["moving"].append(ScriptedObstacle(oid, footprint, rows))
    with configfile.at_line(path):
        missing = [f.name for f in fields(Scenario) if f.name not in kwargs
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ValueError(f"missing required keys {missing}")
        return Scenario(**kwargs)
