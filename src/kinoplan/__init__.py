"""Kinodynamic trajectory planning for car-like robots.

Curve-library bidirectional RRT for geometry, safe-interval timestamp
optimization for dynamics, constant-velocity Kalman tracking for obstacle
prediction, and a deterministic scenario simulator tying them together.
"""

from .collision import (FootprintSpec, ObstacleShape, default_robot_footprint,
                        disc_radius, pose_in_collision)
from .geometry import (CurveLibrary, CurveParams, LibraryConfig, Pose,
                       build_curve_library, fit_curve)
from .rrt import Path, PlannerConfig, PlanResult, plan_path
from .scenarios import (Scenario, ScriptedObstacle, builtin_scenarios,
                        get_scenario, load_scenario, random_disk_world,
                        save_scenario)
from .simulator import TraceLog, export_artifacts, metrics, run_scenario
from .temporal import (SafeInterval, TemporalConfig, Trajectory,
                       compute_safe_intervals, optimize_timestamps,
                       select_interval_sequence, validate_trajectory)
from .tracking import Observation, ObstacleTrack, TrackStore

__version__ = "0.1.0"

__all__ = [
    "CurveLibrary", "CurveParams", "FootprintSpec", "LibraryConfig",
    "Observation", "ObstacleShape", "ObstacleTrack", "Path", "PlanResult",
    "PlannerConfig", "Pose", "SafeInterval", "Scenario", "ScriptedObstacle",
    "TemporalConfig", "TraceLog", "TrackStore", "Trajectory",
    "build_curve_library", "builtin_scenarios", "compute_safe_intervals",
    "default_robot_footprint", "disc_radius", "export_artifacts", "fit_curve",
    "get_scenario", "load_scenario", "metrics", "optimize_timestamps",
    "plan_path", "pose_in_collision", "random_disk_world", "run_scenario",
    "save_scenario", "select_interval_sequence", "validate_trajectory",
]
