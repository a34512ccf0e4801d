"""Footprint modeling and point-in-time collision predicates.

The rectangular vehicle footprint is covered by one circle (near-square
footprints, l/w < 1.3) or three overlapped circles along the body axis
(l/w >= 1.3).  Both covers contain the full rectangle, so the predicates are
conservative.  All checks are pure functions over immutable snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import CurveParams, Pose, local_curve_samples


def disc_radius(l: float, w: float) -> float:
    """Covering-circle radius for a rectangle of length l and width w."""
    if not (0.0 < l < math.inf and 0.0 < w < math.inf):
        raise ValueError(f"footprint dimensions must be positive and finite, got {l} x {w}")
    if l / w < 1.3:
        return math.sqrt((l * l + w * w) / 4.0)
    return math.sqrt((l * l + 9.0 * w * w) / 36.0)


@dataclass(frozen=True)
class FootprintSpec:
    """Rectangular footprint plus its circle-cover parameters."""

    length: float
    width: float
    mode: str  # "one-circle" | "three-circle"
    radius: float
    center_offsets: tuple[float, ...]

    @classmethod
    def from_dimensions(cls, length: float, width: float, single_circle: bool = False) -> "FootprintSpec":
        """Build the spec per the aspect-ratio rule; ``single_circle`` forces
        the one-circle cover (pedestrians)."""
        radius = disc_radius(length, width)
        if single_circle or length / width < 1.3:
            if single_circle:
                radius = math.sqrt(length**2 + width**2) / 2.0
            return cls(length, width, "one-circle", radius, (0.0,))
        return cls(length, width, "three-circle", radius, (-length / 3.0, 0.0, length / 3.0))


def default_robot_footprint() -> FootprintSpec:
    """Default car-sized footprint (4.6 m x 1.9 m, three-circle cover)."""
    return FootprintSpec.from_dimensions(4.6, 1.9)


def _cover(spec: FootprintSpec, x, y, c, s) -> np.ndarray:
    """Cover circle centers at position (x, y) with heading cosine c and sine s;
    (N, 1) columns give shape (N, k, 2)."""
    offs = np.asarray(spec.center_offsets)
    return np.stack([x + c * offs, y + s * offs], axis=-1)


def footprint_circles(spec: FootprintSpec, pose: Pose) -> np.ndarray:
    """Circle centers of the cover at ``pose``; shape (k, 2), common radius spec.radius."""
    return _cover(spec, pose.x, pose.y, math.cos(pose.theta), math.sin(pose.theta))


def footprint_circles_batch(spec: FootprintSpec, poses: np.ndarray) -> np.ndarray:
    """Circle centers for an (N, 3) pose array; shape (N, k, 2)."""
    return _cover(spec, poses[:, 0:1], poses[:, 1:2], np.cos(poses[:, 2])[:, None],
                  np.sin(poses[:, 2])[:, None])


def footprint_circles_each(spec: FootprintSpec, poses) -> np.ndarray:
    """``footprint_circles`` of each (x, y, theta) row, to the bit, stacked (N, k, 2).

    Unlike ``footprint_circles_batch`` it takes cos and sin from ``math``, as
    ``footprint_circles`` does, so the result never depends on how numpy
    vectorises them.
    """
    xyt = np.asarray(poses, dtype=float).reshape(-1, 3)
    c = np.array([math.cos(th) for th in xyt[:, 2].tolist()])[:, None]
    s = np.array([math.sin(th) for th in xyt[:, 2].tolist()])[:, None]
    return _cover(spec, xyt[:, 0:1], xyt[:, 1:2], c, s)


@dataclass(frozen=True)
class ObstacleShape:
    """A static obstacle: disk, simple polygon, or a footprint at a fixed pose."""

    kind: str  # "disk" | "polygon" | "footprint"
    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 0.0
    vertices: tuple[tuple[float, float], ...] = ()
    footprint: FootprintSpec | None = None
    pose: Pose | None = None

    @classmethod
    def disk(cls, x: float, y: float, radius: float) -> "ObstacleShape":
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"disk center must be finite, got ({x}, {y})")
        if not 0.0 < radius < math.inf:
            raise ValueError(f"disk radius must be positive and finite, got {radius}")
        return cls(kind="disk", center=(x, y), radius=radius)

    @classmethod
    def polygon(cls, vertices) -> "ObstacleShape":
        verts = tuple((float(x), float(y)) for x, y in vertices)
        if len(verts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if not all(math.isfinite(v) for xy in verts for v in xy):
            raise ValueError("polygon vertices must be finite")
        return cls(kind="polygon", vertices=verts)

    @classmethod
    def footprint_at(cls, spec: FootprintSpec, pose: Pose) -> "ObstacleShape":
        if not all(math.isfinite(v) for v in (pose.x, pose.y, pose.theta)):
            raise ValueError(f"footprint pose must be finite, got {pose}")
        return cls(kind="footprint", footprint=spec, pose=pose)


@lru_cache(maxsize=1024)
def polygon_edges(vertices: tuple[tuple[float, float], ...]) -> tuple[np.ndarray, ...]:
    """Edge arrays (x1, y1, y2, abx, aby, denom) of a closed polygon.

    Edge i runs from a = vertex i to b = vertex i + 1 (mod n); (abx, aby) is
    b - a and denom is ``ab @ ab`` floored at 1e-12, computed per edge.
    Cached on the vertex tuple, so each polygon is converted once; the shared
    arrays are read-only.
    """
    a = np.asarray(vertices, dtype=float)
    b = np.roll(a, -1, axis=0)
    ab = b - a
    denom = np.array([max(float(e @ e), 1e-12) for e in ab])
    edges = (a[:, 0], a[:, 1], b[:, 1], ab[:, 0], ab[:, 1], denom)
    for arr in edges:
        arr.flags.writeable = False
    return edges


def _edge_crossings(px, py, edges) -> np.ndarray:
    """Whether the rightward ray from each point crosses each edge of
    ``polygon_edges``; px/py broadcastable arrays, result shape (..., E)."""
    x1, y1, y2, abx, aby, _ = edges
    px = np.asarray(px)[..., None]
    py = np.asarray(py)[..., None]
    cond = (y1 > py) != (y2 > py)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xint = x1 + (py - y1) * abx / aby
    return cond & (px < xint)


def _edge_distances(px, py, edges) -> np.ndarray:
    """Distance from each point to each edge of ``polygon_edges``; shape (..., E)."""
    x1, y1, _, abx, aby, denom = edges
    px = np.asarray(px)[..., None]
    py = np.asarray(py)[..., None]
    t = ((px - x1) * abx + (py - y1) * aby) / denom
    t = np.clip(t, 0.0, 1.0)
    dx = x1 + t * abx - px
    dy = y1 + t * aby - py
    return np.hypot(dx, dy)


def _point_in_polygon(px, py, edges) -> np.ndarray:
    """Even-odd rule over ``polygon_edges``; px/py broadcastable arrays."""
    return np.logical_xor.reduce(_edge_crossings(px, py, edges), axis=-1)


def _dist_to_polygon(px, py, edges) -> np.ndarray:
    """Distance from points to the boundary given by ``polygon_edges`` (0 if on it)."""
    return np.min(_edge_distances(px, py, edges), axis=-1)


def circles_hit_obstacle(centers: np.ndarray, radius: float, obstacle: ObstacleShape,
                         margin: float = 0.0) -> np.ndarray:
    """Whether each of the leading-axis circle sets intersects the obstacle.

    ``centers`` has shape (..., k, 2); the result collapses the k axis with any().
    """
    if obstacle.kind == "disk":
        d = np.hypot(centers[..., 0] - obstacle.center[0], centers[..., 1] - obstacle.center[1])
        return np.any(d <= radius + obstacle.radius + margin, axis=-1)
    if obstacle.kind == "polygon":
        edges = polygon_edges(obstacle.vertices)
        px, py = centers[..., 0], centers[..., 1]
        hit = _point_in_polygon(px, py, edges) | (_dist_to_polygon(px, py, edges) <= radius + margin)
        return np.any(hit, axis=-1)
    if obstacle.kind == "footprint":
        oc = footprint_circles(obstacle.footprint, obstacle.pose)  # (m, 2)
        d = np.linalg.norm(centers[..., :, None, :] - oc[None, :, :], axis=-1)
        return np.any(d <= radius + obstacle.footprint.radius + margin, axis=(-2, -1))
    raise ValueError(f"unknown obstacle kind {obstacle.kind!r}")


def circle_gaps(centers: np.ndarray, radius: float, others: np.ndarray,
                other_radius: float) -> np.ndarray:
    """Least gap between the circles (..., k, 2) of ``radius`` and the circles
    (..., m, 2) of ``other_radius``, per leading index (negative on overlap).
    The leading axes broadcast."""
    d = np.linalg.norm(centers[..., :, None, :] - others[..., None, :, :], axis=-1)
    return np.min(d, axis=(-2, -1)) - radius - other_radius


def clearance_to_obstacle(centers: np.ndarray, radius: float, obstacle: ObstacleShape):
    """Minimum gap between any cover circle and the obstacle (negative when overlapping).

    ``centers`` has shape (..., k, 2): one (k, 2) set gives a float, stacked
    sets an array over the leading axes.
    """
    if obstacle.kind == "disk":
        d = np.hypot(centers[..., 0] - obstacle.center[0], centers[..., 1] - obstacle.center[1])
        clear = np.min(d, axis=-1) - radius - obstacle.radius
    elif obstacle.kind == "polygon":
        edges = polygon_edges(obstacle.vertices)
        px, py = centers[..., 0], centers[..., 1]
        d = _dist_to_polygon(px, py, edges)
        d = np.where(_point_in_polygon(px, py, edges), -d, d)
        clear = np.min(d, axis=-1) - radius
    elif obstacle.kind == "footprint":
        clear = circle_gaps(centers, radius, footprint_circles(obstacle.footprint, obstacle.pose),
                            obstacle.footprint.radius)
    else:
        raise ValueError(f"unknown obstacle kind {obstacle.kind!r}")
    return float(clear) if clear.ndim == 0 else clear


@lru_cache(maxsize=64)
def _polygon_stack(obstacles: tuple[ObstacleShape, ...]):
    """The polygons of ``obstacles`` as one edge set, and the other obstacles.

    Returns (edges, starts, others): the ``polygon_edges`` arrays of every
    polygon concatenated in order, the index of each polygon's first edge, and
    the tuple of non-polygon obstacles.  Cached on the obstacle tuple; the
    shared arrays are read-only.
    """
    per = [polygon_edges(o.vertices) for o in obstacles if o.kind == "polygon"]
    others = tuple(o for o in obstacles if o.kind != "polygon")
    if not per:
        return None, None, others
    edges = tuple(np.concatenate(col) for col in zip(*per))
    starts = np.cumsum([0] + [len(e[0]) for e in per[:-1]])
    for arr in edges + (starts,):
        arr.flags.writeable = False
    return edges, starts, others


def min_clearance(centers: np.ndarray, radius: float, obstacles: tuple[ObstacleShape, ...]):
    """``min(clearance_to_obstacle(centers, radius, o) for o in obstacles)``, bit for bit.

    ``centers`` has shape (..., k, 2): one (k, 2) set gives a float, stacked
    sets an array over the leading axes (each entry the bits of its own set's
    float); an empty tuple gives math.inf.  All polygons are evaluated in one
    pass over their stacked edges with the polygon kernels'
    ``_edge_distances``/``_edge_crossings``, reduced per polygon with
    ``reduceat``.  Since fl(x - r) is monotone in x, the minimum over polygons
    of (min d - r) is (min d) - r.  Disks and footprints go through
    ``clearance_to_obstacle`` one by one.
    """
    edges, starts, others = _polygon_stack(obstacles)
    clear = np.full(centers.shape[:-2], math.inf)
    if edges is not None:
        px, py = centers[..., 0], centers[..., 1]
        d = np.minimum.reduceat(_edge_distances(px, py, edges), starts, axis=-1)
        inside = np.logical_xor.reduceat(_edge_crossings(px, py, edges), starts, axis=-1)
        clear = np.min(np.where(inside, -d, d), axis=(-2, -1)) - radius
    for obs in others:
        clear = np.minimum(clear, clearance_to_obstacle(centers, radius, obs))
    return float(clear) if clear.ndim == 0 else clear


def pose_in_collision(spec: FootprintSpec, pose: Pose, obstacles, margin: float = 0.0) -> bool:
    """True iff any footprint circle intersects any obstacle in the snapshot."""
    centers = footprint_circles(spec, pose)[None, :, :]
    for obs in obstacles:
        if bool(circles_hit_obstacle(centers, spec.radius, obs, margin)[0]):
            return True
    return False


def poses_in_collision(spec: FootprintSpec, poses: np.ndarray, obstacles,
                       margin: float = 0.0) -> np.ndarray:
    """Vectorized pose_in_collision for an (N, 3) pose array; returns (N,) bools."""
    poses = np.asarray(poses, dtype=float)
    centers = footprint_circles_batch(spec, poses)
    hit = np.zeros(len(poses), dtype=bool)
    for obs in obstacles:
        hit |= circles_hit_obstacle(centers, spec.radius, obs, margin)
    return hit


def curve_in_collision(spec: FootprintSpec, params: CurveParams, base: Pose, obstacles,
                       ds: float, margin: float = 0.0) -> bool:
    """True iff any sampled pose along the curve collides with the obstacle set."""
    if ds > spec.radius:
        raise ValueError("ds must not exceed the footprint circle radius")
    offsets = np.asarray(local_curve_samples(params, ds))
    c, s = math.cos(base.theta), math.sin(base.theta)
    poses = np.empty_like(offsets)
    poses[:, 0] = base.x + c * offsets[:, 0] - s * offsets[:, 1]
    poses[:, 1] = base.y + s * offsets[:, 0] + c * offsets[:, 1]
    poses[:, 2] = base.theta + offsets[:, 2]
    return bool(np.any(poses_in_collision(spec, poses, obstacles, margin)))
