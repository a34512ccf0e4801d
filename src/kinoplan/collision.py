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

# Widening of the broad-phase bounds (``curve_in_collision`` and
# ``temporal.predicted_hits``) past floating-point rounding and, for curves,
# quadrature error, m.
SCREEN_SLACK = 1e-6


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
    xs = x + c * offs
    out = np.empty(xs.shape + (2,))
    out[..., 0] = xs
    out[..., 1] = y + s * offs
    return out


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


def _pair_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each center of ``a`` (..., k, 2) to each of ``b`` (..., m, 2),
    shape (..., k, m), leading axes broadcast; the bits of ``np.linalg.norm``."""
    dx = a[..., :, None, 0] - b[..., None, :, 0]
    dy = a[..., :, None, 1] - b[..., None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


@lru_cache(maxsize=64)
def _world(obstacles: tuple[ObstacleShape, ...]):
    """``obstacles`` as (edges, starts, centers, radii, bounds): the
    ``polygon_edges`` of every polygon concatenated (None without polygons)
    with each polygon's first edge index, the (m, 2) centers and (m,) radii of
    every disk and parked-footprint cover circle, and ``bounds``, one
    (xmin, ymin, xmax, ymax, r) float tuple per polygon (its bounding box,
    r = 0) and per circle (its center, r its radius) for the broad phase of
    ``curve_in_collision``.  The only place that tells obstacle kinds apart.
    Cached on the obstacle tuple; the shared arrays are read-only."""
    per, centers, radii, boxes = [], [], [], []
    for obs in obstacles:
        if obs.kind == "polygon":
            per.append(polygon_edges(obs.vertices))
            xs, ys = zip(*obs.vertices)
            boxes.append((min(xs), min(ys), max(xs), max(ys), 0.0))
        elif obs.kind == "disk":
            centers.append(obs.center)
            radii.append(obs.radius)
        elif obs.kind == "footprint":
            cover = footprint_circles(obs.footprint, obs.pose)
            centers.extend(cover.tolist())
            radii.extend([obs.footprint.radius] * len(cover))
        else:
            raise ValueError(f"unknown obstacle kind {obs.kind!r}")
    edges = starts = None
    if per:
        edges = tuple(np.concatenate(col) for col in zip(*per))
        starts = np.cumsum([0] + [len(e[0]) for e in per[:-1]])
    bounds = tuple(boxes) + tuple((x, y, x, y, r) for (x, y), r in zip(centers, radii))
    centers = np.array(centers, dtype=float).reshape(-1, 2)
    radii = np.array(radii, dtype=float)
    for arr in (edges + (starts,) if per else ()) + (centers, radii):
        arr.flags.writeable = False
    return edges, starts, centers, radii, bounds


def _polygon_pass(centers: np.ndarray, edges, starts) -> tuple[np.ndarray, np.ndarray]:
    """Boundary distance and even-odd inside test of each center (..., k, 2)
    against each polygon of a ``_world`` edge stack; shape (..., k, P) each."""
    x1, y1, y2, abx, aby, denom = edges
    px, py = centers[..., 0, None], centers[..., 1, None]
    dx, dy = px - x1, py - y1
    t = np.clip((dx * abx + dy * aby) / denom, 0.0, 1.0)
    d = np.hypot(x1 + t * abx - px, y1 + t * aby - py)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xint = x1 + dy * abx / aby
    crossings = ((y1 > py) != (y2 > py)) & (px < xint)  # of the rightward ray
    return (np.minimum.reduceat(d, starts, axis=-1),
            np.logical_xor.reduceat(crossings, starts, axis=-1))


def _any_per_set(flags: np.ndarray) -> np.ndarray:
    """Whether any entry of each (k, P) block of ``flags`` (..., k, P) is set."""
    lead = flags.shape[:-2]
    return flags.reshape(lead + (flags.shape[-2] * flags.shape[-1],)).any(axis=-1)


def _world_hits(centers: np.ndarray, radius: float, world, margin: float) -> np.ndarray:
    """``circles_hit`` against a ``_world`` tuple."""
    edges, starts, others, other_radii, _ = world
    hit = None
    if edges is not None:
        d, inside = _polygon_pass(centers, edges, starts)
        hit = _any_per_set(inside | (d <= radius + margin))
    if len(other_radii):
        near = _any_per_set(_pair_distances(centers, others) <= radius + other_radii + margin)
        hit = near if hit is None else hit | near
    return np.zeros(centers.shape[:-2], dtype=bool) if hit is None else hit


def circles_hit(centers: np.ndarray, radius: float, obstacles, margin: float = 0.0) -> np.ndarray:
    """Whether each circle set (..., k, 2) of ``radius`` touches any obstacle;
    shape (...).  A circle hits a polygon it is centered in or within
    ``radius + margin`` of, and a circle R_j within ``radius + R_j + margin``."""
    return _world_hits(centers, radius, _world(tuple(obstacles)), margin)


def circles_hit_obstacle(centers: np.ndarray, radius: float, obstacle: ObstacleShape,
                         margin: float = 0.0) -> np.ndarray:
    """``circles_hit`` against one obstacle."""
    return circles_hit(centers, radius, (obstacle,), margin)


def circle_gaps(centers: np.ndarray, radius: float, others: np.ndarray,
                other_radius: float) -> np.ndarray:
    """Least gap between the circles (..., k, 2) of ``radius`` and the circles
    (..., m, 2) of ``other_radius``, per leading index (negative on overlap).
    The leading axes broadcast."""
    return np.min(_pair_distances(centers, others), axis=(-2, -1)) - radius - other_radius


def min_clearance(centers: np.ndarray, radius: float, obstacles: tuple[ObstacleShape, ...]):
    """Least gap between any circle and any obstacle (negative when overlapping).

    ``centers`` has shape (..., k, 2): one (k, 2) set gives a float, stacked
    sets an array over the leading axes (each entry the bits of its own set's
    float); an empty tuple gives math.inf.  A polygon's gap is the boundary
    distance, negated inside, minus ``radius``; a circle's is
    ``(d - radius) - R_j``.  Since fl(x - r) is monotone in x, the minimum over
    polygons of (min d - r) is (min d) - r.
    """
    edges, starts, others, other_radii, _ = _world(tuple(obstacles))
    clear = np.full(centers.shape[:-2], math.inf)
    if edges is not None:
        d, inside = _polygon_pass(centers, edges, starts)
        clear = np.min(np.where(inside, -d, d), axis=(-2, -1)) - radius
    if len(other_radii):
        gaps = (_pair_distances(centers, others) - radius) - other_radii
        clear = np.minimum(clear, np.min(gaps, axis=(-2, -1)))
    return float(clear) if clear.ndim == 0 else clear


def clearance_to_obstacle(centers: np.ndarray, radius: float, obstacle: ObstacleShape):
    """``min_clearance`` against one obstacle."""
    return min_clearance(centers, radius, (obstacle,))


def pose_in_collision(spec: FootprintSpec, pose: Pose, obstacles, margin: float = 0.0) -> bool:
    """True iff any footprint circle intersects any obstacle in the snapshot."""
    return bool(circles_hit(footprint_circles(spec, pose), spec.radius, obstacles, margin))


def poses_in_collision(spec: FootprintSpec, poses: np.ndarray, obstacles,
                       margin: float = 0.0) -> np.ndarray:
    """Vectorized pose_in_collision for an (N, 3) pose array; returns (N,) bools."""
    centers = footprint_circles_batch(spec, np.asarray(poses, dtype=float))
    return circles_hit(centers, spec.radius, obstacles, margin)


def _clear_of_all(x: float, y: float, reach: float, bounds) -> bool:
    """Whether (x, y) lies farther than ``reach`` from every ``_world`` bound:
    from each bounding box, and from the rim of each circle."""
    for xmin, ymin, xmax, ymax, r in bounds:
        if math.hypot(max(xmin - x, x - xmax, 0.0), max(ymin - y, y - ymax, 0.0)) - r <= reach:
            return False
    return True


def curve_in_collision(spec: FootprintSpec, params: CurveParams, base: Pose, obstacles,
                       ds: float, margin: float = 0.0) -> bool:
    """True iff any pose sampled along the curve collides with the obstacle set.

    The poses are ``local_curve_samples(params, ds)`` placed at ``base``; each
    is tested with ``circles_hit`` at ``margin``.  ``ds`` may not exceed the
    cover radius, so the circles of consecutive samples overlap.

    Broad phase: a point P at arc length s of a curve of length s_f from A to
    B has |P - A| <= s and |P - B| <= s_f - s, so it lies within s_f/2 of the
    chord midpoint M, and every cover center lies within the cover's reach
    (its largest |offset|) of its pose.  A circle touches a polygon only when
    its center is within ``radius + margin`` of the polygon, hence of its
    bounding box, and a circle R_j only when its center is within ``radius +
    R_j + margin`` of that circle's center.  So when M, placed at ``base``
    with the curve's last sample, is farther than s_f/2 + reach + radius +
    margin from every polygon's bounding box and from the rim of every disk
    and parked-footprint circle, no sample can hit and the exact pass is
    skipped.  ``SCREEN_SLACK`` widens that bound past the rounding of M and
    of the distances (a few ulps of the coordinates) and past the Simpson
    error of the samples.  The sampled positions are positive-weight sums, so
    |P - A| <= s holds for them as well, but |P - B| <= s_f - s holds only up
    to twice the quadrature error: per coordinate at most s_f h^4/180 times
    max |d^4 u/ds^4|, with h <= ``geometry.SIMPSON_STEP`` and u the unit
    tangent, which is below 3e-9 m on the default library's curves.  A
    curve that passes the screen goes through the unchanged exact pass, so
    every answer has the bits it has without the screen.
    """
    if ds > spec.radius:
        raise ValueError("ds must not exceed the footprint circle radius")
    offsets = local_curve_samples(params, ds)
    world = _world(tuple(obstacles))
    c, s = math.cos(base.theta), math.sin(base.theta)
    ex, ey, _ = offsets[-1].tolist()
    reach = max(map(abs, spec.center_offsets))
    if _clear_of_all(base.x + 0.5 * (c * ex - s * ey), base.y + 0.5 * (s * ex + c * ey),
                     0.5 * params.s_f + reach + spec.radius + margin + SCREEN_SLACK,
                     world[-1]):
        return False
    poses = np.empty_like(offsets)
    poses[:, 0] = base.x + c * offsets[:, 0] - s * offsets[:, 1]
    poses[:, 1] = base.y + s * offsets[:, 0] + c * offsets[:, 1]
    poses[:, 2] = base.theta + offsets[:, 2]
    centers = footprint_circles_batch(spec, poses)
    return bool(_world_hits(centers, spec.radius, world, margin).any())
