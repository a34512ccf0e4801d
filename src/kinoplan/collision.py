"""Footprint modeling and point-in-time collision predicates.

The rectangular vehicle footprint is covered by one circle (near-square
footprints, l/w < 1.3) or three overlapped circles along the body axis
(l/w >= 1.3).  Both covers contain the full rectangle, so the predicates are
conservative.  All checks are pure functions over immutable snapshots.  They
read a static obstacle set as a ``World``, prepared once: its obstacles
stacked by kind, and a clearance grid whose lookups prove most verdicts
without the exact pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .geometry import CurveParams, Pose, local_curve_samples

# Widening of the proven bounds (``World.proven``, ``ClearanceGrid`` and the
# broad phase of ``temporal.predicted_hits``) past floating-point rounding, m.
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


def _polygon_pass(centers: np.ndarray, edges, starts) -> tuple[np.ndarray, np.ndarray]:
    """Boundary distance and even-odd inside test of each center (..., k, 2)
    against each polygon of a ``World`` edge stack; shape (..., k, P) each."""
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


def _world_hits(centers: np.ndarray, radius: float, world: World, margin: float) -> np.ndarray:
    """The exact pass of ``circles_hit`` against a ``World``."""
    edges, starts, others, other_radii = world.edges, world.starts, world.centers, world.radii
    hit = None
    if edges is not None:
        d, inside = _polygon_pass(centers, edges, starts)
        hit = _any_per_set(inside | (d <= radius + margin))
    if len(other_radii):
        near = _any_per_set(_pair_distances(centers, others) <= radius + other_radii + margin)
        hit = near if hit is None else hit | near
    return np.zeros(centers.shape[:-2], dtype=bool) if hit is None else hit


# Cell size of the clearance grid, m, and how far past its polygons'
# bounding box the grid reaches, m.  Outside the grid the lower bound on the
# clearance is GRID_PAD, which proves a circle clear of every polygon when
# radius + margin is below it.  A polygon set whose padded box spans more
# than GRID_MAX_CELLS cells gets no grid (about 32 MB at the limit, a
# 256 m square): its checks all run the exact pass.
GRID_STEP = 0.25
GRID_PAD = 3.0
GRID_MAX_CELLS = 1 << 20


class ClearanceGrid:
    """The signed clearance of a polygon set on a square grid, as bounds that
    hold anywhere in a cell.

    The signed clearance g(p) of a point is the least over the polygons of
    its distance to the polygon's boundary, negated inside the polygon
    (even-odd rule): the ``min_clearance`` of a circle of radius 0 at p.  A
    distance to a boundary is 1-Lipschitz, and its sign flips only on the
    boundary, where it is 0, so each term is 1-Lipschitz and so is their
    minimum g.  Each cell of side ``GRID_STEP`` holds g at its
    centre c, and every point of the cell lies within half the cell diagonal
    hd of c, so there g(c) - hd <= g <= g(c) + hd.  ``table`` keeps those
    two bounds per cell, each widened by ``SCREEN_SLACK`` past the rounding
    of g(c), of the cell a point is assigned to and of the point itself.
    The grid covers the polygons' bounding box widened by ``GRID_PAD`` on
    every side, surrounded by one ring of cells that stands for everything
    outside it: a point there lies at least ``GRID_PAD`` from the bounding
    box, hence from every polygon, so its lower bound is ``GRID_PAD`` and its
    upper bound +inf.  A polygon's clearance is evaluated only at the cells
    within ``GRID_PAD`` of its bounding box (``_cell_span``); every point of
    any other cell lies farther than ``GRID_PAD`` from it.  So at a cell, g
    is at most the least value evaluated there plus hd (+inf when none was),
    and at least that value less hd or ``GRID_PAD``, whichever is smaller.
    Each polygon is evaluated in chunks of at most ``_BUILD_PAIRS`` (cell,
    edge) pairs, so the build never holds more than a few hundred kB.
    """

    def __init__(self, polygons: tuple[tuple[tuple[float, float], ...], ...]):
        (x0, nx), (y0, ny) = _grid_axes(polygons)
        value = np.full((nx, ny), math.inf)
        for verts in polygons:
            vx, vy = zip(*verts)
            i0, i1 = _cell_span(min(vx), max(vx), x0, nx)
            j0, j1 = _cell_span(min(vy), max(vy), y0, ny)
            gx, gy = np.meshgrid(x0 + (np.arange(i0, i1) + 0.5) * GRID_STEP,
                                 y0 + (np.arange(j0, j1) + 0.5) * GRID_STEP, indexing="ij")
            cells = np.stack([gx.ravel(), gy.ravel()], axis=-1)[:, None, :]
            signed = np.empty(len(cells))
            edges, chunk = polygon_edges(verts), max(1, _BUILD_PAIRS // len(verts))
            for a in range(0, len(cells), chunk):
                d, inside = _polygon_pass(cells[a:a + chunk], edges, _ONE_POLYGON)
                signed[a:a + chunk] = np.where(inside, -d, d)[:, 0, 0]
            block = value[i0:i1, j0:j1]
            np.minimum(block, signed.reshape(block.shape), out=block)
        widen = 0.5 * math.sqrt(2.0) * GRID_STEP + SCREEN_SLACK
        table = np.empty((nx + 2, ny + 2, 2))
        table[..., 0] = GRID_PAD - SCREEN_SLACK
        table[..., 1] = math.inf
        np.minimum(value - widen, GRID_PAD - SCREEN_SLACK, out=table[1:-1, 1:-1, 0])
        table[1:-1, 1:-1, 1] = value + widen
        self.table = table.reshape(-1, 2)
        self.table.flags.writeable = False
        # Cell (i, j) of the table, ring included, spans x0 + (i - 1) h to
        # x0 + i h; a point's i is its offset from x0 - h in cells, truncated
        # and clipped to the ring.
        self._origin = np.array([x0 - GRID_STEP, y0 - GRID_STEP])
        self._shape = (nx + 2, ny + 2)

    def bounds(self, points: np.ndarray) -> np.ndarray:
        """(lower, upper) bounds on the signed clearance of each point (..., 2),
        shape (..., 2)."""
        q = ((points - self._origin) * (1.0 / GRID_STEP)).astype(np.intp)
        cells = np.ravel_multi_index((q[..., 0], q[..., 1]), self._shape, mode="clip")
        return self.table.take(cells, axis=0)


# Most (cell, edge) pairs one chunk of a ``ClearanceGrid`` build evaluates.
_BUILD_PAIRS = 1 << 14
_ONE_POLYGON = np.zeros(1, dtype=np.intp)  # the ``starts`` of a one-polygon edge stack


def _grid_axes(polygons) -> tuple[tuple[float, int], tuple[float, int]]:
    """(origin, cell count) of the grid along x and along y: the polygons'
    bounding box widened by ``GRID_PAD``."""
    xs, ys = zip(*(xy for verts in polygons for xy in verts))
    origins = min(xs) - GRID_PAD, min(ys) - GRID_PAD
    return tuple((o, math.ceil((max(v) + GRID_PAD - o) / GRID_STEP))
                 for o, v in zip(origins, (xs, ys)))


def _cell_span(lo: float, hi: float, origin: float, n: int) -> tuple[int, int]:
    """The range [i0, i1) of the n grid cells along one axis, cell 0 starting
    at ``origin``, that reach within ``GRID_PAD`` of [lo, hi], a cell wider on
    each side: every point of a cell outside it lies more than ``GRID_PAD`` +
    ``GRID_STEP`` from [lo, hi]."""
    return (max(int((lo - GRID_PAD - origin) / GRID_STEP) - 1, 0),
            min(int((hi + GRID_PAD - origin) / GRID_STEP) + 2, n))


@lru_cache(maxsize=16)
def _clearance_grid(polygons: tuple[tuple[tuple[float, float], ...], ...]) -> ClearanceGrid | None:
    """The ``ClearanceGrid`` of a polygon set, or None when it would span
    more than ``GRID_MAX_CELLS`` cells.  Cached on the vertex tuples, so
    every ``World`` that shares the polygons (a static map with different
    frozen-track blockers) shares one grid."""
    (_, nx), (_, ny) = _grid_axes(polygons)
    return ClearanceGrid(polygons) if nx * ny <= GRID_MAX_CELLS else None


class World:
    """A static obstacle set prepared for collision queries.

    ``edges`` holds the ``polygon_edges`` of every polygon concatenated (None
    without polygons) and ``starts`` each polygon's first edge index;
    ``centers`` (m, 2) and ``radii`` (m,) the disks and the cover circles of
    parked footprints; ``grid`` the polygons' ``ClearanceGrid``, built on
    first use (None without polygons or when they spread too far apart).
    The only place that tells obstacle kinds apart; the arrays are read-only.
    Build one with ``as_world``.
    """

    def __init__(self, obstacles: tuple[ObstacleShape, ...]):
        per, centers, radii, polygons = [], [], [], []
        for obs in obstacles:
            if obs.kind == "polygon":
                per.append(polygon_edges(obs.vertices))
                polygons.append(obs.vertices)
            elif obs.kind == "disk":
                centers.append(obs.center)
                radii.append(obs.radius)
            elif obs.kind == "footprint":
                cover = footprint_circles(obs.footprint, obs.pose)
                centers.extend(cover.tolist())
                radii.extend([obs.footprint.radius] * len(cover))
            else:
                raise ValueError(f"unknown obstacle kind {obs.kind!r}")
        self.edges = self.starts = None
        if per:
            self.edges = tuple(np.concatenate(col) for col in zip(*per))
            self.starts = np.cumsum([0] + [len(e[0]) for e in per[:-1]])
        self.centers = np.array(centers, dtype=float).reshape(-1, 2)
        self.radii = np.array(radii, dtype=float)
        for arr in (self.edges + (self.starts,) if per else ()) + (self.centers, self.radii):
            arr.flags.writeable = False
        self._polygons = tuple(polygons)

    @cached_property
    def grid(self) -> ClearanceGrid | None:
        return _clearance_grid(self._polygons) if self._polygons else None

    def proven(self, centers: np.ndarray, radius: float,
               margin: float) -> tuple[np.ndarray, np.ndarray]:
        """(hit, free) per circle set (..., k, 2): where ``hit`` is set the
        exact pass (``_world_hits``) is proven to report a hit, where ``free``
        is set it is proven to report none, and where neither is, the set is
        undecided.

        With thr = radius + margin, the exact pass hits a polygon exactly
        when some center p has g(p) <= thr (``ClearanceGrid``; a center inside
        a polygon has g(p) <= 0 < thr), and hits circle j when |p - c_j| <=
        thr + R_j.  So a set is proven to hit when a center's upper grid bound
        is below thr, or its distance to some circle is more than
        ``SCREEN_SLACK`` below thr + R_j; it is proven free when every
        center's lower grid bound is above thr and every distance is more
        than ``SCREEN_SLACK`` above thr + R_j.  The slack covers the rounding
        of the distances and of the sums, and centers that differ from the
        exact pass's by rounding alone (``CurveLibrary.swept_covers`` placed
        at a base), so the verdicts hold for those too.
        """
        thr = radius + margin
        hit = free = None
        if self.grid is not None:
            low = self.grid.bounds(centers).min(axis=-2)  # least (lower, upper) per set
            hit, free = low[..., 1] < thr, low[..., 0] > thr
        elif self._polygons:  # no grid: nothing is proven free of the polygons
            hit = np.zeros(centers.shape[:-2], dtype=bool)
            free = hit.copy()
        if len(self.radii):
            gap = np.min(_pair_distances(centers, self.centers) - (thr + self.radii),
                         axis=(-2, -1))
            near, clear = gap < -SCREEN_SLACK, gap > SCREEN_SLACK
            hit, free = (near, clear) if hit is None else (hit | near, free & clear)
        if hit is None:
            lead = centers.shape[:-2]
            return np.zeros(lead, dtype=bool), np.ones(lead, dtype=bool)
        return hit, free

    def hits(self, centers: np.ndarray, radius: float, margin: float) -> np.ndarray:
        """``_world_hits`` to the bit: the ``proven`` verdicts, and the exact
        pass on the sets they leave undecided."""
        sets = centers.reshape((-1,) + centers.shape[-2:])
        hit, free = self.proven(sets, radius, margin)
        open_ = ~(hit | free)
        if open_.any():
            hit[open_] = _world_hits(sets[open_], radius, self, margin)
        return hit.reshape(centers.shape[:-2])

    def sweep_hits(self, cover: np.ndarray, base: Pose, radius: float,
                   margin: float) -> bool | None:
        """Whether the circles ``cover`` (n, 2), given in the frame of ``base``,
        touch an obstacle once placed there (``place_at``): True or False
        where ``proven`` decides, None where it leaves the set undecided."""
        hit, free = self.proven(place_at(cover, base), radius, margin)
        return True if hit else False if free else None


def place_at(points: np.ndarray, base: Pose) -> np.ndarray:
    """Points (n, 2) given in the frame of ``base``, in the world frame."""
    c, s = math.cos(base.theta), math.sin(base.theta)
    return points @ np.array([[c, s], [-s, c]]) + (base.x, base.y)


@lru_cache(maxsize=64)
def _world(obstacles: tuple[ObstacleShape, ...]) -> World:
    """The ``World`` of an obstacle tuple, cached on it."""
    return World(obstacles)


def as_world(obstacles) -> World:
    """``obstacles`` itself when it is a ``World``, else the cached ``World``
    of its obstacle sequence.  Resolve a world once and pass it to every
    check: each lookup of a sequence hashes all its obstacles."""
    return obstacles if isinstance(obstacles, World) else _world(tuple(obstacles))


def circles_hit(centers: np.ndarray, radius: float, obstacles, margin: float = 0.0) -> np.ndarray:
    """Whether each circle set (..., k, 2) of ``radius`` touches any obstacle;
    shape (...).  A circle hits a polygon it is centered in or within
    ``radius + margin`` of, and a circle R_j within ``radius + R_j + margin``.
    ``obstacles`` is a ``World`` or a sequence of obstacles (``as_world``)."""
    return as_world(obstacles).hits(centers, radius, margin)


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


def min_clearance(centers: np.ndarray, radius: float, obstacles):
    """Least gap between any circle and any obstacle (negative when overlapping).

    ``centers`` has shape (..., k, 2): one (k, 2) set gives a float, stacked
    sets an array over the leading axes (each entry the bits of its own set's
    float); no obstacles give math.inf.  ``obstacles`` is a ``World`` or a
    sequence of obstacles.  A polygon's gap is the boundary distance, negated
    inside, minus ``radius``; a circle's is ``(d - radius) - R_j``.  Since
    fl(x - r) is monotone in x, the minimum over polygons of (min d - r) is
    (min d) - r.
    """
    world = as_world(obstacles)
    edges, starts, others, other_radii = world.edges, world.starts, world.centers, world.radii
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


def curve_in_collision(spec: FootprintSpec, params: CurveParams, base: Pose, obstacles,
                       ds: float, margin: float = 0.0) -> bool:
    """True iff any pose sampled along the curve collides with the obstacle set.

    The poses are ``local_curve_samples(params, ds)`` placed at ``base``; each
    is tested with ``circles_hit`` at ``margin``, so only the poses that
    ``World.proven`` leaves undecided run the exact pass (``_world_hits``).
    ``obstacles`` is a ``World`` or a sequence of obstacles.  ``ds`` may not
    exceed the cover radius, so the circles of consecutive samples overlap.
    """
    if ds > spec.radius:
        raise ValueError("ds must not exceed the footprint circle radius")
    offsets = local_curve_samples(params, ds)
    c, s = math.cos(base.theta), math.sin(base.theta)
    poses = np.empty_like(offsets)
    poses[:, 0] = base.x + c * offsets[:, 0] - s * offsets[:, 1]
    poses[:, 1] = base.y + s * offsets[:, 0] + c * offsets[:, 1]
    poses[:, 2] = base.theta + offsets[:, 2]
    centers = footprint_circles_batch(spec, poses)
    return bool(as_world(obstacles).hits(centers, spec.radius, margin).any())
