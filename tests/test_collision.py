"""Footprint circle covers and collision predicates."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinoplan import collision, rrt
from kinoplan.collision import (FootprintSpec, ObstacleShape, _polygon_pass, _world,
                                circles_hit, clearance_to_obstacle, curve_in_collision,
                                default_robot_footprint, disc_radius,
                                footprint_circles, footprint_circles_batch,
                                min_clearance, polygon_edges, pose_in_collision)
from kinoplan.geometry import (CurveEntry, CurveLibrary, CurveParams, LibraryConfig, Pose,
                               local_curve_samples)


def rect_corners(length, width, pose):
    """World-frame corners of a centered rectangle at the given pose."""
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    out = []
    for sx in (-0.5, 0.5):
        for sy in (-0.5, 0.5):
            lx, ly = sx * length, sy * width
            out.append((pose.x + c * lx - s * ly, pose.y + s * lx + c * ly))
    return out


def rects_overlap(l1, w1, p1, l2, w2, p2):
    """Exact rectangle intersection via the separating-axis theorem."""
    c1 = np.asarray(rect_corners(l1, w1, p1))
    c2 = np.asarray(rect_corners(l2, w2, p2))
    for theta in (p1.theta, p1.theta + math.pi / 2, p2.theta, p2.theta + math.pi / 2):
        axis = np.array([math.cos(theta), math.sin(theta)])
        a = c1 @ axis
        b = c2 @ axis
        if a.max() < b.min() or b.max() < a.min():
            return False
    return True


class TestDiscRadius:
    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            disc_radius(0.0, 1.0)
        with pytest.raises(ValueError):
            disc_radius(1.0, -2.0)

    @given(st.floats(0.1, 10.0), st.floats(0.01, 0.2))
    @settings(max_examples=50)
    def test_monotone_in_length_within_branch(self, w, dl):
        l = 2.0 * w  # firmly in the three-circle branch either way
        assert disc_radius(l + dl, w) >= disc_radius(l, w)

    @given(st.floats(0.1, 10.0), st.floats(0.001, 0.05))
    @settings(max_examples=50)
    def test_monotone_in_width_within_branch(self, l, dw):
        w = l  # one-circle branch
        assert disc_radius(l, w + dw) >= disc_radius(l, w)


class TestFootprintCircles:
    def test_one_circle_at_origin(self):
        spec = FootprintSpec.from_dimensions(1.0, 1.0)
        centers = footprint_circles(spec, Pose(0.0, 0.0, 0.0))
        assert centers.shape == (1, 2)
        assert centers[0] == pytest.approx((0.0, 0.0))

    def test_three_circle_offsets(self):
        spec = FootprintSpec.from_dimensions(4.2, 1.9)
        centers = footprint_circles(spec, Pose(0.0, 0.0, 0.0))
        assert sorted(centers[:, 0]) == pytest.approx([-1.4, 0.0, 1.4])
        assert centers[:, 1] == pytest.approx([0.0, 0.0, 0.0])

    def test_rotated_pose(self):
        spec = FootprintSpec.from_dimensions(4.2, 1.9)
        centers = footprint_circles(spec, Pose(1.0, 2.0, math.pi / 2.0))
        assert sorted(centers[:, 1]) == pytest.approx([0.6, 2.0, 3.4])
        assert centers[:, 0] == pytest.approx([1.0, 1.0, 1.0])

    @pytest.mark.parametrize("l,w", [(1.0, 1.0), (4.6, 1.9), (1.3, 1.0)])
    def test_cover_contains_rectangle(self, l, w):
        spec = FootprintSpec.from_dimensions(l, w)
        pose = Pose(0.3, -0.7, 0.4)
        centers = footprint_circles(spec, pose)
        rng = np.random.default_rng(0)
        c, s = math.cos(pose.theta), math.sin(pose.theta)
        for _ in range(1000):
            lx = rng.uniform(-l / 2.0, l / 2.0)
            ly = rng.uniform(-w / 2.0, w / 2.0)
            px = pose.x + c * lx - s * ly
            py = pose.y + s * lx + c * ly
            d = np.hypot(centers[:, 0] - px, centers[:, 1] - py)
            assert np.min(d) <= spec.radius + 1e-12

    def test_pedestrian_forced_single_circle(self):
        spec = FootprintSpec.from_dimensions(0.6, 0.6, single_circle=True)
        assert footprint_circles(spec, Pose(1.0, 2.0, 0.5)).shape == (1, 2)
        assert spec.center_offsets == (0.0,)

    @pytest.mark.parametrize("spec,anchor,reach", [
        (FootprintSpec.from_dimensions(1.2, 1.0), 0, 0.0),
        (FootprintSpec.from_dimensions(4.6, 1.9), 1, 4.6 / 3.0),
        (FootprintSpec.from_dimensions(4.6, 1.9, single_circle=True), 0, 0.0),
    ])
    def test_anchor_and_reach(self, spec, anchor, reach):
        """The anchor is the middle circle and the reach the farthest center
        from it; every center lies within the reach of the anchor's."""
        assert (spec.anchor, spec.reach) == (anchor, reach)
        centers = footprint_circles(spec, Pose(1.0, -2.0, 0.7))
        assert np.all(np.hypot(*(centers - centers[spec.anchor]).T) <= reach + 1e-12)


class TestPoseInCollision:
    spec = default_robot_footprint()

    def test_disk_gap(self):
        small = FootprintSpec.from_dimensions(1.2, 1.2)
        obs = [ObstacleShape.disk(3.0, 0.0, 1.0)]
        assert not pose_in_collision(small, Pose(0.0, 0.0, 0.0), obs)

    def test_disk_hit(self):
        small = FootprintSpec.from_dimensions(1.2, 1.2)
        obs = [ObstacleShape.disk(1.8, 0.0, 1.0)]
        assert pose_in_collision(small, Pose(0.0, 0.0, 0.0), obs)

    def test_margin_expands_hits(self):
        small = FootprintSpec.from_dimensions(1.2, 1.2)
        obs = [ObstacleShape.disk(3.0, 0.0, 1.0)]
        assert circles_hit(footprint_circles(small, Pose(0.0, 0.0, 0.0)), small.radius, obs, 1.5)

    def test_polygon(self):
        obs = [ObstacleShape.polygon([(4.0, -1.0), (6.0, -1.0), (6.0, 1.0), (4.0, 1.0)])]
        assert pose_in_collision(self.spec, Pose(2.0, 0.0, 0.0), obs)
        assert not pose_in_collision(self.spec, Pose(-2.0, 0.0, 0.0), obs)

    def test_pose_deep_inside_polygon(self):
        obs = [ObstacleShape.polygon([(-10.0, -10.0), (10.0, -10.0),
                                      (10.0, 10.0), (-10.0, 10.0)])]
        assert pose_in_collision(self.spec, Pose(0.0, 0.0, 0.0), obs)

    def test_rigid_transform_symmetry(self):
        obs_local = ObstacleShape.disk(3.0, 0.5, 0.8)
        pose = Pose(1.0, 1.0, 0.3)
        hit_a = pose_in_collision(self.spec, pose, [obs_local])
        # Rotate and translate both the robot and the obstacle together.
        shift = Pose(5.0, -2.0, 1.1)
        moved_pose = shift.transform(pose.x, pose.y, pose.theta)
        c, s = math.cos(shift.theta), math.sin(shift.theta)
        ox = shift.x + c * obs_local.center[0] - s * obs_local.center[1]
        oy = shift.y + s * obs_local.center[0] + c * obs_local.center[1]
        hit_b = pose_in_collision(self.spec, moved_pose,
                                  [ObstacleShape.disk(ox, oy, obs_local.radius)])
        assert hit_a == hit_b

    def test_never_free_when_rectangles_overlap(self):
        """The circle cover is conservative versus exact rectangle overlap."""
        rng = np.random.default_rng(7)
        robot = default_robot_footprint()
        car = FootprintSpec.from_dimensions(4.0, 2.0)
        overlapping = 0
        for _ in range(100):
            rp = Pose(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-3, 3))
            op = Pose(rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-3, 3))
            if not rects_overlap(robot.length, robot.width, rp,
                                 car.length, car.width, op):
                continue
            overlapping += 1
            obs = ObstacleShape.footprint_at(car, op)
            assert pose_in_collision(robot, rp, [obs])
        assert overlapping >= 20  # the sample must actually exercise overlaps

    def test_batch_matches_scalar(self):
        obs = [ObstacleShape.disk(3.0, 1.0, 1.0),
               ObstacleShape.polygon([(0.0, 4.0), (2.0, 4.0), (1.0, 6.0)])]
        rng = np.random.default_rng(1)
        poses = rng.uniform(-5, 5, size=(50, 3))
        batch = circles_hit(footprint_circles_batch(self.spec, poses), self.spec.radius, obs)
        for k, row in enumerate(poses):
            assert batch[k] == pose_in_collision(self.spec, Pose(*row), obs)


class TestClearance:
    def test_disk_clearance_sign(self):
        spec = FootprintSpec.from_dimensions(1.2, 1.2)
        centers = footprint_circles(spec, Pose(0.0, 0.0, 0.0))
        far = clearance_to_obstacle(centers, spec.radius, ObstacleShape.disk(5.0, 0.0, 1.0))
        assert far == pytest.approx(5.0 - spec.radius - 1.0)
        near = clearance_to_obstacle(centers, spec.radius, ObstacleShape.disk(1.0, 0.0, 1.0))
        assert near < 0.0

    def test_polygon_interior_negative(self):
        spec = FootprintSpec.from_dimensions(1.0, 1.0)
        centers = footprint_circles(spec, Pose(0.0, 0.0, 0.0))
        box = ObstacleShape.polygon([(-3.0, -3.0), (3.0, -3.0), (3.0, 3.0), (-3.0, 3.0)])
        assert clearance_to_obstacle(centers, spec.radius, box) < 0.0


class TestCurveInCollision:
    spec = default_robot_footprint()

    def test_empty_world(self):
        curve = CurveParams(0.0, 0.0, 0.0, 0.0, 4.0)
        assert not curve_in_collision(self.spec, curve, Pose(0.0, 0.0, 0.0), [], 0.5)

    def test_disk_at_midpoint(self):
        curve = CurveParams(0.0, 0.0, 0.0, 0.0, 10.0)
        obs = [ObstacleShape.disk(5.0, 0.0, 0.5)]
        assert curve_in_collision(self.spec, curve, Pose(0.0, 0.0, 0.0), obs, 0.5)

    def test_tunneling_guard(self):
        curve = CurveParams(0.0, 0.0, 0.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            curve_in_collision(self.spec, curve, Pose(0.0, 0.0, 0.0), [],
                               self.spec.radius * 2.0)

    def test_agrees_with_oversampling(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            curve = CurveParams(0.0, rng.uniform(-0.2, 0.2),
                                rng.uniform(-0.05, 0.05), 0.0,
                                rng.uniform(2.0, 4.0))
            base = Pose(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            obs = [ObstacleShape.disk(rng.uniform(-2, 6), rng.uniform(-4, 4),
                                      rng.uniform(0.3, 1.5)) for _ in range(3)]
            coarse = curve_in_collision(self.spec, curve, base, obs, 0.5)
            fine = curve_in_collision(self.spec, curve, base, obs, 0.05)
            # Finer sampling may find hits the coarse pass missed, never fewer.
            assert fine or not coarse


def point_in_polygon_per_edge(px, py, verts):
    """Reference even-odd rule, one polygon edge per loop pass."""
    inside = np.zeros(np.broadcast(px, py).shape, dtype=bool)
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        cond = (y1 > py) != (y2 > py)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xint = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
        inside ^= cond & (px < xint)
    return inside


def dist_to_polygon_per_edge(px, py, verts):
    """Reference boundary distance, one polygon edge per loop pass."""
    n = len(verts)
    best = np.full(np.broadcast(px, py).shape, np.inf)
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        ab = b - a
        denom = float(ab @ ab)
        t = ((px - a[0]) * ab[0] + (py - a[1]) * ab[1]) / max(denom, 1e-12)
        t = np.clip(t, 0.0, 1.0)
        dx = a[0] + t * ab[0] - px
        dy = a[1] + t * ab[1] - py
        best = np.minimum(best, np.hypot(dx, dy))
    return best


coord = st.floats(-20.0, 20.0, allow_nan=False)
# Coordinates on a coarse lattice make horizontal edges, repeated vertices and
# points exactly on vertices and edges common.
lattice = st.integers(-4, 4).map(float)
vertex_lists = st.lists(st.tuples(st.one_of(coord, lattice), st.one_of(coord, lattice)),
                        min_size=3, max_size=9)


def one_polygon_pass(centers, edges):
    """``_polygon_pass`` over a single polygon's edges: (distance, inside)."""
    d, inside = _polygon_pass(np.asarray(centers, dtype=float), edges, [0])
    return d[..., 0], inside[..., 0]


class TestPolygonKernels:
    """The edge-vectorized polygon pass against the per-edge loops, bit for bit."""

    @staticmethod
    def assert_bit_equal(vertices, pts):
        verts = np.asarray(ObstacleShape.polygon(vertices).vertices)
        edges = polygon_edges(ObstacleShape.polygon(vertices).vertices)
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        px, py = pts[:, 0], pts[:, 1]
        dist, inside = one_polygon_pass(pts, edges)
        assert inside.shape == px.shape
        np.testing.assert_array_equal(inside, point_in_polygon_per_edge(px, py, verts))
        ref = dist_to_polygon_per_edge(px, py, verts)
        assert dist.shape == ref.shape
        assert dist.tobytes() == ref.tobytes()

    @given(vertex_lists, st.lists(st.tuples(st.one_of(coord, lattice),
                                            st.one_of(coord, lattice)),
                                  min_size=1, max_size=20))
    @example([(0.0, 0.0), (4.0, 0.0), (4.0, 2.0), (0.0, 2.0)],
             [(0.0, 0.0), (4.0, 2.0), (2.0, 0.0), (2.0, 2.0), (0.0, 1.0), (2.0, 1.0)])
    @example([(0.0, 0.0), (0.0, 0.0), (1.0, 1.0)], [(0.0, 0.0), (0.5, 0.5), (3.0, 0.0)])
    @settings(max_examples=300, deadline=None)
    def test_random_polygons_and_points(self, vertices, pts):
        self.assert_bit_equal(vertices, pts)

    @given(vertex_lists, st.data())
    @settings(max_examples=200, deadline=None)
    def test_points_on_vertices_and_edges(self, vertices, data):
        verts = np.asarray(vertices, dtype=float)
        n = len(verts)
        t = np.asarray(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        on_edges = verts + t[:, None] * (np.roll(verts, -1, axis=0) - verts)
        self.assert_bit_equal(vertices, np.concatenate([verts, on_edges]))

    def test_batched_shape(self):
        vertices = ((0.0, 0.0), (3.0, 0.0), (3.0, 1.0), (0.0, 1.0))
        edges = polygon_edges(vertices)
        centers = np.random.default_rng(0).uniform(-1.0, 4.0, size=(7, 3, 2))
        px, py = centers[..., 0], centers[..., 1]
        verts = np.asarray(vertices)
        dist, inside = one_polygon_pass(centers, edges)
        assert inside.shape == (7, 3)
        assert dist.tobytes() == dist_to_polygon_per_edge(px, py, verts).tobytes()

    def test_edges_cached_per_vertex_tuple(self):
        vertices = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
        assert polygon_edges(vertices) is polygon_edges(tuple(vertices))


def obstacle_sets():
    disk = st.builds(ObstacleShape.disk, coord, coord, st.floats(0.1, 5.0))
    footprint = st.builds(
        lambda l, w, x, y, th: ObstacleShape.footprint_at(
            FootprintSpec.from_dimensions(l, w), Pose(x, y, th)),
        st.floats(0.5, 5.0), st.floats(0.5, 2.5), coord, coord, st.floats(-4.0, 4.0))
    polygon = vertex_lists.map(ObstacleShape.polygon)
    return st.lists(st.one_of(polygon, polygon, disk, footprint), max_size=6).map(tuple)


def reference_circles(obstacle):
    """Centers and common radius of a disk or of a parked footprint's cover."""
    if obstacle.kind == "disk":
        return np.array([obstacle.center]), obstacle.radius
    return footprint_circles(obstacle.footprint, obstacle.pose), obstacle.footprint.radius


def reference_clearance(centers, radius, obstacle):
    """One obstacle's gap to the (k, 2) circle set: polygons through the
    per-edge loops, disks and footprints through ``np.linalg.norm``."""
    if obstacle.kind == "polygon":
        verts = np.asarray(obstacle.vertices)
        px, py = centers[..., 0], centers[..., 1]
        d = dist_to_polygon_per_edge(px, py, verts)
        return np.min(np.where(point_in_polygon_per_edge(px, py, verts), -d, d)) - radius
    others, other_radius = reference_circles(obstacle)
    d = np.linalg.norm(centers[:, None, :] - others[None, :, :], axis=-1)
    return np.min(d) - radius - other_radius


def reference_hits(centers, radius, obstacle, margin):
    """Whether each (k, 2) set of the stacked (N, k, 2) centers touches one
    obstacle, by the same per-kind references."""
    if obstacle.kind == "polygon":
        verts = np.asarray(obstacle.vertices)
        px, py = centers[..., 0], centers[..., 1]
        near = dist_to_polygon_per_edge(px, py, verts) <= radius + margin
        return np.any(point_in_polygon_per_edge(px, py, verts) | near, axis=-1)
    others, other_radius = reference_circles(obstacle)
    d = np.linalg.norm(centers[..., :, None, :] - others, axis=-1)
    return np.any(d <= radius + other_radius + margin, axis=(-2, -1))


# Disks and a footprint of different radii, nearest by center distance (the
# small disk) not nearest by gap (the large one): the per-circle order of
# (d - r) - R_j matters.
MIXED_CIRCLES = (ObstacleShape.disk(3.0, 0.0, 0.5), ObstacleShape.disk(0.0, 4.0, 2.0),
                 ObstacleShape.footprint_at(FootprintSpec.from_dimensions(4.6, 1.9),
                                            Pose(-4.5, -1.0, 0.4)))


class TestMinClearance:
    """The batched clearance against the per-kind reference, bit for bit."""

    @staticmethod
    def assert_bit_equal(centers, radius, obstacles):
        centers = np.asarray(centers, dtype=float).reshape(-1, 2)
        want = min((reference_clearance(centers, radius, o) for o in obstacles),
                   default=math.inf)
        got = min_clearance(centers, radius, obstacles)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @given(obstacle_sets(), st.lists(st.tuples(st.one_of(coord, lattice),
                                               st.one_of(coord, lattice)),
                                     min_size=1, max_size=3),
           st.floats(0.05, 3.0))
    @example((ObstacleShape.polygon([(0.0, 0.0), (4.0, 0.0), (4.0, 2.0), (0.0, 2.0)]),
              ObstacleShape.polygon([(5.0, 0.0), (6.0, 0.0), (5.0, 1.0)])),
             [(2.0, 1.0), (4.0, 2.0), (5.5, 0.0)], 0.5)
    @example(MIXED_CIRCLES, [(0.0, 0.0), (0.5, 0.2)], 0.3)
    @settings(max_examples=300, deadline=None)
    def test_random_sets(self, obstacles, centers, radius):
        self.assert_bit_equal(centers, radius, obstacles)

    @given(obstacle_sets(), st.data(), st.floats(0.05, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_circles_inside_on_edges_and_on_vertices(self, obstacles, data, radius):
        polygons = [o for o in obstacles if o.kind == "polygon"]
        if not polygons:
            return
        verts = np.asarray(data.draw(st.sampled_from(polygons)).vertices)
        i = data.draw(st.integers(0, len(verts) - 1))
        t = data.draw(st.floats(0.0, 1.0))
        on_edge = verts[i] + t * (verts[(i + 1) % len(verts)] - verts[i])
        mean = verts.mean(axis=0)  # inside whenever the polygon is convex
        self.assert_bit_equal([verts[i], on_edge, mean], radius, obstacles)

    @given(obstacle_sets(), st.integers(1, 3), st.lists(st.one_of(coord, lattice),
                                                         min_size=2, max_size=24),
           st.floats(0.05, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_stacked_rows(self, obstacles, k, coords, radius):
        """Stacked (N, k, 2) sets: row i is ``min_clearance`` of row i, bit for bit."""
        n = len(coords) // (2 * k)
        if n == 0:
            return
        stacked = np.asarray(coords[:2 * k * n], dtype=float).reshape(n, k, 2)
        got = min_clearance(stacked, radius, obstacles)
        assert got.shape == (n,)
        want = np.array([min_clearance(row, radius, obstacles) for row in stacked])
        assert got.tobytes() == want.tobytes()

    def test_empty_set_is_infinite(self):
        assert min_clearance(np.zeros((3, 2)), 1.0, ()) == math.inf

    def test_stack_cached_per_obstacle_tuple(self):
        obstacles = (ObstacleShape.polygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]),
                     ObstacleShape.disk(3.0, 0.0, 1.0))
        assert _world(obstacles) is _world(tuple(list(obstacles)))


class TestCirclesHit:
    """The one-pass hit test against the OR of the per-kind reference, bit for bit."""

    @given(obstacle_sets(), st.integers(1, 3), st.lists(st.one_of(coord, lattice),
                                                         min_size=2, max_size=24),
           st.floats(0.05, 3.0), st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    @example(MIXED_CIRCLES, 2, [0.0, 0.0, 0.5, 0.2, 1.1, 0.0, 0.0, 1.7], 0.3, 0.0)
    @example(MIXED_CIRCLES, 1, [0.0, 0.0, 1.2, 0.0], 0.3, 1.0)
    @settings(max_examples=300, deadline=None)
    def test_random_sets(self, obstacles, k, coords, radius, margin):
        n = len(coords) // (2 * k)
        if n == 0:
            return
        centers = np.asarray(coords[:2 * k * n], dtype=float).reshape(n, k, 2)
        want = np.zeros(n, dtype=bool)
        for obs in obstacles:
            want |= reference_hits(centers, radius, obs, margin)
        np.testing.assert_array_equal(circles_hit(centers, radius, obstacles, margin), want)

    @given(obstacle_sets(), st.lists(st.tuples(coord, coord, st.floats(-4.0, 4.0)),
                                     min_size=1, max_size=8),
           st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    @example(MIXED_CIRCLES, [(0.0, 0.0, 0.0), (0.0, 1.0, 1.5), (-1.0, -1.0, 0.4)], 0.0)
    @settings(max_examples=200, deadline=None)
    def test_poses_in_collision(self, obstacles, poses, margin):
        spec = default_robot_footprint()
        poses = np.asarray(poses, dtype=float)
        centers = footprint_circles_batch(spec, poses)
        want = np.zeros(len(poses), dtype=bool)
        for obs in obstacles:
            want |= reference_hits(centers, spec.radius, obs, margin)
        np.testing.assert_array_equal(circles_hit(centers, spec.radius, obstacles, margin), want)
        for pose in poses:
            one = footprint_circles(spec, Pose(*pose))[None]
            hit = any(reference_hits(one, spec.radius, obs, margin)[0] for obs in obstacles)
            assert bool(circles_hit(one[0], spec.radius, obstacles, margin)) == hit


def curve_centers(spec, params, base, ds):
    """The (n, k, 2) cover centers ``curve_in_collision`` tests: the
    ``local_curve_samples`` poses placed at ``base``."""
    offsets = local_curve_samples(params, ds)
    c, s = math.cos(base.theta), math.sin(base.theta)
    poses = np.column_stack([base.x + c * offsets[:, 0] - s * offsets[:, 1],
                             base.y + s * offsets[:, 0] + c * offsets[:, 1],
                             base.theta + offsets[:, 2]])
    return footprint_circles_batch(spec, poses)


def exact_hits(centers, radius, obstacles, margin):
    """Per circle set, the OR of the per-kind references over the obstacles."""
    want = np.zeros(centers.shape[:-2], dtype=bool)
    for obs in obstacles:
        want |= reference_hits(centers, radius, obs, margin)
    return want


def exact_curve_hit(spec, params, base, obstacles, ds, margin):
    """``curve_in_collision`` without ``World.proven``: every sampled pose
    through the per-kind references."""
    return bool(exact_hits(curve_centers(spec, params, base, ds), spec.radius, obstacles,
                           margin).any())


ROBOT_COVERS = (default_robot_footprint(),
                FootprintSpec.from_dimensions(0.8, 0.8, single_circle=True))
# Cubics with |kappa| <= 2 over [0, s_f]: k0 + k1 u + k2 u^2 + k3 u^3, u = s / s_f.
screen_curves = st.builds(
    lambda k0, k1, k2, k3, sf: CurveParams(k0, k1 / sf, k2 / sf**2, k3 / sf**3, sf),
    *[st.floats(-0.5, 0.5)] * 4, st.floats(0.05, 6.0))


def _ulps_from(x, k):
    """x moved by k units in the last place."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


class TestCurveScreen:
    """``curve_in_collision`` against the exact pass alone."""

    @given(screen_curves, st.tuples(coord, coord, st.floats(-4.0, 4.0)), obstacle_sets(),
           st.sampled_from([0.0, 0.15]), st.sampled_from(ROBOT_COVERS),
           st.sampled_from([0.1, 0.25, 0.5]))
    @example(CurveParams(0.0, 0.0, 0.0, 0.0, 4.0), (0.0, 0.0, 0.0), MIXED_CIRCLES, 0.15,
             ROBOT_COVERS[0], 0.5)
    @example(CurveParams(0.0, 0.0, 0.0, 0.0, 4.0), (0.0, 0.0, 0.0), (), 0.0, ROBOT_COVERS[0], 0.5)
    @settings(max_examples=400, deadline=None)
    def test_matches_exact_pass(self, params, pose, obstacles, margin, spec, ds):
        base = Pose(*pose)
        assert (curve_in_collision(spec, params, base, obstacles, ds, margin)
                == exact_curve_hit(spec, params, base, obstacles, ds, margin))

    @given(st.floats(0.05, 6.0), coord, coord, st.integers(-1, 2),
           st.sampled_from(["disk", "polygon", "footprint"]), st.floats(0.1, 3.0),
           st.sampled_from([0.0, 0.15]), st.sampled_from(ROBOT_COVERS),
           st.booleans(), st.integers(-4, 4))
    @settings(max_examples=600, deadline=None)
    def test_matches_exact_pass_at_the_screen_limit(self, s_f, x, y, quarter, kind, r, margin,
                                                     spec, slack, ulps):
        """A straight curve's front circle reaches s_f/2 + reach from the
        chord midpoint.  The obstacle's nearest point is put within 4 ulps of
        that plus radius + margin, with and without ``SCREEN_SLACK``, so the
        front circle's gap lies within ulps of the hit threshold, where
        ``World.proven`` must leave the check to the exact pass."""
        params = CurveParams(0.0, 0.0, 0.0, 0.0, s_f)
        base = Pose(x, y, quarter * math.pi / 2.0)
        ds = 0.5 if spec.radius > 0.5 else 0.25
        c, s = math.cos(base.theta), math.sin(base.theta)
        ex, ey, _ = local_curve_samples(params, ds)[-1].tolist()
        mx, my = base.x + 0.5 * (c * ex - s * ey), base.y + 0.5 * (s * ex + c * ey)
        reach = max(map(abs, spec.center_offsets))
        gap = 0.5 * s_f + reach + spec.radius + margin + (collision.SCREEN_SLACK if slack else 0.0)
        gap = _ulps_from(gap, ulps)
        if kind == "disk":
            obstacle = ObstacleShape.disk(mx + (gap + r) * c, my + (gap + r) * s, r)
        elif kind == "footprint":
            car = FootprintSpec.from_dimensions(4.6, 1.9)
            d = gap + car.radius - car.center_offsets[0]
            obstacle = ObstacleShape.footprint_at(car, Pose(mx + d * c, my + d * s, base.theta))
        else:
            fx, fy = mx + gap * c, my + gap * s  # the middle of the near face
            obstacle = ObstacleShape.polygon([(fx - 3.0 * s, fy + 3.0 * c),
                                              (fx + 3.0 * s, fy - 3.0 * c),
                                              (fx + 2.0 * c + 3.0 * s, fy + 2.0 * s - 3.0 * c),
                                              (fx + 2.0 * c - 3.0 * s, fy + 2.0 * s + 3.0 * c)])
        want = exact_curve_hit(spec, params, base, (obstacle,), ds, margin)
        assert curve_in_collision(spec, params, base, (obstacle,), ds, margin) == want
        sweep = collision.as_world((obstacle,)).sweep_hits(
            one_entry_sweep(params, ds, spec), base, spec.radius, margin)
        assert sweep is None or sweep == want


def one_entry_sweep(params, ds, spec):
    """The swept cover of ``params`` as a library holding only it builds it."""
    entry = CurveEntry(r=1.0, beta=0.0, params=params, dx=0.0, dy=0.0, dtheta=0.0)
    return collision.swept_covers(CurveLibrary(LibraryConfig(), {(0, 0): entry}), spec,
                                  ds)[(0, 0)]


# A tiny polygon that puts the clearance grid's corner at ANCHOR - GRID_PAD
# in both axes whenever every other polygon lies above ANCHOR, so a test can
# place points on known cell corners.
ANCHOR = -30.0
ANCHOR_POLYGON = ObstacleShape.polygon([(ANCHOR, ANCHOR), (ANCHOR + 0.5, ANCHOR),
                                        (ANCHOR, ANCHOR + 0.5)])
HALF_DIAGONAL = 0.5 * math.sqrt(2.0) * collision.GRID_STEP
# Signed offsets from the hit threshold around which the verdicts turn:
# the slack, the half-diagonal and both, and a few within them.
BOUND_OFFSETS = tuple(sign * d for sign in (-1.0, 1.0) for d in (
    0.0, collision.SCREEN_SLACK, HALF_DIAGONAL, HALF_DIAGONAL + collision.SCREEN_SLACK,
    2.0 * HALF_DIAGONAL, 2.0 * HALF_DIAGONAL + collision.SCREEN_SLACK, 0.05, 0.3))


class TestWorldVerdicts:
    """``World.proven`` never contradicts the exact pass, and a decided check
    never runs it."""

    @given(st.one_of(screen_curves, st.integers(0, 10**6)), st.tuples(coord, coord,
                                                                     st.floats(-4.0, 4.0)),
           obstacle_sets(), st.lists(st.builds(ObstacleShape.disk, coord, coord,
                                               st.floats(2.0, 3.0)), max_size=3),
           st.sampled_from([0.0, 0.15]), st.sampled_from(ROBOT_COVERS),
           st.sampled_from([0.25, 0.5]))
    @settings(max_examples=400, deadline=None)
    def test_never_contradicts_the_exact_pass(self, library, curve, pose, obstacles, blockers,
                                              margin, spec, ds):
        """Random non-convex polygons, disks, parked footprints and blockers
        (disks as wide as a frozen car); library entries and random cubics."""
        if isinstance(curve, int):
            curve = list(library.entries.values())[curve % len(library.entries)].params
        ds = min(ds, spec.radius)
        base = Pose(*pose)
        world = collision.as_world(obstacles + tuple(blockers))
        centers = curve_centers(spec, curve, base, ds)
        want = exact_hits(centers, spec.radius, obstacles + tuple(blockers), margin)
        hit, free = world.proven(centers, spec.radius, margin)
        assert not np.any(hit & ~want) and not np.any(free & want)
        sweep = world.sweep_hits(one_entry_sweep(curve, ds, spec), base,
                                 spec.radius, margin)
        assert sweep is None or sweep == want.any()
        assert curve_in_collision(spec, curve, base, world, ds, margin) == want.any()

    @given(st.integers(0, 80), st.integers(0, 80), st.sampled_from([-1, 1]),
           st.sampled_from([-1, 1]), st.booleans(), st.sampled_from(["polygon", "disk"]),
           st.floats(0.1, 3.0), st.sampled_from([0.0, 0.15]), st.sampled_from(ROBOT_COVERS),
           st.sampled_from(BOUND_OFFSETS), st.integers(-4, 4))
    @example(0, 0, 1, 1, True, "polygon", 1.0, 0.15, ROBOT_COVERS[0], 0.0, 1)
    @example(0, 0, 1, 1, False, "polygon", 1.0, 0.15, ROBOT_COVERS[0], 0.0, -1)
    @settings(max_examples=1500, deadline=None)
    def test_circles_at_the_bound(self, i, j, sx, sy, beyond, kind, r, margin, spec, offset,
                                  ulps):
        """One circle on a cell corner, its obstacle's nearest point at
        radius + margin + ``offset`` (moved by a few ulps) from it.  A polygon
        face lies across the corner's diagonal, on the far side of the cell
        centre (``beyond``) or on the near side: there the clearance at the
        corner differs from the centre's by the whole half-diagonal, so each
        bound of ``ClearanceGrid`` is met to the ulp."""
        # Corners 15-35 m past the grid's, so every vertex stays above ANCHOR.
        corner = ANCHOR - collision.GRID_PAD + 60.0 * collision.GRID_STEP
        p = np.array([corner + i * collision.GRID_STEP, corner + j * collision.GRID_STEP])
        # (1, 1) points at the centre of the cell p falls in, the cell it is
        # the lower-left corner of; the other signs at its neighbours'.
        u = np.array([sx, sy]) / math.sqrt(2.0)
        if kind == "disk":
            dist = _ulps_from(spec.radius + r + margin + offset, ulps)
            if dist <= 0.0:
                return
            obstacle = ObstacleShape.disk(*(p + dist * u), r)
        else:
            dist = _ulps_from(spec.radius + margin + offset, ulps)
            n = u if beyond else -u
            t = np.array([-n[1], n[0]])
            face = p + dist * n
            obstacle = ObstacleShape.polygon([face + 4.0 * t, face - 4.0 * t,
                                              face - 4.0 * t + 2.0 * n, face + 4.0 * t + 2.0 * n])
        obstacles = (ANCHOR_POLYGON, obstacle)
        world = collision.as_world(obstacles)
        centers = p[None, None, :]
        want = exact_hits(centers, spec.radius, obstacles, margin)
        hit, free = world.proven(centers, spec.radius, margin)
        assert not np.any(hit & ~want) and not np.any(free & want)

    @given(screen_curves, st.tuples(coord, coord, st.floats(-4.0, 4.0)), st.floats(0.1, 3.0),
           st.sampled_from([0.0, 0.15]), st.sampled_from(ROBOT_COVERS),
           st.sampled_from([0.0, collision.SCREEN_SLACK, -collision.SCREEN_SLACK]),
           st.integers(-8, 8))
    @settings(max_examples=600, deadline=None)
    def test_swept_circles_at_the_bound(self, params, pose, r, margin, spec, offset, ulps):
        """A disk ahead of the front circle of a curve's last pose, its rim at
        radius + margin + ``offset`` (moved by a few ulps) from that circle as
        the exact pass places it; the swept cover, placed by ``Pose.place``,
        sits a few ulps away."""
        ds = min(0.5, spec.radius)
        base = Pose(*pose)
        centers = curve_centers(spec, params, base, ds)
        heading = base.theta + local_curve_samples(params, ds)[-1, 2]
        front = centers[-1, int(np.argmax(spec.center_offsets))]
        dist = _ulps_from(spec.radius + r + margin + offset, ulps)
        disk = ObstacleShape.disk(front[0] + dist * math.cos(heading),
                                  front[1] + dist * math.sin(heading), r)
        want = exact_curve_hit(spec, params, base, (disk,), ds, margin)
        sweep = collision.as_world((disk,)).sweep_hits(
            one_entry_sweep(params, ds, spec), base, spec.radius, margin)
        assert sweep is None or sweep == want

    def test_grid_bounds_hold_everywhere(self):
        """Lower and upper cell bounds bracket the signed clearance at random
        points inside, near and far outside the grid."""
        rng = np.random.default_rng(1)
        polygons = (ObstacleShape.polygon([(0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (2.0, 1.0),
                                           (0.0, 3.0)]),
                    ObstacleShape.polygon([(6.0, -2.0), (9.0, -2.0), (7.5, 4.0)]))
        world = collision.as_world(polygons)
        for scale in (1.0, 6.0, 100.0):
            pts = rng.uniform(-scale, scale, size=(4000, 2)) + (4.0, 1.0)
            low, high = world.grid.bounds(pts)[:, 0], world.grid.bounds(pts)[:, 1]
            g = min_clearance(pts[:, None, :], 0.0, polygons)
            assert np.all(low <= g) and np.all(g <= high)

    def test_far_apart_polygons_get_no_grid(self, library, monkeypatch):
        """Two walls 10 km apart would need a grid of 1.6e9 cells: the world
        keeps none, its checks run the exact pass, and a plan there is the
        plan against the near wall alone."""
        near = ObstacleShape.polygon([(6.0, -1.5), (7.0, -1.5), (7.0, 1.5), (6.0, 1.5)])
        far = ObstacleShape.polygon([(1e4, 1e4), (1e4 + 1.0, 1e4), (1e4 + 1.0, 1e4 + 1.0)])
        with monkeypatch.context() as m:
            m.setattr(collision, "ClearanceGrid", None)  # fail, not allocate 12 GB
            world = collision.as_world((near, far))
            assert world.grid is None
        centers = np.random.default_rng(4).uniform(-3.0, 10.0, size=(500, 3, 2))
        want = exact_hits(centers, 1.0, (near, far), 0.15)
        assert want.any() and not want.all()
        assert np.array_equal(collision.circles_hit(centers, 1.0, world, 0.15), want)
        spec, cfg = default_robot_footprint(), rrt.PlannerConfig(
            rng_seed=2, world_bounds=(-10.0, -10.0, 25.0, 15.0))
        plans = [rrt.plan_path(Pose(0.0, 0.0, 0.0), Pose(18.0, 0.0, 0.0), obstacles, cfg,
                               library, spec) for obstacles in (world, (near,))]
        assert plans[0] is not None and plans[0].path.poses == plans[1].path.poses
        _, dense = plans[0].path.dense_samples()
        assert not circles_hit(footprint_circles_batch(spec, dense), spec.radius, world).any()

    def test_decided_checks_skip_the_exact_pass(self, monkeypatch):
        calls = []
        exact = collision._world_hits

        def counted(*args):
            calls.append(args)
            return exact(*args)

        monkeypatch.setattr(collision, "_world_hits", counted)
        spec = default_robot_footprint()
        curve = CurveParams(0.0, 0.0, 0.0, 0.0, 4.0)
        wall = ObstacleShape.polygon([(14.5, -5.0), (16.0, -5.0), (16.0, 5.0), (14.5, 5.0)])
        near = ObstacleShape.polygon([(5.0, -5.0), (6.0, -5.0), (6.0, 5.0), (5.0, 5.0)])
        around = ObstacleShape.polygon([(-5.0, -5.0), (10.0, -5.0), (10.0, 5.0), (-5.0, 5.0)])
        disk = ObstacleShape.disk(2.0, 6.0, 1.0)
        assert not curve_in_collision(spec, curve, Pose(0.0, 0.0, 0.0), (wall, disk), 0.5, 0.15)
        assert curve_in_collision(spec, curve, Pose(0.0, 0.0, 0.0), (wall, around), 0.5, 0.15)
        assert not calls
        # Crossing ``near``, only the poses whose circles come within a
        # half-diagonal of its faces are undecided.
        assert curve_in_collision(spec, curve, Pose(0.0, 0.0, 0.0), (wall, near), 0.5, 0.15)
        assert 0 < len(calls[0][0]) < len(local_curve_samples(curve, 0.5))
        calls.clear()
        # The front circle's rim lies on the face of ``ahead``, within any cell's
        # half-diagonal of the hit threshold.
        face = 4.0 + max(spec.center_offsets) + spec.radius + 0.15
        ahead = ObstacleShape.polygon([(face, -5.0), (face + 1.0, -5.0), (face + 1.0, 5.0),
                                       (face, 5.0)])
        assert curve_in_collision(spec, curve, Pose(0.0, 0.0, 0.0), (ahead,), 0.5, 0.15)
        assert calls

    def test_decided_extension_skips_the_curve_check(self, monkeypatch, library):
        exact_calls, curve_checks = [], []
        exact, curve_check = collision._world_hits, rrt.curve_in_collision
        monkeypatch.setattr(collision, "_world_hits",
                            lambda *a: exact_calls.append(a) or exact(*a))
        monkeypatch.setattr(rrt, "curve_in_collision",
                            lambda *a: curve_checks.append(a) or curve_check(*a))
        spec = default_robot_footprint()
        target = np.array([4.0, 0.0])
        far = ObstacleShape.polygon([(14.5, -5.0), (16.0, -5.0), (16.0, 5.0), (14.5, 5.0)])
        assert rrt.extend(rrt.Tree(Pose(0.0, 0.0, 0.0), "forward"), 0, target, library,
                          (far,), spec) is not None
        assert not exact_calls and not curve_checks
        entry = library.lookup(4.0, 0.0)
        ex = entry.dx + max(spec.center_offsets) * math.cos(entry.dtheta)
        face = ex + spec.radius + rrt.STATIC_MARGIN
        ahead = ObstacleShape.polygon([(face, -5.0), (face + 1.0, -5.0), (face + 1.0, 5.0),
                                       (face, 5.0)])
        rrt.extend(rrt.Tree(Pose(0.0, 0.0, 0.0), "forward"), 0, target, library, (ahead,),
                   spec)
        assert exact_calls and curve_checks


class TestSweptCovers:
    """``collision.swept_covers`` placed at a base against the centers the
    exact pass builds there: within the stated 1e-9 m while coordinates stay
    under 1e5 m."""

    @staticmethod
    def assert_within_bound(spec, params, cover, ds, bases):
        for base in bases:
            want = curve_centers(spec, params, base, ds).reshape(-1, 2)
            assert np.max(np.abs(base.place(cover) - want)) <= 1e-9

    @pytest.mark.parametrize("spec", ROBOT_COVERS)
    @pytest.mark.parametrize("ds", [0.25, 0.5])
    def test_every_default_entry(self, library, spec, ds):
        rng = np.random.default_rng(2)
        covers = collision.swept_covers(library, spec, ds)
        assert covers.keys() == library.entries.keys()
        for cell, cover in covers.items():
            bases = [Pose(*rng.uniform(-scale, scale, 2), rng.uniform(-4.0, 4.0))
                     for scale in (10.0, 1e3, 9e4)]
            self.assert_within_bound(spec, library.entries[cell].params, cover, ds, bases)

    @given(screen_curves, st.tuples(st.floats(-9e4, 9e4), st.floats(-9e4, 9e4),
                                    st.floats(-4.0, 4.0)),
           st.sampled_from(ROBOT_COVERS), st.sampled_from([0.1, 0.25, 0.5]))
    @settings(max_examples=300, deadline=None)
    def test_random_cubics(self, params, pose, spec, ds):
        cover = one_entry_sweep(params, ds, spec)
        self.assert_within_bound(spec, params, cover, ds, [Pose(*pose)])

    def test_built_once_per_step_and_cover(self, library):
        spec = default_robot_footprint()
        first = collision.swept_covers(library, spec, 0.5)
        assert collision.swept_covers(library, spec, 0.5) is first
        cover = next(iter(first.values()))
        assert not cover.flags.writeable
