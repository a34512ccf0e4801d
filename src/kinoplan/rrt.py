"""Bidirectional RRT over car poses with lookup-table curve edges.

Two trees grow from start and goal; extension replaces straight steering with
a precomputed cubic-curvature curve chosen by the endpoint polar coordinates
(r, beta) of the sample in the nearest node's frame.  Once the trees are close,
samples are drawn from a Gaussian mixture centered on the candidate bridging
path to speed up the connection, which is made by online curve fitting.  A
connection is kept only when its curve is shorter than the robot, so a fit is
not tried when even the shortest path under the curvature bound (Dubins) is
longer (``geometry.reachable_within``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .collision import FootprintSpec, as_world, curve_in_collision, pose_in_collision
from .configfile import load_config, write_lines
from .geometry import (
    CurveLibrary,
    CurveParams,
    Pose,
    curvature_at,
    fit_curve,
    integrate_endpoint,
    local_curve_samples,
    normalize_angle,
    reachable_within,
)


@dataclass
class PlannerConfig:
    d_th: float = 6.0  # inter-tree distance below which GMM sampling activates
    p_th: float = 0.5  # probability of a GMM draw once the trees are close
    connect_radius: float = 5.0
    max_iterations: int = 6000
    gmm_sigma: float = 1.0
    eccentricity: float = 1.5
    rng_seed: int = 0
    connect_heading_tol: float = 0.8
    connect_dist_min: float = 0.8
    connect_dist_max: float = 4.5
    goal_bias: float = 0.05
    collision_ds: float = 0.5
    static_margin: float = 0.15  # extra clearance kept from obstacles while steering
    ellipse_margin: float = 5.0
    extend_candidates: int = 8  # nearest nodes tried per sample before giving up
    world_bounds: tuple[float, float, float, float] | None = None  # xmin, ymin, xmax, ymax

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not np.all(np.isfinite(value)):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not (0.0 <= self.p_th <= 1.0):
            raise ValueError("p_th must lie in [0, 1]")
        if self.d_th <= 0.0:
            raise ValueError("d_th must be positive")
        if self.collision_ds <= 0.0:
            raise ValueError(f"collision_ds must be positive, got {self.collision_ds}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")
        if self.static_margin < 0.0:
            raise ValueError(f"static_margin must be non-negative, got {self.static_margin}")
        if self.extend_candidates < 1:
            raise ValueError(f"extend_candidates must be at least 1, "
                             f"got {self.extend_candidates}")
        if not 0.0 <= self.goal_bias <= 1.0:
            raise ValueError(f"goal_bias must be in [0, 1], got {self.goal_bias}")
        if self.connect_radius <= 0.0:
            raise ValueError(f"connect_radius must be positive, got {self.connect_radius}")
        # random_sample's ellipse has semi-major axis max(eccentricity c,
        # c + ellipse_margin) for half the start-goal distance c; below c its
        # minor axis is the square root of a negative number.
        if self.eccentricity < 1.0 and self.ellipse_margin < 0.0:
            raise ValueError(f"eccentricity must be at least 1 when ellipse_margin is "
                             f"negative, got {self.eccentricity} and {self.ellipse_margin}")
        # Outside these a connection can never be made, and every plan spends
        # its whole iteration budget.
        if not 0.0 <= self.connect_dist_min <= self.connect_dist_max:
            raise ValueError(f"connect_dist_min must be in [0, connect_dist_max = "
                             f"{self.connect_dist_max}], got {self.connect_dist_min}")
        if self.connect_heading_tol < 0.0:
            raise ValueError(f"connect_heading_tol must be non-negative, "
                             f"got {self.connect_heading_tol}")
        if self.gmm_sigma < 0.0:
            raise ValueError(f"gmm_sigma must be non-negative, got {self.gmm_sigma}")
        if self.world_bounds is not None and len(self.world_bounds) != 4:
            raise ValueError(f"world_bounds needs 4 values (xmin ymin xmax ymax), "
                             f"got {len(self.world_bounds)}")

    def check_footprint(self, footprint: FootprintSpec) -> None:
        """Raise ValueError unless curve samples ``collision_ds`` apart are
        close enough for ``footprint``'s cover circles to see every obstacle."""
        if self.collision_ds > footprint.radius:
            raise ValueError(f"collision_ds = {self.collision_ds} exceeds the robot's "
                             f"cover radius {footprint.radius:.6g} m")

    def to_file(self, path) -> None:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        write_lines(path, [f"{k} = {' '.join(map(str, v)) if isinstance(v, tuple) else v}"
                           for k, v in values.items() if v is not None])

    from_file = classmethod(load_config)  # key = value lines, each cast by its field's type


@dataclass
class TreeNode:
    pose: Pose
    end_kappa: float
    parent: int | None
    incoming_curve: CurveParams | None
    cost_from_root: float
    visited_entries: set = field(default_factory=set)
    base: Pose | None = None  # the frame extensions grow in; set by ``Tree.add``


class Tree:
    """Indexed node collection with a growing position matrix for nearest queries.

    Each node's ``base`` is its pose in the forward tree and its
    heading-flipped pose in the backward tree, where growth runs in the
    flipped frame so the stored edges stay drivable forward.
    """

    def __init__(self, root: Pose, direction: str):
        assert direction in ("forward", "backward")
        self.direction = direction
        self.nodes: list[TreeNode] = []
        self._pos = np.empty((64, 2))
        self.add(TreeNode(root, 0.0, None, None, 0.0))

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def positions(self) -> np.ndarray:
        return self._pos[: len(self.nodes)]

    def add(self, node: TreeNode) -> int:
        if len(self.nodes) == len(self._pos):
            grown = np.empty((2 * len(self._pos), 2))
            grown[: len(self._pos)] = self._pos
            self._pos = grown
        self._pos[len(self.nodes)] = (node.pose.x, node.pose.y)
        node.base = node.pose if self.direction == "forward" else _flip(node.pose)
        self.nodes.append(node)
        return len(self.nodes) - 1

    def ancestors(self, idx: int) -> list[int]:
        """Indices from the root down to ``idx`` inclusive."""
        chain = []
        cur: int | None = idx
        while cur is not None:
            chain.append(cur)
            cur = self.nodes[cur].parent
        chain.reverse()
        return chain


def _nearest_indices(tree: Tree, point, k: int) -> np.ndarray:
    d = tree.positions - np.asarray(point, dtype=float)
    dist2 = np.einsum("ij,ij->i", d, d)
    if len(dist2) <= k:
        return np.argsort(dist2, kind="stable")
    idx = np.argpartition(dist2, k)[:k]
    return idx[np.argsort(dist2[idx], kind="stable")]


def random_sample(start: Pose, goal: Pose, eccentricity: float, rng: np.random.Generator,
                  margin: float = 5.0, world_bounds=None, d_th: float = 6.0) -> np.ndarray:
    """Uniform sample inside the informed ellipse with foci at start and goal."""
    fx, fy = (start.x + goal.x) / 2.0, (start.y + goal.y) / 2.0
    dx, dy = goal.x - start.x, goal.y - start.y
    d = math.hypot(dx, dy)
    if d < 1e-9:
        rad = d_th * math.sqrt(rng.random())
        ang = 2.0 * math.pi * rng.random()
        p = np.array([start.x + rad * math.cos(ang), start.y + rad * math.sin(ang)])
    else:
        c = d / 2.0
        A = max(eccentricity * c, c + margin)
        B = math.sqrt(A * A - c * c)
        rad = math.sqrt(rng.random())
        ang = 2.0 * math.pi * rng.random()
        ex, ey = A * rad * math.cos(ang), B * rad * math.sin(ang)
        ca, sa = dx / d, dy / d
        p = np.array([fx + ca * ex - sa * ey, fy + sa * ex + ca * ey])
    if world_bounds is not None:
        p[0] = min(max(p[0], world_bounds[0]), world_bounds[2])
        p[1] = min(max(p[1], world_bounds[1]), world_bounds[3])
    return p


def gmm_sample(bridge_nodes, config: PlannerConfig, rng: np.random.Generator) -> np.ndarray:
    """Isotropic-Gaussian mixture draw centered on the bridging-path nodes."""
    k = int(rng.integers(len(bridge_nodes)))
    center = bridge_nodes[k]
    return np.asarray(center, dtype=float) + config.gmm_sigma * rng.standard_normal(2)


DENSE_DS = 0.1  # arc-length step of a path's dense sample table, m


@dataclass
class Path:
    """Geometric planner output: poses joined by cubic-curvature curves."""

    poses: list[Pose]
    curves: list[CurveParams]

    def __post_init__(self):
        self.arc_lengths = np.concatenate(
            [[0.0], np.cumsum([c.s_f for c in self.curves])]
        )
        self._dense: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def total_length(self) -> float:
        return float(self.arc_lengths[-1])

    def __len__(self) -> int:
        return len(self.poses)

    def dense_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """(s_grid, poses) arrays sampled every <= ``DENSE_DS`` along the whole
        path; built on the first call."""
        if self._dense is not None:
            return self._dense
        s_list = [0.0]
        p_list = [self.poses[0].as_array()]
        for i, curve in enumerate(self.curves):
            base = self.poses[i]
            offs = local_curve_samples(curve, DENSE_DS)
            c, sn = math.cos(base.theta), math.sin(base.theta)
            xs = base.x + c * offs[1:, 0] - sn * offs[1:, 1]
            ys = base.y + sn * offs[1:, 0] + c * offs[1:, 1]
            ths = base.theta + offs[1:, 2]
            svals = np.linspace(0.0, curve.s_f, len(offs))[1:] + self.arc_lengths[i]
            s_list.extend(svals.tolist())
            p_list.extend(np.stack([xs, ys, ths], axis=-1).tolist())
        self._dense = (np.asarray(s_list), np.asarray(p_list))
        return self._dense

    def pose_at(self, s: float) -> Pose:
        """Pose at arc length ``s`` by interpolation of the dense sample table."""
        grid, poses = self.dense_samples()
        s = min(max(s, 0.0), self.total_length)
        x = np.interp(s, grid, poses[:, 0])
        y = np.interp(s, grid, poses[:, 1])
        th = np.interp(s, grid, poses[:, 2])
        return Pose(float(x), float(y), float(th))

    def subpath_from(self, s0: float) -> "Path":
        """The remainder of the path starting at arc length ``s0``.

        The first pose is the interpolated pose at s0; the first edge is
        approximated by refitting a curve from there to the next node.
        """
        if s0 <= 1e-9:
            return self
        idx = int(np.searchsorted(self.arc_lengths, s0, side="right")) - 1
        idx = min(idx, len(self.curves) - 1)
        if s0 >= self.arc_lengths[idx + 1] - 1e-6:
            idx += 1
            return Path(self.poses[idx:], self.curves[idx:])
        start_pose = self.pose_at(s0)
        nxt = self.poses[idx + 1]
        offset = start_pose.local_offset(nxt)
        stub = fit_curve(curvature_at(self.curves[idx], s0 - self.arc_lengths[idx]),
                         offset, kappa_max=10.0)
        if stub is None:
            # Fall back to dropping the partial edge.
            return Path(self.poses[idx + 1:], self.curves[idx + 1:])
        return Path([start_pose] + self.poses[idx + 1:], [stub] + self.curves[idx + 1:])

    def to_csv(self, path) -> None:
        """Rows [i, x, y, theta, a, b, c, s_f]; the last row has no outgoing curve."""
        lines = ["i,x,y,theta,a,b,c,s_f"]
        for i, pose in enumerate(self.poses):
            if i < len(self.curves):
                cv = self.curves[i]
                tail = ",".join("%.17g" % v for v in (cv.a, cv.b, cv.c, cv.s_f))
            else:
                tail = "0,0,0,0"
            lines.append("%d,%s,%s" % (
                i + 1, ",".join("%.17g" % v for v in (pose.x, pose.y, pose.theta)), tail))
        write_lines(path, lines)


def _flip(pose: Pose) -> Pose:
    return Pose(pose.x, pose.y, pose.theta + math.pi)


def extend(tree: Tree, n_rst: int, x_rand, library: CurveLibrary, obstacles,
           footprint: FootprintSpec, config: PlannerConfig) -> int | None:
    """Attempt one lookup-table extension of ``tree`` from node ``n_rst`` toward
    the sample ``x_rand`` = (x, y).

    Returns the new node index, or None when the grid entry was already
    visited, is absent, or the curve collides.  Growth runs in the node's
    ``base`` frame (see ``Tree``).  The entry's swept cover
    (``CurveLibrary.swept_covers``) placed at ``base`` decides the collision
    check where ``World.sweep_hits`` proves a verdict; only an undecided
    one runs ``curve_in_collision``.  ``obstacles`` is a ``World`` or a
    sequence of obstacles.
    """
    node = tree.nodes[n_rst]
    base = node.base
    x, y = x_rand
    dxw = x - base.x
    dyw = y - base.y
    r = math.hypot(dxw, dyw)
    if r < 1e-9:
        return None
    beta = normalize_angle(math.atan2(dyw, dxw) - base.theta)
    cell = library.cell_index(r, beta)
    if cell in node.visited_entries:
        return None
    node.visited_entries.add(cell)
    entry = library.entries.get(cell)
    if entry is None:
        return None
    world = as_world(obstacles)
    cover = library.swept_covers(config.collision_ds, footprint.center_offsets)[cell]
    hit = world.sweep_hits(cover, base, footprint.radius, config.static_margin)
    if hit is None:
        hit = curve_in_collision(footprint, entry.params, base, world, config.collision_ds,
                                 config.static_margin)
    if hit:
        return None
    if tree.direction == "forward":
        pose = base.transform(entry.dx, entry.dy, entry.dtheta)
        incoming = entry.params
        end_kappa = curvature_at(entry.params, entry.params.s_f)
    else:
        pose = _flip(base.transform(entry.dx, entry.dy, entry.dtheta))
        incoming = entry.params.reversed()
        end_kappa = incoming.kappa0
    return tree.add(TreeNode(pose, end_kappa, n_rst, incoming,
                             node.cost_from_root + entry.params.s_f))


def _chain_path(t_f: Tree, f_idx: int, t_b: Tree, b_idx: int,
                connect_curve: CurveParams) -> Path:
    fwd = t_f.ancestors(f_idx)
    poses: list[Pose] = [t_f.nodes[i].pose for i in fwd]
    curves: list[CurveParams] = [t_f.nodes[i].incoming_curve for i in fwd[1:]]
    curves.append(connect_curve)
    back = t_b.ancestors(b_idx)[::-1]  # b_idx .. goal root
    for k, i in enumerate(back):
        poses.append(t_b.nodes[i].pose)
        if k < len(back) - 1:
            curves.append(t_b.nodes[i].incoming_curve)
    return Path(poses, curves)


def try_connect(tree_a: Tree, tree_b: Tree, new_idx: int, library: CurveLibrary,
                obstacles, footprint: FootprintSpec, config: PlannerConfig,
                d: np.ndarray) -> Path | None:
    """Try to join the freshly extended node with a nearby opposite-tree node.

    Candidates within ``connect_radius`` are taken nearest first, ties in
    index order; ``d`` holds every ``tree_b`` node's distance to the new
    node (``_node_distances``).  A candidate is skipped without a fit when
    its heading differs too much, when it lies behind, or when no curve
    shorter than ``footprint.length`` within ``kappa_max`` reaches it
    (``reachable_within``), since a longer fit would be discarded.
    """
    new_node = tree_a.nodes[new_idx]
    near = np.flatnonzero(d <= config.connect_radius)
    for j in near[np.argsort(d[near], kind="stable")].tolist():
        cand = tree_b.nodes[j]
        if not (config.connect_dist_min <= d[j] <= config.connect_dist_max):
            continue
        if tree_a.direction == "forward":
            f_tree, f_idx, f_node = tree_a, new_idx, new_node
            b_tree, b_idx, b_node = tree_b, j, cand
        else:
            f_tree, f_idx, f_node = tree_b, j, cand
            b_tree, b_idx, b_node = tree_a, new_idx, new_node
        if abs(normalize_angle(b_node.pose.theta - f_node.pose.theta)) > config.connect_heading_tol:
            continue
        offset = f_node.pose.local_offset(b_node.pose)
        if offset[0] <= 0.0:
            continue  # target behind; no forward curve can reach it
        if not reachable_within(offset, library.config.kappa_max, footprint.length):
            continue  # every curve that reaches it is at least as long as the robot
        seed_entry = library.lookup(math.hypot(offset[0], offset[1]),
                                    math.atan2(offset[1], offset[0]))
        params = fit_curve(f_node.end_kappa, offset, library.config.kappa_max,
                           seed=seed_entry.params if seed_entry else None)
        if params is None or params.s_f >= footprint.length:
            continue
        if curve_in_collision(footprint, params, f_node.pose, obstacles, config.collision_ds,
                              config.static_margin):
            continue
        return _chain_path(f_tree, f_idx, b_tree, b_idx, params)
    return None


def _node_distances(tree_a: Tree, new_idx: int, tree_b: Tree) -> np.ndarray:
    """Distance from node ``new_idx`` of ``tree_a`` to every node of ``tree_b``."""
    return np.linalg.norm(tree_b.positions - tree_a.positions[new_idx], axis=1)


class _NearestPair:
    """Incrementally maintained closest node pair between the two trees, and
    the bridging path through it (``_bridge_nodes``), built when first asked
    for after the pair changes."""

    def __init__(self):
        self.dist = math.inf
        self.f_idx = 0
        self.b_idx = 0
        self._bridge: list[tuple[float, float]] | None = None

    def update_new_node(self, tree_a: Tree, new_idx: int, tree_b: Tree,
                        d: np.ndarray) -> None:
        """Take the new node into account; ``d`` is ``_node_distances(tree_a,
        new_idx, tree_b)``."""
        j = int(np.argmin(d))
        if d[j] < self.dist:
            self.dist = float(d[j])
            if tree_a.direction == "forward":
                self.f_idx, self.b_idx = new_idx, j
            else:
                self.f_idx, self.b_idx = j, new_idx
            self._bridge = None

    def bridge(self, t_f: Tree, t_b: Tree) -> list[tuple[float, float]]:
        if self._bridge is None:
            self._bridge = _bridge_nodes(t_f, t_b, self)
        return self._bridge


def _bridge_nodes(t_f: Tree, t_b: Tree, pair: _NearestPair) -> list[tuple[float, float]]:
    """Node positions from the start root through the nearest pair to the goal
    root; never empty, since each chain holds its root."""
    nodes = []
    for i in t_f.ancestors(pair.f_idx):
        p = t_f.nodes[i].pose
        nodes.append((p.x, p.y))
    for i in t_b.ancestors(pair.b_idx)[::-1]:
        p = t_b.nodes[i].pose
        nodes.append((p.x, p.y))
    return nodes


def sample(t_f: Tree, t_b: Tree, pair: _NearestPair, start: Pose, goal: Pose,
           config: PlannerConfig, rng: np.random.Generator, target_root: Pose) -> np.ndarray:
    """One Alg.-2 draw: GMM near connection, informed-ellipse sample otherwise."""
    p = rng.random()
    if pair.dist < config.d_th and p < config.p_th:
        return gmm_sample(pair.bridge(t_f, t_b), config, rng)
    if config.goal_bias > 0.0 and rng.random() < config.goal_bias:
        return np.array([target_root.x, target_root.y])
    return random_sample(start, goal, config.eccentricity, rng,
                         config.ellipse_margin, config.world_bounds, config.d_th)


@dataclass
class PlanResult:
    path: Path
    iterations: int
    node_count: int


def plan_path(start: Pose, goal: Pose, static_obstacles, config: PlannerConfig,
              library: CurveLibrary, footprint: FootprintSpec) -> PlanResult | None:
    """Run the bi-RRT loop; deterministic for a fixed config.rng_seed.

    ``static_obstacles`` is a ``World`` or a sequence of obstacles; it is
    resolved to its ``World`` once, and every check of the plan uses that.
    Raises ValueError when ``config.collision_ds`` is too coarse for
    ``footprint`` or start or goal is already in collision; returns None when
    the iteration budget is exhausted without a connection.
    """
    config.check_footprint(footprint)
    world = as_world(static_obstacles)
    if pose_in_collision(footprint, start, world):
        raise ValueError("start pose is in collision")
    if pose_in_collision(footprint, goal, world):
        raise ValueError("goal pose is in collision")
    rng = np.random.default_rng(config.rng_seed)
    t_f = Tree(start, "forward")
    t_b = Tree(goal, "backward")
    pair = _NearestPair()
    pair.update_new_node(t_f, 0, t_b, _node_distances(t_f, 0, t_b))
    active, other = t_f, t_b
    for it in range(config.max_iterations):
        target_root = other.nodes[0].pose
        x_rand = sample(t_f, t_b, pair, start, goal, config, rng, target_root)
        # Fall back to the next-nearest nodes when the nearest one has already
        # visited (or lacks) the sample's lookup cell; without this the tree
        # stalls once the nodes around a sampling hotspot saturate.
        new_idx = None
        xy = x_rand.tolist()
        for n_rst in _nearest_indices(active, x_rand, config.extend_candidates).tolist():
            new_idx = extend(active, n_rst, xy, library, world, footprint, config)
            if new_idx is not None:
                break
        if new_idx is not None:
            d = _node_distances(active, new_idx, other)
            pair.update_new_node(active, new_idx, other, d)
            path = try_connect(active, other, new_idx, library, world, footprint, config, d)
            if path is not None:
                return PlanResult(path, it + 1, len(t_f) + len(t_b))
        active, other = other, active
    return None
