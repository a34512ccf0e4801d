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
from dataclasses import dataclass, field, replace

import numpy as np

from .collision import (FootprintSpec, as_world, curve_in_collision, pose_in_collision,
                        swept_covers)
from .configfile import check_fields, load_config, write_lines
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


# The planner's fixed parameters, which no workload sets.
D_TH = 6.0  # inter-tree distance below which GMM sampling starts (Alg. 2), m
GMM_SIGMA = 1.0  # per-axis spread of each GMM component, m
# random_sample's ellipse has semi-major axis max(ECCENTRICITY c, c +
# ELLIPSE_MARGIN) for half the start-goal distance c: room for detours on
# short queries, and never an empty minor axis.
ECCENTRICITY = 1.5
ELLIPSE_MARGIN = 5.0
# try_connect fits bridges only to nodes this near and this well aligned, so
# most pairs go without a fit; a bridge must be shorter than the robot, so
# CONNECT_DIST_MAX stays below the 4.6 m car (``connect_dist_min``).
CONNECT_RADIUS = 5.0
CONNECT_DIST_MIN = 0.8
CONNECT_DIST_MAX = 4.5
CONNECT_HEADING_TOL = 0.8  # rad
# Curve-check step, m; a robot with a smaller cover radius is checked at its
# radius (``collision_step``), so no obstacle fits between two samples' circles.
COLLISION_DS = 0.5
STATIC_MARGIN = 0.15  # extra clearance kept from obstacles while steering, m
# Nearest nodes an extension tries per sample: with the nearest alone, a tree
# stalls once the nodes around a sampling hotspot saturate.
EXTEND_CANDIDATES = 8


def collision_step(footprint: FootprintSpec) -> float:
    """``COLLISION_DS``, or ``footprint``'s cover radius when that is smaller."""
    return min(COLLISION_DS, footprint.radius)


def connect_dist_min(footprint: FootprintSpec) -> float:
    """``CONNECT_DIST_MIN``, or half ``footprint``'s length when that is smaller."""
    return min(CONNECT_DIST_MIN, footprint.length / 2.0)


class EndpointInCollision(ValueError):
    """``plan_path``'s start or goal pose is in collision."""


@dataclass
class PlannerConfig:
    p_th: float = 0.5  # probability of a GMM draw once the trees are close
    max_iterations: int = 6000
    rng_seed: int = 0
    goal_bias: float = 0.05
    world_bounds: tuple[float, float, float, float] | None = None  # xmin, ymin, xmax, ymax

    __post_init__ = check_fields  # each field keeps its rule (configfile.FIELD_RULES)

    from_file = classmethod(load_config)  # key = value lines, each cast and checked


@dataclass
class TreeNode:
    pose: Pose
    parent: int | None
    incoming_curve: CurveParams | None
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
        self.add(TreeNode(root, None, None))

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


def random_sample(start: Pose, goal: Pose, rng: np.random.Generator,
                  world_bounds=None) -> np.ndarray:
    """Uniform sample inside the informed ellipse with foci at start and goal
    (a disk of radius ``D_TH`` when they coincide), clamped to ``world_bounds``."""
    fx, fy = (start.x + goal.x) / 2.0, (start.y + goal.y) / 2.0
    dx, dy = goal.x - start.x, goal.y - start.y
    d = math.hypot(dx, dy)
    if d < 1e-9:
        rad = D_TH * math.sqrt(rng.random())
        ang = 2.0 * math.pi * rng.random()
        p = np.array([start.x + rad * math.cos(ang), start.y + rad * math.sin(ang)])
    else:
        c = d / 2.0
        A = max(ECCENTRICITY * c, c + ELLIPSE_MARGIN)
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


def gmm_sample(bridge_nodes, rng: np.random.Generator) -> np.ndarray:
    """Isotropic-Gaussian mixture draw centered on the bridging-path nodes."""
    k = int(rng.integers(len(bridge_nodes)))
    center = bridge_nodes[k]
    return np.asarray(center, dtype=float) + GMM_SIGMA * rng.standard_normal(2)


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
        """(s_grid, poses) arrays along the whole path, built on the first call:
        curve i adds the rows of ``local_curve_samples(curve, DENSE_DS)``
        placed at node i, each at the arc length it was computed at, row k at
        arc_lengths[i] + k ``DENSE_DS`` and the last at arc_lengths[i + 1]."""
        if self._dense is not None:
            return self._dense
        s_list = [0.0]
        p_list = [self.poses[0].as_array()]
        for i, curve in enumerate(self.curves):
            offs = local_curve_samples(curve, DENSE_DS)
            svals = self.arc_lengths[i] + DENSE_DS * np.arange(len(offs))
            svals[-1] = self.arc_lengths[i + 1]
            s_list.extend(svals[1:].tolist())
            p_list.extend(self.poses[i].place(offs[1:]).tolist())
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
        """The rest of the path from arc length ``s0`` in [0, total_length].

        An ``s0`` within 1e-6 m of a node gives that node's suffix.  Otherwise
        the first pose is the exact pose at local arc length u on the curve
        that holds ``s0`` (the row ``local_curve_samples`` gives at u), and
        the first edge is that curve's own tail, kappa(u + s) for s in
        [0, s_f - u]: the curve reversed, cut and reversed back.
        """
        i = int(np.searchsorted(self.arc_lengths, s0 - 1e-6))
        if self.arc_lengths[i] <= s0 + 1e-6:
            return Path(self.poses[i:], self.curves[i:])
        curve, u = self.curves[i - 1], s0 - self.arc_lengths[i - 1]
        start = self.poses[i - 1].transform(*integrate_endpoint(replace(curve, s_f=u)))
        tail = replace(curve.reversed(), s_f=curve.s_f - u).reversed()
        return Path([start] + self.poses[i:], [tail] + self.curves[i:])

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
           footprint: FootprintSpec) -> int | None:
    """Attempt one lookup-table extension of ``tree`` from node ``n_rst`` toward
    the sample ``x_rand`` = (x, y).

    Returns the new node index, or None when the grid entry was already
    visited, is absent, or the curve collides.  Growth runs in the node's
    ``base`` frame (see ``Tree``).  The entry's swept cover
    (``collision.swept_covers``) placed at ``base`` decides the collision
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
    ds = collision_step(footprint)
    hit = world.sweep_hits(swept_covers(library, footprint, ds)[cell], base, footprint.radius,
                           STATIC_MARGIN)
    if hit is None:
        hit = curve_in_collision(footprint, entry.params, base, world, ds, STATIC_MARGIN)
    if hit:
        return None
    if tree.direction == "forward":
        pose = base.transform(entry.dx, entry.dy, entry.dtheta)
        incoming = entry.params
    else:
        pose = _flip(base.transform(entry.dx, entry.dy, entry.dtheta))
        incoming = entry.params.reversed()
    return tree.add(TreeNode(pose, n_rst, incoming))


def _chain(t_f: Tree, f_idx: int, t_b: Tree, b_idx: int):
    """The nodes from the start root down to ``f_idx``, and from ``b_idx`` up
    to the goal root; neither list is empty, since each holds its root."""
    return ([t_f.nodes[i] for i in t_f.ancestors(f_idx)],
            [t_b.nodes[i] for i in t_b.ancestors(b_idx)[::-1]])


def _chain_path(t_f: Tree, f_idx: int, t_b: Tree, b_idx: int,
                connect_curve: CurveParams) -> Path:
    fwd, back = _chain(t_f, f_idx, t_b, b_idx)
    curves = ([n.incoming_curve for n in fwd[1:]] + [connect_curve]
              + [n.incoming_curve for n in back[:-1]])
    return Path([n.pose for n in fwd + back], curves)


def try_connect(tree_a: Tree, tree_b: Tree, new_idx: int, library: CurveLibrary,
                obstacles, footprint: FootprintSpec, d: np.ndarray) -> Path | None:
    """Try to join the freshly extended node with a nearby opposite-tree node.

    Candidates within ``CONNECT_RADIUS`` are taken nearest first, ties in
    index order; ``d`` holds every ``tree_b`` node's distance to the new
    node (``_node_distances``).  A candidate is skipped without a fit when
    it lies outside [``connect_dist_min``, ``CONNECT_DIST_MAX``], when its
    heading differs too much, when it lies behind, or when no curve shorter
    than ``footprint.length`` within ``kappa_max`` reaches it
    (``reachable_within``), since a longer fit would be discarded.
    """
    new_node = tree_a.nodes[new_idx]
    near = np.flatnonzero(d <= CONNECT_RADIUS)
    for j in near[np.argsort(d[near], kind="stable")].tolist():
        cand = tree_b.nodes[j]
        if not (connect_dist_min(footprint) <= d[j] <= CONNECT_DIST_MAX):
            continue
        if tree_a.direction == "forward":
            f_tree, f_idx, f_node = tree_a, new_idx, new_node
            b_tree, b_idx, b_node = tree_b, j, cand
        else:
            f_tree, f_idx, f_node = tree_b, j, cand
            b_tree, b_idx, b_node = tree_a, new_idx, new_node
        if abs(normalize_angle(b_node.pose.theta - f_node.pose.theta)) > CONNECT_HEADING_TOL:
            continue
        offset = f_node.pose.local_offset(b_node.pose)
        if offset[0] <= 0.0:
            continue  # target behind; no forward curve can reach it
        if not reachable_within(offset, library.config.kappa_max, footprint.length):
            continue  # every curve that reaches it is at least as long as the robot
        seed_entry = library.lookup(math.hypot(offset[0], offset[1]),
                                    math.atan2(offset[1], offset[0]))
        # The curvature the forward node ends with: its incoming curve's, 0 at the root.
        inc = f_node.incoming_curve
        kappa0 = 0.0 if inc is None else curvature_at(inc, inc.s_f)
        params = fit_curve(kappa0, offset, library.config.kappa_max,
                           seed=seed_entry.params if seed_entry else None)
        if params is None or params.s_f >= footprint.length:
            continue
        if curve_in_collision(footprint, params, f_node.pose, obstacles,
                              collision_step(footprint), STATIC_MARGIN):
            continue
        return _chain_path(f_tree, f_idx, b_tree, b_idx, params)
    return None


def _node_distances(tree_a: Tree, new_idx: int, tree_b: Tree) -> np.ndarray:
    """Distance from node ``new_idx`` of ``tree_a`` to every node of ``tree_b``."""
    return np.linalg.norm(tree_b.positions - tree_a.positions[new_idx], axis=1)


class _NearestPair:
    """Incrementally maintained closest node pair between the two trees, and
    the positions of the nodes on the bridging path through it (``_chain``),
    built when first asked for after the pair changes."""

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
            fwd, back = _chain(t_f, self.f_idx, t_b, self.b_idx)
            self._bridge = [(n.pose.x, n.pose.y) for n in fwd + back]
        return self._bridge


def sample(t_f: Tree, t_b: Tree, pair: _NearestPair, start: Pose, goal: Pose,
           config: PlannerConfig, rng: np.random.Generator, target_root: Pose) -> np.ndarray:
    """One Alg.-2 draw: GMM near connection, informed-ellipse sample otherwise."""
    p = rng.random()
    if pair.dist < D_TH and p < config.p_th:
        return gmm_sample(pair.bridge(t_f, t_b), rng)
    if config.goal_bias > 0.0 and rng.random() < config.goal_bias:
        return np.array([target_root.x, target_root.y])
    return random_sample(start, goal, rng, config.world_bounds)


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
    Raises ``EndpointInCollision`` when start or goal is already in
    collision; returns None when the iteration budget is exhausted without a
    connection.
    """
    world = as_world(static_obstacles)
    if pose_in_collision(footprint, start, world):
        raise EndpointInCollision("start pose is in collision")
    if pose_in_collision(footprint, goal, world):
        raise EndpointInCollision("goal pose is in collision")
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
        # visited (or lacks) the sample's lookup cell (``EXTEND_CANDIDATES``).
        new_idx = None
        xy = x_rand.tolist()
        for n_rst in _nearest_indices(active, x_rand, EXTEND_CANDIDATES).tolist():
            new_idx = extend(active, n_rst, xy, library, world, footprint)
            if new_idx is not None:
                break
        if new_idx is not None:
            d = _node_distances(active, new_idx, other)
            pair.update_new_node(active, new_idx, other, d)
            path = try_connect(active, other, new_idx, library, world, footprint, d)
            if path is not None:
                return PlanResult(path, it + 1, len(t_f) + len(t_b))
        active, other = other, active
    return None
