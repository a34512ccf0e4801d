"""Cubic-curvature curve primitives, boundary-value fitting and the offline curve library.

A curve is parameterized by its curvature polynomial kappa(s) = kappa0 + a*s +
b*s^2 + c*s^3 over arc length s in [0, s_f].  Heading change has a closed form;
positions are obtained by composite Simpson quadrature.  The library stores
fitted curves indexed by the polar coordinates (r, beta) of their endpoint in
the start frame, for O(1) lookup during tree extension.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .configfile import at_line, cast, load_config, read_lines, write_lines

# Quadrature step for position integrals (m).
SIMPSON_STEP = 0.01

# Endpoint tolerance for curve fitting (m / rad).
FIT_TOL = 1e-7
# fit_curve returns a fit whose squared endpoint error is below this: within
# 1e-4 m and rad of the goal.
_FIT_ACCEPT_COST = 1e-8
# Extra path length the reachability gate allows (m); see ``reachable_within``.
_GATE_LENGTH_MARGIN = 0.01


def normalize_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    t = math.fmod(theta, 2.0 * math.pi)
    if t <= -math.pi:
        t += 2.0 * math.pi
    elif t > math.pi:
        t -= 2.0 * math.pi
    return t


@dataclass(frozen=True)
class Pose:
    """Planar pose (x, y, theta), theta in (-pi, pi]."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", normalize_angle(self.theta))

    def transform(self, dx: float, dy: float, dtheta: float) -> "Pose":
        """Compose this pose with a local-frame offset."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return Pose(
            self.x + c * dx - s * dy,
            self.y + s * dx + c * dy,
            self.theta + dtheta,
        )

    def local_offset(self, other: "Pose") -> tuple[float, float, float]:
        """Express ``other`` in this pose's frame as (dx, dy, dtheta)."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        rx = other.x - self.x
        ry = other.y - self.y
        return (
            c * rx + s * ry,
            -s * rx + c * ry,
            normalize_angle(other.theta - self.theta),
        )

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta])


@dataclass(frozen=True)
class CurveParams:
    """Cubic curvature polynomial coefficients plus total arc length."""

    kappa0: float
    a: float
    b: float
    c: float
    s_f: float

    def __post_init__(self):
        if not (self.s_f > 0.0) or not all(
            math.isfinite(v) for v in (self.kappa0, self.a, self.b, self.c, self.s_f)
        ):
            raise ValueError(f"invalid curve parameters: {self}")

    def reversed(self) -> "CurveParams":
        """The same geometric curve traversed end-to-start.

        kappa_rev(s) = -kappa(s_f - s), which is again a cubic polynomial.
        """
        k0, a, b, c, sf = self.kappa0, self.a, self.b, self.c, self.s_f
        return CurveParams(
            kappa0=-(k0 + a * sf + b * sf**2 + c * sf**3),
            a=a + 2.0 * b * sf + 3.0 * c * sf**2,
            b=-(b + 3.0 * c * sf),
            c=c,
            s_f=sf,
        )


def _curvature(params: CurveParams, s):
    """kappa0 + a s + b s^2 + c s^3 without a range check; s a float or an array."""
    return params.kappa0 + s * (params.a + s * (params.b + s * params.c))


def _heading(params: CurveParams, s):
    """kappa0 s + a s^2/2 + b s^3/3 + c s^4/4 without a range check."""
    return s * (params.kappa0 + s * (params.a / 2.0 + s * (params.b / 3.0 + s * params.c / 4.0)))


def _check_range(params: CurveParams, s: np.ndarray) -> None:
    if np.any(s < -1e-12) or np.any(s > params.s_f + 1e-12):
        raise ValueError(f"arc length outside [0, {params.s_f}]")


def curvature_at(params: CurveParams, s) -> float:
    """Curvature kappa(s) = kappa0 + a s + b s^2 + c s^3; s may be an array."""
    s = np.asarray(s, dtype=float)
    _check_range(params, s)
    out = _curvature(params, s)
    return float(out) if out.ndim == 0 else out


def heading_change(params: CurveParams, s) -> float:
    """Closed-form integral of curvature: kappa0 s + a s^2/2 + b s^3/3 + c s^4/4."""
    s = np.asarray(s, dtype=float)
    _check_range(params, s)
    out = _heading(params, s)
    return float(out) if out.ndim == 0 else out


def max_abs_curvature(params: CurveParams, step: float = SIMPSON_STEP) -> float:
    """Max |kappa| sampled at the quadrature resolution over [0, s_f]."""
    n = max(2, int(math.ceil(params.s_f / step)))
    grid = np.linspace(0.0, params.s_f, n + 1)
    return float(np.max(np.abs(curvature_at(params, grid))))


def _simpson_grid(params: CurveParams, s: float):
    """Composite Simpson nodes on [0, s]: (grid, headings, weights, h/3).

    The grid is ``np.linspace(0, min(s, s_f), n + 1)`` to the bit, written the
    way numpy computes it, and lies in [0, s_f], so the headings skip
    ``heading_change``'s range check.
    """
    n = max(2, int(math.ceil(s / SIMPSON_STEP)))
    n += n % 2
    stop = min(s, params.s_f)
    grid = np.arange(n + 1) * (stop / n)
    grid[-1] = stop
    th = _heading(params, grid)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return grid, th, w, (s / n) / 3.0


def _offset_at(params: CurveParams, s: float) -> tuple[float, float, float]:
    """(dx, dy, dtheta) of the curve frame at arc length s, composite Simpson."""
    if s <= 0.0:
        return 0.0, 0.0, 0.0
    _, th, w, h3 = _simpson_grid(params, s)
    dx = h3 * float(w @ np.cos(th))
    dy = h3 * float(w @ np.sin(th))
    return dx, dy, float(th[-1])


def _shoot(params: CurveParams) -> tuple[np.ndarray, tuple]:
    """Simpson endpoint (dx, dy, dtheta) of the full curve and its node arrays.

    The endpoint is ``integrate_endpoint(params)`` to the bit; the node arrays
    are what ``_shot_jacobian`` differentiates.
    """
    grid, th, w, h3 = _simpson_grid(params, params.s_f)
    cos, sin = np.cos(th), np.sin(th)
    end = np.array([h3 * float(w @ cos), h3 * float(w @ sin), float(th[-1])])
    return end, (grid, w, h3, cos, sin)


def _shot_jacobian(params: CurveParams, end: np.ndarray, nodes: tuple) -> np.ndarray:
    """3x4 Jacobian in (a, b, c, s_f) of the shot ``end, nodes = _shoot(params)``.

    The Simpson sum is differentiated with its node count held fixed: node i
    sits at s_i = s_f i/n, so d(theta_i)/d(a, b, c) = (s_i^2/2, s_i^3/3,
    s_i^4/4) and d(theta_i)/d(s_f) = kappa(s_i) s_i/s_f, and the step h = s_f/n
    adds x/s_f (y/s_f) to the s_f column of the position rows.
    """
    grid, w, h3, cos, sin = nodes
    sf = params.s_f
    s2 = grid * grid
    kappa = _curvature(params, grid)
    dth = np.stack([s2 / 2.0, s2 * grid / 3.0, s2 * s2 / 4.0, kappa * grid / sf])
    jac = np.empty((3, 4))
    jac[0] = -h3 * (dth @ (w * sin))
    jac[1] = h3 * (dth @ (w * cos))
    jac[0, 3] += end[0] / sf
    jac[1, 3] += end[1] / sf
    jac[2] = (sf * sf / 2.0, sf**3 / 3.0, sf**4 / 4.0, kappa[-1])
    return jac


def _pinv(jac: np.ndarray) -> np.ndarray:
    """``np.linalg.pinv(jac, rcond=1e-10)`` to the bit, without its generic wrapper.

    The same operations in the same order: a thin SVD, singular values at or
    below 1e-10 of the largest dropped, and V diag(1/s) U^T as one matmul.
    """
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    large = s > 1e-10 * s.max()
    s = np.divide(1.0, s, where=large, out=s)
    s[~large] = 0.0
    return vt.T @ (s[:, None] * u.T)


def endpoint_jacobian(params: CurveParams) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint (dx, dy, dtheta) and its exact 3x4 Jacobian in (a, b, c, s_f).

    The endpoint is ``integrate_endpoint(params)`` to the bit; see
    ``_shot_jacobian`` for the derivative (Kelly & Nagy, IJRR 2003).
    """
    end, nodes = _shoot(params)
    return end, _shot_jacobian(params, end, nodes)


def integrate_endpoint(params: CurveParams) -> tuple[float, float, float]:
    """Endpoint offset (dx, dy, dtheta) of the full curve in its start frame."""
    return _offset_at(params, params.s_f)


def _simpson_offsets(params: CurveParams, s: np.ndarray) -> np.ndarray:
    """``_offset_at(params, s_k)`` to the bit for each arc length s_k > 0, as
    an (N, 3) array, in one pass.

    The Simpson grids of all the samples lie end to end in one ragged array,
    each with its own node count n, spacing s_k/n and last node set to s_k,
    as ``_simpson_grid`` builds them.  Headings, cosines and sines are
    evaluated once over that array, and each sample's two sums stay one BLAS
    dot over exactly its own weights and nodes.
    """
    n = np.maximum(np.ceil(s / SIMPSON_STEP), 2.0)
    n += n % 2.0
    step = s / n
    counts = (n + 1.0).astype(np.intp)
    ends = np.cumsum(counts) - 1
    starts = ends - counts + 1
    local = np.arange(ends[-1] + 1) - np.repeat(starts, counts)
    grid = local * np.repeat(step, counts)
    grid[ends] = s
    th = _heading(params, grid)
    cos, sin = np.cos(th), np.sin(th)
    w = np.where(local & 1, 4.0, 2.0)
    w[starts] = 1.0
    w[ends] = 1.0
    sums = []
    for a, b in zip(starts.tolist(), (ends + 1).tolist()):
        wk = w[a:b]
        sums.append((wk.dot(cos[a:b]), wk.dot(sin[a:b])))
    out = np.empty((len(s), 3))
    out[:, :2] = (step / 3.0)[:, None] * sums
    out[:, 2] = th[ends]
    return out


# Most Simpson nodes one pass of ``_simpson_offsets`` evaluates, which bounds
# its memory: a pass over N samples of a curve holds about N^2 ds / (2 h) nodes.
_PASS_NODES = 1 << 17


@lru_cache(maxsize=65536)
def local_curve_samples(params: CurveParams, ds: float) -> np.ndarray:
    """Cached local-frame offsets (dx, dy, dtheta) at s = 0, ds, 2 ds, ... and s_f.

    A read-only (N, 3) array whose row at s is ``_offset_at(params, s)`` to
    the bit, so the last row is ``integrate_endpoint(params)``; a last step
    within 1e-9 m of s_f is merged into it.  The rows come from
    ``_simpson_offsets``, in as few passes as ``_PASS_NODES`` allows (one
    for the planner's curves).  A step that is not positive and finite
    raises ValueError.
    """
    if not 0.0 < ds < math.inf:
        raise ValueError(f"sampling step must be positive and finite, got {ds}")
    s = np.arange(0.0, params.s_f, ds)
    if len(s) and params.s_f - s[-1] <= 1e-9:
        s[-1] = params.s_f
    else:
        s = np.append(s, params.s_f)
    out = np.zeros((len(s), 3))
    first = 1 if s[0] <= 0.0 else 0  # the offset at s = 0 is zero
    per_pass = max(1, _PASS_NODES // (int(params.s_f / SIMPSON_STEP) + 4))
    for k in range(first, len(s), per_pass):
        out[k:k + per_pass] = _simpson_offsets(params, s[k:k + per_pass])
    out.flags.writeable = False
    return out


_TWO_PI = 2.0 * math.pi
# Rounding slack of the Dubins words.  p^2 (or the CCC cosine) within
# _DUBINS_EPS outside its domain counts as on its edge, and an angle within
# _ANGLE_EPS below 2 pi counts as 0: a segment that is 0 in exact arithmetic
# can come out as -1e-8 (sqrt turns a p^2 of 1e-16 into a p of 1e-8), and
# must not wrap to a full turn.  Both guards only ever shorten a word, so the
# length stays a lower bound.
_DUBINS_EPS = 1e-9
_ANGLE_EPS = 1e-6


def _mod2pi(x: float) -> float:
    r = x % _TWO_PI
    return r if r < _TWO_PI - _ANGLE_EPS else 0.0


def dubins_length(dx: float, dy: float, dtheta: float, radius: float) -> float:
    """Length of the shortest forward path from (0, 0, 0) to (dx, dy, dtheta)
    whose curvature never exceeds 1/radius.

    Dubins (Am. J. Math. 1957) showed the shortest such path is one of six
    words of arcs (L, R) and a line (S); this is the minimum of their closed
    forms (Shkel & Lumelsky, RAS 2001), in units of ``radius``.  No curve with
    |kappa| <= 1/radius, cubic or not, reaching the offset is shorter.  The
    rounding guards (``_mod2pi``, ``_DUBINS_EPS``) only lower a word's length,
    so the result never exceeds the exact minimum by more than rounding.
    """
    d = math.hypot(dx, dy) / radius
    phi = math.atan2(dy, dx)
    a = _mod2pi(-phi)
    b = _mod2pi(dtheta - phi)
    sa, ca, sb, cb = math.sin(a), math.cos(a), math.sin(b), math.cos(b)
    c_ab = math.cos(a - b)
    words = []
    # CSC words with both turns the same way: LSL, RSR.
    for sign in (1.0, -1.0):
        p2 = 2.0 + d * d - 2.0 * c_ab + 2.0 * sign * d * (sa - sb)
        if p2 >= -_DUBINS_EPS:
            tmp = math.atan2(sign * (cb - ca), d + sign * (sa - sb))
            words.append(_mod2pi(sign * (tmp - a)) + math.sqrt(max(p2, 0.0))
                         + _mod2pi(sign * (b - tmp)))
    # CSC words that turn both ways: LSR, RSL.
    for sign in (1.0, -1.0):
        p2 = -2.0 + d * d + 2.0 * c_ab + 2.0 * sign * d * (sa + sb)
        if p2 >= -_DUBINS_EPS:
            p = math.sqrt(max(p2, 0.0))
            tmp = math.atan2(-sign * (ca + cb), d + sign * (sa + sb)) - math.atan2(-2.0 * sign, p)
            words.append(_mod2pi(sign * (tmp - a)) + p + _mod2pi(sign * (tmp - b)))
    # CCC words: RLR, LRL.
    for sign in (-1.0, 1.0):
        cos_p = (6.0 - d * d + 2.0 * c_ab - 2.0 * sign * d * (sa - sb)) / 8.0
        if abs(cos_p) <= 1.0 + _DUBINS_EPS:
            p = _mod2pi(_TWO_PI - math.acos(min(max(cos_p, -1.0), 1.0)))
            tmp = math.atan2(ca - cb, d + sign * (sa - sb))
            t = _mod2pi(-sign * a - tmp + p / 2.0)
            words.append(t + p + _mod2pi(sign * (b - a) - t + p))
    return min(words) * radius


def fit_curve(
    start_kappa: float,
    goal_offset: tuple[float, float, float],
    kappa_max: float,
    seed: CurveParams | None = None,
    max_iters: int = 80,
) -> CurveParams | None:
    """Solve for (a, b, c, s_f) so the curve endpoint hits ``goal_offset``.

    kappa0 is fixed to ``start_kappa`` (curvature continuity with the parent);
    the end curvature is left free.  Damped Gauss-Newton shooting with the
    pseudo-inverse step (minimum-norm in the underdetermined direction) on the
    exact endpoint Jacobian of ``endpoint_jacobian`` (Kelly & Nagy, IJRR 2003).
    The line search compares endpoints only.  A Jacobian is formed only when a
    step needs one, from the accepted shot's node arrays, so the converged
    iterate's is never computed.  Returns None when the iteration fails to
    converge or the curvature bound is violated.
    """
    gx, gy, gth = goal_offset
    chord = math.hypot(gx, gy)
    if chord < 1e-6:
        return None
    if seed is not None:
        u = np.array([seed.a, seed.b, seed.c, seed.s_f])
    else:
        u = np.array([0.0, 0.0, 0.0, max(chord, 0.1)])
    goal = np.array([gx, gy, gth])

    def shoot(u):
        a, b, c, sf = u
        p = CurveParams(start_kappa, a, b, c, max(sf, 1e-3))
        return (p, *_shoot(p))

    p, end, nodes = shoot(u)
    f = end - goal
    cost = float(f @ f)
    for _ in range(max_iters):
        if cost < FIT_TOL**2:
            break
        step = _pinv(_shot_jacobian(p, end, nodes)) @ f
        # Backtracking damping: a trial costs one shot; the accepted trial's
        # node arrays give the next iteration's Jacobian.
        lam = 1.0
        for _ in range(20):
            u_new = u - lam * step
            u_new[3] = max(u_new[3], 1e-3)
            try:
                p_new, end_new, nodes_new = shoot(u_new)
            except (ValueError, FloatingPointError):
                lam *= 0.5
                continue
            f_new = end_new - goal
            c_new = float(f_new @ f_new)
            if c_new < cost:
                u, f, p, cost = u_new, f_new, p_new, c_new
                end, nodes = end_new, nodes_new
                break
            lam *= 0.5
        else:
            return None
    if cost >= _FIT_ACCEPT_COST:
        return None
    if max_abs_curvature(p) > kappa_max + 1e-9:
        return None
    return p


def reachable_within(goal_offset: tuple[float, float, float], kappa_max: float,
                     max_length: float) -> bool:
    """False only when ``fit_curve(k0, goal_offset, kappa_max)`` can return no
    curve at most ``max_length`` long, for any k0 and seed.

    Callers skip the fit when this is False, because they would discard any
    longer curve.  The test is ``dubins_length(goal_offset, 1/kappa')`` <=
    ``max_length`` + 0.01 m (``_GATE_LENGTH_MARGIN``), where kappa' is a
    bound on the true |kappa| of any curve ``fit_curve`` accepts.  With D the
    chord of ``goal_offset``, h = ``SIMPSON_STEP`` and delta = 1e-4:

    - Curvature between samples.  ``fit_curve`` checks |kappa| <=
      ``kappa_max`` + 1e-9 at the N + 1 evenly spaced points of
      ``max_abs_curvature``, N >= s_f/h > D/h - 1 (a curve is at least as
      long as its chord, less the endpoint tolerance).  Where a cubic's
      |kappa| peaks at M inside [0, s_f], its slope is 0 and a sample lies
      within s_f/(2N); Markov's inequality (|kappa''| <= 96 M / s_f^2 for a
      cubic) bounds the drop to that sample by (s_f/2N)^2/2 * 96 M / s_f^2 =
      12 M / N^2.  So M <= (kappa_max + 1e-9) / (1 - 12/N^2).
    - Endpoint tolerance.  The accepted Simpson endpoint lies within delta
      (m and rad) of the goal.  On a straight curve of length L >= D, to
      first order, a curvature change of at most 3 delta/L + 4 delta/L^2
      turns the end heading by delta and moves the end sideways by delta,
      and stretching the end by delta covers the along-track part.  kappa'
      adds twice that bound, 8 delta (1/D + 1/D^2), for the turning of a
      curved curve, the second-order terms and the Simpson error of the
      endpoint, O(h^4).  The tests check the bound on arcs at |kappa| =
      ``kappa_max``, where the shortest length jumps, and on random cubics.
    - Length.  The 0.01 m margin covers the along-track stretch and the
      rounding of ``dubins_length``; it also lets the same test serve a
      caller that keeps s_f < ``max_length`` and one that keeps s_f <=
      ``max_length``.

    Where D < 6 h the Markov factor is weak and the gate passes every goal.
    """
    chord = math.hypot(goal_offset[0], goal_offset[1])
    n = chord / SIMPSON_STEP - 1.0
    if n < 5.0:
        return True
    delta = math.sqrt(_FIT_ACCEPT_COST)
    kappa = ((kappa_max + 1e-9) / (1.0 - 12.0 / (n * n))
             + 8.0 * delta * (1.0 / chord + 1.0 / (chord * chord)))
    return dubins_length(*goal_offset, 1.0 / kappa) <= max_length + _GATE_LENGTH_MARGIN


@dataclass(frozen=True)
class CurveEntry:
    """One lookup-table record: [r, a, b, c, s_f, dx, dy, dtheta, beta]."""

    r: float
    beta: float
    params: CurveParams
    dx: float
    dy: float
    dtheta: float


@dataclass(frozen=True)
class LibraryConfig:
    """Grid and feasibility settings for offline library generation."""

    r_min: float = 1.0
    # r_max is kept below max_arc_length so the top grid row stays populated;
    # clamping far samples to r_max then steers by a full-length curve.
    r_max: float = 4.0
    n_r: int = 8
    beta_min: float = math.radians(-60.0)
    beta_max: float = math.radians(60.0)
    n_beta: int = 17
    kappa_max: float = 0.7
    max_arc_length: float = 4.14  # 0.9 x default vehicle length
    # End headings tried per cell, as multiples of beta.  2.0 is the
    # circular-arc ending and is the minimum-peak-curvature option; smaller
    # factors give under-steer endings, larger over-steer.
    dtheta_factors: tuple[float, ...] = (1.0, 1.5, 2.0, 2.5)

    def __post_init__(self):
        if self.n_r < 1 or self.n_beta < 1:
            raise ValueError(f"n_r ({self.n_r}) and n_beta ({self.n_beta}) must be at least 1")
        # A one-point axis may have equal bounds; a longer one must rise.
        if not (self.r_min < self.r_max or self.n_r == 1 and self.r_min == self.r_max):
            raise ValueError(f"r_min ({self.r_min}) must be below r_max ({self.r_max})")
        if not (self.beta_min < self.beta_max
                or self.n_beta == 1 and self.beta_min == self.beta_max):
            raise ValueError(f"beta_min ({self.beta_min}) must be below "
                             f"beta_max ({self.beta_max})")
        if not (self.kappa_max > 0.0 and self.max_arc_length > 0.0):
            raise ValueError(f"kappa_max ({self.kappa_max}) and max_arc_length "
                             f"({self.max_arc_length}) must be positive")
        if not self.dtheta_factors:
            raise ValueError("dtheta_factors needs at least one value")

    from_file = classmethod(load_config)  # key = value lines, each cast by its field's type


_LIBRARY_VERSION = "# kinoplan curve library v1"
# The library CSV's columns: a header row of LibraryConfig fields, a row per cell.
_LIBRARY_HEADER = ("r_min", "r_max", "beta_min", "beta_max", "kappa_max", "n_r", "n_beta",
                   "max_arc_length")
_LIBRARY_ROW = ("i", "j", "r", "a", "b", "c", "s_f", "dx", "dy", "dtheta", "beta")


def _grid_axis(lo: float, hi: float, n: int) -> tuple:
    """(lo, hi, 1 / step, points, top) of the grid ``np.linspace(lo, hi, n)``.

    ``points`` lists the grid with +inf appended, so a one-point grid has a
    second point that never wins, and ``top`` is the last index a bracketing
    pair can start at.
    """
    inv_step = (n - 1) / (hi - lo) if n > 1 and hi != lo else 0.0
    return lo, hi, inv_step, np.linspace(lo, hi, n).tolist() + [math.inf], max(n - 2, 0)


class CurveLibrary:
    """Grid of fitted curves indexed by endpoint polar coordinates (r, beta)."""

    def __init__(self, config: LibraryConfig, entries: dict[tuple[int, int], CurveEntry]):
        self.config = config
        self.entries = entries
        self._r_axis = _grid_axis(config.r_min, config.r_max, config.n_r)
        self._b_axis = _grid_axis(config.beta_min, config.beta_max, config.n_beta)
        self._swept: dict[tuple, dict[tuple[int, int], np.ndarray]] = {}

    def cell_index(self, r: float, beta: float) -> tuple[int, int]:
        """Clamp (r, beta) into range and return the nearest grid cell index.

        On each axis the uniform spacing gives the bracketing pair of grid
        points in O(1); of the two, the one with the smaller
        ``abs(grid[k] - v)`` wins and the lower index wins a tie, which is
        the choice ``np.argmin(np.abs(grid - v))`` makes.
        """
        lo, hi, inv_step, grid, top = self._r_axis
        r = min(max(r, lo), hi)
        i = min(max(int((r - lo) * inv_step), 0), top)
        if abs(grid[i] - r) > abs(grid[i + 1] - r):
            i += 1
        lo, hi, inv_step, grid, top = self._b_axis
        beta = min(max(beta, lo), hi)
        j = min(max(int((beta - lo) * inv_step), 0), top)
        if abs(grid[j] - beta) > abs(grid[j + 1] - beta):
            j += 1
        return i, j

    def lookup(self, r: float, beta: float) -> CurveEntry | None:
        return self.entries.get(self.cell_index(r, beta))

    def swept_covers(self, ds: float,
                     offsets: tuple[float, ...]) -> dict[tuple[int, int], np.ndarray]:
        """Per cell, the circle centers of a footprint cover swept along its
        entry's curve, in the entry's start frame: a read-only (n k, 2) array.

        A cover has its k circles at ``offsets`` along a pose's heading; the
        sweep places it at every row (dx, dy, dtheta) of
        ``local_curve_samples(params, ds)``, at (dx + cos(dtheta) o, dy +
        sin(dtheta) o).  The rows are that function's own, computed without
        its cache, so a sweep rotated by c = cos(theta), s = sin(theta) and
        shifted to a base (x, y, theta) is, in exact arithmetic, the cover
        ``collision.curve_in_collision`` builds there: cos(theta + dtheta) = c
        cos(dtheta) - s sin(dtheta), and likewise for the sine.  The two
        differ only by rounding, a few ulps of the largest coordinate
        involved (below 1e-9 m while coordinates stay under 1e5 m).  Built
        for every entry on the first call per (ds, offsets) and kept with the
        library.
        """
        key = (ds, offsets)
        if key not in self._swept:
            row = np.asarray(offsets, dtype=float)
            sweeps = {}
            for cell, entry in self.entries.items():
                poses = local_curve_samples.__wrapped__(entry.params, ds)
                cover = np.empty((len(poses), len(row), 2))
                cover[..., 0] = poses[:, 0:1] + np.cos(poses[:, 2:3]) * row
                cover[..., 1] = poses[:, 1:2] + np.sin(poses[:, 2:3]) * row
                cover = cover.reshape(-1, 2)
                cover.flags.writeable = False
                sweeps[cell] = cover
            self._swept[key] = sweeps
        return self._swept[key]

    def save_csv(self, path) -> None:
        lines = [
            _LIBRARY_VERSION,
            "# " + ",".join(_LIBRARY_HEADER),
            ",".join("%.17g" % getattr(self.config, k) for k in _LIBRARY_HEADER),
            "# " + ",".join(_LIBRARY_ROW),
        ]
        for (i, j), e in sorted(self.entries.items()):
            p = e.params
            lines.append("%d,%d," % (i, j) + ",".join("%.17g" % v for v in (
                e.r, p.a, p.b, p.c, p.s_f, e.dx, e.dy, e.dtheta, e.beta)))
        write_lines(path, lines)

    @classmethod
    def load_csv(cls, path) -> "CurveLibrary":
        """Read a library written by ``save_csv``.

        A wrong version line, a missing header, a header or row with the wrong
        number of fields, a value that does not parse or a cell outside the
        grid raises ValueError naming ``file:line``.
        """
        lines = read_lines(path, sep=",", comment=None)
        lineno, first = next(lines, (1, None))
        with at_line(path, lineno):
            if first != [_LIBRARY_VERSION]:
                raise ValueError(f"expected {_LIBRARY_VERSION!r}")
        config, entries = None, {}
        for lineno, fields in lines:
            if fields[0].startswith("#"):
                continue
            with at_line(path, lineno):
                expected = len(_LIBRARY_ROW if config else _LIBRARY_HEADER)
                if len(fields) != expected:
                    raise ValueError(f"{len(fields)} fields, expected {expected}")
                try:
                    if config is None:
                        types = typing.get_type_hints(LibraryConfig)
                        config = LibraryConfig(**{k: cast(types[k], [v])
                                                  for k, v in zip(_LIBRARY_HEADER, fields)})
                        continue
                    i, j = int(fields[0]), int(fields[1])
                    if not (0 <= i < config.n_r and 0 <= j < config.n_beta):
                        raise ValueError(f"cell ({i}, {j}) is outside the grid")
                    r, a, b, c, sf, dx, dy, dth, beta = (float(v) for v in fields[2:])
                    params = CurveParams(0.0, a, b, c, sf)
                except ValueError as exc:
                    raise ValueError(f"{'bad row' if config else 'bad header'}: {exc}") from None
            entries[(i, j)] = CurveEntry(r=r, beta=beta, params=params, dx=dx, dy=dy,
                                         dtheta=dth)
        if config is None:
            raise ValueError(f"{path}:{lineno}: missing header")
        return cls(config, entries)


def build_curve_library(config: LibraryConfig = LibraryConfig()) -> CurveLibrary:
    """Fit one curve per feasible (r, beta) grid cell; infeasible cells stay absent.

    Per cell, end headings beta * dtheta_factors are tried and the feasible fit
    with the smallest peak curvature is kept.  Each distinct target is fitted
    once, in first-seen order (at beta = 0 every factor gives the same one).
    A fit starts warm from the last entry of the same bearing column, and a
    failed warm fit is retried cold; a cell with no such entry fits cold once,
    as a retry would repeat that fit bit for bit.  A target that no curve within
    ``max_arc_length`` can reach (``reachable_within``) is not fitted, since
    its fit would be discarded.  Deterministic for a fixed config.
    """
    r_grid = np.linspace(config.r_min, config.r_max, config.n_r)
    b_grid = np.linspace(config.beta_min, config.beta_max, config.n_beta)
    entries: dict[tuple[int, int], CurveEntry] = {}
    for j, beta in enumerate(b_grid):
        warm: CurveParams | None = None
        for i, r in enumerate(r_grid):
            best: tuple[float, CurveParams] | None = None
            # At beta = 0 every factor gives the same target; its repeats
            # could only tie, and a tie keeps the first.
            targets = dict.fromkeys((r * math.cos(beta), r * math.sin(beta), beta * factor)
                                    for factor in config.dtheta_factors)
            for target in targets:
                if not reachable_within(target, config.kappa_max, config.max_arc_length):
                    continue
                params = fit_curve(0.0, target, config.kappa_max, seed=warm)
                if params is None and warm is not None:
                    params = fit_curve(0.0, target, config.kappa_max, seed=None)
                if params is None or params.s_f > config.max_arc_length:
                    continue
                peak = max_abs_curvature(params)
                if best is None or peak < best[0]:
                    best = (peak, params)
            if best is not None:
                params = best[1]
                dx, dy, dth = integrate_endpoint(params)
                entries[(i, j)] = CurveEntry(
                    r=math.hypot(dx, dy),
                    beta=math.atan2(dy, dx),
                    params=params,
                    dx=dx,
                    dy=dy,
                    dtheta=dth,
                )
                warm = params
    return CurveLibrary(config, entries)
