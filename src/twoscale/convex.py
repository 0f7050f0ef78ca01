"""Arithmetic on convex compact sets represented by finite generator clouds.

A set is stored as the convex hull of finitely many points (V-representation).
Weighted Minkowski sums and support functions are closed form in this
representation, which makes it the right primitive for averaging set-valued
maps against finite-support probability measures.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ConvexSet",
    "support",
    "minkowski_combine",
    "hausdorff",
    "project",
    "distance",
    "direction_net",
    "unit_ball_set",
]

PROJECTION_TOL = 1e-10
NET_SIZE = 256
_NET_SEED = 20240811


class ConvexSet:
    """Nonempty convex compact subset of R^dim, the hull of ``points``.

    Points are stored as an (n, dim) float array and frozen after
    construction; all operations on the set are pure functions.  A 2-d set
    keeps its hull vertices in ``_hull`` once ``project`` has needed them;
    the slot stays unset until then, and ``points`` is read-only, so the
    cached hull cannot go stale.
    """

    __slots__ = ("points", "dim", "_hull")

    def __init__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            raise ValueError("ConvexSet needs at least one generator point")
        if pts.ndim != 2:
            raise ValueError(f"generator array must be 2-d, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("generator coordinates must be finite")
        pts.flags.writeable = False
        self.points = pts
        self.dim = pts.shape[1]

    @classmethod
    def _trusted(cls, pts: np.ndarray) -> "ConvexSet":
        """Wrap an already-validated (n, dim) float array without checks.

        Internal fast path for arithmetic on sets that were validated at
        construction; shapes and finiteness are the caller's contract.
        """
        obj = cls.__new__(cls)
        pts.flags.writeable = False
        obj.points = pts
        obj.dim = pts.shape[1]
        return obj

    @classmethod
    def singleton(cls, point) -> "ConvexSet":
        pts = np.reshape(np.asarray(point, dtype=float), (1, -1))
        return cls._trusted(pts.copy() if not pts.flags.owndata else pts)

    @classmethod
    def interval(cls, lo: float, hi: float) -> "ConvexSet":
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        return cls([[float(lo)], [float(hi)]])

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def is_singleton(self) -> bool:
        if self.points.shape[0] == 1:
            return True
        return bool(np.all(self.points == self.points[0]))

    def centroid(self) -> np.ndarray:
        return self.points.mean(axis=0)

    def max_norm(self) -> float:
        return float(np.sqrt((self.points**2).sum(axis=1).max()))

    def translate(self, v) -> "ConvexSet":
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"translation has dimension {v.shape}, set has {self.dim}")
        return ConvexSet._trusted(self.points + v)

    def reduced(self) -> "ConvexSet":
        """Drop generators that are not hull vertices (exact in dims 1-2)."""
        return ConvexSet._trusted(_reduce_points(self.points))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConvexSet(dim={self.dim}, n_points={self.n_points})"


def _check_same_dim(*sets: ConvexSet) -> int:
    dims = {K.dim for K in sets}
    if len(dims) != 1:
        raise ValueError(f"dimension mismatch among sets: {sorted(dims)}")
    return dims.pop()


def support(K: ConvexSet, d) -> float:
    """Support function max_{p in K} <p, d>; exact for the generator hull."""
    d = np.asarray(d, dtype=float)
    if d.shape != (K.dim,):
        raise ValueError(f"direction has shape {d.shape}, set has dim {K.dim}")
    return float(np.max(K.points @ d))


def minkowski_combine(weights, sets) -> ConvexSet:
    """Weighted Minkowski sum sum_i w_i * K_i of generator-cloud sets.

    This is the Aumann integral of the map i -> K_i against the finite
    measure (w_i): every selection picks one generator per set and the
    integral set is the hull of all weighted generator sums.
    """
    weights = np.asarray(weights, dtype=float)
    sets = list(sets)
    if weights.ndim != 1 or len(sets) != weights.shape[0]:
        raise ValueError(
            f"got {weights.shape[0]} weights for {len(sets)} sets"
        )
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    dim = _check_same_dim(*sets)

    acc = np.zeros((1, dim))
    for w, K in zip(weights, sets):
        if w == 0.0:
            continue
        term = w * K.points
        if term.shape[0] == 1:
            acc = acc + term
            continue
        if acc.shape[0] == 1:
            acc = term + acc
        else:
            acc = (acc[:, None, :] + term[None, :, :]).reshape(-1, dim)
        # Keep the cloud from growing combinatorially: in 2-d the hull of a
        # pairwise sum has at most n1+n2 vertices, so 4x that is pure excess.
        bound = 2 if dim == 1 else acc.shape[0]
        if acc.shape[0] > 4 * max(dim + 1, min(bound, 64)):
            acc = _reduce_points(acc)
    return ConvexSet._trusted(np.ascontiguousarray(acc))


def _master_directions(dim: int) -> np.ndarray:
    rng = np.random.default_rng(_NET_SEED + dim)
    raw = rng.standard_normal((NET_SIZE, dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    dirs = raw / norms
    # Lead with the axis directions so small prefixes are well spread.
    axes = np.vstack([np.eye(dim), -np.eye(dim)])
    dirs[: min(2 * dim, NET_SIZE)] = axes[: min(2 * dim, NET_SIZE)]
    return dirs


_NET_CACHE: dict[int, np.ndarray] = {}


def direction_net(dim: int) -> np.ndarray:
    """Deterministic seeded unit-direction net; {-1, +1} in dimension 1."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if dim not in _NET_CACHE:
        if dim == 1:
            net = np.array([[-1.0], [1.0]])
        else:
            net = _master_directions(dim)
        net.flags.writeable = False
        _NET_CACHE[dim] = net
    return _NET_CACHE[dim]


_BALL_CACHE: dict[int, ConvexSet] = {}


def unit_ball_set(dim: int) -> ConvexSet:
    """Polytope approximation of the closed unit ball (exact in dim 1)."""
    if dim not in _BALL_CACHE:
        _BALL_CACHE[dim] = ConvexSet(direction_net(dim))
    return _BALL_CACHE[dim]


def hausdorff(K1: ConvexSet, K2: ConvexSet) -> float:
    """Symmetric Hausdorff distance between two generator-cloud sets.

    The directed distance from a polytope is attained at a generator, so the
    generator-to-hull projection term is exact; the support-function sweep
    over the direction net is kept as a cross check (it can only agree or
    fall below). Dimension 1 reduces to endpoint differences.
    """
    dim = _check_same_dim(K1, K2)
    if dim == 1:
        a1, b1 = K1.points.min(), K1.points.max()
        a2, b2 = K2.points.min(), K2.points.max()
        return float(max(abs(a1 - a2), abs(b1 - b2)))
    d = 0.0
    for A, B in ((K1, K2), (K2, K1)):
        for p in A.points:
            d = max(d, float(np.linalg.norm(p - project(B, p))))
    net = direction_net(dim)
    s1 = K1.points @ net.T
    s2 = K2.points @ net.T
    d_support = float(np.max(np.abs(s1.max(axis=0) - s2.max(axis=0))))
    return max(d, d_support)


def _affine_minimizer(P: np.ndarray):
    """Min-norm point of the affine hull of rows of P, with its coefficients."""
    m = P.shape[0]
    A = np.zeros((m + 1, m + 1))
    A[0, 1:] = 1.0
    A[1:, 0] = 1.0
    A[1:, 1:] = P @ P.T
    rhs = np.zeros(m + 1)
    rhs[0] = 1.0
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    alpha = sol[1:]
    return alpha @ P, alpha


def _min_norm_point(P: np.ndarray, tol: float, max_iter: int):
    """Wolfe's algorithm for the nearest point to the origin in conv(rows)."""
    n = P.shape[0]
    norms2 = (P**2).sum(axis=1)
    idx = [int(np.argmin(norms2))]
    w = np.array([1.0])
    x = P[idx[0]].copy()
    for _ in range(max_iter):
        j = int(np.argmin(P @ x))
        # Optimality: no generator improves on <x, x> beyond tolerance.
        if P[j] @ x >= x @ x - tol * (1.0 + x @ x):
            return x, idx, w, True
        if j in idx:
            return x, idx, w, True
        idx.append(j)
        w = np.append(w, 0.0)
        while True:
            S = P[idx]
            y, alpha = _affine_minimizer(S)
            if np.all(alpha >= -1e-14):
                x, w = y, np.maximum(alpha, 0.0)
                break
            mask = alpha < w
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(mask, w / (w - alpha), np.inf)
            ratios[alpha >= 0] = np.inf
            theta = min(1.0, float(ratios.min()))
            w = theta * alpha + (1.0 - theta) * w
            w[w < 1e-14] = 0.0
            keep = w > 0.0
            if not np.any(keep):
                keep[int(np.argmax(alpha))] = True
                w[keep] = 1.0
            idx = [i for i, k in zip(idx, keep) if k]
            w = w[keep]
            x = w @ P[idx]
            if len(idx) == 1:
                break
    return x, idx, w, False


def project(K: ConvexSet, p) -> np.ndarray:
    """Euclidean projection of ``p`` onto the hull of ``K``.

    Exact in dimensions 1 and 2: an interval clip, and a sweep over the
    edges of the set's hull polygon.  A point of the set comes back as
    itself and a vertex answer as its generator, bit for bit.  Above
    dimension 2 it is solved as a min-norm-point problem over hull
    coefficients with Wolfe's active-set iteration, which satisfies
    <p - proj, q - proj> <= tol for every generator q at convergence.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (K.dim,):
        raise ValueError(f"point has shape {p.shape}, set has dim {K.dim}")
    if K.n_points == 1:
        return K.points[0].copy()
    if K.dim == 1:
        return np.clip(p, K.points.min(), K.points.max())
    if K.dim == 2:
        try:
            hull = K._hull
        except AttributeError:
            hull = K._hull = _hull_2d(K.points)
        return _project_polygon(hull, p)
    return _wolfe_project(K, p)


def _wolfe_project(K: ConvexSet, p: np.ndarray) -> np.ndarray:
    """``project`` by Wolfe's active-set loop in any dimension; ``p`` is a
    float array of shape (K.dim,)."""
    Q = K.points - p
    # The loop's tolerances are relative to unit scale: solve at the cloud's.
    scale = float(np.abs(Q).max())
    if scale == 0.0:
        return K.points[0].copy()
    x, idx, _, ok = _min_norm_point(
        Q / scale, PROJECTION_TOL, max_iter=10 * K.n_points
    )
    if not ok:
        raise RuntimeError(
            f"projection active-set iteration failed to converge within "
            f"{10 * K.n_points} iterations (dim={K.dim}, "
            f"generators={K.n_points})"
        )
    if len(idx) == 1:
        # Vertex projections bypass the scale round trip and stay exact.
        return K.points[idx[0]].copy()
    return x * scale + p


def _project_polygon(hull: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Projection onto a point, a segment, or a strictly convex polygon
    whose vertices ``hull`` run counter-clockwise."""
    if len(hull) == 1:
        return hull[0].copy()
    A, B = hull, np.roll(hull, -1, axis=0)
    E = B - A
    W = p - A
    if len(hull) > 2 and np.all(E[:, 0] * W[:, 1] - E[:, 1] * W[:, 0] >= 0.0):
        return p.copy()
    # Outside: the nearest point of the boundary, over every edge clamped.
    t = np.clip((W * E).sum(axis=1) / (E * E).sum(axis=1), 0.0, 1.0)
    C = A + t[:, None] * E
    i = int(np.argmin(((p - C) ** 2).sum(axis=1)))
    # A + 1.0 * E need not round to B: vertex answers come from the hull.
    if t[i] == 0.0:
        return A[i].copy()
    if t[i] == 1.0:
        return B[i].copy()
    return C[i]


def distance(K: ConvexSet, p) -> float:
    """Euclidean distance from ``p`` to the hull of ``K``."""
    return float(np.linalg.norm(np.asarray(p, dtype=float) - project(K, p)))


def _hull_2d(points: np.ndarray) -> np.ndarray:
    """Hull vertices, counter-clockwise from the lowest (x, y); Andrew's
    monotone chain.

    A point within rounding of the chord past it is dropped, so collinear
    inputs give their two end points.  The chain sorts along the longer axis
    of the cloud: along the shorter one, rounding jitter across a nearly
    vertical cloud would scramble the order and cut off its ends.
    """
    swap = bool(np.ptp(points[:, 1]) > np.ptp(points[:, 0]))
    pts = points[:, ::-1] if swap else points
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(np.abs(np.diff(pts, axis=0)) > 1e-15, axis=1)
    pts = pts[keep]
    if len(pts) <= 2:
        hull = pts
    else:
        # A distance from a chord, relative to the coordinates' size.
        eps = 1e-12 * float(np.abs(pts).max())

        def half(seq):
            out = []
            for q in seq:
                while len(out) >= 2:
                    a, b = out[-2], out[-1]
                    cross = (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])
                    if cross <= eps * math.hypot(q[0] - a[0], q[1] - a[1]):
                        out.pop()
                    else:
                        break
                out.append(q)
            return out

        lower = half(pts)
        upper = half(pts[::-1])
        hull = np.array(lower[:-1] + upper[:-1])
    if swap:
        # Swapping the axes mirrors the orientation.
        hull = hull[::-1, ::-1]
        hull = np.roll(hull, -int(np.lexsort((hull[:, 1], hull[:, 0]))[0]), axis=0)
    return hull


def _reduce_points(points: np.ndarray) -> np.ndarray:
    dim = points.shape[1]
    if dim == 1:
        lo, hi = points.min(), points.max()
        return np.array([[lo]]) if lo == hi else np.array([[lo], [hi]])
    if dim == 2:
        return _hull_2d(points)
    # dim >= 3: keep per-direction support achievers on the net.  This is an
    # approximation (interior of flat faces thins out) and only runs on large
    # clouds where exact reduction is not worth it.
    net = direction_net(dim)
    scores = points @ net.T
    keep_idx = np.unique(np.argmax(scores, axis=0))
    return points[keep_idx]
