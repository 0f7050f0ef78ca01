"""Set-valued drift maps, their validation, and continuous upper approximants.

A drift oracle takes a pair of Euclidean iterates and a finite noise state
and returns a convex compact set.  Three facilities live here:

* structural validation of the oracle (convexity/compactness by
  representation, linear growth, sampled closed-graph witnesses),
* the level-l continuous embeddings built by swelling the graph: the union
  of values over a shrinking ball around the base point, inflated by a
  shrinking ball in the output space,
* single-valued parametrizations of an embedded value by projection from a
  covering ball, so the inclusion can be driven like an ordinary recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .convex import (
    ConvexSet, direction_net, distance, minkowski_combine, project, unit_ball_set,
)

__all__ = [
    "SetValuedMap",
    "ApproxLevel",
    "SeqProbe",
    "SamReport",
    "validate_sam",
    "upper_approx",
    "parametrize",
]

CLOSED_GRAPH_TOL = 1e-8


class SetValuedMap:
    """Oracle (x, y, s) -> ConvexSet with declared linear growth.

    ``growth_K`` declares sup over returned generators of ||z|| bounded by
    growth_K * (1 + ||x|| + ||y||); the declaration is checked by
    ``validate_sam``, not enforced per call.

    ``point`` is an optional point form of the oracle.  Where the value has
    exactly one generator, ``point(x, y, s)`` returns that generator, bit for
    bit, as a float ``(k,)`` array; everywhere else it returns ``None``.  A
    single generator is the least-norm selection, so a driver may use the
    point in place of the set.  ``recursion.run`` calls the point form first
    and evaluates the set only where it gives ``None``.

    ``point_rows``, optional and only beside ``point``, is the point form's
    row form: ``point_rows(X, Y, S)`` takes R probes as the rows of X
    ``(R, d1)`` and Y ``(R, d2)`` with the int states S ``(R,)`` and returns
    ``(R, k)`` floats, each row ``point`` at that probe bit for bit.  Where
    ``point`` gives ``None`` a row is either NaN, and a driver selects that
    row from the set on its own, or the value's least-norm element
    (``dynamics.select_velocity``) bit for bit, which a driver takes as it
    is.  A row's value depends on that row alone.  ``recursion.run`` steps
    blocks of steps through it (see there).  ``validate_sam`` checks both
    contracts at every probe.
    """

    def __init__(
        self, dims, alphabet: int, evaluate: Callable, growth_K: float,
        point: Optional[Callable] = None, point_rows: Optional[Callable] = None,
    ):
        d1, d2, k = dims
        if min(d1, k) < 1 or d2 < 0:
            raise ValueError(f"bad dims {dims}")
        if alphabet < 1:
            raise ValueError("alphabet size must be >= 1")
        if growth_K <= 0:
            raise ValueError("growth_K must be positive")
        if point_rows is not None and point is None:
            raise ValueError("point_rows needs the point form it batches")
        self.dims = (int(d1), int(d2), int(k))
        self.alphabet = int(alphabet)
        self._evaluate = evaluate
        self.point = point
        self.point_rows = point_rows
        self.growth_K = float(growth_K)
        self._checked = False

    def check_probe(self, x, y, s: int):
        """(x, y) as float arrays; ``ValueError`` unless (x, y, s) fits the
        declared dims and alphabet."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d1, d2, _ = self.dims
        if x.shape != (d1,) or y.shape != (d2,):
            raise ValueError(
                f"probe shapes {x.shape}, {y.shape} do not match dims {self.dims}"
            )
        if not 0 <= s < self.alphabet:
            raise ValueError(f"state {s} outside alphabet of size {self.alphabet}")
        self._checked = True
        return x, y

    def dim_error(self, got) -> ValueError:
        """The error of an oracle value whose dimension is not the declared one."""
        return ValueError(f"oracle returned dim {got}, declared {self.dims[2]}")

    def __call__(self, x, y, s: int) -> ConvexSet:
        # Argument validation runs on the first probe only (drivers evaluate
        # millions of times); the output dimension is checked on every call,
        # so a bad oracle is named where it fails.
        if not self._checked:
            x, y = self.check_probe(x, y, s)
        K = self._evaluate(x, y, s)
        if not isinstance(K, ConvexSet):
            K = ConvexSet(K)
        if K.dim != self.dims[2]:
            raise self.dim_error(K.dim)
        return K

    def growth_bound(self, x, y) -> float:
        return self.growth_K * (
            1.0 + float(np.linalg.norm(x)) + float(np.linalg.norm(y))
        )


@dataclass(frozen=True)
class ApproxLevel:
    """Level-l constants of the upper-approximation construction."""

    l: int
    radius: float
    inflation: float
    growth_Kl: float

    @classmethod
    def for_map(cls, F: SetValuedMap, l: int) -> "ApproxLevel":
        if l < 1:
            raise ValueError("level must be >= 1")
        radius = 3.0 * 2.0 ** (-l)
        inflation = 2.0 ** (-l)
        # Bound over the swelled graph: probes move by at most radius, the
        # output inflates by at most inflation.
        growth_Kl = F.growth_K * (1.0 + 2.0 * radius) + inflation
        return cls(l=l, radius=radius, inflation=inflation, growth_Kl=growth_Kl)

    @property
    def net_size(self) -> int:
        return 2 ** min(self.l + 3, 8)


class SeqProbe(NamedTuple):
    """A convergent witness sequence for the closed-graph check.

    ``points`` and ``values`` sample probe points p_n and z_n in F(p_n);
    ``limit_point``/``limit_value`` are the declared limits.  A probe point
    is (x, y, s) for a drift map and z for a mean field; plain 4-tuples in
    this field order are accepted wherever a ``SeqProbe`` is.
    """

    points: list
    values: list
    limit_point: tuple
    limit_value: np.ndarray


@dataclass
class SamReport:
    """Outcome of a sampled Marchaud-contract check of a drift map or a
    mean field: convex compact values, linear growth, closed graph, and for
    a drift map with a point form, that form's contract.  Point failures are
    (probe, what is wrong)."""

    convex_compact: bool = True
    growth_ok: bool = True
    closed_graph_ok: bool = True
    point_ok: bool = True
    growth_violations: list = field(default_factory=list)
    closed_graph_failures: list = field(default_factory=list)
    point_failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.convex_compact and self.growth_ok and self.closed_graph_ok
            and self.point_ok
        )


def _check_contract(
    value: Callable, bound: Callable, record: Callable, grid, seq_probes, tol: float,
    outside: str,
) -> SamReport:
    """Growth and closed-graph loops shared by every map contract check.

    ``value(p)`` is the map's set at probe point p, ``bound(p)`` its declared
    growth bound there, and ``record(p)`` the form p is recorded in.
    Violations are (point, worst norm, bound); closed-graph failures are
    (point, value, ``outside`` or the limit gap).
    """
    grid = list(grid)
    if not grid:
        raise ValueError("probe grid must be nonempty")
    report = SamReport()
    for p in grid:
        worst = value(p).max_norm()
        b = bound(p)
        if worst > b + 1e-12:
            report.growth_ok = False
            report.growth_violations.append((record(p), worst, b))
    for points, values, limit_point, limit_value in seq_probes:
        for p, z in zip(points, values):
            if distance(value(p), z) > tol:
                report.closed_graph_ok = False
                report.closed_graph_failures.append((record(p), np.asarray(z), outside))
        gap = distance(value(limit_point), limit_value)
        if gap > tol:
            report.closed_graph_ok = False
            report.closed_graph_failures.append(
                (record(limit_point), np.asarray(limit_value), gap)
            )
    return report


def validate_sam(
    F: SetValuedMap,
    grid,
    seq_probes=(),
    tol: float = CLOSED_GRAPH_TOL,
) -> SamReport:
    """Check the drift-map contract at finitely many (x, y, s) probes.

    Convexity and compactness hold by representation (finite generator
    hulls) and are recorded as such.  The growth declaration is evaluated at
    every grid probe; each witness sequence must keep its values inside the
    map and land its limit value inside the limit set.  A declared point
    form must return the single generator bit for bit wherever the value
    has one, and ``None`` wherever it has more, at every grid probe and
    every sequence point and limit.  A declared ``point_rows``, called once
    on all those probes, must give ``point`` at each of them bit for bit,
    and where ``point`` gives ``None`` a NaN row or exactly the value's
    least-norm element; as the probes differ, this also shows that no row
    depends on the others.
    """
    grid, seq_probes = list(grid), list(seq_probes)
    report = _check_contract(
        lambda p: F(*p), lambda p: F.growth_bound(p[0], p[1]), tuple,
        grid, seq_probes, tol, "value outside map along sequence",
    )
    if F.point is not None:
        probes = grid + [p for pts, _, limit, _ in seq_probes for p in (*pts, limit)]
        for p in probes:
            wrong = _point_mismatch(F, p)
            if wrong is not None:
                report.point_failures.append((tuple(p), wrong))
        if F.point_rows is not None:
            report.point_failures += _rows_mismatches(F, probes)
        report.point_ok = not report.point_failures
    return report


def _rows_mismatches(F: SetValuedMap, probes) -> list:
    """(probe, what is wrong) wherever one ``point_rows`` call over all the
    probes breaks the row-form contract."""
    # A module-level import would be circular: dynamics imports svmaps.
    from .dynamics import select_velocity

    def wrong_at(x, y, s, r):
        v = F.point(x, y, s)
        if v is not None:
            if r.tobytes() == np.asarray(v, dtype=float).tobytes():
                return None
            return f"differs from point {np.asarray(v).tolist()}"
        if np.isnan(r).any():
            return None
        least = select_velocity(F(x, y, s))
        if r.tobytes() == least.tobytes():
            return None
        return ("no NaN where point gives None, and not the least-norm "
                f"element {least.tolist()}")

    return row_form_mismatches("point_rows", F.point_rows, probes, F.dims[2], wrong_at)


def row_form_mismatches(name: str, form: Callable, probes, width: int, wrong_at) -> list:
    """(probe, what is wrong) wherever one call ``form(X, Y, S)`` over all
    the (x, y, s) probes breaks a row form's contract: it must give a float
    ``(len(probes), width)`` array, and ``wrong_at(x, y, s, r)`` names what
    is wrong with the row r it gives at a probe, or returns None.  As the
    probes differ, this also shows a row that depends on the others."""
    n = len(probes)
    X = np.array([np.asarray(p[0], dtype=float) for p in probes]).reshape(n, -1)
    Y = np.array([np.asarray(p[1], dtype=float) for p in probes]).reshape(n, -1)
    S = np.array([int(p[2]) for p in probes], dtype=int)
    R = form(X, Y, S)
    if not (isinstance(R, np.ndarray) and R.dtype == float and R.shape == (n, width)):
        return [(tuple(probes[0]), f"{name} gave {type(R).__name__} {np.shape(R)}, "
                 f"not a float ({n}, {width}) array")]
    out = []
    for p, x, y, s, r in zip(probes, X, Y, S, R):
        wrong = wrong_at(x, y, int(s), r)
        if wrong is not None:
            out.append((tuple(p), f"{name} row {r.tolist()}: {wrong}"))
    return out


def _point_mismatch(F: SetValuedMap, p) -> Optional[str]:
    """What breaks the point-form contract at probe p, or None."""
    x, y, s = p
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    K = F(x, y, s)
    v = F.point(x, y, s)
    if K.n_points > 1:
        if v is None:
            return None
        return f"point form gave a point where the value has {K.n_points} generators"
    if v is None:
        return "point form gave None where the value has one generator"
    if not (isinstance(v, np.ndarray) and v.dtype == float and v.shape == (K.dim,)):
        return f"point form gave {type(v).__name__} {np.shape(v)}, not a float ({K.dim},) array"
    if v.tobytes() != K.points[0].tobytes():
        return f"point form {v.tolist()} differs from the generator {K.points[0].tolist()}"
    return None


def _ball_net(dim: int, size: int) -> np.ndarray:
    """Points in the closed unit ball: the origin, then unit directions.

    The directions are a prefix of ``direction_net(dim)``, so nets at
    consecutive levels are radially aligned prefixes of each other; this is
    what makes the sampled approximants nest on affine map families.
    Dimension 1 takes evenly spaced points of [-1, 1] instead, less the 0.0
    among them (an odd count holds it), so the origin comes once.
    """
    if dim == 1:
        dirs = np.linspace(-1.0, 1.0, size - 1)
        dirs = dirs[dirs != 0.0].reshape(-1, 1)
    else:
        dirs = direction_net(dim)[: size - 1]
    return np.vstack([np.zeros((1, dim)), dirs])


def upper_approx(
    F: SetValuedMap, level: ApproxLevel, x, y, s: int
) -> ConvexSet:
    """Level-l outer approximation of F(x, y, s).

    Hull of the union of F over a sampled ball of radius ``level.radius``
    around (x, y), Minkowski-inflated by ``level.inflation`` times the unit
    ball.  The base point itself is always in the net, so the true value is
    always contained.  The noise state is held fixed: a finite alphabet
    carries the discrete metric and needs no smoothing across states.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d1, d2, k = F.dims
    base = np.concatenate([x, y])
    offsets = _ball_net(d1 + d2, level.net_size) * level.radius
    gens = []
    for off in offsets:
        xp = base[:d1] + off[:d1]
        yp = base[d1:] + off[d1:]
        gens.append(F(xp, yp, s).points)
    union = ConvexSet(np.vstack(gens)).reduced()
    ball = unit_ball_set(k)
    return minkowski_combine([1.0, level.inflation], [union, ball])


def parametrize(F_l_value: ConvexSet, u, R: float) -> np.ndarray:
    """Single-valued representation of an approximant value.

    Maps the closed unit ball onto the set: the image of u is the projection
    of c + R*u onto the set, where c is the generator centroid.  Surjectivity
    needs the ball c + R*U to cover the set, which is checked on generators.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (F_l_value.dim,):
        raise ValueError(f"u has shape {u.shape}, set has dim {F_l_value.dim}")
    nu = float(np.linalg.norm(u))
    if nu > 1.0 + 1e-12:
        raise ValueError(f"u must lie in the closed unit ball, got ||u||={nu}")
    c = F_l_value.centroid()
    covering = float(np.linalg.norm(F_l_value.points - c, axis=1).max())
    if R < covering - 1e-12:
        raise ValueError(
            f"R={R} does not cover the set: generator at distance {covering} from centroid"
        )
    return project(F_l_value, c + R * u)

