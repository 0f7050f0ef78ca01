import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize

from twoscale.convex import (
    PROJECTION_TOL,
    ConvexSet,
    direction_net,
    distance,
    hausdorff,
    minkowski_combine,
    project,
    _hull_2d,
    support,
    unit_ball_set,
)

RNG = np.random.default_rng(1234)


def brute_force_combine_1d(weights, intervals, grid=401):
    """Aumann oracle: enumerate discretized selections f(s) per state."""
    lo = sum(w * a for w, (a, _) in zip(weights, intervals))
    hi = 0.0
    points = []
    for choices in np.ndindex(*(grid,) * len(intervals)):
        total = 0.0
        for w, (a, b), c in zip(weights, intervals, choices):
            total += w * (a + (b - a) * c / (grid - 1))
        points.append(total)
    return min(points), max(points)


class TestConvexSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ConvexSet(np.empty((0, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ConvexSet([[np.nan, 0.0]])

    def test_singleton(self):
        K = ConvexSet.singleton([3.0, 4.0])
        assert K.dim == 2 and K.is_singleton


class TestSupport:
    def test_unit_square_corner(self):
        K = ConvexSet([[0, 0], [1, 0], [0, 1], [1, 1]])
        assert support(K, [1.0, 1.0]) == 2.0

    def test_singleton(self):
        K = ConvexSet.singleton([3.0])
        for d in (-1.0, 1.0, 0.5):
            assert support(K, [d]) == pytest.approx(3.0 * d)

    def test_symmetric_interval(self):
        K = ConvexSet.interval(-1.0, 1.0)
        assert support(K, [-1.0]) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            support(ConvexSet.interval(0, 1), [1.0, 0.0])

    def test_sublinear(self):
        K = ConvexSet(RNG.standard_normal((7, 3)))
        for _ in range(50):
            d1 = RNG.standard_normal(3)
            d2 = RNG.standard_normal(3)
            assert support(K, d1 + d2) <= support(K, d1) + support(K, d2) + 1e-12


class TestMinkowskiCombine:
    def test_identity(self):
        K = minkowski_combine([1.0], [ConvexSet.interval(0, 1)])
        assert hausdorff(K, ConvexSet.interval(0, 1)) == 0.0

    def test_half_half(self):
        # Frozen from the selection brute force: [1.0, 1.5].
        lo, hi = brute_force_combine_1d([0.5, 0.5], [(0, 1), (2, 2)])
        assert (lo, hi) == (1.0, 1.5)
        K = minkowski_combine(
            [0.5, 0.5], [ConvexSet.interval(0, 1), ConvexSet.singleton([2.0])]
        )
        assert hausdorff(K, ConvexSet.interval(lo, hi)) <= 1e-12

    def test_third_two_thirds(self):
        lo, hi = brute_force_combine_1d([1 / 3, 2 / 3], [(0, 1), (2, 2)])
        assert (lo, hi) == pytest.approx((4 / 3, 5 / 3))
        K = minkowski_combine(
            [1 / 3, 2 / 3], [ConvexSet.interval(0, 1), ConvexSet.singleton([2.0])]
        )
        assert hausdorff(K, ConvexSet.interval(lo, hi)) <= 1e-12

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            minkowski_combine([-0.5, 1.5], [ConvexSet.interval(0, 1)] * 2)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            minkowski_combine(
                [1.0, 1.0],
                [ConvexSet.interval(0, 1), ConvexSet.singleton([0.0, 0.0])],
            )

    def test_associative_in_distribution(self):
        sets = [ConvexSet(RNG.standard_normal((4, 2))) for _ in range(3)]
        w = [0.2, 0.3, 0.5]
        joint = minkowski_combine(w, sets)
        inner = minkowski_combine(w[:2], sets[:2])
        nested = minkowski_combine([1.0, w[2]], [inner, sets[2]])
        assert hausdorff(joint, nested) <= 1e-9

    def test_reduction_keeps_set(self):
        sets = [ConvexSet(RNG.standard_normal((9, 2))) for _ in range(4)]
        w = [0.25] * 4
        K = minkowski_combine(w, sets)
        # Compare against the raw unreduced product of two pairwise sums.
        left = minkowski_combine(w[:2], sets[:2])
        right = minkowski_combine(w[2:], sets[2:])
        K2 = minkowski_combine([1.0, 1.0], [left, right])
        assert hausdorff(K, K2) <= 1e-9


class TestHausdorff:
    def test_identical(self):
        K = ConvexSet.interval(0, 1)
        assert hausdorff(K, K) == 0.0

    def test_nested_intervals(self):
        assert hausdorff(ConvexSet.interval(0, 1), ConvexSet.interval(0, 2)) == 1.0

    def test_shifted_square(self):
        # Dense boundary sampling oracle for the shifted unit square.
        sq = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
        shift = np.array([1.0, 0.0])
        ts = np.linspace(0, 1, 200)
        edges = [(sq[0], sq[1]), (sq[1], sq[3]), (sq[3], sq[2]), (sq[2], sq[0])]
        boundary = np.vstack([a + np.outer(ts, b - a) for a, b in edges])
        d_oracle = 0.0
        for p in boundary:
            d_oracle = max(d_oracle, np.min(np.linalg.norm(boundary + shift - p, axis=1)))
        assert d_oracle == pytest.approx(1.0, abs=1e-9)
        K1 = ConvexSet(sq)
        K2 = ConvexSet(sq + shift)
        assert hausdorff(K1, K2) == pytest.approx(1.0, abs=1e-9)

    def test_exact_1d(self):
        for _ in range(50):
            a1, b1 = np.sort(RNG.uniform(-5, 5, 2))
            a2, b2 = np.sort(RNG.uniform(-5, 5, 2))
            d = hausdorff(ConvexSet.interval(a1, b1), ConvexSet.interval(a2, b2))
            assert d == max(abs(a1 - a2), abs(b1 - b2))


class TestProject:
    def test_vertex(self):
        K = ConvexSet([[0, 0], [1, 0], [0, 1]])
        np.testing.assert_allclose(project(K, [2.0, 0.0]), [1.0, 0.0], atol=1e-9)

    def test_interior_point_fixed(self):
        K = ConvexSet([[0, 0], [1, 0], [0, 1]])
        p = np.array([0.2, 0.3])
        np.testing.assert_allclose(project(K, p), p, atol=1e-9)

    def test_interval(self):
        K = ConvexSet.interval(-1, 1)
        np.testing.assert_allclose(project(K, [-3.0]), [-1.0], atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            project(ConvexSet.interval(0, 1), [1.0, 2.0])

    def test_optimality_condition(self):
        for dim in (2, 3, 4):
            for _ in range(25):
                K = ConvexSet(RNG.standard_normal((6, dim)))
                p = 2.0 * RNG.standard_normal(dim)
                pr = project(K, p)
                gaps = (K.points - pr) @ (p - pr)
                assert np.all(gaps <= 1e-7)

    def test_nonexpansive(self):
        K = ConvexSet(RNG.standard_normal((8, 3)))
        for _ in range(50):
            p = 3.0 * RNG.standard_normal(3)
            q = 3.0 * RNG.standard_normal(3)
            lhs = np.linalg.norm(project(K, p) - project(K, q))
            assert lhs <= np.linalg.norm(p - q) + 1e-9

    def test_distance(self):
        K = ConvexSet.interval(0, 1)
        assert distance(K, [2.0]) == pytest.approx(1.0, abs=1e-12)


class TestNets:
    def test_direction_net_1d(self):
        np.testing.assert_array_equal(direction_net(1), [[-1.0], [1.0]])

    def test_direction_net_unit(self):
        net = direction_net(3)
        assert net.shape == (256, 3)
        np.testing.assert_allclose(np.linalg.norm(net, axis=1), 1.0, atol=1e-12)

    def test_net_deterministic(self):
        np.testing.assert_array_equal(direction_net(2), direction_net(2))

    def test_unit_ball_1d(self):
        B = unit_ball_set(1)
        assert hausdorff(B, ConvexSet.interval(-1, 1)) == 0.0


# Property tests.  Runs are derandomized, so every run draws the same examples.
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
SCALES = st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6])
UNIT = st.floats(-1.0, 1.0, allow_subnormal=False)
KINDS_2D = ("general", "duplicate", "collinear", "near_collinear")


@st.composite
def clouds(draw, dim, kinds=("general",), scale=None):
    """A generator cloud whose largest coordinate is a drawn scale, and a
    point to project at that scale.

    In 2-d the cloud may repeat one point, lie on a line, or lie on a line
    up to an offset below the hull's collinearity threshold (1e-12 of the
    coordinates' size); the line's direction may be axis-aligned.
    """
    n = draw(st.integers(2, 8))
    scale = draw(SCALES) if scale is None else scale
    pts = draw(arrays(np.float64, (n, dim), elements=UNIT))
    if np.abs(pts).max() > 0.0:
        pts = pts / np.abs(pts).max()
    kind = draw(st.sampled_from(kinds))
    if kind == "duplicate":
        pts = np.repeat(pts[:2], [1, n - 1], axis=0)
    elif kind in ("collinear", "near_collinear"):
        a, d = pts[0], pts[1] - pts[0]
        ts = draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
        pts = a + ts[:, None] * d
        if kind == "near_collinear":
            jitter = draw(arrays(np.float64, n, elements=st.floats(-1e-13, 1e-13)))
            pts = pts + jitter[:, None] * np.array([-d[1], d[0]])
    p = draw(arrays(np.float64, dim, elements=st.floats(-2.0, 2.0)))
    return scale * pts, scale * p


def qp_projection(V, p):
    """Independent oracle: min ||w V - p|| over hull weights w, by SLSQP."""
    s = float(np.abs(V - p).max())
    if s == 0.0:
        return p.copy()
    Q = (V - p) / s
    n = len(V)
    res = minimize(
        lambda w: 0.5 * float((w @ Q) @ (w @ Q)),
        np.full(n, 1.0 / n),
        jac=lambda w: Q @ (w @ Q),
        method="SLSQP",
        bounds=[(0.0, None)] * n,
        constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0,
                      "jac": lambda w: np.ones(n)}],
        options={"ftol": 1e-16, "maxiter": 500},
    )
    return p + s * (res.x @ Q)


def error_scale(V, p):
    """Length scale of ``project``'s error at (V, p): the cloud's distance
    from p.  Dimensions 1 and 2 are exact up to rounding, and Wolfe's loop
    stops once no generator improves by PROJECTION_TOL relative to
    max |q - p|^2, at every scale."""
    return float(np.abs(V - p).max())


def point_tol(V, p):
    """Distance within which ``project`` must match the exact answer: in
    1-d and 2-d the oracle's own accuracy, 1e-7 relative, and in Wolfe's
    loop the distance error its stopping rule allows, sqrt(PROJECTION_TOL)
    relative."""
    e = error_scale(V, p)
    return 1e-7 * e if V.shape[1] <= 2 else 2.0 * np.sqrt(PROJECTION_TOL) * e


CASES = {1: clouds(1), 2: clouds(2, KINDS_2D), 3: clouds(3)}


@pytest.mark.parametrize("dim", [1, 2, 3])
class TestProjectProperties:
    @PROPERTY
    @given(data=st.data())
    def test_matches_qp_oracle(self, dim, data):
        # The oracle's point lies in the hull, so the projection can be no
        # farther from p; and the projection lies in the hull, by the
        # oracle's distance from it.  Neither check needs the oracle's first
        # point to be the exact projection.
        V, p = data.draw(CASES[dim])
        pr = project(ConvexSet(V), p)
        tol = point_tol(V, p)
        assert np.linalg.norm(p - pr) <= np.linalg.norm(p - qp_projection(V, p)) + tol
        assert np.linalg.norm(qp_projection(V, pr) - pr) <= tol

    @PROPERTY
    @given(data=st.data())
    def test_variational_inequality(self, dim, data):
        V, p = data.draw(CASES[dim])
        pr = project(ConvexSet(V), p)
        assert np.all((V - pr) @ (p - pr) <= 1e-9 * error_scale(V, p) ** 2)

    @PROPERTY
    @given(data=st.data())
    def test_idempotent(self, dim, data):
        V, p = data.draw(CASES[dim])
        K = ConvexSet(V)
        pr = project(K, p)
        assert np.linalg.norm(project(K, pr) - pr) <= point_tol(V, p)

    @PROPERTY
    @given(data=st.data())
    def test_nonexpansive(self, dim, data):
        V, p = data.draw(CASES[dim])
        q = data.draw(arrays(np.float64, dim, elements=st.floats(-2.0, 2.0)))
        q = q * float(np.abs(V).max() + np.abs(p).max())
        K = ConvexSet(V)
        lhs = np.linalg.norm(project(K, p) - project(K, q))
        assert lhs <= np.linalg.norm(p - q) + point_tol(V, p) + point_tol(V, q)


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6])
class TestProject3dScales:
    @PROPERTY
    @given(data=st.data())
    def test_matches_qp_oracle(self, scale, data):
        # Wolfe's loop is held to a tolerance relative to the cloud's
        # distance from p, below unit scale as above it.
        V, p = data.draw(clouds(3, scale=scale))
        pr = project(ConvexSet(V), p)
        tol = point_tol(V, p)
        assert np.linalg.norm(p - pr) <= np.linalg.norm(p - qp_projection(V, p)) + tol
        assert np.linalg.norm(qp_projection(V, pr) - pr) <= tol
        assert np.all((V - pr) @ (p - pr) <= 1e-9 * error_scale(V, p) ** 2)


class TestProjectExact:
    def test_interior_point_bit_exact(self):
        # A point of the set, on its boundary too, is its own projection,
        # with no rounding.
        cases = [
            ([[-1.0], [1.0]], [0.3]),
            ([[-1.0], [1.0]], [1.0]),
            ([[0, 0], [1, 0], [0, 1]], [0.3, 0.7]),
            ([[0.1], [0.7], [0.25]], [0.4]),
            ([[0, 0], [1, 0], [0, 1]], [0.2, 0.3]),
            ([[0.1, 0.7], [0.9, 0.2], [0.3, -0.4], [-0.5, 0.1]], [0.25, 0.15]),
            ([[0.1, 0.7], [0.9, 0.2], [0.3, -0.4], [-0.5, 0.1]], [0.3, 0.1]),
        ]
        for V, p in cases:
            p = np.array(p)
            assert np.array_equal(project(ConvexSet(V), p), p)

    def test_3d_cloud_at_the_point(self):
        # Every generator equals p, at a scale where Q is zero, and near it.
        for p in ([1.0, 2.0, 3.0], [1e-300, 0.0, -1e-300], [0.0, 0.0, 0.0]):
            p = np.array(p)
            assert np.array_equal(project(ConvexSet([p, p, p]), p), p)
        V = np.array([[1e-7, 0.0, 0.0], [0.0, 1e-7, 0.0], [0.0, 0.0, 1e-7]])
        pr = project(ConvexSet(V), np.zeros(3))
        assert np.abs(pr - np.full(3, 1e-7 / 3)).max() <= 1e-20

    def test_vertex_answer_is_generator(self):
        # A generator within rounding of the vertex (0, 0), as Minkowski sums
        # leave behind, must not stand in for it: the answer is the vertex.
        V = np.array([[-1e-13, 0.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]])
        for p in ([1e4, 1e4], [1e4, 3e3], [3.0, 2.0]):
            pr = project(ConvexSet(V), np.array(p))
            assert np.array_equal(pr, V[3])
        V1 = np.array([[0.7 - 1e-16], [0.1], [0.7]])
        assert np.array_equal(project(ConvexSet(V1), np.array([5.0])), V1[2])

    @PROPERTY
    @given(clouds(2), st.integers(0, 7), st.floats(0.05, 0.95), st.floats(0.1, 10.0))
    def test_vertex_normal_cone(self, case, k, mix, reach):
        # p in the open normal cone of a hull vertex projects onto that
        # vertex's generator, bit for bit.
        V, _ = case
        H = _hull_2d(V)
        if len(H) < 3:
            return
        k %= len(H)
        prev, v, nxt = H[k - 1], H[k], H[(k + 1) % len(H)]
        out1 = np.array([(v - prev)[1], -(v - prev)[0]])
        out2 = np.array([(nxt - v)[1], -(nxt - v)[0]])
        d = mix * out1 / np.linalg.norm(out1) + (1 - mix) * out2 / np.linalg.norm(out2)
        p = v + reach * float(np.abs(V).max()) * d
        assert np.array_equal(project(ConvexSet(V), p), v)

    def test_hull_cached_once(self):
        K = ConvexSet(RNG.standard_normal((12, 2)))
        assert not hasattr(K, "_hull")
        project(K, np.array([5.0, 5.0]))
        H = K._hull
        project(K, np.array([-5.0, 5.0]))
        assert K._hull is H
        assert not hasattr(K.translate(np.ones(2)), "_hull")

    def test_nearly_vertical_segment(self):
        # Rounding jitter across a nearly vertical line must not cut off its
        # ends: the hull is the whole segment.
        u = np.spacing(0.3)
        V = np.array([[0.3, 0.0], [0.3, -1.0], [0.3 + u, -2.0], [0.3 + u, -3.0]])
        pr = project(ConvexSet(V), np.array([0.3, -10.0]))
        assert np.array_equal(pr, V[3])
        assert {tuple(h) for h in _hull_2d(V)} == {tuple(V[0]), tuple(V[3])}


def support_sweep(V, n=20_000):
    """Brute-force support functions on a fine grid of unit directions."""
    ang = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    D = np.column_stack([np.cos(ang), np.sin(ang)])
    return (V @ D.T).max(axis=0)


@st.composite
def cloud_pairs(draw):
    scale = draw(SCALES)
    return draw(clouds(2, KINDS_2D, scale))[0], draw(clouds(2, KINDS_2D, scale))[0]


class TestHausdorffProperties:
    @PROPERTY
    @given(cloud_pairs())
    def test_matches_support_sweep(self, pair):
        # For convex sets the Hausdorff distance is the largest support
        # function gap; the grid misses at most R * (grid step) of it.
        V1, V2 = pair
        d = hausdorff(ConvexSet(V1), ConvexSet(V2))
        gap = float(np.abs(support_sweep(V1) - support_sweep(V2)).max())
        R = float(max(np.abs(V1).max(), np.abs(V2).max()))
        assert gap <= d + 1e-9 * R
        assert d <= gap + R * (2.0 * np.pi / 20_000) + 1e-9 * R


WEIGHTS = st.one_of(st.just(0.0), st.floats(0.01, 2.0))


@st.composite
def weighted_clouds(draw):
    """One to four generator clouds at one drawn scale, with weights of which
    some may be zero."""
    dim = draw(st.integers(1, 3))
    scale = draw(SCALES)
    n = draw(st.integers(1, 4))
    sets = [draw(clouds(dim, scale=scale))[0] for _ in range(n)]
    return draw(st.lists(WEIGHTS, min_size=n, max_size=n)), sets


class TestMinkowskiCombineProperties:
    @PROPERTY
    @given(weighted_clouds())
    def test_support_is_weighted_sum_of_supports(self, case):
        # h_{sum w_i K_i}(d) = sum w_i h_{K_i}(d) in every direction d of the
        # net.  Above 2-d a large cloud keeps only its support achievers on
        # this net, so the net is where the sum is exact in every dimension.
        weights, sets = case
        D = direction_net(sets[0].shape[1])
        K = minkowski_combine(weights, [ConvexSet(V) for V in sets])
        brute = sum(w * (V @ D.T).max(axis=0) for w, V in zip(weights, sets))
        size = sum(w * np.abs(V).max() for w, V in zip(weights, sets))
        got = (K.points @ D.T).max(axis=0)
        assert np.abs(got - brute).max() <= 1e-12 * size + 1e-300
