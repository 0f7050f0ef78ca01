import numpy as np
import pytest

from twoscale.convex import (
    ConvexSet,
    direction_net,
    hausdorff,
    minkowski_combine,
    support,
    unit_ball_set,
)
from twoscale.markov import FiniteKernel
from twoscale.recursion import StepSchedule, run
from twoscale.svmaps import (
    ApproxLevel,
    SeqProbe,
    SetValuedMap,
    parametrize,
    upper_approx,
    validate_sam,
)

RNG = np.random.default_rng(99)


def linear_map():
    # F(x, y, s) = {-x} in R^1.
    return SetValuedMap(
        dims=(1, 1, 1),
        alphabet=1,
        evaluate=lambda x, y, s: ConvexSet.singleton(-x),
        growth_K=1.0,
    )


def square_map():
    return SetValuedMap(
        dims=(1, 0, 1),
        alphabet=1,
        evaluate=lambda x, y, s: ConvexSet.singleton(x**2),
        growth_K=1.0,
    )


def jump_map():
    # {0} below zero, {1} at and above: closed graph fails at 0.
    return SetValuedMap(
        dims=(1, 0, 1),
        alphabet=1,
        evaluate=lambda x, y, s: ConvexSet.singleton(
            [0.0] if x[0] < 0 else [1.0]
        ),
        growth_K=2.0,
    )


def identity_map():
    return SetValuedMap(
        dims=(1, 0, 1),
        alphabet=1,
        evaluate=lambda x, y, s: ConvexSet.singleton(x),
        growth_K=1.0,
    )


Y0 = np.zeros(0)


class TestOracleDimension:
    """The declared output dimension is checked on every call, not only the
    first, so an oracle that changes dimension later is named."""

    @staticmethod
    def switching_map():
        calls = []

        def evaluate(x, y, s):
            calls.append(1)
            return ConvexSet.singleton(-x if len(calls) == 1 else [0.0, 0.0])

        return SetValuedMap(dims=(1, 1, 1), alphabet=1, evaluate=evaluate, growth_K=1.0)

    def test_second_call_named(self):
        F = self.switching_map()
        assert F(np.ones(1), np.ones(1), 0).dim == 1
        with pytest.raises(ValueError, match="oracle returned dim 2, declared 1"):
            F(np.ones(1), np.ones(1), 0)

    def test_named_inside_recursion(self):
        K = FiniteKernel.constant([[1.0]])
        with pytest.raises(ValueError, match="oracle returned dim 2, declared 1"):
            run(self.switching_map(), linear_map(), K, K, StepSchedule(0.6, 0.9),
                [1.0], [1.0], 0, 0, N=5, seed=0)


class TestValidateSam:
    def test_linear_passes(self):
        F = linear_map()
        grid = [
            (np.array([xv]), np.array([yv]), 0)
            for xv in (-2.0, 0.0, 3.0)
            for yv in (-1.0, 1.0)
        ]
        report = validate_sam(F, grid)
        assert report.ok and report.convex_compact

    def test_growth_violation(self):
        F = square_map()
        grid = [(np.array([10.0]), Y0, 0)]
        report = validate_sam(F, grid)
        assert not report.growth_ok
        (probe, worst, bound) = report.growth_violations[0]
        assert worst == 100.0 and bound == pytest.approx(11.0)

    def test_closed_graph_failure(self):
        F = jump_map()
        xs = [(np.array([-1.0 / n]), Y0, 0) for n in range(1, 8)]
        zs = [np.array([0.0])] * 7
        probe = SeqProbe(
            points=xs,
            values=zs,
            limit_point=(np.array([0.0]), Y0, 0),
            limit_value=np.array([0.0]),
        )
        report = validate_sam(F, [(np.array([1.0]), Y0, 0)], [probe])
        assert not report.closed_graph_ok
        assert report.closed_graph_failures[-1][2] == pytest.approx(1.0)

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            validate_sam(linear_map(), [])


def pointed(point, evaluate=None, dims=(1, 1, 1), point_rows=None):
    """A map with point form ``point`` (and row form ``point_rows``); its set
    form defaults to the singleton of -x, or the segment [-1, 1] at x = 0."""

    def default(x, y, s):
        if x[0] == 0.0:
            return ConvexSet([[-1.0], [1.0]])
        return ConvexSet.singleton(-x)

    return SetValuedMap(
        dims=dims, alphabet=2, evaluate=evaluate or default, growth_K=2.0,
        point=point, point_rows=point_rows,
    )


def exact_point(x, y, s):
    return None if x[0] == 0.0 else -x


POINT_GRID = [
    (np.array([v]), np.array([w]), s)
    for v in (-2.0, 0.0, 0.5) for w in (-1.0, 1.0) for s in (0, 1)
]


class TestPointFormContract:
    def test_exact_point_form_passes(self):
        report = validate_sam(pointed(exact_point), POINT_GRID)
        assert report.ok and report.point_ok and report.point_failures == []

    def test_point_off_by_one_ulp_fails_by_name(self):
        def off(x, y, s):
            p = exact_point(x, y, s)
            return None if p is None else np.nextafter(p, np.inf)

        report = validate_sam(pointed(off), POINT_GRID)
        assert not report.ok and not report.point_ok
        assert report.growth_ok and report.closed_graph_ok
        assert len(report.point_failures) == 8  # every probe off the kink
        probe, why = report.point_failures[0]
        assert probe[0][0] == -2.0 and "differs from the generator" in why

    def test_sign_of_zero_is_a_different_point(self):
        F = pointed(
            lambda x, y, s: np.array([0.0]),
            evaluate=lambda x, y, s: ConvexSet.singleton([-0.0]),
        )
        report = validate_sam(F, POINT_GRID[:1])
        assert not report.point_ok

    def test_none_where_singleton_fails(self):
        report = validate_sam(pointed(lambda x, y, s: None), POINT_GRID)
        assert not report.point_ok
        assert all("gave None" in why for _, why in report.point_failures)
        assert len(report.point_failures) == 8

    def test_point_where_set_valued_fails(self):
        report = validate_sam(pointed(lambda x, y, s: -x), POINT_GRID)
        assert not report.point_ok
        assert [p[0][0] for p, _ in report.point_failures] == [0.0] * 4
        assert "2 generators" in report.point_failures[0][1]

    @pytest.mark.parametrize(
        "bad", [lambda x: [-x[0]], lambda x: -x[None, :], lambda x: (-x).astype(np.float32)],
        ids=["list", "2-d", "float32"],
    )
    def test_point_must_be_a_float_vector(self, bad):
        report = validate_sam(
            pointed(lambda x, y, s: None if x[0] == 0.0 else bad(x)), POINT_GRID
        )
        assert not report.point_ok
        assert "not a float (1,) array" in report.point_failures[0][1]

    def test_sequence_points_and_limits_are_probed(self):
        # Wrong only at x = 3: the grid misses it, a witness sequence does not.
        def wrong_at_3(x, y, s):
            return np.array([7.0]) if x[0] == 3.0 else exact_point(x, y, s)

        F = pointed(wrong_at_3)
        assert validate_sam(F, POINT_GRID).ok
        y = np.array([0.0])
        pts = [(np.array([3.0 + 1.0 / n]), y, 0) for n in (1, 2, 4)]
        probe = SeqProbe(pts, [-p[0] for p in pts], (np.array([3.0]), y, 0), np.array([-3.0]))
        report = validate_sam(F, POINT_GRID, [probe])
        assert report.closed_graph_ok and not report.point_ok
        assert [p[0][0] for p, _ in report.point_failures] == [3.0]
        probe = SeqProbe(
            [(np.array([3.0]), y, 0)], [np.array([-3.0])],
            (np.array([2.0]), y, 0), np.array([-2.0]),
        )
        assert not validate_sam(F, POINT_GRID, [probe]).point_ok

    def test_maps_without_point_form_skip_the_check(self):
        report = validate_sam(linear_map(), [(np.array([1.0]), np.array([0.0]), 0)])
        assert report.ok and report.point_failures == []


class TestApproxLevel:
    def test_constants_decrease(self):
        F = linear_map()
        levels = [ApproxLevel.for_map(F, l) for l in range(1, 9)]
        for a, b in zip(levels, levels[1:]):
            assert b.radius < a.radius
            assert b.inflation < a.inflation
            assert b.growth_Kl < a.growth_Kl
        assert levels[0].radius == 1.5 and levels[0].inflation == 0.5
        # Uniform cap over levels.
        assert all(lv.growth_Kl <= levels[0].growth_Kl for lv in levels)


class TestUpperApprox:
    def test_identity_interval(self):
        # Analytic evaluation: F(x)={x} swells to [x - 4*2^-l, x + 4*2^-l].
        F = identity_map()
        for l in (1, 3, 5):
            level = ApproxLevel.for_map(F, l)
            for xv in (-1.0, 0.0, 2.5):
                K = upper_approx(F, level, np.array([xv]), Y0, 0)
                expected = ConvexSet.interval(xv - 4 * 2**-l, xv + 4 * 2**-l)
                assert hausdorff(K, expected) <= 1e-12

    def test_constant_map_ball(self):
        F = SetValuedMap(
            dims=(1, 0, 1),
            alphabet=1,
            evaluate=lambda x, y, s: ConvexSet.singleton([0.0]),
            growth_K=1.0,
        )
        level = ApproxLevel.for_map(F, 4)
        K = upper_approx(F, level, np.array([0.7]), Y0, 0)
        assert hausdorff(K, ConvexSet.interval(-(2**-4), 2**-4)) <= 1e-12

    def test_nesting_support_sweep(self):
        F = identity_map()
        net = direction_net(1)
        for xv in np.linspace(-2, 2, 9):
            x = np.array([xv])
            prev = None
            for l in range(1, 9):
                level = ApproxLevel.for_map(F, l)
                K = upper_approx(F, level, x, Y0, 0)
                sF = np.array([support(F(x, Y0, 0), d) for d in net])
                sK = np.array([support(K, d) for d in net])
                assert np.all(sF <= sK + 1e-9)
                if prev is not None:
                    assert np.all(sK <= prev + 1e-9)
                prev = sK

    def test_nesting_2d_affine(self):
        A = np.array([[0.5, -1.0], [2.0, 0.3]])
        F = SetValuedMap(
            dims=(2, 0, 2),
            alphabet=1,
            evaluate=lambda x, y, s: ConvexSet.singleton(A @ x),
            growth_K=3.0,
        )
        net = direction_net(2)
        x = np.array([0.4, -1.1])
        prev = None
        for l in range(1, 7):
            K = upper_approx(F, ApproxLevel.for_map(F, l), x, Y0, 0)
            sK = np.array([support(K, d) for d in net])
            sF = np.array([support(F(x, Y0, 0), d) for d in net])
            assert np.all(sF <= sK + 1e-9)
            if prev is not None:
                assert np.all(sK <= prev + 1e-9)
            prev = sK

    def test_shrinking(self):
        F = identity_map()
        x = np.array([1.0])
        dists = []
        for l in range(1, 9):
            K = upper_approx(F, ApproxLevel.for_map(F, l), x, Y0, 0)
            d = hausdorff(K, F(x, Y0, 0))
            # Local variation constant of the identity drift is 1.
            assert d <= (3 * 1 + 1) * 2**-l + 1e-9
            dists.append(d)
        assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))

    @pytest.mark.parametrize("l", [1, 2, 5])
    def test_1d_net_evaluates_the_base_point_once(self, l):
        # The evenly spaced net of [-1, 1] holds 0.0; with the origin that
        # leads the net it would be evaluated twice.  The value is the one
        # the net with the duplicate gives, byte for byte.
        calls = []

        def evaluate(x, y, s):
            calls.append(float(x[0]))
            return ConvexSet([x - 0.5 * x**2, x + np.sin(3.0 * x)])

        F = SetValuedMap(dims=(1, 0, 1), alphabet=1, evaluate=evaluate, growth_K=4.0)
        level = ApproxLevel.for_map(F, l)
        x = np.array([0.7])
        K = upper_approx(F, level, x, Y0, 0)
        assert len(calls) == level.net_size - 1 == {1: 15, 2: 31, 5: 255}[l]
        assert calls.count(0.7) == 1
        net = np.concatenate([[0.0], np.linspace(-1.0, 1.0, level.net_size - 1)])
        union = np.vstack([evaluate(x + t * level.radius, Y0, 0).points for t in net])
        want = minkowski_combine(
            [1.0, level.inflation], [ConvexSet(union).reduced(), unit_ball_set(1)]
        )
        assert K.points.shape == want.points.shape
        assert K.points.tobytes() == want.points.tobytes()

    def test_growth_transfer(self):
        F = linear_map()
        for l in (1, 4):
            level = ApproxLevel.for_map(F, l)
            for xv, yv in ((0.0, 0.0), (2.0, -1.0), (-5.0, 3.0)):
                x, y = np.array([xv]), np.array([yv])
                K = upper_approx(F, level, x, y, 0)
                bound = level.growth_Kl * (1 + abs(xv) + abs(yv))
                assert K.max_norm() <= bound + 1e-9


class TestParametrize:
    def test_boundary_hit(self):
        K = ConvexSet.interval(-1, 1)
        np.testing.assert_allclose(parametrize(K, [1.0], 2.0), [1.0], atol=1e-12)

    def test_centroid_fixed_point(self):
        K = ConvexSet.interval(-1, 1)
        np.testing.assert_allclose(parametrize(K, [0.0], 2.0), [0.0], atol=1e-12)

    def test_interior_identity(self):
        K = ConvexSet.interval(-1, 1)
        np.testing.assert_allclose(parametrize(K, [-0.25], 2.0), [-0.5], atol=1e-12)

    def test_u_outside_ball(self):
        with pytest.raises(ValueError):
            parametrize(ConvexSet.interval(-1, 1), [1.1], 2.0)

    def test_covering_failure(self):
        with pytest.raises(ValueError):
            parametrize(ConvexSet.interval(-1, 1), [0.5], 0.25)

    def test_surjectivity_interval(self):
        K = ConvexSet.interval(-0.5, 2.0)
        us = np.linspace(-1, 1, 21).reshape(-1, 1)
        image = np.array([parametrize(K, u, 3.0) for u in us])
        assert image.max() == pytest.approx(2.0, abs=1e-12)
        assert image.min() == pytest.approx(-0.5, abs=1e-12)

    def test_surjectivity_2d(self):
        K = ConvexSet(np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float))
        c = K.centroid()
        R = float(np.linalg.norm(K.points - c, axis=1).max()) + 0.5
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((10_000, 2))
        us = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        us[::2] *= rng.uniform(0, 1, (len(us[::2]), 1))
        image = np.array([parametrize(K, u, R) for u in us])
        img_set = ConvexSet(image)
        for d in direction_net(2):
            assert abs(support(img_set, d) - support(K, d)) <= 1e-2

    def test_values_stay_inside(self):
        K = ConvexSet(RNG.standard_normal((6, 3)))
        c = K.centroid()
        R = float(np.linalg.norm(K.points - c, axis=1).max()) + 1.0
        for _ in range(20):
            u = RNG.standard_normal(3)
            u /= max(1.0, np.linalg.norm(u))
            v = parametrize(K, u, R)
            from twoscale.convex import distance

            assert distance(K, v) <= 1e-8


class TestMultiStateApprox:
    def test_state_held_fixed(self):
        # Two states with different drifts; the swelled value at state s
        # must involve only that state's slice.
        shift = {0: 0.0, 1: 10.0}
        F = SetValuedMap(
            dims=(1, 0, 1),
            alphabet=2,
            evaluate=lambda x, y, s: ConvexSet.singleton(x + shift[s]),
            growth_K=12.0,
        )
        level = ApproxLevel.for_map(F, 3)
        for s in (0, 1):
            K = upper_approx(F, level, np.array([1.0]), np.zeros(0), s)
            lo = 1.0 + shift[s] - 4 * 2**-3
            hi = 1.0 + shift[s] + 4 * 2**-3
            assert hausdorff(K, ConvexSet.interval(lo, hi)) <= 1e-12


def exact_rows(X, Y, S):
    """``exact_point`` at each row: -x, and a NaN row at x = 0."""
    R = -X
    R[X[:, 0] == 0.0] = np.nan
    return R


class TestPointRowsContract:
    def test_exact_row_form_passes(self):
        F = pointed(exact_point, point_rows=exact_rows)
        report = validate_sam(F, POINT_GRID)
        assert report.ok and report.point_ok and report.point_failures == []

    def test_row_form_needs_the_point_form(self):
        with pytest.raises(ValueError, match="point_rows needs the point form"):
            pointed(None, point_rows=exact_rows)

    def test_wrong_on_one_probe_fails_by_name(self):
        def rows(X, Y, S):
            R = exact_rows(X, Y, S)
            at = (X[:, 0] == 0.5) & (Y[:, 0] == 1.0) & (S == 1)
            R[at] = np.nextafter(R[at], np.inf)
            return R

        report = validate_sam(pointed(exact_point, point_rows=rows), POINT_GRID)
        assert not report.ok and not report.point_ok
        assert report.growth_ok and report.closed_graph_ok
        [(probe, why)] = report.point_failures
        assert (probe[0][0], probe[1][0], probe[2]) == (0.5, 1.0, 1)
        assert "point_rows row" in why and "differs from point [-0.5]" in why

    def test_value_where_point_gives_none_fails(self):
        F = pointed(exact_point, point_rows=lambda X, Y, S: -X)
        report = validate_sam(F, POINT_GRID)
        assert not report.point_ok
        assert [p[0][0] for p, _ in report.point_failures] == [0.0] * 4
        assert "no NaN where point gives None" in report.point_failures[0][1]

    def test_impure_row_form_fails(self):
        # Each row is right on a one-row call and shifted by the others.
        def rows(X, Y, S):
            R = exact_rows(X, Y, S)
            return R + 1e-3 * (len(X) - 1)

        F = pointed(exact_point, point_rows=rows)
        assert all(validate_sam(F, [p]).ok for p in POINT_GRID)
        report = validate_sam(F, POINT_GRID)
        assert not report.point_ok
        assert len(report.point_failures) == 8  # every probe off the kink

    def test_wrong_shape_fails(self):
        F = pointed(exact_point, point_rows=lambda X, Y, S: np.zeros((len(X), 2)))
        report = validate_sam(F, POINT_GRID)
        assert not report.point_ok
        assert "not a float (12, 1) array" in report.point_failures[0][1]


class TestLeastNormRows:
    """Where ``point`` gives ``None`` a row may be the value's least-norm
    element bit for bit, as the ``sign`` drift's row form gives at its kink."""

    def test_sign_rows_pass(self):
        from twoscale.cli import drift_map

        H = drift_map("sign_fast", 1, 1, 2)
        report = validate_sam(H, POINT_GRID)
        assert report.ok, report.point_failures

    def test_sign_row_one_ulp_off_at_the_kink_fails(self):
        from twoscale.cli import drift_map

        H = drift_map("sign_fast", 1, 1, 2)
        rows = H.point_rows

        def off(X, Y, S):
            R = rows(X, Y, S)
            R[X[:, 0] == 0.0] = np.nextafter(R[X[:, 0] == 0.0], np.inf)
            return R

        H.point_rows = off
        report = validate_sam(H, POINT_GRID)
        assert not report.point_ok
        assert [p[0][0] for p, _ in report.point_failures] == [0.0] * 4
        assert "not the least-norm element [0.0]" in report.point_failures[0][1]
