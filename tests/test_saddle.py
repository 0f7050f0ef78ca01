import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twoscale.dynamics as dynamics
import twoscale.saddle as saddle
from twoscale.convex import ConvexSet, hausdorff
from twoscale.dynamics import di_solve
from twoscale.markov import FiniteKernel
from twoscale.meanfield import MeanField, check_marchaud
from twoscale.recursion import NoiseModel, StepSchedule, Trajectory, run
from twoscale.saddle import (
    SaddleProblem,
    averaged_slow_field,
    dual_drift,
    dual_ode_field,
    dual_value,
    lagrangian,
    lambda_min,
    optimality_report,
    penalized_objective,
    penalized_subgrad,
    primal_drift,
    quadratic_problem,
    run_primal_dual,
    verify_envelope,
)
from twoscale.svmaps import validate_sam

EPS = 0.01
R = 4.0
C_PEN = EPS / (2 * R**2)  # 3.125e-4
Y_STAR = -(1 + 4 * C_PEN)  # -1.00125


def canonical():
    """Two-state instance with analytic saddle x* = (1, 1), y* = -1.00125."""
    return quadratic_problem(
        theta=[[1.0, 0.0], [0.0, 1.0]],
        C=[[[1.0, 0.0]], [[0.0, 1.0]]],
        w=[[2.0], [0.0]],
        kernel=FiniteKernel.constant([[0.5, 0.5], [0.5, 0.5]]),
        epsilon=EPS,
        radius=R,
        growth_K=2.0,
    )


def lambda_closed_form(y):
    """First-order condition oracle in the unpenalized region."""
    return ((0.5 - 0.5 * y) / (1 + 2 * C_PEN)) * np.ones(2)


def abs_kink_problem():
    """J(x) = 0.5 ||x - (2, 1)||^2 + |x_0| with constraint x_1 = 0.5.

    The reference point (0, 0.5) sits on the kink x_0 = 0, where the
    subdifferential is a segment, so a solve from there must take the
    projection branch; lambda(y) = (1, 1 - y) / (1 + 2 C_PEN).  The
    subgradient row is NaN on the kink.
    """
    def subgrad(x, s):
        g = [x[0] - 2.0, x[1] - 1.0]
        if x[0] == 0.0:
            return ConvexSet([[g[0] - 1.0, g[1]], [g[0] + 1.0, g[1]]])
        return ConvexSet.singleton([g[0] + np.sign(x[0]), g[1]])

    def objective_rows(X, s):
        A, B = X[:, 0] - 2.0, X[:, 1] - 1.0
        return 0.5 * (A * A + B * B) + np.abs(X[:, 0])

    def subgrad_rows(X, s):
        G = np.stack([X[:, 0] - 2.0 + np.sign(X[:, 0]), X[:, 1] - 1.0], axis=1)
        G[X[:, 0] == 0.0] = np.nan
        return G

    return SaddleProblem(
        subgrad=subgrad, C=[[[0.0, 1.0]]], w=[[0.5]],
        kernel=FiniteKernel.constant([[1.0]]),
        epsilon=EPS, radius=R, growth_K=2.0, feasible_points=[[0.0, 0.5]],
        objective_rows=objective_rows, subgrad_rows=subgrad_rows,
    )


def single_state():
    return quadratic_problem(
        theta=[[1.0, 0.0]],
        C=[[[1.0, 0.0]]],
        w=[[2.0]],
        kernel=FiniteKernel.constant([[1.0]]),
        epsilon=EPS,
        radius=R,
        growth_K=2.0,
    )


class TestProblemConstruction:
    def test_canonical_mu(self):
        P = canonical()
        np.testing.assert_allclose(P.mu, [0.5, 0.5])
        np.testing.assert_allclose(P.C_mu, [[0.5, 0.5]])
        np.testing.assert_allclose(P.w_mu, [1.0])

    def test_infeasible_witness_rejected(self):
        with pytest.raises(ValueError, match="witness"):
            quadratic_problem(
                theta=[[0.0, 0.0]],
                C=[[[1.0, 0.0]]],
                w=[[2.0]],
                kernel=FiniteKernel.constant([[1.0]]),
                epsilon=EPS,
                radius=R,
                feasible_points=[[0.0, 0.0]],
            )

    def test_radius_must_clear_witnesses(self):
        with pytest.raises(ValueError, match="radius"):
            quadratic_problem(
                theta=[[1.0, 0.0]],
                C=[[[1.0, 0.0]]],
                w=[[2.0]],
                kernel=FiniteKernel.constant([[1.0]]),
                epsilon=EPS,
                radius=1.5,
            )

    def test_coercivity_failure_is_first_in_ray_then_state_order(self):
        # Every theta_s lies near the unit sphere, so many (ray, state) pairs
        # fail; the first failing ray fails state 2 only, and later rays
        # fail state 0.
        theta = np.array([[0.0, 1.0], [0.0, -1.2], [0.9, 0.0]])
        rng = np.random.default_rng(saddle._COERCIVITY_SEED)
        rays = rng.standard_normal((saddle._COERCIVITY_RAYS, 2))
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        level = max(0.5 * float((t * t).sum()) for t in theta)  # witnesses at 0
        J = np.array([[0.5 * float(((u - t) * (u - t)).sum()) for t in theta]
                      for u in rays])
        r, s = next((r, s) for r in range(len(rays)) for s in range(3)
                    if J[r, s] <= level)
        assert s == 2 and (J[r + 1:, 0] <= level).any()
        with pytest.raises(ValueError) as err:
            quadratic_problem(
                theta=theta, C=[[[1.0, 0.0]]] * 3, w=[[0.0]] * 3,
                kernel=FiniteKernel.constant(np.full((3, 3), 1 / 3)),
                epsilon=EPS, radius=1.0,
            )
        assert str(err.value) == (
            f"coercivity check failed: J(1.0*u, {s}) = {J[r, s]} <= {level} "
            "along a sampled ray"
        )

    def test_non_unique_stationary_law(self):
        P = quadratic_problem(
            theta=[[1.0, 0.0], [0.0, 1.0]],
            C=[[[1.0, 0.0]], [[0.0, 1.0]]],
            w=[[2.0], [0.0]],
            kernel=FiniteKernel.constant(np.eye(2)),
            epsilon=EPS,
            radius=R,
        )
        with pytest.raises(ValueError, match="unique stationary"):
            P.mu


class TestPenalizedObjective:
    def test_at_theta(self):
        P = single_state()
        assert penalized_objective(P, [1.0, 0.0], 0) == pytest.approx(3.125e-4)

    def test_outside_barrier(self):
        P = single_state()
        assert penalized_objective(P, [5.0, 0.0], 0) == pytest.approx(21.5078125)

    def test_at_origin(self):
        P = single_state()
        assert penalized_objective(P, [0.0, 0.0], 0) == pytest.approx(0.5)


class TestPenalizedSubgrad:
    def test_smooth_interior(self):
        P = single_state()
        x = np.array([2.0, 1.0])
        G = penalized_subgrad(P, x, 0)
        assert G.is_singleton
        expect = (x - np.array([1.0, 0.0])) + (EPS / R**2) * x
        np.testing.assert_allclose(G.points[0], expect, atol=1e-14)

    def test_outside_barrier(self):
        P = single_state()
        x = np.array([5.0, 0.0])
        G = penalized_subgrad(P, x, 0)
        assert G.is_singleton
        expect = (x - np.array([1.0, 0.0])) + (EPS / R**2) * x + 3.0 * x
        np.testing.assert_allclose(G.points[0], expect, atol=1e-12)

    def test_kink_is_segment(self):
        P = single_state()
        x = np.array([R, 0.0])
        G = penalized_subgrad(P, x, 0)
        assert not G.is_singleton
        width = np.linalg.norm(G.points.max(axis=0) - G.points.min(axis=0))
        assert width == pytest.approx(3.0 * R)


class TestLagrangian:
    def test_value_at_feasible_point(self):
        P = canonical()
        assert lagrangian(P, [1.0, 1.0], [0.0]) == pytest.approx(0.500625)

    def test_multiplier_irrelevant_at_feasible_point(self):
        P = canonical()
        vals = [lagrangian(P, [1.0, 1.0], [yv]) for yv in (-3.0, 0.0, 7.5)]
        assert max(vals) - min(vals) <= 1e-12

    def test_linear_slope_at_origin(self):
        P = canonical()
        base = P.Jhat_mu(np.zeros(2))
        assert base == pytest.approx(0.5)
        for yv in (-1.0, 0.5, 2.0):
            assert lagrangian(P, np.zeros(2), [yv]) == pytest.approx(base - yv)


class TestLambdaMin:
    def test_matches_first_order_oracle(self):
        P = canonical()
        for yv in np.linspace(-2.0, 2.0, 9):
            lam = lambda_min(P, [yv])
            np.testing.assert_allclose(lam, lambda_closed_form(yv), atol=1e-7)

    def test_exact_at_dual_optimum(self):
        P = canonical()
        lam = lambda_min(P, [Y_STAR])
        np.testing.assert_allclose(lam, [1.0, 1.0], atol=1e-7)

    def test_growth_bound(self):
        P = canonical()
        kp = P.K_prime()
        assert kp == pytest.approx(4.0)
        for yv in np.linspace(-6, 6, 13):
            lam = lambda_min(P, [yv])
            assert np.linalg.norm(lam) <= kp * (1 + abs(yv)) + 1e-9

    def test_empirical_continuity(self):
        P = canonical()
        rng = np.random.default_rng(0)
        # Worst-case modulus from strong convexity alone.
        C_bound = np.linalg.norm(P.C_mu.T, 2) / (EPS / R**2)
        for _ in range(10):
            y1, y2 = rng.uniform(-2, 2, 2)
            gap = np.linalg.norm(lambda_min(P, [y1]) - lambda_min(P, [y2]))
            assert gap <= C_bound * abs(y1 - y2) + 1e-9

    def test_warm_start_agrees(self):
        P = canonical()
        cold = lambda_min(P, [0.3])
        warm = lambda_min(P, [0.3], x0=np.array([5.0, -5.0]))
        np.testing.assert_allclose(cold, warm, atol=1e-7)

    def test_set_valued_subgradient_is_projected(self, monkeypatch):
        P = abs_kink_problem()
        calls = []
        real_project = saddle.project
        monkeypatch.setattr(
            saddle, "project", lambda K, z: calls.append(K.n_points) or real_project(K, z)
        )
        for yv in (-1.0, 0.0, 0.7):
            lam = lambda_min(P, [yv])
            np.testing.assert_allclose(
                lam, np.array([1.0, 1.0 - yv]) / (1 + 2 * C_PEN), atol=1e-7
            )
        assert calls and min(calls) == 2


class TestDualValue:
    def test_lower_bounds_lagrangian(self):
        P = canonical()
        rng = np.random.default_rng(1)
        q0 = dual_value(P, [0.0])
        for _ in range(10):
            x = rng.uniform(-3, 3, 2)
            assert q0 <= lagrangian(P, x, [0.0]) + 1e-10

    def test_value_at_dual_optimum(self):
        P = canonical()
        assert dual_value(P, [Y_STAR]) == pytest.approx(0.500625, abs=1e-9)

    def test_concavity_midpoint(self):
        P = canonical()
        for y1, y2 in ((-2.0, 1.0), (0.0, 3.0), (-1.5, -0.5)):
            mid = dual_value(P, [0.5 * (y1 + y2)])
            assert mid >= 0.5 * dual_value(P, [y1]) + 0.5 * dual_value(P, [y2]) - 1e-9


class TestDriftMaps:
    def test_primal_drift_is_sam(self):
        P = canonical()
        H1 = primal_drift(P)
        grid = [
            (np.array([xa, xb]), np.array([yv]), s)
            for xa in (-3.0, 0.0, 2.0)
            for xb in (-1.0, 4.0)
            for yv in (-2.0, 1.0)
            for s in (0, 1)
        ]
        assert validate_sam(H1, grid).ok

    def test_dual_drift_is_sam(self):
        P = canonical()
        H2 = dual_drift(P)
        grid = [
            (np.array([xa, 0.0]), np.array([yv]), s)
            for xa in (-3.0, 2.0)
            for yv in (-2.0, 1.0)
            for s in (0, 1)
        ]
        assert validate_sam(H2, grid).ok

    def test_primal_point_form_contract(self):
        P = canonical()
        H1 = primal_drift(P)
        band = [np.array([R, 0.0]), np.array([0.0, -R]), np.array([R + 1e-10, 0.0]),
                np.array([R * 0.6, R * 0.8])]
        inside = [np.array([0.5, -1.0]), np.zeros(2), np.array([-3.0, 2.0])]
        outside = [np.array([5.0, 1.0]), np.array([-4.5, -3.0])]
        grid = [
            (x, np.array([yv]), s)
            for x in band + inside + outside for yv in (-2.0, 1.0) for s in (0, 1)
        ]
        report = validate_sam(H1, grid)
        assert report.ok and report.point_ok, report.point_failures
        y = np.array([0.3])
        for x in band:
            assert H1.point(x, y, 0) is None and H1(x, y, 0).n_points > 1
        for x in inside + outside:
            assert H1.point(x, y, 1) is not None

    def test_primal_point_form_on_the_kink(self):
        P = abs_kink_problem()
        H1 = primal_drift(P)
        y = np.array([-0.5])
        on_kink = np.array([0.0, 0.5])
        assert H1.point(on_kink, y, 0) is None
        grid = [(x, y, 0) for x in (on_kink, np.array([1.0, 0.5]), np.array([-0.2, 3.0]),
                                    np.array([6.0, 0.0]))]
        report = validate_sam(H1, grid)
        assert report.ok and report.point_ok, report.point_failures
        assert H1.point(np.array([1.0, 0.5]), y, 0) is not None

    def test_dual_point_form_contract(self):
        for P in (canonical(), three_state()):
            H2 = dual_drift(P)
            grid = [
                (np.array([xa, 1.0 - xa, 0.5][: P.d1]), np.full(P.d2, yv), s)
                for xa in (-3.0, 0.0, 2.0) for yv in (-2.0, 1.0)
                for s in range(P.alphabet)
            ]
            report = validate_sam(H2, grid)
            assert report.ok and report.point_ok, report.point_failures

    def test_dual_fields_agree(self):
        P = canonical()
        direct = dual_ode_field(P)
        averaged = averaged_slow_field(P)
        for yv in (-1.5, 0.0, 2.0):
            y = np.array([yv])
            assert hausdorff(direct(y), averaged(y)) <= 1e-7

    def test_dual_field_marchaud(self):
        P = canonical()
        fld = dual_ode_field(P)
        grid = [np.array([v]) for v in (-2.0, 0.0, 1.5)]
        assert check_marchaud(fld, grid).ok


class TestRunPrimalDual:
    def test_single_state_matches_kkt(self):
        # Independent oracle: the equality-constrained QP optimality system.
        P = single_state()
        c = EPS / (2 * R**2)
        A = np.array(
            [
                [1 + 2 * c, 0.0, 1.0],
                [0.0, 1 + 2 * c, 0.0],
                [1.0, 0.0, 0.0],
            ]
        )
        rhs = np.array([1.0, 0.0, 2.0])
        sol = np.linalg.solve(A, rhs)
        x_kkt, y_kkt = sol[:2], sol[2]
        np.testing.assert_allclose(x_kkt, [2.0, 0.0], atol=1e-12)
        assert y_kkt == pytest.approx(-(1 + 4 * c))
        traj = run_primal_dual(
            P, StepSchedule(alpha=0.6, beta=0.9), N=60_000, seed=0
        )
        np.testing.assert_allclose(traj.X[-1], x_kkt, atol=2e-2)
        np.testing.assert_allclose(traj.Y[-1], [y_kkt], atol=2e-2)

    def test_canonical_converges(self):
        P = canonical()
        noise = NoiseModel(kind="uniform", fast_scale=0.1, slow_scale=0.0)
        traj = run_primal_dual(
            P, StepSchedule(alpha=0.6, beta=0.9), N=40_000, seed=3, noise=noise
        )
        assert np.linalg.norm(traj.X[-1] - [1.0, 1.0]) <= 5e-2
        assert abs(traj.Y[-1, 0] - Y_STAR) <= 5e-2

    def test_infeasible_scale_start_reenters(self):
        P = canonical()
        traj = run_primal_dual(
            P,
            StepSchedule(alpha=0.6, beta=0.9),
            N=2_000,
            seed=0,
            x0=[100.0, 100.0],
        )
        norms = np.linalg.norm(traj.X, axis=1)
        assert norms.min() <= R
        assert norms[-1] <= R

    def test_dual_has_no_noise_by_default(self):
        P = canonical()
        noise = NoiseModel(kind="uniform", fast_scale=0.1, slow_scale=0.0)
        traj = run_primal_dual(
            P, StepSchedule(alpha=0.6, beta=0.9), N=200, seed=1, noise=noise
        )
        assert np.all(traj.M2 == 0.0)
        assert np.any(traj.M1 != 0.0)


class TestRunPrimalDualSweeps:
    """``run_primal_dual`` takes ``run``'s block sweeps through the drifts'
    row forms; without them it steps one step at a time, to the same bytes."""

    @pytest.mark.parametrize("make, x0, noise", [
        (canonical, [100.0, 100.0], NoiseModel(fast_scale=0.1)),
        (lambda: three_state(), None, NoiseModel(fast_scale=0.2, slow_scale=0.1)),
        (abs_kink_problem, [0.0, 0.5], NoiseModel()),
    ], ids=["outside_the_sphere", "three_state", "on_the_kink"])
    def test_same_bytes_as_the_loop(self, make, x0, noise):
        P = make()
        sched = StepSchedule(alpha=0.6, beta=0.9, a0=0.5)
        traj = run_primal_dual(P, sched, N=3000, seed=5, noise=noise, x0=x0)
        H1, H2 = primal_drift(P), dual_drift(P)
        H1.point_rows = H2.point_rows = None
        x0 = np.zeros(P.d1) if x0 is None else x0
        loop = run(
            H1, H2, P.kernel, P.kernel, sched, x0, np.zeros(P.d2), 0, 0, 3000, 5,
            noise=noise, share_noise_chain=True,
        )
        for name in ("X", "Y", "S1", "S2", "M1", "M2", "V1", "V2"):
            assert getattr(traj, name).tobytes() == getattr(loop, name).tobytes(), name


class TestOptimalityReport:
    def synthetic_constant_traj(self, P, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return Trajectory(
            X=np.repeat(x[None, :], 3, axis=0),
            Y=np.repeat(y[None, :], 3, axis=0),
            S1=np.zeros(3, dtype=int),
            S2=np.zeros(3, dtype=int),
            M1=np.zeros((2, P.d1)),
            M2=np.zeros((2, P.d2)),
            V1=np.zeros((2, P.d1)),
            V2=np.zeros((2, P.d2)),
            schedule=StepSchedule(alpha=0.6, beta=0.9),
            seed=0,
        )

    def test_exact_saddle_zero_gaps(self):
        P = canonical()
        traj = self.synthetic_constant_traj(P, [1.0, 1.0], [Y_STAR])
        rep = optimality_report(P, traj, tail_fraction=1.0, x_star=[1.0, 1.0])
        assert rep.feasibility_gap <= 1e-9
        assert rep.primal_dual_gap <= 1e-9
        assert rep.dist_to_lambda <= 1e-6
        assert abs(rep.eps_surplus) <= 1e-12

    def test_origin_feasibility_gap(self):
        P = canonical()
        traj = self.synthetic_constant_traj(P, [0.0, 0.0], [0.0])
        rep = optimality_report(P, traj, tail_fraction=1.0)
        assert rep.feasibility_gap == pytest.approx(1.0)


class TestEnvelope:
    def test_equilibrium_start_constant(self):
        P = canonical()
        fld = dual_ode_field(P)
        path = di_solve(fld, [Y_STAR], T=2.0, dt=1e-2)
        rep = verify_envelope(P, path)
        assert rep.max_discrepancy <= 1e-8
        assert np.abs(rep.V - rep.V[0]).max() <= 1e-8
        assert rep.integral[-1] <= 1e-8

    def test_from_zero_short_run(self):
        P = canonical()
        fld = dual_ode_field(P)
        path = di_solve(fld, [0.0], T=5.0, dt=2e-3)
        rep = verify_envelope(P, path)
        assert rep.max_discrepancy <= 1e-3
        assert rep.monotone_ok

    def test_dual_limit_is_constraint_zero(self):
        P = canonical()
        fld = dual_ode_field(P)
        path = di_solve(fld, [0.0], T=30.0, dt=1e-2)
        y_end = path.states[-1]
        lam = lambda_min(P, y_end)
        assert np.linalg.norm(P.C_mu @ lam - P.w_mu) <= 2e-2
        assert y_end[0] == pytest.approx(Y_STAR, abs=1e-2)


def three_state():
    """Random three-state instance with d1 = 3 and two constraints."""
    rng = np.random.default_rng(5)
    return quadratic_problem(
        theta=rng.standard_normal((3, 3)),
        C=rng.standard_normal((3, 2, 3)),
        w=rng.standard_normal((3, 2)),
        kernel=FiniteKernel.constant([[0.2, 0.5, 0.3], [0.4, 0.4, 0.2], [0.3, 0.3, 0.4]]),
        epsilon=EPS,
        radius=10.0,
    )


def anisotropic():
    """J(x, s) = 0.5 sum_i a_si (x_i - theta_si)^2 with curvature up to 20, so
    the first unit step overshoots and the Armijo search halves it."""
    rng = np.random.default_rng(8)
    a = rng.uniform(0.5, 20.0, (3, 4))
    theta = rng.standard_normal((3, 4))
    C = rng.standard_normal((3, 2, 4))
    w = rng.standard_normal((3, 2))

    def subgrad(x, s):
        return ConvexSet.singleton(a[s] * (np.asarray(x, dtype=float) - theta[s]))

    def objective_rows(X, s):
        D = X - theta[s]
        return 0.5 * (a[s] * D * D).sum(axis=1)

    def subgrad_rows(X, s):
        return a[s] * (X - theta[s])

    return SaddleProblem(
        subgrad=subgrad, C=C, w=w,
        kernel=FiniteKernel.constant([[0.2, 0.5, 0.3], [0.4, 0.4, 0.2], [0.3, 0.3, 0.4]]),
        epsilon=EPS, radius=10.0, growth_K=21.0,
        feasible_points=[np.linalg.lstsq(C[s], w[s], rcond=None)[0] for s in range(3)],
        objective_rows=objective_rows, subgrad_rows=subgrad_rows,
    )


def kink_problem():
    """J(x) = |x_0| + 0.5 (x_1 - 1)^2 with x_1 = 0.5, kinked on x_0 = 0, where
    the minimizer lies: lambda(y) = (0, (1 - y) / (1 + EPS / R^2))."""
    def subgrad(x, s):
        if x[0] == 0.0:
            return ConvexSet([[-1.0, x[1] - 1.0], [1.0, x[1] - 1.0]])
        return ConvexSet.singleton([np.sign(x[0]), x[1] - 1.0])

    def objective_rows(X, s):
        return np.abs(X[:, 0]) + 0.5 * (X[:, 1] - 1.0) ** 2

    def subgrad_rows(X, s):
        G = np.stack([np.sign(X[:, 0]), X[:, 1] - 1.0], axis=1)
        G[X[:, 0] == 0.0] = np.nan
        return G

    return SaddleProblem(
        subgrad=subgrad, C=[[[0.0, 1.0]]], w=[[0.5]],
        kernel=FiniteKernel.constant([[1.0]]), epsilon=EPS, radius=R,
        growth_K=2.0, feasible_points=[[0.0, 0.5]],
        objective_rows=objective_rows, subgrad_rows=subgrad_rows,
    )


def prox_penalty(P, v, gamma):
    """Exact proximal map of the penalty terms (radial piecewise quadratic)
    at one point: the reference ``_prox_penalty_rows`` is checked against."""
    nv = math.sqrt(float(v @ v))
    if nv == 0.0:
        return np.zeros_like(v)
    a = gamma * P.epsilon / P.radius**2
    rho = nv / (1.0 + a)
    if rho > P.radius:
        rho_out = nv / (1.0 + a + gamma * (P.growth_K + 1))
        rho = rho_out if rho_out >= P.radius else P.radius
    return (rho / nv) * v


class TestBatchedLambdaMin:
    @pytest.mark.parametrize("make", [canonical, three_state, anisotropic, abs_kink_problem])
    @pytest.mark.parametrize("warm", [False, True])
    def test_rows_equal_scalar_calls(self, make, warm):
        P = make()
        rng = np.random.default_rng(11)
        # Multipliers from 0.1 to 300 in size push some minimizers out of
        # the radius ball.
        Y = rng.standard_normal((24, P.d2)) * np.logspace(-1, 2.5, 24)[:, None]
        X0 = rng.uniform(-6.0, 6.0, (24, P.d1)) if warm else None
        batched = lambda_min(P, Y, x0=X0)
        stacked = np.array([
            lambda_min(P, Y[r], x0=None if X0 is None else X0[r])
            for r in range(len(Y))
        ])
        assert batched.shape == (24, P.d1)
        assert np.array_equal(batched, stacked)
        norms = np.linalg.norm(batched, axis=1)
        assert (norms > P.radius).any() and (norms < P.radius).any()

    def test_failed_certificate_raises(self, monkeypatch):
        # A loose residual target stops every row short of the minimizer, so
        # the certificate fails and the block raises for the row.
        P = anisotropic()
        monkeypatch.setattr(saddle, "GRAD_TOL", 0.1)
        with pytest.raises(saddle.SolverStallError):
            lambda_min(P, np.array([[0.3, -0.2], [1.0, 2.0]]))

    def test_prox_rows_match_scalar_prox(self):
        P = canonical()
        rng = np.random.default_rng(2)
        # A zero row, rows inside the ball, near the sphere and far outside.
        scales = np.repeat([0.5, 4.0, 40.0], 4)[:, None]
        V = np.vstack([np.zeros((1, 2)), rng.standard_normal((12, 2)) * scales])
        gamma = rng.uniform(0.01, 2.0, len(V))
        with np.errstate(divide="ignore", invalid="ignore"):
            rows = saddle._prox_penalty_rows(P, V, gamma)
        for v, g, row in zip(V, gamma, rows):
            assert np.array_equal(row, prox_penalty(P, v, float(g)))

    def test_kink_still_stalls(self):
        # From the reference point (0, 0.5), on the kink, every row reaches
        # the closed form; from a start off the kink the least-norm step
        # chatters across it and stalls.
        P = kink_problem()
        Y = np.array([[-1.0], [0.0], [2.0]])
        closed = np.column_stack([np.zeros(3), (1.0 - Y[:, 0]) / (1.0 + EPS / R**2)])
        assert np.abs(lambda_min(P, Y) - closed).max() <= 1e-9
        for x0 in ([0.3, 0.5], [-0.001, 0.5]):
            with pytest.raises(saddle.SolverStallError):
                lambda_min(P, Y, x0=np.array(x0))

    def test_lowest_failed_row_raises(self):
        # Row 0 converges from the kink, rows 1 and 2 stall; the block raises
        # row 1's error, as the call on row 1 alone does.
        P = kink_problem()
        Y = np.array([[-1.0], [0.0], [2.0]])
        X0 = np.array([[0.0, 0.5], [0.3, 0.5], [-0.001, 0.5]])
        with pytest.raises(saddle.SolverStallError) as block:
            lambda_min(P, Y, x0=X0)
        with pytest.raises(saddle.SolverStallError) as row:
            lambda_min(P, Y[1], x0=X0[1])
        assert (block.value.residual, block.value.iterations) == (
            row.value.residual, row.value.iterations
        )
        assert block.value.iterations == saddle.MAX_ITER

    def test_stall_error_survives_pickling(self):
        # A replica's stall crosses the process pool to the command's exit.
        err = saddle.SolverStallError(1.5, 7)
        back = pickle.loads(pickle.dumps(err))
        assert (back.residual, back.iterations, str(back)) == (1.5, 7, str(err))


class TestBatchedDualFlow:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rows_equal_scalar_di_solve(self):
        P = canonical()
        Z0 = np.array([[-2.0], [-0.5], [0.0], [0.3], [1.7]])
        batched = di_solve(dual_ode_field(P), Z0, T=0.5, dt=1e-2)
        assert batched.states.shape == (51, 5, 1)
        assert batched.selections.shape == (50, 5, 1)
        for r, z0 in enumerate(Z0):
            single = di_solve(dual_ode_field(P), z0, T=0.5, dt=1e-2)
            assert np.array_equal(batched.times, single.times)
            assert np.array_equal(batched.states[:, r], single.states)
            assert np.array_equal(batched.selections[:, r], single.selections)

    def test_envelope_refuses_batched_path(self):
        P = canonical()
        batched = di_solve(dual_ode_field(P), np.zeros((2, 1)), T=0.05, dt=1e-2)
        with pytest.raises(ValueError, match="verify_envelope needs a single path"):
            verify_envelope(P, batched)


# Problems the dual-flow velocity and the envelope blocks are checked on: two
# states in 2-d, three states in 3-d, curvature that makes the result depend
# on the start, and a start on a kink that takes the projection branch.
CHAIN_PROBLEMS = pytest.mark.parametrize(
    "make",
    [canonical, three_state, anisotropic, abs_kink_problem],
    ids=["canonical", "three_state", "anisotropic", "abs_kink"],
)


def counting(P):
    """A copy of P whose objective and subgradient rows count their calls
    after construction."""
    calls = {"objective_rows": 0, "subgrad_rows": 0}

    def objective_rows(X, s):
        calls["objective_rows"] += 1
        return P.objective_rows(X, s)

    def subgrad_rows(X, s):
        calls["subgrad_rows"] += 1
        return P.subgrad_rows(X, s)

    Q = SaddleProblem(
        subgrad=P.subgrad, C=P.C, w=P.w, kernel=P.kernel,
        epsilon=P.epsilon, radius=P.radius, growth_K=P.growth_K,
        feasible_points=P.feasible_points,
        objective_rows=objective_rows, subgrad_rows=subgrad_rows,
    )
    calls.update(objective_rows=0, subgrad_rows=0)
    return Q, calls


def flow_knots(P):
    """Knots of a short dual-flow path of P, as dual_ode_field visits them."""
    return di_solve(dual_ode_field(P), np.full(P.d2, 0.4), T=0.3, dt=1e-2)


# The dual-flow velocity tests.  The class keeps the name of the warm-start
# chain that the velocity once ran on, so the ids of its tests stay put.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestWarmChain:
    @CHAIN_PROBLEMS
    def test_rows_equal_cold_scalar_velocities(self, make):
        P = make()
        ys = flow_knots(P).states
        field = dual_ode_field(P)
        cold = np.array([P.C_mu @ lambda_min(make(), y) - P.w_mu for y in ys])
        assert np.array_equal(field.evaluate_rows(ys), cold)
        assert np.array_equal(field.evaluate_rows(ys[::-1]), cold[::-1])
        for y, v in zip(ys, cold):
            assert np.array_equal(field.evaluate(y).points[0], v)

    @CHAIN_PROBLEMS
    def test_scalar_call_between_evaluations_changes_nothing(self, make):
        y1, y2, other = (np.full(make().d2, v) for v in (0.4, 0.38, -2.0))

        def second_evaluation(interleave):
            P, calls = counting(make())
            field = dual_ode_field(P)
            field.evaluate(y1)
            if interleave:
                lambda_min(P, other)
            calls.update(objective_rows=0, subgrad_rows=0)
            return field.evaluate(y2).points, dict(calls)

        v, n = second_evaluation(interleave=False)
        v_between, n_between = second_evaluation(interleave=True)
        assert np.array_equal(v_between, v)
        assert n_between == n

    @CHAIN_PROBLEMS
    def test_one_start_equals_set_form(self, make):
        P = make()
        field = dual_ode_field(P)
        y0 = np.full(P.d2, 0.4)
        rows = di_solve(field, y0, T=0.3, dt=1e-2)
        set_form = MeanField(evaluate=dual_ode_field(make()).evaluate,
                             dim=field.dim, growth_K=field.growth_K)
        sets = di_solve(set_form, y0, T=0.3, dt=1e-2)
        assert np.array_equal(rows.states, sets.states)
        assert np.array_equal(rows.selections, sets.selections)

    def test_kink_start_takes_projection_branch(self, monkeypatch):
        calls = []
        real_project = saddle.project
        monkeypatch.setattr(
            saddle, "project", lambda K, z: calls.append(K.n_points) or real_project(K, z)
        )
        P = abs_kink_problem()
        for y in flow_knots(abs_kink_problem()).states:
            lambda_min(P, y)
        assert calls and max(calls) >= 2

    @CHAIN_PROBLEMS
    @pytest.mark.parametrize("rows", [1, 7, dynamics.ROWS])
    def test_block_sweep_equals_set_form(self, make, rows, monkeypatch):
        # One start and a block of starts, each against the knot-by-knot loop
        # over the set form, with blocks of one knot, of a few knots and a
        # short last block, and of more knots than the path has.
        P = make()
        set_form = MeanField(evaluate=dual_ode_field(make()).evaluate,
                             dim=P.d2, growth_K=1.0)
        Y0 = np.array([np.full(P.d2, v) for v in (0.4, -1.0, 2.0)])
        monkeypatch.setattr(dynamics, "ROWS", rows)
        batched = di_solve(dual_ode_field(P), Y0, T=0.3, dt=1e-2)
        single = di_solve(dual_ode_field(P), Y0[0], T=0.3, dt=1e-2)
        for r, y0 in enumerate(Y0):
            sets = di_solve(set_form, y0, T=0.3, dt=1e-2)
            assert np.array_equal(batched.states[:, r], sets.states)
            assert np.array_equal(batched.selections[:, r], sets.selections)
            if r == 0:
                assert np.array_equal(single.states, sets.states)
                assert np.array_equal(single.selections, sets.selections)


def lagrangian_reference(P, x, y):
    """The frozen Lagrangian at one point, written out: the averaged objective
    ``mu[s] * J(x, s)`` summed over every state in order, the penalty terms
    and ``<y, C_mu x - w_mu>``, returned as ``(J_mu, penalty, lagrangian)``.
    The reference ``J_mu``, ``Jhat_mu``, ``penalized_objective``,
    ``lagrangian`` and the envelope blocks are checked against."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    J = 0
    for s in range(P.alphabet):
        J = J + P.mu[s] * P.objective_rows(x[None], s)[0]
    n2 = float(x @ x)
    r2 = P.radius**2
    penalty = P.epsilon / (2 * r2) * n2 + 0.5 * (P.growth_K + 1) * max(n2 - r2, 0.0)
    return J, penalty, (J + penalty) + float(y @ (P.C_mu @ x - P.w_mu))


def transient_state():
    """Three states in 2-d whose state 0 is transient: the chain leaves it
    at once, so mu = (0, 1/2, 1/2) and state 0 carries no stationary weight."""
    rng = np.random.default_rng(3)
    return quadratic_problem(
        theta=rng.standard_normal((3, 2)),
        C=rng.standard_normal((3, 1, 2)),
        w=rng.standard_normal((3, 1)),
        kernel=FiniteKernel.constant([[0.0, 0.5, 0.5]] * 3),
        epsilon=EPS,
        radius=20.0,
    )


class TestObjectiveValues:
    @pytest.mark.parametrize(
        "make", [canonical, three_state, anisotropic, abs_kink_problem, transient_state]
    )
    def test_values_equal_written_out_reference(self, make):
        # Points from the origin, the witnesses and the kink out past the
        # radius sphere, against the written-out sums bit for bit.
        P = make()
        rng = np.random.default_rng(4)
        scale = np.logspace(-1, 0.5, 12)[:, None] * P.radius
        X = np.vstack([
            np.zeros((1, P.d1)), P.feasible_points, rng.standard_normal((12, P.d1)) * scale,
        ])
        assert (np.linalg.norm(X, axis=1) > P.radius).any()
        for x in X:
            y = rng.standard_normal(P.d2)
            J, penalty, L = lagrangian_reference(P, x, y)
            assert P.J_mu(x) == J
            assert P.Jhat_mu(x) == J + penalty
            assert lagrangian(P, x, y) == L
            for s in range(P.alphabet):
                assert penalized_objective(P, x, s) == (
                    P.objective_rows(x[None], s)[0] + penalty
                )

    def test_transient_state_has_zero_weight(self):
        P = transient_state()
        assert P.mu[0] == 0.0 and [s for s, _ in P._solver.weighted] == [1, 2]


def envelope_by_knots(P, path):
    """verify_envelope as a per-knot loop over ``lagrangian_reference``, every
    knot solved cold by a one-row ``lambda_min`` call."""
    V, resid2 = [], []
    for y in path.states:
        lam = lambda_min(P, y)
        V.append(lagrangian_reference(P, lam, y)[2])
        resid2.append(float(np.sum((P.C_mu @ lam - P.w_mu) ** 2)))
    V, resid2 = np.array(V), np.array(resid2)
    dt = np.diff(path.times)
    integral = np.concatenate([[0.0], np.cumsum(0.5 * dt * (resid2[:-1] + resid2[1:]))])
    return V, integral, float(np.abs(V - V[0] - integral).max())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestEnvelopeBlocks:
    @CHAIN_PROBLEMS
    @pytest.mark.parametrize("block", [1, 7, dynamics.ROWS])
    def test_matches_per_knot_lagrangian(self, make, block, monkeypatch):
        P = make()
        path = flow_knots(P)
        V, integral, disc = envelope_by_knots(make(), path)
        monkeypatch.setattr(dynamics, "ROWS", block)
        rep = verify_envelope(P, path)
        assert np.array_equal(rep.V, V)
        assert np.array_equal(rep.integral, integral)
        assert rep.max_discrepancy == disc


def random_quadratic(seed, n_states, d1, d2):
    """A random quadratic problem with a unique stationary law and a radius
    that clears the witnesses and the coercivity check."""
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal((n_states, d1))
    C = rng.standard_normal((n_states, d2, d1))
    w = rng.standard_normal((n_states, d2))
    K = rng.uniform(0.1, 1.0, (n_states, n_states))
    K /= K.sum(axis=1, keepdims=True)
    witnesses = [np.linalg.lstsq(C[s], w[s], rcond=None)[0] for s in range(n_states)]
    # J(r u, s) >= (r - |theta_s|)^2 / 2 exceeds every witness value once
    # r > |x_s| + 2 |theta|.
    radius = 1.0 + max(np.linalg.norm(witnesses, axis=1)) + 2 * max(
        np.linalg.norm(theta, axis=1)
    )
    P = quadratic_problem(
        theta, C, w, FiniteKernel.constant(K), epsilon=0.05, radius=radius,
        feasible_points=witnesses,
    )
    return P, theta, rng


class TestLambdaMinClosedForm:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_states=st.integers(1, 3),
        d1=st.integers(1, 3),
        d2=st.integers(1, 3),
    )
    def test_matches_closed_form_inside_ball(self, seed, n_states, d1, d2):
        P, theta, rng = random_quadratic(seed, n_states, d1, min(d1, d2))
        Y = rng.standard_normal((6, P.d2)) * np.logspace(-1, 1, 6)[:, None]
        # Stationarity of the Lagrangian inside the ball:
        # x - theta_bar + (eps / r^2) x + C_mu^T y = 0.
        closed = (P.mu @ theta - Y @ P.C_mu) / (1 + P.epsilon / P.radius**2)
        inside = np.linalg.norm(closed, axis=1) < P.radius - 1e-6
        scalar = np.array([lambda_min(P, y) for y in Y])
        batched = lambda_min(P, Y)
        tol = 1e-7 * (1 + np.abs(closed[inside]))
        assert np.all(np.abs(scalar[inside] - closed[inside]) <= tol)
        assert np.all(np.abs(batched[inside] - closed[inside]) <= tol)


def without_minimizer(P):
    """A copy of P without its exact minimizer, so ``lambda_min`` iterates."""
    return SaddleProblem(
        subgrad=P.subgrad, C=P.C, w=P.w, kernel=P.kernel,
        epsilon=P.epsilon, radius=P.radius, growth_K=P.growth_K,
        feasible_points=P.feasible_points,
        objective_rows=P.objective_rows, subgrad_rows=P.subgrad_rows,
    )


# Multipliers of order 1e8 on the dual flows of a canonical saddle run from
# y0 = 1e8 (2,000 steps, seed 101), at which the iteration from the reference
# point runs out with a residual of a few 1e-9 against GRAD_TOL.
ITERATION_STALLS = [99438990.5456353, 52393369.90952139, 51866885.98389893]


def full_sweep_misses(P, X, CY):
    """The certificate with every point row swept over the whole net and
    every row on the barrier band or NaN on its set form's cloud: the
    reference ``_certificate_misses`` is checked against."""
    net_T = P._solver.net_T
    shift = P._penalty.c_shift * X
    nrm = np.linalg.norm(X, axis=1)
    outer = nrm > P.radius + P._penalty.band
    shift[outer] = shift[outer] + (P.growth_K + 1) * X[outer]
    G_mu = saddle._subgrad_mu_rows(P, X)
    worst = np.matmul(((G_mu + shift) + CY)[:, None, :], net_T)[:, 0, :].min(axis=1)
    on_band = ~(nrm < P.radius - P._penalty.band) & ~outer
    for r in np.flatnonzero(on_band | np.isnan(G_mu).any(axis=1)):
        full = saddle._subgrad_mu(P, X[r]).points
        worst[r] = ((full + CY[r]) @ net_T).max(axis=0).min()
    return {r: float(abs(worst[r])) for r in np.flatnonzero(worst < -saddle.MEMBERSHIP_TOL)}


class TestExactMinimizer:
    def test_certified_where_the_iteration_stalls(self):
        # Outside the radius ball the closed form is V / (4 + eps/r^2) for
        # V = theta_mu - C_mu^T y = (1 - y) / 2 (1, 1).
        P = canonical()
        Y = np.array(ITERATION_STALLS)[:, None]
        lam = lambda_min(P, Y)
        expect = (0.5 - 0.5 * Y) / (4.0 + EPS / R**2) * np.ones(2)
        np.testing.assert_allclose(lam, expect, rtol=1e-15)
        for y in Y:
            with pytest.raises(saddle.SolverStallError) as stall:
                lambda_min(without_minimizer(P), y)
            assert stall.value.iterations == saddle.MAX_ITER

    def test_closed_form_ignores_the_start(self):
        P = canonical()
        Y = np.array([[-3.0], [0.3], [50.0]])
        X0 = np.array([[5.0, -5.0], [0.0, 0.0], [100.0, 1.0]])
        assert np.array_equal(lambda_min(P, Y, x0=X0), lambda_min(P, Y))

    def test_certificate_still_runs_on_the_closed_form(self):
        # At 1e12 the closed form loses the certificate to cancellation; it
        # raises with the miss and the 0 iterations it ran.
        P = canonical()
        with pytest.raises(saddle.SolverStallError) as stall:
            lambda_min(P, [1e12])
        assert stall.value.iterations == 0
        assert stall.value.residual > saddle.MEMBERSHIP_TOL

    def test_certificate_failure_reports_the_iterations_run(self, monkeypatch):
        # A loose residual target stops the row after k iterations, short of
        # the certificate.  k is exact: with k - 1 iterations allowed, the row
        # runs out instead.
        P = anisotropic()
        y = np.array([0.3, -0.2])
        monkeypatch.setattr(saddle, "GRAD_TOL", 0.1)
        with pytest.raises(saddle.SolverStallError) as stall:
            lambda_min(P, y)
        k = stall.value.iterations
        assert 0 < k < saddle.MAX_ITER
        monkeypatch.setattr(saddle, "MAX_ITER", k - 1)
        with pytest.raises(saddle.SolverStallError) as short:
            lambda_min(P, y)
        assert short.value.iterations == k - 1
        assert short.value.residual > 0.1

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_states=st.integers(1, 3),
        d1=st.integers(1, 4),
        d2=st.integers(1, 4),
        stretch=st.floats(1.0, 4.0),
        epsilon=st.floats(0.01, 0.5),
    )
    def test_closed_form_and_iteration_agree(self, seed, n_states, d1, d2, stretch, epsilon):
        # Each path is an oracle for the other: random problems, radii
        # stretched past the smallest admissible one, and multipliers from
        # 0.1 to 1000 in size, whose minimizers fall on both sides of the
        # barrier sphere (2,115 and 1,110 of them over 300 such problems).
        # There the two differed by at most 5.2e-16 (1 + |lambda|), far
        # inside the 1e-12 allowed here.
        Q, theta, rng = random_quadratic(seed, n_states, d1, min(d1, d2))
        P = quadratic_problem(
            theta, Q.C, Q.w, Q.kernel, epsilon=epsilon, radius=stretch * Q.radius,
            feasible_points=Q.feasible_points,
        )
        U = rng.standard_normal((12, P.d2))
        Y = U / np.linalg.norm(U, axis=1, keepdims=True) * np.logspace(-1, 3, 12)[:, None]
        closed = lambda_min(P, Y)
        iterated = lambda_min(without_minimizer(P), Y)
        scale = 1.0 + np.abs(closed).max(axis=1, keepdims=True)
        assert np.all(np.abs(closed - iterated) <= 1e-12 * scale)


class TestCertificateScreen:
    def test_screen_keeps_every_verdict_and_miss(self):
        # Point rows whose subgradient v lies near MEMBERSHIP_TOL / 2 and
        # MEMBERSHIP_TOL, in random directions and against net directions;
        # rows on the barrier band and NaN rows, inside their set and off it;
        # against the full sweep.
        P = abs_kink_problem()
        tol, net = saddle.MEMBERSHIP_TOL, saddle.direction_net(P.d1)
        rng = np.random.default_rng(6)
        X, CY = [], []
        for size in tol * np.array([0.499, 0.5, 0.501, 0.999, 1.0, 1.001, 2.0]):
            for aim in ("random", "net"):
                x = rng.uniform(0.5, 2.0, P.d1)
                u = rng.standard_normal(P.d1) if aim == "random" else net[rng.integers(len(net))]
                v0 = saddle._subgrad_mu_rows(P, x[None])[0] + P._penalty.c_shift * x
                X.append(x)
                CY.append(size * u / np.linalg.norm(u) - v0)
        on_sphere = P.radius * np.array([0.6, 0.8])
        kink = np.array([0.0, 0.5])
        for x in (on_sphere, kink):
            p0, p1 = saddle._subgrad_mu(P, x).points[:2]
            for t in (0.5, 3.0):
                X.append(x)
                CY.append(-((1 - t) * p0 + t * p1) + 0.1 * tol * rng.standard_normal(P.d1))
        X, CY = np.array(X), np.array(CY)
        expect = full_sweep_misses(P, X, CY)
        assert saddle._certificate_misses(P, X, CY, {}) == expect
        # Both verdicts occur, and the screen skips some rows.
        assert 0 < len(expect) < len(X)
        V = saddle._subgrad_mu_rows(P, X) + P._penalty.c_shift * X + CY
        assert (np.linalg.norm(V, axis=1) <= tol / 2).any()
        # A skipped row is not reported, and a row that is not finite misses
        # by inf.
        failing = min(expect)
        assert failing not in saddle._certificate_misses(P, X, CY, {failing: None})
        X[0] = np.nan
        assert saddle._certificate_misses(P, X, CY, {})[0] == math.inf
