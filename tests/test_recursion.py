import numpy as np
import pytest

from twoscale.convex import ConvexSet
from twoscale.markov import FiniteKernel
from twoscale.recursion import (
    DivergenceError,
    NoiseModel,
    StepSchedule,
    interpolate,
    interpolation_gap,
    noise_partial_sup,
    occupation,
    run,
    validate_schedule,
)
from twoscale.svmaps import SetValuedMap


def singleton_map(fn, dims=(1, 1, 1), alphabet=1, growth=1.0):
    return SetValuedMap(
        dims=dims,
        alphabet=alphabet,
        evaluate=lambda x, y, s: ConvexSet.singleton(fn(x, y, s)),
        growth_K=growth,
    )


def decay_pair():
    H1 = singleton_map(lambda x, y, s: -x)
    H2 = singleton_map(lambda x, y, s: -y)
    K = FiniteKernel.constant([[1.0]])
    return H1, H2, K


SCHED = StepSchedule(alpha=0.6, beta=0.9)


class TestStepSchedule:
    def test_values_at_zero(self):
        assert SCHED.a(0) == 1.0 and SCHED.b(0) == 1.0

    def test_values_at_999(self):
        assert SCHED.a(999) == pytest.approx(1000.0**-0.6, rel=1e-12)
        assert SCHED.a(999) == pytest.approx(0.015849, abs=1e-6)
        assert SCHED.b(999) == pytest.approx(0.0019953, abs=1e-7)

    def test_rejects_small_alpha(self):
        with pytest.raises(ValueError):
            StepSchedule(alpha=0.4, beta=0.9)

    def test_rejects_beta_below_alpha(self):
        with pytest.raises(ValueError):
            StepSchedule(alpha=0.8, beta=0.7)

    def test_validate_report(self):
        report = validate_schedule(SCHED, 5000)
        assert report.ok

    def test_validate_needs_horizon(self):
        with pytest.raises(ValueError):
            validate_schedule(SCHED, 1)


class TestRun:
    def test_toy_decay(self):
        H1, H2, K = decay_pair()
        # a(0) = 1 would annihilate a linear drift in one step; damp it.
        sched = StepSchedule(alpha=0.6, beta=0.9, a0=0.5, b0=0.5)
        traj = run(H1, H2, K, K, sched, [1.0], [1.0], 0, 0, N=2000, seed=0)
        x = np.abs(traj.X[:, 0])
        y = np.abs(traj.Y[:, 0])
        assert np.all(np.diff(x) <= 0) and np.all(np.diff(y) <= 0)
        # The slower clock leaves Y behind X.
        assert y[-1] > x[-1]

    def test_zero_drift_constant(self):
        H1 = singleton_map(lambda x, y, s: np.zeros(1))
        H2 = singleton_map(lambda x, y, s: np.zeros(1))
        K = FiniteKernel.constant([[1.0]])
        traj = run(H1, H2, K, K, SCHED, [2.0], [-3.0], 0, 0, N=50, seed=1)
        assert np.all(traj.X == 2.0) and np.all(traj.Y == -3.0)

    def test_zero_steps(self):
        H1, H2, K = decay_pair()
        traj = run(H1, H2, K, K, SCHED, [1.0], [1.0], 0, 0, N=0, seed=0)
        assert traj.X.shape == (1, 1) and traj.n_steps == 0

    def test_seed_determinism(self):
        H1, H2, K = decay_pair()
        noise = NoiseModel(kind="uniform", fast_scale=0.1, slow_scale=0.1)
        t1 = run(H1, H2, K, K, SCHED, [1.0], [1.0], 0, 0, N=500, seed=9, noise=noise)
        t2 = run(H1, H2, K, K, SCHED, [1.0], [1.0], 0, 0, N=500, seed=9, noise=noise)
        assert np.array_equal(t1.X, t2.X) and np.array_equal(t1.M1, t2.M1)
        assert np.array_equal(t1.S2, t2.S2)

    def test_update_identity_from_logs(self):
        H1, H2, K = decay_pair()
        noise = NoiseModel(kind="uniform", fast_scale=0.2, slow_scale=0.2)
        traj = run(H1, H2, K, K, SCHED, [1.0], [1.0], 0, 0, N=300, seed=3, noise=noise)
        assert traj.update_residual(H1, H2) <= 1e-8

    def test_divergence_aborts_with_step(self):
        H1 = singleton_map(lambda x, y, s: 2.0 * x, growth=3.0)
        H2 = singleton_map(lambda x, y, s: np.zeros(1))
        K = FiniteKernel.constant([[1.0]])
        with pytest.raises(DivergenceError) as err:
            run(H1, H2, K, K, SCHED, [1.0], [0.0], 0, 0, N=5000, seed=0)
        assert 0 < err.value.step < 5000

    def test_markov_conditioning_pre_update(self):
        # The chain for step n+1 must be sampled at the step-n iterates:
        # with a kernel that switches on the post-update iterate the draw
        # differs, so compare against a hand-rolled replica.
        def row(x, y, s):
            return np.array([1.0, 0.0]) if x[0] >= 0.5 else np.array([0.0, 1.0])

        K1 = FiniteKernel(2, row)
        H1 = singleton_map(lambda x, y, s: -x, alphabet=2)
        H2 = singleton_map(lambda x, y, s: np.zeros(1), alphabet=2)
        traj = run(H1, H2, K1, K1, SCHED, [1.0], [0.0], 0, 0, N=3, seed=0)
        # X: 1.0, 0.0 (after a(0)=1 step), ...; S1_1 conditioned on X_0=1 -> 0.
        assert traj.X[1, 0] == 0.0
        assert traj.S1[1] == 0
        # S1_2 conditioned on X_1=0 -> state 1.
        assert traj.S1[2] == 1

    def test_shared_noise_chain(self):
        K = FiniteKernel.constant([[0.5, 0.5], [0.5, 0.5]])
        H1 = singleton_map(lambda x, y, s: -x, alphabet=2)
        H2 = singleton_map(lambda x, y, s: -y, alphabet=2)
        traj = run(
            H1, H2, K, K, SCHED, [1.0], [1.0], 0, 0, N=200, seed=5,
            share_noise_chain=True,
        )
        assert np.array_equal(traj.S1, traj.S2)


class TestInterpolate:
    def make_traj(self):
        H1, H2, K = decay_pair()
        return run(H1, H2, K, K, SCHED, [1.0], [1.0], 0, 0, N=100, seed=0)

    def test_midpoint(self):
        traj = self.make_traj()
        ts = traj.t_slow
        mid = 0.5 * (ts[0] + ts[1])
        expect = 0.5 * (traj.Y[0] + traj.Y[1])
        np.testing.assert_allclose(interpolate(traj, "slow", mid), expect)

    def test_knot_exact(self):
        traj = self.make_traj()
        for n in (0, 7, 100):
            np.testing.assert_array_equal(
                interpolate(traj, "slow", traj.t_slow[n]), traj.Y[n]
            )
            np.testing.assert_array_equal(
                interpolate(traj, "fast", traj.t_fast[n]), traj.X[n]
            )

    def test_beyond_last_knot(self):
        traj = self.make_traj()
        with pytest.raises(ValueError):
            interpolate(traj, "slow", traj.t_slow[-1] + 1.0)

    @pytest.mark.parametrize("scale", ["fast", "slow"])
    def test_array_matches_scalar_calls(self, scale):
        noise = NoiseModel(fast_scale=0.2, slow_scale=0.2)
        H1, H2, K = decay_pair()
        traj = run(H1, H2, K, K, SCHED, [1.0], [2.0], 0, 0, N=100, seed=3, noise=noise)
        clock = traj.t_slow if scale == "slow" else traj.t_fast
        rng = np.random.default_rng(0)
        times = np.concatenate([
            clock[[0, 1, 7, 50, 99, 100]],
            [clock[0] - 5e-13, clock[-1] + 5e-13, clock[-1] - 1e-13],
            rng.uniform(clock[0], clock[-1], 40),
        ])
        got = interpolate(traj, scale, times)
        expect = np.stack([interpolate(traj, scale, t) for t in times])
        assert got.shape == expect.shape == (len(times), 1)
        assert np.array_equal(got, expect)
        knot_rows = traj.Y if scale == "slow" else traj.X
        assert np.array_equal(got[:6, :1], knot_rows[[0, 1, 7, 50, 99, 100]])

    def test_array_out_of_range(self):
        traj = self.make_traj()
        ts = traj.t_slow
        for bad in ([0.0, ts[-1] + 1e-9], [-1e-9, 0.5], [[0.0], [ts[-1] + 1.0]]):
            with pytest.raises(ValueError, match="outside the clock range"):
                interpolate(traj, "slow", np.array(bad))

    def test_array_zero_steps_repeats_first_row(self):
        H1, H2, K = decay_pair()
        traj = run(H1, H2, K, K, SCHED, [1.0], [2.0], 0, 0, N=0, seed=0)
        got = interpolate(traj, "slow", np.array([0.0, 1e-13, 0.0]))
        assert np.array_equal(got, np.tile([2.0], (3, 1)))

    def test_clocks_computed_once(self):
        traj = self.make_traj()
        assert traj.t_slow is traj.t_slow
        assert traj.t_fast is traj.t_fast
        steps = np.arange(traj.n_steps)
        for clock, step in ((traj.t_fast, SCHED.a), (traj.t_slow, SCHED.b)):
            assert np.array_equal(clock, np.concatenate([[0.0], np.cumsum(step(steps))]))


class TestInterpolationGap:
    def test_zero_noise_zero_gap(self):
        H1, H2, K = decay_pair()
        traj = run(H1, H2, K, K, SCHED, [1.0], [1.0], 0, 0, N=2000, seed=0)
        sups = interpolation_gap(traj, T=1.0)
        assert np.all(sups <= 1e-12)

    def test_single_step_window(self):
        H1, H2, K = decay_pair()
        noise = NoiseModel(fast_scale=0.0, slow_scale=0.3)
        traj = run(H1, H2, K, K, SCHED, [1.0], [1.0], 0, 0, N=50, seed=4, noise=noise)
        n = 30
        b_n = traj.schedule.b(n)
        expect = b_n * np.linalg.norm(traj.M2[n])
        tilde_next = traj.Y[n] + b_n * traj.V2[n]
        assert np.linalg.norm(traj.Y[n + 1] - tilde_next) == pytest.approx(
            expect, rel=1e-12
        )

    def test_gap_equals_noise_partial_sums(self):
        H1, H2, K = decay_pair()
        noise = NoiseModel(fast_scale=0.1, slow_scale=0.1)
        traj = run(H1, H2, K, K, SCHED, [1.0], [1.0], 0, 0, N=3000, seed=8, noise=noise)
        gaps = interpolation_gap(traj, T=1.0, n_windows=16)
        bound = noise_partial_sup(traj, T=1.0, n_windows=16)
        assert gaps.shape == bound.shape
        np.testing.assert_allclose(gaps, bound, atol=1e-10)

    def test_start_times_on_knots_match_default_windows(self):
        H1, H2, K = decay_pair()
        noise = NoiseModel(fast_scale=0.1, slow_scale=0.1)
        traj = run(H1, H2, K, K, SCHED, [1.0], [1.0], 0, 0, N=3000, seed=8, noise=noise)
        default = interpolation_gap(traj, T=1.0, n_windows=16)
        last = int(np.searchsorted(traj.t_slow, traj.t_slow[-1] - 1.0, side="right")) - 1
        knots = np.linspace(0, last, 16).astype(int)
        by_time = interpolation_gap(traj, T=1.0, starts=traj.t_slow[knots])
        assert np.array_equal(by_time, default)

    def test_start_times_off_knots(self):
        H1, H2, K = decay_pair()
        noise = NoiseModel(fast_scale=0.0, slow_scale=0.3)
        traj = run(H1, H2, K, K, SCHED, [1.0], [1.0], 0, 0, N=400, seed=4, noise=noise)
        ts = traj.t_slow
        b = SCHED.b(np.arange(traj.n_steps))
        t0s = np.array([2.5, 4.0, ts[-1] - 0.5])
        gaps = interpolation_gap(traj, T=0.75, starts=t0s)
        for t0, gap in zip(t0s, gaps):
            n0, *rest = np.flatnonzero((ts >= t0) & (ts <= t0 + 0.75))
            assert rest
            y, worst = traj.Y[n0].copy(), 0.0
            for n in rest:
                y += b[n - 1] * traj.V2[n - 1]
                worst = max(worst, float(np.linalg.norm(traj.Y[n] - y)))
            assert gap == pytest.approx(worst, rel=1e-9, abs=1e-15)
        past_end = interpolation_gap(traj, T=0.75, starts=[ts[-1] + 3.0])
        assert past_end.tolist() == [0.0]

    def test_noise_partial_sums_decay_in_thirds(self):
        H1, H2, K = decay_pair()
        noise = NoiseModel(fast_scale=0.1, slow_scale=0.1)
        traj = run(H1, H2, K, K, SCHED, [1.0], [1.0], 0, 0, N=9000, seed=2, noise=noise)
        sups = noise_partial_sup(traj, T=0.5, n_windows=48)
        thirds = np.array_split(sups, 3)
        maxes = [t.max() for t in thirds]
        assert maxes[0] > maxes[1] > maxes[2]


class TestOccupation:
    def test_constant_trajectory_dirac(self):
        H1 = singleton_map(lambda x, y, s: np.zeros(1))
        H2 = singleton_map(lambda x, y, s: np.zeros(1))
        K = FiniteKernel.constant([[1.0]])
        traj = run(H1, H2, K, K, SCHED, [2.0], [0.0], 0, 0, N=20, seed=0)
        m = occupation(traj, slice(0, 21))
        assert np.all(m.xs == 2.0)
        np.testing.assert_allclose(m.s_marginal(1), [1.0])
        assert m.x_mass_within([[2.0]], 1e-12) == pytest.approx(1.0)

    def test_window_of_one(self):
        H1, H2, K = decay_pair()
        traj = run(H1, H2, K, K, SCHED, [1.0], [1.0], 0, 0, N=10, seed=0)
        m = occupation(traj, slice(3, 4))
        assert len(m.weights) == 1 and m.weights[0] == 1.0

    def test_empty_window_rejected(self):
        H1, H2, K = decay_pair()
        traj = run(H1, H2, K, K, SCHED, [1.0], [1.0], 0, 0, N=10, seed=0)
        with pytest.raises(ValueError):
            occupation(traj, slice(5, 5))

    def test_ergodic_marginal(self):
        H1 = singleton_map(lambda x, y, s: np.zeros(1), alphabet=2)
        H2 = singleton_map(lambda x, y, s: np.zeros(1), alphabet=2)
        K2 = FiniteKernel.constant([[0.5, 0.5], [0.25, 0.75]])
        K1 = FiniteKernel.constant([[1.0, 0.0], [0.0, 1.0]])
        traj = run(H1, H2, K1, K2, SCHED, [0.0], [0.0], 0, 0, N=20_000, seed=6)
        m = occupation(traj, slice(10_000, 20_001))
        tv = 0.5 * np.abs(m.s_marginal(2) - np.array([1 / 3, 2 / 3])).sum()
        assert tv <= 0.05


class TestCsvAndManifest:
    def test_csv_shape_and_determinism(self, tmp_path):
        H1, H2, K = decay_pair()
        noise = NoiseModel(fast_scale=0.05, slow_scale=0.05)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            traj = run(
                H1, H2, K, K, SCHED, [1.0], [1.0], 0, 0, N=25, seed=11, noise=noise
            )
            traj.to_csv(out)
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert len(lines) == 2 + 26


class TestMoreRunPaths:
    def test_interpolate_zero_steps(self):
        H1, H2, K = decay_pair()
        traj = run(H1, H2, K, K, SCHED, [1.0], [2.0], 0, 0, N=0, seed=0)
        np.testing.assert_array_equal(interpolate(traj, "slow", 0.0), [2.0])

    def test_gaussian_noise_clipped(self):
        H1 = singleton_map(lambda x, y, s: np.zeros(1))
        H2 = singleton_map(lambda x, y, s: np.zeros(1))
        K = FiniteKernel.constant([[1.0]])
        noise = NoiseModel(kind="gaussian", fast_scale=0.5, slow_scale=0.5)
        traj = run(H1, H2, K, K, SCHED, [0.0], [0.0], 0, 0, N=5000, seed=1, noise=noise)
        assert np.abs(traj.M1).max() <= 3.0  # 6 sigma clip
        assert abs(traj.M1.mean()) <= 0.05

    def test_random_vertex_selection(self):
        H1 = SetValuedMap(
            dims=(1, 1, 1),
            alphabet=1,
            evaluate=lambda x, y, s: ConvexSet([[-1.0], [1.0]]),
            growth_K=2.0,
        )
        H2 = singleton_map(lambda x, y, s: np.zeros(1))
        K = FiniteKernel.constant([[1.0]])
        traj = run(
            H1, H2, K, K, SCHED, [0.0], [0.0], 0, 0, N=200, seed=3,
            selection_fast="random_vertex",
        )
        assert set(np.unique(traj.V1)) == {-1.0, 1.0}

    def test_noise_sup_window_too_long(self):
        H1, H2, K = decay_pair()
        traj = run(H1, H2, K, K, SCHED, [1.0], [1.0], 0, 0, N=10, seed=0)
        with pytest.raises(ValueError):
            noise_partial_sup(traj, T=100.0)
