from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

import twoscale.convex as convex
import twoscale.dynamics as dynamics
import twoscale.recursion as recursion
from twoscale.cli import NAMED_KERNELS, drift_map
from twoscale.convex import ConvexSet
from twoscale.dynamics import ImpureFieldError, _sweep_block, select_velocity
from twoscale.markov import FiniteKernel, next_state
from twoscale.recursion import (
    BLOCK_STEPS,
    SWEEP_STEPS,
    DivergenceError,
    NoiseModel,
    StepSchedule,
    interpolate,
    interpolation_gap,
    noise_partial_sup,
    occupation,
    run,
    start_knots,
    window_starts,
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

    @pytest.mark.parametrize("d1, d2, fast, slow", [
        (1, 2, "negate_x", "negate_x"),
        (2, 3, "negate_x", "negate_x"),
        (2, 1, "negate_y", "negate_y"),
    ])
    @pytest.mark.parametrize("N", [0, 5])
    def test_drift_values_outside_their_iterate_refused(self, d1, d2, fast, slow, N):
        # Each drift's values must live in the space of the iterate it moves.
        K = FiniteKernel.constant([[1.0]])
        H1, H2 = (drift_map(name, d1, d2, 1) for name in (fast, slow))
        with pytest.raises(ValueError, match="drift values of dimensions"):
            run(H1, H2, K, K, SCHED, np.ones(d1), np.ones(d2), 0, 0, N=N, seed=0)


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
        sups = interpolation_gap(traj, 1.0, window_starts(traj, 1.0, 64))
        assert len(sups) == 64 and np.all(sups <= 1e-12)

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
        starts = window_starts(traj, 1.0, 16)
        gaps = interpolation_gap(traj, 1.0, starts)
        bound = noise_partial_sup(traj, 1.0, starts)
        assert gaps.shape == bound.shape == (16,)
        np.testing.assert_allclose(gaps, bound, atol=1e-10)

    def test_window_starts_spaced_on_the_slow_clock(self):
        H1, H2, K = decay_pair()
        traj = run(H1, H2, K, K, SCHED, [1.0], [1.0], 0, 0, N=3000, seed=8)
        span = traj.t_slow[-1]
        starts = window_starts(traj, 1.0, 16)
        np.testing.assert_allclose(starts, np.linspace(0.0, span - 1.0, 16), rtol=0)
        assert starts[0] == 0.0 and starts[-1] + 1.0 <= span
        # A room as long as the clock leaves one start, at 0.
        assert window_starts(traj, span, 16).tolist() == [0.0]
        assert window_starts(traj, 2 * span, 16).tolist() == [0.0]
        knots = start_knots(traj, np.concatenate([starts, [span + 3.0]]))
        for t0, n0 in zip(starts, knots):
            assert traj.t_slow[n0] >= t0 and (n0 == 0 or traj.t_slow[n0 - 1] < t0)
        assert knots[-1] == traj.n_steps

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
        sups = noise_partial_sup(traj, 0.5, window_starts(traj, 0.5, 48))
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

    def test_noise_sup_window_too_long(self):
        H1, H2, K = decay_pair()
        traj = run(H1, H2, K, K, SCHED, [1.0], [1.0], 0, 0, N=10, seed=0)
        with pytest.raises(ValueError):
            noise_partial_sup(traj, 100.0, window_starts(traj, 100.0, 16))


# -- the per-step loop of the parent change, kept as the reference ----------

def _reference_draw(noise, rng, scale, dim):
    if scale == 0.0 or dim == 0:
        return np.zeros(dim)
    if noise.kind == "uniform":
        return rng.uniform(-scale, scale, dim)
    return np.clip(rng.normal(0.0, scale, dim), -6 * scale, 6 * scale)


def _reference_sample_next(K, x, y, s, rng):
    cum = np.cumsum(K.row(x, y, s))
    u = rng.random()
    return int(min(np.searchsorted(cum, u), K.alphabet - 1))


def reference_run(
    H1, H2, K1, K2, schedule, x0, y0, s1_0, s2_0, N, seed, noise=NoiseModel(),
    share_noise_chain=False, divergence_bound=1e12,
):
    """One set evaluation, selection, noise draw and chain draw per step.

    Each selection runs on a fresh copy of the drift's set, so no value kept
    on a shared set (``ConvexSet._least_norm``) reaches the reference.  The
    copy skips the constructor's checks, so a non-finite point still reaches
    the divergence check, as in ``run``.
    """
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    d1, d2 = H1.dims[0], H2.dims[1]
    rng = np.random.default_rng(np.uint64(seed))
    X = np.empty((N + 1, d1))
    Y = np.empty((N + 1, d2))
    S1 = np.empty(N + 1, dtype=int)
    S2 = np.empty(N + 1, dtype=int)
    M1 = np.zeros((N, d1))
    M2 = np.zeros((N, d2))
    V1 = np.zeros((N, d1))
    V2 = np.zeros((N, d2))
    X[0], Y[0], S1[0], S2[0] = x0, y0, s1_0, s2_0
    n_arr = np.arange(max(N, 1))
    a = schedule.a(n_arr)
    b = schedule.b(n_arr)
    for n in range(N):
        x, y = X[n], Y[n]
        s1, s2 = int(S1[n]), int(S2[n])
        K1n = ConvexSet._trusted(H1(x, y, s1).points.copy())
        K2n = ConvexSet._trusted(H2(x, y, s2).points.copy())
        v1 = select_velocity(K1n)
        v2 = select_velocity(K2n)
        m1 = _reference_draw(noise, rng, noise.fast_scale, d1)
        m2 = _reference_draw(noise, rng, noise.slow_scale, d2)
        V1[n], V2[n], M1[n], M2[n] = v1, v2, m1, m2
        X[n + 1] = x + a[n] * (v1 + m1)
        Y[n + 1] = y + b[n] * (v2 + m2)
        mx = np.abs(X[n + 1]).max(initial=0.0)
        my = np.abs(Y[n + 1]).max(initial=0.0)
        if not (mx < divergence_bound and my < divergence_bound):
            raise DivergenceError(
                n, f"iterates diverged at step {n}: |X|, |Y| left the finite range"
            )
        S1[n + 1] = _reference_sample_next(K1, x, y, s1, rng)
        S2[n + 1] = (
            S1[n + 1] if share_noise_chain
            else _reference_sample_next(K2, x, y, s2, rng)
        )
    return X, Y, S1, S2, M1, M2, V1, V2


def pointed_map(fn, dims, alphabet, with_point=True, growth=1.0, rows=None):
    """A single-valued map whose set form is the singleton of ``fn``, with
    the row form ``rows``."""
    return SetValuedMap(
        dims=dims, alphabet=alphabet,
        evaluate=lambda x, y, s: ConvexSet.singleton(fn(x, y, s)),
        growth_K=growth, point=fn if with_point else None, point_rows=rows,
    )


def kink_map(dims, alphabet, with_point=True, calls=None, shared=False, rows=False):
    """-sign(x_0) in every coordinate, shifted by the state; the segment
    [-1, 1]^k for |x_0| < 1/4.  ``calls`` collects one entry per set
    evaluation.  ``shared`` returns one prebuilt segment at every kink
    evaluation, as the ``sign`` z-map does.  ``rows`` adds the row form,
    NaN on the rows with |x_0| < 1/4."""
    k = dims[2]
    segment = ConvexSet(np.vstack([-np.ones(k), np.ones(k)]))

    def point(x, y, s):
        if abs(x[0]) < 0.25:
            return None
        return -np.sign(x[0]) * np.ones(k) + 0.1 * s

    def point_rows(X, Y, S):
        x0 = X[:, :1]
        sign = np.where(np.abs(x0) < 0.25, np.nan, -np.sign(x0))
        return sign * np.ones(k) + (0.1 * S)[:, None]

    def evaluate(x, y, s):
        if calls is not None:
            calls.append(1)
        p = point(x, y, s)
        if p is None:
            return segment if shared else ConvexSet(segment.points)
        return ConvexSet.singleton(p)

    return SetValuedMap(
        dims=dims, alphabet=alphabet, evaluate=evaluate, growth_K=2.0,
        point=point if with_point else None, point_rows=point_rows if rows else None,
    )


def threshold_kernel():
    def row(x, y, s):
        return np.array([0.8, 0.2]) if x[0] + 0.1 * s >= 0 else np.array([0.3, 0.7])

    return FiniteKernel(2, row)


CONST2 = FiniteKernel.constant([[0.7, 0.3], [0.2, 0.8]])
DAMPED = StepSchedule(alpha=0.6, beta=0.9, a0=0.5, b0=0.5)
UNIFORM = NoiseModel(kind="uniform", fast_scale=0.3, slow_scale=0.2)
GAUSSIAN = NoiseModel(kind="gaussian", fast_scale=0.3, slow_scale=0.2)

# name -> run keyword arguments; every case runs at N = 0, 1023, 1024, 1025.
EQUIVALENCE_CASES = {
    "uniform": dict(noise=UNIFORM),
    "gaussian": dict(noise=GAUSSIAN),
    "fast_scale_0": dict(noise=NoiseModel(fast_scale=0.0, slow_scale=0.2)),
    "slow_scale_0": dict(noise=NoiseModel(fast_scale=0.3, slow_scale=0.0)),
    "gaussian_slow_scale_0": dict(
        noise=NoiseModel(kind="gaussian", fast_scale=0.3, slow_scale=0.0)
    ),
    "no_noise": dict(),
    "least_norm_kink": dict(noise=NoiseModel(fast_scale=0.0, slow_scale=0.2), kink=True),
    "kink_with_noise": dict(noise=UNIFORM, kink=True),
    "shared_chain": dict(noise=UNIFORM, share_noise_chain=True),
    "iterate_kernel": dict(noise=UNIFORM, K1=threshold_kernel(), K2=threshold_kernel()),
    "iterate_kernel_shared": dict(
        noise=GAUSSIAN, K1=threshold_kernel(), share_noise_chain=True
    ),
    # The set-valued benchmark's shape: the fast iterate comes to rest on a
    # kink whose value is one set object, under iterate-dependent chains.
    "shared_kink_iterate_kernel": dict(
        noise=NoiseModel(fast_scale=0.0, slow_scale=0.2), kink=True, shared=True,
        K1=threshold_kernel(), K2=threshold_kernel(),
    ),
    "no_point_forms": dict(noise=UNIFORM, with_point=False),
    "no_point_kink": dict(noise=UNIFORM, kink=True, with_point=False),
    # Row forms on both drifts and constant chains: the block sweeps.
    "rows_uniform": dict(noise=UNIFORM, rows=True),
    "rows_gaussian": dict(noise=GAUSSIAN, rows=True),
    "rows_shared_chain": dict(noise=UNIFORM, share_noise_chain=True, rows=True),
    "rows_no_noise": dict(rows=True),
    "rows_kink_with_noise": dict(noise=UNIFORM, kink=True, rows=True),
}
ROW_CASES = sorted(c for c in EQUIVALENCE_CASES if c.startswith("rows_"))


def equivalence_setup(
    kink=False, with_point=True, K1=CONST2, K2=CONST2, shared=False, rows=False, **kw
):
    dims1, dims2 = (2, 1, 2), (2, 1, 1)
    if kink:
        H1 = kink_map(dims1, 2, with_point, shared=shared, rows=rows)
    else:
        H1 = pointed_map(
            lambda x, y, s: -x + (0.5 * s) * y[0], dims1, 2, with_point,
            rows=(lambda X, Y, S: -X + ((0.5 * S) * Y[:, 0])[:, None]) if rows else None,
        )
    H2 = pointed_map(
        lambda x, y, s: x[:1] - y - 0.25 * s, dims2, 2, with_point,
        rows=(lambda X, Y, S: X[:, :1] - Y - (0.25 * S)[:, None]) if rows else None,
    )
    x0 = [0.3, 1.0] if kink else [1.0, -0.5]
    return (H1, H2, K1, K2, DAMPED, x0, [0.5], 1, 0), kw


FIELDS = ("X", "Y", "S1", "S2", "M1", "M2", "V1", "V2")


class TestBlockRunMatchesReference:
    @pytest.mark.parametrize("N", [0, 1023, 1024, 1025])
    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_bytes_equal(self, case, N):
        args, kw = equivalence_setup(**EQUIVALENCE_CASES[case])
        expect = reference_run(*args, N=N, seed=2024, **kw)
        args, kw = equivalence_setup(**EQUIVALENCE_CASES[case])
        traj = run(*args, N=N, seed=2024, **kw)
        for name, want in zip(FIELDS, expect):
            got = getattr(traj, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("case", [
        "least_norm_kink", "kink_with_noise", "shared_kink_iterate_kernel",
    ])
    def test_kink_cases_take_both_paths(self, case):
        spec = EQUIVALENCE_CASES[case]
        (_, H2, K1, K2, *rest), kw = equivalence_setup(**spec)
        calls = []
        H1 = kink_map((2, 1, 2), 2, calls=calls, shared=spec.get("shared", False))
        run(H1, H2, K1, K2, *rest, N=1025, seed=2024, **kw)
        assert 0 < len(calls) < 1025

    @pytest.mark.parametrize("with_point", [True, False])
    @pytest.mark.parametrize("noise", [UNIFORM, GAUSSIAN], ids=["uniform", "gaussian"])
    def test_divergence_at_same_step(self, with_point, noise):
        def grow(x, y, s):
            return 1.2 * x

        H1 = pointed_map(grow, (2, 1, 2), 2, with_point, growth=1.0)
        H2 = pointed_map(lambda x, y, s: np.zeros(1), (2, 1, 1), 2, with_point)
        args = (H1, H2, CONST2, CONST2, DAMPED, [1.0, -1.0], [0.0], 0, 1)
        with pytest.raises(DivergenceError) as want:
            reference_run(*args, N=5000, seed=8, noise=noise)
        with pytest.raises(DivergenceError) as got:
            run(*args, N=5000, seed=8, noise=noise)
        assert BLOCK_STEPS < got.value.step == want.value.step < 5000
        assert str(got.value) == str(want.value)

    def test_non_finite_point_diverges_at_its_step(self):
        H1 = pointed_map(
            lambda x, y, s: np.array([np.nan if x[0] < 0.5 else -x[0]]), (1, 1, 1), 1
        )
        H2 = pointed_map(lambda x, y, s: np.zeros(1), (1, 1, 1), 1)
        K = FiniteKernel.constant([[1.0]])
        args = (H1, H2, K, K, DAMPED, [1.0], [0.0], 0, 0)
        with pytest.raises(DivergenceError) as want:
            reference_run(*args, N=100, seed=0)
        with pytest.raises(DivergenceError) as got:
            run(*args, N=100, seed=0)
        assert got.value.step == want.value.step

    def test_point_dim_checked_on_every_call(self):
        calls = []

        def point(x, y, s):
            calls.append(1)
            return np.zeros(2 if len(calls) < 3 else 3)

        H1 = SetValuedMap(
            dims=(2, 1, 2), alphabet=1,
            evaluate=lambda x, y, s: ConvexSet.singleton(point(x, y, s)),
            growth_K=1.0, point=point,
        )
        H2 = singleton_map(lambda x, y, s: np.zeros(1), dims=(2, 1, 1))
        K = FiniteKernel.constant([[1.0]])
        with pytest.raises(ValueError, match=r"oracle returned dim 3, declared 2"):
            run(H1, H2, K, K, SCHED, [0.0, 0.0], [0.0], 0, 0, N=10, seed=0)
        assert len(calls) == 3

    def test_point_skips_the_set_form(self):
        sets = []

        def evaluate(x, y, s):
            sets.append(1)
            return ConvexSet.singleton(-x)

        H1 = SetValuedMap(
            dims=(1, 1, 1), alphabet=1, evaluate=evaluate, growth_K=1.0,
            point=lambda x, y, s: -x,
        )
        H2 = pointed_map(lambda x, y, s: -y, (1, 1, 1), 1)
        K = FiniteKernel.constant([[1.0]])
        run(H1, H2, K, K, SCHED, [1.0], [1.0], 0, 0, N=50, seed=0)
        assert sets == []

    def test_initial_state_checked(self):
        H1, H2, K = decay_pair()
        with pytest.raises(ValueError, match="state 1 outside alphabet of size 1"):
            run(H1, H2, K, K, SCHED, [1.0], [1.0], 1, 0, N=5, seed=0)

    def test_block_uniform_noise_is_generator_uniform(self):
        rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
        m1, m2, U = UNIFORM.draw_block(rng1, 300, 2, 3, 2)
        for i in range(300):
            assert m1[i].tobytes() == rng2.uniform(-0.3, 0.3, 2).tobytes()
            assert m2[i].tobytes() == rng2.uniform(-0.2, 0.2, 3).tobytes()
            assert U[i].tobytes() == rng2.random(2).tobytes()

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -1.0])
    def test_noise_scale_must_be_finite(self, scale):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            NoiseModel(fast_scale=scale)


class TestSetValuedStepCost:
    """The set-valued benchmark's shape: sign_fast held at its kink, whose
    value is one set, and the x_threshold chain on the fast scale."""

    def run_counted(self, monkeypatch, rows):
        calls = Counter()

        def count(owner, name, key=None):
            orig = getattr(owner, name)

            def counted(*args):
                calls[key or name] += 1
                return orig(*args)

            monkeypatch.setattr(owner, name, counted)

        count(convex, "project")
        count(dynamics, "project")
        count(FiniteKernel, "row")
        H1 = drift_map("sign_fast", 1, 1, 2)
        H2 = drift_map("negate_y", 1, 1, 2)
        K1 = NAMED_KERNELS["x_threshold"](2)
        K2 = FiniteKernel.constant([[0.5, 0.5], [0.5, 0.5]])
        if rows:
            count(H1, "point_rows", "sweep")
            count(K1, "rows", "kernel_rows")
        else:
            H1.point_rows = H2.point_rows = None
        blocks = []  # (knots, the knot the sweeps stopped at) per swept block

        def sweep_block(rows, S, V, *args, **kw):
            blocks.append((len(V), _sweep_block(rows, S, V, *args, **kw)))
            return blocks[-1][1]

        monkeypatch.setattr(recursion, "_sweep_block", sweep_block)
        traj = run(
            H1, H2, K1, K2, StepSchedule(alpha=0.6, beta=0.9), [0.0], [0.7], 0, 0,
            N=5000, seed=11, noise=NoiseModel(fast_scale=0.0, slow_scale=0.5),
        )
        assert not traj.X.any() and not traj.V1.any()
        return calls, blocks

    def test_shared_kink_projected_once(self, monkeypatch):
        # Without row forms every step is taken on the loop: the set is
        # projected once (when the map is built); the chain's row is read
        # once per step.
        calls, blocks = self.run_counted(monkeypatch, rows=False)
        assert blocks == []
        assert calls == {"project": 1, "row": 5000}

    def test_shared_kink_swept(self, monkeypatch):
        # With row forms the blocks are swept: the set is still projected
        # once; the chain's row is read only on the steps the loop takes
        # (the rest of block 0, whose sweeps run out of their row budget);
        # its row form is read once per sweep of several knots, and once
        # more where a block settles, for the state after its last step.
        calls, blocks = self.run_counted(monkeypatch, rows=True)
        assert len(blocks) == 10 and sum(m for m, _ in blocks) == 5000
        settled = sum(p == m for m, p in blocks)
        looped = sum(m - p for m, p in blocks)
        assert settled == 9 and 0 < looped < SWEEP_STEPS
        assert calls["project"] == 1 and calls["row"] == looped
        assert calls["kernel_rows"] == calls["sweep"] + settled


def grow_setup(x0, rows=True):
    """A fast drift 1.2 x that leaves the finite range, with row forms."""
    H1 = pointed_map(
        lambda x, y, s: 1.2 * x, (2, 1, 2), 2,
        rows=(lambda X, Y, S: 1.2 * X) if rows else None,
    )
    H2 = pointed_map(
        lambda x, y, s: np.zeros(1), (2, 1, 1), 2,
        rows=(lambda X, Y, S: np.zeros((len(X), 1))) if rows else None,
    )
    return (H1, H2, CONST2, CONST2, DAMPED, x0, [0.0], 0, 1)


class TestBlockSweepsMatchReference:
    """Runs whose drifts both have row forms and whose chains are constant
    walks take ``run``'s block sweeps; they must still be the reference's."""

    @pytest.mark.parametrize("N", [3 * SWEEP_STEPS + d for d in (-1, 0, 1)])
    @pytest.mark.parametrize("case", ROW_CASES)
    def test_bytes_equal_at_a_sweep_boundary(self, case, N):
        args, kw = equivalence_setup(**EQUIVALENCE_CASES[case])
        expect = reference_run(*args, N=N, seed=7, **kw)
        traj = run(*args, N=N, seed=7, **kw)
        for name, want in zip(FIELDS, expect):
            assert getattr(traj, name).tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("case", ROW_CASES)
    def test_row_cases_are_swept(self, case, monkeypatch):
        # The row forms see many rows at once; on the kink, NaN rows go to
        # the set form one at a time.
        args, kw = equivalence_setup(**EQUIVALENCE_CASES[case])
        sizes, sets = [], []
        for H in args[:2]:
            rows, evaluate = H.point_rows, H._evaluate
            monkeypatch.setattr(
                H, "point_rows", lambda X, Y, S, f=rows: sizes.append(len(X)) or f(X, Y, S)
            )
            monkeypatch.setattr(
                H, "_evaluate", lambda x, y, s, f=evaluate: sets.append(1) or f(x, y, s)
            )
        run(*args, N=2000, seed=3, **kw)
        assert max(sizes) > 100
        assert bool(sets) == ("kink" in case)

    @pytest.mark.parametrize("noise", [UNIFORM, GAUSSIAN], ids=["uniform", "gaussian"])
    def test_divergence_mid_block_at_same_step(self, noise):
        args = grow_setup([1.0, -1.0])
        with pytest.raises(DivergenceError) as want:
            reference_run(*args, N=5000, seed=8, noise=noise)
        step = want.value.step
        assert step % SWEEP_STEPS not in (0, SWEEP_STEPS - 1)
        # Mid-block, then at the last step, whose state no sweep evaluates.
        for N in (5000, step + 1):
            with pytest.raises(DivergenceError) as got:
                run(*args, N=N, seed=8, noise=noise)
            assert got.value.step == step
            assert str(got.value) == str(want.value)

    def test_divergence_at_a_block_start(self):
        # From this start the state that leaves the range is the first of the
        # fourth sweep block, which no sweep of the third evaluates.
        args = grow_setup([3.58, -1.0])
        with pytest.raises(DivergenceError) as want:
            reference_run(*args, N=5000, seed=1)
        assert want.value.step == 3 * SWEEP_STEPS - 1
        with pytest.raises(DivergenceError) as got:
            run(*args, N=5000, seed=1)
        assert got.value.step == want.value.step
        assert str(got.value) == str(want.value)

    def test_start_past_the_bound_is_not_checked(self):
        # As in the loop, only the states the steps make are checked: a first
        # step of a(0) = 1 along -x brings this start back.
        H1 = pointed_map(lambda x, y, s: -x, (2, 1, 2), 2, rows=lambda X, Y, S: -X)
        H2 = pointed_map(
            lambda x, y, s: np.zeros(1), (2, 1, 1), 2,
            rows=lambda X, Y, S: np.zeros((len(X), 1)),
        )
        args = (H1, H2, CONST2, CONST2, SCHED, [2e12, 0.0], [0.5], 1, 0)
        expect = reference_run(*args, N=600, seed=4, noise=UNIFORM)
        traj = run(*args, N=600, seed=4, noise=UNIFORM)
        assert traj.X[0, 0] == 2e12 and np.abs(traj.X[1:]).max() < 1.0
        for name, want in zip(FIELDS, expect):
            assert getattr(traj, name).tobytes() == want.tobytes(), name

    @pytest.mark.parametrize(
        "impure",
        [lambda X: -X + 1e-3 * (len(X) - 1), lambda X: -X + 1e-3 * (X.mean(axis=0) - X)],
        ids=["row_count", "row_mean"],
    )
    def test_impure_point_rows_raises(self, impure):
        H1 = pointed_map(lambda x, y, s: -x, (2, 1, 2), 2, rows=lambda X, Y, S: impure(X))
        (_, H2, *rest), kw = equivalence_setup(rows=True)
        with pytest.raises(ImpureFieldError):
            run(H1, H2, *rest, N=2000, seed=0, noise=UNIFORM)

    def test_point_rows_dim_checked(self):
        H1 = pointed_map(
            lambda x, y, s: -x, (2, 1, 2), 2, rows=lambda X, Y, S: np.zeros((len(X), 3))
        )
        (_, H2, *rest), kw = equivalence_setup(rows=True)
        with pytest.raises(ValueError, match=r"oracle returned dim 3, declared 2"):
            run(H1, H2, *rest, N=2000, seed=0)


def switching_kernel(k, w, t, A, B):
    """A kernel on k states whose row for state s is ``A[s]`` where
    w0 x_0 + w1 y_0 + w2 s >= t and ``B[s]`` elsewhere, with its row form."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)

    def row(x, y, s):
        return (A if w[0] * x[0] + w[1] * y[0] + w[2] * s >= t else B)[s]

    def rows(X, Y, S):
        up = w[0] * X[:, 0] + w[1] * Y[:, 0] + w[2] * S >= t
        return np.where(up[:, None], A[S], B[S])

    return FiniteKernel(k, row, rows)


def stochastic(draw, k):
    M = np.array(draw(st.lists(
        st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k), min_size=k, max_size=k
    )))
    return M / M.sum(axis=1, keepdims=True)


@st.composite
def iterate_chain_runs(draw):
    k = draw(st.integers(1, 3))
    kernels = [
        switching_kernel(
            k, draw(st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.3)])),
            draw(st.floats(-0.5, 0.5)), stochastic(draw, k), stochastic(draw, k),
        )
        for _ in range(2)
    ]
    shared = draw(st.booleans())
    kind = draw(st.sampled_from(["uniform", "gaussian"]))
    N = draw(st.sampled_from([SWEEP_STEPS + d for d in (-1, 1)]
                             + [3 * SWEEP_STEPS + d for d in (-1, 1)]))
    return k, kernels, shared, NoiseModel(kind, 0.3, 0.2), N, draw(st.integers(0, 2**32))


class TestIterateChainSweeps:
    """Runs with iterate-dependent chains whose kernels have row forms take
    the block sweeps; they must still be the reference's."""

    def setup_for(self, k, K1, K2):
        H1 = pointed_map(
            lambda x, y, s: -x + (0.5 * s) * y[0], (2, 1, 2), k,
            rows=lambda X, Y, S: -X + ((0.5 * S) * Y[:, 0])[:, None],
        )
        H2 = pointed_map(
            lambda x, y, s: x[:1] - y - 0.25 * s, (2, 1, 1), k,
            rows=lambda X, Y, S: X[:, :1] - Y - (0.25 * S)[:, None],
        )
        return (H1, H2, K1, K2, DAMPED, [1.0, -0.5], [0.5], k - 1, 0)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(iterate_chain_runs())
    def test_bytes_equal(self, case):
        k, (K1, K2), shared, noise, N, seed = case
        args = self.setup_for(k, K1, K2)
        expect = reference_run(*args, N=N, seed=seed, noise=noise, share_noise_chain=shared)
        sweeps = []
        rows = K1.rows
        K1.rows = lambda X, Y, S: sweeps.append(len(X)) or rows(X, Y, S)
        traj = run(*args, N=N, seed=seed, noise=noise, share_noise_chain=shared)
        assert max(sweeps) > 100
        for name, want in zip(FIELDS, expect):
            assert getattr(traj, name).tobytes() == want.tobytes(), name

    def bad_row_kernel(self, at):
        """The threshold kernel, whose row is [nan, -3] where x_0 < at."""
        good = threshold_kernel()

        def row(x, y, s):
            return np.array([np.nan, -3.0]) if x[0] < at else good.row(x, y, s)

        def rows(X, Y, S):
            R = np.where((X[:, 0] + 0.1 * S >= 0)[:, None], [0.8, 0.2], [0.3, 0.7])
            R[X[:, 0] < at] = [np.nan, -3.0]
            return R

        return FiniteKernel(2, row, rows)

    def test_bad_path_row_raises_at_the_loops_step(self, monkeypatch):
        # From x = 1 the fast drift turns away below 0.25 and leaves the
        # finite range; on the way the chain's row is refused where x_0 <
        # 0.05, which the loop meets first.
        def drift(K):
            args = self.setup_for(2, K, CONST2)
            fall = lambda x, y, s: -x if x[0] > 0.25 else 1.2 * x - 2.0
            H1 = pointed_map(
                fall, (2, 1, 2), 2,
                rows=lambda X, Y, S: np.where(X[:, :1] > 0.25, -X, 1.2 * X - 2.0),
            )
            return (H1,) + args[1:]

        good = threshold_kernel()
        good.rows = self.bad_row_kernel(-np.inf).rows
        with pytest.raises(DivergenceError) as diverged:
            run(*drift(good), N=3000, seed=5, noise=UNIFORM)
        traj = run(*drift(good), N=diverged.value.step, seed=5, noise=UNIFORM)
        step = int(np.argmax(traj.X[:, 0] < 0.05))
        assert 0 < step < diverged.value.step
        seen = []
        monkeypatch.setattr(
            recursion, "next_state",
            lambda K, x, y, s, u: seen.append(x.copy()) or next_state(K, x, y, s, u),
        )
        for strip in (False, True):
            args = drift(self.bad_row_kernel(0.05))
            if strip:
                args[0].point_rows = None
            with pytest.raises(ValueError) as got:
                run(*args, N=3000, seed=5, noise=UNIFORM)
            assert str(got.value) == (
                "kernel row for state 1 is not a probability row: [nan, -3.0]"
            )
            assert seen[-1].tobytes() == traj.X[step].tobytes()

    def test_bad_row_at_a_guessed_iterate_does_not_raise(self):
        # Guessed iterates of the first blocks overshoot below -0.6; the path
        # from x = 1 stays above it.
        K = self.bad_row_kernel(-0.6)
        args = self.setup_for(2, K, K)
        expect = reference_run(*args, N=2000, seed=3, noise=UNIFORM)
        visited = []
        rows = K.rows
        K.rows = lambda X, Y, S: visited.append(X[:, 0].min()) or rows(X, Y, S)
        traj = run(*args, N=2000, seed=3, noise=UNIFORM)
        assert min(visited) < -0.6 < traj.X[:, 0].min()
        for name, want in zip(FIELDS, expect):
            assert getattr(traj, name).tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("noise", [UNIFORM, GAUSSIAN], ids=["uniform", "gaussian"])
    def test_divergence_mid_block_at_same_step(self, noise):
        H1, H2, *_, x0, y0, s1, s2 = grow_setup([1.0, -1.0])
        args = (H1, H2, threshold_kernel(), self.bad_row_kernel(-np.inf), DAMPED,
                x0, y0, s1, s2)
        args[2].rows = self.bad_row_kernel(-np.inf).rows
        with pytest.raises(DivergenceError) as want:
            reference_run(*args, N=5000, seed=8, noise=noise)
        with pytest.raises(DivergenceError) as got:
            run(*args, N=5000, seed=8, noise=noise)
        assert got.value.step == want.value.step
        assert str(got.value) == str(want.value)
