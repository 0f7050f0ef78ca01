"""Coupled two-timescale recursion driver and its trajectory diagnostics.

Both iterates move by a selected admissible velocity plus bounded additive
noise, on step schedules whose ratio vanishes; the noise states advance by
kernels conditioned on the pre-update iterates.  Diagnostics reconstruct
everything from logs: the update identity, interpolated sample paths,
noise-free re-integrations, and occupation measures over windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import zeta

from .convex import distance
from .csvtable import write_table
from .dynamics import _interp, select_velocity
from .markov import FiniteKernel, SlowMeasure, sample_next
from .svmaps import SetValuedMap

__all__ = [
    "StepSchedule",
    "ScheduleReport",
    "NoiseModel",
    "Trajectory",
    "DivergenceError",
    "validate_schedule",
    "run",
    "interpolate",
    "interpolation_gap",
    "occupation",
]


class DivergenceError(RuntimeError):
    """Iterates left the finite range; the stability assumption failed."""

    def __init__(self, step: int, message: str):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class StepSchedule:
    """Polynomial step sizes a(n) = a0 (n+1)^-alpha, b(n) = b0 (n+1)^-beta."""

    alpha: float
    beta: float
    a0: float = 1.0
    b0: float = 1.0

    def __post_init__(self):
        if not 0.5 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0.5, 1], got {self.alpha}")
        if self.beta <= self.alpha:
            raise ValueError(
                f"beta must exceed alpha, got beta={self.beta}, alpha={self.alpha}"
            )
        if not 0 < self.a0 <= 1.0 or not 0 < self.b0 <= 1.0:
            raise ValueError("scale factors must lie in (0, 1]")

    def a(self, n) -> np.ndarray:
        return self.a0 * (np.asarray(n, dtype=float) + 1.0) ** (-self.alpha)

    def b(self, n) -> np.ndarray:
        return self.b0 * (np.asarray(n, dtype=float) + 1.0) ** (-self.beta)


@dataclass
class ScheduleReport:
    monotone_ok: bool
    initial_ok: bool
    ratio_ok: bool
    square_sum_ok: bool
    messages: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.monotone_ok and self.initial_ok and self.ratio_ok
            and self.square_sum_ok
        )


def validate_schedule(s: StepSchedule, horizon: int) -> ScheduleReport:
    """Numeric checks of the step-size conditions over a finite horizon."""
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    n = np.arange(horizon)
    a, b = s.a(n), s.b(n)
    report = ScheduleReport(
        monotone_ok=bool(np.all(np.diff(a) <= 0) and np.all(np.diff(b) <= 0)),
        initial_ok=bool(a[0] <= 1.0 and b[0] <= 1.0),
        ratio_ok=True,
        square_sum_ok=True,
    )
    ratio = b / a
    if not (np.all(np.diff(ratio) <= 1e-15) and ratio[-1] < ratio[0]):
        report.ratio_ok = False
        report.messages.append("b(n)/a(n) is not decreasing toward 0")
    sq = np.cumsum(a**2 + b**2)
    bound = s.a0**2 * zeta(2 * s.alpha) + s.b0**2 * zeta(2 * s.beta)
    if sq[-1] > bound + 1e-12:
        report.square_sum_ok = False
        report.messages.append(
            f"partial square sum {sq[-1]} exceeds zeta bound {bound}"
        )
    return report


@dataclass(frozen=True)
class NoiseModel:
    """Bounded zero-mean iid additive noise per timescale.

    ``uniform`` draws componentwise on [-scale, scale]; ``gaussian`` draws
    N(0, scale^2) clipped at 6 sigma to stay bounded.  Scale 0 disables a
    stream.
    """

    kind: str = "uniform"
    fast_scale: float = 0.0
    slow_scale: float = 0.0

    def __post_init__(self):
        if self.kind not in ("uniform", "gaussian"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.fast_scale < 0 or self.slow_scale < 0:
            raise ValueError("noise scales must be nonnegative")

    def draw(self, rng: np.random.Generator, scale: float, dim: int) -> np.ndarray:
        if scale == 0.0 or dim == 0:
            return np.zeros(dim)
        if self.kind == "uniform":
            return rng.uniform(-scale, scale, dim)
        return np.clip(rng.normal(0.0, scale, dim), -6 * scale, 6 * scale)


@dataclass
class Trajectory:
    """Logged sample path of the coupled recursion."""

    X: np.ndarray        # (N+1, d1)
    Y: np.ndarray        # (N+1, d2)
    S1: np.ndarray       # (N+1,)
    S2: np.ndarray       # (N+1,)
    M1: np.ndarray       # (N, d1) noise applied at step n
    M2: np.ndarray       # (N, d2)
    V1: np.ndarray       # (N, d1) selected velocities
    V2: np.ndarray       # (N, d2)
    schedule: StepSchedule
    seed: int

    @property
    def n_steps(self) -> int:
        return len(self.M1)

    # The clocks are computed on first use and kept: a Trajectory is not
    # mutated after construction.
    @cached_property
    def t_fast(self) -> np.ndarray:
        n = np.arange(self.n_steps + 1)
        return np.concatenate([[0.0], np.cumsum(self.schedule.a(n[:-1]))])

    @cached_property
    def t_slow(self) -> np.ndarray:
        n = np.arange(self.n_steps + 1)
        return np.concatenate([[0.0], np.cumsum(self.schedule.b(n[:-1]))])

    def update_residual(
        self, H1: SetValuedMap, H2: SetValuedMap, stride: int = 1
    ) -> float:
        """Membership residual of the logged increments in the drift sets.

        Re-verifies, from logs alone, that each recorded increment minus its
        noise lies in step-size times the drift value.
        """
        n = np.arange(self.n_steps)
        a = self.schedule.a(n)
        b = self.schedule.b(n)
        worst = 0.0
        for i in range(0, self.n_steps, stride):
            vx = (self.X[i + 1] - self.X[i]) / a[i] - self.M1[i]
            vy = (self.Y[i + 1] - self.Y[i]) / b[i] - self.M2[i]
            worst = max(
                worst,
                distance(H1(self.X[i], self.Y[i], int(self.S1[i])), vx),
                distance(H2(self.X[i], self.Y[i], int(self.S2[i])), vy),
            )
        return worst

    def to_csv(self, path) -> None:
        d1, d2 = self.X.shape[1], self.Y.shape[1]
        write_table(
            path,
            "n, t_fast, t_slow, X[0..d1), Y[0..d2), S1, S2, M1[0..d1), M2[0..d2); "
            "M rows hold the noise applied at step n (last row zero)",
            ["n", "t_fast", "t_slow"]
            + [f"X{i}" for i in range(d1)]
            + [f"Y{i}" for i in range(d2)]
            + ["S1", "S2"]
            + [f"M1_{i}" for i in range(d1)]
            + [f"M2_{i}" for i in range(d2)],
            [
                np.arange(self.n_steps + 1), self.t_fast, self.t_slow, self.X, self.Y,
                np.asarray(self.S1, dtype=int), np.asarray(self.S2, dtype=int),
                np.vstack([self.M1, np.zeros((1, d1))]),
                np.vstack([self.M2, np.zeros((1, d2))]),
            ],
        )


def run(
    H1: SetValuedMap,
    H2: SetValuedMap,
    K1: FiniteKernel,
    K2: FiniteKernel,
    schedule: StepSchedule,
    x0,
    y0,
    s1_0: int,
    s2_0: int,
    N: int,
    seed: int,
    noise: NoiseModel = NoiseModel(),
    selection_fast: str = "least_norm",
    selection_slow: str = "least_norm",
    share_noise_chain: bool = False,
    divergence_bound: float = 1e12,
) -> Trajectory:
    """Drive the coupled recursion for N steps, deterministic given seed.

    Noise states for step n+1 are sampled from the kernels at the step-n
    iterates, before the update.  ``share_noise_chain`` makes both
    timescales read one chain driven by K1 (the single-chain applications
    set it).  Divergence beyond ``divergence_bound`` aborts with the step
    index; no stabilization device is applied.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    d1, d2 = H1.dims[0], H2.dims[1]
    if x0.shape != (d1,) or y0.shape != (d2,):
        raise ValueError("initial iterates do not match drift dimensions")
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
        v1 = select_velocity(H1(x, y, s1), selection_fast, x, a[n], rng=rng)
        v2 = select_velocity(H2(x, y, s2), selection_slow, y, b[n], rng=rng)
        m1 = noise.draw(rng, noise.fast_scale, d1)
        m2 = noise.draw(rng, noise.slow_scale, d2)
        V1[n], V2[n], M1[n], M2[n] = v1, v2, m1, m2
        X[n + 1] = x + a[n] * (v1 + m1)
        Y[n + 1] = y + b[n] * (v2 + m2)
        # NaN compares false, so one max-comparison also catches non-finite.
        mx = np.abs(X[n + 1]).max(initial=0.0)
        my = np.abs(Y[n + 1]).max(initial=0.0)
        if not (mx < divergence_bound and my < divergence_bound):
            raise DivergenceError(
                n, f"iterates diverged at step {n}: |X|, |Y| left the finite range"
            )
        S1[n + 1] = sample_next(K1, x, y, s1, rng)
        S2[n + 1] = S1[n + 1] if share_noise_chain else sample_next(K2, x, y, s2, rng)
    return Trajectory(
        X=X, Y=Y, S1=S1, S2=S2, M1=M1, M2=M2, V1=V1, V2=V2,
        schedule=schedule, seed=seed,
    )


def interpolate(traj: Trajectory, scale: str, t) -> np.ndarray:
    """Piecewise-linear sample path value at elapsed clock time ``t``.

    ``fast`` interpolates X on the fast clock and ``slow`` interpolates Y
    on the slow clock.

    ``t`` is a scalar, giving one value of shape ``(d,)``, or an array of
    times, giving one row per time (shape ``t.shape + (d,)``); each row
    equals the scalar call at that time.  Times up to 1e-12 outside the
    clock are clamped to its ends; any time further out raises
    ``ValueError``.
    """
    if scale == "fast":
        return _interp(traj.t_fast, traj.X, t)
    if scale == "slow":
        return _interp(traj.t_slow, traj.Y, t)
    raise ValueError(f"unknown scale {scale!r}")


def _window_sups(traj: Trajectory, T: float, n_windows: int, starts, deviation):
    """Supremum of the row norms of ``deviation(n0, end)`` per slow window.

    A window from slow time t holds the knots n0..end-1 whose time lies in
    [t, t + T], at least two while the clock lasts.  By default up to
    ``n_windows`` windows start at knots spaced evenly in step index over
    the knots a whole window can follow; given slow-clock ``starts``, each
    window starts at the first knot at or after its time (the last knot for
    times past the end).
    """
    ts = traj.t_slow
    if T > ts[-1]:
        raise ValueError(f"window T={T} exceeds the slow clock span {ts[-1]}")
    if starts is None:
        last_start = int(np.searchsorted(ts, ts[-1] - T, side="right")) - 1
        n0s = np.unique(
            np.linspace(0, last_start, min(n_windows, last_start + 1)).astype(int)
        )
        t0s = ts[n0s]
    else:
        t0s = np.asarray(starts, dtype=float)
        n0s = np.minimum(np.searchsorted(ts, t0s), len(ts) - 1)
    sups = np.empty(len(n0s))
    for w, (n0, t_end) in enumerate(zip(n0s, t0s + T)):
        end = int(np.searchsorted(ts, t_end, side="right"))
        end = min(max(end, n0 + 2), len(ts))
        sups[w] = np.linalg.norm(deviation(n0, end), axis=1).max()
    return sups


def interpolation_gap(
    traj: Trajectory, T: float, n_windows: int = 64, starts=None
) -> np.ndarray:
    """Window suprema of ||slow path - noise-free re-integration||.

    From each window start the slow iterate is re-integrated using only the
    logged selected velocities (the realized values of every level's
    parametrized drift, so no level needs choosing); the supremum of the gap
    to the logged path over a window of clock length ``T`` is returned per
    window, for trend testing against the noise partial-sum bound.  A window from slow time t holds the knots whose time
    lies in [t, t + T] (at least two) and is re-integrated from the first of
    them.  Up to ``n_windows`` windows start at knots spaced evenly in step
    index, or, when ``starts`` is given, one window starts at each of these
    slow-clock times.
    """
    b = traj.schedule.b(np.arange(traj.n_steps))[:, None]
    drift_prefix = np.vstack(
        [np.zeros((1, traj.Y.shape[1])), np.cumsum(b * traj.V2, axis=0)]
    )

    def deviation(n0, end):
        tilde = traj.Y[n0] + (drift_prefix[n0:end] - drift_prefix[n0])
        return traj.Y[n0:end] - tilde

    return _window_sups(traj, T, n_windows, starts, deviation)


def noise_partial_sup(traj: Trajectory, T: float, n_windows: int = 64) -> np.ndarray:
    """Window suprema of the slow-timescale noise partial sums (the
    independent bound the interpolation gap is tested against)."""
    b = traj.schedule.b(np.arange(traj.n_steps))[:, None]
    noise_prefix = np.vstack(
        [np.zeros((1, traj.Y.shape[1])), np.cumsum(b * traj.M2, axis=0)]
    )
    return _window_sups(
        traj, T, n_windows, None,
        lambda n0, end: noise_prefix[n0:end] - noise_prefix[n0],
    )


def occupation(traj: Trajectory, window: slice) -> SlowMeasure:
    """Uniform occupation measure of (fast iterate, slow noise state) pairs
    over an index window."""
    xs = traj.X[window]
    states = traj.S2[window]
    if len(xs) == 0:
        raise ValueError("empty window")
    w = np.full(len(xs), 1.0 / len(xs))
    return SlowMeasure(xs=xs, states=states, weights=w)
