"""Coupled two-timescale recursion driver and its trajectory diagnostics.

Both iterates move by a selected admissible velocity plus bounded additive
noise, on step schedules whose ratio vanishes; the noise states advance by
kernels conditioned on the pre-update iterates.  Diagnostics reconstruct
everything from logs: the update identity, interpolated sample paths,
noise-free re-integrations, and occupation measures over windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .convex import distance
from .csvtable import write_table
from .dynamics import _interp, _sweep_block, select_velocity
from .markov import FiniteKernel, SlowMeasure, constant_walk, next_state
from .svmaps import SetValuedMap

__all__ = [
    "StepSchedule",
    "NoiseModel",
    "Trajectory",
    "DivergenceError",
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
    """Polynomial step sizes a(n) = a0 (n+1)^-alpha, b(n) = b0 (n+1)^-beta.

    The constructor is the schedule check.  It accepts alpha in (0.5, 1],
    beta > alpha and a0, b0 in (0, 1], which guarantees the two-timescale
    step conditions of the exact sequences for every n, so no numeric check
    over a finite horizon can add to it: both steps are positive, at most 1
    and strictly decreasing; sum a(n) diverges (alpha <= 1); sum a(n)^2 +
    b(n)^2 converges (2 beta > 2 alpha > 1); and b(n)/a(n) = (b0/a0)
    (n+1)^(alpha - beta) decreases strictly to 0.  Nothing bounds beta by 1,
    so sum b(n) may converge; the slow clock then has a finite span, which
    the diagnostics windows are checked against.
    """

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

    def clock(self, scale: str, steps: int) -> np.ndarray:
        """Elapsed ``fast`` or ``slow`` time at steps 0..steps: 0.0, then the
        partial sums of a(n) or b(n)."""
        step = self.a if scale == "fast" else self.b
        return np.concatenate([[0.0], np.cumsum(step(np.arange(steps)))])


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
        if not (0 <= self.fast_scale < np.inf and 0 <= self.slow_scale < np.inf):
            raise ValueError("noise scales must be finite and nonnegative")

    def draw_block(
        self, rng: np.random.Generator, steps: int, d1: int, d2: int, n_uniform: int
    ):
        """The randomness of ``steps`` recursion steps, in per-step order.

        Each step draws its d1 fast-noise doubles, then its d2 slow-noise
        doubles (a stream of scale 0 draws nothing), then ``n_uniform``
        chain uniforms.  Returns the fast and slow noise blocks (``None`` for
        a disabled stream) and the ``(steps, n_uniform)`` uniforms.  Uniform
        noise comes from one ``rng.random`` call, mapped to -scale +
        (2 scale) u, which is ``rng.uniform(-scale, scale)`` bit for bit;
        gaussian noise draws step by step, as its sampler consumes a
        variable number of raw draws.
        """
        w1 = d1 if self.fast_scale != 0.0 else 0
        w2 = d2 if self.slow_scale != 0.0 else 0
        if self.kind == "uniform":
            U = rng.random((steps, w1 + w2 + n_uniform))
            m1 = -self.fast_scale + (2 * self.fast_scale) * U[:, :w1] if w1 else None
            m2 = (
                -self.slow_scale + (2 * self.slow_scale) * U[:, w1:w1 + w2]
                if w2 else None
            )
            return m1, m2, U[:, w1 + w2:]
        m1 = np.empty((steps, w1)) if w1 else None
        m2 = np.empty((steps, w2)) if w2 else None
        U = np.empty((steps, n_uniform))
        for i in range(steps):
            for m, scale in ((m1, self.fast_scale), (m2, self.slow_scale)):
                if m is not None:
                    m[i] = np.clip(rng.normal(0.0, scale, m.shape[1]), -6 * scale, 6 * scale)
            U[i] = rng.random(n_uniform)
        return m1, m2, U


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
        return self.schedule.clock("fast", self.n_steps)

    @cached_property
    def t_slow(self) -> np.ndarray:
        return self.schedule.clock("slow", self.n_steps)

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


# Steps whose randomness is drawn together; a bound on the block buffers.
BLOCK_STEPS = 1024
# Steps solved together by one sweep of ``run``'s block path.
SWEEP_STEPS = 512

# A coordinate of either iterate whose magnitude reaches this bound (or that
# is not finite) stops ``run`` with a ``DivergenceError``.
DIVERGENCE_BOUND = 1e12


def _divergence(n: int) -> DivergenceError:
    return DivergenceError(
        n, f"iterates diverged at step {n}: |X|, |Y| left the finite range"
    )


def _velocity(H: SetValuedMap, x, y, s: int) -> np.ndarray:
    """The drift's velocity at one probe: its point form where that gives a
    point (whose length is checked), else the least-norm element of its set."""
    point = H.point
    v = None if point is None else point(x, y, s)
    if v is None:
        return select_velocity(H(x, y, s))
    if v.shape != (H.dims[2],):
        raise H.dim_error(v.shape[0] if v.ndim == 1 else v.shape)
    return v


def _step_rows(H1: SetValuedMap, H2: SetValuedMap, s1, s2, n0: int):
    """``rows(Z, p)`` for ``dynamics._sweep_block``: the velocities of both
    drifts at the knots p, p + 1, ... of a block that starts at step n0,
    whose rows of Z are ``[x | y]`` and whose chain states are s1[p:] and
    s2[p:].

    A state at or past ``DIVERGENCE_BOUND`` (the run's start excepted) raises
    the ``DivergenceError`` of the step that made it, before any drift is
    evaluated; so does a NaN state.  Several knots go through the row forms,
    whose NaN rows are evaluated one at a time by ``_velocity``; one knot
    (a block's first guess and its one-knot tail) goes through ``_velocity``
    alone, which the row forms equal bit for bit and which costs less on
    one row.
    """
    d1 = H1.dims[0]

    def rows(Z, p):
        n = len(Z)
        # NaN compares false, so this also catches non-finite states.
        if not np.abs(Z).max() < DIVERGENCE_BOUND:
            far = ~(np.abs(Z) < DIVERGENCE_BOUND).all(axis=1)
            far[0] &= n0 + p > 0
            if far.any():
                raise _divergence(n0 + p + int(np.argmax(far)) - 1)
        X, Y = Z[:, :d1], Z[:, d1:]
        if n == 1:
            x, y = X[0], Y[0]
            return np.concatenate([
                _velocity(H1, x, y, int(s1[p])), _velocity(H2, x, y, int(s2[p]))
            ])[None]
        parts = []
        for H, S in ((H1, s1[p:p + n]), (H2, s2[p:p + n])):
            R = _checked_rows(H, H.point_rows(X, Y, S), n)
            if np.isnan(R.sum()):
                R = np.array(R, dtype=float)
                for i in np.flatnonzero(np.isnan(R).any(axis=1)).tolist():
                    R[i] = _velocity(H, X[i], Y[i], int(S[i]))
            parts.append(R)
        return np.concatenate(parts, axis=1)

    return rows


def _checked_rows(H: SetValuedMap, R: np.ndarray, n: int) -> np.ndarray:
    """R, unless it is not n rows of the drift's declared length."""
    if R.shape != (n, H.dims[2]):
        raise H.dim_error(R.shape[1] if R.ndim == 2 else R.shape)
    return R


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
    share_noise_chain: bool = False,
) -> Trajectory:
    """Drive the coupled recursion for N steps, deterministic given seed.

    Noise states for step n+1 are sampled from the kernels at the step-n
    iterates, before the update.  ``share_noise_chain`` makes both
    timescales read one chain driven by K1 (the single-chain applications
    set it).  Divergence beyond ``DIVERGENCE_BOUND`` aborts with the step
    index; no stabilization device is applied.

    Each drift's point form, where it has one, gives the velocity; only
    where it returns ``None`` is the set evaluated and its least-norm
    element taken (``select_velocity``), which draws nothing.  The RNG
    stream is read only through ``NoiseModel.draw_block``, for blocks of up
    to ``BLOCK_STEPS`` steps, in a fixed per-step order: the fast noise, the
    slow noise, the chain-1 uniform, then the chain-2 uniform (none for a
    shared chain).  A constant kernel's states for a block come from
    ``constant_walk``; an iterate-dependent kernel evaluates its row at the
    step-n iterates.

    The steps are taken one of two ways, with the same result bit for bit.
    Where both drifts have ``point_rows`` and every chain is a constant walk
    (a shared chain needs only K1 constant), a block's chain states are
    known before its iterates, so each ``SWEEP_STEPS`` steps are solved as
    one block of ``dynamics._sweep_block``'s waveform relaxation: the sweeps
    evaluate both row forms at guessed iterates and rebuild X and Y by
    cumulative sums, each step ``x + a(n) (v1 + M1[n])`` and ``y + b(n) (v2 +
    M2[n])`` as the loop adds it.  Every other run takes one step at a time:
    an iterate-dependent kernel would read its rows again on every sweep.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    d1, d2 = H1.dims[0], H2.dims[1]
    if x0.shape != (d1,) or y0.shape != (d2,):
        raise ValueError("initial iterates do not match drift dimensions")
    if H1.dims[2] != d1 or H2.dims[2] != d2:
        raise ValueError(
            f"drift values of dimensions {H1.dims[2]}, {H2.dims[2]} do not match "
            f"the iterates' dimensions {d1}, {d2}"
        )
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
    traj = Trajectory(
        X=X, Y=Y, S1=S1, S2=S2, M1=M1, M2=M2, V1=V1, V2=V2,
        schedule=schedule, seed=seed,
    )
    n_arr = np.arange(max(N, 1))
    a = schedule.a(n_arr)
    b = schedule.b(n_arr)
    s1, s2 = int(s1_0), int(s2_0)
    if N > 0:
        H1.check_probe(x0, y0, s1)
        H2.check_probe(x0, y0, s2)
        K1.check_state(s1)
        if not share_noise_chain:
            K2.check_state(s2)
    walk1 = K1.matrix is not None
    walk2 = K2.matrix is not None and not share_noise_chain
    swept = (
        H1.point_rows is not None and H2.point_rows is not None
        and walk1 and (walk2 or share_noise_chain)
    )
    if swept and N > 0:
        # The sweeps ignore errors at guessed iterates; a row form of the
        # wrong shape is named here instead.
        for H, s in ((H1, s1), (H2, s2)):
            _checked_rows(H, H.point_rows(x0[None], y0[None], np.array([s])), 1)
    if not swept:  # the loop reads one step size at a time, faster from a list
        a, b = a.tolist(), b.tolist()
    bound = DIVERGENCE_BOUND
    for start in range(0, N, BLOCK_STEPS):
        end = min(start + BLOCK_STEPS, N)
        m1, m2, U = noise.draw_block(
            rng, end - start, d1, d2, 1 if share_noise_chain else 2
        )
        if m1 is not None:
            M1[start:end] = m1
        if m2 is not None:
            M2[start:end] = m2
        u1 = U[:, 0]
        next1 = constant_walk(K1, s1, u1) if walk1 else u1.tolist()
        if not share_noise_chain:
            u2 = U[:, 1]
            next2 = constant_walk(K2, s2, u2) if walk2 else u2.tolist()
        if swept:
            S1[start + 1:end + 1] = next1
            S2[start + 1:end + 1] = next1 if share_noise_chain else next2
            s1, s2 = int(S1[end]), int(S2[end])
            for lo in range(start, end, SWEEP_STEPS):
                _sweep_steps(H1, H2, traj, a, b, lo, min(lo + SWEEP_STEPS, end))
            continue
        for n in range(start, end):
            x, y = X[n], Y[n]
            V1[n] = v1 = _velocity(H1, x, y, s1)
            V2[n] = v2 = _velocity(H2, x, y, s2)
            X[n + 1] = xn = x + a[n] * (v1 + M1[n])
            Y[n + 1] = yn = y + b[n] * (v2 + M2[n])
            # NaN compares false, so one comparison per coordinate also
            # catches non-finite values.
            for v in xn.tolist() + yn.tolist():
                if not -bound < v < bound:
                    raise _divergence(n)
            i = n - start
            s1 = next1[i] if walk1 else next_state(K1, x, y, s1, next1[i])
            if share_noise_chain:
                s2 = s1
            else:
                s2 = next2[i] if walk2 else next_state(K2, x, y, s2, next2[i])
            S1[n + 1] = s1
            S2[n + 1] = s2
    # The sweeps check every state they evaluate, which the last is not.
    if swept and N > 0:
        if not np.abs(np.concatenate([X[N], Y[N]])).max() < DIVERGENCE_BOUND:
            raise _divergence(N - 1)
    return traj


def _sweep_steps(
    H1: SetValuedMap, H2: SetValuedMap, t: Trajectory, a, b, lo: int, hi: int
) -> None:
    """Steps lo..hi-1 of ``run``'s block path, as one sweep block over
    block-local buffers of ``[x | y]`` rows, copied into the arrays of the
    trajectory t being filled, whose chain states and noise the block reads."""
    d1 = t.X.shape[1]
    Z = np.empty((hi - lo + 1, d1 + t.Y.shape[1]))
    Z[0, :d1], Z[0, d1:] = t.X[lo], t.Y[lo]
    V = np.empty((hi - lo, Z.shape[1]))
    step = np.empty_like(V)
    step[:, :d1] = a[lo:hi, None]
    step[:, d1:] = b[lo:hi, None]
    _sweep_block(
        _step_rows(H1, H2, t.S1[lo:hi], t.S2[lo:hi], lo), Z, V, step,
        np.hstack([t.M1[lo:hi], t.M2[lo:hi]]),
    )
    t.X[lo + 1:hi + 1], t.Y[lo + 1:hi + 1] = Z[1:, :d1], Z[1:, d1:]
    t.V1[lo:hi], t.V2[lo:hi] = V[:, :d1], V[:, d1:]


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


def window_starts(traj: Trajectory, room: float, n_windows: int) -> np.ndarray:
    """Up to ``n_windows`` slow-clock times spaced evenly from 0 to the span
    less ``room`` (or 0 alone where ``room`` is not shorter than the span),
    so that a window of length ``room`` from each start fits in the run."""
    return np.unique(np.linspace(0.0, max(traj.t_slow[-1] - room, 0.0), n_windows))


def start_knots(traj: Trajectory, starts) -> np.ndarray:
    """The first knot at or after each slow time (the last knot past the end)."""
    return np.minimum(np.searchsorted(traj.t_slow, starts), traj.n_steps)


def _window_sups(traj: Trajectory, T: float, starts, deviation):
    """Supremum of the row norms of ``deviation(n0, end)`` per slow window.

    One window starts at each slow-clock time of ``starts``, at the knot
    ``start_knots`` gives, and holds the knots n0..end-1 whose time lies in
    [t, t + T], at least two while the clock lasts.
    """
    ts = traj.t_slow
    if T > ts[-1]:
        raise ValueError(f"window T={T} exceeds the slow clock span {ts[-1]}")
    t0s = np.asarray(starts, dtype=float)
    n0s = start_knots(traj, t0s)
    sups = np.empty(len(n0s))
    for w, (n0, t_end) in enumerate(zip(n0s, t0s + T)):
        end = int(np.searchsorted(ts, t_end, side="right"))
        end = min(max(end, n0 + 2), len(ts))
        sups[w] = np.linalg.norm(deviation(n0, end), axis=1).max()
    return sups


def interpolation_gap(traj: Trajectory, T: float, starts) -> np.ndarray:
    """Window suprema of ||slow path - noise-free re-integration||.

    From each window start the slow iterate is re-integrated using only the
    logged selected velocities (the realized values of every level's
    parametrized drift, so no level needs choosing); the supremum of the gap
    to the logged path over a window of clock length ``T`` is returned per
    window, for trend testing against the noise partial-sum bound.  One
    window starts at each slow-clock time of ``starts`` (``window_starts``
    spaces them evenly); it holds the knots whose time lies in [t, t + T]
    (at least two) and is re-integrated from the first of them.
    """
    b = traj.schedule.b(np.arange(traj.n_steps))[:, None]
    drift_prefix = np.vstack(
        [np.zeros((1, traj.Y.shape[1])), np.cumsum(b * traj.V2, axis=0)]
    )

    def deviation(n0, end):
        tilde = traj.Y[n0] + (drift_prefix[n0:end] - drift_prefix[n0])
        return traj.Y[n0:end] - tilde

    return _window_sups(traj, T, starts, deviation)


def noise_partial_sup(traj: Trajectory, T: float, starts) -> np.ndarray:
    """Window suprema of the slow-timescale noise partial sums (the
    independent bound the interpolation gap is tested against), on the
    windows ``interpolation_gap`` takes for the same ``T`` and ``starts``."""
    b = traj.schedule.b(np.arange(traj.n_steps))[:, None]
    noise_prefix = np.vstack(
        [np.zeros((1, traj.Y.shape[1])), np.cumsum(b * traj.M2, axis=0)]
    )
    return _window_sups(
        traj, T, starts, lambda n0, end: noise_prefix[n0:end] - noise_prefix[n0]
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
