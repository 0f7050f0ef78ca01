"""Differential inclusions: explicit-Euler solving and dynamical diagnostics.

Solutions step by one admissible velocity per step, the Filippov-style
least-norm element, which makes sliding modes and equilibria fixed points of
the integrator.  The probes follow other branches of the solution set on
single-valued fields of parametrized or target-steered selections.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .convex import ConvexSet, distance, project
from .csvtable import write_table
from .meanfield import MeanField
from .svmaps import parametrize

__all__ = [
    "DIPath",
    "di_solve",
    "limit_set",
    "attractor_check",
    "chain_search",
    "apt_metric",
    "select_velocity",
    "ImpureFieldError",
]

# Rows per batched call: a block of the sweep in ``di_solve`` holds
# max(1, ROWS // R) knots of R starts, and ``saddle.verify_envelope`` solves
# ROWS knots at a time.  Whole-path temporaries would raise the peak memory
# of a 20,001-knot envelope check by about 0.6 MB.
ROWS = 1024
# A block that has evaluated SWEEP_BUDGET times its rows stops sweeping and
# is finished one knot at a time, so a stiff field costs at most
# SWEEP_BUDGET + 1 times the rows of the sequential loop.
SWEEP_BUDGET = 32


class ImpureFieldError(RuntimeError):
    """A row form (a field's ``evaluate_rows``, a drift's ``point_rows``)
    gave two velocities for one state: a row's value depended on the other
    rows of its call."""


def _interp(clock: np.ndarray, values: np.ndarray, t) -> np.ndarray:
    """Piecewise-linear value of knot ``values`` on ``clock`` at scalar or array
    ``t``; times up to 1e-12 outside the clock are clamped to its ends.

    ``values`` has one entry per knot of any shape; the result has shape
    ``t.shape + values.shape[1:]``.
    """
    t = np.asarray(t, dtype=float)
    outside = (t < clock[0] - 1e-12) | (t > clock[-1] + 1e-12)
    if np.any(outside):
        raise ValueError(
            f"t={t[outside].flat[0]} outside the clock range "
            f"[{clock[0]:g}, {clock[-1]}]"
        )
    if len(clock) == 1:
        return values[np.zeros(t.shape, dtype=int)]
    t = np.minimum(np.maximum(t, clock[0]), clock[-1])
    i = np.minimum(np.searchsorted(clock, t, side="right") - 1, len(clock) - 2)
    w = (t - clock[i]) / (clock[i + 1] - clock[i])
    w = w.reshape(w.shape + (1,) * (values.ndim - 1))
    return (1 - w) * values[i] + w * values[i + 1]


@dataclass
class DIPath:
    """Euler path of a differential inclusion.

    states[i+1] = states[i] + (times[i+1] - times[i]) * selections[i] holds
    exactly; every selection lies in the field at its state within tolerance.
    A batched path, from ``di_solve`` on a block of starts, carries one
    column of states and selections per start: ``states[:, r]`` is the path
    of start r.
    """

    times: np.ndarray       # (N+1,)
    states: np.ndarray      # (N+1, k), or (N+1, R, k) when batched
    selections: np.ndarray  # (N, k), or (N, R, k) when batched

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        self.selections = np.atleast_2d(np.asarray(self.selections, dtype=float))
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if len(self.selections) != len(self.states) - 1:
            raise ValueError("need one selection per step")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def _single(self, what: str) -> None:
        if self.states.ndim == 3:
            raise ValueError(f"{what} needs a single path; slice states[:, r] first")

    def at(self, t) -> np.ndarray:
        """Piecewise-linear state at scalar or array time ``t``."""
        return _interp(self.times, self.states, t)

    def euler_residual(self) -> float:
        dt = np.diff(self.times).reshape((-1,) + (1,) * (self.states.ndim - 1))
        pred = self.states[:-1] + dt * self.selections
        return float(np.abs(pred - self.states[1:]).max())

    def membership_residual(self, field: MeanField) -> float:
        self._single("membership_residual")
        worst = 0.0
        for z, v in zip(self.states[:-1], self.selections):
            worst = max(worst, distance(field(z), v))
        return worst

    def to_csv(self, path) -> None:
        self._single("to_csv")
        k = self.states.shape[1]
        write_table(
            path,
            "t, z[0.." + str(k) + "), v[0.." + str(k) + ")",
            ["t"] + [f"z{i}" for i in range(k)] + [f"v{i}" for i in range(k)],
            [self.times, self.states, np.vstack([self.selections, np.zeros((1, k))])],
        )


def select_velocity(K: ConvexSet) -> np.ndarray:
    """The least-norm element of a set: the velocity every driver steps by.

    A singleton gives its point.  Otherwise the projection of the origin,
    snapped to exact zeros within ``1e-12 (1 + max_norm)``; it is computed
    the first time a set needs it, then kept read-only in the set's
    ``_least_norm`` slot, so a set shared across steps is projected once.
    """
    if K.n_points == 1:
        return K.points[0]
    try:
        return K._least_norm
    except AttributeError:
        pass
    v = project(K, np.zeros(K.dim))
    # Equilibria must be exact fixed points of the integrator.
    if float(np.linalg.norm(v)) <= 1e-12 * (1.0 + K.max_norm()):
        v = np.zeros(K.dim)
    v.flags.writeable = False
    K._least_norm = v
    return v


def di_solve(H: MeanField, z0, T: float, dt: float) -> DIPath:
    """Explicit Euler integration of dz/dt in H(z), stepping by the
    least-norm selection.

    A field without ``evaluate_rows`` is evaluated as a set at every step
    and ``select_velocity`` picks the velocity.  To follow another branch
    of the solution set, pass a single-valued field whose value is the
    chosen element (as ``attractor_check`` and ``chain_search`` do).

    A field with ``evaluate_rows`` is single-valued, so no selection is
    made; such a field also takes a 2-d ``z0`` of shape ``(R, dim)``, R
    starts stepped at once, and the result is one batched ``DIPath`` whose
    column r is the path from ``z0[r]``.  Its knots are taken in blocks of
    m = max(1, ROWS // R), each solved by waveform relaxation: a sweep
    evaluates the velocities of the block's unsettled knots in one call and
    rebuilds the states as a cumulative sum, which keeps
    ``states[i + 1] == states[i] + dt * selections[i]`` exact.  Knot k
    depends only on the knots before it, so every sweep settles at least
    one more knot, and a block ends when a sweep changes no velocity bit for
    bit.  As each row's velocity is a pure function of that row (see
    ``MeanField``), the path is then the knot-by-knot Euler path bit for
    bit, with no tolerance to choose.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if T < dt:
        raise ValueError("horizon must be at least one step")
    z0 = np.asarray(z0, dtype=float)
    if z0.ndim > 2 or z0.shape[-1:] != (H.dim,):
        raise ValueError(f"start has shape {z0.shape}, field has dim {H.dim}")
    n = int(round(T / dt))
    if H.evaluate_rows is not None:
        states, sels = _euler_blocks(H.evaluate_rows, np.atleast_2d(z0), n, dt)
        if z0.ndim == 1:
            states, sels = states[:, 0], sels[:, 0]
    elif z0.ndim == 2:
        raise ValueError("a block of starts needs a field with evaluate_rows")
    else:
        states = np.empty((n + 1,) + z0.shape)
        sels = np.empty((n,) + z0.shape)
        states[0] = z0
        for i in range(n):
            sels[i] = select_velocity(H(states[i]))
            states[i + 1] = states[i] + dt * sels[i]
    max_norm = float(np.linalg.norm(states, axis=-1).max())
    if dt * H.growth_K * (1.0 + max_norm) > 0.1:
        warnings.warn(
            f"Euler step dt={dt} is coarse for growth {H.growth_K} at "
            f"norm {max_norm:.3g}; results may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )
    times = dt * np.arange(n + 1)
    return DIPath(times=times, states=states, selections=sels)


def _euler_blocks(rows, z0: np.ndarray, n: int, dt: float):
    """States ``(n + 1, R, k)`` and velocities ``(n, R, k)`` of the Euler path
    of the row field ``rows`` from the starts ``z0`` of shape ``(R, k)``,
    equal bit for bit to the knot-by-knot loop."""
    R, k = z0.shape
    states = np.empty((n + 1, R, k))
    sels = np.empty((n, R, k))
    states[0] = z0
    m = max(1, ROWS // R)
    for a in range(0, n, m):
        b = min(a + m, n)
        _sweep_block(
            lambda Z, p: rows(Z.reshape(-1, k)), states[a:b + 1], sels[a:b], dt
        )
    return states, sels


def _sweep_block(rows, S: np.ndarray, V: np.ndarray, step, shift=None, finish=True) -> int:
    """Fill the states ``S[1:]`` and velocities ``V`` of one block of m knots
    from its start ``S[0]`` by waveform relaxation; return m where the
    sweeps settle the block, else the knot p at which they stopped.

    Knot i steps by ``S[i + 1] = S[i] + step * (V[i] + shift[i])``.
    ``step`` is one number (``di_solve``'s dt) or one row per knot that
    broadcasts against ``V[i]`` (the recursion's a(n) on its x columns and
    b(n) on its y columns); ``shift`` is an optional additive term of V's
    shape (the recursion's noise), left out where it is ``None``.
    ``rows(Z, p)`` gives the velocities at the states Z of the knots p,
    p + 1, ... in one call, ``len(Z)`` entries of V's entry size; it is told
    p so that it can read what else a knot carries (the recursion's chain
    states).

    The first guess holds the start's velocity over the block.  A sweep then
    evaluates the velocities of knots p.. in one call, finds the first knot
    c whose velocity changed, and rebuilds the states after it as a
    cumulative sum from ``S[c]``; knots before c are final, and the next
    sweep starts at p = c.  Each sum is the knot-by-knot update's, so the
    states are that loop's bit for bit.  Knot p is evaluated again at the
    state it was evaluated at before, so a pure field returns the same
    velocity there and c > p; otherwise ``ImpureFieldError`` is raised.  The
    block settles, no velocity changed bit for bit, after the guess and at
    most m sweeps.  The sweeps stop unsettled at the row budget, or where a
    sweep raises (a guessed state may lie outside the field's domain); the
    returned p is then the knot the last sweep started at, whose state
    ``S[p]`` is final and from which a caller may step on its own.  With
    ``finish`` the block is then finished here one knot at a time, so
    errors come from the path's own states.  Guessed states may also
    overflow where the path does not, so sweeps ignore floating-point
    warnings.
    """
    m = len(V)
    per_knot = np.ndim(step) > 0

    def increments(lo, hi):
        v = V[lo:hi] if shift is None else V[lo:hi] + shift[lo:hi]
        return (step[lo:hi] if per_knot else step) * v

    V[:] = np.reshape(rows(S[:1], 0), V.shape[1:])
    p, used = 0, 1
    with np.errstate(all="ignore"):
        while True:
            np.cumsum(
                np.concatenate([S[p:p + 1], increments(p, m)]), axis=0, out=S[p:]
            )
            if used + (m - p) > SWEEP_BUDGET * m:
                break
            try:
                new = np.ascontiguousarray(rows(S[p:m], p), dtype=float)
                new = new.reshape(V[p:].shape)
            except Exception:
                break
            used += m - p
            # Bits, not values: NaN must equal NaN and -0.0 differ from 0.0.
            bits = new.reshape(m - p, -1).view(np.int64)
            moved = (bits != V[p:].reshape(m - p, -1).view(np.int64)).any(axis=1)
            changed = np.flatnonzero(moved)
            if not len(changed):
                return m
            c = p + int(changed[0])
            if c == p:
                raise ImpureFieldError(
                    f"the row form gave two velocities for the state of knot {p} "
                    "of a block; each row's value must depend on that row alone "
                    "(and, for a drift, equal its point form)"
                )
            V[c:] = new[c - p:]
            p = c
    if finish:
        # V[p] is the velocity at S[p], and S[p + 1] follows from it.
        for j in range(p + 1, m):
            V[j] = np.reshape(rows(S[j:j + 1], j), V.shape[1:])
            S[j + 1] = S[j] + increments(j, j + 1)[0]
    return p


def _selection_field(H: MeanField, select) -> MeanField:
    """The single-valued field whose value at z is the singleton of
    ``select(H(z), z)``, or H(z) itself where that is a singleton."""

    def evaluate(z):
        K = H(z)
        return K if K.n_points == 1 else ConvexSet.singleton(select(K, z))

    return MeanField(evaluate=evaluate, dim=H.dim, growth_K=H.growth_K)


def _param_field(H: MeanField, u) -> MeanField:
    """Selections ``parametrize(K, u, R)``, R the largest generator distance
    from the centroid plus 1e-12."""
    return _selection_field(H, lambda K, z: parametrize(
        K, u, float(np.linalg.norm(K.points - K.centroid(), axis=1).max()) + 1e-12
    ))


def _target_field(H: MeanField, target, dt: float) -> MeanField:
    """Selections nearest ``gap / max(dt, |gap|)``, gap = target - z: a step
    of dt toward the target where the set allows it."""
    target = np.asarray(target, dtype=float)

    def toward(K, z):
        gap = target - z
        return project(K, gap / max(dt, float(np.linalg.norm(gap))))

    return _selection_field(H, toward)


def limit_set(path: DIPath, burn_in: float, tol: float = 1e-3) -> np.ndarray:
    """Representatives of the path's tail after ``burn_in``.

    Greedy clustering with radius tol/2, approximating the omega-limit set
    of the sampled trajectory.
    """
    path._single("limit_set")
    if burn_in >= path.horizon:
        raise ValueError("burn_in must be below the path horizon")
    tail = path.states[path.times >= burn_in]
    if len(tail) == 0:
        raise ValueError("empty tail")
    reps: list[np.ndarray] = []
    for z in tail:
        if not any(np.linalg.norm(z - r) <= 0.5 * tol for r in reps):
            reps.append(z)
    return np.array(reps)


def attractor_check(
    H: MeanField,
    A,
    neighborhood_radius: float,
    eps: float,
    T_max: float,
    n_starts: int,
    dt: float = 1e-2,
    seed: int = 0,
):
    """Empirical attracting-set test around the point cloud ``A``.

    Starts are sampled in the radius-neighborhood of A; each runs on H
    itself (the least-norm selection) and on four fields of random
    parametrized selections (``_param_field``).  Returns
    (status, witness) with status ``"attracting"`` when every path enters
    and stays in the eps-neighborhood by T_max, ``"not_attracting"`` when a
    path ends outside it, and ``"inconclusive"`` when a path is still
    approaching at the horizon.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.size == 0:
        raise ValueError("A must be nonempty")
    rng = np.random.default_rng(seed)
    statuses = []
    witness = None
    worst_gap = -np.inf

    def dist_to_A(z):
        return float(np.linalg.norm(A - z, axis=1).min())

    fields = [H]
    for _ in range(4):
        raw = rng.standard_normal(H.dim)
        fields.append(_param_field(H, raw / max(1.0, float(np.linalg.norm(raw)))))

    for _ in range(n_starts):
        anchor = A[rng.integers(len(A))]
        offset = rng.standard_normal(H.dim)
        offset *= neighborhood_radius * rng.random() / max(
            1e-12, float(np.linalg.norm(offset))
        )
        z0 = anchor + offset
        for field in fields:
            path = di_solve(field, z0, T_max, dt)
            dists = np.array([dist_to_A(z) for z in path.states])
            inside = dists <= eps
            if inside.any():
                first = int(np.argmax(inside))
                stays = bool(inside[first:].all())
            else:
                stays = False
            final = dists[-1]
            if stays:
                statuses.append("attracting")
            elif final > eps and final >= dists[max(0, len(dists) // 2)] - 1e-12:
                statuses.append("not_attracting")
            else:
                statuses.append("inconclusive")
            if final > worst_gap:
                worst_gap = final
                witness = path
    if all(s == "attracting" for s in statuses):
        return "attracting", witness
    if any(s == "not_attracting" for s in statuses):
        return "not_attracting", witness
    return "inconclusive", witness


def chain_search(
    H: MeanField,
    a,
    b,
    eps: float,
    T: float,
    dt: float = 1e-2,
    max_fragments: int = 32,
    n_attempts: int = 8,
    seed: int = 0,
) -> str:
    """Sampled search for an (eps, T)-chain of solution fragments a -> b.

    A falsifier only: returns ``"found"`` when a concatenation of solution
    fragments of duration at least T, with eps-jumps between fragments,
    lands within eps of ``b``; returns ``"not_found"`` when the budget is
    exhausted.  Absence of a chain within budget never disproves chain
    transitivity.
    Each fragment follows, with probability 0.75, the selection steered
    toward ``b`` (``_target_field``), and otherwise the least-norm one.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rng = np.random.default_rng(seed)
    toward_b = _target_field(H, b, dt)
    for _ in range(n_attempts):
        z = a + eps * rng.standard_normal(H.dim) / max(1.0, np.sqrt(H.dim))
        for _ in range(max_fragments):
            field = toward_b if rng.random() < 0.75 else H
            path = di_solve(field, z, T=T, dt=dt)
            end = path.states[-1]
            if float(np.linalg.norm(end - b)) <= eps:
                return "found"
            # eps-jump to start the next fragment.
            z = end + eps * rng.standard_normal(H.dim) / max(1.0, np.sqrt(H.dim))
    return "not_found"


def apt_metric(times, f_values, g_values, K_terms: int) -> float:
    """Weighted compact-window distance between two sampled paths.

    sum_{k=1}^{K} 2^{-k} min(sup_{[0, min(k, T_w)]} ||f - g||, 1) on a shared
    grid; trajectories are compared on their forward window with the tail
    weights saturating at the window length.
    """
    if K_terms < 1:
        raise ValueError("K_terms must be >= 1")
    times = np.asarray(times, dtype=float)
    f_values = np.atleast_2d(np.asarray(f_values, dtype=float))
    g_values = np.atleast_2d(np.asarray(g_values, dtype=float))
    if f_values.shape != g_values.shape or len(times) != len(f_values):
        raise ValueError("paths must share a common grid")
    gaps = np.linalg.norm(f_values - g_values, axis=1)
    total = 0.0
    for k in range(1, K_terms + 1):
        window = times <= min(float(k), times[-1]) + 1e-12
        total += 2.0**-k * min(float(gaps[window].max()), 1.0)
    return total
