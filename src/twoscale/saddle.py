"""Markov-averaged constrained convex optimization by primal-dual recursion.

The target problem minimizes a state-averaged convex objective subject to
state-averaged affine equality constraints, where the averaging law is the
unknown stationary distribution of an observed Markov chain.  The solver
never touches that law: the primal iterate descends along a noisy penalized
subgradient evaluated at the current chain state while the dual iterate
ascends along the observed constraint residual, on a slower clock.

Verification utilities do use the stationary law: the frozen Lagrangian,
its unique minimizer, the dual value, the envelope identity along the dual
flow, and optimality gaps of trajectory tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .convex import ConvexSet, direction_net, minkowski_combine, project
from . import dynamics
from .dynamics import DIPath
from .markov import FiniteKernel
from .meanfield import MeanField, slow_field
from .recursion import NoiseModel, StepSchedule, Trajectory, run
from .svmaps import SetValuedMap

__all__ = [
    "SaddleProblem",
    "SolverStallError",
    "quadratic_problem",
    "penalized_objective",
    "penalized_subgrad",
    "lagrangian",
    "lambda_min",
    "dual_value",
    "primal_drift",
    "dual_drift",
    "dual_ode_field",
    "averaged_slow_field",
    "run_primal_dual",
    "optimality_report",
    "verify_envelope",
    "OptimalityReport",
    "EnvelopeReport",
]

FEASIBILITY_TOL = 1e-9
GRAD_TOL = 1e-9
MAX_ITER = 500
MEMBERSHIP_TOL = 1e-6
_COERCIVITY_RAYS = 64
_COERCIVITY_SEED = 4242


class SolverStallError(RuntimeError):
    """Inner minimization stalled before reaching its residual target."""

    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"inner solver stalled after {iterations} iterations, "
            f"subgradient residual {residual:.3e}"
        )
        self.residual = residual
        self.iterations = iterations

    def __reduce__(self):
        # Rebuilt from its fields, so it crosses a process pool intact.
        return type(self), (self.residual, self.iterations)


class SaddleProblem:
    """Data of the penalized state-averaged constrained convex program.

    ``objective_rows(X, s) -> (R,)``, the one objective oracle, gives a
    per-state convex coercive J(x, s) at each row x of X; a single point is
    the block of its one row.  ``subgrad_rows(X, s) -> (R, d1)`` gives one
    subgradient per row, NaN where the subdifferential has more than one
    point, and the set form ``subgrad(x, s) -> ConvexSet`` the compact
    subdifferential, of linear growth ``growth_K``.  ``subgrad`` is read
    only where a value is set-valued (``penalized_subgrad``, a NaN row, the
    barrier sphere band) and by ``validate_sam``, which checks the point
    form of ``primal_drift`` against its set form.

    ``C[s]`` and ``w[s]`` give per-state affine equality constraints
    witnessed feasible by ``feasible_points[s]``.  ``radius`` must enclose
    the witnesses and clear the sampled coercivity check; ``epsilon`` sets
    both the strong-convexity term and the optimality slack the penalized
    solution is allowed versus the original problem.  Every number is
    finite, and ``epsilon``, ``radius`` and ``growth_K`` are positive.

    ``minimizer_rows(P, CY) -> (R, d1)``, optional, gives the exact minimizer
    of the frozen Lagrangian ``Jhat_mu(x) + <c, x>`` at each row c of CY,
    where ``c = C_mu^T y``.  ``lambda_min`` takes it in place of its
    iteration where it is given and certifies its rows all the same; it is
    ``None`` for a problem whose minimizer has no closed form.

    A problem is not written to after construction: its stationary-law data
    and solver constants are cached from its fields.
    """

    def __init__(
        self,
        subgrad: Callable,
        C,
        w,
        kernel: FiniteKernel,
        epsilon: float,
        radius: float,
        growth_K: float,
        feasible_points,
        objective_rows: Callable,
        subgrad_rows: Callable,
        minimizer_rows: Optional[Callable] = None,
    ):
        self.subgrad = subgrad
        self.objective_rows = objective_rows
        self.subgrad_rows = subgrad_rows
        self.minimizer_rows = minimizer_rows
        self.C = np.asarray(C, dtype=float)
        self.w = np.asarray(w, dtype=float)
        if self.C.ndim != 3 or self.w.ndim != 2:
            raise ValueError("C must be (|S|, d2, d1) and w (|S|, d2)")
        self.alphabet, self.d2, self.d1 = self.C.shape
        if self.w.shape != (self.alphabet, self.d2):
            raise ValueError(f"w has shape {self.w.shape}")
        _require_finite(C=self.C, w=self.w)
        if kernel.alphabet != self.alphabet:
            raise ValueError("kernel alphabet does not match constraint data")
        self.kernel = kernel
        self.epsilon = float(epsilon)
        self.radius = float(radius)
        self.growth_K = float(growth_K)
        for name in ("epsilon", "radius", "growth_K"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not 0 < self.radius * self.radius < math.inf:
            raise ValueError(f"radius {self.radius} has no finite positive square")
        self.feasible_points = np.atleast_2d(np.asarray(feasible_points, dtype=float))
        if self.feasible_points.shape != (self.alphabet, self.d1):
            raise ValueError("need one feasible witness per state")
        _require_finite(feasible_points=self.feasible_points)
        self._validate()

    def _validate(self) -> None:
        for s in range(self.alphabet):
            x_s = self.feasible_points[s]
            gap = float(np.linalg.norm(self.C[s] @ x_s - self.w[s]))
            if gap > FEASIBILITY_TOL:
                raise ValueError(
                    f"witness for state {s} violates its constraint by {gap:.3e}"
                )
        worst = float(np.linalg.norm(self.feasible_points, axis=1).max())
        if self.radius <= worst:
            raise ValueError(
                f"radius {self.radius} does not exceed the witness norm {worst}"
            )
        # Sampled coercivity: on the radius sphere the objective must clear
        # the best witness value, which by convexity pushes it above that
        # level outside the ball as well.
        m1 = max(
            self.objective_rows(self.feasible_points, sp).max()
            for sp in range(self.alphabet)
        )
        level = max(0.0, float(m1))
        rng = np.random.default_rng(_COERCIVITY_SEED)
        rays = rng.standard_normal((_COERCIVITY_RAYS, self.d1))
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        X = self.radius * rays
        vals = np.column_stack([self.objective_rows(X, s) for s in range(self.alphabet)])
        bad = np.argwhere(vals <= level)  # (ray, state) in ray-then-state order
        if len(bad):
            u, s = bad[0]
            raise ValueError(
                f"coercivity check failed: J({self.radius}*u, {s}) = "
                f"{float(vals[u, s])} <= {level} along a sampled ray"
            )

    # -- stationary-law verification data ---------------------------------

    def reference_point(self) -> np.ndarray:
        return self.feasible_points.mean(axis=0)

    @cached_property
    def mu(self) -> np.ndarray:
        """Unique stationary row of the kernel frozen at the reference point."""
        stat = self.kernel.stationary(self.reference_point(), np.zeros(self.d2))
        if stat.n_vertices != 1:
            raise ValueError(
                f"the chain has {stat.n_vertices} stationary vertices; "
                "the dual machinery needs a unique stationary law"
            )
        return stat.vertices[0]

    @cached_property
    def C_mu(self) -> np.ndarray:
        return np.tensordot(self.mu, self.C, axes=1)

    @cached_property
    def w_mu(self) -> np.ndarray:
        return self.mu @ self.w

    @cached_property
    def _penalty(self) -> SimpleNamespace:
        """Coefficients of the penalty terms, computed once."""
        r2 = self.radius**2
        return SimpleNamespace(
            r2=r2,
            c_strong=self.epsilon / (2 * r2),
            c_outer=0.5 * (self.growth_K + 1),
            c_shift=self.epsilon / r2,
            band=1e-9 * max(1.0, self.radius),
        )

    @cached_property
    def _bounds(self) -> SimpleNamespace:
        """``max_s ||C[s]||_2`` and ``max |w|``, the drift growth bounds."""
        return SimpleNamespace(
            cmax=max(float(np.linalg.norm(C_s, 2)) for C_s in self.C),
            wmax=float(np.abs(self.w).max(initial=0.0)),
        )

    @cached_property
    def _solver(self) -> SimpleNamespace:
        """Per-problem constants, computed once: the states that carry
        stationary weight, over which every average runs, and ``lambda_min``'s
        Armijo rounding factor and the certificate's transposed direction net."""
        return SimpleNamespace(
            weighted=[(s, m) for s, m in enumerate(self.mu) if m != 0.0],
            eps8=8 * np.finfo(float).eps,
            net_T=direction_net(self.d1).T,
        )

    def J_mu(self, x) -> float:
        return float(_J_mu_rows(self, np.asarray(x, dtype=float)[None])[0])

    def Jhat_mu(self, x) -> float:
        Z = np.asarray(x, dtype=float)[None]
        return float((_J_mu_rows(self, Z) + _penalty_rows(self, Z))[0])

    def K_prime(self) -> float:
        """Growth constant of the minimizer map: max of growth, radius, ||C_mu^T||."""
        return max(
            self.growth_K,
            self.radius,
            float(np.linalg.norm(self.C_mu.T, 2)),
        )


def quadratic_problem(
    theta, C, w, kernel: FiniteKernel, epsilon: float, radius: float,
    growth_K: Optional[float] = None, feasible_points=None,
) -> SaddleProblem:
    """Built-in family J(x, s) = 0.5 ||x - theta_s||^2 with affine constraints.

    Since mu sums to one, the frozen Lagrangian is
    0.5 ||x - (theta_mu - C_mu^T y)||^2 plus the penalty terms plus a constant,
    so its minimizer is the penalty's proximal map at unit step applied to
    theta_mu - C_mu^T y (Parikh and Boyd 2014, *Proximal algorithms*, 6).
    The problem carries it as ``minimizer_rows``; theta_mu sums
    ``m * theta_s`` over the states of nonzero stationary weight, in order.
    """
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    C = np.asarray(C, dtype=float)
    w = np.asarray(w, dtype=float)
    # Before the witnesses' least squares, which fails on non-finite data.
    _require_finite(theta=theta, C=C, w=w)

    def subgrad(x, s):
        return ConvexSet._trusted((np.asarray(x, dtype=float) - theta[s])[None, :])

    def objective_rows(X, s):
        D = X - theta[s]
        return 0.5 * (D * D).sum(axis=1)

    def subgrad_rows(X, s):
        return X - theta[s]

    def minimizer_rows(P, CY):
        theta_mu = 0
        for s, m in P._solver.weighted:
            theta_mu = theta_mu + m * theta[s]
        return _prox_penalty_rows(P, theta_mu - CY, 1.0)

    if growth_K is None:
        # ||x - theta_s|| <= (1 + max||theta||)(1 + ||x||).
        growth_K = 1.0 + float(np.linalg.norm(theta, axis=1).max())
    if feasible_points is None:
        feasible_points = [
            np.linalg.lstsq(C[s], w[s], rcond=None)[0] for s in range(C.shape[0])
        ]
    return SaddleProblem(
        subgrad=subgrad,
        C=C,
        w=w,
        kernel=kernel,
        epsilon=epsilon,
        radius=radius,
        growth_K=growth_K,
        feasible_points=feasible_points,
        objective_rows=objective_rows,
        subgrad_rows=subgrad_rows,
        minimizer_rows=minimizer_rows,
    )


def _require_finite(**arrays) -> None:
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")


def _J_mu_rows(P: SaddleProblem, Z: np.ndarray) -> np.ndarray:
    """Averaged objective at each row of Z: ``m * J(., s)`` summed over the
    states of nonzero stationary weight, in order."""
    J = 0
    for s, m in P._solver.weighted:
        J = J + m * P.objective_rows(Z, s)
    return J


def _penalty_rows(P: SaddleProblem, Z: np.ndarray) -> np.ndarray:
    """Strong-convexity term plus outer quadratic barrier at each row of Z."""
    k = P._penalty
    n2 = _rowdot(Z, Z)
    return k.c_strong * n2 + k.c_outer * np.maximum(n2 - k.r2, 0.0)


def penalized_objective(P: SaddleProblem, x, s: int) -> float:
    """Objective plus strong-convexity term plus outer quadratic barrier."""
    Z = np.asarray(x, dtype=float)[None]
    return float((P.objective_rows(Z, s) + _penalty_rows(P, Z))[0])


def penalized_subgrad(P: SaddleProblem, x, s: int) -> ConvexSet:
    """Subdifferential of the penalized objective at x for state s.

    On the barrier sphere the max term contributes the segment between the
    two one-sided gradients, so the value is genuinely set-valued there.
    """
    x = np.asarray(x, dtype=float)
    base = P.subgrad(x, s)
    shift = _penalty_shift(P, x)
    if shift is not None:
        return base.translate(shift)
    shift = P._penalty.c_shift * x
    segment = ConvexSet(np.vstack([np.zeros(P.d1), (P.growth_K + 1) * x]))
    return minkowski_combine([1.0, 1.0], [base.translate(shift), segment])


def _penalty_shift(P: SaddleProblem, x: np.ndarray) -> Optional[np.ndarray]:
    """Gradient of the penalty terms at x; None on the barrier sphere band."""
    k = P._penalty
    shift = k.c_shift * x
    nrm = math.sqrt(float(x @ x))
    if nrm < P.radius - k.band:
        return shift
    if nrm > P.radius + k.band:
        return shift + (P.growth_K + 1) * x
    return None


def _penalty_shift_rows(P: SaddleProblem, X: np.ndarray):
    """``_penalty_shift`` at each row of X, bit for bit: the shifts, and the
    mask of the rows on the barrier sphere band (or of NaN norm), where the
    shift is a set and its row is to be ignored."""
    pen = P._penalty
    shift = pen.c_shift * X
    nrm = np.sqrt(_rowdot(X, X))
    outer = nrm > P.radius + pen.band
    if outer.any():
        shift[outer] = shift[outer] + (P.growth_K + 1) * X[outer]
    return shift, ~((nrm < P.radius - pen.band) | outer)


def _subgrad_mu_rows(P: SaddleProblem, Z: np.ndarray) -> np.ndarray:
    """Averaged subgradient row at each row of Z: ``m * g_s`` summed over the
    weighted states in the order ``minkowski_combine`` adds them.  A row is
    NaN where some state's subdifferential there has more than one point."""
    acc = 0.0
    for s, m in P._solver.weighted:
        acc = acc + m * P.subgrad_rows(Z, s)
    return acc


def _subgrad_mu(P: SaddleProblem, x: np.ndarray) -> ConvexSet:
    sets = [penalized_subgrad(P, x, s) for s in range(P.alphabet)]
    return minkowski_combine(P.mu, sets)


def _raw_subgrad_mu(P: SaddleProblem, x: np.ndarray) -> ConvexSet:
    """Averaged subdifferential of the unpenalized objective."""
    return minkowski_combine(P.mu, [P.subgrad(x, s) for s in range(P.alphabet)])


def lagrangian(P: SaddleProblem, x, y) -> float:
    """Frozen Lagrangian J_mu-hat(x) + <y, C_mu x - w_mu>."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return P.Jhat_mu(x) + float(y @ (P.C_mu @ x - P.w_mu))


def lambda_min(P: SaddleProblem, y, x0=None) -> np.ndarray:
    """Unique minimizer of the Lagrangian in x at the given multiplier.

    A problem that carries its exact minimizer (``P.minimizer_rows``, which
    ``quadratic_problem`` supplies) takes it, and ``x0`` is not read.  Any
    other problem is solved by a proximal-subgradient iteration from ``x0``,
    or from the reference point: the objective part moves along its
    least-norm subgradient with spectral (Barzilai-Borwein) steps under an
    Armijo safeguard, while the penalty terms, whose kink at the barrier
    sphere would make plain subgradient steps chatter, are folded in by
    their exact radial proximal map.  The strong-convexity term guarantees
    a unique minimizer; the iteration stops on the prox-gradient mapping
    residual.  Either way the result is verified by support-function
    membership of the origin in the full subdifferential.

    The iteration reads the averaged subgradient from the row oracles
    (``_subgrad_mu_rows``); where its row is NaN, some state's subgradient
    is set-valued and the step projects the averaged generator cloud of the
    set forms instead.

    The result depends only on the arguments: nothing is kept on ``P``
    between calls.  A 2-d ``y`` of shape ``(R, d2)`` is a block of
    multipliers, with ``x0`` None or of shape ``(R, d1)``; the result has
    shape ``(R, d1)``.  A 1-d ``y`` is solved as the block of its one row.
    One kernel serves both (``_lambda_min_rows``), and row r depends only on
    ``y[r]`` and ``x0[r]``, so it equals the 1-d call on them bit for bit.
    A row that does not converge or is not certified raises
    ``SolverStallError``; in a block, that of the lowest such row, once
    every row has run.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        return _lambda_min_rows(P, y[None], x0)[0]
    return _lambda_min_rows(P, y, x0)


def _rowdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise inner products, each computed as the 1-d ``a @ b`` would be."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def _prox_penalty_rows(P: SaddleProblem, V: np.ndarray, gamma) -> np.ndarray:
    """Exact proximal map of the penalty terms (radial piecewise quadratic)
    applied to each row of V with its own step, or one step for all; a zero
    row divides by zero, under the caller's ``np.errstate``, and maps to zero."""
    nv = np.sqrt(_rowdot(V, V))
    a = gamma * P.epsilon / P.radius**2
    rho = nv / (1.0 + a)
    rho_out = nv / (1.0 + a + gamma * (P.growth_K + 1))
    rho = np.where(rho > P.radius, np.maximum(rho_out, P.radius), rho)
    out = (rho / nv)[:, None] * V
    out[nv == 0.0] = 0.0
    return out


def _lambda_min_rows(P: SaddleProblem, Y: np.ndarray, X0) -> np.ndarray:
    """``lambda_min`` on every row of Y at once, in two parts: the solve
    (``_solve_rows``), then its certificate (``_certify_rows``).  The
    certificate reads the rows and changes none of them, so a caller that
    only needs the values may take the solve alone and certify later."""
    CY = _multiplier_rows(P, Y)
    X, iterations, failed = _solve_rows(P, CY, X0)
    _certify_rows(P, X, CY, iterations, failed)
    return X


def _multiplier_rows(P: SaddleProblem, Y: np.ndarray) -> np.ndarray:
    """``C_mu^T y`` of each row of the multipliers Y ``(R, d2)``."""
    if Y.ndim != 2 or Y.shape[1] != P.d2:
        raise ValueError(f"multipliers have shape {Y.shape}, need (R, {P.d2})")
    return np.matmul(P.C_mu.T, Y[:, :, None])[:, :, 0]


def _solve_rows(P: SaddleProblem, CY: np.ndarray, X0):
    """The solve part of ``lambda_min``, uncertified: ``(X, iterations,
    failed)`` with the rows of ``P.minimizer_rows`` where the problem has it
    (0 iterations, none failed), else those of ``_descend_rows``.  It never
    raises ``SolverStallError``: a row that stalls or runs out keeps its last
    iterate in X and is listed in ``failed``."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if P.minimizer_rows is None:
            return _descend_rows(P, CY, X0)
        return P.minimizer_rows(P, CY), np.zeros(len(CY), int), {}


def _certify_rows(P: SaddleProblem, X: np.ndarray, CY: np.ndarray, iterations, failed):
    """The certify part of ``lambda_min`` on the solve's ``(X, iterations,
    failed)``.  A row fails if its iteration stalled or ran out, with the
    residual and iterations it reached, or if its certificate
    (``_certificate_misses``) misses, with the miss and the iterations it ran
    (0 for an exact minimizer).  Every row is checked, and then the lowest
    failed row raises its ``SolverStallError``.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        misses = _certificate_misses(P, X, CY, failed)
    for r, miss in misses.items():
        failed[r] = (miss, int(iterations[r]))
    if failed:
        raise SolverStallError(*failed[min(failed)])


def _descend_rows(P: SaddleProblem, CY: np.ndarray, X0):
    """The proximal-subgradient iteration on every row of CY at once, under
    masks: ``(X, iterations, failed)``, with the iterations each row ran and
    ``failed`` mapping a row whose Armijo search stalled, or that ran out of
    iterations, to the ``(residual, iterations)`` of its ``SolverStallError``.

    Each row takes its own steps (spectral step, Armijo halving, radial
    prox, residual test) on plain arrays, with every inner product formed as
    a 1-d ``@`` forms it, so a row does not depend on the other rows of its
    block.  Every row is computed at every pass and masks decide which
    results a row keeps, which on a few rows is cheaper than gathering the
    live ones.  A NaN subgradient row, one at a time over the rows the masks
    flag, steps along the projection of the set form.
    """
    R = len(CY)
    if X0 is None:
        X0 = P.reference_point()
    X = np.array(np.broadcast_to(np.asarray(X0, dtype=float), (R, P.d1)))
    k = P._solver
    failed = {}  # row -> (residual, iterations) of its SolverStallError
    iterations = np.full(R, MAX_ITER)

    def value(Z):
        return _J_mu_rows(P, Z) + _penalty_rows(P, Z) + _rowdot(CY, Z)

    def gradient(Z, rows):
        # The averaged subgradient plus C_mu^T y; on the given rows where the
        # subgradient row is NaN, the projection of the set form onto -C_mu^T y.
        G_mu = _subgrad_mu_rows(P, Z)
        G = G_mu + CY
        for r in np.flatnonzero(rows & np.isnan(G_mu).any(axis=1)):
            G[r] = project(_raw_subgrad_mu(P, Z[r]), -CY[r]) + CY[r]
        return G

    live = np.ones(R, dtype=bool)
    F = value(X)
    G = gradient(X, live)
    gamma = np.ones(R)
    residual = np.full(R, np.inf)
    prev_X, prev_G = X, G  # arrays here are replaced, never written in place
    for it in range(MAX_ITER):
        if not live.any():
            break
        if it > 0:
            dX, dG = X - prev_X, G - prev_G
            denom = _rowdot(dG, dG)
            bb = np.minimum(np.maximum(_rowdot(dX, dG) / denom, 1e-12), 1e3)
            gamma = np.where(live & (denom > 0), bb, gamma)
        step = gamma
        # Rounding slack keeps the sufficient-decrease test meaningful
        # once the true decrease falls below float resolution of the value.
        slack = k.eps8 * (1.0 + np.abs(F))
        trying = live.copy()
        for tries in range(60):
            xn = _prox_penalty_rows(P, X - step[:, None] * G, step)
            fn = value(xn)
            dx = xn - X
            ok = trying & (fn <= F - (0.25 / step) * (dx * dx).sum(axis=1) + slack)
            if tries == 0:
                # Rows that fail here are overwritten when they pass.
                X_new, F_new, move = xn, fn, dx
            else:
                X_new[ok], F_new[ok], move[ok] = xn[ok], fn[ok], dx[ok]
            trying &= ~ok
            if not trying.any():
                break
            step = np.where(trying, step * 0.5, step)
        else:
            # The rows still trying stalled, with the last residual.
            for r in np.flatnonzero(trying):
                failed[r] = (float(residual[r]), it)
            live &= ~trying
        residual = np.sqrt(_rowdot(move, move)) / step
        moved = live[:, None]
        prev_X, prev_G = np.where(moved, X, prev_X), np.where(moved, G, prev_G)
        X, F = np.where(moved, X_new, X), np.where(live, F_new, F)
        done = live & (residual <= GRAD_TOL)
        iterations[done] = it + 1
        live &= ~done
        if live.any():
            G = np.where(live[:, None], gradient(X, live), G)
    for r in np.flatnonzero(live):
        failed[r] = (float(residual[r]), MAX_ITER)
    return X, iterations, failed


def _certificate_misses(P: SaddleProblem, X: np.ndarray, CY: np.ndarray, skip) -> dict:
    """Rows of X, other than those in ``skip``, where 0 is not certified in
    the subdifferential of the Lagrangian at the multiplier of CY's row, each
    with its miss: minus the least support value over the direction net.

    0 is certified where every direction of the net sees a support value of
    at least ``-MEMBERSHIP_TOL``.  On a point row (finite, its subgradient
    row not NaN, off the barrier sphere band) the subdifferential is the one
    point v = g + shift + C_mu^T y, whose support value u @ v is at least
    -|v| for a unit u; so a point row with |v| <= MEMBERSHIP_TOL / 2 passes
    every direction, with room for rounding, and only the other point rows
    are swept over the net, in one product.  A row on the band or a NaN row
    is swept on its set form's cloud.  A row that is not finite misses by
    ``inf``.
    """
    net_T = P._solver.net_T
    shift, band = _penalty_shift_rows(P, X)
    G_mu = _subgrad_mu_rows(P, X)
    V = (G_mu + shift) + CY
    todo = np.ones(len(X), dtype=bool)
    todo[list(skip)] = False
    finite = np.isfinite(X).all(axis=1)
    # On the barrier band or a NaN row the subdifferential is a set.
    set_valued = band | np.isnan(G_mu).any(axis=1)
    worst = np.zeros(len(X))
    worst[todo & ~finite] = -math.inf
    swept = todo & finite & ~set_valued & ~(np.sqrt(_rowdot(V, V)) <= 0.5 * MEMBERSHIP_TOL)
    worst[swept] = np.matmul(V[swept][:, None, :], net_T)[:, 0, :].min(axis=1)
    for r in np.flatnonzero(todo & finite & set_valued):
        full = _subgrad_mu(P, X[r]).points
        worst[r] = ((full + CY[r]) @ net_T).max(axis=0).min()
    return {int(r): float(-worst[r]) for r in np.flatnonzero(worst < -MEMBERSHIP_TOL)}


def dual_value(P: SaddleProblem, y, x0=None) -> float:
    """Dual objective Q_mu(y) = min_x L(x, y)."""
    lam = lambda_min(P, y, x0=x0)
    return lagrangian(P, lam, y)


def _state_matvec(A: np.ndarray, S: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Row r is ``A[S[r]] @ Z[r]``, bit for bit: one stacked product, whose
    matrices keep the layout of ``A[s]`` (so the same BLAS kernel sums each
    row's terms in the same order)."""
    return np.matmul(A[S], Z[:, :, None])[:, :, 0]


def primal_drift(P: SaddleProblem) -> SetValuedMap:
    """Fast drift -(penalized subdifferential + C(s)^T y).

    Its point form is -((g_s + shift) + C(s)^T y) for the row g_s of
    ``P.subgrad_rows`` at x and the penalty gradient ``shift``, the value's
    one generator in the set form's order; it is ``None`` on the barrier
    sphere band and where that row is NaN.  Its row form computes each row
    the same way, ``subgrad_rows`` once per state present, and is NaN on
    those rows.
    """
    growth = max(2 * P.growth_K + 1 + P._penalty.c_shift, P._bounds.cmax)
    CT = [P.C[s].T for s in range(P.alphabet)]
    # Views C[s].T, as in CT: F-ordered matrices.
    CT_stack = P.C.transpose(0, 2, 1)

    def evaluate(x, y, s):
        G = penalized_subgrad(P, x, s)
        return ConvexSet._trusted(-(G.points + CT[s] @ y))

    def point(x, y, s):
        shift = _penalty_shift(P, x)
        if shift is None:
            return None
        g = P.subgrad_rows(x[None], s)[0]
        if np.isnan(g).any():
            return None
        return -((g + shift) + CT[s] @ y)

    def point_rows(X, Y, S):
        shift, band = _penalty_shift_rows(P, X)
        if band.any():
            shift[band] = np.nan
        states = np.flatnonzero(np.bincount(S)).tolist()
        if len(states) == 1:
            G = P.subgrad_rows(X, states[0])
        else:
            G = np.empty_like(shift)
            for s in states:
                at = S == s
                G[at] = P.subgrad_rows(X[at], s)
        return -((G + shift) + _state_matvec(CT_stack, S, Y))

    return SetValuedMap(
        dims=(P.d1, P.d2, P.d1), alphabet=P.alphabet,
        evaluate=evaluate, growth_K=growth, point=point, point_rows=point_rows,
    )


def dual_drift(P: SaddleProblem) -> SetValuedMap:
    """Slow drift {C(s) x - w(s)}, the observed constraint residual; a
    singleton everywhere, so its point form is C(s) x - w(s), and its row
    form that at each row."""
    def point(x, y, s):
        return P.C[s] @ x - P.w[s]

    return SetValuedMap(
        dims=(P.d1, P.d2, P.d2), alphabet=P.alphabet,
        evaluate=lambda x, y, s: ConvexSet.singleton(point(x, y, s)),
        growth_K=max(P._bounds.cmax, P._bounds.wmax, 1e-12), point=point,
        point_rows=lambda X, Y, S: _state_matvec(P.C, S, X) - P.w[S],
    )


def dual_ode_field(P: SaddleProblem) -> MeanField:
    """Singleton dual flow field y -> {C_mu lambda(y) - w_mu}.

    ``evaluate`` is the singleton of the velocity at ``lambda_min(P, y)``.
    ``evaluate_rows`` gives the velocities of a block ``(R, d2)``: every
    minimizer is solved cold by the row kernel (``_solve_rows``), where no
    row of a block depends on another, so each row's velocity is a pure
    function of that row; it is certified per finished block by
    ``check_rows``, which runs ``lambda_min`` on the block.  So ``di_solve``
    certifies each knot of its path once, and never the states its sweeps
    guess; the certificate changes no value.
    """
    C_mu, w_mu = P.C_mu, P.w_mu
    growth = float(np.linalg.norm(C_mu, 2)) * P.K_prime() + float(
        np.linalg.norm(w_mu)
    ) + 1e-12

    def velocity(lam):
        # Stacked matrix-vector products, so each row equals C_mu @ lam[r].
        return np.matmul(C_mu, lam[..., None])[..., 0] - w_mu

    def check_rows(Y):
        # lambda_min is looked up when called, so a wrapper put on the
        # module's name sees every certificate.
        lambda_min(P, Y)

    return MeanField(
        evaluate=lambda y: ConvexSet.singleton(velocity(lambda_min(P, y))),
        dim=P.d2, growth_K=growth, check_rows=check_rows,
        evaluate_rows=lambda Y: velocity(
            _solve_rows(P, _multiplier_rows(P, Y), None)[0]
        ),
    )


def averaged_slow_field(P: SaddleProblem) -> MeanField:
    """Slow mean field built through the full averaging pipeline.

    Couples the minimizer map with the stationary polytope of the frozen
    kernel; on a uniquely ergodic chain this coincides with
    ``dual_ode_field`` and is the object the slow iterates track.
    """
    growth = P._bounds.cmax * P.K_prime() + P._bounds.wmax + 1e-12
    return slow_field(
        dual_drift(P), P.kernel, lambda y: lambda_min(P, y)[None, :], growth_K=growth
    )


def run_primal_dual(
    P: SaddleProblem,
    schedule: StepSchedule,
    N: int,
    seed: int,
    noise: Optional[NoiseModel] = None,
    x0=None,
    y0=None,
    s0: int = 0,
) -> Trajectory:
    """Primal-descent/dual-ascent recursion on one observed chain.

    Both updates read the same noise state; dual updates carry no additive
    noise unless a slow scale is passed explicitly.
    """
    if noise is None:
        noise = NoiseModel(kind="uniform", fast_scale=0.0, slow_scale=0.0)
    x0 = np.zeros(P.d1) if x0 is None else np.asarray(x0, dtype=float)
    y0 = np.zeros(P.d2) if y0 is None else np.asarray(y0, dtype=float)
    return run(
        primal_drift(P),
        dual_drift(P),
        P.kernel,
        P.kernel,
        schedule,
        x0,
        y0,
        s0,
        s0,
        N,
        seed,
        noise=noise,
        share_noise_chain=True,
    )


@dataclass
class OptimalityReport:
    x_bar: np.ndarray
    y_bar: np.ndarray
    feasibility_gap: float
    primal_dual_gap: float
    dist_to_lambda: float
    eps_surplus: Optional[float] = None

    def lines(self) -> list[str]:
        out = [
            f"feasibility gap  |C_mu x - w_mu| = {self.feasibility_gap:.6g}",
            f"primal-dual gap  |J_mu-hat - Q_mu| = {self.primal_dual_gap:.6g}",
            f"distance to minimizer map = {self.dist_to_lambda:.6g}",
        ]
        if self.eps_surplus is not None:
            out.append(f"epsilon-optimality surplus = {self.eps_surplus:.6g}")
        return out


def optimality_report(
    P: SaddleProblem,
    traj: Trajectory,
    tail_fraction: float = 0.1,
    x_star=None,
) -> OptimalityReport:
    """Tail-mean optimality diagnostics of a primal-dual trajectory."""
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must lie in (0, 1]")
    n = traj.X.shape[0]
    start = min(n - 1, int(n * (1 - tail_fraction)))
    x_bar = traj.X[start:].mean(axis=0)
    y_bar = traj.Y[start:].mean(axis=0)
    lam = lambda_min(P, y_bar)
    report = OptimalityReport(
        x_bar=x_bar,
        y_bar=y_bar,
        feasibility_gap=float(np.linalg.norm(P.C_mu @ x_bar - P.w_mu)),
        primal_dual_gap=abs(P.Jhat_mu(x_bar) - lagrangian(P, lam, y_bar)),
        dist_to_lambda=float(np.linalg.norm(x_bar - lam)),
    )
    if x_star is not None:
        report.eps_surplus = P.J_mu(x_bar) - P.J_mu(np.asarray(x_star, dtype=float))
    return report


@dataclass
class EnvelopeReport:
    times: np.ndarray
    V: np.ndarray
    integral: np.ndarray
    max_discrepancy: float
    monotone_ok: bool


def verify_envelope(P: SaddleProblem, y_path: DIPath) -> EnvelopeReport:
    """Check V(t) = V(0) + integral of the squared dual residual.

    The dual value is evaluated at every knot of the path and compared to
    the trapezoid quadrature of ||C_mu lambda(y) - w_mu||^2 along it; the
    report carries the maximum discrepancy and whether V is nondecreasing.
    The result depends only on ``P`` and the path.

    The knots are taken in blocks of ``dynamics.ROWS``: one row-batched
    ``lambda_min`` solves a block's minimizers, each from the reference
    point, and V and the squared residuals follow with one
    ``objective_rows`` call per state.  Each entry
    equals ``lagrangian`` and the residual of its knot, with lambda(y) from
    ``lambda_min(P, y)``, bit for bit.
    """
    y_path._single("verify_envelope")
    n = len(y_path.times)
    V, resid2 = np.empty(n), np.empty(n)
    block = dynamics.ROWS
    for a in range(0, n, block):
        Y = y_path.states[a:a + block]
        V[a:a + len(Y)], resid2[a:a + len(Y)] = _dual_rows(P, lambda_min(P, Y), Y)
    dt = np.diff(y_path.times)
    integral = np.concatenate(
        [[0.0], np.cumsum(0.5 * dt * (resid2[:-1] + resid2[1:]))]
    )
    disc = float(np.abs(V - V[0] - integral).max())
    monotone = bool(np.all(np.diff(V) >= -1e-9))
    return EnvelopeReport(
        times=y_path.times, V=V, integral=integral,
        max_discrepancy=disc, monotone_ok=monotone,
    )


def _dual_rows(P: SaddleProblem, L: np.ndarray, Y: np.ndarray):
    """``lagrangian(P, L[r], Y[r])`` and ``||C_mu L[r] - w_mu||^2`` of each
    row, with the averaged objective from ``_J_mu_rows`` as ``J_mu`` reads it."""
    resid = np.matmul(P.C_mu, L[:, :, None])[:, :, 0] - P.w_mu
    V = _J_mu_rows(P, L) + _penalty_rows(P, L) + _rowdot(Y, resid)
    return V, (resid**2).sum(axis=1)
