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


class SaddleProblem:
    """Data of the penalized state-averaged constrained convex program.

    ``objective(x, s)`` and the set form ``subgrad(x, s) -> ConvexSet``
    describe a per-state convex coercive objective with compact
    subdifferentials of linear growth ``growth_K``; ``C[s]`` and ``w[s]``
    give per-state affine equality constraints witnessed feasible by
    ``feasible_points[s]``.  ``radius`` must enclose the witnesses and clear
    the sampled coercivity check; ``epsilon`` sets both the strong-convexity
    term and the optimality slack the penalized solution is allowed versus
    the original problem.

    ``objective_rows(X, s) -> (R,)`` and ``subgrad_rows(X, s) -> (R, d1)``
    are the same oracles over a leading batch axis, row r equal to the
    scalar oracle at ``X[r]`` bit for bit.  Every single subgradient point
    is read from ``subgrad_rows``, where a row of NaN marks a set-valued
    subdifferential; ``subgrad`` is read only where a value is set-valued
    (``penalized_subgrad``, a NaN row, the barrier sphere band) and by
    ``validate_sam``, which checks the point form of ``primal_drift``
    against its set form.

    A problem is not written to after construction: its stationary-law data
    and solver constants are cached from its fields.
    """

    def __init__(
        self,
        objective: Callable,
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
    ):
        self.objective = objective
        self.subgrad = subgrad
        self.objective_rows = objective_rows
        self.subgrad_rows = subgrad_rows
        self.C = np.asarray(C, dtype=float)
        self.w = np.asarray(w, dtype=float)
        if self.C.ndim != 3 or self.w.ndim != 2:
            raise ValueError("C must be (|S|, d2, d1) and w (|S|, d2)")
        self.alphabet, self.d2, self.d1 = self.C.shape
        if self.w.shape != (self.alphabet, self.d2):
            raise ValueError(f"w has shape {self.w.shape}")
        if kernel.alphabet != self.alphabet:
            raise ValueError("kernel alphabet does not match constraint data")
        self.kernel = kernel
        if epsilon <= 0 or radius <= 0 or growth_K <= 0:
            raise ValueError("epsilon, radius and growth_K must be positive")
        self.epsilon = float(epsilon)
        self.radius = float(radius)
        self.growth_K = float(growth_K)
        self.feasible_points = np.atleast_2d(np.asarray(feasible_points, dtype=float))
        if self.feasible_points.shape != (self.alphabet, self.d1):
            raise ValueError("need one feasible witness per state")
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
            self.objective(self.feasible_points[s], sp)
            for s in range(self.alphabet)
            for sp in range(self.alphabet)
        )
        level = max(0.0, m1)
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
    def _solver(self) -> SimpleNamespace:
        """Per-problem constants of ``lambda_min``, computed once: the states
        that carry stationary weight, the Armijo rounding factor and the
        transposed direction net of the certificate."""
        return SimpleNamespace(
            weighted=[(s, m) for s, m in enumerate(self.mu) if m != 0.0],
            eps8=8 * np.finfo(float).eps,
            net_T=direction_net(self.d1).T,
        )

    def J_mu(self, x) -> float:
        mu, objective = self.mu, self.objective
        total = 0
        for s in range(self.alphabet):
            total += mu[s] * objective(x, s)
        return float(total)

    def Jhat_mu(self, x) -> float:
        return self.J_mu(x) + _penalty_value(self, np.asarray(x, dtype=float))

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
    """Built-in family J(x, s) = 0.5 ||x - theta_s||^2 with affine constraints."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    C = np.asarray(C, dtype=float)
    w = np.asarray(w, dtype=float)

    def objective(x, s):
        d = np.asarray(x, dtype=float) - theta[s]
        return 0.5 * float((d * d).sum())

    def subgrad(x, s):
        return ConvexSet._trusted((np.asarray(x, dtype=float) - theta[s])[None, :])

    def objective_rows(X, s):
        D = X - theta[s]
        return 0.5 * (D * D).sum(axis=1)

    def subgrad_rows(X, s):
        return X - theta[s]

    if growth_K is None:
        # ||x - theta_s|| <= (1 + max||theta||)(1 + ||x||).
        growth_K = 1.0 + float(np.linalg.norm(theta, axis=1).max())
    if feasible_points is None:
        feasible_points = [
            np.linalg.lstsq(C[s], w[s], rcond=None)[0] for s in range(C.shape[0])
        ]
    return SaddleProblem(
        objective=objective,
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
    )


def _penalty_value(P: SaddleProblem, x: np.ndarray) -> float:
    k = P._penalty
    n2 = float(x @ x)
    return k.c_strong * n2 + k.c_outer * max(n2 - k.r2, 0.0)


def _penalty_rows(P: SaddleProblem, Z: np.ndarray) -> np.ndarray:
    """``_penalty_value`` of each row of Z."""
    k = P._penalty
    n2 = _rowdot(Z, Z)
    return k.c_strong * n2 + k.c_outer * np.maximum(n2 - k.r2, 0.0)


def penalized_objective(P: SaddleProblem, x, s: int) -> float:
    """Objective plus strong-convexity term plus outer quadratic barrier."""
    x = np.asarray(x, dtype=float)
    return float(P.objective(x, s)) + _penalty_value(P, x)


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
    shift = (P.epsilon / P.radius**2) * x
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


def _prox_penalty(P: SaddleProblem, v: np.ndarray, gamma: float) -> np.ndarray:
    """Exact proximal map of the penalty terms (radial piecewise quadratic)."""
    nv = math.sqrt(float(v @ v))
    if nv == 0.0:
        return np.zeros_like(v)
    a = gamma * P.epsilon / P.radius**2
    rho = nv / (1.0 + a)
    if rho > P.radius:
        rho_out = nv / (1.0 + a + gamma * (P.growth_K + 1))
        rho = rho_out if rho_out >= P.radius else P.radius
    return (rho / nv) * v


def lagrangian(P: SaddleProblem, x, y) -> float:
    """Frozen Lagrangian J_mu-hat(x) + <y, C_mu x - w_mu>."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return P.Jhat_mu(x) + float(y @ (P.C_mu @ x - P.w_mu))


def lambda_min(P: SaddleProblem, y, x0=None) -> np.ndarray:
    """Unique minimizer of the Lagrangian in x at the given multiplier.

    Proximal-subgradient iteration: the objective part moves along its
    least-norm subgradient with spectral (Barzilai-Borwein) steps under an
    Armijo safeguard, while the penalty terms, whose kink at the barrier
    sphere would make plain subgradient steps chatter, are folded in by
    their exact radial proximal map.  The strong-convexity term guarantees
    a unique minimizer; convergence is declared on the prox-gradient
    mapping residual and verified by support-function membership of the
    origin in the full subdifferential.

    The iteration reads the averaged subgradient from the row oracles
    (``_subgrad_mu_rows``); where its row is NaN, some state's subgradient
    is set-valued and the step projects the averaged generator cloud of the
    set forms instead.

    The result depends only on the arguments: nothing is kept on ``P``
    between calls.  A 2-d ``y`` of shape ``(R, d2)`` is a block of
    multipliers, with ``x0`` None or of shape ``(R, d1)``; the result has
    shape ``(R, d1)`` and row r equals the call on ``y[r]`` from ``x0[r]``
    bit for bit (see ``_lambda_min_rows``).
    """
    y = np.asarray(y, dtype=float)
    if y.ndim == 2:
        return _lambda_min_rows(P, y, x0)
    return _solve(P, y, x0)


def _solve(P: SaddleProblem, y: np.ndarray, x0) -> np.ndarray:
    """The scalar kernel of ``lambda_min``: the minimizer at the 1-d ``y``
    from ``x0``."""
    cy = P.C_mu.T @ y
    x = np.array(x0, dtype=float) if x0 is not None else P.reference_point().copy()
    objective, k = P.objective, P._solver
    weighted = k.weighted

    def base(z):
        # Jhat_mu(z) over the states that carry weight; the value adds <cy, z>.
        J = 0
        for s, m in weighted:
            J += m * objective(z, s)
        return float(J) + _penalty_value(P, z)

    def smooth_grad(z, g_mu):
        # g_mu is the averaged subgradient row at z, NaN if set-valued there.
        if np.isnan(g_mu).any():
            return project(_raw_subgrad_mu(P, z), -cy) + cy
        return g_mu + cy

    fx = base(x) + float(cy @ x)
    g = smooth_grad(x, _subgrad_mu_rows(P, x[None])[0])
    gamma = 1.0
    prev_x = prev_g = None
    residual = np.inf
    for it in range(MAX_ITER):
        if prev_x is not None:
            dx = x - prev_x
            dg = g - prev_g
            denom = float(dg @ dg)
            if denom > 0:
                gamma = min(max(float(dx @ dg) / denom, 1e-12), 1e3)
        step = gamma
        # Rounding slack keeps the sufficient-decrease test meaningful once
        # the true decrease falls below float resolution of the value.
        slack = k.eps8 * (1.0 + abs(fx))
        for _ in range(60):
            x_new = _prox_penalty(P, x - step * g, step)
            f_new = base(x_new) + float(cy @ x_new)
            dx = x_new - x
            move2 = float((dx * dx).sum())
            if f_new <= fx - (0.25 / step) * move2 + slack:
                break
            step *= 0.5
        else:
            raise SolverStallError(residual, it)
        residual = math.sqrt(float(dx @ dx)) / step
        prev_x, prev_g = x, g
        x, fx = x_new, f_new
        if residual <= GRAD_TOL:
            break
        g = smooth_grad(x, _subgrad_mu_rows(P, x[None])[0])
    else:
        raise SolverStallError(residual, MAX_ITER)
    # 0 in d_x L(x, y) via support functions: every direction must see a
    # nonnegative support value.  On the barrier band or a NaN row the
    # subdifferential is a set, read from the set forms.
    shift = _penalty_shift(P, x)
    g_mu = _subgrad_mu_rows(P, x[None])[0]
    if shift is None or np.isnan(g_mu).any():
        full = _subgrad_mu(P, x).points
    else:
        full = (g_mu + shift)[None, :]
    worst = float(((full + cy) @ k.net_T).max(axis=0).min())
    if worst < -MEMBERSHIP_TOL:
        raise SolverStallError(abs(worst), MAX_ITER)
    return x


def _rowdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise inner products, each computed as the 1-d ``a @ b`` would be."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def _prox_penalty_rows(P: SaddleProblem, V: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """``_prox_penalty`` applied to each row of V with its own step; a zero
    row divides by zero, under the caller's ``np.errstate``."""
    nv = np.sqrt(_rowdot(V, V))
    a = gamma * P.epsilon / P.radius**2
    rho = nv / (1.0 + a)
    rho_out = nv / (1.0 + a + gamma * (P.growth_K + 1))
    rho = np.where(rho > P.radius, np.maximum(rho_out, P.radius), rho)
    out = (rho / nv)[:, None] * V
    out[nv == 0.0] = 0.0
    return out


def _lambda_min_rows(P: SaddleProblem, Y: np.ndarray, X0) -> np.ndarray:
    """``lambda_min`` on every row of Y at once, under masks.

    Each row takes the scalar solver's steps (spectral step, Armijo halving,
    radial prox, residual test, support-function certificate) on plain
    arrays, with every inner product formed as the scalar code forms it, so
    the rows are bit-identical to scalar calls.  A row that leaves this path
    (a stall, a set-valued subgradient, a minimizer on the barrier band or a
    failed certificate) is solved again by the scalar ``lambda_min`` from
    its own start, which raises or projects exactly as a scalar call would.
    """
    R = Y.shape[0]
    if Y.shape[1] != P.d2:
        raise ValueError(f"multipliers have shape {Y.shape}, need (R, {P.d2})")
    if X0 is None:
        X0 = P.reference_point()
    start = np.array(np.broadcast_to(np.asarray(X0, dtype=float), (R, P.d1)))
    X, redo = _batched_steps(P, Y, start)
    for r in np.flatnonzero(redo):
        X[r] = lambda_min(P, Y[r], x0=start[r])
    return X


def _batched_steps(P, Y, X):
    """Run the scalar iteration on the rows of X; return where the rows end
    and a mask of the rows the scalar solver must take over.

    Every row is computed at every pass and masks decide which results a
    row keeps, which on a few rows is cheaper than gathering the live ones.
    """
    k, pen = P._solver, P._penalty
    weighted = k.weighted
    CY = np.matmul(P.C_mu.T, Y[:, :, None])[:, :, 0]

    def value(Z):
        J = 0
        for s, m in weighted:
            J = J + m * P.objective_rows(Z, s)
        return J + _penalty_rows(P, Z) + _rowdot(CY, Z)

    F = value(X)
    G = _subgrad_mu_rows(P, X) + CY
    live = np.isfinite(G).all(axis=1)
    redo = ~live
    gamma = np.ones(len(X))
    prev_X, prev_G = X, G  # arrays here are replaced, never written in place
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for it in range(MAX_ITER):
            if not live.any():
                break
            if it > 0:
                dX, dG = X - prev_X, G - prev_G
                denom = _rowdot(dG, dG)
                bb = np.minimum(np.maximum(_rowdot(dX, dG) / denom, 1e-12), 1e3)
                gamma = np.where(live & (denom > 0), bb, gamma)
            step = gamma
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
            # Rows still trying stalled; the scalar solver raises for them.
            live &= ~trying
            redo |= trying
            residual = np.sqrt(_rowdot(move, move)) / step
            moved = live[:, None]
            prev_X, prev_G = np.where(moved, X, prev_X), np.where(moved, G, prev_G)
            X, F = np.where(moved, X_new, X), np.where(live, F_new, F)
            live &= ~(residual <= GRAD_TOL)
            if live.any():
                G = np.where(live[:, None], _subgrad_mu_rows(P, X) + CY, G)
                bad = live & ~np.isfinite(G).all(axis=1)
                live &= ~bad
                redo |= bad
        redo |= live
        # 0 in d_x L(x, y) via support functions, as in the scalar solver.
        shift = pen.c_shift * X
        nrm = np.sqrt(_rowdot(X, X))
        outer = nrm > P.radius + pen.band
        shift[outer] = shift[outer] + (P.growth_K + 1) * X[outer]
        on_band = ~(nrm < P.radius - pen.band) & ~outer
        g = (_subgrad_mu_rows(P, X) + shift) + CY
        worst = np.matmul(g[:, None, :], k.net_T)[:, 0, :].min(axis=1)
    return X, redo | on_band | ~(worst >= -MEMBERSHIP_TOL)


def dual_value(P: SaddleProblem, y, x0=None) -> float:
    """Dual objective Q_mu(y) = min_x L(x, y)."""
    lam = lambda_min(P, y, x0=x0)
    return lagrangian(P, lam, y)


def primal_drift(P: SaddleProblem) -> SetValuedMap:
    """Fast drift -(penalized subdifferential + C(s)^T y).

    Its point form is -((g_s + shift) + C(s)^T y) for the row g_s of
    ``P.subgrad_rows`` at x and the penalty gradient ``shift``, the value's
    one generator in the set form's order; it is ``None`` on the barrier
    sphere band and where that row is NaN.
    """
    cmax = max(
        float(np.linalg.norm(P.C[s], 2)) for s in range(P.alphabet)
    )
    growth = max(2 * P.growth_K + 1 + P.epsilon / P.radius**2, cmax)
    CT = [P.C[s].T for s in range(P.alphabet)]

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

    return SetValuedMap(
        dims=(P.d1, P.d2, P.d1), alphabet=P.alphabet,
        evaluate=evaluate, growth_K=growth, point=point,
    )


def dual_drift(P: SaddleProblem) -> SetValuedMap:
    """Slow drift {C(s) x - w(s)}, the observed constraint residual; a
    singleton everywhere, so its point form is C(s) x - w(s)."""
    cmax = max(float(np.linalg.norm(P.C[s], 2)) for s in range(P.alphabet))
    wmax = float(np.abs(P.w).max(initial=0.0))

    def point(x, y, s):
        return P.C[s] @ x - P.w[s]

    return SetValuedMap(
        dims=(P.d1, P.d2, P.d2), alphabet=P.alphabet,
        evaluate=lambda x, y, s: ConvexSet.singleton(point(x, y, s)),
        growth_K=max(cmax, wmax, 1e-12), point=point,
    )


def dual_ode_field(P: SaddleProblem) -> MeanField:
    """Singleton dual flow field y -> {C_mu lambda(y) - w_mu}.

    One velocity serves as ``evaluate_rows`` for a state ``(d2,)`` or a block
    ``(R, d2)``; ``evaluate`` is its singleton.  Every minimizer is solved
    cold by ``lambda_min``, whose rows equal its scalar calls bit for bit, so
    each row's velocity is a pure function of that row.
    """
    C_mu, w_mu = P.C_mu, P.w_mu
    growth = float(np.linalg.norm(C_mu, 2)) * P.K_prime() + float(
        np.linalg.norm(w_mu)
    ) + 1e-12

    def velocity(y):
        # Stacked matrix-vector products, so each row equals C_mu @ lam[r].
        return np.matmul(C_mu, lambda_min(P, y)[..., None])[..., 0] - w_mu

    return MeanField(
        evaluate=lambda y: ConvexSet.singleton(velocity(y)),
        dim=P.d2, growth_K=growth, evaluate_rows=velocity,
    )


def averaged_slow_field(P: SaddleProblem) -> MeanField:
    """Slow mean field built through the full averaging pipeline.

    Couples the minimizer map with the stationary polytope of the frozen
    kernel; on a uniquely ergodic chain this coincides with
    ``dual_ode_field`` and is the object the slow iterates track.
    """
    cmax = max(float(np.linalg.norm(P.C[s], 2)) for s in range(P.alphabet))
    wmax = float(np.abs(P.w).max(initial=0.0))
    growth = cmax * P.K_prime() + wmax + 1e-12
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
        selection_fast="least_norm",
        selection_slow="least_norm",
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
    """``lagrangian(P, L[r], Y[r])`` and ``||C_mu L[r] - w_mu||^2`` of each row."""
    # J_mu over every state in order, as J_mu sums it.
    J = 0
    for s in range(P.alphabet):
        J = J + P.mu[s] * P.objective_rows(L, s)
    resid = np.matmul(P.C_mu, L[:, :, None])[:, :, 0] - P.w_mu
    return J + _penalty_rows(P, L) + _rowdot(Y, resid), (resid**2).sum(axis=1)
