"""Averaged set-valued vector fields driving the limiting inclusions.

The fast field averages the fast drift over the stationary polytope of its
noise kernel frozen at the current iterates; the slow field averages the
slow drift over product measures coupling fast-attractor points with
stationary rows.  Both unions over measure families are evaluated at the
polytope vertices and convexified: the Aumann integral is affine in the
measure, so the hull of vertex evaluations equals the hull of the union
over the whole family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .convex import ConvexSet, minkowski_combine
from .markov import FiniteKernel, SlowMeasure, slow_measure_family, stationary_set
from .svmaps import ApproxLevel, SamReport, SetValuedMap, _check_contract, upper_approx

__all__ = [
    "MeanField",
    "aumann",
    "h1_hat",
    "h2_hat",
    "check_marchaud",
    "fast_field",
    "slow_field",
    "approx_fast_field",
]


@dataclass
class MeanField:
    """Set-valued vector field z -> ConvexSet with linear growth.

    ``growth_K`` is the Marchaud bound sup ||v|| <= growth_K * (1 + ||z||).
    """

    evaluate: Callable
    dim: int
    growth_K: float

    def __call__(self, z) -> ConvexSet:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim,):
            raise ValueError(f"state has shape {z.shape}, field has dim {self.dim}")
        K = self.evaluate(z)
        if not isinstance(K, ConvexSet):
            K = ConvexSet(K)
        return K

    def growth_bound(self, z) -> float:
        return self.growth_K * (1.0 + float(np.linalg.norm(z)))


def aumann(sets_by_state, mu) -> ConvexSet:
    """Integral of a state-indexed family of sets against a probability row."""
    mu = np.asarray(mu, dtype=float)
    sets_by_state = list(sets_by_state)
    if mu.shape != (len(sets_by_state),):
        raise ValueError(
            f"measure has {mu.shape} entries for {len(sets_by_state)} sets"
        )
    if np.any(mu < 0) or abs(mu.sum() - 1.0) > 1e-9:
        raise ValueError("mu must be a probability row")
    return minkowski_combine(mu, sets_by_state)


def _hull_of_union(sets) -> ConvexSet:
    return ConvexSet(np.vstack([K.points for K in sets])).reduced()


def h1_hat(H1: SetValuedMap, K1: FiniteKernel, x, y) -> ConvexSet:
    """Fast mean field value: hull over stationary vertices of the averaged drift."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slices = [H1(x, y, s) for s in range(H1.alphabet)]
    P = K1.frozen(x, y)
    stat = stationary_set(P)
    pieces = [aumann(slices, mu) for mu in stat.vertices]
    return _hull_of_union(pieces)


def h2_hat(H2: SetValuedMap, family: list[SlowMeasure], y) -> ConvexSet:
    """Slow mean field value: hull over the measure family of averaged drift."""
    y = np.asarray(y, dtype=float)
    if not family:
        raise ValueError("measure family must be nonempty")
    pieces = []
    for m in family:
        sets = [H2(xa, y, int(sa)) for xa, sa in zip(m.xs, m.states)]
        pieces.append(minkowski_combine(m.weights, sets))
    return _hull_of_union(pieces)


def check_marchaud(M: MeanField, grid, seq_probes=(), tol: float = 1e-8) -> SamReport:
    """Sampled Marchaud-map check: structure, growth, closed-graph witnesses.

    ``seq_probes`` entries are ``SeqProbe``s, or (points, values,
    limit_point, limit_value) tuples, with single-argument points.
    """
    return _check_contract(
        M, M.growth_bound, np.asarray, grid, seq_probes, tol, "value outside field"
    )


def fast_field(H1: SetValuedMap, K1: FiniteKernel, y) -> MeanField:
    """Fast mean field x -> average of H1(x, y, .) with y held fixed."""
    y = np.asarray(y, dtype=float)
    d1 = H1.dims[0]
    growth = H1.growth_K * (1.0 + float(np.linalg.norm(y)))
    return MeanField(
        evaluate=lambda x: h1_hat(H1, K1, x, y),
        dim=d1,
        growth_K=growth,
    )


def slow_field(
    H2: SetValuedMap, K2: FiniteKernel, lambda_fn: Callable, growth_K: float
) -> MeanField:
    """Slow mean field y -> average of H2 over the slow measure family.

    ``lambda_fn(y)`` samples the fast attractor; ``growth_K`` should fold
    the attractor growth constant into the drift bound.
    """
    d2 = H2.dims[1]

    def evaluate(y):
        lam = np.atleast_2d(np.asarray(lambda_fn(y), dtype=float))
        family = slow_measure_family(y, lam, K2)
        return h2_hat(H2, family, y)

    return MeanField(evaluate=evaluate, dim=d2, growth_K=growth_K)


def approx_fast_field(
    H1: SetValuedMap, K1: FiniteKernel, y, level: ApproxLevel
) -> MeanField:
    """Level-l fast mean field, averaging the upper approximant of the drift."""
    H1l = SetValuedMap(
        dims=H1.dims,
        alphabet=H1.alphabet,
        evaluate=lambda x, y, s: upper_approx(H1, level, x, y, s),
        growth_K=level.growth_Kl,
    )
    return fast_field(H1l, K1, y)
